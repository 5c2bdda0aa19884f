//! Runs the chaos study — fault-injected trace replay with retry,
//! hedging, and health-aware routing — and prints the rendered report.
fn main() {
    print!("{}", llmsim_bench::experiments::ext_chaos::render());
}
