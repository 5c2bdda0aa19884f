//! Runs the multi-socket extension (tensor parallelism over UPI plus
//! pipeline stage chains) and prints the rendered studies.
fn main() {
    print!("{}", llmsim_bench::experiments::ext_multisocket::render());
}
