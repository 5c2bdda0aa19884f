//! Runs the cluster extension (heterogeneous routing + autoscaling) and
//! prints the rendered studies.
fn main() {
    print!("{}", llmsim_bench::experiments::ext_cluster::render());
}
