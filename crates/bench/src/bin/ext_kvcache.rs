//! Runs the paged-KV extension (prefix caching + cache-aware routing) and
//! prints the rendered studies.
fn main() {
    print!("{}", llmsim_bench::experiments::ext_kvcache::render());
}
