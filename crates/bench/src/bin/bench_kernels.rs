//! Wall-clock benchmark of the emulated GEMM kernel paths, emitting a JSON
//! summary (`BENCH_kernels.json` by default) so kernel-speed regressions are
//! visible in CI artifacts and diffable across commits.
//!
//! Three paths are timed at each size:
//!
//! - `legacy`  — the seed per-element TMUL kernel with per-k-step gather
//!   allocations (kept as [`llmsim_isa::gemm::amx_gemm_bf16_legacy`]);
//! - `packed`  — the zero-alloc blocked kernel with row-slice TMUL fast
//!   paths ([`llmsim_isa::gemm::amx_gemm_bf16`]);
//! - `parallel` — the packed kernel fanned out across emulated cores
//!   ([`llmsim_isa::amx_gemm_bf16_parallel`]).
//!
//! All three produce bit-identical outputs (asserted here on every run), so
//! the ratios are pure kernel-speed deltas.

use llmsim_isa::bf16::Bf16;
use llmsim_isa::gemm::{amx_gemm_bf16, amx_gemm_bf16_legacy};
use llmsim_isa::parallel::amx_gemm_bf16_parallel;
use std::fmt::Write as _;
use std::time::Instant;

/// Deterministic pseudo-random BF16 operand (no RNG dependency).
fn operand(len: usize, salt: u64) -> Vec<Bf16> {
    let xs: Vec<f32> = (0..len)
        .map(|i| {
            let h = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 2.0
        })
        .collect();
    Bf16::quantize_slice(&xs)
}

/// Times `f` once and returns (seconds, output).
fn time_one<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

struct SizeRow {
    n: usize,
    legacy_s: f64,
    packed_s: f64,
    parallel_s: f64,
    parallel_cores: usize,
}

fn bench_size(n: usize, cores: usize) -> SizeRow {
    let a = operand(n * n, 0x0123_4567);
    let b = operand(n * n, 0x89AB_CDEF);
    let (legacy_s, legacy) = time_one(|| amx_gemm_bf16_legacy(&a, &b, n, n, n));
    let (packed_s, packed) = time_one(|| amx_gemm_bf16(&a, &b, n, n, n));
    let (parallel_s, par) = time_one(|| amx_gemm_bf16_parallel(&a, &b, n, n, n, cores));
    for (i, (x, y)) in legacy.c.iter().zip(&packed.c).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "packed diverged at {i} (n={n})");
    }
    for (i, (x, y)) in legacy.c.iter().zip(&par.c).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "parallel diverged at {i} (n={n})");
    }
    SizeRow {
        n,
        legacy_s,
        packed_s,
        parallel_s,
        parallel_cores: cores,
    }
}

fn main() {
    let mut out_path = "BENCH_kernels.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            _ => {
                eprintln!("usage: bench_kernels [--out <path>]");
                std::process::exit(2);
            }
        }
    }

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut rows = Vec::new();
    for n in [512, 1024] {
        eprintln!("benchmarking {n}x{n}x{n} (legacy / packed / parallel x{cores})...");
        rows.push(bench_size(n, cores));
    }

    let mut json = String::new();
    json.push_str("{\n  \"gemm\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"legacy_s\": {:.4}, \"packed_s\": {:.4}, \"parallel_s\": {:.4}, \
             \"parallel_cores\": {}, \"packed_speedup\": {:.2}, \"parallel_speedup\": {:.2}}}{}",
            r.n,
            r.legacy_s,
            r.packed_s,
            r.parallel_s,
            r.parallel_cores,
            r.legacy_s / r.packed_s,
            r.legacy_s / r.parallel_s,
            sep
        );
    }
    json.push_str("  ]\n}\n");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("wrote {out_path}");
}
