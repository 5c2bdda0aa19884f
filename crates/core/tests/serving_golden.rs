//! Golden digest of `serving::simulate_traced`: every policy's outcomes,
//! aggregates and spans on three fixed inputs, folded through FNV-1a and
//! compared with digests recorded before the continuous-batching policies
//! moved onto the resilient engine. A scheduling change that moves any
//! output bit fails here, even though the passthrough tests would still
//! see the engine agree with itself.
//!
//! Outcome `queue_delay_s` is left out: it changed meaning for the
//! continuous-batching policies (first-token wait → wait before the
//! prefill that delivered the first token). Span `queue_delay_s` always
//! meant the latter and stays in, through the span's `Debug` text.

use llmsim_core::serving::{simulate_traced, SchedulingPolicy, ServingConfig, ServingRequest};
use llmsim_core::{CpuBackend, SimRng, VecSink};
use llmsim_model::families;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn requests(n: u64, gap: f64) -> Vec<ServingRequest> {
    (0..n)
        .map(|i| ServingRequest {
            id: i,
            arrival_s: i as f64 * gap,
            prompt_len: 64 + 64 * (i % 3),
            gen_len: 8 + 24 * (i % 4),
        })
        .collect()
}

/// One-token requests next to longer ones: alone on an idle server, in a
/// simultaneous burst, and joining a running batch.
fn one_token_trace() -> Vec<ServingRequest> {
    [
        (0.0, 64, 1),
        (0.0, 64, 8),
        (0.0, 200, 1),
        (0.01, 32, 12),
        (0.5, 32, 1),
        (0.5, 128, 1),
        (0.52, 16, 5),
        (3.0, 96, 1),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(arrival_s, prompt_len, gen_len))| ServingRequest {
        id: i as u64,
        arrival_s,
        prompt_len,
        gen_len,
    })
    .collect()
}

/// 24 requests drawn from a fixed seed: gaps of 0–59 ms (ties included),
/// prompts of 1–256 tokens, generations of 1–32 tokens.
fn seeded_draws() -> Vec<ServingRequest> {
    let mut rng = SimRng::new(2024);
    let mut t = 0.0;
    (0..24)
        .map(|id| {
            t += (rng.next_u64() % 60) as f64 / 1000.0;
            ServingRequest {
                id,
                arrival_s: t,
                prompt_len: 1 + rng.next_u64() % 256,
                gen_len: 1 + rng.next_u64() % 32,
            }
        })
        .collect()
}

fn digest(policy: SchedulingPolicy, reqs: &[ServingRequest]) -> u64 {
    let cfg = ServingConfig {
        max_batch: 4,
        policy,
    };
    let mut sink = VecSink::new();
    let rep = simulate_traced(
        &CpuBackend::paper_spr(),
        &families::opt_1_3b(),
        &cfg,
        reqs,
        &mut sink,
    );
    let mut h = Fnv::new();
    for o in &rep.outcomes {
        h.u64(o.id);
        h.u64(o.ttft_s.to_bits());
        h.u64(o.e2e_s.to_bits());
    }
    h.u64(rep.makespan_s.to_bits());
    h.u64(rep.generated_tokens);
    h.u64(rep.max_decode_stall_s.to_bits());
    for s in &sink.spans {
        h.bytes(format!("{s:?}").as_bytes());
    }
    h.0
}

#[test]
fn serving_outputs_match_recorded_digests() {
    let inputs: [(&str, Vec<ServingRequest>); 3] = [
        ("requests(14, 0.04)", requests(14, 0.04)),
        ("one-token trace", one_token_trace()),
        ("seeded draws", seeded_draws()),
    ];
    let policies = [
        SchedulingPolicy::Static,
        SchedulingPolicy::IterationLevel,
        SchedulingPolicy::ChunkedPrefill { chunk_tokens: 64 },
    ];
    let got: Vec<(String, u64)> = inputs
        .iter()
        .flat_map(|(name, reqs)| {
            policies
                .iter()
                .map(move |&p| (format!("{name} / {p}"), digest(p, reqs)))
        })
        .collect();
    // Recorded from the serving loops these policies ran on before the
    // fold, in `got`'s order: each input under static, iteration-level
    // and chunked prefill.
    let want: [u64; 9] = [
        0x4f94_4e00_b2d7_ed7f,
        0xf5a7_ff07_bd2c_bb9d,
        0xb16c_f067_3739_10a2,
        0x57b6_a077_bbd6_9912,
        0x779b_668e_8418_0476,
        0x16ad_9576_3b39_6649,
        0xda0c_c225_5b98_bc88,
        0x342b_428d_cfde_11fe,
        0xb6d3_8ae4_a159_9718,
    ];
    let listing: String = got
        .iter()
        .map(|(case, d)| format!("{case}: {d:#018x}\n"))
        .collect();
    assert_eq!(
        got.iter().map(|(_, d)| *d).collect::<Vec<_>>(),
        want,
        "serving outputs moved:\n{listing}"
    );
}
