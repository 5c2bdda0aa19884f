//! Randomized request generation for stress and property tests, and a
//! Poisson arrival trace for serving-style experiments (an extension beyond
//! the paper's fixed-shape sweeps).

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bounds for random request shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestBounds {
    /// Inclusive batch range.
    pub batch: (u64, u64),
    /// Inclusive prompt-length range.
    pub prompt_len: (u64, u64),
    /// Inclusive generation-length range.
    pub gen_len: (u64, u64),
}

impl Default for RequestBounds {
    fn default() -> Self {
        RequestBounds {
            batch: (1, 32),
            prompt_len: (16, 1024),
            gen_len: (1, 128),
        }
    }
}

/// A generated request shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GeneratedRequest {
    /// Batch size.
    pub batch: u64,
    /// Prompt length.
    pub prompt_len: u64,
    /// Generation length.
    pub gen_len: u64,
}

/// Deterministic random request generator.
#[derive(Debug)]
pub struct RequestGenerator {
    rng: StdRng,
    bounds: RequestBounds,
}

impl RequestGenerator {
    /// Creates a generator with a fixed seed (reproducible workloads).
    #[must_use]
    pub fn new(seed: u64, bounds: RequestBounds) -> Self {
        RequestGenerator {
            rng: StdRng::seed_from_u64(seed),
            bounds,
        }
    }

    /// Draws one request shape uniformly within bounds.
    pub fn sample(&mut self) -> GeneratedRequest {
        let b = self.bounds;
        GeneratedRequest {
            batch: self.rng.gen_range(b.batch.0..=b.batch.1),
            prompt_len: self.rng.gen_range(b.prompt_len.0..=b.prompt_len.1),
            gen_len: self.rng.gen_range(b.gen_len.0..=b.gen_len.1),
        }
    }

    /// Draws `n` shapes.
    pub fn sample_many(&mut self, n: usize) -> Vec<GeneratedRequest> {
        (0..n).map(|_| self.sample()).collect()
    }
}

/// Parameters of a log-normal length distribution (real chat traces like
/// ShareGPT have heavy-tailed prompt/generation lengths; a log-normal is
/// the standard fit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalLengths {
    /// Mean of `ln(length)`.
    pub mu: f64,
    /// Std-dev of `ln(length)`.
    pub sigma: f64,
    /// Inclusive clamp range.
    pub clamp: (u64, u64),
}

impl LogNormalLengths {
    /// A ShareGPT-like prompt-length distribution (median ≈ 160 tokens,
    /// heavy tail to a few thousand).
    #[must_use]
    pub fn sharegpt_prompts() -> Self {
        LogNormalLengths {
            mu: 5.08,
            sigma: 1.0,
            clamp: (4, 4096),
        }
    }

    /// A ShareGPT-like generation-length distribution (median ≈ 90 tokens).
    #[must_use]
    pub fn sharegpt_generations() -> Self {
        LogNormalLengths {
            mu: 4.5,
            sigma: 0.8,
            clamp: (1, 1024),
        }
    }

    /// Draws one length using Box–Muller over the given RNG.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        // Box–Muller: two uniforms → one standard normal.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let len = (self.mu + self.sigma * z).exp();
        (len.round() as u64).clamp(self.clamp.0, self.clamp.1)
    }
}

/// Generates `n` ShareGPT-like `(prompt_len, gen_len)` pairs with a fixed
/// seed.
#[must_use]
pub fn sharegpt_like_lengths(seed: u64, n: usize) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let prompts = LogNormalLengths::sharegpt_prompts();
    let gens = LogNormalLengths::sharegpt_generations();
    (0..n)
        .map(|_| (prompts.sample(&mut rng), gens.sample(&mut rng)))
        .collect()
}

/// A request arrival trace with exponential inter-arrival times
/// (Poisson process at `rate_per_sec`).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    /// Arrival timestamps in seconds, ascending.
    pub arrivals: Vec<f64>,
}

impl ArrivalTrace {
    /// Generates `n` arrivals at `rate_per_sec` with a fixed seed.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not positive.
    #[must_use]
    pub fn poisson(seed: u64, n: usize, rate_per_sec: f64) -> Self {
        assert!(rate_per_sec > 0.0, "arrival rate must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let exp = rand::distributions::Uniform::new(f64::MIN_POSITIVE, 1.0f64);
        let mut t = 0.0;
        let mut arrivals = Vec::with_capacity(n);
        for _ in 0..n {
            let u: f64 = exp.sample(&mut rng);
            t += -u.ln() / rate_per_sec;
            arrivals.push(t);
        }
        ArrivalTrace { arrivals }
    }

    /// Generates `n` arrivals from a two-state Markov-modulated Poisson
    /// process: calm phases arrive at `base_rate_per_sec`, burst phases at
    /// `burst_multiplier` times that, with exponentially-distributed phase
    /// durations of mean `mean_phase_s`. Bursty traffic is what stresses
    /// admission control and SLO deadlines — a plain Poisson trace at the
    /// same mean rate rarely saturates a bounded queue.
    ///
    /// # Panics
    ///
    /// Panics unless `base_rate_per_sec` and `mean_phase_s` are positive
    /// and `burst_multiplier >= 1`.
    #[must_use]
    pub fn bursty(
        seed: u64,
        n: usize,
        base_rate_per_sec: f64,
        burst_multiplier: f64,
        mean_phase_s: f64,
    ) -> Self {
        assert!(base_rate_per_sec > 0.0, "arrival rate must be positive");
        assert!(burst_multiplier >= 1.0, "burst multiplier must be >= 1");
        assert!(mean_phase_s > 0.0, "mean phase length must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let unit = rand::distributions::Uniform::new(f64::MIN_POSITIVE, 1.0f64);
        let mut t = 0.0;
        let mut in_burst = false;
        // End of the current calm/burst phase.
        let mut phase_end = -unit.sample(&mut rng).ln() * mean_phase_s;
        let mut arrivals = Vec::with_capacity(n);
        while arrivals.len() < n {
            let rate = if in_burst {
                base_rate_per_sec * burst_multiplier
            } else {
                base_rate_per_sec
            };
            let gap = -unit.sample(&mut rng).ln() / rate;
            if t + gap >= phase_end {
                // The phase flips before this arrival would land; restart
                // the draw from the boundary at the other rate
                // (memorylessness makes the restart exact).
                t = phase_end;
                in_burst = !in_burst;
                phase_end = t - unit.sample(&mut rng).ln() * mean_phase_s;
                continue;
            }
            t += gap;
            arrivals.push(t);
        }
        ArrivalTrace { arrivals }
    }

    /// Mean inter-arrival time of the trace (0 for traces shorter than 2).
    #[must_use]
    pub fn mean_gap(&self) -> f64 {
        let [first, .., last] = self.arrivals.as_slice() else {
            return 0.0;
        };
        let span = last - first;
        span / (self.arrivals.len() - 1) as f64
    }

    /// Coefficient of variation of the inter-arrival gaps (1 ≈ Poisson,
    /// above 1 = bursty; 0 for traces shorter than 3).
    #[must_use]
    pub fn gap_cv(&self) -> f64 {
        if self.arrivals.len() < 3 {
            return 0.0;
        }
        let gaps: Vec<f64> = self.arrivals.windows(2).map(|w| w[1] - w[0]).collect();
        // lint:ordered: gaps is a Vec derived from arrivals, which are sorted by time
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        // lint:ordered: same sorted-gaps Vec as the mean above
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_in_bounds() {
        let bounds = RequestBounds::default();
        let a = RequestGenerator::new(7, bounds).sample_many(100);
        let b = RequestGenerator::new(7, bounds).sample_many(100);
        assert_eq!(a, b);
        for r in &a {
            assert!((1..=32).contains(&r.batch));
            assert!((16..=1024).contains(&r.prompt_len));
            assert!((1..=128).contains(&r.gen_len));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let bounds = RequestBounds::default();
        let a = RequestGenerator::new(1, bounds).sample_many(50);
        let b = RequestGenerator::new(2, bounds).sample_many(50);
        assert_ne!(a, b);
    }

    #[test]
    fn poisson_trace_matches_rate() {
        let t = ArrivalTrace::poisson(42, 5000, 10.0);
        assert_eq!(t.arrivals.len(), 5000);
        assert!(t.arrivals.windows(2).all(|w| w[1] >= w[0]));
        let gap = t.mean_gap();
        assert!((gap - 0.1).abs() < 0.01, "{gap}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = ArrivalTrace::poisson(1, 10, 0.0);
    }

    #[test]
    fn bursty_trace_is_sorted_deterministic_and_burstier_than_poisson() {
        let a = ArrivalTrace::bursty(9, 3000, 10.0, 8.0, 2.0);
        assert_eq!(a.arrivals.len(), 3000);
        assert!(a.arrivals.windows(2).all(|w| w[1] >= w[0]));
        assert_eq!(a, ArrivalTrace::bursty(9, 3000, 10.0, 8.0, 2.0));
        // Burstiness shows up as over-dispersed gaps vs the Poisson CV of 1.
        let poisson = ArrivalTrace::poisson(9, 3000, 10.0);
        assert!(
            a.gap_cv() > 1.15 && a.gap_cv() > poisson.gap_cv(),
            "bursty CV {} vs poisson CV {}",
            a.gap_cv(),
            poisson.gap_cv()
        );
    }

    #[test]
    fn bursty_mean_rate_matches_mmpp_closed_form_across_seeds() {
        // Two-state MMPP with equal exponential phase durations spends
        // half its time in each phase, so the stationary arrival rate is
        //   E[rate] = base * (1 + multiplier) / 2.
        // This exercises the phase-boundary redraw: if flipping phases
        // dropped or double-counted the in-flight gap, the realized rate
        // would drift from the closed form as phases multiply.
        let (base, mult, phase_s) = (10.0, 4.0, 1.0);
        let expected = base * (1.0 + mult) / 2.0;
        let n = 20_000;
        let mut rates = Vec::new();
        for seed in [3, 17, 41, 97, 271] {
            let t = ArrivalTrace::bursty(seed, n, base, mult, phase_s);
            // ~800 phase flips per trace: well mixed.
            let span = t.arrivals.last().unwrap() - t.arrivals[0];
            let rate = (n - 1) as f64 / span;
            assert!(
                (rate - expected).abs() / expected < 0.06,
                "seed {seed}: empirical rate {rate} vs closed form {expected}"
            );
            rates.push(rate);
        }
        let mean_rate = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(
            (mean_rate - expected).abs() / expected < 0.03,
            "across seeds: {mean_rate} vs {expected}"
        );
    }

    #[test]
    fn burst_multiplier_one_degenerates_to_poisson_statistics() {
        let t = ArrivalTrace::bursty(5, 4000, 20.0, 1.0, 1.0);
        // Rate is unmodulated, so the mean gap matches 1/rate closely.
        assert!((t.mean_gap() - 0.05).abs() < 0.005, "{}", t.mean_gap());
        assert!((t.gap_cv() - 1.0).abs() < 0.1, "{}", t.gap_cv());
    }

    #[test]
    fn sharegpt_lengths_match_distribution_shape() {
        let pairs = sharegpt_like_lengths(11, 4000);
        assert_eq!(pairs.len(), 4000);
        let mut prompts: Vec<u64> = pairs.iter().map(|(p, _)| *p).collect();
        prompts.sort_unstable();
        let median = prompts[prompts.len() / 2];
        // Log-normal median = e^mu ≈ 160.
        assert!((100..260).contains(&median), "median {median}");
        // Heavy tail: p99 far above the median, within the clamp.
        let p99 = prompts[prompts.len() * 99 / 100];
        assert!(p99 > 4 * median, "p99 {p99} vs median {median}");
        assert!(*prompts.last().unwrap() <= 4096);
        assert!(*prompts.first().unwrap() >= 4);
        // Deterministic for a fixed seed.
        assert_eq!(pairs, sharegpt_like_lengths(11, 4000));
    }
}
