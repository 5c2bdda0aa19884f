//! Memoized decode-step pricing.
//!
//! The paper prices a decode step as a memory-bound roofline whose only
//! inputs are the batch width and the context length, and
//! [`CostModel::decode_step_time`] is a pure function of exactly those
//! (plus the model). Serving loops ask for the same step again and again:
//! every request of a replay walks context lengths its predecessors
//! already walked. A [`StepTable`] prices each `(batch, kv_len)` of one
//! backend and one model once and answers every later ask from its table.
//! It hands back the very `f64` the backend returned, so a loop that reads
//! its addends from the table folds the same sums bit for bit.

use crate::backend::CostModel;
use llmsim_model::ModelConfig;
use std::collections::BTreeMap;

/// Context lengths per table page.
const PAGE: usize = 256;

/// Bits of a slot not priced yet. It is a NaN that the cost models'
/// arithmetic does not produce; were a backend to return it anyway, that
/// step would only be priced afresh on every ask, never misreported.
const UNPRICED: u64 = u64::MAX;

/// Decode-step prices of one backend for one model, keyed first by batch
/// width and then densely by `kv_len`.
///
/// Prices sit in pages of 256 consecutive context lengths, so the table
/// grows with the lengths a run actually visits rather than with the
/// largest one. Owned and lock-free: each serving loop keeps its own
/// tables (one per backend group × model in the cluster engine), and a
/// table must only ever be asked about the backend and model it started
/// with.
#[derive(Debug, Clone, Default)]
pub struct StepTable {
    /// `(batch, kv_len / PAGE)` → that page's prices, as `f64` bits.
    pages: BTreeMap<(u64, u64), Box<[u64; PAGE]>>,
}

impl StepTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `backend.decode_step_time(model, batch, kv_len)` in seconds, priced
    /// on the first ask.
    pub fn step_s<B: CostModel + ?Sized>(
        &mut self,
        backend: &B,
        model: &ModelConfig,
        batch: u64,
        kv_len: u64,
    ) -> f64 {
        let page = self.page(batch, kv_len);
        price(&mut page[slot_of(kv_len)], backend, model, batch, kv_len)
    }

    /// `init + step(first_kv) + step(first_kv + 1) + …` over `steps`
    /// consecutive context lengths, added left to right: the fold of
    /// `predict_service_s` in the cluster engine, with each addend read
    /// from the table. Fetches each page once per run of lengths.
    pub fn fold_steps<B: CostModel + ?Sized>(
        &mut self,
        backend: &B,
        model: &ModelConfig,
        batch: u64,
        first_kv: u64,
        steps: u64,
        init: f64,
    ) -> f64 {
        let mut acc = init;
        let mut step = 0;
        while step < steps {
            let first_slot = slot_of(first_kv + step);
            let run = ((PAGE - first_slot) as u64).min(steps - step) as usize;
            let page = self.page(batch, first_kv + step);
            for slot in &mut page[first_slot..first_slot + run] {
                acc += price(slot, backend, model, batch, first_kv + step);
                step += 1;
            }
        }
        acc
    }

    /// The page holding `(batch, kv_len)`, created unpriced on first use.
    fn page(&mut self, batch: u64, kv_len: u64) -> &mut [u64; PAGE] {
        self.pages
            .entry((batch, kv_len / PAGE as u64))
            .or_insert_with(|| Box::new([UNPRICED; PAGE]))
    }
}

/// Index of `kv_len` within its page.
fn slot_of(kv_len: u64) -> usize {
    (kv_len % PAGE as u64) as usize
}

/// The price in `slot`, asking the backend when the slot is unpriced.
fn price<B: CostModel + ?Sized>(
    slot: &mut u64,
    backend: &B,
    model: &ModelConfig,
    batch: u64,
    kv_len: u64,
) -> f64 {
    if *slot == UNPRICED {
        *slot = backend
            .decode_step_time(model, batch, kv_len)
            .as_f64()
            .to_bits();
    }
    f64::from_bits(*slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, CpuBackend, GpuBackend, TensorParallel};
    use llmsim_model::families;
    use proptest::prelude::*;
    use std::cell::Cell;

    /// Every backend shape the serving loops price: CPUs, a resident and an
    /// offloaded GPU, and a two-socket tensor-parallel group.
    fn backends() -> Vec<(Box<dyn CostModel>, ModelConfig)> {
        vec![
            (Box::new(CpuBackend::paper_spr()), families::opt_13b()),
            (Box::new(CpuBackend::paper_icl()), families::llama2_7b()),
            (Box::new(GpuBackend::paper_a100()), families::opt_13b()),
            (Box::new(GpuBackend::paper_a100()), families::opt_66b()),
            (
                Box::new(TensorParallel::across_sockets(CpuBackend::paper_spr(), 2).unwrap()),
                families::opt_13b(),
            ),
        ]
    }

    /// Drawn asks: runs of `(batch, kv, len, dir)`, each `len` context
    /// lengths from `kv`, walked up (`dir` even) or down. Successive runs
    /// repeat, overlap or leave gaps between the lengths they visit.
    fn arb_runs() -> impl Strategy<Value = Vec<(u64, u64, u64, u64)>> {
        prop::collection::vec((1u64..9, 1u64..1200, 1u64..40, 0u64..4), 1..12)
    }

    #[test]
    fn the_gpu_cases_cover_both_residencies() {
        let a100 = GpuBackend::paper_a100();
        assert!(a100.holds_resident(&families::opt_13b()));
        assert!(!a100.holds_resident(&families::opt_66b()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn step_prices_match_direct_calls_bit_for_bit(runs in arb_runs()) {
            for (backend, model) in backends() {
                let mut table = StepTable::new();
                for &(batch, kv, len, dir) in &runs {
                    // Ascending runs, descending runs and repeats of the
                    // same lengths, in whatever order the draw gives.
                    let lens: Vec<u64> = if dir % 2 == 0 {
                        (kv..kv + len).collect()
                    } else {
                        (kv..kv + len).rev().collect()
                    };
                    for kv_len in lens {
                        let direct = backend.decode_step_time(&model, batch, kv_len).as_f64();
                        let memo = table.step_s(backend.as_ref(), &model, batch, kv_len);
                        prop_assert_eq!(direct.to_bits(), memo.to_bits(), "{} b={} kv={}", backend.name(), batch, kv_len);
                    }
                }
            }
        }

        #[test]
        fn folds_match_the_direct_left_fold(runs in arb_runs()) {
            for (backend, model) in backends() {
                let mut table = StepTable::new();
                for &(batch, kv, len, _) in &runs {
                    // A fold over lengths the table has partly seen (the
                    // drawn runs overlap) and across page boundaries.
                    let init = backend.prefill_time(&model, batch, kv).as_f64();
                    let direct = (0..len).fold(init, |acc, s| {
                        acc + backend.decode_step_time(&model, batch, kv + s).as_f64()
                    });
                    let memo = table.fold_steps(backend.as_ref(), &model, batch, kv, len, init);
                    prop_assert_eq!(direct.to_bits(), memo.to_bits(), "{} b={} kv={}+{}", backend.name(), batch, kv, len);
                }
            }
        }
    }

    /// Counts the backend calls a table makes.
    struct Counting {
        inner: CpuBackend,
        calls: Cell<u64>,
    }

    impl Backend for Counting {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn run(
            &self,
            model: &ModelConfig,
            request: &crate::Request,
        ) -> Result<crate::InferenceReport, crate::SimError> {
            self.inner.run(model, request)
        }
    }

    impl CostModel for Counting {
        fn prefill_time(
            &self,
            model: &ModelConfig,
            batch: u64,
            prompt_len: u64,
        ) -> llmsim_hw::Seconds {
            self.inner.prefill_time(model, batch, prompt_len)
        }

        fn decode_step_time(
            &self,
            model: &ModelConfig,
            batch: u64,
            kv_len: u64,
        ) -> llmsim_hw::Seconds {
            self.calls.set(self.calls.get() + 1);
            CostModel::decode_step_time(&self.inner, model, batch, kv_len)
        }

        fn weight_bytes(&self, model: &ModelConfig) -> llmsim_hw::Bytes {
            CostModel::weight_bytes(&self.inner, model)
        }

        fn weight_load_bandwidth(&self) -> llmsim_hw::GbPerSec {
            self.inner.weight_load_bandwidth()
        }

        fn holds_resident(&self, model: &ModelConfig) -> bool {
            self.inner.holds_resident(model)
        }

        fn kv_capacity_bytes(&self, models: &[ModelConfig]) -> llmsim_hw::Bytes {
            self.inner.kv_capacity_bytes(models)
        }
    }

    #[test]
    fn each_step_is_priced_once() {
        let backend = Counting {
            inner: CpuBackend::paper_spr(),
            calls: Cell::new(0),
        };
        let m = families::opt_6_7b();
        let mut table = StepTable::new();
        // Two overlapping folds across a page boundary, then single asks
        // inside what they covered.
        table.fold_steps(&backend, &m, 4, 250, 10, 0.0);
        table.fold_steps(&backend, &m, 4, 255, 10, 0.0);
        table.step_s(&backend, &m, 4, 252);
        table.step_s(&backend, &m, 4, 264);
        assert_eq!(backend.calls.get(), 15); // kv 250..265
                                             // Another batch width is another key.
        table.step_s(&backend, &m, 5, 252);
        assert_eq!(backend.calls.get(), 16);
    }

    #[test]
    fn far_apart_context_lengths_take_a_page_each() {
        let spr = CpuBackend::paper_spr();
        let m = families::opt_1_3b();
        let mut table = StepTable::new();
        for kv in [1, 1 << 10, 1 << 14, 1 << 18] {
            let direct = CostModel::decode_step_time(&spr, &m, 1, kv).as_f64();
            assert_eq!(table.step_s(&spr, &m, 1, kv).to_bits(), direct.to_bits());
        }
        assert_eq!(table.pages.len(), 4);
    }
}
