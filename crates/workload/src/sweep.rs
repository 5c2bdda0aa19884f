//! Parameter-sweep grids matching the paper's methodology (§IV-A, §V).

use llmsim_model::{families, ModelConfig};

/// The paper's batch-size sweep: 1–32 in powers of two.
pub const PAPER_BATCHES: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// The paper's sequence-length sweep for §V-C: 128–1024 input tokens.
pub const PAPER_SEQ_LENS: [u64; 4] = [128, 256, 512, 1024];

/// The paper's core-count sweep for Fig. 14/16.
pub const PAPER_CORE_COUNTS: [u32; 4] = [12, 24, 48, 96];

/// One sweep point.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SweepPoint {
    /// Model name (resolve with [`families::by_name`]).
    pub model: String,
    /// Batch size.
    pub batch: u64,
    /// Prompt length.
    pub prompt_len: u64,
    /// Generation length.
    pub gen_len: u64,
}

/// The full §IV workload grid: every paper model × every batch size at the
/// standard 128/32 lengths.
#[must_use]
pub fn paper_grid() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for m in families::all_paper_models() {
        for &b in &PAPER_BATCHES {
            points.push(SweepPoint {
                model: m.name.clone(),
                batch: b,
                prompt_len: 128,
                gen_len: 32,
            });
        }
    }
    points
}

/// The §V-C sequence-length grid for one batch size.
#[must_use]
pub fn seq_len_grid(batch: u64) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for m in families::all_paper_models() {
        for &s in &PAPER_SEQ_LENS {
            points.push(SweepPoint {
                model: m.name.clone(),
                batch,
                prompt_len: s,
                gen_len: 32,
            });
        }
    }
    points
}

/// Resolves a sweep point's model configuration.
///
/// # Panics
///
/// Panics if the point references an unknown model (sweep builders here only
/// emit known names).
#[must_use]
pub fn resolve_model(point: &SweepPoint) -> ModelConfig {
    families::by_name(&point.model)
        .unwrap_or_else(|| panic!("unknown model in sweep: {}", point.model))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_covers_8_models_x_6_batches() {
        let g = paper_grid();
        assert_eq!(g.len(), 48);
        assert!(g.iter().all(|p| p.prompt_len == 128 && p.gen_len == 32));
    }

    #[test]
    fn seq_grid_sweeps_lengths() {
        let g = seq_len_grid(16);
        assert_eq!(g.len(), 32);
        assert!(g.iter().all(|p| p.batch == 16));
        assert!(g.iter().any(|p| p.prompt_len == 1024));
    }

    #[test]
    fn all_points_resolve() {
        for p in paper_grid() {
            assert_eq!(resolve_model(&p).name, p.model);
        }
    }
}
