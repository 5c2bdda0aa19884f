//! Binding parsed real-trace rows to a fleet's model list.
//!
//! `llmsim-workload`'s [`replay`](llmsim_workload::replay) module parses
//! Azure-LLM/BurstGPT-style CSVs into neutral [`ReplayRequest`]s; this
//! module resolves their model *names* against a
//! [`ClusterConfig`](crate::ClusterConfig)'s model list and produces the
//! [`ClusterRequest`] stream `simulate_fleet` consumes — the step that
//! lets a production trace drive the fleet instead of synthetic MMPP.

use crate::engine::ClusterRequest;
use llmsim_model::ModelConfig;
use llmsim_workload::replay::ReplayRequest;
use std::fmt;

/// A trace row referenced a model the fleet does not serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownModelError {
    /// The trace's model name.
    pub model: String,
    /// Request id of the first offending row.
    pub request: usize,
    /// The model names the fleet serves.
    pub known: Vec<String>,
}

impl fmt::Display for UnknownModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace request {} names model {:?}, but the fleet serves {:?}",
            self.request, self.model, self.known
        )
    }
}

impl std::error::Error for UnknownModelError {}

/// Resolves replayed requests against `models` (case-insensitive name
/// match; the placeholder name `"default"` — used when a trace has no
/// model column — binds to `models[0]`).
///
/// # Errors
///
/// Returns [`UnknownModelError`] for the first row whose model name is
/// not served.
pub fn bind_requests(
    replay: &[ReplayRequest],
    models: &[ModelConfig],
) -> Result<Vec<ClusterRequest>, UnknownModelError> {
    replay
        .iter()
        .map(|r| {
            let model = if r.model.eq_ignore_ascii_case("default") {
                Some(0)
            } else {
                models
                    .iter()
                    .position(|m| m.name.eq_ignore_ascii_case(&r.model))
            };
            let model = model.ok_or_else(|| UnknownModelError {
                model: r.model.clone(),
                request: r.id,
                known: models.iter().map(|m| m.name.clone()).collect(),
            })?;
            Ok(ClusterRequest {
                id: r.id,
                arrival_s: r.arrival_s,
                prompt_len: r.prompt_len,
                gen_len: r.gen_len,
                model,
                // Real-trace rows carry no prefix or session identity.
                ..ClusterRequest::default()
            })
        })
        .collect()
}

/// Parses a raw trace and binds it to `models` in one step, folding both
/// failure modes into [`llmsim_core::SimError::InvalidRequest`] so fleet
/// drivers have a single error type to surface (the orphan rule keeps
/// this a function rather than `From` impls: neither `TraceParseError`
/// nor `SimError` is defined in this crate).
///
/// # Errors
///
/// Returns [`llmsim_core::SimError::InvalidRequest`] describing the parse
/// failure or the first unserved model name.
pub fn parse_and_bind(
    text: &str,
    models: &[ModelConfig],
) -> Result<Vec<ClusterRequest>, llmsim_core::SimError> {
    let replay = llmsim_workload::replay::parse_trace(text)
        .map_err(|e| llmsim_core::SimError::InvalidRequest(format!("trace parse: {e}")))?;
    bind_requests(&replay, models).map_err(|e| llmsim_core::SimError::InvalidRequest(e.to_string()))
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact float assertions are deliberate: determinism is bit-level
mod tests {
    use super::*;
    use llmsim_model::families;
    use llmsim_workload::replay::parse_trace;

    const TRACE: &str = "\
timestamp,prompt_len,gen_len,model
0.0,128,32,OPT-13B
0.5,256,16,opt-66b
1.0,64,8,OPT-13B
";

    #[test]
    fn binds_names_case_insensitively() {
        let replay = parse_trace(TRACE).unwrap();
        let models = vec![families::opt_13b(), families::opt_66b()];
        let reqs = bind_requests(&replay, &models).expect("all models served");
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].model, 0);
        assert_eq!(reqs[1].model, 1, "lowercase opt-66b still binds");
        assert_eq!(reqs[2].prompt_len, 64);
        assert_eq!(reqs[1].arrival_s, 0.5);
    }

    #[test]
    fn default_model_binds_to_first() {
        let replay = parse_trace("timestamp,prompt_len,gen_len\n0,8,4\n").unwrap();
        let reqs = bind_requests(&replay, &[families::opt_13b()]).unwrap();
        assert_eq!(reqs[0].model, 0);
    }

    #[test]
    fn parse_and_bind_folds_both_error_paths_into_sim_error() {
        use llmsim_core::SimError;

        let models = vec![families::opt_13b(), families::opt_66b()];
        let reqs = parse_and_bind(TRACE, &models).expect("good trace binds");
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[1].model, 1);

        // Parse failure surfaces as InvalidRequest naming the trace problem.
        let err = parse_and_bind("prompt_len,gen_len\n1,2\n", &models).unwrap_err();
        match &err {
            SimError::InvalidRequest(msg) => assert!(msg.contains("timestamp"), "{msg}"),
            other => panic!("wrong variant: {other:?}"),
        }

        // Unknown-model failure surfaces as InvalidRequest too.
        let err = parse_and_bind(TRACE, &[families::opt_13b()]).unwrap_err();
        match &err {
            SimError::InvalidRequest(msg) => assert!(msg.contains("opt-66b"), "{msg}"),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn unknown_model_is_a_descriptive_error() {
        let replay = parse_trace(TRACE).unwrap();
        let err = bind_requests(&replay, &[families::opt_13b()]).unwrap_err();
        assert_eq!(err.model, "opt-66b");
        assert_eq!(err.request, 1);
        assert!(err.to_string().contains("OPT-13B"));
    }
}
