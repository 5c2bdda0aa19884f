//! Inference phases (§II-B of the paper).

use std::fmt;

/// The two phases of autoregressive LLM inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Prompt processing: all input tokens in one compute-bound pass.
    Prefill,
    /// Token generation: one token per step, memory-bound.
    Decode,
}

impl Phase {
    /// Both phases, prefill first.
    pub const ALL: [Phase; 2] = [Phase::Prefill, Phase::Decode];
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Prefill => "prefill",
            Phase::Decode => "decode",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(Phase::Prefill.to_string(), "prefill");
        assert_eq!(Phase::Decode.to_string(), "decode");
        assert_eq!(Phase::ALL.len(), 2);
    }
}
