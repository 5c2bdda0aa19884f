//! Inference request description.

use crate::error::SimError;
use std::fmt;

/// One batched generation request: `batch` prompts of `prompt_len` tokens,
/// each generating `gen_len` output tokens.
///
/// The paper's standard workload is `prompt_len = 128`, `gen_len = 32`,
/// with batch swept 1–32 (§IV-A); [`Request::paper_default`] builds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Concurrent sequences.
    pub batch: u64,
    /// Input prompt length per sequence.
    pub prompt_len: u64,
    /// Output tokens generated per sequence (includes the prefill token).
    pub gen_len: u64,
}

impl Request {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero; use [`Request::try_new`] for fallible
    /// construction.
    #[must_use]
    pub fn new(batch: u64, prompt_len: u64, gen_len: u64) -> Self {
        Self::try_new(batch, prompt_len, gen_len).expect("invalid request")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRequest`] if any field is zero.
    pub fn try_new(batch: u64, prompt_len: u64, gen_len: u64) -> Result<Self, SimError> {
        if batch == 0 || prompt_len == 0 || gen_len == 0 {
            return Err(SimError::InvalidRequest(format!(
                "batch ({batch}), prompt_len ({prompt_len}) and gen_len ({gen_len}) must be positive"
            )));
        }
        Ok(Request {
            batch,
            prompt_len,
            gen_len,
        })
    }

    /// The paper's standard configuration: input 128, output 32.
    #[must_use]
    pub fn paper_default(batch: u64) -> Self {
        Request::new(batch, 128, 32)
    }

    /// Total generated tokens (`batch × gen_len`).
    #[must_use]
    pub fn generated_tokens(&self) -> u64 {
        self.batch * self.gen_len
    }

    /// Decode steps after the prefill produced the first token.
    #[must_use]
    pub fn decode_steps(&self) -> u64 {
        self.gen_len - 1
    }

    /// Final context length per sequence.
    #[must_use]
    pub fn final_context(&self) -> u64 {
        self.prompt_len + self.gen_len
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "b={} in={} out={}",
            self.batch, self.prompt_len, self.gen_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_methodology() {
        let r = Request::paper_default(8);
        assert_eq!((r.batch, r.prompt_len, r.gen_len), (8, 128, 32));
        assert_eq!(r.generated_tokens(), 256);
        assert_eq!(r.decode_steps(), 31);
        assert_eq!(r.final_context(), 160);
    }

    #[test]
    fn zero_fields_rejected() {
        assert!(Request::try_new(0, 128, 32).is_err());
        assert!(Request::try_new(1, 0, 32).is_err());
        assert!(Request::try_new(1, 128, 0).is_err());
    }
}
