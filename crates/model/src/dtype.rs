//! Numeric data types used for weights, activations and KV cache.

use std::fmt;

/// Element type of a tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit IEEE float.
    Fp32,
    /// 16-bit IEEE half.
    Fp16,
    /// 16-bit brain float (the paper's CPU inference dtype; AMX-native).
    Bf16,
    /// 8-bit integer (AMX-native for quantized inference).
    Int8,
}

impl DType {
    /// Size of one element in bytes.
    #[must_use]
    pub const fn bytes(self) -> u64 {
        match self {
            DType::Fp32 => 4,
            DType::Fp16 | DType::Bf16 => 2,
            DType::Int8 => 1,
        }
    }

    /// Whether Intel AMX TMUL has a native tile-multiply instruction for this
    /// type (`TDPBF16PS` for BF16, `TDPBSSD` and friends for INT8).
    #[must_use]
    pub const fn amx_native(self) -> bool {
        matches!(self, DType::Bf16 | DType::Int8)
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::Fp32 => "fp32",
            DType::Fp16 => "fp16",
            DType::Bf16 => "bf16",
            DType::Int8 => "int8",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(DType::Fp32.bytes(), 4);
        assert_eq!(DType::Fp16.bytes(), 2);
        assert_eq!(DType::Bf16.bytes(), 2);
        assert_eq!(DType::Int8.bytes(), 1);
    }

    #[test]
    fn amx_native_types() {
        assert!(DType::Bf16.amx_native());
        assert!(DType::Int8.amx_native());
        assert!(!DType::Fp32.amx_native());
        assert!(!DType::Fp16.amx_native());
    }
}
