//! Typed errors for the engine's fallible (`try_*`) API surface.

use std::fmt;

/// Everything that can go wrong when building or executing a plan with
/// malformed inputs. Returned by the `try_*` variants on
/// [`super::Context`], [`super::SpmmPlan`] and [`super::SddmmPlan`]; the
/// infallible methods panic with the same message.
///
/// Marked `#[non_exhaustive]`: new failure modes may be added without a
/// breaking release, so always keep a wildcard arm when matching.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A dimension that must be positive was zero.
    EmptyDimension {
        /// Which dimension (e.g. `"n (RHS columns)"`).
        what: &'static str,
    },
    /// An operand dimension disagrees with the plan's descriptor.
    DimensionMismatch {
        /// Which dimension (e.g. `"RHS rows"`).
        what: &'static str,
        /// The size the plan was built for.
        expected: usize,
        /// The size the operand has.
        got: usize,
    },
    /// An operand's memory layout disagrees with what the kernel needs.
    LayoutMismatch {
        /// Which operand (e.g. `"RHS"`).
        what: &'static str,
        /// The required layout.
        expected: &'static str,
        /// The layout the operand has.
        got: &'static str,
    },
    /// A batch call received no elements.
    EmptyBatch,
    /// Paired batches have different lengths.
    BatchLengthMismatch {
        /// Length of the A-side batch.
        a: usize,
        /// Length of the B-side batch.
        b: usize,
    },
    /// The structural operand's column-vector length V is not one the
    /// kernels implement (supported: 1, 2, 4, 8).
    UnsupportedV {
        /// The offending V.
        v: usize,
    },
    /// The problem's caller-sized buffers do not fit in the modeled
    /// V100's 16 GiB of device memory.
    OutOfDeviceMemory {
        /// Device bytes the buffers need (`u64::MAX` when the count
        /// overflows).
        needed: u64,
        /// The device's memory in bytes.
        capacity: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EmptyDimension { what } => {
                write!(f, "empty dimension: {what} must be > 0")
            }
            EngineError::DimensionMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "dimension mismatch: {what} must be {expected}, got {got}"
            ),
            EngineError::LayoutMismatch {
                what,
                expected,
                got,
            } => write!(f, "layout mismatch: {what} must be {expected}, got {got}"),
            EngineError::EmptyBatch => write!(f, "empty batch"),
            EngineError::BatchLengthMismatch { a, b } => {
                write!(f, "batch length mismatch: {a} A operands vs {b} B operands")
            }
            EngineError::UnsupportedV { v } => {
                write!(f, "unsupported vector length V={v} (supported: 1, 2, 4, 8)")
            }
            EngineError::OutOfDeviceMemory { needed, capacity } => write!(
                f,
                "problem needs {needed} bytes of device memory; the device has {capacity}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        let e = EngineError::DimensionMismatch {
            what: "RHS rows",
            expected: 64,
            got: 32,
        };
        assert_eq!(
            e.to_string(),
            "dimension mismatch: RHS rows must be 64, got 32"
        );
        let e = EngineError::UnsupportedV { v: 3 };
        assert!(e.to_string().contains("V=3"));
        // It is a real std error.
        let _: &dyn std::error::Error = &e;
    }
}
