//! Job descriptions, results, and the future-style completion handle.

use crate::error::ServeError;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use vecsparse::{SddmmAlgo, SpmmAlgo};
use vecsparse_formats::{DenseMatrix, SparsityPattern, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::sig;

/// One unit of work a tenant submits. The structural operand (the
/// sparse matrix / the mask) is `Arc`-shared — the model-weights
/// pattern: many requests against one resident operand — and operand
/// identity is what makes two jobs batchable into one plan.
#[derive(Clone)]
pub enum JobRequest {
    /// `C = A · B` with `A` column-vector sparse.
    Spmm {
        /// The resident sparse operand.
        a: Arc<VectorSparse<f16>>,
        /// The per-request dense RHS.
        b: DenseMatrix<f16>,
        /// Algorithm selector (`Auto` routes through the shard's
        /// memoized tuner).
        algo: SpmmAlgo,
    },
    /// `C = (A · B) ∘ mask`.
    Sddmm {
        /// The resident output mask.
        mask: Arc<SparsityPattern>,
        /// The per-request dense A (row-major).
        a: DenseMatrix<f16>,
        /// The per-request dense B (column-major).
        b: DenseMatrix<f16>,
        /// Algorithm selector.
        algo: SddmmAlgo,
    },
}

/// Batching key: two jobs coalesce into one dispatched batch iff they
/// can share one engine plan — same structural operand (by `Arc`
/// identity; queued jobs keep it alive, so pointers are stable), same
/// free dimension, same algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct CoalesceKey {
    op: u8,
    operand: usize,
    dim: usize,
    algo: &'static str,
}

impl JobRequest {
    pub(crate) fn coalesce_key(&self) -> CoalesceKey {
        match self {
            JobRequest::Spmm { a, b, algo } => CoalesceKey {
                op: 0,
                operand: Arc::as_ptr(a) as usize,
                dim: b.cols(),
                algo: algo.label(),
            },
            JobRequest::Sddmm { mask, a, algo, .. } => CoalesceKey {
                op: 1,
                operand: Arc::as_ptr(mask) as usize,
                dim: a.cols(),
                algo: algo.label(),
            },
        }
    }

    /// Cache shard this job routes to: a hash of the *shape class*
    /// (operation, structural dimensions, V, sparsity bucket, free
    /// dimension), so repeated shapes land on the same shard's plan
    /// cache regardless of which tenant sent them.
    pub(crate) fn shard_of(&self, shards: usize) -> usize {
        let (op, rows, cols, v, bucket, dim) = match self {
            JobRequest::Spmm { a, b, .. } => (
                0u32,
                a.rows(),
                a.cols(),
                a.v(),
                sig::sparsity_bucket(a.pattern().sparsity()),
                b.cols(),
            ),
            JobRequest::Sddmm { mask, a, .. } => (
                1u32,
                mask.rows(),
                mask.cols(),
                mask.v(),
                sig::sparsity_bucket(mask.sparsity()),
                a.cols(),
            ),
        };
        let h = sig::fnv1a_u32s(
            sig::FNV_OFFSET,
            [op, rows as u32, cols as u32, v as u32, bucket, dim as u32],
        );
        (h % shards as u64) as usize
    }
}

/// A served result.
#[derive(Clone, Debug)]
pub enum JobOutput {
    /// SpMM product.
    Spmm(DenseMatrix<f16>),
    /// SDDMM sampled product.
    Sddmm(VectorSparse<f16>),
}

impl JobOutput {
    /// The SpMM result, if this was an SpMM job.
    pub fn into_spmm(self) -> Option<DenseMatrix<f16>> {
        match self {
            JobOutput::Spmm(m) => Some(m),
            JobOutput::Sddmm(_) => None,
        }
    }

    /// The SDDMM result, if this was an SDDMM job.
    pub fn into_sddmm(self) -> Option<VectorSparse<f16>> {
        match self {
            JobOutput::Sddmm(m) => Some(m),
            JobOutput::Spmm(_) => None,
        }
    }
}

/// Completion slot shared between a [`JobHandle`] and the worker that
/// eventually fulfills it: a `Mutex<Option<Result>>` plus a `Condvar`
/// (the crate's no-tokio stand-in for a oneshot future).
#[derive(Default)]
pub(crate) struct JobSlot {
    state: Mutex<Option<Result<JobOutput, ServeError>>>,
    cv: Condvar,
}

impl JobSlot {
    pub(crate) fn fulfill(&self, result: Result<JobOutput, ServeError>) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state = Some(result);
        self.cv.notify_all();
    }
}

/// Future-style handle to a submitted job. Obtain via
/// [`Client::submit`](crate::Client::submit); redeem with
/// [`JobHandle::wait`] (blocking) or poll with [`JobHandle::try_take`].
pub struct JobHandle {
    pub(crate) slot: Arc<JobSlot>,
    pub(crate) id: u64,
    pub(crate) tenant: String,
}

impl JobHandle {
    /// Server-assigned job id (unique per server, submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The tenant this job was submitted under.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Non-blocking poll: the result if the job has completed, `None`
    /// while it is still queued or executing. Takes the result — a
    /// second call after `Some` returns `None`.
    pub fn try_take(&self) -> Option<Result<JobOutput, ServeError>> {
        self.slot
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// Block until the job completes and return its result.
    pub fn wait(self) -> Result<JobOutput, ServeError> {
        let mut state = self
            .slot
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = self
                .slot
                .cv
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecsparse_formats::{gen, Layout};

    #[test]
    fn coalesce_key_is_operand_identity() {
        let a = Arc::new(gen::random_vector_sparse::<f16>(16, 32, 4, 0.5, 1));
        let b1 = gen::random_dense::<f16>(32, 16, Layout::RowMajor, 2);
        let b2 = gen::random_dense::<f16>(32, 16, Layout::RowMajor, 3);
        let j1 = JobRequest::Spmm {
            a: Arc::clone(&a),
            b: b1.clone(),
            algo: SpmmAlgo::Auto,
        };
        let j2 = JobRequest::Spmm {
            a: Arc::clone(&a),
            b: b2,
            algo: SpmmAlgo::Auto,
        };
        assert_eq!(j1.coalesce_key(), j2.coalesce_key());
        // A structurally identical but distinct operand does not coalesce
        // (its plan would restage), and neither does another algorithm.
        let a2 = Arc::new(gen::random_vector_sparse::<f16>(16, 32, 4, 0.5, 1));
        let j3 = JobRequest::Spmm {
            a: a2,
            b: b1.clone(),
            algo: SpmmAlgo::Auto,
        };
        assert_ne!(j1.coalesce_key(), j3.coalesce_key());
        let j4 = JobRequest::Spmm {
            a,
            b: b1,
            algo: SpmmAlgo::Octet,
        };
        assert_ne!(j1.coalesce_key(), j4.coalesce_key());
    }

    #[test]
    fn shard_routing_is_by_shape_class() {
        let a = Arc::new(gen::random_vector_sparse::<f16>(16, 32, 4, 0.5, 1));
        let a_same_class = Arc::new(gen::random_vector_sparse::<f16>(16, 32, 4, 0.5, 9));
        let b = gen::random_dense::<f16>(32, 16, Layout::RowMajor, 2);
        let j1 = JobRequest::Spmm {
            a,
            b: b.clone(),
            algo: SpmmAlgo::Auto,
        };
        let j2 = JobRequest::Spmm {
            a: a_same_class,
            b,
            algo: SpmmAlgo::Auto,
        };
        for shards in [1, 2, 3, 7] {
            assert_eq!(j1.shard_of(shards), j2.shard_of(shards));
            assert!(j1.shard_of(shards) < shards);
        }
    }

    #[test]
    fn handle_polls_and_waits() {
        let slot = Arc::new(JobSlot::default());
        let handle = JobHandle {
            slot: Arc::clone(&slot),
            id: 7,
            tenant: "t".into(),
        };
        assert!(handle.try_take().is_none());
        slot.fulfill(Err(ServeError::Closed));
        assert!(matches!(handle.wait(), Err(ServeError::Closed)));
    }
}
