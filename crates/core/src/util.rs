//! Shared kernel plumbing: one-shot launches in a fresh pool, uploading
//! matrices into simulator memory and building warp lane-offset patterns.

use std::sync::Arc;
use vecsparse_formats::{BlockedEll, Csr, DenseMatrix, Scalar, SparsityPattern, VectorSparse};
use vecsparse_gpu_sim::{
    BufferId, ElemWidth, GpuConfig, KernelProfile, KernelSpec, Launch, MemPool, Mode, WARP_SIZE,
};

/// Profile the kernel `build` stages into a fresh pool. This is the launch
/// path for kernels no [`crate::engine`] plan covers (dense×dense GEMM,
/// the f32 and CSR baselines, softmax, explicit Blocked-ELL operands):
/// `profile(gpu, |mem, mode| DenseGemm::new(mem, &a, &b, mode))`.
pub fn profile<K: KernelSpec>(
    gpu: &GpuConfig,
    build: impl FnOnce(&mut MemPool, Mode) -> K,
) -> KernelProfile {
    let mut mem = MemPool::new();
    let kernel = build(&mut mem, Mode::Performance);
    Launch::new(&mut mem, &kernel)
        .gpu(gpu)
        .performance()
        .run()
        .profile
        .expect("performance launch returns a profile")
}

/// Run the kernel `build` stages into a fresh pool functionally and read
/// its output back with `read`:
/// `run(gpu, |mem, mode| SparseSoftmax::new(mem, &x, mode), SparseSoftmax::result)`.
pub fn run<K: KernelSpec, R>(
    gpu: &GpuConfig,
    build: impl FnOnce(&mut MemPool, Mode) -> K,
    read: impl FnOnce(&K, &MemPool) -> R,
) -> R {
    let mut mem = MemPool::new();
    let kernel = build(&mut mem, Mode::Functional);
    Launch::new(&mut mem, &kernel).gpu(gpu).run();
    read(&kernel, &mem)
}

/// Lane offset array with all lanes inactive.
pub const NO_LANES: [u32; WARP_SIZE] = [u32::MAX; WARP_SIZE];

/// Width for a [`Scalar`] element type.
pub fn width_of<T: Scalar>() -> ElemWidth {
    match T::BITS {
        16 => ElemWidth::B16,
        32 => ElemWidth::B32,
        _ => unreachable!("scalars are 16 or 32 bits"),
    }
}

/// Upload `values` into one device buffer. In [`Mode::Performance`] only
/// addresses are allocated.
fn upload_values<T: Scalar>(mem: &mut MemPool, values: &[T], mode: Mode) -> BufferId {
    match mode {
        Mode::Functional => mem.alloc_init(width_of::<T>(), values.to_vec()),
        Mode::Performance => mem.alloc_ghost(width_of::<T>(), values.len()),
    }
}

/// Upload a dense matrix into device memory in its storage-layout order.
/// In [`Mode::Performance`] only addresses are allocated.
pub fn upload_dense<T: Scalar>(mem: &mut MemPool, m: &DenseMatrix<T>, mode: Mode) -> BufferId {
    upload_values(mem, m.data(), mode)
}

/// Allocate a kernel's `len`-element output buffer by the same rule:
/// zeroed in [`Mode::Functional`], address-only in [`Mode::Performance`].
pub fn alloc_output<T: Scalar>(mem: &mut MemPool, len: usize, mode: Mode) -> BufferId {
    match mode {
        Mode::Functional => mem.alloc_zeroed(width_of::<T>(), len),
        Mode::Performance => mem.alloc_ghost(width_of::<T>(), len),
    }
}

/// Device-side layout of a vector-sparse matrix: the three arrays of the
/// column-vector sparse encoding.
#[derive(Clone, Copy, Debug)]
pub struct VsBuffers {
    /// Packed vector values (`nnz_vectors * v` scalars).
    pub values: BufferId,
    /// Block-row pointers (32-bit).
    pub row_ptr: BufferId,
    /// Column indices, one per nonzero vector (32-bit).
    pub col_idx: BufferId,
}

/// Upload a vector-sparse matrix. Indices are address-only in both modes
/// since kernels read the structure host-side.
pub fn upload_vs<T: Scalar>(mem: &mut MemPool, a: &VectorSparse<T>, mode: Mode) -> VsBuffers {
    let p = a.pattern();
    VsBuffers {
        values: upload_values(mem, a.values(), mode),
        row_ptr: mem.alloc_ghost(ElemWidth::B32, p.row_ptr().len()),
        col_idx: mem.alloc_ghost(ElemWidth::B32, p.col_idx().len()),
    }
}

/// Upload only a sparsity pattern (SDDMM mask): indices are address-only in
/// both modes since kernels read the structure host-side.
pub fn upload_pattern(mem: &mut MemPool, p: &SparsityPattern) -> VsBuffers {
    VsBuffers {
        values: mem.alloc_ghost(ElemWidth::B16, 0),
        row_ptr: mem.alloc_ghost(ElemWidth::B32, p.row_ptr().len()),
        col_idx: mem.alloc_ghost(ElemWidth::B32, p.col_idx().len()),
    }
}

/// Upload a CSR matrix.
#[derive(Clone, Copy, Debug)]
pub struct CsrBuffers {
    pub values: BufferId,
    pub row_ptr: BufferId,
    pub col_idx: BufferId,
}

/// Upload a CSR matrix (fine-grained kernels).
pub fn upload_csr<T: Scalar>(mem: &mut MemPool, a: &Csr<T>, mode: Mode) -> CsrBuffers {
    CsrBuffers {
        values: upload_values(mem, a.values(), mode),
        row_ptr: mem.alloc_ghost(ElemWidth::B32, a.row_ptr().len()),
        col_idx: mem.alloc_ghost(ElemWidth::B32, a.col_idx().len()),
    }
}

/// Upload a Blocked-ELL matrix: values plus the block-column index slab.
#[derive(Clone, Copy, Debug)]
pub struct EllBuffers {
    pub values: BufferId,
    pub block_col_idx: BufferId,
}

/// Upload a Blocked-ELL matrix.
pub fn upload_ell<T: Scalar>(mem: &mut MemPool, a: &BlockedEll<T>, mode: Mode) -> EllBuffers {
    EllBuffers {
        values: upload_values(mem, a.values(), mode),
        block_col_idx: mem.alloc_ghost(ElemWidth::B32, a.block_col_idx().len()),
    }
}

/// Read back a row-major dense output buffer into a matrix: a copy of
/// its stored elements.
pub fn download_dense<T: Scalar>(
    mem: &MemPool,
    buf: BufferId,
    rows: usize,
    cols: usize,
) -> DenseMatrix<T> {
    DenseMatrix::from_row_major(rows, cols, mem.contents::<T>(buf).to_vec())
}

/// Read back a vector-sparse value buffer into a matrix sharing
/// `pattern`: a copy of its stored elements.
pub fn download_vs<T: Scalar>(
    mem: &MemPool,
    buf: BufferId,
    pattern: &Arc<SparsityPattern>,
) -> VectorSparse<T> {
    VectorSparse::new(Arc::clone(pattern), mem.contents::<T>(buf).to_vec())
}

/// Build lane offsets where lane `l` starts at `f(l)`; `None` deactivates
/// the lane.
pub fn lanes(f: impl Fn(usize) -> Option<usize>) -> [u32; WARP_SIZE] {
    let mut out = NO_LANES;
    for (l, o) in out.iter_mut().enumerate() {
        if let Some(idx) = f(l) {
            *o = idx as u32;
        }
    }
    out
}

/// Store one output-row segment `[n0, n0 + tn)` of `row` into a row-major
/// buffer of pitch `n`, splitting into the widest vector stores that do
/// not cross the row end (real kernels predicate their residue stores the
/// same way). `vals[c]` is the value for column `n0 + c`; pass an empty
/// slice in performance mode (ghost stores carrying `dep`). `shadows[c]`,
/// when non-empty, attaches an fp64 shadow twin to each stored value
/// (precision shadow execution); pass an empty slice otherwise.
#[allow(clippy::too_many_arguments)]
pub fn store_row_segment(
    w: &mut vecsparse_gpu_sim::WarpCtx<'_, '_>,
    site: vecsparse_gpu_sim::Site,
    buf: BufferId,
    row: usize,
    n: usize,
    n0: usize,
    tn: usize,
    vals: &[f32],
    shadows: &[f64],
    max_epl: usize,
    dep: vecsparse_gpu_sim::Tok,
) {
    use vecsparse_gpu_sim::{Tok, WVec};
    let functional = !vals.is_empty();
    let mut c = 0usize;
    while c < tn {
        // Widest epl whose full 32-lane span stays inside the segment,
        // falling back to scalar stores for the tail.
        let remaining = tn - c;
        let epl = if remaining >= 32 * max_epl {
            max_epl
        } else {
            1
        };
        let span = (32 * epl).min(remaining);
        let active = span.div_ceil(epl);
        let base = c;
        let offs = lanes(|l| {
            let cc = base + l * epl;
            if l < active && cc < tn {
                Some(row * n + n0 + cc)
            } else {
                None
            }
        });
        let v = if functional {
            // Lane-major, lane `l` holding columns `l * epl ..`: the
            // span's values are the vector's first `span` elements.
            let mut data = vec![0.0; 32 * epl];
            data[..span].copy_from_slice(&vals[base..base + span]);
            let mut v = WVec::from_data(epl, data, Tok::NONE);
            if !shadows.is_empty() {
                for (i, &s) in shadows[base..base + span].iter().enumerate() {
                    v.set_shadow(i / epl, i % epl, s);
                }
            }
            v
        } else {
            WVec::ghost(epl, dep)
        };
        let deps: &[Tok] = if dep == Tok::NONE {
            &[]
        } else {
            std::slice::from_ref(&dep)
        };
        w.stg(site, buf, &offs, &v, deps);
        c += span;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecsparse_formats::{gen, Layout};
    use vecsparse_fp16::f16;

    #[test]
    fn upload_roundtrip_dense() {
        let m = gen::random_dense::<f16>(8, 8, Layout::RowMajor, 1);
        let mut pool = MemPool::new();
        let buf = upload_dense(&mut pool, &m, Mode::Functional);
        let back: DenseMatrix<f16> = download_dense(&pool, buf, 8, 8);
        assert_eq!(m, back);
    }

    #[test]
    fn ghost_upload_has_addresses_only() {
        let m = gen::random_dense::<f16>(8, 8, Layout::RowMajor, 1);
        let mut pool = MemPool::new();
        let buf = upload_dense(&mut pool, &m, Mode::Performance);
        assert_eq!(pool.len(buf), 64);
        assert!(pool.contents::<f16>(buf).is_empty());
    }

    #[test]
    fn lane_builder() {
        let offs = lanes(|l| if l < 4 { Some(l * 10) } else { None });
        assert_eq!(offs[0], 0);
        assert_eq!(offs[3], 30);
        assert_eq!(offs[4], u32::MAX);
    }
}
