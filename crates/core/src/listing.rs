//! Kernel listings, built once per process.
//!
//! A kernel's *listing* is its [`Program`] (the static-instruction
//! registry the L0 icache model, the sanitizer and both certificates
//! read), its site table, and the static length its launch config
//! reports. Like the SASS listing of a compiled CUDA kernel it is a
//! compile-time artifact: a pure function of a small key — V for the FPU
//! kernels, the [`TilingScheme`] for the octet SpMM composer, the tile
//! shape and precision for dense, nothing for the fixed listings. So each
//! kernel module keeps one static `ListingCache`, and constructing a
//! kernel only binds its buffers to the shared listing.
//!
//! Caching is exact: a build reads nothing but its key and numbers its
//! sites in call order, so the cached listing equals a fresh build —
//! `listing_hash`, `static_len`, every certificate's `program_hash` and
//! every memo key are the same as when each construction built its own.
//!
//! [`TilingScheme`]: crate::compose::TilingScheme

use std::sync::{Arc, Mutex, PoisonError};
use vecsparse_gpu_sim::Program;

/// A compiled kernel listing.
#[derive(Debug)]
pub struct Listing<S> {
    /// The static-instruction registry.
    pub prog: Program,
    /// The kernel's site table (the ids its warps issue at).
    pub sites: S,
    /// SASS lines: the registered sites plus unregistered residue and
    /// prologue copies.
    pub static_len: u32,
}

/// One shared [`Listing`] per distinct key, for the life of the process.
///
/// A `Vec` scan: each kernel has only a handful of keys (four V values,
/// the few schemes the tuner sweeps).
pub(crate) struct ListingCache<K, S> {
    entries: Mutex<Vec<(K, Arc<Listing<S>>)>>,
}

impl<K: Copy + PartialEq, S> ListingCache<K, S> {
    /// An empty cache (usable in a `static`).
    pub(crate) const fn new() -> Self {
        ListingCache {
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The listing for `key`, running `build` on the first request for it.
    ///
    /// `build` runs outside the lock, so a build that panics (an invalid
    /// scheme) leaves the cache untouched for every other key and thread.
    /// Two threads that race on a new key may both build; the first to
    /// insert wins, and the builds are equal anyway.
    pub(crate) fn get(&self, key: K, build: impl FnOnce() -> Listing<S>) -> Arc<Listing<S>> {
        #[cfg(test)]
        if tests::UNCACHED.get() {
            return Arc::new(build());
        }
        if let Some(hit) = Self::find(&self.lock(), key) {
            return hit;
        }
        let built = Arc::new(build());
        let mut entries = self.lock();
        if let Some(hit) = Self::find(&entries, key) {
            return hit;
        }
        entries.push((key, Arc::clone(&built)));
        built
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(K, Arc<Listing<S>>)>> {
        // A push is the only update, so even a poisoned list is whole.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn find(entries: &[(K, Arc<Listing<S>>)], key: K) -> Option<Arc<Listing<S>>> {
        entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, listing)| Arc::clone(listing))
    }
}

#[cfg(test)]
mod tests {
    use crate::compose::{LoadStrategy, TilingScheme};
    use crate::registry::{self, Shape, ALL_KERNELS};
    use crate::sddmm::FpuSubwarpSddmm;
    use crate::spmm::compose::{octet_schemes, DEFAULT_SCHEME};
    use crate::spmm::{DenseGemm, FpuSubwarpSpmm, OctetSpmm};
    use std::cell::Cell;
    use vecsparse_formats::{gen, Layout};
    use vecsparse_fp16::f16;
    use vecsparse_gpu_sim::{KernelSpec, MemPool, Mode};

    thread_local! {
        /// While set, [`ListingCache::get`] builds on this thread without
        /// consulting or filling the cache: the fresh build a cached
        /// listing must equal.
        pub(super) static UNCACHED: Cell<bool> = const { Cell::new(false) };
    }

    /// A consumer of the kernels a builder constructs.
    type Visit<'a> = &'a mut dyn FnMut(&dyn KernelSpec);

    /// Run `build` once through the caches and once uncached; every
    /// kernel it hands over must carry the same listing both times.
    fn assert_cached_matches_fresh(what: &str, build: &dyn Fn(Visit)) {
        let mut cached = Vec::new();
        build(&mut |k| cached.push(digest(k)));
        UNCACHED.set(true);
        let mut fresh = Vec::new();
        build(&mut |k| fresh.push(digest(k)));
        UNCACHED.set(false);
        assert!(!cached.is_empty(), "{what}: nothing built");
        assert_eq!(
            cached, fresh,
            "{what}: cached listing differs from a fresh build"
        );
    }

    /// `(listing_hash, static_len, launch_config().static_instrs)`.
    fn digest(k: &dyn KernelSpec) -> (u64, u32, u32) {
        let prog = k.program().expect("listed kernels register a program");
        (
            prog.listing_hash(),
            prog.static_len(),
            k.launch_config().static_instrs,
        )
    }

    /// `tests/backend.rs`'s shape grid: V ∈ {1, 2, 4, 8}.
    fn shape_grid() -> Vec<Shape> {
        let shape = |m, n, k, v, sparsity, seed| Shape {
            m,
            n,
            k,
            v,
            sparsity,
            seed,
        };
        vec![
            Shape::default(),
            shape(48, 32, 32, 1, 0.3, 7),
            shape(16, 64, 32, 2, 0.9, 11),
            shape(64, 32, 64, 8, 0.5, 23),
        ]
    }

    /// Single-precision twins of the generic kernels, whose listings key
    /// on precision (dense) or must not (FPU).
    fn build_single(shape: &Shape, f: Visit) {
        let Shape { m, n, k, v, .. } = *shape;
        let a = gen::random_vector_sparse::<f32>(m, k, v, shape.sparsity, shape.seed);
        let b = gen::random_dense::<f32>(k, n, Layout::RowMajor, shape.seed + 1);
        let mut mem = MemPool::new();
        f(&FpuSubwarpSpmm::new(&mut mem, &a, &b, Mode::Performance));
        let ad = a.to_dense(Layout::RowMajor);
        f(&DenseGemm::new(&mut mem, &ad, &b, Mode::Performance));
        let mask = gen::random_pattern(m, n, v, shape.sparsity, shape.seed + 2);
        let lhs = gen::random_dense::<f32>(m, k, Layout::RowMajor, shape.seed + 3);
        let rhs = gen::random_dense::<f32>(k, n, Layout::ColMajor, shape.seed + 4);
        f(&FpuSubwarpSddmm::new(
            &mut mem,
            &lhs,
            &rhs,
            &mask,
            Mode::Performance,
        ));
    }

    fn build_octet_scheme(scheme: TilingScheme, f: Visit) {
        let a = gen::random_vector_sparse::<f16>(32, 128, 4, 0.8, 31);
        let b = gen::random_dense::<f16>(128, 64, Layout::RowMajor, 32);
        let mut mem = MemPool::new();
        f(&OctetSpmm::with_scheme(
            &mut mem,
            &a,
            &b,
            Mode::Performance,
            scheme,
        ));
    }

    /// Every listed kernel, at every key the grid, the precisions, the
    /// octet sweep and the cyclic load schedule reach, carries a listing
    /// equal to a fresh build. The
    /// first pass fills the caches in grid order; the checking pass walks
    /// the grid backwards, so each cached listing is fetched after other
    /// keys were built — a cache that ignored part of its key would hand
    /// back another key's listing.
    #[test]
    fn cached_listings_match_fresh_builds() {
        let grid = shape_grid();
        for shape in &grid {
            for id in ALL_KERNELS {
                registry::with_kernel(id, shape, Mode::Performance, |_, _| {});
            }
            build_single(shape, &mut |_| {});
        }
        let cyclic = TilingScheme {
            load: LoadStrategy::SyncBufferCyclic,
            ..DEFAULT_SCHEME
        };
        let schemes: Vec<TilingScheme> = octet_schemes().into_iter().chain([cyclic]).collect();
        for &scheme in &schemes {
            build_octet_scheme(scheme, &mut |_| {});
        }
        for shape in grid.iter().rev() {
            for id in ALL_KERNELS {
                let what = format!("{} at V={}", id.label(), shape.v);
                assert_cached_matches_fresh(&what, &|f| {
                    registry::with_kernel(id, shape, Mode::Performance, |_, k| f(k))
                });
            }
            let what = format!("single-precision kernels at V={}", shape.v);
            assert_cached_matches_fresh(&what, &|f| build_single(shape, f));
        }
        for &scheme in schemes.iter().rev() {
            assert_cached_matches_fresh(&scheme.label(), &|f| build_octet_scheme(scheme, f));
        }
    }

    /// An invalid scheme's build panics; the cache stays usable for valid
    /// builds on the same thread and on another.
    #[test]
    fn a_panicking_build_poisons_nothing() {
        let bad = TilingScheme {
            tile_k: 64,
            ..DEFAULT_SCHEME
        };
        let caught = std::panic::catch_unwind(|| build_octet_scheme(bad, &mut |_| {}));
        assert!(caught.is_err(), "an invalid scheme must not compile");
        let valid = || {
            let mut got = None;
            build_octet_scheme(DEFAULT_SCHEME, &mut |k| got = Some(digest(k)));
            got
        };
        let here = valid();
        let there = std::thread::spawn(valid).join().expect("no poisoned lock");
        assert!(here.is_some());
        assert_eq!(here, there);
    }
}
