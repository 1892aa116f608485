//! Tier-1 shard-certificate gates.
//!
//! Two promises are pinned here. First, coverage: every registry kernel
//! publishes a [`ShardLayout`] and certifies shardable at the default
//! shape, a certified 4-way row split merges bit-identically with the
//! unsharded reference, and a kernel whose CTAs share output bytes is
//! refused. Second, soundness (the proptest): for every
//! registry kernel across a grid of sweep shapes, every dynamically
//! traced global access falls inside the static footprint certificate —
//! observed ⊆ certified — at 1 and at 4 worker threads.
//!
//! [`ShardLayout`]: vecsparse_gpu_sim::ShardLayout

mod common;

use proptest::prelude::*;
use vecsparse::registry::{self, KernelId, Shape, ALL_KERNELS};
use vecsparse_certify::{
    analyze, launch_sharded, AccessKind, FootprintCertificate, ShardFailure, ShardVerdict,
};
use vecsparse_gpu_sim::{capture, KernelSpec, Launch, MemPool, Mode};

/// Independently re-capture every CTA with per-lane detail and assert
/// that each byte the trace touches is covered by the certificate for
/// that CTA and access kind. This mirrors the execution model's clamping
/// (loads issue at least one element, stores only functionally written
/// ones) but goes through the *certificate*, not the analyzer's
/// internal footprints — the abstraction is what is on trial.
fn assert_observed_within(mem: &MemPool, kernel: &dyn KernelSpec, cert: &FootprintCertificate) {
    let grid: Vec<usize> = (0..kernel.launch_config().grid).collect();
    capture(mem, kernel, &grid, true, |c| {
        let cta_id = c.cta_id;
        for t in &c.traces {
            for acc in &t.mem {
                if !acc.global {
                    continue;
                }
                let Some(d) = &acc.detail else { continue };
                let Some(buf) = d.buf else { continue };
                let len = mem.len(buf) as u32;
                let kind = if acc.store {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                for &off in d.offsets.iter().filter(|&&o| o != u32::MAX) {
                    let elems = if acc.store {
                        d.epl.min(len.saturating_sub(off))
                    } else {
                        d.epl.min(len.saturating_sub(off)).max(1)
                    };
                    if elems == 0 {
                        continue;
                    }
                    let lo = mem.addr(buf, off as usize);
                    let hi = lo + elems as u64 * d.elem_bytes;
                    for byte in lo..hi {
                        assert!(
                            cert.covers(cta_id, byte, kind),
                            "{}: CTA {cta_id} touched uncertified byte {byte:#x} ({kind:?})",
                            cert.kernel
                        );
                    }
                }
            }
        }
    });
}

/// Certify every registry kernel at `shape` and check observed ⊆
/// certified for each.
fn check_soundness_at(shape: &Shape) {
    for id in ALL_KERNELS {
        registry::with_kernel(id, shape, Mode::Functional, |mem, kernel| {
            let cert = analyze(mem, kernel);
            assert!(
                cert.is_shardable(),
                "{}: expected shardable at {shape:?}, got {}",
                kernel.name(),
                cert.summary()
            );
            assert_observed_within(mem, kernel, &cert);
        });
    }
}

/// A sweep-style shape grid kept friendly to every kernel: m a multiple
/// of 16 (so every V in {1,2,4,8} divides it), n and k multiples of 32.
fn shapes() -> impl Strategy<Value = Shape> {
    (
        1usize..3,
        prop_oneof![Just(32usize), Just(64)],
        prop_oneof![Just(32usize), Just(64)],
        prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        0.3f64..0.9,
        any::<u64>(),
    )
        .prop_map(|(mm, n, k, v, sparsity, seed)| Shape {
            m: mm * 16,
            n,
            k,
            v,
            sparsity,
            seed,
        })
}

#[test]
fn all_registry_kernels_certify_shardable() {
    let shape = Shape::default();
    for id in ALL_KERNELS {
        registry::with_kernel(id, &shape, Mode::Functional, |mem, kernel| {
            let cert = analyze(mem, kernel);
            assert!(cert.is_shardable(), "{}: {}", kernel.name(), cert.summary());
            assert_eq!(cert.ctas_traced, kernel.launch_config().grid);
        });
    }
}

/// A sweep-sized shape: 512×256 A, 64 RHS columns, V = 4, 80% sparse.
fn sweep_shape() -> Shape {
    Shape {
        m: 512,
        n: 64,
        k: 256,
        v: 4,
        sparsity: 0.8,
        seed: 42,
    }
}

#[test]
fn four_way_row_split_is_bit_identical() {
    // Both shapes are tall enough (m = 512) that even the dense GEMM's
    // M-tiling exposes at least three row-block cut points.
    let tall = Shape {
        m: 512,
        ..Shape::default()
    };
    for shape in [tall, sweep_shape()] {
        for id in ALL_KERNELS {
            registry::with_kernel(id, &shape, Mode::Functional, |mem, kernel| {
                let cert = analyze(mem, kernel);
                let plan = match cert.shard_plan(4) {
                    Ok(plan) => plan,
                    // Small grids may not offer 3 cut points; that is the
                    // honest UnsplittableGrid refusal, not a soundness gap.
                    Err(e) => panic!("{}: no 4-way plan at {shape:?}: {e}", kernel.name()),
                };
                let mut reference = mem.clone();
                Launch::new(&mut reference, kernel).run();
                launch_sharded(mem, kernel, &plan);
                let buf = cert.layout.as_ref().expect("shardable has layout").out;
                assert_eq!(
                    reference.bits(buf),
                    mem.bits(buf),
                    "{}: sharded merge diverged at {shape:?}",
                    kernel.name()
                );
            });
        }
    }
}

#[test]
fn performance_mode_dense_gemm_is_refused_for_write_overlap() {
    // Staged for profiling, the dense GEMM's split-K CTAs accumulate
    // into shared output tiles: the analyzer must refuse it, naming the
    // first byte two CTAs both write. The swept sparse kernels stay
    // shardable in the same mode.
    let certify = |id| {
        registry::with_kernel(id, &sweep_shape(), Mode::Performance, |mem, kernel| {
            analyze(mem, kernel)
        })
    };
    let dense = certify(KernelId::SpmmDense);
    assert!(
        matches!(
            dense.verdict,
            ShardVerdict::NotShardable(ShardFailure::WriteOverlap { .. })
        ),
        "spmm-dense: {}",
        dense.summary()
    );
    for id in [
        KernelId::SpmmFpuSubwarp,
        KernelId::SpmmBlockedEll,
        KernelId::SpmmOctet,
    ] {
        let cert = certify(id);
        assert!(cert.is_shardable(), "{}: {}", cert.kernel, cert.summary());
    }
}

#[test]
fn observed_within_certified_across_threads() {
    let width = common::width();
    // Both the certificate and the oracle capture CTAs in parallel;
    // re-check the soundness relation under both worker-pool widths the
    // determinism gate uses, so threading can never widen the observed
    // set.
    width.set(1);
    check_soundness_at(&Shape::default());
    width.set(4);
    check_soundness_at(&Shape::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Soundness over the sweep shape grid: every traced access of every
    /// registry kernel is inside its static certificate.
    #[test]
    fn observed_subset_of_certified(shape in shapes()) {
        check_soundness_at(&shape);
    }
}

#[test]
fn kernel_ids_cover_exactly_the_registry() {
    // Guard against a 15th kernel arriving without shard coverage: the
    // two coverage tests above iterate ALL_KERNELS, so this is just a
    // canary that ALL_KERNELS is still the full enum.
    assert_eq!(ALL_KERNELS.len(), 14);
    assert!(ALL_KERNELS.contains(&KernelId::SoftmaxDense));
}
