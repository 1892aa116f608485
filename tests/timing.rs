//! Tier-1 equivalence gate for the event-driven scheduler.
//!
//! Every launch times its waves with the event scheduler, traced or
//! not; the tick scheduler (`simulate_wave`) is the reference it must
//! match. Event timing is a wall-clock optimisation, never an
//! observable: every simulated artifact — cycle counts, the full
//! performance profile, functional outputs — must be bit-identical to
//! tick's, at any worker-thread count, across the whole kernel registry.
//! The event scheduler reads each warp's readiness from a cache that it
//! refreshes only when the warp issues or a barrier release moves its
//! resume time; these tests are the external check that no other event
//! can move it. The equivalence tests run launches under an auditing memo
//! (`WaveMemo::with_audit(1)`), which re-times every simulated wave with
//! tick inside the launch and panics unless the `WaveResult`, the L1
//! statistics and the L2 op log are equal, then compare the audited
//! profile with a plain launch's. The same memo declines every launch
//! hit, so a repeated launch re-simulates and its profile is asserted
//! bit-identical to the cached one. The spans a traced launch records
//! come from the same event loop; the span-accounting test checks that
//! they add up to the profile.

mod common;
#[path = "common/stack.rs"]
mod stack;

use proptest::prelude::*;
use stack::spmm_stack;
use std::collections::BTreeMap;
use std::sync::Arc;
use vecsparse::engine::Context;
use vecsparse::registry::{self, KernelId, Shape, ALL_KERNELS};
use vecsparse::SpmmAlgo;
use vecsparse_certify::certify;
use vecsparse_formats::{gen, Layout};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::sig::Fingerprint;
use vecsparse_gpu_sim::{GpuConfig, KernelProfile, Launch, LaunchOutput, Mode, WaveMemo};
use vecsparse_telemetry::{TraceSink, DEFAULT_CAPACITY};

/// Every counter of a profile in comparable form. Float `Debug` prints
/// the shortest round-tripping representation, so string equality here
/// is bit equality of the underlying profile.
fn render(p: &KernelProfile) -> String {
    format!("{:016x} {} {:?}", p.cycles.to_bits(), p.csv_row(), p)
}

/// Every kernel in the registry, default shape, on both machine shapes:
/// a launch whose waves are all re-timed by tick (the audit asserts
/// inside the launch) must profile exactly as a plain launch does.
#[test]
fn full_registry_event_profiles_match_tick() {
    let width = common::width();
    width.set(1);
    let shape = Shape::default();
    for gpu in [GpuConfig::small(), GpuConfig::default()] {
        for id in ALL_KERNELS {
            let (audited, stats, plain) =
                registry::with_kernel(id, &shape, Mode::Performance, |mem, kernel| {
                    let sig = certify(&*mem, kernel)
                        .launch_sig(Fingerprint::default())
                        .expect("registry kernels are provable");
                    let memo = WaveMemo::with_audit(1);
                    let audited = Launch::new(&mut *mem, kernel)
                        .gpu(&gpu)
                        .performance()
                        .memo(Some((&memo, sig)))
                        .run();
                    let plain = Launch::new(&mut *mem, kernel).gpu(&gpu).performance().run();
                    let profile = |out: LaunchOutput| {
                        render(&out.profile.expect("performance launch profiles"))
                    };
                    (profile(audited), memo.stats(), profile(plain))
                });
            let what = format!("{id:?} on {} SMs", gpu.num_sms);
            assert_eq!(
                stats.launch_misses, 1,
                "{what}: simulated no audited launch"
            );
            assert_eq!(audited, plain, "{what}: audited profile diverged");
        }
    }
}

/// The runtime audit hook on memoized launches: a second audited launch
/// of the same certified kernel hits the memo, and with an audit period
/// of 1 the hit is declined, so the launch re-simulates, re-times every
/// wave by tick and asserts its profile identical to the cached one. On
/// both machine shapes, the fresh and the audited launch must profile
/// exactly as a plain launch does.
#[test]
fn audited_event_launch_passes_and_matches_tick() {
    let width = common::width();
    width.set(1);
    for gpu in [GpuConfig::small(), GpuConfig::default()] {
        let (fresh, audited, stats, plain) = registry::with_kernel(
            KernelId::SpmmOctet,
            &Shape::default(),
            Mode::Performance,
            |mem, kernel| {
                let sig = certify(&*mem, kernel)
                    .launch_sig(Fingerprint::default())
                    .expect("registry kernels are provable");
                let memo = WaveMemo::with_audit(1);
                let mut launch = || {
                    Launch::new(&mut *mem, kernel)
                        .gpu(&gpu)
                        .performance()
                        .memo(Some((&memo, sig)))
                        .run()
                };
                let fresh = launch();
                let audited = launch();
                let plain = Launch::new(&mut *mem, kernel).gpu(&gpu).performance().run();
                let profile =
                    |out: LaunchOutput| render(&out.profile.expect("performance launch profiles"));
                (
                    profile(fresh),
                    profile(audited),
                    memo.stats(),
                    profile(plain),
                )
            },
        );
        let what = format!("SpmmOctet on {} SMs", gpu.num_sms);
        assert_eq!(
            (stats.launch_misses, stats.audits, stats.launch_hits),
            (1, 1, 0),
            "{what}: one fresh launch, then one audited hit"
        );
        assert_eq!(fresh, plain, "{what}: fresh audited profile diverged");
        assert_eq!(audited, plain, "{what}: audited profile diverged");
    }
}

/// The spans a traced launch records account for its profile: on both
/// machine shapes, for every registry kernel, the stall spans summed by
/// name equal the profile's stall breakdown, and there is one issue span
/// per issued instruction. A dropped event would break the sums, so the
/// sink must have kept them all.
#[test]
fn traced_spans_account_for_every_stall_and_issue() {
    let width = common::width();
    width.set(1);
    for gpu in [GpuConfig::small(), GpuConfig::default()] {
        for id in ALL_KERNELS {
            let sink = TraceSink::enabled(DEFAULT_CAPACITY);
            let p = registry::with_kernel(id, &Shape::default(), Mode::Performance, |mem, k| {
                let out = Launch::new(&mut *mem, k)
                    .gpu(&gpu)
                    .performance()
                    .traced(&sink)
                    .run();
                out.profile.expect("performance launch profiles")
            });
            let what = format!("{id:?} on {} SMs", gpu.num_sms);
            assert_eq!(sink.dropped(), 0, "{what}: the sink dropped events");
            let mut stall_cycles: BTreeMap<&str, u64> = BTreeMap::new();
            let mut issues = 0u64;
            let events = sink.events();
            for e in &events {
                match e.cat {
                    "stall" => *stall_cycles.entry(&*e.name).or_default() += e.dur,
                    "issue" => issues += 1,
                    _ => {}
                }
            }
            let s = &p.stalls;
            for (name, cycles) in [
                ("no_instruction", s.no_instruction),
                ("wait", s.wait),
                ("short_scoreboard", s.short_scoreboard),
                ("long_scoreboard", s.long_scoreboard),
                ("barrier", s.barrier),
                ("not_selected", s.not_selected),
            ] {
                let spans = stall_cycles.remove(name).unwrap_or(0);
                assert_eq!(spans as f64, cycles, "{what}: {name} spans");
            }
            assert!(stall_cycles.is_empty(), "{what}: {stall_cycles:?}");
            assert!(issues > 0, "{what}: no issue spans");
            assert_eq!(issues as f64, s.issued, "{what}: issue spans");
        }
    }
}

/// A context whose plans re-time every simulated wave of their
/// performance launches with the tick scheduler, panicking on any
/// difference.
fn audited_context() -> Context {
    Context::builder()
        .gpu(GpuConfig::small())
        .shared_memoization(Arc::new(WaveMemo::with_audit(1)))
        .build()
}

/// Engine-level plumbing: a plan whose launches are audited against
/// tick must produce the same functional outputs and profile cycles as
/// a plain context's plan.
#[test]
fn engine_context_event_timing_matches_tick() {
    let width = common::width();
    width.set(1);
    let a = gen::random_vector_sparse::<f16>(64, 128, 4, 0.85, 31);
    let b = gen::random_dense::<f16>(128, 48, Layout::RowMajor, 32);
    let run = |ctx: &Context| {
        let plan = ctx.plan_spmm(&a, 48, SpmmAlgo::Octet);
        let out = plan.run(&b);
        let cycles = plan.profile(&b).cycles;
        (out, cycles.to_bits())
    };
    let audited_ctx = audited_context();
    let audited = run(&audited_ctx);
    let stats = audited_ctx.memo_stats().expect("audited context memoizes");
    assert_eq!(
        (stats.launch_misses, stats.audits),
        (1, 0),
        "the profile simulated one audited launch"
    );
    let plain = run(&Context::builder().gpu(GpuConfig::small()).build());
    assert_eq!(
        audited.0, plain.0,
        "functional output diverged under the audited context"
    );
    assert_eq!(
        audited.1, plain.1,
        "profile cycles diverged under the audited context"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any grid shape, at 1 or 4 workers: an octet or dense plan whose
    /// every simulated wave is re-timed with tick produces the run, batch
    /// and profile bits of a plain one-thread context. The auditing memo
    /// declines both repeated profiles' hits, re-simulates and checks
    /// them. Octet runs one-warp CTAs; dense is the multi-warp kernel
    /// whose waves park warps at barriers.
    #[test]
    fn grid_shape_event_matches_tick_across_threads(
        mb in 1usize..4,
        k_blocks in 1usize..4,
        n in prop_oneof![Just(16usize), Just(32), Just(48)],
        v in prop_oneof![Just(2usize), Just(4), Just(8)],
        threads in prop_oneof![Just(1usize), Just(4)],
        algo in prop_oneof![Just(SpmmAlgo::Octet), Just(SpmmAlgo::Dense)],
        seed in 0u64..500,
    ) {
        let width = common::width();
        let a = gen::random_vector_sparse::<f16>(mb * v * 4, k_blocks * 32, v, 0.7, seed);
        let stack = |builder| spmm_stack(builder, algo, &a, n, seed);
        width.set(1);
        let (plain, _) = stack(Context::builder());
        width.set(threads);
        let audit = Arc::new(WaveMemo::with_audit(1));
        let (got, memo) = stack(Context::builder().shared_memoization(audit));
        prop_assert_eq!(&got, &plain, "{:?} at {} threads", algo, threads);
        let memo = memo.expect("auditing context");
        prop_assert_eq!((memo.launch_misses, memo.audits, memo.launch_hits), (1, 2, 0));
        width.set(1);
    }
}
