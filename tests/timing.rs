//! Tier-1 equivalence gate for the event-driven scheduler.
//!
//! Every launch times its waves with the event scheduler; the tick
//! scheduler is the reference it must match. Event timing is a
//! wall-clock optimisation, never an observable: every simulated
//! artifact — cycle counts, the full performance profile, functional
//! outputs, and Perfetto trace bytes — must be bit-identical to
//! `TimingMode::Tick`, at any worker-thread count, across the whole
//! kernel registry. The event scheduler may jump the clock only between
//! issue events and must fall back to tick-exact stepping inside
//! contended (barrier) windows; these tests are the external check that
//! the fallback rule is airtight. The `Launch`-level tests select tick
//! explicitly; the engine-level ones audit every simulated wave against
//! a tick re-simulation inside the launch (`WaveMemo::with_audit(1)`).

use proptest::prelude::*;
use std::sync::Arc;
use vecsparse::engine::Context;
use vecsparse::registry::{self, KernelId, Shape, ALL_KERNELS};
use vecsparse::SpmmAlgo;
use vecsparse_formats::{gen, Layout};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{GpuConfig, Launch, Mode, TimingMode, WaveMemo};
use vecsparse_telemetry::{perfetto, TraceSink, DEFAULT_CAPACITY};

/// Reconfigure the global worker count (the shim accepts repeated
/// configuration, letting one process compare widths).
fn set_threads(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("thread-pool shim accepts reconfiguration");
}

/// Profile one registry kernel under the given timing mode and render
/// every counter in comparable form. Float `Debug` prints the shortest
/// round-tripping representation, so string equality here is bit
/// equality of the underlying profile.
fn profile_registry(id: KernelId, shape: &Shape, gpu: &GpuConfig, timing: TimingMode) -> String {
    registry::with_kernel_mut(id, shape, Mode::Performance, |mem, kernel| {
        let out = Launch::new(&mut *mem, kernel)
            .gpu(gpu)
            .performance()
            .timing(timing)
            .run();
        let p = out.profile.expect("performance launch profiles");
        format!("{:016x} {} {:?}", p.cycles.to_bits(), p.csv_row(), p)
    })
}

/// Every kernel in the registry, default shape: event-timed profiles
/// must match tick-timed profiles bit for bit.
#[test]
fn full_registry_event_profiles_match_tick() {
    set_threads(1);
    let gpu = GpuConfig::small();
    let shape = Shape::default();
    for id in ALL_KERNELS {
        let tick = profile_registry(id, &shape, &gpu, TimingMode::Tick);
        let event = profile_registry(id, &shape, &gpu, TimingMode::Event);
        assert_eq!(
            event, tick,
            "event-timed profile diverged from tick for {id:?}"
        );
    }
}

/// Perfetto timeline bytes are part of the contract: a traced
/// event-timed launch must export the exact same document as a traced
/// tick-timed launch.
#[test]
fn perfetto_trace_bytes_identical_across_timing_modes() {
    set_threads(1);
    let gpu = GpuConfig::small();
    let export = |timing: TimingMode| {
        let sink = Arc::new(TraceSink::enabled(DEFAULT_CAPACITY));
        registry::with_kernel_mut(
            KernelId::SpmmOctet,
            &Shape::default(),
            Mode::Performance,
            |mem, kernel| {
                Launch::new(&mut *mem, kernel)
                    .gpu(&gpu)
                    .performance()
                    .timing(timing)
                    .traced(&sink)
                    .run();
                perfetto::export_json(&sink)
            },
        )
    };
    assert_eq!(
        export(TimingMode::Event),
        export(TimingMode::Tick),
        "perfetto trace bytes diverged between timing modes"
    );
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
    set_threads(1);
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
    assert!(stats.wave_misses > 0, "the profile simulated audited waves");
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

/// The runtime audit hook: with `VECSPARSE_AUDIT`-style cross-checking
/// forced on every wave, an event-timed sweep over a registry kernel
/// must pass every tick re-simulation check (the audit asserts inside
/// the launch) and still produce tick-identical cycles.
#[test]
fn audited_event_launch_passes_and_matches_tick() {
    use vecsparse_gpu_sim::sig::Fingerprint;
    use vecsparse_gpu_sim::WaveMemo;
    use vecsparse_waveprove::{certify, CertifyOptions};

    set_threads(1);
    let gpu = GpuConfig::small();
    let shape = Shape::default();
    let tick = profile_registry(KernelId::SpmmOctet, &shape, &gpu, TimingMode::Tick);
    let audited = registry::with_kernel_mut(
        KernelId::SpmmOctet,
        &shape,
        Mode::Performance,
        |mem, kernel| {
            let cert = certify(&*mem, kernel, &CertifyOptions::default());
            let sig = cert
                .launch_sig(Fingerprint::default())
                .expect("registry kernels are provable");
            let memo = WaveMemo::with_audit(1);
            let out = Launch::new(&mut *mem, kernel)
                .gpu(&gpu)
                .performance()
                .timing(TimingMode::Event)
                .memo(&memo, sig)
                .run();
            let p = out.profile.expect("performance launch profiles");
            format!("{:016x} {} {:?}", p.cycles.to_bits(), p.csv_row(), p)
        },
    );
    assert_eq!(audited, tick, "audited event profile diverged from tick");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any grid shape, any worker count: the engine stack, with every
    /// simulated wave audited against tick, produces the same output bits
    /// and cycle estimate as a plain single-threaded context.
    #[test]
    fn grid_shape_event_matches_tick_across_threads(
        mb in 1usize..4,
        k_blocks in 1usize..4,
        n in prop_oneof![Just(16usize), Just(32), Just(48)],
        v in prop_oneof![Just(2usize), Just(4), Just(8)],
        threads in prop_oneof![Just(1usize), Just(4)],
        seed in 0u64..500,
    ) {
        let m = mb * v * 4;
        let k = k_blocks * 32;
        let a = gen::random_vector_sparse::<f16>(m, k, v, 0.7, seed);
        let b = gen::random_dense::<f16>(k, n, Layout::RowMajor, seed + 1);

        set_threads(1);
        let plain_ctx = Context::builder().gpu(GpuConfig::small()).build();
        let plain_plan = plain_ctx.plan_spmm(&a, n, SpmmAlgo::Octet);
        let out_plain = plain_plan.run(&b);
        let cycles_plain = plain_plan.profile(&b).cycles;

        set_threads(threads);
        let audited_ctx = audited_context();
        let audited_plan = audited_ctx.plan_spmm(&a, n, SpmmAlgo::Octet);
        let out_audited = audited_plan.run(&b);
        let cycles_audited = audited_plan.profile(&b).cycles;
        set_threads(1);

        prop_assert_eq!(out_audited, out_plain);
        prop_assert_eq!(cycles_audited.to_bits(), cycles_plain.to_bits());
    }
}
