//! The kernel workloads: sim-fresh, sim-memo and native-kernels. Each
//! runs every (cell, algorithm) pair of a fixed cell list, pass after pass.

use crate::check::{self, ProfileFingerprint, RecurrenceCheck, Tally};
use crate::exact::ExactCounts;
use crate::inputs::{self, Algo, Cell, Operands, Pair, Plan, ALGOS};
use crate::{median_self_ms, sequential_timed_s, stats, OpSample, Outcome, Run};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::time::Instant;
use vecsparse::engine::{Context, EngineStats};
use vecsparse::SpmmAlgo;
use vecsparse_formats::{reference, Layout};
use vecsparse_gpu_sim::{Backend, MemoStats};

/// ResNet-50 layers of every kernel workload, at V = 8 so the wmma kernels run.
const LAYERS: [&str; 6] = [
    "conv2_1x1_reduce",
    "conv2_3x3",
    "conv2_1x1_expand",
    "conv3_1x1_reduce",
    "conv3_3x3",
    "conv3_1x1_expand",
];
const V: usize = 8;
const SIM_SPARSITIES: [f64; 2] = [0.7, 0.9];
/// Native cells stop at 90% sparsity: the FPU lowering, the slowest,
/// takes ~40 ms a call on conv3_3x3 there and ~100 ms at 70%.
const NATIVE_SPARSITIES: [f64; 1] = [0.9];

/// Passes of each op list per requested second.
const SIM_FRESH_PASSES_PER_S: f64 = 4.5;
const SIM_MEMO_PASSES_PER_S: f64 = 240.0;
const NATIVE_PASSES_PER_S: f64 = 5.0;

/// Sub-seed stream of the per-pass op order.
const ORDER_STREAM: u64 = 0x0DE5;

fn generate(run: &mut Run, cells: &[Cell]) -> Vec<Operands> {
    let t0 = Instant::now();
    let ops = cells
        .iter()
        .enumerate()
        .map(|(i, c)| Operands::generate(c, run.seed, i as u64))
        .collect();
    run.tracer
        .record("dlmc.build", 0, (t0, Instant::now()), None, None);
    ops
}

fn sim_cells() -> Vec<Cell> {
    inputs::cells(&LAYERS, V, &SIM_SPARSITIES)
}

/// Record an op's root span, which covers its whole loop iteration (the
/// benchmark's own bookkeeping and check too), and its layer-call children.
fn record_op(
    run: &mut Run,
    op: u64,
    tag: u32,
    window: (Instant, Instant),
    children: &[(&'static str, (Instant, Instant))],
) {
    let root = run.tracer.record("op", tag, window, None, Some(op));
    if root.is_some() {
        for &(name, span) in children {
            run.tracer.record(name, tag, span, root, Some(op));
        }
    }
}

/// Modeled totals over the first profile of every pair.
fn modeled_totals(first: &[Option<ProfileFingerprint>]) -> (f64, u64) {
    first
        .iter()
        .flatten()
        .fold((0.0, 0), |(c, i), f| (c + f.cycles(), i + f.instrs.total()))
}

/// One metric per algorithm, named `<prefix>.<label>`.
fn per_algo(prefix: &str, metric: impl Fn(Algo) -> f64) -> Vec<(String, f64)> {
    ALGOS
        .map(|a| (format!("{prefix}.{}", a.label()), metric(a)))
        .to_vec()
}

pub fn sim_fresh(run: &mut Run) -> Result<Outcome, String> {
    let cells = sim_cells();
    let pairs = inputs::pairs(cells.len());
    let setup = |run: &mut Run| {
        let ops = generate(run, &cells);
        let ctx = Context::builder().build();
        let warm = pairs[0];
        Plan::build(&ctx, &ops[warm.cell], warm.algo)
            .and_then(|plan| plan.profile(&ops[warm.cell]))
            .map_err(|e| format!("warm-up op: {e}"))?;
        Ok((ctx, ops))
    };

    let mut check = RecurrenceCheck::new(pairs.len());
    let mut tally = Tally::default();
    let mut samples = Vec::new();
    let mut engine = EngineStats::default();
    let mut rng = StdRng::seed_from_u64(inputs::mix(run.seed, ORDER_STREAM));
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    let passes = run.passes(SIM_FRESH_PASSES_PER_S);
    for segment in run.segments(passes) {
        let (ctx, ops) = run.setup(setup)?;
        for pass in segment {
            order.shuffle(&mut rng);
            let traced = run.traced_pass(pass);
            run.tracer.set_enabled(traced);
            for &p in &order {
                let it0 = Instant::now();
                let Pair { cell, algo } = pairs[p];
                let t0 = Instant::now();
                let (mut t1, mut t2) = (t0, t0);
                let result = Plan::build(&ctx, &ops[cell], algo).and_then(|plan| {
                    t1 = Instant::now();
                    let r = plan.profile(&ops[cell]);
                    t2 = Instant::now();
                    r
                });
                if result.is_err() {
                    t2 = Instant::now();
                }
                let ok = match &result {
                    Ok(profile) => check.check(p, ProfileFingerprint::of(profile)),
                    Err(e) => {
                        eprintln!("perfbench: {} on cell {cell}: {e}", algo.label());
                        false
                    }
                };
                tally.record(ok);
                let ms = (t2 - t0).as_secs_f64() * 1e3;
                samples.push(OpSample { ms, traced });
                let op = samples.len() as u64;
                record_op(
                    run,
                    op,
                    p as u32,
                    (it0, Instant::now()),
                    &[("engine.plan", (t0, t1)), ("gpu_sim.profile", (t1, t2))],
                );
            }
        }
        run.tracer.set_enabled(false);
        engine.absorb(&ctx.stats());
    }

    let (sim_cycles, sim_instrs) = modeled_totals(check.first());
    let mut exact = ExactCounts::default();
    exact.fixed("ops_attempted", tally.attempted);
    exact.seeded("gpu_sim.sim_cycles", sim_cycles);
    exact.seeded("gpu_sim.sim_instrs", sim_instrs);
    exact.fixed("engine.plans_built", engine.plans_built);
    exact.fixed("engine.tuner_launches", engine.tuner_launches);

    let mut layers = Vec::new();
    if run.trace {
        let instrs: Vec<u64> = check
            .first()
            .iter()
            .map(|f| f.map_or(0, |f| f.instrs.total()))
            .collect();
        let (mut n, mut secs) = (0u64, 0.0);
        for s in run
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == "gpu_sim.profile")
        {
            n += instrs[s.tag as usize];
            secs += s.duration_ns() as f64 / 1e9;
        }
        layers.push((
            "dlmc.build_ms".into(),
            median_self_ms(run, "dlmc.build", |_| true),
        ));
        layers.push((
            "engine.plan_ms".into(),
            median_self_ms(run, "engine.plan", |_| true),
        ));
        layers.extend(per_algo("gpu_sim.profile_ms", |a| {
            median_self_ms(run, "gpu_sim.profile", |s| pairs[s.tag as usize].algo == a)
        }));
        layers.push(("gpu_sim.minstr_per_s".into(), n as f64 / secs / 1e6));
        layers.push(("gpu_sim.sim_cycles".into(), sim_cycles));
        layers.push(("gpu_sim.sim_instrs".into(), sim_instrs as f64));
    }
    Ok(Outcome {
        timed_s: sequential_timed_s(&samples),
        ops: samples,
        tally,
        exact,
        layers,
        notes: vec![(
            "config",
            "default Context: Tick timing, no memo, Simulated backend".into(),
        )],
    })
}

pub fn sim_memo(run: &mut Run) -> Result<Outcome, String> {
    let cells = sim_cells();
    let pairs = inputs::pairs(cells.len());
    let setup = |run: &mut Run| {
        let ops = generate(run, &cells);
        let ctx = Context::builder().memoization().build();
        let (mut plans, mut honest) = (Vec::new(), Vec::new());
        for (p, pair) in pairs.iter().enumerate() {
            let t0 = Instant::now();
            let plan = Plan::build(&ctx, &ops[pair.cell], pair.algo).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let profile = plan.profile(&ops[pair.cell]).map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            run.tracer
                .record("engine.plan", p as u32, (t0, t1), None, None);
            run.tracer
                .record("memo.first_profile", p as u32, (t1, t2), None, None);
            honest.push(ProfileFingerprint::of(&profile));
            plans.push(plan);
        }
        Ok((ctx, ops, plans, honest))
    };

    let mut tally = Tally::default();
    let mut samples = Vec::new();
    let mut engine = EngineStats::default();
    let mut memo = MemoStats::default();
    // Every setup's honest profiles must equal the first setup's.
    let mut first_honest: Vec<ProfileFingerprint> = Vec::new();
    let passes = run.passes(SIM_MEMO_PASSES_PER_S);
    let segments = run.segments(passes);
    for segment in segments.clone() {
        let (ctx, ops, plans, honest) = run.setup(setup)?;
        if first_honest.is_empty() {
            first_honest = honest.clone();
        }
        let same: Vec<bool> = honest
            .iter()
            .zip(&first_honest)
            .map(|(h, f)| h == f)
            .collect();
        for pass in segment {
            let traced = run.traced_pass(pass);
            run.tracer.set_enabled(traced);
            for (p, pair) in pairs.iter().enumerate() {
                let it0 = Instant::now();
                let t0 = Instant::now();
                let result = plans[p].profile(&ops[pair.cell]);
                let t1 = Instant::now();
                tally.record(
                    same[p]
                        && result.is_ok_and(|r| {
                            check::replay_ok(&honest[p], &ProfileFingerprint::of(&r))
                        }),
                );
                let ms = (t1 - t0).as_secs_f64() * 1e3;
                samples.push(OpSample { ms, traced });
                let op = samples.len() as u64;
                record_op(
                    run,
                    op,
                    p as u32,
                    (it0, Instant::now()),
                    &[("memo.hit", (t0, t1))],
                );
            }
        }
        run.tracer.set_enabled(false);
        engine.absorb(&ctx.stats());
        memo.absorb(
            &ctx.memo_stats()
                .ok_or("memoizing context reports no memo stats")?,
        );
    }

    let first: Vec<Option<ProfileFingerprint>> = first_honest.iter().copied().map(Some).collect();
    let (sim_cycles, sim_instrs) = modeled_totals(&first);
    // Wave entries of one context: every setup memoizes the same waves.
    let wave_entries = memo.wave_entries / segments.len() as u64;
    let mut exact = ExactCounts::default();
    exact.fixed("ops_attempted", tally.attempted);
    exact.seeded("gpu_sim.sim_cycles", sim_cycles);
    exact.seeded("gpu_sim.sim_instrs", sim_instrs);
    exact.fixed("memo.launch_hits", memo.launch_hits);
    exact.fixed("memo.launch_misses", memo.launch_misses);
    exact.seeded("memo.wave_hits", memo.wave_hits);
    exact.seeded("memo.wave_misses", memo.wave_misses);
    exact.seeded("memo.wave_entries", memo.wave_entries);
    exact.fixed("engine.plans_built", engine.plans_built);
    exact.fixed("engine.tuner_launches", engine.tuner_launches);

    let mut layers = Vec::new();
    if run.trace {
        let launches = memo.launch_hits + memo.launch_misses;
        layers.push((
            "dlmc.build_ms".into(),
            median_self_ms(run, "dlmc.build", |_| true),
        ));
        layers.push((
            "engine.plan_ms".into(),
            median_self_ms(run, "engine.plan", |_| true),
        ));
        layers.push(("gpu_sim.sim_cycles".into(), sim_cycles));
        layers.push(("gpu_sim.sim_instrs".into(), sim_instrs as f64));
        layers.push((
            "memo.first_profile_ms".into(),
            median_self_ms(run, "memo.first_profile", |_| true),
        ));
        layers.push((
            "memo.hit_us".into(),
            median_self_ms(run, "memo.hit", |_| true) * 1e3,
        ));
        layers.push((
            "memo.launch_hit_ratio".into(),
            memo.launch_hits as f64 / launches.max(1) as f64,
        ));
        layers.push(("memo.wave_entries".into(), wave_entries as f64));
    }
    Ok(Outcome {
        timed_s: sequential_timed_s(&samples),
        ops: samples,
        tally,
        exact,
        layers,
        notes: vec![(
            "config",
            "Context::builder().memoization(); otherwise defaults".into(),
        )],
    })
}

/// Each pair's first output is within the precision certificate of its
/// own kernel on its own cell (planned on a fresh native context, so no
/// other shape loosens the bound) of the scalar reference.
fn within_certificates(
    ops: &[Operands],
    pairs: &[Pair],
    firsts: &[inputs::Output],
) -> Result<Vec<bool>, String> {
    let mut ok = vec![false; pairs.len()];
    for (cell, o) in ops.iter().enumerate() {
        let probe = Context::builder().backend(Backend::Native).build();
        let spmm_ref = reference::spmm_vs(&o.a, &o.b);
        let ell_ref = reference::gemm(
            &inputs::ell_surrogate(&o.a).to_dense(Layout::RowMajor),
            &o.b,
        );
        let sddmm_ref = reference::sddmm(&o.lhs, &o.rhs, o.mask());
        for (p, pair) in pairs.iter().enumerate().filter(|(_, q)| q.cell == cell) {
            Plan::build(&probe, o, pair.algo).map_err(|e| e.to_string())?;
            let reference = match pair.algo {
                Algo::Spmm(SpmmAlgo::BlockedEll) => ell_ref.data(),
                Algo::Spmm(_) => spmm_ref.data(),
                Algo::Sddmm(_) => sddmm_ref.values(),
            };
            let report = probe.report();
            let cert = report
                .certificates
                .iter()
                .find(|c| c.kernel == pair.algo.label());
            ok[p] = cert.is_some_and(|c| {
                check::within_bound(reference, firsts[p].values(), c.abs_error_bound)
            });
            if !ok[p] {
                eprintln!(
                    "perfbench: {} on cell {cell} is outside its certificate",
                    pair.algo.label()
                );
            }
        }
    }
    Ok(ok)
}

pub fn native_kernels(run: &mut Run) -> Result<Outcome, String> {
    let cells = inputs::cells(&LAYERS, V, &NATIVE_SPARSITIES);
    let pairs = inputs::pairs(cells.len());
    let setup = |run: &mut Run| {
        let ops = generate(run, &cells);
        let ctx = Context::builder().backend(Backend::Native).build();
        let (mut plans, mut firsts) = (Vec::new(), Vec::new());
        for (p, pair) in pairs.iter().enumerate() {
            let t0 = Instant::now();
            let plan = Plan::build(&ctx, &ops[pair.cell], pair.algo).map_err(|e| e.to_string())?;
            run.tracer
                .record("engine.plan", p as u32, (t0, Instant::now()), None, None);
            firsts.push(plan.run(&ops[pair.cell]).map_err(|e| e.to_string())?);
            plans.push(plan);
        }
        Ok((ctx, ops, plans, firsts))
    };

    let mut tally = Tally::default();
    let mut samples = Vec::new();
    let mut flops = 0u64;
    let mut engine = EngineStats::default();
    // Checked once, untimed, on the first setup's outputs; every later
    // output, later setups' included, must be bit-identical to those.
    let (mut first_ok, mut first_bits) = (Vec::new(), Vec::new());
    let mut cell_flops: Vec<u64> = Vec::new();
    let mut rng = StdRng::seed_from_u64(inputs::mix(run.seed, ORDER_STREAM));
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    let passes = run.passes(NATIVE_PASSES_PER_S);
    for segment in run.segments(passes) {
        let (ctx, ops, plans, firsts) = run.setup(setup)?;
        if first_bits.is_empty() {
            first_ok = within_certificates(&ops, &pairs, &firsts)?;
            first_bits = firsts.iter().map(|o| check::bits(o.values())).collect();
            cell_flops = ops.iter().map(Operands::useful_flops).collect();
        }
        let same: Vec<bool> = firsts
            .iter()
            .zip(&first_bits)
            .zip(&first_ok)
            .map(|((o, bits), ok)| *ok && check::same_bits(bits, o.values()))
            .collect();
        drop(firsts);
        for pass in segment {
            order.shuffle(&mut rng);
            let traced = run.traced_pass(pass);
            run.tracer.set_enabled(traced);
            for &p in &order {
                let it0 = Instant::now();
                let cell = pairs[p].cell;
                let t0 = Instant::now();
                let result = plans[p].run(&ops[cell]);
                let t1 = Instant::now();
                tally.record(
                    same[p]
                        && result.is_ok_and(|out| check::same_bits(&first_bits[p], out.values())),
                );
                flops += cell_flops[cell];
                let ms = (t1 - t0).as_secs_f64() * 1e3;
                samples.push(OpSample { ms, traced });
                let op = samples.len() as u64;
                record_op(
                    run,
                    op,
                    p as u32,
                    (it0, Instant::now()),
                    &[("native.run", (t0, t1))],
                );
            }
        }
        run.tracer.set_enabled(false);
        engine.absorb(&ctx.stats());
    }

    let mut exact = ExactCounts::default();
    exact.fixed("ops_attempted", tally.attempted);
    exact.fixed("native.useful_flops", flops);
    exact.fixed("engine.plans_built", engine.plans_built);
    exact.fixed("engine.tuner_launches", engine.tuner_launches);

    let mut layers = Vec::new();
    if run.trace {
        // Self time of every traced run call, per pair.
        let own = crate::trace::self_ns(run.tracer.spans());
        let mut per_pair: Vec<Vec<f64>> = vec![Vec::new(); pairs.len()];
        for (s, ns) in run.tracer.spans().iter().zip(own) {
            if s.name == "native.run" {
                per_pair[s.tag as usize].push(ns as f64 / 1e9);
            }
        }
        let gflops = |a: Algo| {
            let (mut f, mut secs) = (0.0, 0.0);
            for (p, times) in per_pair
                .iter()
                .enumerate()
                .filter(|(p, _)| pairs[*p].algo == a)
            {
                f += (cell_flops[pairs[p].cell] * times.len() as u64) as f64;
                secs += times.iter().sum::<f64>();
            }
            f / secs / 1e9
        };
        // Slowest lowering's median time over the fastest's among the
        // lowerings of one operation on one cell; the worst such ratio.
        let spmm = |p: usize| matches!(pairs[p].algo, Algo::Spmm(_));
        let worst_vs_best = (0..cells.len())
            .flat_map(|cell| [(cell, true), (cell, false)])
            .map(|(cell, is_spmm)| {
                let medians: Vec<f64> = (0..pairs.len())
                    .filter(|&p| pairs[p].cell == cell && spmm(p) == is_spmm)
                    .map(|p| stats::median(&per_pair[p]))
                    .collect();
                let max = medians.iter().copied().fold(f64::MIN, f64::max);
                let min = medians.iter().copied().fold(f64::MAX, f64::min);
                max / min
            })
            .fold(0.0, f64::max);
        layers.push((
            "dlmc.build_ms".into(),
            median_self_ms(run, "dlmc.build", |_| true),
        ));
        layers.push((
            "engine.plan_ms".into(),
            median_self_ms(run, "engine.plan", |_| true),
        ));
        layers.extend(per_algo("native.gflops", gflops));
        layers.push(("native.worst_vs_best".into(), worst_vs_best));
    }
    Ok(Outcome {
        timed_s: sequential_timed_s(&samples),
        ops: samples,
        tally,
        exact,
        layers,
        notes: vec![(
            "config",
            "Context::builder().backend(Backend::Native); otherwise defaults".into(),
        )],
    })
}
