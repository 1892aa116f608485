//! Output checks. Every check runs outside the op's timed window.

use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{CacheStats, InstrCounts, KernelProfile};

/// Checked ops of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.ok += u64::from(ok);
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.ok as f64 / self.attempted as f64
        }
    }
}

/// The modeled numbers of a [`KernelProfile`], bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfileFingerprint {
    /// `cycles`, `issue_cycles`, `dram_cycles`, `l2_cycles` as f64 bits.
    cycles: [u64; 4],
    stall_bits: u64,
    grid: usize,
    pub instrs: InstrCounts,
    l1: CacheStats,
    l2: CacheStats,
}

impl ProfileFingerprint {
    pub fn of(p: &KernelProfile) -> ProfileFingerprint {
        ProfileFingerprint {
            cycles: [p.cycles, p.issue_cycles, p.dram_cycles, p.l2_cycles].map(f64::to_bits),
            stall_bits: p.stalls.total().to_bits(),
            grid: p.grid,
            instrs: p.instrs,
            l1: p.l1,
            l2: p.l2,
        }
    }

    /// Modeled cycles of the profile.
    pub fn cycles(&self) -> f64 {
        f64::from_bits(self.cycles[0])
    }

    /// Every modeled time is a finite number.
    pub fn is_finite(&self) -> bool {
        self.cycles
            .iter()
            .chain([&self.stall_bits])
            .all(|&b| f64::from_bits(b).is_finite())
    }
}

/// sim-fresh: a profile is finite and, when its pair recurs, identical to
/// the pair's first profile in the run.
pub struct RecurrenceCheck {
    first: Vec<Option<ProfileFingerprint>>,
}

impl RecurrenceCheck {
    pub fn new(pairs: usize) -> RecurrenceCheck {
        RecurrenceCheck {
            first: vec![None; pairs],
        }
    }

    pub fn check(&mut self, pair: usize, got: ProfileFingerprint) -> bool {
        got.is_finite() && *self.first[pair].get_or_insert(got) == got
    }

    /// The first profile seen for each pair.
    pub fn first(&self) -> &[Option<ProfileFingerprint>] {
        &self.first
    }
}

/// sim-memo: a replay equals its plan's honest first profile.
pub fn replay_ok(honest: &ProfileFingerprint, replay: &ProfileFingerprint) -> bool {
    replay.is_finite() && honest == replay
}

pub fn bits(values: &[f16]) -> Vec<u16> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// native-kernels and serve-native: the output is bit-identical to `expected`.
pub fn same_bits(expected: &[u16], got: &[f16]) -> bool {
    expected.len() == got.len() && expected.iter().zip(got).all(|(&e, g)| e == g.to_bits())
}

/// native-kernels: every output value is within `bound` of the reference.
pub fn within_bound(reference: &[f16], got: &[f16], bound: f64) -> bool {
    reference.len() == got.len()
        && reference
            .iter()
            .zip(got)
            .all(|(r, g)| (f64::from(g.to_f32()) - f64::from(r.to_f32())).abs() <= bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Algo, Cell, Operands, Plan, ALGOS};
    use vecsparse::engine::Context;
    use vecsparse_dlmc::LayerShape;
    use vecsparse_formats::reference;
    use vecsparse_gpu_sim::{Backend, GpuConfig};

    const SHAPE: LayerShape = LayerShape {
        name: "tiny",
        rows: 16,
        cols: 32,
    };

    fn operands() -> Operands {
        let cell = Cell {
            shape: SHAPE,
            v: 8,
            sparsity: 0.5,
        };
        Operands::generate(&cell, 7, 0)
    }

    fn perturb(values: &[f16]) -> Vec<f16> {
        let mut out = values.to_vec();
        out[0] = f16::from_f32(out[0].to_f32() + 1.0);
        out
    }

    #[test]
    fn perturbed_profile_fails_sim_checks() {
        let ops = operands();
        let ctx = Context::builder().gpu(GpuConfig::small()).build();
        let plan = Plan::build(&ctx, &ops, ALGOS[0]).expect("plan");
        let mut profile = plan.profile(&ops).expect("profile");
        let honest = ProfileFingerprint::of(&profile);

        // sim-fresh: recurrence must match; a changed cycle count or a NaN fails.
        let mut check = RecurrenceCheck::new(1);
        let mut tally = Tally::default();
        tally.record(check.check(0, honest));
        tally.record(check.check(0, honest));
        assert_eq!(tally.ok_frac(), 1.0);
        profile.cycles += 1.0;
        tally.record(check.check(0, ProfileFingerprint::of(&profile)));
        assert!(tally.ok_frac() < 1.0);
        let mut nan = ProfileFingerprint::of(&profile);
        nan.cycles[2] = f64::NAN.to_bits();
        assert!(!RecurrenceCheck::new(1).check(0, nan));

        // sim-memo: a replay that differs from the honest profile fails.
        let mut tally = Tally::default();
        tally.record(replay_ok(&honest, &honest));
        tally.record(replay_ok(&honest, &ProfileFingerprint::of(&profile)));
        assert_eq!(tally.ok_frac(), 0.5);
    }

    #[test]
    fn perturbed_output_fails_native_and_serve_checks() {
        let ops = operands();
        let ctx = Context::builder().backend(Backend::Native).build();
        for algo in [ALGOS[0], ALGOS[5]] {
            let plan = Plan::build(&ctx, &ops, algo).expect("plan");
            let out = plan.run(&ops).expect("run");
            let reference = match algo {
                Algo::Spmm(_) => reference::spmm_vs(&ops.a, &ops.b).data().to_vec(),
                Algo::Sddmm(_) => reference::sddmm(&ops.lhs, &ops.rhs, ops.mask())
                    .values()
                    .to_vec(),
            };
            let bad = perturb(out.values());
            let first = bits(out.values());

            // native-kernels: within the certificate of the reference and
            // bit-identical to the pair's first output.
            let mut tally = Tally::default();
            for got in [out.values(), &bad] {
                tally.record(within_bound(&reference, got, 0.5) && same_bits(&first, got));
            }
            assert_eq!(
                tally,
                Tally {
                    attempted: 2,
                    ok: 1
                },
                "{}",
                algo.label()
            );
            assert!(!within_bound(&reference, &bad, 0.5));

            // serve-native: bit-identical to the direct run.
            let mut tally = Tally::default();
            tally.record(same_bits(&first, out.values()));
            tally.record(same_bits(&first, &bad));
            tally.record(same_bits(&first, &out.values()[1..]));
            assert_eq!(tally.failed(), 2);
        }
    }

    /// The Blocked-ELL kernel multiplies the engine's surrogate of A; the
    /// rebuilt surrogate is the right reference for it.
    #[test]
    fn blocked_ell_reference_is_the_engine_surrogate() {
        let ops = operands();
        let ctx = Context::builder().backend(Backend::Native).build();
        let plan = Plan::build(&ctx, &ops, ALGOS[3]).expect("plan");
        let out = plan.run(&ops).expect("run");
        let dense =
            crate::inputs::ell_surrogate(&ops.a).to_dense(vecsparse_formats::Layout::RowMajor);
        let reference = reference::gemm(&dense, &ops.b);
        assert!(within_bound(reference.data(), out.values(), 0.0));
    }
}
