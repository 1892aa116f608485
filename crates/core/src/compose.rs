//! Componentized tiling architecture: the shared scheme vocabulary of the
//! three-layer kernel composer (DESIGN §2j).
//!
//! Every registry kernel is one point in a tiling-configuration space.
//! This module names that space:
//!
//! * **global layer** — grid geometry and operand staging order, chosen
//!   by [`LoadStrategy`]: either batch every stride's loads before a
//!   fence and the mma batch (`SyncFullOrdered`, the paper's §5.4 ILP
//!   trick) or cycle load→compute per step (`SyncBufferCyclic`).
//! * **stage layer** — shared-memory tiling: `tile_k` / `tile_n` /
//!   sub-warp width, plus the [`WriteOutStrategy`] governing how much
//!   shared memory the staging phase holds at once.
//! * **tile layer** — the inner step ([`TileComponent`]): an
//!   `mma.m8n8k4` octet, a classic wmma fragment, an FPU FMA chain, a
//!   scalar loop, or the softmax row composition. The component fixes
//!   the kernel's arithmetic model, which is why
//!   [`model_from_scheme`] can derive the precision analyzer's
//!   [`KernelModel`] from the scheme alone.
//!
//! The 14 registry entries are named default schemes ([`scheme_for`], a
//! `const` table — kernel files derive their tile constants from it at
//! compile time), and the `SpmmAlgo::Auto` tuner sweeps non-default
//! schemes for the octet SpMM through
//! [`crate::spmm::compose::octet_schemes`].

use crate::registry::KernelId;
use vecsparse_precision::KernelModel;

/// Global-layer operand staging order within one shared-memory stride.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LoadStrategy {
    /// Batch all of a stride's loads, fence once, then batch the
    /// compute steps (maximal memory-level parallelism; §5.4).
    #[default]
    SyncFullOrdered,
    /// Cycle load → compute per step, reusing the same registers — the
    /// compiler-style double-buffer schedule the §5.4 ablation models.
    SyncBufferCyclic,
}

impl LoadStrategy {
    /// Stable lowercase label fragment.
    pub fn label(self) -> &'static str {
        match self {
            LoadStrategy::SyncFullOrdered => "ordered",
            LoadStrategy::SyncBufferCyclic => "cyclic",
        }
    }
}

/// Stage-layer shared-memory write-out discipline (after
/// `cubecl-matmul`'s `WriteOutStrategy`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum WriteOutStrategy {
    /// The full stride's staged operands are resident in shared memory
    /// at once (`tile_k × v` elements) — one staging phase per stride.
    #[default]
    LargeSmem,
    /// Half-sized shared staging, reused twice per stride: trades an
    /// extra staging phase for occupancy headroom.
    ReuseSmem,
}

impl WriteOutStrategy {
    /// Stable lowercase label fragment.
    pub fn label(self) -> &'static str {
        match self {
            WriteOutStrategy::LargeSmem => "large",
            WriteOutStrategy::ReuseSmem => "reuse",
        }
    }
}

/// Tile-layer inner step: which functional unit reduces a `k`-slice into
/// the accumulator, and with what rounding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TileComponent {
    /// `mma.m8n8k4` on octet operand buffers (exact f16×f16 products,
    /// f32 accumulation).
    MmaOctet,
    /// Classic 16×16×16 wmma fragment mapping (same arithmetic model).
    MmaWmma,
    /// FPU paired HMUL2/FADD: products round to binary16 before the f32
    /// accumulate.
    Fpu,
    /// Scalar FMA loop with f32 accumulation (the cuSPARSE surrogates).
    Scalar,
    /// Row composition `exp(x − max) / Σ exp` (no reduction over `k`).
    Softmax,
}

impl TileComponent {
    /// Stable lowercase label fragment.
    pub fn label(self) -> &'static str {
        match self {
            TileComponent::MmaOctet => "mma-octet",
            TileComponent::MmaWmma => "mma-wmma",
            TileComponent::Fpu => "fpu",
            TileComponent::Scalar => "scalar",
            TileComponent::Softmax => "softmax",
        }
    }
}

/// A point in the tiling-configuration space: everything the three-layer
/// composer needs to compile a kernel's `Program` and launch geometry.
///
/// Schemes are plain data — `Copy`, hashable, and cheap to enumerate —
/// so the Auto tuner can sweep them and the plan cache can memoize the
/// winning point alongside the winning algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TilingScheme {
    /// Nonzero vectors (or scalars) reduced per shared-memory stride.
    pub tile_k: usize,
    /// Output tile width in columns.
    pub tile_n: usize,
    /// Threads cooperating on one output row segment.
    pub sub_warp: usize,
    /// Global-layer staging order.
    pub load: LoadStrategy,
    /// Stage-layer shared-memory discipline.
    pub write_out: WriteOutStrategy,
    /// Tile-layer inner step.
    pub tile: TileComponent,
    /// Output element width in bits (16 for the f16 kernels, 32 for the
    /// fp32 cuSPARSE SDDMM surrogate).
    pub out_bits: u32,
}

impl TilingScheme {
    /// Compact scheme label, e.g. `k32n64-large-ordered`, as recorded in
    /// sweep JSON rows and the plan cache.
    pub fn label(&self) -> String {
        format!(
            "k{}n{}-{}-{}",
            self.tile_k,
            self.tile_n,
            self.write_out.label(),
            self.load.label()
        )
    }

    /// The staging chunk the stage layer holds in shared memory at once:
    /// the full `tile_k` under [`WriteOutStrategy::LargeSmem`], half of
    /// it under [`WriteOutStrategy::ReuseSmem`].
    pub const fn stage_k(&self) -> usize {
        match self.write_out {
            WriteOutStrategy::LargeSmem => self.tile_k,
            WriteOutStrategy::ReuseSmem => self.tile_k / 2,
        }
    }
}

/// The named default scheme of a registry kernel — the exact
/// configuration point the paper's hand-written listing sits at. Kernel
/// files derive their tile constants from this table (`const`-evaluated),
/// so a scheme change here *is* a kernel change.
pub const fn scheme_for(id: KernelId) -> TilingScheme {
    // Shorthand: every default uses the ordered/large staging the paper
    // ships; only the octet SpMM currently exposes the other points.
    const fn s(tile_k: usize, tile_n: usize, sub_warp: usize, tile: TileComponent) -> TilingScheme {
        TilingScheme {
            tile_k,
            tile_n,
            sub_warp,
            load: LoadStrategy::SyncFullOrdered,
            write_out: WriteOutStrategy::LargeSmem,
            tile,
            out_bits: 16,
        }
    }
    match id {
        KernelId::SpmmOctet => s(32, 64, 4, TileComponent::MmaOctet),
        KernelId::SpmmWmma => s(16, 64, 32, TileComponent::MmaWmma),
        KernelId::SpmmFpuSubwarp => s(32, 64, 8, TileComponent::Fpu),
        KernelId::SpmmBlockedEll => s(16, 128, 32, TileComponent::MmaWmma),
        // Its half chain issues HMUL2/FADD pairs, like the FPU subwarp.
        KernelId::SpmmCsrScalar => s(1, 32, 1, TileComponent::Fpu),
        KernelId::SpmmDense => s(32, 128, 32, TileComponent::Scalar),
        KernelId::SddmmOctetReg | KernelId::SddmmOctetShfl | KernelId::SddmmOctetArch => {
            s(64, 32, 8, TileComponent::MmaOctet)
        }
        KernelId::SddmmWmma => s(64, 32, 32, TileComponent::MmaWmma),
        KernelId::SddmmFpuSubwarp => s(64, 16, 8, TileComponent::Fpu),
        KernelId::SddmmCsr => TilingScheme {
            out_bits: 32,
            ..s(1, 1, 1, TileComponent::Scalar)
        },
        KernelId::SoftmaxSparse => s(1, 64, 4, TileComponent::Softmax),
        KernelId::SoftmaxDense => s(1, 64, 32, TileComponent::Softmax),
    }
}

/// Derive the precision analyzer's numerical model from a scheme: the
/// tile component fixes the arithmetic (exact-product f32 reduction for
/// the mma and scalar components, binary16-rounded products for the FPU
/// chain, the row composition for softmax) and `out_bits` the store
/// width. `k` is the reduction depth, `n` the softmax row length.
pub fn model_from_scheme(scheme: &TilingScheme, k: usize, n: usize) -> KernelModel {
    let base = match scheme.tile {
        TileComponent::MmaOctet | TileComponent::MmaWmma | TileComponent::Scalar => {
            KernelModel::tcu_reduction(k)
        }
        TileComponent::Fpu => KernelModel::fpu_reduction(k),
        TileComponent::Softmax => KernelModel::softmax(n),
    };
    KernelModel {
        out_elem_bytes: u64::from(scheme.out_bits / 8),
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ALL_KERNELS;

    #[test]
    fn default_schemes_pin_the_paper_constants() {
        let o = scheme_for(KernelId::SpmmOctet);
        assert_eq!((o.tile_k, o.tile_n, o.sub_warp), (32, 64, 4));
        assert_eq!(o.stage_k(), 32);
        let so = scheme_for(KernelId::SddmmOctetReg);
        assert_eq!((so.tile_k, so.tile_n, so.sub_warp), (64, 32, 8));
        assert_eq!(scheme_for(KernelId::SddmmCsr).out_bits, 32);
        for id in ALL_KERNELS {
            let s = scheme_for(id);
            assert_eq!(s.load, LoadStrategy::SyncFullOrdered, "{id:?}");
            assert_eq!(s.write_out, WriteOutStrategy::LargeSmem, "{id:?}");
        }
    }

    #[test]
    fn scheme_labels_are_compact_and_distinct_per_point() {
        let d = scheme_for(KernelId::SpmmOctet);
        assert_eq!(d.label(), "k32n64-large-ordered");
        let cyclic = TilingScheme {
            load: LoadStrategy::SyncBufferCyclic,
            ..d
        };
        let reuse = TilingScheme {
            write_out: WriteOutStrategy::ReuseSmem,
            ..d
        };
        assert_ne!(d.label(), cyclic.label());
        assert_ne!(d.label(), reuse.label());
        assert_eq!(reuse.stage_k(), 16);
    }

    #[test]
    fn model_from_scheme_matches_registry_models() {
        use crate::registry::{model_for, Shape};
        let shape = Shape::default();
        for id in ALL_KERNELS {
            let from_scheme = model_from_scheme(&scheme_for(id), shape.k, shape.n);
            let from_registry = model_for(id, &shape);
            assert_eq!(from_scheme, from_registry, "{id:?}");
        }
    }
}
