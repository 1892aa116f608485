//! Stage/global-layer composer for the octet SpMM: compiles a
//! [`TilingScheme`] into the kernel's `Program` and site table.
//!
//! The scheme fixes the stage-layer geometry — `stage_k` staged vectors
//! per shared-memory stride, hence `stage_k / 4` unrolled step bodies —
//! and the compiled program is the paper's §5.3 listing at that point:
//! scalar prologue, per-stride staging, one B load + one shared A load
//! per step, the §5.4 fence, two `mma.m8n8k4` per step, and the
//! shuffle/store epilogue. The default scheme compiles to the exact
//! program the hand-written kernel shipped with; non-default schemes
//! shrink or re-order the same sites, which is why the wave and
//! footprint certificates keyed on the listing survive the refactor
//! unchanged at the default point.

use crate::compose::{scheme_for, TilingScheme};
use crate::registry::KernelId;
use vecsparse_gpu_sim::{Program, Site};

/// The octet SpMM's default scheme — the paper's evaluated kernel.
pub const DEFAULT_SCHEME: TilingScheme = scheme_for(KernelId::SpmmOctet);

/// Site table of a compiled octet SpMM program. Per-step sites are
/// `stage_k / 4` long; everything else is a single site.
pub struct OctetSites {
    pub ld_rowptr: Site,
    pub ld_colidx: Site,
    pub ld_avals: Site,
    pub sts_avals: Site,
    /// One B-fragment load per step (unrolled).
    pub ldg_b: Vec<Site>,
    /// One shared A-fragment load per step (unrolled).
    pub lds_a: Vec<Site>,
    pub fence: Site,
    /// Two mma per step (each spans 4 static HMMA slots).
    pub mma: Vec<[Site; 2]>,
    pub addr: Site,
    pub shfl_out: Site,
    pub stg: Site,
}

impl OctetSites {
    /// Unrolled steps per shared-memory stride.
    pub fn steps(&self) -> usize {
        self.ldg_b.len()
    }
}

/// Compile `scheme` into the octet SpMM program. The site order is the
/// listing order: prologue loads, staging, the unrolled load batch, the
/// fence, the unrolled mma batch, then the epilogue.
///
/// # Panics
/// Panics if the scheme's staging window is not a positive multiple of
/// 4 that fits the 32-lane staging load.
pub fn compile_octet(scheme: &TilingScheme) -> (Program, OctetSites, u32) {
    let stage_k = scheme.stage_k();
    assert!(
        stage_k >= 4 && stage_k % 4 == 0 && stage_k <= 32,
        "octet stage window {stage_k} must be a multiple of 4 in 4..=32"
    );
    let steps = stage_k / 4;

    let mut p = Program::new();
    let ld_rowptr = p.site("ld_rowptr", 0);
    let ld_colidx = p.site("ld_colidx", 0);
    let ld_avals = p.site("ld_avals", 0);
    let sts_avals = p.site("sts_avals", 0);
    let mut ldg_b = Vec::with_capacity(steps);
    let mut lds_a = Vec::with_capacity(steps);
    for s in 0..steps {
        ldg_b.push(p.site("ldg_b", s as u32));
        lds_a.push(p.site("lds_a", s as u32));
    }
    let fence = p.site("fence", 0);
    let mut mma = Vec::with_capacity(steps);
    for s in 0..steps {
        // Each mma spans the 4 HMMA steps.
        mma.push([
            p.site_span("mma", (s * 8) as u32, 4),
            p.site_span("mma", (s * 8 + 4) as u32, 4),
        ]);
    }
    let addr = p.site("addr", 0);
    let shfl_out = p.site("shfl_out", 0);
    let stg = p.site("stg", 0);
    // Plus a residue-loop copy of one step's body and scalar prologue
    // glue, giving a program in the paper's 384–416 line regime.
    let static_len = p.static_len() + 48;

    let sites = OctetSites {
        ld_rowptr,
        ld_colidx,
        ld_avals,
        sts_avals,
        ldg_b,
        lds_a,
        fence,
        mma,
        addr,
        shfl_out,
        stg,
    };
    (p, sites, static_len)
}

/// The scheme points the `SpmmAlgo::Auto` tuner sweeps for the octet
/// SpMM: the paper's default first (ties in the profile reduce to it),
/// then a shorter stride, a half-sized reused staging buffer, and the
/// cyclic load schedule — each a single-axis move off the default.
pub fn octet_schemes() -> Vec<TilingScheme> {
    use crate::compose::{LoadStrategy, WriteOutStrategy};
    let d = DEFAULT_SCHEME;
    vec![
        d,
        TilingScheme { tile_k: 16, ..d },
        TilingScheme {
            write_out: WriteOutStrategy::ReuseSmem,
            ..d
        },
        TilingScheme {
            load: LoadStrategy::SyncBufferCyclic,
            ..d
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scheme_compiles_to_eight_steps() {
        let (p, sites, static_len) = compile_octet(&DEFAULT_SCHEME);
        assert_eq!(sites.steps(), 8);
        assert_eq!(sites.mma.len(), 8);
        assert_eq!(static_len, p.static_len() + 48);
        assert!(static_len < 600, "static {static_len}");
    }

    #[test]
    fn shorter_stages_compile_to_fewer_steps() {
        for scheme in octet_schemes() {
            let (_, sites, _) = compile_octet(&scheme);
            assert_eq!(sites.steps(), scheme.stage_k() / 4, "{}", scheme.label());
        }
    }

    #[test]
    fn sweep_has_three_non_default_points() {
        let schemes = octet_schemes();
        assert_eq!(schemes[0], DEFAULT_SCHEME);
        assert!(schemes.len() >= 4);
        let labels: std::collections::BTreeSet<String> =
            schemes.iter().map(TilingScheme::label).collect();
        assert_eq!(labels.len(), schemes.len(), "labels distinct");
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn rejects_overlong_stage() {
        let bad = TilingScheme {
            tile_k: 64,
            ..DEFAULT_SCHEME
        };
        compile_octet(&bad);
    }
}
