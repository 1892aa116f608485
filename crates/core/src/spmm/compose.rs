//! Stage/global-layer composer for the octet SpMM: compiles a
//! [`TilingScheme`] into the kernel's `Program` and site table.
//!
//! The scheme fixes the stage-layer geometry — `tile_k` staged vectors
//! per shared-memory stride, hence `tile_k / 4` unrolled step bodies —
//! and the compiled program is the paper's §5.3 listing at that point:
//! scalar prologue, per-stride staging, one B load + one shared A load
//! per step, the §5.4 fence, two `mma.m8n8k4` per step, and the
//! shuffle/store epilogue. The default scheme compiles to the exact
//! program the hand-written kernel shipped with; non-default schemes
//! shrink or re-order the same sites, which is why the wave and
//! footprint certificates keyed on the listing survive the refactor
//! unchanged at the default point. Each scheme compiles once per process
//! ([`crate::listing`]).

use crate::compose::{scheme_for, TilingScheme};
use crate::listing::{Listing, ListingCache};
use crate::registry::KernelId;
use std::sync::Arc;
use vecsparse_gpu_sim::{Program, Site};

/// The octet SpMM's default scheme — the paper's evaluated kernel.
pub const DEFAULT_SCHEME: TilingScheme = scheme_for(KernelId::SpmmOctet);

/// Site table of a compiled octet SpMM program. Per-step sites are
/// `tile_k / 4` long; everything else is a single site.
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

/// The process-wide listings, keyed by scheme.
static LISTINGS: ListingCache<TilingScheme, OctetSites> = ListingCache::new();

/// Compile `scheme` into the octet SpMM listing, once per process. The
/// site order is the listing order: prologue loads, staging, the
/// unrolled load batch, the fence, the unrolled mma batch, then the
/// epilogue.
///
/// # Panics
/// Panics if the scheme's staging window is not a positive multiple of
/// 4 that fits the 32-lane staging load.
pub fn compile_octet(scheme: &TilingScheme) -> Arc<Listing<OctetSites>> {
    LISTINGS.get(*scheme, || build(scheme))
}

fn build(scheme: &TilingScheme) -> Listing<OctetSites> {
    let tile_k = scheme.tile_k;
    assert!(
        tile_k >= 4 && tile_k % 4 == 0 && tile_k <= 32,
        "octet stage window {tile_k} must be a multiple of 4 in 4..=32"
    );
    let steps = tile_k / 4;

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
    Listing {
        prog: p,
        sites,
        static_len,
    }
}

/// The scheme points the `SpmmAlgo::Auto` tuner sweeps for the octet
/// SpMM: the paper's default first (ties in the profile reduce to it),
/// then the 16-vector stride.
pub fn octet_schemes() -> [TilingScheme; 2] {
    [
        DEFAULT_SCHEME,
        TilingScheme {
            tile_k: 16,
            ..DEFAULT_SCHEME
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scheme_compiles_to_eight_steps() {
        let l = compile_octet(&DEFAULT_SCHEME);
        assert_eq!(l.sites.steps(), 8);
        assert_eq!(l.sites.mma.len(), 8);
        assert_eq!(l.static_len, l.prog.static_len() + 48);
        assert!(l.static_len < 600, "static {}", l.static_len);
    }

    #[test]
    fn shorter_stages_compile_to_fewer_steps() {
        let cyclic = TilingScheme {
            load: crate::compose::LoadStrategy::SyncBufferCyclic,
            ..DEFAULT_SCHEME
        };
        for scheme in octet_schemes().into_iter().chain([cyclic]) {
            let sites = &compile_octet(&scheme).sites;
            assert_eq!(sites.steps(), scheme.tile_k / 4, "{}", scheme.label());
        }
    }

    #[test]
    fn sweep_is_default_then_k16() {
        let labels = octet_schemes().map(|s| s.label());
        assert_eq!(labels, ["k32n64-ordered", "k16n64-ordered"]);
        assert_eq!(octet_schemes()[0], DEFAULT_SCHEME);
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
