//! Stage/global-layer composer for the octet SDDMM: compiles a
//! [`TilingScheme`] into the kernel's `Program` and site table.
//!
//! The scheme fixes the k-stride (`tile_k`, spread 16-per-octet across
//! the four octets) and the sub-step width (`sub_warp` output vectors
//! per mma round). The compiled program is the §6.3 listing: index
//! prologue, two-register A and B fragment loads, `tile_k / 16` mma
//! slices per sub-step, the cross-octet shuffle/FADD reduction, and the
//! vector store. As with the SpMM composer, the default scheme compiles
//! to the exact program the hand-written kernel shipped with, and each
//! scheme compiles once per process ([`crate::listing`]).

use crate::compose::{scheme_for, TilingScheme};
use crate::listing::{Listing, ListingCache};
use crate::registry::KernelId;
use std::sync::Arc;
use vecsparse_gpu_sim::{Program, Site};

/// The octet SDDMM's default scheme — the paper's evaluated kernel
/// (shared by the reg / shfl / arch variants, which differ in operand
/// routing, not tiling).
pub const DEFAULT_SCHEME: TilingScheme = scheme_for(KernelId::SddmmOctetReg);

/// Site table of a compiled octet SDDMM program: `mma[sub][m]` covers
/// sub-step `sub` (mod the unrolled rounds) and octet k-slice `m`.
pub struct SddmmOctetSites {
    pub ld_rowptr: Site,
    pub ld_colidx: Site,
    pub ldg_a: [Site; 2],
    pub ldg_b: [Site; 2],
    pub mma: Vec<Vec<Site>>,
    pub shfl_sw: Site,
    pub red_shfl: Site,
    pub red_fadd: Site,
    pub addr: Site,
    pub stg: Site,
}

impl SddmmOctetSites {
    /// Unrolled sub-step rounds (the mma table's first axis).
    pub fn subs(&self) -> usize {
        self.mma.len()
    }
}

/// The process-wide listings, keyed by scheme.
static LISTINGS: ListingCache<TilingScheme, SddmmOctetSites> = ListingCache::new();

/// Compile `scheme` into the octet SDDMM listing, once per process.
/// `tile_n / sub_warp` sub-step rounds are unrolled, each with
/// `tile_k / 16` mma slices spanning 4 static HMMA slots.
///
/// # Panics
/// Panics if `tile_k` is not a positive multiple of 16 or `sub_warp`
/// does not divide `tile_n`.
pub fn compile_octet(scheme: &TilingScheme) -> Arc<Listing<SddmmOctetSites>> {
    LISTINGS.get(*scheme, || build(scheme))
}

fn build(scheme: &TilingScheme) -> Listing<SddmmOctetSites> {
    assert!(
        scheme.tile_k >= 16 && scheme.tile_k % 16 == 0,
        "sddmm octet tile_k {} must be a positive multiple of 16",
        scheme.tile_k
    );
    assert!(
        scheme.sub_warp > 0 && scheme.tile_n % scheme.sub_warp == 0,
        "sub_warp {} must divide tile_n {}",
        scheme.sub_warp,
        scheme.tile_n
    );
    let subs = scheme.tile_n / scheme.sub_warp;
    let m_slices = scheme.tile_k / 16;

    let mut p = Program::new();
    let ld_rowptr = p.site("ld_rowptr", 0);
    let ld_colidx = p.site("ld_colidx", 0);
    let ldg_a = [p.site("ldg_a", 0), p.site("ldg_a", 1)];
    let ldg_b = [p.site("ldg_b", 0), p.site("ldg_b", 1)];
    let mut mma = Vec::with_capacity(subs);
    for sub in 0..subs {
        let mut row = Vec::with_capacity(m_slices);
        for m in 0..m_slices {
            // Each mma spans its 4 static HMMA slots.
            row.push(p.site_span("mma", (sub * 4 * m_slices + m * 4) as u32, 4));
        }
        mma.push(row);
    }
    let shfl_sw = p.site("shfl_sw", 0);
    let red_shfl = p.site("red_shfl", 0);
    let red_fadd = p.site("red_fadd", 0);
    let addr = p.site("addr", 0);
    let stg = p.site("stg", 0);
    // Modest scalar prologue on top of the registered sites.
    let static_len = p.static_len() + 48;

    let sites = SddmmOctetSites {
        ld_rowptr,
        ld_colidx,
        ldg_a,
        ldg_b,
        mma,
        shfl_sw,
        red_shfl,
        red_fadd,
        addr,
        stg,
    };
    Listing {
        prog: p,
        sites,
        static_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scheme_compiles_four_by_four_mma_table() {
        let l = compile_octet(&DEFAULT_SCHEME);
        assert_eq!(l.sites.subs(), 4);
        assert_eq!(l.sites.mma[0].len(), 4);
        assert_eq!(l.static_len, l.prog.static_len() + 48);
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn rejects_sub_16_stride() {
        let bad = TilingScheme {
            tile_k: 8,
            ..DEFAULT_SCHEME
        };
        compile_octet(&bad);
    }
}
