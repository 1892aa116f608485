//! Static program (SASS-line) registry.
//!
//! The L0 instruction-cache model needs to know the *static* footprint of a
//! kernel — the paper attributes the Blocked-ELL kernel's dominant stall to
//! its 4600-line SASS overflowing the 768-entry L0 cache (§3.2), and its
//! own kernel's health to a 384–416-line program (§7.2.2).
//!
//! Kernels therefore allocate one [`Site`] per *static* instruction: an
//! instruction inside a fully-unrolled loop gets one site per unroll
//! instance (that is precisely why unrolling bloats programs), while an
//! instruction inside a rolled loop gets a single site reused every
//! iteration.

use std::collections::HashMap;

/// A static instruction id (one SASS line).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Site(pub u32);

/// Registry of a kernel's static instructions.
///
/// Sites are keyed by `(name, unroll_index)` so that kernel code can write
/// `prog.site("fma", i)` inside an unrolled loop and receive a distinct
/// static id per instance, or `prog.site("fma", 0)` inside a rolled loop
/// to reuse one id.
#[derive(Debug, Default)]
pub struct Program {
    // Keyed lookup only; every iteration below is either order-
    // independent (max scan) or sorted before use (`listing`).
    by_key: HashMap<(&'static str, u32), Site>, // lint: hash-ok
    next: u32,
}

impl Program {
    /// Empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Get or allocate the site for `(name, instance)`.
    pub fn site(&mut self, name: &'static str, instance: u32) -> Site {
        let next = &mut self.next;
        *self.by_key.entry((name, instance)).or_insert_with(|| {
            let s = Site(*next);
            *next += 1;
            s
        })
    }

    /// Get or allocate a contiguous span of `span` static slots for
    /// `(name, instance)`, returning the first.
    ///
    /// Multi-step instructions emit at consecutive PCs from one site —
    /// `mma.m8n8k4` issues one HMMA per step at `site+0..site+steps` —
    /// so they must reserve their whole span up front; a plain
    /// [`Program::site`] call would let the *next* site alias the later
    /// steps' PCs (which the sanitizer reports as `pc-aliasing`).
    pub fn site_span(&mut self, name: &'static str, instance: u32, span: u32) -> Site {
        let next = &mut self.next;
        *self.by_key.entry((name, instance)).or_insert_with(|| {
            let s = Site(*next);
            *next += span.max(1);
            s
        })
    }

    /// Number of static instructions registered so far ("SASS lines").
    pub fn static_len(&self) -> u32 {
        self.next
    }

    /// The registered sites as `(site_id, name, instance)`, sorted by site
    /// id — a program listing for diagnostics.
    pub fn listing(&self) -> Vec<(u32, &'static str, u32)> {
        let mut out: Vec<_> = self
            .by_key
            .iter()
            .map(|(&(name, instance), &site)| (site.0, name, instance))
            .collect();
        out.sort_unstable();
        out
    }

    /// FNV-1a hash of the sorted program listing: the "program identity"
    /// leg of a wave-equivalence signature. Two kernels with identical
    /// site names, instances and pc assignment hash equal.
    pub fn listing_hash(&self) -> u64 {
        let mut h = crate::sig::FNV_OFFSET;
        let mut mix = |v: u64| h = crate::sig::fnv1a_word(h, v);
        for (pc, name, instance) in self.listing() {
            mix(pc as u64);
            mix(name.len() as u64);
            for b in name.bytes() {
                mix(b as u64);
            }
            mix(instance as u64);
        }
        mix(self.next as u64);
        h
    }

    /// Human-readable label for a static pc.
    ///
    /// PCs between registered sites (e.g. the extra HMMA steps of an
    /// `mma.m8n8k4`, or manually-padded unrolled tails) render relative to
    /// the closest preceding site: `mma[3]+2`.
    pub fn describe(&self, pc: u32) -> String {
        let mut best: Option<(u32, &'static str, u32)> = None;
        for (&(name, instance), &site) in &self.by_key {
            if site.0 <= pc && best.is_none_or(|(s, _, _)| site.0 > s) {
                best = Some((site.0, name, instance));
            }
        }
        match best {
            Some((s, name, instance)) if s == pc => format!("{name}[{instance}]"),
            Some((s, name, instance)) => format!("{name}[{instance}]+{}", pc - s),
            None => format!("pc{pc}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_are_stable_and_distinct() {
        let mut p = Program::new();
        let a0 = p.site("fma", 0);
        let a1 = p.site("fma", 1);
        let b0 = p.site("ldg", 0);
        assert_ne!(a0, a1);
        assert_ne!(a0, b0);
        assert_eq!(p.site("fma", 0), a0);
        assert_eq!(p.static_len(), 3);
    }

    #[test]
    fn spans_reserve_consecutive_pcs() {
        let mut p = Program::new();
        let m = p.site_span("mma", 0, 4);
        let after = p.site("addr", 0);
        assert_eq!(after.0, m.0 + 4);
        assert_eq!(p.describe(m.0 + 2), "mma[0]+2");
        assert_eq!(p.describe(after.0), "addr[0]");
        assert_eq!(p.site_span("mma", 0, 4), m);
        assert_eq!(p.static_len(), 5);
    }
}
