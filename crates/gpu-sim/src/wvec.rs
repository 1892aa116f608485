//! Warp-wide register values.

use crate::trace::Tok;
use crate::WARP_SIZE;

/// A warp-wide vector register: `elems_per_lane` values held by each of the
/// 32 lanes.
///
/// Values are stored in the f32 accumulation domain; half-precision
/// operands are rounded to the binary16 grid when they are loaded or
/// stored, so carrying them as `f32` in between is exact. In performance
/// mode the value storage is empty — only the producing-instruction token
/// is meaningful.
#[derive(Clone, Debug)]
pub struct WVec {
    elems_per_lane: usize,
    /// Lane-major storage: `data[lane * elems_per_lane + e]`. Empty in
    /// performance mode.
    data: Vec<f32>,
    /// Optional fp64 shadow twins (precision shadow execution). Empty
    /// unless a shadow-aware op materialised them with [`WVec::set_shadow`];
    /// values a kernel only ever loads need no explicit shadow because the
    /// working f32 *is* the exact value (operands live on the binary16
    /// grid), so [`WVec::get_shadow`] widens on the fly.
    shadow: Vec<f64>,
    /// Token of the instruction that produced this value (for dependency
    /// tracking). Values combined from several instructions carry the
    /// token of the last one; kernels pass extra tokens explicitly where
    /// that matters.
    tok: Tok,
}

impl WVec {
    /// A zero-initialised warp vector with values present.
    pub fn zeros(elems_per_lane: usize) -> WVec {
        WVec {
            elems_per_lane,
            data: vec![0.0; WARP_SIZE * elems_per_lane],
            shadow: Vec::new(),
            tok: Tok::NONE,
        }
    }

    /// A value-less warp vector (performance mode).
    pub fn ghost(elems_per_lane: usize, tok: Tok) -> WVec {
        WVec {
            elems_per_lane,
            data: Vec::new(),
            shadow: Vec::new(),
            tok,
        }
    }

    /// Construct from lane-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != 32 * elems_per_lane`.
    pub fn from_data(elems_per_lane: usize, data: Vec<f32>, tok: Tok) -> WVec {
        assert_eq!(data.len(), WARP_SIZE * elems_per_lane);
        WVec {
            elems_per_lane,
            data,
            shadow: Vec::new(),
            tok,
        }
    }

    /// Elements held by each lane.
    #[inline]
    pub fn elems_per_lane(&self) -> usize {
        self.elems_per_lane
    }

    /// True when values are absent (performance mode).
    #[inline]
    pub fn is_ghost(&self) -> bool {
        self.data.is_empty()
    }

    /// Producing-instruction token.
    #[inline]
    pub fn tok(&self) -> Tok {
        self.tok
    }

    /// Update the producing token (used when an op rewrites in place).
    #[inline]
    pub fn set_tok(&mut self, tok: Tok) {
        self.tok = tok;
    }

    /// Value `e` of `lane`; zero for ghosts.
    #[inline]
    pub fn get(&self, lane: usize, e: usize) -> f32 {
        debug_assert!(lane < WARP_SIZE && e < self.elems_per_lane);
        if self.data.is_empty() {
            0.0
        } else {
            self.data[lane * self.elems_per_lane + e]
        }
    }

    /// Set value `e` of `lane`; no-op for ghosts.
    #[inline]
    pub fn set(&mut self, lane: usize, e: usize, v: f32) {
        debug_assert!(lane < WARP_SIZE && e < self.elems_per_lane);
        if !self.data.is_empty() {
            self.data[lane * self.elems_per_lane + e] = v;
        }
    }

    /// True when this vector carries explicit fp64 shadow values.
    #[inline]
    pub fn has_shadow(&self) -> bool {
        !self.shadow.is_empty()
    }

    /// fp64 shadow twin of value `e` of `lane`. When no explicit shadow
    /// was materialised the working f32 is widened — exact for every value
    /// that was merely loaded, since loads deliver binary16-grid values.
    #[inline]
    pub fn get_shadow(&self, lane: usize, e: usize) -> f64 {
        debug_assert!(lane < WARP_SIZE && e < self.elems_per_lane);
        if self.shadow.is_empty() {
            f64::from(self.get(lane, e))
        } else {
            self.shadow[lane * self.elems_per_lane + e]
        }
    }

    /// Set the fp64 shadow twin of value `e` of `lane`; no-op for ghosts.
    /// The first write materialises the shadow storage, seeding every twin
    /// from the current f32 data so untouched elements stay consistent.
    #[inline]
    pub fn set_shadow(&mut self, lane: usize, e: usize, v: f64) {
        debug_assert!(lane < WARP_SIZE && e < self.elems_per_lane);
        if self.data.is_empty() {
            return;
        }
        if self.shadow.is_empty() {
            self.shadow = self.data.iter().map(|&x| f64::from(x)).collect();
        }
        self.shadow[lane * self.elems_per_lane + e] = v;
    }

    /// The values of one lane (empty slice for ghosts).
    #[inline]
    pub fn lane(&self, lane: usize) -> &[f32] {
        if self.data.is_empty() {
            &[]
        } else {
            &self.data[lane * self.elems_per_lane..(lane + 1) * self.elems_per_lane]
        }
    }

    /// Raw lane-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Raw lane-major data, mutable (empty for ghosts).
    #[inline]
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut v = WVec::zeros(4);
        v.set(31, 3, 2.5);
        assert_eq!(v.get(31, 3), 2.5);
        assert_eq!(v.get(0, 0), 0.0);
        assert_eq!(v.lane(31), &[0.0, 0.0, 0.0, 2.5]);
    }

    #[test]
    fn ghost_ignores_writes() {
        let mut v = WVec::ghost(2, Tok::NONE);
        assert!(v.is_ghost());
        v.set(0, 0, 1.0);
        assert_eq!(v.get(0, 0), 0.0);
        assert_eq!(v.lane(5), &[] as &[f32]);
    }

    #[test]
    fn shadow_defaults_to_widened_f32_and_materialises_lazily() {
        let mut v = WVec::zeros(2);
        v.set(1, 0, 0.5);
        assert!(!v.has_shadow());
        assert_eq!(v.get_shadow(1, 0), 0.5);
        // First shadow write seeds all twins from the f32 data.
        v.set_shadow(1, 1, 1.0 + 1e-12);
        assert!(v.has_shadow());
        assert_eq!(v.get_shadow(1, 0), 0.5);
        assert_eq!(v.get_shadow(1, 1), 1.0 + 1e-12);
    }

    #[test]
    fn ghost_never_carries_shadow() {
        let mut v = WVec::ghost(2, Tok::NONE);
        v.set_shadow(0, 0, 3.0);
        assert!(!v.has_shadow());
        assert_eq!(v.get_shadow(0, 0), 0.0);
    }
}
