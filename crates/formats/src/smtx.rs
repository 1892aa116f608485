//! The DLMC `.smtx` text format.
//!
//! The real Deep Learning Matrix Collection distributes each sparse
//! matrix as a text file:
//!
//! ```text
//! <nrows>, <ncols>, <nnz>
//! <nrows + 1 row pointers, space separated>
//! <nnz column indices, space separated>
//! ```
//!
//! This module parses and writes that format, so the synthetic suite in
//! `vecsparse-dlmc` can be swapped for the real dataset byte-for-byte:
//! load an `.smtx`, apply the paper's Fig. 16 construction
//! ([`to_vector_sparse`]) and feed the kernels.

use crate::{Csr, Scalar, SparsityPattern, VectorSparse};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::fmt::Write as _;

/// A parsed `.smtx` structure (indices only — DLMC ships no values).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Smtx {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Row pointers (`rows + 1` entries).
    pub row_ptr: Vec<usize>,
    /// Column indices (`nnz` entries).
    pub col_idx: Vec<u32>,
}

/// Parsing errors.
#[derive(Debug, PartialEq, Eq)]
pub enum SmtxError {
    /// The header line is missing or malformed.
    BadHeader,
    /// A numeric field failed to parse.
    BadNumber(String),
    /// Array lengths disagree with the header.
    LengthMismatch {
        /// What was being read.
        what: &'static str,
        /// Expected element count.
        expected: usize,
        /// Actual element count.
        actual: usize,
    },
    /// Row pointers are not monotone or indices are out of range.
    Inconsistent(&'static str),
    /// The Fig. 16 construction was asked for vectors of length zero.
    ZeroVectorLength,
    /// The Fig. 16 construction's scalar rows overflow `usize`, or its
    /// stored values exceed the address space.
    TooLarge {
        /// Which count overflowed.
        what: &'static str,
        /// The requested vector length.
        v: usize,
    },
}

impl std::fmt::Display for SmtxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmtxError::BadHeader => write!(f, "malformed .smtx header"),
            SmtxError::BadNumber(s) => write!(f, "unparseable number {s:?}"),
            SmtxError::LengthMismatch {
                what,
                expected,
                actual,
            } => write!(f, "{what}: expected {expected} entries, found {actual}"),
            SmtxError::Inconsistent(what) => write!(f, "inconsistent structure: {what}"),
            SmtxError::ZeroVectorLength => write!(f, "vector length must be positive"),
            SmtxError::TooLarge { what, v } => write!(f, "{what} overflow at vector length {v}"),
        }
    }
}

impl std::error::Error for SmtxError {}

impl Smtx {
    /// Parse from the text format.
    ///
    /// Hostile input gives an error, never a panic or an abort: header
    /// counts are checked before any arithmetic, preallocation never
    /// exceeds what the text can hold, and a column index above
    /// `u32::MAX` is a [`SmtxError::BadNumber`].
    ///
    /// # Errors
    /// Returns an [`SmtxError`] for malformed input.
    pub fn parse(text: &str) -> Result<Smtx, SmtxError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or(SmtxError::BadHeader)?;
        let fields: Vec<&str> = header
            .split([',', ' '])
            .filter(|s| !s.trim().is_empty())
            .collect();
        if fields.len() != 3 {
            return Err(SmtxError::BadHeader);
        }
        let bad = |s: &str| SmtxError::BadNumber(s.trim().to_string());
        let parse = |s: &str| -> Result<usize, SmtxError> { s.trim().parse().map_err(|_| bad(s)) };
        let rows = parse(fields[0])?;
        let cols = parse(fields[1])?;
        let nnz = parse(fields[2])?;
        let n_ptrs = rows.checked_add(1).ok_or_else(|| bad(fields[0]))?;
        // Every number takes a digit and a separator, so the text holds at
        // most this many: a header cannot make the parser reserve more.
        let room = text.len() / 2 + 1;

        // Remaining numbers may be split across any number of lines.
        let mut numbers = lines.flat_map(|l| l.split_whitespace());
        let mut row_ptr = Vec::with_capacity(n_ptrs.min(room));
        for _ in 0..n_ptrs {
            let tok = numbers.next().ok_or(SmtxError::LengthMismatch {
                what: "row pointers",
                expected: n_ptrs,
                actual: row_ptr.len(),
            })?;
            row_ptr.push(parse(tok)?);
        }
        let mut col_idx = Vec::with_capacity(nnz.min(room));
        for _ in 0..nnz {
            let tok = numbers.next().ok_or(SmtxError::LengthMismatch {
                what: "column indices",
                expected: nnz,
                actual: col_idx.len(),
            })?;
            col_idx.push(u32::try_from(parse(tok)?).map_err(|_| bad(tok))?);
        }

        let smtx = Smtx {
            rows,
            cols,
            row_ptr,
            col_idx,
        };
        smtx.check()?;
        Ok(smtx)
    }

    /// The structure invariants `parse` guarantees; the public fields can
    /// break them.
    fn check(&self) -> Result<(), SmtxError> {
        if self.rows.checked_add(1) != Some(self.row_ptr.len()) {
            return Err(SmtxError::LengthMismatch {
                what: "row pointers",
                expected: self.rows.saturating_add(1),
                actual: self.row_ptr.len(),
            });
        }
        if self.row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SmtxError::Inconsistent("row pointers not monotone"));
        }
        if self.row_ptr.last() != Some(&self.nnz()) {
            return Err(SmtxError::Inconsistent("last row pointer != nnz"));
        }
        if self.col_idx.iter().any(|&c| c as usize >= self.cols) {
            return Err(SmtxError::Inconsistent("column index out of range"));
        }
        Ok(())
    }

    /// Serialise to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}, {}, {}", self.rows, self.cols, self.col_idx.len());
        let mut first = true;
        for p in &self.row_ptr {
            if !first {
                out.push(' ');
            }
            let _ = write!(out, "{p}");
            first = false;
        }
        out.push('\n');
        first = true;
        for c in &self.col_idx {
            if !first {
                out.push(' ');
            }
            let _ = write!(out, "{c}");
            first = false;
        }
        out.push('\n');
        out
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Fraction of zero entries.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// Build a CSR matrix with random values (DLMC ships structure only).
    pub fn to_csr<T: Scalar>(&self, seed: u64) -> Csr<T> {
        let mut rng = StdRng::seed_from_u64(seed);
        let values = (0..self.nnz())
            .map(|_| T::from_f32(rng.gen_range(-16i32..=16) as f32 / 8.0))
            .collect();
        Csr::new(
            self.rows,
            self.cols,
            self.row_ptr.clone(),
            self.col_idx.clone(),
            values,
        )
    }

    /// The paper's Fig. 16 benchmark construction: reuse `csrRowPtr` and
    /// `csrColInd` as *vector* pointers/indices and attach a random
    /// nonzero V-vector to each indexed position. Rows are interpreted as
    /// block rows, so the resulting matrix has `rows × v` scalar rows.
    ///
    /// # Errors
    /// [`SmtxError::ZeroVectorLength`] for `v = 0`,
    /// [`SmtxError::TooLarge`] when `rows × v` or the `nnz × v` stored
    /// values do not fit in memory's address range, and the error `parse`
    /// would give when the public fields break the structure invariants.
    pub fn to_vector_sparse<T: Scalar>(
        &self,
        v: usize,
        seed: u64,
    ) -> Result<VectorSparse<T>, SmtxError> {
        if v == 0 {
            return Err(SmtxError::ZeroVectorLength);
        }
        self.check()?;
        let rows = self.rows.checked_mul(v).ok_or(SmtxError::TooLarge {
            what: "scalar rows",
            v,
        })?;
        let max_values = isize::MAX as usize / std::mem::size_of::<T>().max(1);
        let n_values = self
            .nnz()
            .checked_mul(v)
            .filter(|&n| n <= max_values)
            .ok_or(SmtxError::TooLarge {
                what: "stored values",
                v,
            })?;
        let pattern = SparsityPattern::new(
            rows,
            self.cols,
            v,
            self.row_ptr.clone(),
            self.col_idx.clone(),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let values = (0..n_values)
            .map(|_| T::from_f32(rng.gen_range(-16i32..=16) as f32 / 8.0))
            .collect();
        Ok(VectorSparse::new(pattern, values))
    }
}

/// Export a pattern's structure as `.smtx` (block rows become rows).
pub fn pattern_to_smtx(p: &SparsityPattern) -> Smtx {
    Smtx {
        rows: p.block_rows(),
        cols: p.cols(),
        row_ptr: p.row_ptr().to_vec(),
        col_idx: p.col_idx().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::Layout;
    use proptest::prelude::*;
    use vecsparse_fp16::f16;

    const SAMPLE: &str = "3, 8, 6\n0 3 4 6\n0 2 6 3 1 6\n";

    #[test]
    fn parses_the_fig8_structure() {
        let s = Smtx::parse(SAMPLE).unwrap();
        assert_eq!((s.rows, s.cols, s.nnz()), (3, 8, 6));
        assert_eq!(s.row_ptr, vec![0, 3, 4, 6]);
        assert_eq!(s.col_idx, vec![0, 2, 6, 3, 1, 6]);
    }

    #[test]
    fn roundtrips_through_text() {
        let s = Smtx::parse(SAMPLE).unwrap();
        let again = Smtx::parse(&s.to_text()).unwrap();
        assert_eq!(s, again);
    }

    #[test]
    fn accepts_multiline_arrays() {
        let wrapped = "3, 8, 6\n0 3\n4 6\n0 2 6\n3 1 6\n";
        assert_eq!(Smtx::parse(wrapped).unwrap(), Smtx::parse(SAMPLE).unwrap());
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(Smtx::parse(""), Err(SmtxError::BadHeader));
        assert_eq!(Smtx::parse("3, 8\n"), Err(SmtxError::BadHeader));
        assert!(matches!(
            Smtx::parse("3, 8, 6\n0 3 4\n"),
            Err(SmtxError::LengthMismatch { .. })
        ));
        assert!(matches!(
            Smtx::parse("1, 2, 1\n0 2\n0 5\n"),
            Err(SmtxError::Inconsistent(_)) | Err(SmtxError::LengthMismatch { .. })
        ));
        assert!(matches!(
            Smtx::parse("1, 8, 1\n0 1\n9\n"),
            Err(SmtxError::Inconsistent(_))
        ));
    }

    /// Inputs that once aborted the process, overflowed a count or
    /// truncated an index.
    #[test]
    fn hostile_headers_and_indices_are_errors() {
        // An nnz of 10^14 used to reserve 400 TB up front and abort.
        assert!(matches!(
            Smtx::parse("1, 1, 100000000000000\n0 100000000000000\n0\n"),
            Err(SmtxError::LengthMismatch {
                what: "column indices",
                actual: 1,
                ..
            })
        ));
        // rows + 1 overflowed.
        let max = usize::MAX.to_string();
        assert_eq!(
            Smtx::parse(&format!("{max}, 1, 0\n0\n")),
            Err(SmtxError::BadNumber(max))
        );
        // 2^32 used to wrap to column 0 and be accepted.
        assert_eq!(
            Smtx::parse("1, 4294967297, 1\n0 1\n4294967296\n"),
            Err(SmtxError::BadNumber("4294967296".into()))
        );
    }

    /// The loader refuses public fields that break the structure
    /// invariants instead of asserting in `SparsityPattern::new`.
    #[test]
    fn conversion_rejects_inconsistent_fields() {
        let s = Smtx::parse(SAMPLE).unwrap();
        let mut broken = s.clone();
        broken.row_ptr.pop();
        assert!(matches!(
            broken.to_vector_sparse::<f16>(4, 1),
            Err(SmtxError::LengthMismatch { .. })
        ));
        broken = s;
        broken.col_idx[0] = 8;
        assert_eq!(
            broken.to_vector_sparse::<f16>(4, 1),
            Err(SmtxError::Inconsistent("column index out of range"))
        );
    }

    /// A random valid structure with up to `max_rows` rows.
    fn random_smtx(rng: &mut StdRng, max_rows: usize) -> Smtx {
        let rows = rng.gen_range(0..=max_rows);
        let cols = rng.gen_range(0..12usize);
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        for _ in 0..rows {
            if cols > 0 {
                for _ in 0..rng.gen_range(0..4) {
                    col_idx.push(rng.gen_range(0..cols as u32));
                }
            }
            row_ptr.push(col_idx.len());
        }
        Smtx {
            rows,
            cols,
            row_ptr,
            col_idx,
        }
    }

    /// `text` with one random edit: a byte replaced, deleted or
    /// duplicated, or a hostile number spliced in.
    fn mutate(rng: &mut StdRng, text: &str) -> String {
        const BYTES: &[u8] = b"0123456789 ,\n-+x";
        const SPLICES: [&str; 5] = [
            "100000000000000",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "-1",
        ];
        let mut bytes = text.as_bytes().to_vec();
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0..4) {
            0 if at < bytes.len() => bytes[at] = BYTES[rng.gen_range(0..BYTES.len())],
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => {
                let end = rng.gen_range(at..=bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
            _ => {
                let splice = SPLICES[rng.gen_range(0..SPLICES.len())].bytes();
                bytes.splice(at..at, splice);
            }
        }
        String::from_utf8(bytes).expect("ASCII edits of ASCII text")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every prefix and random edits of a valid structure's text parse
        /// to an error or to a structure that re-parses to itself.
        #[test]
        fn truncated_and_mutated_text_never_panics(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let text = random_smtx(&mut rng, 6).to_text();
            let mut inputs: Vec<String> = (0..text.len()).map(|n| text[..n].to_string()).collect();
            inputs.extend((0..16).map(|_| mutate(&mut rng, &text)));
            for input in inputs {
                if let Ok(s) = Smtx::parse(&input) {
                    prop_assert_eq!(Smtx::parse(&s.to_text()), Ok(s.clone()), "from {:?}", input);
                    for v in [0, 1, 2, 4, 8, usize::MAX] {
                        let rows = s.rows.checked_mul(v);
                        let fits = s.nnz().checked_mul(v).is_some_and(|n| n <= isize::MAX as usize / 2);
                        match s.to_vector_sparse::<f16>(v, seed) {
                            Ok(m) => {
                                prop_assert!(v > 0 && fits);
                                prop_assert_eq!(Some(m.rows()), rows);
                                prop_assert_eq!(m.pattern().row_ptr(), &s.row_ptr[..]);
                                prop_assert_eq!(m.pattern().col_idx(), &s.col_idx[..]);
                            }
                            Err(SmtxError::ZeroVectorLength) => prop_assert_eq!(v, 0),
                            Err(SmtxError::TooLarge { v: got, .. }) => {
                                prop_assert_eq!(got, v);
                                prop_assert!(rows.is_none() || !fits);
                            }
                            Err(e) => prop_assert!(false, "{} at v = {} from {:?}", e, v, input),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fig16_construction_matches_paper() {
        let s = Smtx::parse(SAMPLE).unwrap();
        let m = s.to_vector_sparse::<f16>(4, 7).unwrap();
        // Same structure as the Fig. 8 worked example.
        assert_eq!(m.rows(), 12);
        assert_eq!(m.pattern().nnz_vectors(), 6);
        assert_eq!(m.pattern().col_idx(), &[0, 2, 6, 3, 1, 6]);
        // All vector values nonzero-capable and exactly representable.
        for &v in m.values() {
            assert_eq!(f16::from_f32(v.to_f32()), v);
        }
    }

    #[test]
    fn pattern_export_roundtrip() {
        let p = gen::random_pattern(64, 128, 4, 0.8, 9);
        let s = pattern_to_smtx(&p);
        let again = Smtx::parse(&s.to_text()).unwrap();
        let back = again.to_vector_sparse::<f16>(4, 10).unwrap();
        assert_eq!(back.pattern().row_ptr(), p.row_ptr());
        assert_eq!(back.pattern().col_idx(), p.col_idx());
    }

    #[test]
    fn csr_from_smtx_is_consistent() {
        let s = Smtx::parse(SAMPLE).unwrap();
        let c = s.to_csr::<f32>(11);
        assert_eq!(c.nnz(), 6);
        assert_eq!(c.to_dense(Layout::RowMajor).rows(), 3);
        assert!((s.sparsity() - c.sparsity()).abs() < 1e-12);
    }
}
