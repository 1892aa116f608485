//! Deliberately broken (and deliberately clean) miniature kernels, one
//! per certificate failure, so CI can pin each [`ProofFailure`] and
//! [`ShardFailure`]/[`ShardLint`] to the exact kernel pattern that must
//! trigger it — and assert that failing kernels are never handed a
//! memoization signature or a [`ShardPlan`](crate::ShardPlan).
//!
//! [`wave::all_fixtures`](crate::wave::all_fixtures) and
//! [`shard::all_fixtures`](crate::shard::all_fixtures) list which
//! fixtures each certificate must verify.
//!
//! [`ProofFailure`]: crate::ProofFailure

use std::sync::atomic::{AtomicU64, Ordering};

use crate::shard::{analyze, launch_sharded, ShardFailure, ShardLint, ShardVerdict};
use crate::wave::{certify, ProofFailure, WaveVerdict};
use vecsparse_gpu_sim::sig::Fingerprint;
use vecsparse_gpu_sim::{
    BufferId, CtaCtx, ElemWidth, InstrKind, KernelSpec, Launch, LaunchConfig, MemPool, Program,
    ShardLayout, Site, WVec, NO_LANES,
};

const LANES: usize = 32;

/// Launch shape of every fixture kernel: one warp per CTA, no shared
/// memory.
fn one_warp(grid: usize, static_instrs: u32) -> LaunchConfig {
    LaunchConfig {
        grid,
        warps_per_cta: 1,
        regs_per_thread: 32,
        smem_elems: 0,
        smem_elem_bytes: 4,
        static_instrs,
    }
}

/// Lane `l` addresses element `cta_id * 32 + l`: one 32-element row per
/// CTA.
fn row_offsets(cta_id: usize) -> [u32; LANES] {
    let mut offs = NO_LANES;
    for (l, o) in offs.iter_mut().enumerate() {
        *o = (cta_id * LANES + l) as u32;
    }
    offs
}

/// A streaming kernel: CTA `c` loads, scales and stores row `c`. The
/// clean variant is the positive control — wave certification must
/// succeed. The drifting variant carries hidden interior-mutable state:
/// every `run_cta` call shifts its addresses by a live counter, so two
/// captures of the same CTA differ and wave certification must fail
/// with [`ProofFailure::NonReproducibleTrace`].
struct StreamKernel {
    input: BufferId,
    output: BufferId,
    grid: usize,
    /// The drifting variant's `run_cta` call counter.
    calls: Option<AtomicU64>,
    sites: (Site, Site, Site),
    static_len: u32,
}

impl StreamKernel {
    fn stage(mem: &mut MemPool, grid: usize, drifting: bool) -> Self {
        // Twice the rows, so drifted addresses stay distinct for 16 calls.
        let input = mem.alloc_ghost(ElemWidth::B32, 2 * grid * LANES);
        let output = mem.alloc_ghost(ElemWidth::B32, 2 * grid * LANES);
        let mut p = Program::new();
        let sites = (p.site("ldg", 0), p.site("fma", 0), p.site("stg", 0));
        StreamKernel {
            input,
            output,
            grid,
            calls: drifting.then(|| AtomicU64::new(0)),
            sites,
            static_len: p.static_len(),
        }
    }
}

impl KernelSpec for StreamKernel {
    fn name(&self) -> String {
        "fixture-stream".into()
    }

    fn launch_config(&self) -> LaunchConfig {
        one_warp(self.grid, self.static_len)
    }

    fn run_cta(&self, cta: &mut CtaCtx<'_>) {
        let drift = self
            .calls
            .as_ref()
            .map_or(0, |c| c.fetch_add(1, Ordering::Relaxed) as usize);
        let row = (cta.cta_id + drift) % (2 * self.grid);
        let offs = row_offsets(row);
        let mut w = cta.warp(0);
        let v = w.ldg(self.sites.0, self.input, &offs, 1, &[]);
        let t = w.math(self.sites.1, InstrKind::Ffma, 1, &[v.tok()]);
        let mut out = WVec::zeros(1);
        out.set_tok(t);
        w.stg(self.sites.2, self.output, &offs, &out, &[t]);
    }
}

/// A gather whose load offsets come from operand *values*: classic
/// data-dependent addressing. Capturing it reads the pool, so both
/// certificates must refuse it as a value-dependent trace — the
/// footprint certificate despite the clean row layout it declares.
struct DataGatherKernel {
    indices: BufferId,
    data: BufferId,
    output: BufferId,
    grid: usize,
    sites: (Site, Site),
    static_len: u32,
}

impl DataGatherKernel {
    fn stage(mem: &mut MemPool, grid: usize) -> Self {
        // The indirection table needs real values — that is the point.
        let idx: Vec<f32> = (0..grid * LANES).map(|i| ((i * 7) % 64) as f32).collect();
        let indices = mem.alloc_init(ElemWidth::B32, idx);
        let data = mem.alloc_ghost(ElemWidth::B32, 64);
        let output = mem.alloc_ghost(ElemWidth::B32, grid * LANES);
        let mut p = Program::new();
        let sites = (p.site("ldg", 0), p.site("stg", 0));
        DataGatherKernel {
            indices,
            data,
            output,
            grid,
            sites,
            static_len: p.static_len(),
        }
    }
}

impl KernelSpec for DataGatherKernel {
    fn name(&self) -> String {
        "fixture-data-gather".into()
    }

    fn launch_config(&self) -> LaunchConfig {
        one_warp(self.grid, self.static_len)
    }

    fn run_cta(&self, cta: &mut CtaCtx<'_>) {
        let cta_id = cta.cta_id;
        let mut w = cta.warp(0);
        // Address computation reads the indirection table's *values* in
        // both modes — the host-side structural shortcut the shipped
        // kernels use (row pointers kept on the host) is deliberately
        // not taken here.
        let mut offs = NO_LANES;
        for (l, o) in offs.iter_mut().enumerate() {
            *o = w.read(self.indices, cta_id * LANES + l) as u32;
        }
        let v = w.ldg(self.sites.0, self.data, &offs, 1, &[]);
        let mut out = WVec::zeros(1);
        out.set_tok(v.tok());
        w.stg(
            self.sites.1,
            self.output,
            &row_offsets(cta_id),
            &out,
            &[v.tok()],
        );
    }

    /// Each CTA stores its own 32-element row.
    fn shard_layout(&self) -> Option<ShardLayout> {
        Some(ShardLayout {
            out: self.output,
            rows: self.grid,
            row_starts: (0..=self.grid).map(|r| (r * LANES) as u32).collect(),
            cta_rows: (0..self.grid as u32).map(|r| (r, r + 1)).collect(),
        })
    }
}

/// A parameterizable row writer: each CTA stores the element ranges it
/// is told to, with value `elem + 1` so merges are observable. Every
/// footprint fixture but the gather is an instance with a different
/// (layout, write set) pair.
struct RowWriterKernel {
    name: &'static str,
    out: BufferId,
    layout: ShardLayout,
    /// Per CTA: `(start element, count)` store ranges.
    writes: Vec<Vec<(u32, u32)>>,
    stg: Site,
    static_len: u32,
}

impl RowWriterKernel {
    fn stage(
        mem: &mut MemPool,
        name: &'static str,
        row_starts: Vec<u32>,
        cta_rows: Vec<(u32, u32)>,
        writes: Vec<Vec<(u32, u32)>>,
    ) -> Self {
        let rows = row_starts.len() - 1;
        let out = mem.alloc_zeroed(ElemWidth::B32, row_starts[rows] as usize);
        let mut p = Program::new();
        let stg = p.site("stg", 0);
        RowWriterKernel {
            name,
            out,
            layout: ShardLayout {
                out,
                rows,
                row_starts,
                cta_rows,
            },
            writes,
            stg,
            static_len: p.static_len(),
        }
    }
}

impl KernelSpec for RowWriterKernel {
    fn name(&self) -> String {
        self.name.into()
    }

    fn launch_config(&self) -> LaunchConfig {
        one_warp(self.writes.len(), self.static_len)
    }

    fn run_cta(&self, cta: &mut CtaCtx<'_>) {
        let cta_id = cta.cta_id;
        let mut w = cta.warp(0);
        for &(start, count) in &self.writes[cta_id] {
            let mut done = 0;
            while done < count {
                let chunk = (count - done).min(32);
                let mut offs = NO_LANES;
                let mut vals = WVec::zeros(1);
                for (l, off) in offs.iter_mut().enumerate().take(chunk as usize) {
                    let elem = start + done + l as u32;
                    *off = elem;
                    vals.set(l, 0, (elem + 1) as f32);
                }
                w.stg(self.stg, self.out, &offs, &vals, &[]);
                done += chunk;
            }
        }
    }

    fn shard_layout(&self) -> Option<ShardLayout> {
        Some(self.layout.clone())
    }
}

/// The row-writer instances, one per footprint verdict or lint (see
/// [`row_writer`]).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Rows {
    Clean,
    Overlap,
    OutOfSlice,
    FalseSharing,
}

fn row_writer(mem: &mut MemPool, rows: Rows) -> RowWriterKernel {
    match rows {
        // Four 64-element rows (256-byte slices, every cut aligned);
        // CTA r writes exactly row r.
        Rows::Clean => RowWriterKernel::stage(
            mem,
            "fixture-clean-row-writer",
            vec![0, 64, 128, 192, 256],
            (0..4).map(|r| (r, r + 1)).collect(),
            (0..4u32).map(|r| vec![(r * 64, 64)]).collect(),
        ),
        // Two CTAs column-split the same declared row, but their write
        // ranges intersect on elements 16..32.
        Rows::Overlap => RowWriterKernel::stage(
            mem,
            "fixture-write-overlap",
            vec![0, 64],
            vec![(0, 1), (0, 1)],
            vec![vec![(0, 32)], vec![(16, 32)]],
        ),
        // CTA 0 owns row 0 (elements 0..64) but also writes element 64
        // — the first element of row 1. CTA 1 writes a disjoint part of
        // row 1, so only the containment obligation trips.
        Rows::OutOfSlice => RowWriterKernel::stage(
            mem,
            "fixture-out-of-slice-write",
            vec![0, 64, 128],
            vec![(0, 1), (1, 2)],
            vec![vec![(0, 32), (32, 32), (64, 1)], vec![(96, 32)]],
        ),
        // Four 10-element f32 rows: 40-byte slices, so every interior
        // row boundary (40, 80, 120 bytes) straddles a 32-byte sector.
        // Writes are disjoint and contained — the kernel is shardable,
        // but any 2-way plan must record the false-sharing lint.
        Rows::FalseSharing => RowWriterKernel::stage(
            mem,
            "fixture-sector-false-sharing",
            vec![0, 10, 20, 30, 40],
            (0..4).map(|r| (r, r + 1)).collect(),
            (0..4u32).map(|r| vec![(r * 10, 10)]).collect(),
        ),
    }
}

/// Which fixture kernel to stage.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Kind {
    Stream,
    DataGather,
    Drifting,
    RowWriter(Rows),
}

/// What a fixture's certification (and plan construction) must produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Expected {
    Provable,
    ValueDependent,
    NonReproducible,
    Shardable,
    WriteOverlap,
    OutOfSliceWrite,
    SectorFalseSharing,
}

/// The certificate a fixture exercises.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Certificate {
    Wave,
    Footprint,
}

/// One certificate fixture: a miniature kernel plus the verdict (or
/// lint) its certification must reach.
pub struct Fixture {
    name: &'static str,
    kind: Kind,
    expected: Expected,
    certificate: Certificate,
}

impl Fixture {
    /// One `certificate` fixture per `(name, kind, expected)` row.
    pub(crate) fn table<const N: usize>(
        certificate: Certificate,
        rows: [(&'static str, Kind, Expected); N],
    ) -> Vec<Fixture> {
        rows.into_iter()
            .map(|(name, kind, expected)| Fixture {
                name,
                kind,
                expected,
                certificate,
            })
            .collect()
    }

    /// Fixture name for reports.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Human-readable expected outcome.
    pub fn expected_verdict(&self) -> &'static str {
        match self.expected {
            Expected::Provable => "provable",
            Expected::ValueDependent => "value-dependent-trace",
            Expected::NonReproducible => "non-reproducible-trace",
            Expected::Shardable => "shardable",
            Expected::WriteOverlap => "write-overlap",
            Expected::OutOfSliceWrite => "out-of-slice-write",
            Expected::SectorFalseSharing => "sector-false-sharing",
        }
    }

    /// Stage the fixture kernel into a fresh pool, certify it, and check
    /// the verdict — including that failing kernels receive neither a
    /// memoization signature nor a shard plan, and that certified plans
    /// merge bit-identically.
    pub fn verify(&self) -> Result<(), String> {
        let mut mem = MemPool::new();
        let grid = 8;
        let kernel: Box<dyn KernelSpec> = match self.kind {
            Kind::Stream => Box::new(StreamKernel::stage(&mut mem, grid, false)),
            Kind::Drifting => Box::new(StreamKernel::stage(&mut mem, grid, true)),
            Kind::DataGather => Box::new(DataGatherKernel::stage(&mut mem, grid)),
            Kind::RowWriter(rows) => Box::new(row_writer(&mut mem, rows)),
        };
        match self.certificate {
            Certificate::Wave => self.verify_wave(&mem, kernel.as_ref()),
            Certificate::Footprint => self.verify_footprint(&mem, kernel.as_ref()),
        }
    }

    fn verify_wave(&self, mem: &MemPool, kernel: &dyn KernelSpec) -> Result<(), String> {
        let cert = certify(mem, kernel);
        let sig = cert.launch_sig(Fingerprint::default());
        match (self.expected, &cert.verdict) {
            (Expected::Provable, WaveVerdict::Provable) => match sig {
                Some(_) => Ok(()),
                None => Err("provable fixture produced no launch signature".into()),
            },
            (
                Expected::ValueDependent,
                WaveVerdict::NotProvable(ProofFailure::ValueDependentTrace { .. }),
            )
            | (
                Expected::NonReproducible,
                WaveVerdict::NotProvable(ProofFailure::NonReproducibleTrace { .. }),
            ) => match sig {
                Some(_) => Err(format!(
                    "unprovable fixture {} was handed a launch signature",
                    self.name
                )),
                None => Ok(()),
            },
            (_, verdict) => Err(format!(
                "expected {}, got {verdict:?}",
                self.expected_verdict()
            )),
        }
    }

    fn verify_footprint(&self, mem: &MemPool, kernel: &dyn KernelSpec) -> Result<(), String> {
        let cert = analyze(mem, kernel);
        match (self.expected, &cert.verdict) {
            (Expected::Shardable | Expected::SectorFalseSharing, ShardVerdict::Shardable) => {
                let plan = cert
                    .shard_plan(2)
                    .map_err(|e| format!("shardable fixture refused a plan: {e}"))?;
                let wants_lint = self.expected == Expected::SectorFalseSharing;
                let has_lint = plan
                    .lints()
                    .iter()
                    .any(|l| matches!(l, ShardLint::SectorFalseSharing { .. }));
                if wants_lint != has_lint {
                    return Err(format!(
                        "expected sector-false-sharing lint = {wants_lint}, lints: {:?}",
                        plan.lints()
                    ));
                }
                // The certified split must merge bit-identically.
                let out = cert.layout.as_ref().expect("shardable has layout").out;
                let mut reference = mem.clone();
                Launch::new(&mut reference, kernel).run();
                let mut sharded = mem.clone();
                launch_sharded(&mut sharded, kernel, &plan);
                if reference.bits(out) != sharded.bits(out) {
                    return Err("sharded merge diverged from unsharded reference".into());
                }
                Ok(())
            }
            (
                Expected::WriteOverlap,
                ShardVerdict::NotShardable(ShardFailure::WriteOverlap { .. }),
            )
            | (
                Expected::OutOfSliceWrite,
                ShardVerdict::NotShardable(ShardFailure::OutOfSliceWrite { .. }),
            )
            | (
                Expected::ValueDependent,
                ShardVerdict::NotShardable(ShardFailure::ValueDependentTrace { .. }),
            ) => match cert.shard_plan(2) {
                Ok(_) => Err(format!(
                    "not-shardable fixture {} was handed a shard plan",
                    self.name
                )),
                Err(_) => Ok(()),
            },
            (_, verdict) => Err(format!(
                "expected {}, got {verdict:?}",
                self.expected_verdict()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::AccessKind;

    #[test]
    fn every_fixture_verifies() {
        for fx in crate::wave::all_fixtures()
            .into_iter()
            .chain(crate::shard::all_fixtures())
        {
            fx.verify().unwrap_or_else(|e| panic!("{}: {e}", fx.name()));
        }
    }

    #[test]
    fn certification_is_deterministic() {
        let mut mem = MemPool::new();
        let k = StreamKernel::stage(&mut mem, 16, false);
        let a = certify(&mem, &k);
        let b = certify(&mem, &k);
        assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
        assert_eq!(a.program_hash, b.program_hash);
        assert_eq!(a.verdict, b.verdict);
    }

    #[test]
    fn pool_layout_changes_the_fingerprint() {
        let mut m1 = MemPool::new();
        let k1 = StreamKernel::stage(&mut m1, 8, false);
        let mut m2 = MemPool::new();
        // A padding allocation shifts every later base address.
        m2.alloc_ghost(ElemWidth::B32, 1024);
        let k2 = StreamKernel::stage(&mut m2, 8, false);
        let c1 = certify(&m1, &k1);
        let c2 = certify(&m2, &k2);
        assert!(c1.is_provable() && c2.is_provable());
        assert_ne!(
            c1.trace_fingerprint, c2.trace_fingerprint,
            "sector streams moved, fingerprint must move with them"
        );
    }

    #[test]
    fn grid_size_splits_shape_classes() {
        let mut mem = MemPool::new();
        let k = StreamKernel::stage(&mut mem, 8, false);
        let cert = certify(&mem, &k);
        assert!(cert.is_provable());
        // Every CTA issues the same instruction shape.
        assert_eq!(cert.cta_classes, 1);
        assert!(cert.ctas_checked >= 2);
        assert!(cert.instrs_checked > 0);
    }

    #[test]
    fn clean_fixture_certificate_is_affine_and_covering() {
        let mut mem = MemPool::new();
        let kernel = row_writer(&mut mem, Rows::Clean);
        let cert = analyze(&mem, &kernel);
        assert!(cert.is_shardable());
        // Four uniform CTAs compress into one affine write group.
        let writes: Vec<_> = cert
            .regions
            .iter()
            .filter(|r| r.kind == AccessKind::Write)
            .collect();
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].groups.len(), 1);
        assert_eq!(writes[0].groups[0].delta, 256);
        // covers() agrees with the kernel's actual stores.
        let base = mem.addr(kernel.out, 0);
        assert!(cert.covers(1, base + 64 * 4, AccessKind::Write));
        assert!(!cert.covers(0, base + 64 * 4, AccessKind::Write));
        assert!(!cert.covers(1, base + 64 * 4, AccessKind::Read));
    }

    #[test]
    fn four_way_split_of_clean_fixture_is_exact() {
        let mut mem = MemPool::new();
        let kernel = row_writer(&mut mem, Rows::Clean);
        let cert = analyze(&mem, &kernel);
        let plan = cert.shard_plan(4).expect("4-way plan");
        assert_eq!(plan.shards().len(), 4);
        assert!(plan.lints().is_empty());
        let mut reference = mem.clone();
        Launch::new(&mut reference, &kernel).run();
        launch_sharded(&mut mem, &kernel, &plan);
        assert_eq!(reference.bits(kernel.out), mem.bits(kernel.out));
    }

    #[test]
    fn oversplit_grid_is_refused() {
        let mut mem = MemPool::new();
        let kernel = row_writer(&mut mem, Rows::Clean);
        let cert = analyze(&mem, &kernel);
        for n in [0, 5] {
            assert_eq!(
                cert.shard_plan(n).map(|_| ()),
                Err(ShardFailure::UnsplittableGrid { wanted: n, cuts: 3 })
            );
        }
    }

    #[test]
    fn layoutless_kernel_is_not_shardable() {
        // A kernel that never implements shard_layout(): the default
        // None must yield NoLayout and no plan.
        struct Opaque;
        impl KernelSpec for Opaque {
            fn name(&self) -> String {
                "fixture-opaque".into()
            }
            fn launch_config(&self) -> LaunchConfig {
                one_warp(1, 1)
            }
            fn run_cta(&self, _cta: &mut CtaCtx<'_>) {}
        }
        let mem = MemPool::new();
        let cert = analyze(&mem, &Opaque);
        assert_eq!(
            cert.verdict,
            ShardVerdict::NotShardable(ShardFailure::NoLayout)
        );
        assert!(cert.shard_plan(2).is_err());
    }
}
