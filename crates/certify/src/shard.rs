//! The footprint certificate: strided-interval footprints per memory
//! region, three shard obligations, and the typed plan.

use vecsparse_gpu_sim::{
    capture, sector_of_byte, BufferId, KernelSpec, Launch, MemPool, ShardLayout, WarpTrace,
    SECTOR_BYTES,
};

use crate::fixtures::{Certificate, Expected, Fixture, Kind, Rows};

/// A contiguous byte range `[lo, hi)` of device memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// First byte.
    pub lo: u64,
    /// One past the last byte.
    pub hi: u64,
}

impl Span {
    /// Number of bytes covered.
    pub fn len(&self) -> u64 {
        self.hi - self.lo
    }

    /// True when the span covers nothing.
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }
}

/// Read or write footprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Global loads.
    Read,
    /// Global stores.
    Write,
}

/// A run of consecutive CTAs whose footprint in one region is a uniform
/// shift of its predecessor's: CTA `c` in `[cta_lo, cta_hi]` touches
/// `spans` shifted by `(c - cta_lo) * delta` bytes. This is the
/// "affine-in-CTA-index range expression" of the certificate — exact,
/// not an over-approximation: groups are grown greedily and an
/// irregular CTA simply starts a group of length one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AffineGroup {
    /// First CTA of the run.
    pub cta_lo: usize,
    /// Last CTA of the run (inclusive).
    pub cta_hi: usize,
    /// Byte shift per successive CTA.
    pub delta: i64,
    /// Footprint of `cta_lo`, as merged maximal spans.
    pub spans: Vec<Span>,
}

impl AffineGroup {
    /// True when `byte` is in the footprint of `cta` under this group.
    fn covers(&self, cta: usize, byte: u64) -> bool {
        if cta < self.cta_lo || cta > self.cta_hi {
            return false;
        }
        let shift = (cta - self.cta_lo) as i64 * self.delta;
        self.spans.iter().any(|s| {
            let lo = s.lo as i64 + shift;
            let hi = s.hi as i64 + shift;
            (byte as i64) >= lo && (byte as i64) < hi
        })
    }

    /// The group viewed as strided intervals, one per span.
    pub fn intervals(&self) -> impl Iterator<Item = StridedInterval> + '_ {
        let count = (self.cta_hi - self.cta_lo + 1) as u32;
        let stride = self.delta;
        self.spans.iter().map(move |s| StridedInterval {
            base: s.lo,
            stride,
            count,
            len: s.len(),
        })
    }
}

/// One element of the abstract domain: `count` copies of a `len`-byte
/// range, the `i`-th based at `base + i·stride`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StridedInterval {
    /// Byte address of the first copy.
    pub base: u64,
    /// Byte distance between consecutive copies (may be negative).
    pub stride: i64,
    /// Number of copies (one per CTA of the owning group).
    pub count: u32,
    /// Bytes per copy.
    pub len: u64,
}

/// The certified footprint of one (buffer, access-kind) region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionFootprint {
    /// Allocation index of the buffer ([`BufferId::index`]).
    pub buf: usize,
    /// Reads or writes.
    pub kind: AccessKind,
    /// Affine compression of the per-CTA footprints, ordered by CTA.
    pub groups: Vec<AffineGroup>,
}

/// Why a kernel could not be certified shardable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardFailure {
    /// The kernel publishes no [`ShardLayout`].
    NoLayout,
    /// The published layout is structurally malformed.
    BadLayout(String),
    /// A captured CTA read operand values — the footprint depends on
    /// data and the one-trace-per-CTA abstraction is unsound (the wave
    /// certificate's first obligation, re-checked here).
    ValueDependentTrace {
        /// CTA whose trace generation read values.
        cta_id: usize,
        /// Number of value reads observed.
        reads: u64,
    },
    /// Obligation 1 broken: two CTAs write a common byte.
    WriteOverlap {
        /// Lower-numbered CTA.
        cta_a: usize,
        /// Higher-numbered CTA.
        cta_b: usize,
        /// First overlapping byte address.
        byte: u64,
    },
    /// Obligation 2 broken: a CTA writes outside its declared row
    /// blocks' output slice.
    OutOfSliceWrite {
        /// Offending CTA.
        cta_id: usize,
        /// First out-of-slice byte address.
        byte: u64,
    },
    /// Obligation 3 broken: a CTA reads a byte some CTA writes, so the
    /// values it observes depend on how the grid is split.
    ReadWriteAlias {
        /// Reading CTA.
        cta_id: usize,
        /// First aliased byte address.
        byte: u64,
    },
    /// Not enough cut points to split the grid `wanted` ways (raised at
    /// plan time; the certificate itself remains shardable).
    UnsplittableGrid {
        /// Requested shard count.
        wanted: usize,
        /// Cut points actually available.
        cuts: usize,
    },
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardFailure::NoLayout => {
                write!(f, "kernel publishes no shard layout")
            }
            ShardFailure::BadLayout(why) => write!(f, "malformed shard layout: {why}"),
            ShardFailure::ValueDependentTrace { cta_id, reads } => write!(
                f,
                "value-dependent trace: CTA {cta_id} read {reads} operand value(s) \
                 during footprint extraction"
            ),
            ShardFailure::WriteOverlap { cta_a, cta_b, byte } => write!(
                f,
                "write overlap: CTAs {cta_a} and {cta_b} both write byte {byte:#x}"
            ),
            ShardFailure::OutOfSliceWrite { cta_id, byte } => write!(
                f,
                "out-of-slice write: CTA {cta_id} writes byte {byte:#x} outside its \
                 declared row blocks"
            ),
            ShardFailure::ReadWriteAlias { cta_id, byte } => write!(
                f,
                "read/write alias: CTA {cta_id} reads byte {byte:#x} that the launch writes"
            ),
            ShardFailure::UnsplittableGrid { wanted, cuts } => write!(
                f,
                "unsplittable grid: {wanted}-way split requested but only {cuts} cut \
                 point(s) exist"
            ),
        }
    }
}

/// Advisory finding attached to a [`ShardPlan`]: the plan stays sound,
/// but real hardware would pay for it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardLint {
    /// A shard boundary falls inside a 32-byte L2 sector, so two shards
    /// write the same sector and two devices would ping-pong its line.
    SectorFalseSharing {
        /// Row block whose slice start is the misaligned boundary.
        cut_row: u32,
        /// The boundary byte address.
        byte: u64,
    },
}

impl std::fmt::Display for ShardLint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardLint::SectorFalseSharing { cut_row, byte } => write!(
                f,
                "sector false sharing: shard boundary at row block {cut_row} \
                 (byte {byte:#x}) straddles a {SECTOR_BYTES}-byte L2 sector"
            ),
        }
    }
}

/// The outcome of footprint certification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardVerdict {
    /// All three obligations held over every CTA: row-split sharding is
    /// sound and [`FootprintCertificate::shard_plan`] will mint plans.
    Shardable,
    /// An obligation failed; no [`ShardPlan`] can ever be constructed.
    NotShardable(ShardFailure),
}

/// A static memory-footprint certificate for one staged kernel.
#[derive(Clone, Debug)]
pub struct FootprintCertificate {
    /// Kernel name.
    pub kernel: String,
    /// Grid size at certification time.
    pub grid: usize,
    /// Per-region affine footprints (every CTA traced, none sampled).
    pub regions: Vec<RegionFootprint>,
    /// The kernel's declared layout (absent exactly for
    /// [`ShardFailure::NoLayout`]/[`ShardFailure::BadLayout`]).
    pub layout: Option<ShardLayout>,
    /// Byte address of output element 0.
    pub out_base: u64,
    /// Bytes per output element.
    pub out_elem_bytes: u64,
    /// CTAs traced (the full grid for a decided verdict).
    pub ctas_traced: usize,
    /// The verdict.
    pub verdict: ShardVerdict,
}

/// One shard of a certified row split.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shard {
    /// CTAs this shard launches, ascending.
    pub ctas: Vec<usize>,
    /// Row blocks `[lo, hi)` the shard owns.
    pub rows: (u32, u32),
    /// Output elements `[lo, hi)` the shard's merge copies back.
    pub elems: (u32, u32),
}

/// A certified N-way row split. The only constructor is
/// [`FootprintCertificate::shard_plan`] — there is deliberately no way
/// to build one for a kernel whose verdict is
/// [`ShardVerdict::NotShardable`].
#[derive(Clone, Debug)]
pub struct ShardPlan {
    kernel: String,
    out: BufferId,
    shards: Vec<Shard>,
    lints: Vec<ShardLint>,
}

impl ShardPlan {
    /// Kernel the plan certifies.
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// The shards, in row order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Advisory lints recorded while choosing cut points.
    pub fn lints(&self) -> &[ShardLint] {
        &self.lints
    }
}

impl FootprintCertificate {
    /// True when every obligation held.
    pub fn is_shardable(&self) -> bool {
        matches!(self.verdict, ShardVerdict::Shardable)
    }

    /// True when `byte` lies in the certified footprint of `cta` for
    /// the given access kind — the soundness relation the tier-1
    /// proptest checks dynamic traces against.
    pub fn covers(&self, cta: usize, byte: u64, kind: AccessKind) -> bool {
        self.regions
            .iter()
            .filter(|r| r.kind == kind)
            .any(|r| r.groups.iter().any(|g| g.covers(cta, byte)))
    }

    /// One-line verdict for reports.
    pub fn summary(&self) -> String {
        match &self.verdict {
            ShardVerdict::Shardable => {
                let groups: usize = self.regions.iter().map(|r| r.groups.len()).sum();
                format!(
                    "shardable ({} CTAs, {} region(s) in {} affine group(s))",
                    self.ctas_traced,
                    self.regions.len(),
                    groups
                )
            }
            ShardVerdict::NotShardable(reason) => format!("NOT SHARDABLE: {reason}"),
        }
    }

    /// Multi-line rendering for `vsan shardprove`.
    pub fn render(&self) -> String {
        let mut out = format!("== shardprove {} (grid {})\n", self.kernel, self.grid);
        match &self.verdict {
            ShardVerdict::Shardable => {
                out.push_str(
                    "   verdict: SHARDABLE — write sets disjoint, slice-contained, \
                     reads launch-invariant\n",
                );
                for r in &self.regions {
                    let kind = match r.kind {
                        AccessKind::Read => "reads ",
                        AccessKind::Write => "writes",
                    };
                    let bytes: u64 = r
                        .groups
                        .first()
                        .map(|g| g.spans.iter().map(Span::len).sum())
                        .unwrap_or(0);
                    out.push_str(&format!(
                        "   buf {:>2} {kind}: {} affine group(s), {} byte(s)/CTA\n",
                        r.buf,
                        r.groups.len(),
                        bytes
                    ));
                }
            }
            ShardVerdict::NotShardable(reason) => {
                out.push_str(&format!(
                    "   verdict: NOT SHARDABLE — {reason}\n   \
                     (no shard plan can be constructed for this kernel)\n"
                ));
            }
        }
        out
    }

    /// Mint a certified `n`-way row-split plan.
    ///
    /// Cut points are row-block boundaries no CTA's declared range
    /// straddles, chosen nearest to an even element split; boundaries
    /// that are 32-byte sector-aligned are preferred within a 128-byte
    /// tolerance, and a forced unaligned cut records
    /// [`ShardLint::SectorFalseSharing`] on the plan. Zero shards, or
    /// more than the cut points allow, are refused with
    /// [`ShardFailure::UnsplittableGrid`].
    pub fn shard_plan(&self, n: usize) -> Result<ShardPlan, ShardFailure> {
        let layout = match (&self.verdict, &self.layout) {
            (ShardVerdict::NotShardable(reason), _) => return Err(reason.clone()),
            (ShardVerdict::Shardable, Some(layout)) => layout,
            // Shardable verdicts always carry the layout they were
            // checked against; treat absence as a malformed layout.
            (ShardVerdict::Shardable, None) => {
                return Err(ShardFailure::BadLayout("layout missing".to_string()))
            }
        };
        let rows = layout.rows;
        // Rows strictly inside some CTA's range cannot be cut.
        let mut cuttable = vec![true; rows + 1];
        for &(lo, hi) in &layout.cta_rows {
            for r in lo.saturating_add(1)..hi {
                cuttable[r as usize] = false;
            }
        }
        let candidates: Vec<u32> = (1..rows as u32).filter(|&r| cuttable[r as usize]).collect();
        if n == 0 || candidates.len() + 1 < n {
            return Err(ShardFailure::UnsplittableGrid {
                wanted: n,
                cuts: candidates.len(),
            });
        }

        let total = layout.row_starts[rows] as u64;
        let byte_of =
            |r: u32| self.out_base + layout.row_starts[r as usize] as u64 * self.out_elem_bytes;
        let mut cuts: Vec<u32> = Vec::new();
        let mut lints: Vec<ShardLint> = Vec::new();
        for i in 1..n {
            let target = total * i as u64 / n as u64;
            let floor = cuts.last().copied().unwrap_or(0);
            let dist = |r: u32| {
                (layout.row_starts[r as usize] as i64 - target as i64).unsigned_abs()
                    * self.out_elem_bytes
            };
            let open: Vec<u32> = candidates.iter().copied().filter(|&r| r > floor).collect();
            let nearest = match open.iter().copied().min_by_key(|&r| dist(r)) {
                Some(r) => r,
                None => {
                    return Err(ShardFailure::UnsplittableGrid {
                        wanted: n,
                        cuts: candidates.len(),
                    })
                }
            };
            let aligned = open
                .iter()
                .copied()
                .filter(|&r| sector_aligned(byte_of(r)))
                .min_by_key(|&r| dist(r));
            let cut = match aligned {
                Some(a) if dist(a) <= dist(nearest) + 128 => a,
                _ => {
                    lints.push(ShardLint::SectorFalseSharing {
                        cut_row: nearest,
                        byte: byte_of(nearest),
                    });
                    nearest
                }
            };
            cuts.push(cut);
        }

        let mut bounds: Vec<u32> = Vec::with_capacity(n + 1);
        bounds.push(0);
        bounds.extend(&cuts);
        bounds.push(rows as u32);
        let mut shards: Vec<Shard> = bounds
            .windows(2)
            .map(|w| Shard {
                ctas: Vec::new(),
                rows: (w[0], w[1]),
                elems: (
                    layout.row_starts[w[0] as usize],
                    layout.row_starts[w[1] as usize],
                ),
            })
            .collect();
        for (cta, &(lo, _)) in layout.cta_rows.iter().enumerate() {
            // The anchor row decides the shard; containment of the full
            // range follows because cuts straddle no CTA.
            let idx = shards
                .iter()
                .position(|s| lo >= s.rows.0 && lo < s.rows.1)
                .unwrap_or(n - 1);
            shards[idx].ctas.push(cta);
        }
        Ok(ShardPlan {
            kernel: self.kernel.clone(),
            out: layout.out,
            shards,
            lints,
        })
    }
}

/// Per-CTA byte spans for one buffer, keyed by allocation index.
#[derive(Default)]
struct CtaFoot {
    /// `(buf index, buf id, span)` — merged later.
    reads: Vec<(usize, Span)>,
    writes: Vec<(usize, Span)>,
}

/// Sort and merge raw spans into maximal disjoint spans per buffer.
fn merge(mut raw: Vec<(usize, Span)>) -> Vec<(usize, Span)> {
    raw.sort_unstable();
    let mut out: Vec<(usize, Span)> = Vec::with_capacity(raw.len());
    for (buf, s) in raw {
        if s.is_empty() {
            continue;
        }
        match out.last_mut() {
            Some((b, last)) if *b == buf && s.lo <= last.hi => last.hi = last.hi.max(s.hi),
            _ => out.push((buf, s)),
        }
    }
    out
}

/// Extract one CTA's footprint from its detailed traces, mirroring the
/// execution model's clamping: loads cover `max(1, min(epl, len - off))`
/// elements per lane (an out-of-bounds load still issues one sector),
/// stores cover the elements functionally written (`off + e < len`).
fn cta_footprint(mem: &MemPool, traces: &[WarpTrace]) -> CtaFoot {
    let mut foot = CtaFoot::default();
    for t in traces {
        for m in &t.mem {
            if !m.global {
                continue;
            }
            let Some(d) = &m.detail else { continue };
            let Some(buf) = d.buf else { continue };
            let len = mem.len(buf) as u32;
            let epl = d.epl;
            for &off in d.offsets.iter().filter(|&&o| o != u32::MAX) {
                let span_elems = if m.store {
                    epl.min(len.saturating_sub(off))
                } else {
                    epl.min(len.saturating_sub(off)).max(1)
                };
                if span_elems == 0 {
                    continue;
                }
                let lo = mem.addr(buf, off as usize);
                let span = Span {
                    lo,
                    hi: lo + span_elems as u64 * d.elem_bytes,
                };
                if m.store {
                    foot.writes.push((buf.index(), span));
                } else {
                    foot.reads.push((buf.index(), span));
                }
            }
        }
    }
    foot.reads = merge(foot.reads);
    foot.writes = merge(foot.writes);
    foot
}

/// Greedily compress per-CTA span lists for one region into affine
/// groups. Exact: a CTA joins the open group only when its spans are a
/// uniform shift of its predecessor's by the group's delta.
fn affine_groups(per_cta: &[Vec<Span>]) -> Vec<AffineGroup> {
    let mut groups: Vec<AffineGroup> = Vec::new();
    let mut open: Option<(AffineGroup, Vec<Span>)> = None; // (group, last CTA's spans)
    for (cta, spans) in per_cta.iter().enumerate() {
        if spans.is_empty() {
            if let Some((g, _)) = open.take() {
                groups.push(g);
            }
            continue;
        }
        if let Some((g, prev)) = &mut open {
            if g.cta_hi + 1 == cta && prev.len() == spans.len() {
                let d = spans[0].lo as i64 - prev[0].lo as i64;
                let uniform = prev
                    .iter()
                    .zip(spans)
                    .all(|(p, s)| s.lo as i64 - p.lo as i64 == d && s.len() == p.len());
                // A size-one group adopts the first observed shift.
                let compatible = uniform && (g.cta_hi == g.cta_lo || d == g.delta);
                if compatible {
                    g.delta = d;
                    g.cta_hi = cta;
                    *prev = spans.clone();
                    continue;
                }
            }
            let (g, _) = open.take().expect("open group");
            groups.push(g);
        }
        open = Some((
            AffineGroup {
                cta_lo: cta,
                cta_hi: cta,
                delta: 0,
                spans: spans.clone(),
            },
            spans.clone(),
        ));
    }
    if let Some((g, _)) = open {
        groups.push(g);
    }
    groups
}

/// Certify a staged kernel's memory footprint for row-split sharding.
///
/// `mem` is the pool the kernel was staged into (functionally: split-K
/// and other profiling-only grid inflations do not apply); it is only
/// read. Every CTA is captured with per-lane detail and must have read
/// no operand values; the per-region footprints are compressed into
/// affine-in-CTA-index groups, and the three shard obligations are
/// discharged in order. The first failure decides the
/// verdict; a clean pass yields [`ShardVerdict::Shardable`], from which
/// [`FootprintCertificate::shard_plan`] mints typed plans.
pub fn analyze<K: KernelSpec + ?Sized>(mem: &MemPool, kernel: &K) -> FootprintCertificate {
    let lc = kernel.launch_config();
    let mut cert = FootprintCertificate {
        kernel: kernel.name(),
        grid: lc.grid,
        regions: Vec::new(),
        layout: None,
        out_base: 0,
        out_elem_bytes: 0,
        ctas_traced: 0,
        verdict: ShardVerdict::Shardable,
    };
    let layout = match kernel.shard_layout() {
        Some(layout) => layout,
        None => {
            cert.verdict = ShardVerdict::NotShardable(ShardFailure::NoLayout);
            return cert;
        }
    };
    if let Err(why) = layout.validate(lc.grid) {
        cert.verdict = ShardVerdict::NotShardable(ShardFailure::BadLayout(why));
        return cert;
    }
    cert.out_base = mem.addr(layout.out, 0);
    cert.out_elem_bytes = mem.width(layout.out).bytes();

    let grid: Vec<usize> = (0..lc.grid).collect();
    let captured = capture(mem, kernel, &grid, true, |c| {
        (c.value_reads, cta_footprint(mem, &c.traces))
    });
    if let Some((cta_id, &(reads, _))) = captured.iter().enumerate().find(|(_, c)| c.0 > 0) {
        cert.verdict =
            ShardVerdict::NotShardable(ShardFailure::ValueDependentTrace { cta_id, reads });
        cert.layout = Some(layout);
        return cert;
    }
    let feet: Vec<CtaFoot> = captured.into_iter().map(|(_, foot)| foot).collect();
    cert.ctas_traced = lc.grid;

    // Obligation 1 — write/write disjointness across CTAs.
    let mut all_writes: Vec<(u64, u64, usize)> = feet
        .iter()
        .enumerate()
        .flat_map(|(cta, f)| f.writes.iter().map(move |&(_, s)| (s.lo, s.hi, cta)))
        .collect();
    all_writes.sort_unstable();
    // Sweep with a running frontier. Per-CTA spans are merged, so two
    // spans of the *same* CTA never overlap; any span starting before
    // the frontier therefore collides with a different CTA.
    let mut frontier: Option<(u64, usize)> = None; // (hi, owning cta)
    for &(lo, hi, cta) in &all_writes {
        if let Some((f_hi, f_cta)) = frontier {
            if lo < f_hi {
                cert.verdict = ShardVerdict::NotShardable(ShardFailure::WriteOverlap {
                    cta_a: f_cta.min(cta),
                    cta_b: f_cta.max(cta),
                    byte: lo,
                });
                cert.layout = Some(layout);
                return cert;
            }
        }
        if frontier.is_none_or(|(f_hi, _)| hi > f_hi) {
            frontier = Some((hi, cta));
        }
    }

    // Obligation 2 — writes contained in the declared row blocks' slice.
    for (cta, foot) in feet.iter().enumerate() {
        let (lo_row, hi_row) = layout.cta_rows[cta];
        let slice_lo =
            cert.out_base + layout.row_starts[lo_row as usize] as u64 * cert.out_elem_bytes;
        let slice_hi =
            cert.out_base + layout.row_starts[hi_row as usize] as u64 * cert.out_elem_bytes;
        for &(_, s) in &foot.writes {
            if s.lo < slice_lo || s.hi > slice_hi {
                let byte = if s.lo < slice_lo { s.lo } else { slice_hi };
                cert.verdict =
                    ShardVerdict::NotShardable(ShardFailure::OutOfSliceWrite { cta_id: cta, byte });
                cert.layout = Some(layout);
                return cert;
            }
        }
    }

    // Obligation 3 — reads never alias the launch's write set.
    let write_union: Vec<Span> = {
        let u: Vec<(usize, Span)> = feet
            .iter()
            .flat_map(|f| f.writes.iter().copied())
            .map(|(_, s)| (0, s))
            .collect();
        merge(u).into_iter().map(|(_, s)| s).collect()
    };
    for (cta, foot) in feet.iter().enumerate() {
        for &(_, r) in &foot.reads {
            // write_union is sorted; find the first span ending past r.lo.
            let i = write_union.partition_point(|w| w.hi <= r.lo);
            if let Some(w) = write_union.get(i) {
                if w.lo < r.hi {
                    cert.verdict = ShardVerdict::NotShardable(ShardFailure::ReadWriteAlias {
                        cta_id: cta,
                        byte: w.lo.max(r.lo),
                    });
                    cert.layout = Some(layout);
                    return cert;
                }
            }
        }
    }

    // Affine compression per (buffer, kind) region.
    let mut buf_ids: Vec<usize> = feet
        .iter()
        .flat_map(|f| f.reads.iter().chain(&f.writes).map(|&(b, _)| b))
        .collect();
    buf_ids.sort_unstable();
    buf_ids.dedup();
    for buf in buf_ids {
        for kind in [AccessKind::Read, AccessKind::Write] {
            let per_cta: Vec<Vec<Span>> = feet
                .iter()
                .map(|f| {
                    let list = match kind {
                        AccessKind::Read => &f.reads,
                        AccessKind::Write => &f.writes,
                    };
                    list.iter()
                        .filter(|&&(b, _)| b == buf)
                        .map(|&(_, s)| s)
                        .collect()
                })
                .collect();
            let groups = affine_groups(&per_cta);
            if !groups.is_empty() {
                cert.regions.push(RegionFootprint { buf, kind, groups });
            }
        }
    }
    cert.layout = Some(layout);
    cert
}

/// Run a certified row split as independent launches and merge the
/// slices — the multi-GPU execution shape, demonstrated on host clones.
///
/// Each shard launches its CTA subset against a clone of the staged
/// pool (its private device) and the shard's output slice is copied
/// back. Bit-identity with the unsharded reference follows from the
/// plan's obligations: writes are disjoint (1) and slice-contained (2),
/// so the slice copies commute, and reads observe staged values only
/// (3), so every clone computes what the reference computes.
pub fn launch_sharded<K: KernelSpec + ?Sized>(mem: &mut MemPool, kernel: &K, plan: &ShardPlan) {
    assert_eq!(
        kernel.name(),
        plan.kernel,
        "plan certifies a different kernel"
    );
    let staged = mem.clone();
    for shard in &plan.shards {
        if shard.ctas.is_empty() {
            continue;
        }
        let mut device = staged.clone();
        Launch::new(&mut device, kernel)
            .ctas(shard.ctas.clone())
            .run();
        let out = plan.out;
        let slice = &device.contents(out)[shard.elems.0 as usize..shard.elems.1 as usize];
        let writes: Vec<(u32, f32)> = slice
            .iter()
            .enumerate()
            .map(|(i, &v)| (shard.elems.0 + i as u32, v))
            .collect();
        mem.apply_writes(out, &writes);
    }
}

/// Every footprint fixture: the clean control, one kernel per fatal
/// obligation, and the advisory false-sharing case.
pub fn all_fixtures() -> Vec<Fixture> {
    use Expected::*;
    use Rows::*;
    Fixture::table(
        Certificate::Footprint,
        [
            ("clean-row-writer", Kind::RowWriter(Clean), Shardable),
            ("write-overlap", Kind::RowWriter(Overlap), WriteOverlap),
            (
                "out-of-slice-write",
                Kind::RowWriter(OutOfSlice),
                OutOfSliceWrite,
            ),
            (
                "sector-false-sharing",
                Kind::RowWriter(FalseSharing),
                SectorFalseSharing,
            ),
            ("data-dependent-gather", Kind::DataGather, ValueDependent),
        ],
    )
}

/// True when `byte` begins a 32-byte sector: classified through the
/// shared gpu-sim helper so the lint and the cache model agree.
pub fn sector_aligned(byte: u64) -> bool {
    byte == sector_of_byte(byte) * SECTOR_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_coalesces_touching_spans() {
        let spans = vec![
            (0, Span { lo: 64, hi: 96 }),
            (0, Span { lo: 0, hi: 32 }),
            (0, Span { lo: 32, hi: 64 }),
            (1, Span { lo: 96, hi: 128 }),
        ];
        let merged = merge(spans);
        assert_eq!(
            merged,
            vec![(0, Span { lo: 0, hi: 96 }), (1, Span { lo: 96, hi: 128 })]
        );
    }

    #[test]
    fn affine_groups_compress_uniform_shifts() {
        // CTAs 0..4 each touch 32 bytes, shifted by 32 per CTA; CTA 4
        // breaks the pattern.
        let per_cta: Vec<Vec<Span>> = (0..5u64)
            .map(|c| {
                let lo = if c < 4 { c * 32 } else { 1000 };
                vec![Span { lo, hi: lo + 32 }]
            })
            .collect();
        let groups = affine_groups(&per_cta);
        assert_eq!(groups.len(), 2);
        assert_eq!(
            (groups[0].cta_lo, groups[0].cta_hi, groups[0].delta),
            (0, 3, 32)
        );
        assert!(groups[0].covers(2, 64) && !groups[0].covers(2, 96));
        let ivs: Vec<StridedInterval> = groups[0].intervals().collect();
        assert_eq!(ivs[0].count, 4);
        assert_eq!(ivs[0].stride, 32);
    }

    #[test]
    fn sector_alignment_helper() {
        assert!(sector_aligned(0));
        assert!(sector_aligned(32));
        assert!(!sector_aligned(40));
    }
}
