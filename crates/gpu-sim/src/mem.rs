//! Global-memory buffer pool.
//!
//! Buffers live at realistic (256-byte aligned) virtual addresses so the
//! coalescer and cache models see the same sector layout a real kernel
//! would. Each buffer stores its values at its declared element width: a
//! B16 buffer holds binary16 ([`f16`]) and a B32 buffer `f32`, so a
//! materialised buffer takes exactly its device bytes on the host. The
//! simulator computes in the f32 accumulation domain: [`MemPool::read`]
//! widens exactly, and [`MemPool::write`] narrows a value that must
//! already lie on the buffer's grid (debug builds assert it).

use std::any::{type_name, Any};
use vecsparse_fp16::f16;

/// Element width of a buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElemWidth {
    /// 16-bit (half precision).
    B16,
    /// 32-bit (single precision or 32-bit indices).
    B32,
}

impl ElemWidth {
    /// Bytes per element.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            ElemWidth::B16 => 2,
            ElemWidth::B32 => 4,
        }
    }

    /// Bits per element.
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            ElemWidth::B16 => 16,
            ElemWidth::B32 => 32,
        }
    }
}

/// Handle to a buffer in the [`MemPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufferId(usize);

impl BufferId {
    /// Allocation index within the pool (stable, in allocation order) —
    /// lets diagnostics name a buffer.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A buffer's functional values at its declared width. Empty for ghost
/// (perf-only) buffers.
#[derive(Clone)]
enum Values {
    B16(Vec<f16>),
    B32(Vec<f32>),
}

impl Values {
    fn empty(width: ElemWidth) -> Values {
        match width {
            ElemWidth::B16 => Values::B16(Vec::new()),
            ElemWidth::B32 => Values::B32(Vec::new()),
        }
    }

    /// The values as the `Vec<T>` they are stored in.
    ///
    /// # Panics
    /// Panics unless `T` is the stored type (`f16` for B16, `f32` for B32).
    fn typed<T: 'static>(&self) -> &Vec<T> {
        let values: &dyn Any = match self {
            Values::B16(v) => v,
            Values::B32(v) => v,
        };
        let what = || panic!("buffer values read as {}", type_name::<T>());
        values.downcast_ref().unwrap_or_else(what)
    }

    /// [`Values::typed`], mutably.
    fn typed_mut<T: 'static>(&mut self) -> &mut Vec<T> {
        let values: &mut dyn Any = match self {
            Values::B16(v) => v,
            Values::B32(v) => v,
        };
        let what = || panic!("buffer values written as {}", type_name::<T>());
        values.downcast_mut().unwrap_or_else(what)
    }
}

/// `v` narrowed to binary16. Every value a kernel stores into a B16
/// buffer is already on the binary16 grid; debug builds assert that the
/// narrowing is exact, so a kernel that stores an unrounded value fails
/// instead of being rounded here.
#[inline]
fn narrow(v: f32) -> f16 {
    let h = f16::from_f32(v);
    debug_assert_eq!(
        h.to_f32().to_bits(),
        v.to_bits(),
        "off-grid store of {v:e} ({:#010x}) into a binary16 buffer",
        v.to_bits()
    );
    h
}

#[derive(Clone)]
struct Buffer {
    base: u64,
    width: ElemWidth,
    data: Values,
    len: usize,
}

/// The device global memory: a set of allocated buffers.
///
/// `Clone` gives a value-identical pool at the same virtual addresses —
/// batched plan execution clones the staged pool so concurrent runs each
/// own private device state.
#[derive(Clone, Default)]
pub struct MemPool {
    buffers: Vec<Buffer>,
    next_base: u64,
}

impl MemPool {
    /// Empty pool. Allocations start at a nonzero base so that address 0
    /// never aliases a real element.
    pub fn new() -> Self {
        MemPool {
            buffers: Vec::new(),
            next_base: 256,
        }
    }

    fn alloc_raw(&mut self, width: ElemWidth, len: usize, data: Values) -> BufferId {
        let id = BufferId(self.buffers.len());
        let base = self.next_base;
        let bytes = len as u64 * width.bytes();
        // 256-byte alignment, like cudaMalloc.
        self.next_base = (base + bytes + 255) & !255;
        self.buffers.push(Buffer {
            base,
            width,
            data,
            len,
        });
        id
    }

    /// Allocate and initialise a buffer with functional values, given as
    /// the width's element type (`f16` for B16, `f32` for B32).
    ///
    /// # Panics
    /// Panics if `T` is not `width`'s element type.
    pub fn alloc_init<T: 'static>(&mut self, width: ElemWidth, data: Vec<T>) -> BufferId {
        let len = data.len();
        let mut values = Values::empty(width);
        *values.typed_mut() = data;
        self.alloc_raw(width, len, values)
    }

    /// Allocate a zero-filled output buffer with functional values.
    pub fn alloc_zeroed(&mut self, width: ElemWidth, len: usize) -> BufferId {
        let data = match width {
            ElemWidth::B16 => Values::B16(vec![f16::ZERO; len]),
            ElemWidth::B32 => Values::B32(vec![0.0; len]),
        };
        self.alloc_raw(width, len, data)
    }

    /// Allocate an address-only buffer (performance mode: no values).
    pub fn alloc_ghost(&mut self, width: ElemWidth, len: usize) -> BufferId {
        self.alloc_raw(width, len, Values::empty(width))
    }

    /// Every allocated buffer handle, in allocation order. The tier-1
    /// backend gate walks this to compare *whole pools* bit for bit
    /// after a native and a simulated launch — not just the output
    /// buffer, so a native lowering that scribbles on an operand fails
    /// the gate too.
    pub fn buffer_ids(&self) -> impl Iterator<Item = BufferId> + '_ {
        (0..self.buffers.len()).map(BufferId)
    }

    /// Write a buffer's functional contents, materialising a ghost
    /// buffer, from elements of the buffer's stored type (`f16` for B16,
    /// `f32` for B32), copied as they are. The replacement must match the
    /// buffer's length — this is the device-side `cudaMemcpy` a plan
    /// issues when operand *values* change between launches; a plan
    /// stages its buffers address-only and writes values only for
    /// functional runs.
    ///
    /// # Panics
    /// Panics if `data` length differs from the buffer length, or if `T`
    /// is not the buffer's element type.
    pub fn replace<T: 'static>(&mut self, buf: BufferId, data: impl ExactSizeIterator<Item = T>) {
        let b = &mut self.buffers[buf.0];
        assert_eq!(data.len(), b.len, "replace length mismatch");
        let values = b.data.typed_mut();
        values.clear();
        values.reserve_exact(b.len);
        values.extend(data);
    }

    /// Byte address of element `idx` in `buf`.
    #[inline]
    pub fn addr(&self, buf: BufferId, idx: usize) -> u64 {
        let b = &self.buffers[buf.0];
        // Out-of-range indices still map to an address (past the buffer,
        // possibly into a neighbouring allocation) — exactly what happens
        // on hardware. The sanitizer's bounds pass flags such accesses;
        // the trace machinery itself must not abort on them.
        b.base + idx as u64 * b.width.bytes()
    }

    /// Element width of a buffer.
    #[inline]
    pub fn width(&self, buf: BufferId) -> ElemWidth {
        self.buffers[buf.0].width
    }

    /// Logical length of a buffer in elements.
    #[inline]
    pub fn len(&self, buf: BufferId) -> usize {
        self.buffers[buf.0].len
    }

    /// True when the pool has no buffers.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// Read element `idx`, widened exactly to f32 (0.0 for ghost buffers).
    #[inline]
    pub fn read(&self, buf: BufferId, idx: usize) -> f32 {
        match &self.buffers[buf.0].data {
            Values::B16(v) if !v.is_empty() => v[idx].to_f32(),
            Values::B32(v) if !v.is_empty() => v[idx],
            _ => 0.0,
        }
    }

    /// Fingerprint of the pool's *address layout*: every buffer's base,
    /// element width and length (values excluded). Two pools with equal
    /// layout hashes present identical address arithmetic to a kernel,
    /// which is one leg of the memoization signature.
    pub fn layout_hash(&self) -> u64 {
        let mut h = crate::sig::FNV_OFFSET;
        let mut mix = |v: u64| h = crate::sig::fnv1a_word(h, v);
        for b in &self.buffers {
            mix(b.base);
            mix(b.width.bytes());
            mix(b.len as u64);
        }
        mix(self.next_base);
        h
    }

    /// Write element `idx`, narrowed to the buffer's width (no-op for
    /// ghost buffers). A B16 buffer takes only values on the binary16
    /// grid (asserted in debug builds).
    #[inline]
    pub fn write(&mut self, buf: BufferId, idx: usize, v: f32) {
        match &mut self.buffers[buf.0].data {
            Values::B16(d) if !d.is_empty() => d[idx] = narrow(v),
            Values::B32(d) if !d.is_empty() => d[idx] = v,
            _ => {}
        }
    }

    /// Apply a batch of `(index, value)` writes to a buffer, each as
    /// [`MemPool::write`] does.
    pub fn apply_writes(&mut self, buf: BufferId, writes: &[(u32, f32)]) {
        for &(idx, v) in writes {
            self.write(buf, idx as usize, v);
        }
    }

    /// The functional contents of a buffer as stored (empty for ghosts):
    /// `T` is `f16` for a B16 buffer and `f32` for a B32 one.
    ///
    /// # Panics
    /// Panics if `T` is not the buffer's element type.
    pub fn contents<T: 'static>(&self, buf: BufferId) -> &[T] {
        self.buffers[buf.0].data.typed()
    }

    /// Every stored value of a buffer as its raw bits, a binary16's 16
    /// bits zero-extended (empty for ghosts): for whole-buffer
    /// comparisons that see NaN payloads and signed zeros.
    pub fn bits(&self, buf: BufferId) -> Vec<u32> {
        match &self.buffers[buf.0].data {
            Values::B16(v) => v.iter().map(|h| u32::from(h.to_bits())).collect(),
            Values::B32(v) => v.iter().map(|x| x.to_bits()).collect(),
        }
    }

    /// Host bytes a buffer's values occupy (0 for ghosts): its
    /// materialised allocation, at the stored width.
    pub fn host_bytes(&self, buf: BufferId) -> u64 {
        let bytes = match &self.buffers[buf.0].data {
            Values::B16(v) => v.capacity() * std::mem::size_of::<f16>(),
            Values::B32(v) => v.capacity() * std::mem::size_of::<f32>(),
        };
        bytes as u64
    }

    /// Total allocated bytes (for peak-memory accounting).
    pub fn allocated_bytes(&self) -> u64 {
        self.buffers
            .iter()
            .map(|b| b.len as u64 * b.width.bytes())
            .sum()
    }
}

/// Host-side execution context handed to [`crate::KernelSpec::run_native`]
/// for [`crate::Backend::Native`]. A lowering runs the kernel's functional
/// semantics on the host, sequentially (so its outputs cannot depend on
/// the thread count), and must leave the pool **bit-identical** to a
/// simulated functional launch; DESIGN.md §2j argues it for the shipped
/// lowerings. It sees the buffers as stored, at their declared width, so
/// it widens binary16 inputs itself and stores each result with one
/// narrowing.
pub struct NativeCtx<'a> {
    mem: &'a mut MemPool,
}

impl<'a> NativeCtx<'a> {
    pub(crate) fn new(mem: &'a mut MemPool) -> NativeCtx<'a> {
        NativeCtx { mem }
    }

    /// The functional contents of `inputs`, in order, beside the contents
    /// of `out` to write in place, all as their stored element type `T`
    /// (`f16` for B16 buffers, `f32` for B32). A ghost buffer (no
    /// materialised contents) lends an empty slice.
    ///
    /// # Panics
    /// Panics if an input is the output buffer, or if `T` is not the
    /// element type of every buffer named.
    pub fn split<T: 'static, const N: usize>(
        &mut self,
        inputs: [BufferId; N],
        out: BufferId,
    ) -> ([&[T]; N], &mut [T]) {
        assert!(!inputs.contains(&out), "an input aliases the output");
        let (before, rest) = self.mem.buffers.split_at_mut(out.0);
        let (target, after) = rest.split_first_mut().expect("output buffer in pool");
        let (before, after) = (&*before, &*after);
        let reads = inputs.map(|id| match id.0 < out.0 {
            true => &before[id.0].data.typed()[..],
            false => &after[id.0 - out.0 - 1].data.typed()[..],
        });
        (reads, target.data.typed_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn halves(xs: &[f32]) -> Vec<f16> {
        xs.iter().map(|&x| f16::from_f32(x)).collect()
    }

    #[test]
    fn addresses_are_aligned_and_disjoint() {
        let mut pool = MemPool::new();
        let a = pool.alloc_zeroed(ElemWidth::B16, 100); // 200 bytes
        let b = pool.alloc_zeroed(ElemWidth::B32, 10);
        assert_eq!(pool.addr(a, 0) % 256, 0);
        assert_eq!(pool.addr(b, 0) % 256, 0);
        assert!(pool.addr(b, 0) >= pool.addr(a, 99) + 2);
        assert_eq!(pool.addr(a, 3) - pool.addr(a, 0), 6);
        assert_eq!(pool.addr(b, 3) - pool.addr(b, 0), 12);
    }

    #[test]
    fn functional_read_write() {
        let mut pool = MemPool::new();
        let a = pool.alloc_init(ElemWidth::B32, vec![1.0f32, 2.0, 3.0]);
        assert_eq!(pool.read(a, 1), 2.0);
        pool.write(a, 1, 9.0);
        assert_eq!(pool.read(a, 1), 9.0);
        pool.apply_writes(a, &[(0, 7.0), (2, 8.0)]);
        assert_eq!(pool.contents::<f32>(a), &[7.0, 9.0, 8.0]);
    }

    /// A B16 buffer holds binary16 bits: reads widen exactly, writes
    /// narrow exactly, and its values take 2 host bytes each.
    #[test]
    fn b16_buffers_store_binary16() {
        let mut pool = MemPool::new();
        let h = pool.alloc_init(ElemWidth::B16, halves(&[0.5, -0.0, 65504.0]));
        assert_eq!(pool.read(h, 2), 65504.0);
        assert_eq!(pool.read(h, 1).to_bits(), (-0.0f32).to_bits());
        pool.write(h, 0, f32::NEG_INFINITY);
        pool.apply_writes(h, &[(1, 1.0 / 1024.0)]);
        assert_eq!(
            pool.bits(h),
            [0xFC00, 0x1400, 0x7BFF],
            "stored binary16 bits"
        );
        assert_eq!(pool.host_bytes(h), 6);
        assert_eq!(pool.host_bytes(h), pool.allocated_bytes());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "off-grid store")]
    fn narrowing_write_rejects_an_off_grid_value() {
        let mut pool = MemPool::new();
        let h = pool.alloc_zeroed(ElemWidth::B16, 1);
        pool.write(h, 0, 0.1);
    }

    #[test]
    #[should_panic(expected = "read as f32")]
    fn b16_contents_are_not_f32() {
        let mut pool = MemPool::new();
        let h = pool.alloc_zeroed(ElemWidth::B16, 2);
        let _ = pool.contents::<f32>(h);
    }

    #[test]
    fn native_split_lends_inputs_on_either_side_of_the_output() {
        let mut pool = MemPool::new();
        let a = pool.alloc_init(ElemWidth::B32, vec![1.0f32, 2.0]);
        let out = pool.alloc_zeroed(ElemWidth::B32, 2);
        let c = pool.alloc_init(ElemWidth::B32, vec![10.0f32, 20.0]);
        let mut ctx = NativeCtx::new(&mut pool);
        let ([x, y], o) = ctx.split::<f32, 2>([c, a], out);
        for (o, (x, y)) in o.iter_mut().zip(x.iter().zip(y)) {
            *o = x + y;
        }
        assert_eq!(pool.contents::<f32>(out), &[11.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "aliases the output")]
    fn native_split_rejects_an_input_that_is_the_output() {
        let mut pool = MemPool::new();
        let out = pool.alloc_zeroed(ElemWidth::B32, 2);
        let _ = NativeCtx::new(&mut pool).split::<f32, 1>([out], out);
    }

    #[test]
    fn replace_overwrites_values_and_materialises_ghosts() {
        let mut pool = MemPool::new();
        let buf = pool.alloc_init(ElemWidth::B32, vec![1.0f32, 2.0, 3.0]);
        pool.replace(buf, [4.0f32, 5.0, 6.0].into_iter());
        assert_eq!(pool.contents::<f32>(buf), &[4.0, 5.0, 6.0]);
        // A ghost keeps its address and takes the values, at its width.
        let g = pool.alloc_ghost(ElemWidth::B16, 3);
        let (addr, layout) = (pool.addr(g, 0), pool.layout_hash());
        assert_eq!(pool.host_bytes(g), 0);
        pool.replace(g, halves(&[7.0, 8.0, 9.0]).into_iter());
        assert_eq!(pool.contents::<f16>(g), halves(&[7.0, 8.0, 9.0]));
        assert_eq!(pool.host_bytes(g), 6);
        assert_eq!((pool.addr(g, 0), pool.layout_hash()), (addr, layout));
    }

    #[test]
    #[should_panic(expected = "replace length mismatch")]
    fn replace_rejects_wrong_length() {
        let mut pool = MemPool::new();
        let buf = pool.alloc_init(ElemWidth::B32, vec![1.0f32, 2.0]);
        pool.replace(buf, [1.0f32].into_iter());
    }

    #[test]
    fn layout_hash_sees_addresses_not_values() {
        let mut p1 = MemPool::new();
        p1.alloc_init(ElemWidth::B32, vec![1.0f32, 2.0, 3.0]);
        let mut p2 = MemPool::new();
        p2.alloc_init(ElemWidth::B32, vec![9.0f32, 8.0, 7.0]);
        assert_eq!(p1.layout_hash(), p2.layout_hash());
        // Same bytes, different width → different layout.
        let mut p3 = MemPool::new();
        p3.alloc_ghost(ElemWidth::B16, 6);
        assert_ne!(p1.layout_hash(), p3.layout_hash());
        // Extra allocation changes the layout.
        p2.alloc_ghost(ElemWidth::B16, 1);
        assert_ne!(p1.layout_hash(), p2.layout_hash());
    }

    #[test]
    fn ghost_buffers_have_addresses_but_no_values() {
        let mut pool = MemPool::new();
        let g = pool.alloc_ghost(ElemWidth::B16, 64);
        assert_eq!(pool.read(g, 5), 0.0);
        pool.write(g, 5, 1.0);
        assert_eq!(pool.read(g, 5), 0.0);
        assert_eq!(pool.allocated_bytes(), 128);
    }
}
