//! Global-memory buffer pool.
//!
//! Buffers live at realistic (256-byte aligned) virtual addresses so the
//! coalescer and cache models see the same sector layout a real kernel
//! would. Values are stored in the f32 accumulation domain regardless of
//! the declared element width; the width decides the *addresses* elements
//! occupy, which is what the memory system cares about.

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

#[derive(Clone)]
struct Buffer {
    base: u64,
    width: ElemWidth,
    /// Functional values (f32 domain). Empty for ghost (perf-only) buffers.
    data: Vec<f32>,
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

    fn alloc_raw(&mut self, width: ElemWidth, len: usize, data: Vec<f32>) -> BufferId {
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

    /// Allocate and initialise a buffer with functional values.
    pub fn alloc_init(&mut self, width: ElemWidth, data: Vec<f32>) -> BufferId {
        let len = data.len();
        self.alloc_raw(width, len, data)
    }

    /// Allocate a zero-filled output buffer with functional values.
    pub fn alloc_zeroed(&mut self, width: ElemWidth, len: usize) -> BufferId {
        self.alloc_raw(width, len, vec![0.0; len])
    }

    /// Allocate an address-only buffer (performance mode: no values).
    pub fn alloc_ghost(&mut self, width: ElemWidth, len: usize) -> BufferId {
        self.alloc_raw(width, len, Vec::new())
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
    /// buffer. The replacement must match the buffer's length — this is
    /// the device-side `cudaMemcpy` a plan issues when operand *values*
    /// change between launches; a plan stages its buffers address-only
    /// and writes values only for functional runs.
    ///
    /// # Panics
    /// Panics if `data` length differs from the buffer length.
    pub fn replace(&mut self, buf: BufferId, data: impl ExactSizeIterator<Item = f32>) {
        let b = &mut self.buffers[buf.0];
        assert_eq!(data.len(), b.len, "replace length mismatch");
        b.data.clear();
        b.data.extend(data);
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

    /// Read element `idx` (0.0 for ghost buffers).
    #[inline]
    pub fn read(&self, buf: BufferId, idx: usize) -> f32 {
        let b = &self.buffers[buf.0];
        if b.data.is_empty() {
            0.0
        } else {
            b.data[idx]
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

    /// Write element `idx` (no-op for ghost buffers).
    #[inline]
    pub fn write(&mut self, buf: BufferId, idx: usize, v: f32) {
        let b = &mut self.buffers[buf.0];
        if !b.data.is_empty() {
            b.data[idx] = v;
        }
    }

    /// Apply a batch of `(index, value)` writes to a buffer.
    pub fn apply_writes(&mut self, buf: BufferId, writes: &[(u32, f32)]) {
        let b = &mut self.buffers[buf.0];
        if b.data.is_empty() {
            return;
        }
        for &(idx, v) in writes {
            b.data[idx as usize] = v;
        }
    }

    /// The functional contents of a buffer (empty for ghosts).
    pub fn contents(&self, buf: BufferId) -> &[f32] {
        &self.buffers[buf.0].data
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
/// lowerings.
pub struct NativeCtx<'a> {
    mem: &'a mut MemPool,
}

impl<'a> NativeCtx<'a> {
    pub(crate) fn new(mem: &'a mut MemPool) -> NativeCtx<'a> {
        NativeCtx { mem }
    }

    /// The functional contents of `inputs`, in order, beside the contents
    /// of `out` to write in place. A ghost buffer (no materialised
    /// contents) lends an empty slice.
    ///
    /// # Panics
    /// Panics if an input is the output buffer.
    pub fn split<const N: usize>(
        &mut self,
        inputs: [BufferId; N],
        out: BufferId,
    ) -> ([&[f32]; N], &mut [f32]) {
        assert!(!inputs.contains(&out), "an input aliases the output");
        let (before, rest) = self.mem.buffers.split_at_mut(out.0);
        let (target, after) = rest.split_first_mut().expect("output buffer in pool");
        let (before, after) = (&*before, &*after);
        let reads = inputs.map(|id| match id.0 < out.0 {
            true => &before[id.0].data[..],
            false => &after[id.0 - out.0 - 1].data[..],
        });
        (reads, &mut target.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let a = pool.alloc_init(ElemWidth::B32, vec![1.0, 2.0, 3.0]);
        assert_eq!(pool.read(a, 1), 2.0);
        pool.write(a, 1, 9.0);
        assert_eq!(pool.read(a, 1), 9.0);
        pool.apply_writes(a, &[(0, 7.0), (2, 8.0)]);
        assert_eq!(pool.contents(a), &[7.0, 9.0, 8.0]);
    }

    #[test]
    fn native_split_lends_inputs_on_either_side_of_the_output() {
        let mut pool = MemPool::new();
        let a = pool.alloc_init(ElemWidth::B32, vec![1.0, 2.0]);
        let out = pool.alloc_zeroed(ElemWidth::B32, 2);
        let c = pool.alloc_init(ElemWidth::B32, vec![10.0, 20.0]);
        let mut ctx = NativeCtx::new(&mut pool);
        let ([x, y], o) = ctx.split([c, a], out);
        for (o, (x, y)) in o.iter_mut().zip(x.iter().zip(y)) {
            *o = x + y;
        }
        assert_eq!(pool.contents(out), &[11.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "aliases the output")]
    fn native_split_rejects_an_input_that_is_the_output() {
        let mut pool = MemPool::new();
        let out = pool.alloc_zeroed(ElemWidth::B32, 2);
        let _ = NativeCtx::new(&mut pool).split([out], out);
    }

    #[test]
    fn replace_overwrites_values_and_materialises_ghosts() {
        let mut pool = MemPool::new();
        let buf = pool.alloc_init(ElemWidth::B32, vec![1.0, 2.0, 3.0]);
        pool.replace(buf, [4.0, 5.0, 6.0].into_iter());
        assert_eq!(pool.contents(buf), &[4.0, 5.0, 6.0]);
        // A ghost keeps its address and takes the values.
        let g = pool.alloc_ghost(ElemWidth::B32, 3);
        let (addr, layout) = (pool.addr(g, 0), pool.layout_hash());
        pool.replace(g, [7.0, 8.0, 9.0].into_iter());
        assert_eq!(pool.contents(g), &[7.0, 8.0, 9.0]);
        assert_eq!((pool.addr(g, 0), pool.layout_hash()), (addr, layout));
    }

    #[test]
    #[should_panic(expected = "replace length mismatch")]
    fn replace_rejects_wrong_length() {
        let mut pool = MemPool::new();
        let buf = pool.alloc_init(ElemWidth::B32, vec![1.0, 2.0]);
        pool.replace(buf, [1.0].into_iter());
    }

    #[test]
    fn layout_hash_sees_addresses_not_values() {
        let mut p1 = MemPool::new();
        p1.alloc_init(ElemWidth::B32, vec![1.0, 2.0, 3.0]);
        let mut p2 = MemPool::new();
        p2.alloc_init(ElemWidth::B32, vec![9.0, 8.0, 7.0]);
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
