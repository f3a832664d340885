//! Process memory: sparse paged memory ([`PagedMem`]), shared by the IR
//! interpreter, the loader and the simulator's per-instruction oracle, and
//! the flat data and stack regions ([`RegionMem`]) that block dispatch
//! builds from a loaded process.

use std::ops::Range;

use crate::layout::{DATA_BASE, DATA_MAX, PAGE_SIZE, STACK_MAX, STACK_TOP};

/// log2 of [`PAGE_SIZE`]: the shift that turns an address into a page
/// number on the flat-table fast path.
const PAGE_SHIFT: u32 = PAGE_SIZE.trailing_zeros();
const OFFSET_MASK: u32 = PAGE_SIZE - 1;

/// Pages per second-level chunk. The root table then has at most
/// `2^32 / PAGE_SIZE / CHUNK_PAGES = 1024` entries, so creating a process
/// image costs a few kilobytes however high its stack sits — growing a
/// single-level table up to the stack pages (just under `0x7FFF_0000`)
/// costs a ~8 MiB zeroed allocation per load, which dominated sweep time.
const CHUNK_PAGES: usize = 1024;
const CHUNK_SHIFT: u32 = CHUNK_PAGES.trailing_zeros();
const CHUNK_MASK: usize = CHUNK_PAGES - 1;

type Page = Box<[u8]>;
/// A second-level table of `CHUNK_PAGES` page slots.
type Chunk = Box<[Option<Page>]>;

/// A sparse byte-addressable memory backed by 4 KiB pages.
///
/// Reads of unmapped memory return zero (pages are demand-zeroed, like
/// anonymous mappings); writes allocate the page. Multi-byte accesses may
/// straddle page boundaries.
///
/// Internally the pages live in a table indexed by the flat page number
/// `addr >> PAGE_SHIFT` (two levels of plain vectors, so creating a
/// process image stays cheap however high its stack sits), which makes a
/// page lookup a shift, a mask and two indexed loads — no hashing on the
/// load/store path. A last-page cache short-circuits the mapped-check,
/// but only writes set it (a read borrows the memory shared and cannot),
/// so a read hits it only on the page last written. The multi-byte
/// accessors ([`PagedMem::read_le`], [`PagedMem::write_le`]) resolve the
/// page once per access instead of once per byte whenever the access does
/// not cross a page boundary.
///
/// # Examples
///
/// ```
/// use biaslab_toolchain::mem::PagedMem;
///
/// let mut mem = PagedMem::new();
/// mem.write_u64(0x1000, 0xDEAD_BEEF);
/// assert_eq!(mem.read_u64(0x1000), 0xDEAD_BEEF);
/// assert_eq!(mem.read_u64(0x2000), 0); // demand-zeroed
/// ```
#[derive(Debug, Clone)]
pub struct PagedMem {
    /// `chunks[page_number >> CHUNK_SHIFT][page_number & CHUNK_MASK]` —
    /// `None` until first written.
    chunks: Vec<Option<Chunk>>,
    /// Page number of the most recently written page, or `usize::MAX`
    /// when nothing is mapped yet. Invariant: when not `usize::MAX`, the
    /// page it names is mapped.
    last_page: usize,
    mapped: usize,
}

impl Default for PagedMem {
    fn default() -> PagedMem {
        PagedMem::new()
    }
}

impl PagedMem {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> PagedMem {
        PagedMem {
            chunks: Vec::new(),
            last_page: usize::MAX,
            mapped: 0,
        }
    }

    /// Number of pages currently mapped.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&[u8]> {
        let pno = (addr >> PAGE_SHIFT) as usize;
        // The last-page cache only ever names a mapped page, so a hit
        // skips the two mapped-checks on the way down.
        if pno == self.last_page {
            return self.chunks[pno >> CHUNK_SHIFT].as_ref().expect("cached")[pno & CHUNK_MASK]
                .as_deref();
        }
        self.chunks.get(pno >> CHUNK_SHIFT)?.as_ref()?[pno & CHUNK_MASK].as_deref()
    }

    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut [u8] {
        let pno = (addr >> PAGE_SHIFT) as usize;
        if pno != self.last_page && !self.is_mapped(pno) {
            self.map_page(pno);
        }
        self.last_page = pno;
        self.chunks[pno >> CHUNK_SHIFT]
            .as_mut()
            .expect("chunk mapped above")[pno & CHUNK_MASK]
            .as_deref_mut()
            .expect("page mapped above")
    }

    fn is_mapped(&self, pno: usize) -> bool {
        self.chunks
            .get(pno >> CHUNK_SHIFT)
            .and_then(Option::as_ref)
            .is_some_and(|c| c[pno & CHUNK_MASK].is_some())
    }

    /// Unmaps and returns the mapped pages numbered within `pages`, lowest
    /// first, scanning only the chunks that exist.
    fn take_pages(&mut self, pages: Range<usize>) -> Vec<(usize, Page)> {
        let mut taken = Vec::new();
        let mut pno = pages.start;
        while pno < pages.end {
            let ci = pno >> CHUNK_SHIFT;
            let chunk_end = ((ci + 1) << CHUNK_SHIFT).min(pages.end);
            if let Some(Some(chunk)) = self.chunks.get_mut(ci) {
                for p in pno..chunk_end {
                    if let Some(page) = chunk[p & CHUNK_MASK].take() {
                        taken.push((p, page));
                    }
                }
            }
            pno = chunk_end;
        }
        self.mapped -= taken.len();
        self.last_page = usize::MAX;
        taken
    }

    #[cold]
    fn map_page(&mut self, pno: usize) {
        let ci = pno >> CHUNK_SHIFT;
        if ci >= self.chunks.len() {
            self.chunks.resize_with(ci + 1, || None);
        }
        let chunk = self.chunks[ci]
            .get_or_insert_with(|| (0..CHUNK_PAGES).map(|_| None).collect::<Vec<_>>().into());
        chunk[pno & CHUNK_MASK] = Some(vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
        self.mapped += 1;
    }

    /// Reads one byte.
    #[inline]
    #[must_use]
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & OFFSET_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[(addr & OFFSET_MASK) as usize] = value;
    }

    /// Reads `n <= 8` little-endian bytes, zero-extended to 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    #[inline]
    #[must_use]
    pub fn read_le(&self, addr: u32, n: u32) -> u64 {
        assert!(n <= 8);
        let off = (addr & OFFSET_MASK) as usize;
        if off + n as usize <= PAGE_SIZE as usize {
            // Within one page: resolve the page once for all bytes, and
            // turn the common power-of-two widths into single (unaligned)
            // loads rather than a byte loop.
            let Some(p) = self.page(addr) else { return 0 };
            return match n {
                1 => u64::from(p[off]),
                4 => u64::from(u32::from_le_bytes(
                    p[off..off + 4].try_into().expect("4 bytes"),
                )),
                8 => u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes")),
                _ => {
                    let mut out = 0u64;
                    for (i, &b) in p[off..off + n as usize].iter().enumerate() {
                        out |= u64::from(b) << (8 * i);
                    }
                    out
                }
            };
        }
        let mut out = 0u64;
        for i in 0..n {
            out |= u64::from(self.read_u8(addr.wrapping_add(i))) << (8 * i);
        }
        out
    }

    /// Writes the low `n <= 8` bytes of `value`, little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    #[inline]
    pub fn write_le(&mut self, addr: u32, n: u32, value: u64) {
        assert!(n <= 8);
        let off = (addr & OFFSET_MASK) as usize;
        if off + n as usize <= PAGE_SIZE as usize {
            let p = self.page_mut(addr);
            match n {
                1 => p[off] = value as u8,
                4 => p[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes()),
                8 => p[off..off + 8].copy_from_slice(&value.to_le_bytes()),
                _ => {
                    for (i, b) in p[off..off + n as usize].iter_mut().enumerate() {
                        *b = (value >> (8 * i)) as u8;
                    }
                }
            }
            return;
        }
        for i in 0..n {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Reads a 32-bit little-endian word.
    #[inline]
    #[must_use]
    pub fn read_u32(&self, addr: u32) -> u32 {
        self.read_le(addr, 4) as u32
    }

    /// Writes a 32-bit little-endian word.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.write_le(addr, 4, u64::from(value));
    }

    /// Reads a 64-bit little-endian word.
    #[inline]
    #[must_use]
    pub fn read_u64(&self, addr: u32) -> u64 {
        self.read_le(addr, 8)
    }

    /// Writes a 64-bit little-endian word.
    #[inline]
    pub fn write_u64(&mut self, addr: u32, value: u64) {
        self.write_le(addr, 8, value);
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let mut a = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (a & OFFSET_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE as usize - off);
            self.page_mut(a)[off..off + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            a = a.wrapping_add(n as u32);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    #[must_use]
    pub fn read_bytes(&self, addr: u32, len: u32) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i)))
            .collect()
    }
}

/// The data segment `[DATA_BASE, DATA_BASE + DATA_MAX)`.
const DATA_SEGMENT: Range<u32> = DATA_BASE..DATA_BASE + DATA_MAX;
/// The stack segment `[STACK_TOP - STACK_MAX, STACK_TOP)`.
const STACK_SEGMENT: Range<u32> = STACK_TOP - STACK_MAX..STACK_TOP;

/// A process memory of two flat regions: the data region grows up from
/// [`DATA_BASE`] and the stack region down from [`STACK_TOP`].
///
/// A multi-byte access that lies wholly inside one region costs a
/// subtraction and one bounds check. Everything else takes the byte-wise
/// path: a byte of the data or stack segment outside its region reads
/// zero, and writing it grows the region to cover it (at least doubling,
/// in whole pages, never past the segment). Bytes outside both segments
/// live in a [`PagedMem`], and an access that wraps past `0xFFFF_FFFF`
/// wraps to address 0 as it does there. So a `RegionMem` holds the same
/// bytes as the [`PagedMem`] it was built from would after the same
/// accesses; the block executor runs on it, the per-instruction oracle on
/// the [`PagedMem`].
///
/// # Examples
///
/// ```
/// use biaslab_toolchain::layout::STACK_TOP;
/// use biaslab_toolchain::mem::{PagedMem, RegionMem};
///
/// let mut paged = PagedMem::new();
/// paged.write_u64(STACK_TOP - 8, 7);
/// let mut mem = RegionMem::from(paged);
/// assert_eq!(mem.read_le(STACK_TOP - 8, 8), 7);
/// mem.write_le(STACK_TOP - 0x10_0000, 4, 9); // grows the stack region
/// assert_eq!(mem.read_le(STACK_TOP - 0x10_0000, 4), 9);
/// ```
#[derive(Debug)]
pub struct RegionMem {
    /// Bytes `[DATA_BASE, DATA_BASE + data.len())`.
    data: Vec<u8>,
    /// Bytes `[stack_base, STACK_TOP)`.
    stack: Vec<u8>,
    /// `STACK_TOP - stack.len()`.
    stack_base: u32,
    /// Bytes outside both segments.
    other: PagedMem,
}

impl From<PagedMem> for RegionMem {
    /// Moves the data- and stack-segment pages of `mem` into the two
    /// regions, one page at a time, so the bytes are never held twice.
    fn from(mut mem: PagedMem) -> RegionMem {
        let page = PAGE_SIZE as usize;
        let pno = |addr: u32| (addr >> PAGE_SHIFT) as usize;
        let data_pages = mem.take_pages(pno(DATA_SEGMENT.start)..pno(DATA_SEGMENT.end));
        let stack_pages = mem.take_pages(pno(STACK_SEGMENT.start)..pno(STACK_SEGMENT.end));

        let data_first = pno(DATA_BASE);
        let data_len = data_pages.last().map_or(0, |&(p, _)| p + 1 - data_first);
        let mut data = vec![0u8; data_len * page];
        for (p, bytes) in data_pages {
            data[(p - data_first) * page..][..page].copy_from_slice(&bytes);
        }
        let stack_first = stack_pages.first().map_or(pno(STACK_TOP), |&(p, _)| p);
        let mut stack = vec![0u8; (pno(STACK_TOP) - stack_first) * page];
        for (p, bytes) in stack_pages {
            stack[(p - stack_first) * page..][..page].copy_from_slice(&bytes);
        }
        RegionMem {
            data,
            stack_base: STACK_TOP - stack.len() as u32,
            stack,
            other: mem,
        }
    }
}

/// The index range an `n`-byte access at `addr` covers in a region whose
/// first byte sits at `base`, if the access lies wholly inside it. The
/// sum cannot overflow: it is taken in `u64`.
#[inline(always)]
fn inside(region: &[u8], base: u32, addr: u32, n: u32) -> Option<Range<usize>> {
    let end = u64::from(addr.wrapping_sub(base)) + u64::from(n);
    (end <= region.len() as u64).then(|| end as usize - n as usize..end as usize)
}

/// The region length that covers `need` bytes: at least double `len`, in
/// whole pages, at most the segment's `max`.
fn grown(len: usize, need: usize, max: u32) -> usize {
    need.max(2 * len)
        .next_multiple_of(PAGE_SIZE as usize)
        .min(max as usize)
}

impl RegionMem {
    /// Reads `n <= 8` little-endian bytes, zero-extended to 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    #[inline]
    #[must_use]
    pub fn read_le(&self, addr: u32, n: u32) -> u64 {
        let bytes = if let Some(r) = inside(&self.data, DATA_BASE, addr, n) {
            &self.data[r]
        } else if let Some(r) = inside(&self.stack, self.stack_base, addr, n) {
            &self.stack[r]
        } else {
            return self.read_bytewise(addr, n);
        };
        match *bytes {
            [a] => u64::from(a),
            [a, b, c, d] => u64::from(u32::from_le_bytes([a, b, c, d])),
            [a, b, c, d, e, f, g, h] => u64::from_le_bytes([a, b, c, d, e, f, g, h]),
            _ => self.read_bytewise(addr, n),
        }
    }

    /// Writes the low `n <= 8` bytes of `value`, little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    #[inline]
    pub fn write_le(&mut self, addr: u32, n: u32, value: u64) {
        let bytes = if let Some(r) = inside(&self.data, DATA_BASE, addr, n) {
            &mut self.data[r]
        } else if let Some(r) = inside(&self.stack, self.stack_base, addr, n) {
            &mut self.stack[r]
        } else {
            return self.write_bytewise(addr, n, value);
        };
        match bytes.len() {
            1 => bytes[0] = value as u8,
            4 => bytes.copy_from_slice(&(value as u32).to_le_bytes()),
            8 => bytes.copy_from_slice(&value.to_le_bytes()),
            _ => self.write_bytewise(addr, n, value),
        }
    }

    #[cold]
    fn read_bytewise(&self, addr: u32, n: u32) -> u64 {
        assert!(n <= 8);
        (0..n).fold(0, |acc, i| {
            acc | u64::from(self.read_u8(addr.wrapping_add(i))) << (8 * i)
        })
    }

    #[cold]
    fn write_bytewise(&mut self, addr: u32, n: u32, value: u64) {
        assert!(n <= 8);
        for i in 0..n {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    fn read_u8(&self, addr: u32) -> u8 {
        if let Some(&b) = self.data.get(addr.wrapping_sub(DATA_BASE) as usize) {
            b
        } else if let Some(&b) = self.stack.get(addr.wrapping_sub(self.stack_base) as usize) {
            b
        } else if DATA_SEGMENT.contains(&addr) || STACK_SEGMENT.contains(&addr) {
            0
        } else {
            self.other.read_u8(addr)
        }
    }

    fn write_u8(&mut self, addr: u32, value: u8) {
        if DATA_SEGMENT.contains(&addr) {
            let i = (addr - DATA_BASE) as usize;
            if i >= self.data.len() {
                let len = grown(self.data.len(), i + 1, DATA_MAX);
                self.data.resize(len, 0);
            }
            self.data[i] = value;
        } else if STACK_SEGMENT.contains(&addr) {
            if addr < self.stack_base {
                let len = grown(self.stack.len(), (STACK_TOP - addr) as usize, STACK_MAX);
                let mut stack = vec![0u8; len];
                stack[len - self.stack.len()..].copy_from_slice(&self.stack);
                self.stack = stack;
                self.stack_base = STACK_TOP - len as u32;
            }
            self.stack[(addr - self.stack_base) as usize] = value;
        } else {
            self.other.write_u8(addr, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn unmapped_reads_are_zero() {
        let mem = PagedMem::new();
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.read_u64(0xFFFF_FFF0), 0);
        assert_eq!(mem.mapped_pages(), 0);
    }

    #[test]
    fn roundtrip_widths() {
        let mut mem = PagedMem::new();
        mem.write_u8(10, 0xAB);
        assert_eq!(mem.read_u8(10), 0xAB);
        mem.write_u32(100, 0x1234_5678);
        assert_eq!(mem.read_u32(100), 0x1234_5678);
        mem.write_u64(200, 0x0123_4567_89AB_CDEF);
        assert_eq!(mem.read_u64(200), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = PagedMem::new();
        mem.write_u32(0, 0x0403_0201);
        assert_eq!(mem.read_u8(0), 1);
        assert_eq!(mem.read_u8(3), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = PagedMem::new();
        let addr = PAGE_SIZE - 4;
        mem.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(mem.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(mem.mapped_pages(), 2);
    }

    #[test]
    fn bulk_bytes() {
        let mut mem = PagedMem::new();
        mem.write_bytes(0x500, b"hello");
        assert_eq!(mem.read_bytes(0x500, 5), b"hello");
    }

    #[test]
    fn bulk_bytes_across_page_boundary() {
        let mut mem = PagedMem::new();
        let data: Vec<u8> = (0..=255).collect();
        let addr = 3 * PAGE_SIZE - 100;
        mem.write_bytes(addr, &data);
        assert_eq!(mem.read_bytes(addr, 256), data);
        assert_eq!(mem.mapped_pages(), 2);
    }

    #[test]
    fn partial_width_write_preserves_neighbors() {
        let mut mem = PagedMem::new();
        mem.write_u64(0, u64::MAX);
        mem.write_u8(3, 0);
        assert_eq!(mem.read_u64(0), !(0xFF_u64 << 24));
    }

    #[test]
    fn sparse_pages_do_not_allocate_between() {
        let mut mem = PagedMem::new();
        mem.write_u8(0, 1);
        mem.write_u8(100 * PAGE_SIZE, 2);
        assert_eq!(mem.mapped_pages(), 2);
        assert_eq!(mem.read_u8(50 * PAGE_SIZE), 0);
    }

    #[test]
    fn high_addresses_work() {
        // The stack lives just under 0x7FFF_0000; make sure the flat table
        // handles page numbers that large (and wrapping reads above them).
        let mut mem = PagedMem::new();
        mem.write_u64(0x7FFE_FFF8, 0xABCD);
        assert_eq!(mem.read_u64(0x7FFE_FFF8), 0xABCD);
    }

    #[test]
    fn regions_take_the_segment_pages_in_place() {
        let mut paged = PagedMem::new();
        paged.write_u64(DATA_BASE + PAGE_SIZE + 8, 1);
        paged.write_u64(STACK_TOP - 8, 2);
        paged.write_u64(0x0040_0000, 3);
        let mem = RegionMem::from(paged);
        assert_eq!(
            mem.data.len(),
            2 * PAGE_SIZE as usize,
            "up to the last mapped page"
        );
        assert_eq!(mem.stack.len(), PAGE_SIZE as usize);
        assert_eq!(
            mem.other.mapped_pages(),
            1,
            "only the page outside both segments"
        );
        assert_eq!(mem.read_le(DATA_BASE + PAGE_SIZE + 8, 8), 1);
        assert_eq!(
            mem.read_le(DATA_BASE, 8),
            0,
            "an unmapped page below reads zero"
        );
        assert_eq!(mem.read_le(STACK_TOP - 8, 8), 2);
        assert_eq!(mem.read_le(0x0040_0000, 8), 3);
    }

    #[test]
    fn writes_grow_each_region_toward_its_segment_end() {
        let mut mem = RegionMem::from(PagedMem::new());
        mem.write_le(STACK_TOP - 3 * PAGE_SIZE - 4, 8, u64::MAX);
        assert_eq!(mem.stack.len(), 4 * PAGE_SIZE as usize);
        assert_eq!(mem.stack_base, STACK_TOP - 4 * PAGE_SIZE);
        mem.write_le(DATA_BASE + 5, 1, 7);
        assert_eq!(mem.data.len(), PAGE_SIZE as usize);
        mem.write_le(DATA_BASE + PAGE_SIZE, 4, 9);
        assert_eq!(mem.data.len(), 2 * PAGE_SIZE as usize, "at least doubled");
        mem.write_le(DATA_BASE + DATA_MAX - 1, 1, 1);
        assert_eq!(mem.data.len(), DATA_MAX as usize, "never past the segment");
        assert_eq!(mem.read_le(STACK_TOP - 3 * PAGE_SIZE - 4, 8), u64::MAX);
        assert_eq!(mem.read_le(DATA_BASE + 5, 1), 7);
        assert_eq!(mem.read_le(DATA_BASE + PAGE_SIZE, 4), 9);
        // Past the segment the bytes live in the fallback pages.
        mem.write_le(DATA_BASE + DATA_MAX - 2, 4, 0x0403_0201);
        assert_eq!(mem.read_le(DATA_BASE + DATA_MAX - 2, 4), 0x0403_0201);
        assert_eq!(mem.other.mapped_pages(), 1);
    }

    /// Addresses the region memory treats specially; the property test
    /// adds the data image's end and the environment's start per case.
    const ANCHORS: [u32; 9] = [
        DATA_BASE,
        DATA_BASE + DATA_MAX,
        STACK_TOP,
        STACK_TOP - PAGE_SIZE,
        STACK_TOP - 3 * PAGE_SIZE,
        STACK_TOP - STACK_MAX,
        crate::layout::TEXT_BASE,
        0x4000_0000,
        0,
    ];

    proptest! {
        #[test]
        fn region_memory_matches_paged_memory(
            image_len in 0u32..3 * PAGE_SIZE,
            env_len in 0u32..2 * PAGE_SIZE,
            fill in any::<u64>(),
            ops in proptest::collection::vec(
                (
                    0usize..ANCHORS.len() + 2,
                    -12i32..12,
                    prop::sample::select(vec![1u32, 4, 8]),
                    any::<bool>(),
                    any::<u64>(),
                ),
                1..160,
            ),
        ) {
            // A loaded image: a data image, an environment block under
            // STACK_TOP and one page outside both segments.
            let byte = |i: u32| (fill >> (8 * (i % 8))) as u8 ^ i as u8;
            let mut paged = PagedMem::new();
            paged.write_bytes(DATA_BASE, &(0..image_len).map(byte).collect::<Vec<_>>());
            paged.write_bytes(STACK_TOP - env_len, &(0..env_len).map(byte).collect::<Vec<_>>());
            paged.write_u64(crate::layout::TEXT_BASE + 16, fill);
            let mut regions = RegionMem::from(paged.clone());

            let mut anchors = ANCHORS.to_vec();
            anchors.extend([DATA_BASE + image_len, STACK_TOP - env_len]);
            for (k, offset, n, write, value) in ops {
                // Offsets straddle every anchor; those below 0 wrap past
                // 0xFFFF_FFFF.
                let addr = anchors[k].wrapping_add(offset as u32);
                if write {
                    paged.write_le(addr, n, value);
                    regions.write_le(addr, n, value);
                } else {
                    prop_assert_eq!(
                        regions.read_le(addr, n),
                        paged.read_le(addr, n),
                        "{}-byte read at {:#x}",
                        n,
                        addr
                    );
                }
            }
            for a in anchors {
                for offset in -16i32..16 {
                    let addr = a.wrapping_add(offset as u32);
                    prop_assert_eq!(regions.read_u8(addr), paged.read_u8(addr), "byte at {:#x}", addr);
                }
            }
        }
    }
}
