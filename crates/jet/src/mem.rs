//! Hybrid memory: a flat resident mirror of the image region with
//! single-lookup fast paths, backed by the sparse reference
//! [`ag32::Memory`] everywhere else.
//!
//! The image layout (Figure 2 of the paper) places code, data and the
//! memory-mapped I/O regions in one low, dense span; the heap and stack
//! grow inside it. [`JetMemory`] mirrors that span — every page resident
//! at construction time, capped at [`MAX_FLAT_BYTES`] — into a single
//! `Vec<u8>`, so the common case of a word access is one bounds check
//! and one unaligned load instead of a `HashMap` page probe. Accesses
//! outside the mirror (sparse scratch writes from generated campaign
//! programs, the 4 GiB wrap cases) are routed, *per byte*, to a clone of
//! the reference memory, which keeps the semantics identical by
//! construction.
//!
//! Each mirrored page carries a *dirty* flag, set by every store into
//! it. A clean mirrored page still holds what the sparse clone holds
//! for it (its construction-time contents, or nothing), so the
//! write-back in [`JetMemory::to_memory`] — what every checkpoint
//! capture pays — installs only the dirty pages over that clone and
//! costs in proportion to the pages a run has stored to, not to the
//! mirror span (which reaches from the lowest resident page to the
//! code, ≈52 MiB for a real image).
//!
//! Self-modifying-code support lives here too: pages of the mirror that
//! cached blocks were decoded from are flagged [`code`](JetMemory::flag_code_pages),
//! and every store into a flagged page bumps that page's generation
//! counter plus a global write tick. The engine snapshots generations at
//! decode time and re-validates on block entry; the tick lets it notice
//! a store into the *currently executing* block without re-checking
//! generations after every instruction kind.

use ag32::Memory;

/// Cap on the flat mirror: 64 MiB (16 Ki pages). Larger resident spans
/// keep the low pages mirrored and serve the rest from the sparse side.
pub const MAX_FLAT_BYTES: usize = 64 << 20;

const PAGE_SIZE: usize = Memory::PAGE_SIZE;
const PAGE_SHIFT: u32 = Memory::PAGE_SHIFT;

/// The hybrid flat/sparse memory used by the [`Jet`](crate::Jet) engine.
///
/// Invariant: a mirrored page whose `dirty` flag is clear has the same
/// contents in `flat` and in `outside`, so the write-back can skip it.
#[derive(Clone)]
pub struct JetMemory {
    /// Byte address of the first mirrored byte (page-aligned).
    flat_base: u32,
    /// The mirror; length is a multiple of the page size.
    flat: Vec<u8>,
    /// Per mirrored page: stored to since construction.
    dirty: Vec<bool>,
    /// Per mirrored page: does any cached block decode from it?
    code_page: Vec<bool>,
    /// Per mirrored page: generation, bumped on each store into a
    /// code-flagged page.
    page_gen: Vec<u32>,
    /// Bumped on every store into any code-flagged page.
    code_write_tick: u64,
    /// Reference sparse memory for everything outside the mirror.
    outside: Memory,
}

impl JetMemory {
    /// Builds the mirror over the contiguous page span covering `mem`'s
    /// resident pages (capped at [`MAX_FLAT_BYTES`]) and keeps a sparse
    /// clone for the rest.
    #[must_use]
    pub fn new(mem: &Memory) -> Self {
        let ids = mem.resident_page_ids();
        let (flat_base, n_pages) = match (ids.first(), ids.last()) {
            (Some(&lo), Some(&hi)) => {
                let max_pages = (MAX_FLAT_BYTES >> PAGE_SHIFT) as u32;
                let span = (hi - lo + 1).min(max_pages);
                (lo << PAGE_SHIFT, span as usize)
            }
            _ => (0, 0),
        };
        let mut flat = vec![0u8; n_pages * PAGE_SIZE];
        for &id in &ids {
            let rel = (id as u64) - u64::from(flat_base >> PAGE_SHIFT);
            if (rel as usize) < n_pages {
                let off = rel as usize * PAGE_SIZE;
                let page = mem.page(id).expect("resident page");
                flat[off..off + PAGE_SIZE].copy_from_slice(page);
            }
        }
        JetMemory {
            flat_base,
            flat,
            dirty: vec![false; n_pages],
            code_page: vec![false; n_pages],
            page_gen: vec![0; n_pages],
            code_write_tick: 0,
            outside: mem.clone(),
        }
    }

    /// The mirrored page index of `addr`, when `addr` is in the mirror.
    #[inline]
    #[must_use]
    pub fn flat_page_of(&self, addr: u32) -> Option<usize> {
        let rel = addr.wrapping_sub(self.flat_base) as usize;
        if rel < self.flat.len() {
            Some(rel >> PAGE_SHIFT)
        } else {
            None
        }
    }

    /// Whether a whole word at `addr` lies inside the mirror.
    #[inline]
    #[must_use]
    pub fn flat_contains_word(&self, addr: u32) -> bool {
        let rel = addr.wrapping_sub(self.flat_base) as usize;
        rel < self.flat.len() && self.flat.len() - rel >= 4
    }

    /// Flags every mirrored page in `[first, last]` (page indices) as
    /// holding decoded code. Flagging does not bump generations.
    pub fn flag_code_pages(&mut self, first: usize, last: usize) {
        for p in first..=last.min(self.code_page.len().saturating_sub(1)) {
            self.code_page[p] = true;
        }
    }

    /// The generation counter of mirrored page `page`.
    #[must_use]
    pub fn page_gen(&self, page: usize) -> u32 {
        self.page_gen.get(page).copied().unwrap_or(0)
    }

    /// Monotone count of stores into code-flagged pages.
    #[must_use]
    pub fn code_write_tick(&self) -> u64 {
        self.code_write_tick
    }

    /// Store-path bookkeeping for mirrored byte offset `rel`: marks the
    /// page dirty and, when it holds decoded code, bumps its generation
    /// and the write tick.
    #[inline]
    fn note_write(&mut self, rel: usize) {
        let p = rel >> PAGE_SHIFT;
        self.dirty[p] = true;
        if self.code_page[p] {
            self.page_gen[p] = self.page_gen[p].wrapping_add(1);
            self.code_write_tick += 1;
        }
    }

    /// Reads one byte (mirror fast path, sparse fallback).
    #[inline]
    #[must_use]
    pub fn read_byte(&self, addr: u32) -> u8 {
        let rel = addr.wrapping_sub(self.flat_base) as usize;
        if rel < self.flat.len() {
            self.flat[rel]
        } else {
            self.outside.read_byte(addr)
        }
    }

    /// Writes one byte, bumping SMC bookkeeping when the byte lands in a
    /// code-flagged mirrored page.
    #[inline]
    pub fn write_byte(&mut self, addr: u32, value: u8) {
        let rel = addr.wrapping_sub(self.flat_base) as usize;
        if rel < self.flat.len() {
            self.flat[rel] = value;
            self.note_write(rel);
        } else {
            self.outside.write_byte(addr, value);
        }
    }

    /// Reads a little-endian word. Word accesses fully inside the mirror
    /// take the single-lookup fast path; everything else (mirror edges,
    /// 4 GiB wrap, sparse region) decomposes into byte reads, which match
    /// the reference semantics address by address.
    #[inline]
    #[must_use]
    pub fn read_word(&self, addr: u32) -> u32 {
        let rel = addr.wrapping_sub(self.flat_base) as usize;
        if rel < self.flat.len() && self.flat.len() - rel >= 4 {
            return u32::from_le_bytes(self.flat[rel..rel + 4].try_into().expect("4 bytes"));
        }
        u32::from_le_bytes([
            self.read_byte(addr),
            self.read_byte(addr.wrapping_add(1)),
            self.read_byte(addr.wrapping_add(2)),
            self.read_byte(addr.wrapping_add(3)),
        ])
    }

    /// Writes a little-endian word (fast path mirrors [`JetMemory::read_word`]).
    #[inline]
    pub fn write_word(&mut self, addr: u32, value: u32) {
        let rel = addr.wrapping_sub(self.flat_base) as usize;
        if rel < self.flat.len() && self.flat.len() - rel >= 4 {
            self.flat[rel..rel + 4].copy_from_slice(&value.to_le_bytes());
            self.note_write(rel);
            // A word is 4 bytes inside one 4 KiB page only when aligned;
            // the engine always aligns word accesses, but a misaligned
            // store could touch the next page too.
            let last = rel + 3;
            if last >> PAGE_SHIFT != rel >> PAGE_SHIFT {
                self.note_write(last);
            }
            return;
        }
        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
            self.write_byte(addr.wrapping_add(i as u32), b);
        }
    }

    /// Reads `len` bytes starting at `addr` (used by `Interrupt` to
    /// snapshot the I/O window).
    #[must_use]
    pub fn read_bytes(&self, addr: u32, len: u32) -> Vec<u8> {
        (0..len).map(|i| self.read_byte(addr.wrapping_add(i))).collect()
    }

    /// Reconstructs a reference [`Memory`] with the mirror's contents
    /// written back — the final-state view the shadow checker, the
    /// engine's [`to_state`](crate::Jet::to_state) and checkpoint capture
    /// use. Installs one whole page per dirty mirrored page over the
    /// sparse clone, which already holds every clean one.
    #[must_use]
    pub fn to_memory(&self) -> Memory {
        let mut out = self.outside.clone();
        let base = self.flat_base >> PAGE_SHIFT;
        for (p, page) in self.flat.chunks_exact(PAGE_SIZE).enumerate() {
            if self.dirty[p] {
                out.write_page(base + p as u32, page.try_into().expect("whole page"));
            }
        }
        out
    }
}

impl std::fmt::Debug for JetMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JetMemory")
            .field("flat_base", &self.flat_base)
            .field("flat_len", &self.flat.len())
            .field("code_write_tick", &self.code_write_tick)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrors_resident_span_and_routes_outside() {
        let mut m = Memory::new();
        m.write_word(0x1000, 0xDEAD_BEEF);
        m.write_word(0x3FFC, 0x1234_5678);
        let mut jm = JetMemory::new(&m);
        assert_eq!(jm.read_word(0x1000), 0xDEAD_BEEF);
        assert_eq!(jm.read_word(0x3FFC), 0x1234_5678);
        // Outside the mirror: sparse semantics, including 4 GiB wrap.
        assert_eq!(jm.read_word(u32::MAX - 1), 0);
        jm.write_word(u32::MAX - 1, 0xAABB_CCDD);
        assert_eq!(jm.read_word(u32::MAX - 1), 0xAABB_CCDD);
        assert_eq!(jm.read_byte(0), 0xBB, "wrapped high byte lands at 0, outside mirror");
        let back = jm.to_memory();
        assert_eq!(back.read_word(0x1000), 0xDEAD_BEEF);
        assert_eq!(back.read_word(u32::MAX - 1), 0xAABB_CCDD);
    }

    #[test]
    fn code_page_writes_bump_generation_and_tick() {
        let mut m = Memory::new();
        m.write_word(0x1000, 1);
        let mut jm = JetMemory::new(&m);
        let p = jm.flat_page_of(0x1000).expect("mirrored");
        let g0 = jm.page_gen(p);
        jm.write_word(0x1004, 7);
        assert_eq!(jm.page_gen(p), g0, "no bump before the page is flagged");
        jm.flag_code_pages(p, p);
        jm.write_word(0x1008, 7);
        assert_eq!(jm.page_gen(p), g0.wrapping_add(1));
        assert_eq!(jm.code_write_tick(), 1);
        jm.write_byte(0x1009, 1);
        assert_eq!(jm.code_write_tick(), 2);
    }

    #[test]
    fn writeback_matches_reference_semantics() {
        let mut m = Memory::new();
        m.write_word(0x2000, 0xFFFF_FFFF);
        let mut jm = JetMemory::new(&m);
        jm.write_word(0x2000, 0); // zero out the only nonzero word
        let back = jm.to_memory();
        assert_eq!(back, Memory::new(), "zeroed page equals absent page");
    }
}
