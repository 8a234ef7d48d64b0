//! The jet memory write-back as a property: random word and byte
//! stores applied to a [`JetMemory`] and to a reference
//! [`ag32::Memory`] leave `to_memory()` equal to the reference, with
//! the same nonzero pages (the pages a checkpoint serialises).
//!
//! The address generator aims at the places the touched-page
//! bookkeeping could go wrong: mirrored pages that were not resident at
//! construction, stores that zero a page again, misaligned words that
//! straddle a page or the mirror's edges, and addresses outside the
//! mirror up to the 4 GiB wrap.

use ag32::Memory;
use jet::JetMemory;
use testkit::prop::Ctx;

const PAGE: u32 = Memory::PAGE_SIZE as u32;
/// First and last resident page of the initial image: the mirror spans
/// `LO..=HI`, with pages in between left for the generator to decide.
const LO: u32 = 4;
const HI: u32 = 12;

/// An initial memory with both mirror ends resident, a random subset
/// of the pages between, some of them all-zero but resident, and a few
/// pages outside the span.
fn arb_memory(c: &mut Ctx) -> Memory {
    let mut m = Memory::new();
    for id in [LO, HI] {
        m.write_word(id * PAGE + 4 * c.gen_range(0..PAGE / 4), c.any::<u32>() | 1);
    }
    for id in LO + 1..HI {
        match c.choose(3) {
            0 => {}
            1 => m.write_word(id * PAGE + 4 * c.gen_range(0..PAGE / 4), c.any::<u32>()),
            _ => {
                // Resident but all zero.
                m.write_byte(id * PAGE, 1);
                m.write_byte(id * PAGE, 0);
            }
        }
    }
    if c.any_bool() {
        m.write_word(PAGE, c.any::<u32>());
    }
    if c.any_bool() {
        m.write_word(u32::MAX - 3, c.any::<u32>());
    }
    m
}

/// A store address. Offsets come from a small set so stores revisit
/// the same bytes and often zero them again.
fn arb_addr(c: &mut Ctx) -> u32 {
    let offset = [0, 1, 2, 3, 4, 0x800, PAGE - 4, PAGE - 3, PAGE - 2, PAGE - 1][c.choose(10)];
    match c.choose(5) {
        // Anywhere in the mirror, including never-resident pages.
        0 | 1 => (LO + c.gen_range(0..=HI - LO)) * PAGE + offset,
        // Straddling the mirror's low or high edge.
        2 => [LO * PAGE, (HI + 1) * PAGE][c.choose(2)].wrapping_sub(1 + c.choose(3) as u32),
        // Outside the mirror, below and above it.
        3 => [0, PAGE, (HI + 1) * PAGE, (HI + 7) * PAGE][c.choose(4)] + offset,
        // The 4 GiB wrap.
        _ => u32::MAX - c.choose(4) as u32,
    }
}

fn arb_value(c: &mut Ctx) -> u32 {
    if c.choose(3) == 0 {
        0
    } else {
        c.any::<u32>()
    }
}

testkit::props! {
    /// `to_memory` equals the reference memory after any mix of stores.
    fn writeback_equals_reference_memory(ctx) {
        let mut reference = arb_memory(ctx);
        let mut jm = JetMemory::new(&reference);
        let stores = ctx.gen_range(0..64usize);
        for _ in 0..stores {
            let addr = arb_addr(ctx);
            match ctx.choose(3) {
                0 => {
                    let v = arb_value(ctx);
                    jm.write_word(addr, v);
                    reference.write_word(addr, v);
                }
                1 => {
                    let v = arb_value(ctx) as u8;
                    jm.write_byte(addr, v);
                    reference.write_byte(addr, v);
                }
                _ => {
                    // Zero the whole page again, word by word.
                    let base = addr & !(PAGE - 1);
                    for off in (0..PAGE).step_by(4) {
                        jm.write_word(base + off, 0);
                        reference.write_word(base + off, 0);
                    }
                }
            }
            assert_eq!(jm.read_word(addr), reference.read_word(addr), "read-back at {addr:#x}");
        }
        let back = jm.to_memory();
        assert!(back == reference, "write-back differs from the reference memory");
        assert_eq!(back.nonzero_resident_page_ids(), reference.nonzero_resident_page_ids());
    }
}
