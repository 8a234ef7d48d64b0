//! Deterministic, versioned, byte-stable run checkpoints.
//!
//! A snapshot is the whole observable machine at a retire boundary —
//! architectural state, sparse memory, the I/O-event trace, the retire
//! count and per-opcode stats, and optionally the interpreter-level
//! filesystem model — serialised so that *a resumed run is
//! indistinguishable from an uninterrupted one*. That is the paper's
//! layer-equivalence claim restated over serialised state: a checkpoint
//! taken under the reference interpreter may be resumed under the jet
//! translation-cache engine and vice versa (theorem J survives a trip
//! through bytes), which `tests/snapshot_roundtrip.rs` and the `t-snap`
//! campaign target check continuously.
//!
//! # Format v1
//!
//! All integers are little-endian; there are no pointers, no
//! timestamps, and no host-dependent ordering (sparse-memory pages and
//! file names are written sorted).
//!
//! ```text
//! [0..8)    magic  b"SILVSNAP"
//! [8..12)   u32 format version (currently 1)
//! [12..20)  u64 FNV-1a checksum of every byte after this field
//! [20..24)  u32 section count
//! then      count × { tag: 4 ASCII bytes, u64 offset, u64 len }
//! then      the section payloads (offsets are absolute)
//! ```
//!
//! Sections, in canonical order:
//!
//! | tag    | payload |
//! |--------|---------|
//! | `CPU ` | pc, data_in, data_out, io_window base+len (u32 each), flags u8 (bit 0 carry, bit 1 overflow), 3 zero pad, 64 × u32 registers |
//! | `MEM ` | u32 page count, then per page (strictly ascending ids, all-zero pages omitted): u32 id + 4096 bytes |
//! | `IOEV` | u32 event count, then per event: u32 data_out, u32 window len + bytes |
//! | `RUN ` | u64 retire count, u8 engine (0 = ref, 1 = jet), 7 zero pad |
//! | `STAT` | u32 opcode count (= 16), then per opcode a u64 retire counter |
//! | `FS  ` | optional; `basis::snap::encode_fs` payload |
//!
//! Omitting all-zero pages is what makes capture deterministic: the
//! reference interpreter and the jet engine may materialise different
//! zero pages along the way (allocation history differs), but their
//! *semantic* memories agree, so both sides serialise to identical
//! bytes — asserted by the `t-snap` target on every case.
//!
//! The accelerator hook (`State::accel`, a bare `fn` pointer) is
//! deliberately *not* serialised: a pointer is meaningless across
//! processes. [`Snapshot::restore`] installs the identity accelerator
//! (the [`ag32::State::new`] default); programs using a custom
//! accelerator must re-install it after restore.

use std::path::Path;

use ag32::{ExecStats, IoEvent, Memory, Opcode, State};
use basis::FsState;
use jet::Jet;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"SILVSNAP";

/// Current format version. Bump deliberately; the golden-fixture test
/// `tests/snapshot_golden.rs` pins the byte format per version.
pub const VERSION: u32 = 1;

const TAG_CPU: [u8; 4] = *b"CPU ";
const TAG_MEM: [u8; 4] = *b"MEM ";
const TAG_IOEV: [u8; 4] = *b"IOEV";
const TAG_RUN: [u8; 4] = *b"RUN ";
const TAG_STAT: [u8; 4] = *b"STAT";
const TAG_FS: [u8; 4] = *b"FS  ";

/// Every way a snapshot can fail to load (or be written). Corrupt
/// input of any shape — truncated, bit-flipped, wrong magic, wrong
/// version, garbage sections — is a typed error, never a panic.
#[derive(Debug)]
pub enum SnapshotError {
    /// The first 8 bytes are not [`MAGIC`].
    BadMagic,
    /// The format version is not one this build reads.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The checksum over the body does not match the header.
    Checksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum recomputed over the body.
        found: u64,
    },
    /// The input ends before the named part is complete.
    Truncated {
        /// Which part of the format ran out of bytes.
        section: &'static str,
    },
    /// The section table is malformed (bad bounds, duplicate or
    /// unknown tags, overlapping entries).
    Table {
        /// Human-readable description.
        detail: String,
    },
    /// A mandatory section is absent.
    MissingSection {
        /// Tag of the missing section.
        tag: &'static str,
    },
    /// A section payload fails validation.
    Corrupt {
        /// Which section.
        section: &'static str,
        /// Human-readable description.
        detail: String,
    },
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::BadVersion { found } => {
                write!(f, "unsupported snapshot format version {found} (this build reads {VERSION})")
            }
            SnapshotError::Checksum { expected, found } => write!(
                f,
                "snapshot checksum mismatch (header {expected:#018x}, body {found:#018x}) — file corrupted"
            ),
            SnapshotError::Truncated { section } => {
                write!(f, "snapshot truncated in {section}")
            }
            SnapshotError::Table { detail } => write!(f, "bad snapshot section table: {detail}"),
            SnapshotError::MissingSection { tag } => {
                write!(f, "snapshot is missing mandatory section {tag:?}")
            }
            SnapshotError::Corrupt { section, detail } => {
                write!(f, "corrupt snapshot section {section}: {detail}")
            }
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Which engine wrote the checkpoint. Informational: either engine can
/// resume either snapshot (that is the point), but triage wants to know
/// the provenance of a checkpoint it is replaying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapEngine {
    /// The reference interpreter (`ag32::State::next`).
    Ref,
    /// The jet translation-cache engine.
    Jet,
}

impl SnapEngine {
    /// `"ref"` or `"jet"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SnapEngine::Ref => "ref",
            SnapEngine::Jet => "jet",
        }
    }
}

/// A run checkpoint: everything needed to resume on either engine.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The captured machine state (reference-interpreter form; jet
    /// captures go through [`Jet::to_state`], which writes the resident
    /// mirror back into sparse memory first).
    pub state: State,
    /// Which engine the checkpoint was taken under.
    pub engine: SnapEngine,
    /// Interpreter-level filesystem model, for oracle-stepped runs.
    /// Machine-level runs (everything `silverc` executes) keep the
    /// external world inside memory + `io_events`, so this stays
    /// `None` there.
    pub fs: Option<FsState>,
}

/// FNV-1a over `bytes` — the snapshot body checksum. Public so the
/// corrupt-input tests can re-seal a deliberately damaged section and
/// reach the inner decoders.
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn enc_cpu(s: &State) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + 4 * ag32::NUM_REGS);
    put_u32(&mut out, s.pc);
    put_u32(&mut out, s.data_in);
    put_u32(&mut out, s.data_out);
    put_u32(&mut out, s.io_window.0);
    put_u32(&mut out, s.io_window.1);
    out.push(u8::from(s.carry) | (u8::from(s.overflow) << 1));
    out.extend_from_slice(&[0u8; 3]);
    for r in s.regs {
        put_u32(&mut out, r);
    }
    out
}

fn enc_mem(mem: &Memory) -> Vec<u8> {
    let ids = mem.nonzero_resident_page_ids();
    let mut out = Vec::with_capacity(4 + ids.len() * (4 + Memory::PAGE_SIZE));
    put_u32(&mut out, ids.len() as u32);
    for id in ids {
        put_u32(&mut out, id);
        out.extend_from_slice(mem.page(id).expect("nonzero page is resident"));
    }
    out
}

fn enc_ioev(events: &[IoEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, events.len() as u32);
    for ev in events {
        put_u32(&mut out, ev.data_out);
        put_u32(&mut out, ev.window.len() as u32);
        out.extend_from_slice(&ev.window);
    }
    out
}

fn enc_run(retired: u64, engine: SnapEngine) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    put_u64(&mut out, retired);
    out.push(match engine {
        SnapEngine::Ref => 0,
        SnapEngine::Jet => 1,
    });
    out.extend_from_slice(&[0u8; 7]);
    out
}

fn enc_stat(stats: &ExecStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 * Opcode::COUNT);
    put_u32(&mut out, Opcode::COUNT as u32);
    for &n in &stats.opcode_retired {
        put_u64(&mut out, n);
    }
    out
}

/// Bounds-checked little-endian cursor over one section's payload.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Rd { buf, pos: 0, section }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapshotError::Truncated { section: self.section })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn pad_zero(&mut self, n: usize) -> Result<(), SnapshotError> {
        if self.take(n)?.iter().any(|&b| b != 0) {
            return Err(self.corrupt("nonzero padding"));
        }
        Ok(())
    }

    fn done(&self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::Corrupt {
                section: self.section,
                detail: format!("{} trailing bytes", self.buf.len() - self.pos),
            });
        }
        Ok(())
    }

    fn corrupt(&self, detail: impl Into<String>) -> SnapshotError {
        SnapshotError::Corrupt { section: self.section, detail: detail.into() }
    }
}

fn dec_cpu(buf: &[u8], s: &mut State) -> Result<(), SnapshotError> {
    let mut r = Rd::new(buf, "CPU");
    s.pc = r.u32()?;
    s.data_in = r.u32()?;
    s.data_out = r.u32()?;
    s.io_window = (r.u32()?, r.u32()?);
    let flags = r.u8()?;
    if flags & !0b11 != 0 {
        return Err(r.corrupt(format!("unknown flag bits {flags:#04x}")));
    }
    s.carry = flags & 1 != 0;
    s.overflow = flags & 2 != 0;
    r.pad_zero(3)?;
    for i in 0..ag32::NUM_REGS {
        s.regs[i] = r.u32()?;
    }
    r.done()
}

fn dec_mem(buf: &[u8], mem: &mut Memory) -> Result<(), SnapshotError> {
    let mut r = Rd::new(buf, "MEM");
    let count = r.u32()?;
    let max_page = (1u64 << 32) >> Memory::PAGE_SHIFT;
    let mut prev: Option<u32> = None;
    for _ in 0..count {
        let id = r.u32()?;
        if u64::from(id) >= max_page {
            return Err(r.corrupt(format!("page id {id:#x} beyond 4 GiB")));
        }
        if prev.is_some_and(|p| id <= p) {
            return Err(r.corrupt(format!("page ids not strictly ascending at {id:#x}")));
        }
        prev = Some(id);
        let bytes: &[u8; Memory::PAGE_SIZE] =
            r.take(Memory::PAGE_SIZE)?.try_into().expect("exact page");
        mem.write_page(id, bytes);
    }
    r.done()
}

fn dec_ioev(buf: &[u8]) -> Result<Vec<IoEvent>, SnapshotError> {
    let mut r = Rd::new(buf, "IOEV");
    let count = r.u32()?;
    let mut events = Vec::new();
    for _ in 0..count {
        let data_out = r.u32()?;
        let len = r.u32()? as usize;
        events.push(IoEvent { data_out, window: r.take(len)?.to_vec() });
    }
    r.done()?;
    Ok(events)
}

fn dec_run(buf: &[u8]) -> Result<(u64, SnapEngine), SnapshotError> {
    let mut r = Rd::new(buf, "RUN");
    let retired = r.u64()?;
    let engine = match r.u8()? {
        0 => SnapEngine::Ref,
        1 => SnapEngine::Jet,
        e => return Err(r.corrupt(format!("unknown engine byte {e:#04x}"))),
    };
    r.pad_zero(7)?;
    r.done()?;
    Ok((retired, engine))
}

fn dec_stat(buf: &[u8]) -> Result<ExecStats, SnapshotError> {
    let mut r = Rd::new(buf, "STAT");
    let count = r.u32()? as usize;
    if count != Opcode::COUNT {
        return Err(r.corrupt(format!("opcode count {count} (this build has {})", Opcode::COUNT)));
    }
    let mut stats = ExecStats::default();
    for slot in &mut stats.opcode_retired {
        *slot = r.u64()?;
    }
    r.done()?;
    Ok(stats)
}

impl Snapshot {
    /// Checkpoints the reference interpreter.
    #[must_use]
    pub fn capture(state: &State) -> Snapshot {
        Snapshot { state: state.clone(), engine: SnapEngine::Ref, fs: None }
    }

    /// Checkpoints the jet engine, via [`Jet::to_state`] (which writes
    /// the flat resident mirror back into sparse memory — so a jet
    /// capture of an equivalent run serialises to exactly the bytes a
    /// reference capture does). The write-back copies only the mirrored
    /// pages stored to since the engine was built, so a capture costs
    /// microseconds, not a scan of the whole mirror.
    #[must_use]
    pub fn capture_jet(jet: &Jet) -> Snapshot {
        Snapshot { state: jet.to_state(), engine: SnapEngine::Jet, fs: None }
    }

    /// Attaches the interpreter-level filesystem model.
    #[must_use]
    pub fn with_fs(mut self, fs: FsState) -> Snapshot {
        self.fs = Some(fs);
        self
    }

    /// The retire count the checkpoint was taken at.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.state.instructions_retired
    }

    /// A fresh reference-interpreter state ready to resume. The
    /// accelerator hook is reset to the identity function (see the
    /// module docs — `fn` pointers do not serialise).
    #[must_use]
    pub fn restore(&self) -> State {
        let mut s = self.state.clone();
        s.accel = State::new().accel;
        s
    }

    /// A fresh jet engine ready to resume. The translation cache starts
    /// empty and rebuilds lazily — cache contents are an acceleration
    /// detail, not machine state, which is why cross-engine resume is
    /// sound.
    #[must_use]
    pub fn restore_jet(&self) -> Jet {
        Jet::from_state(&self.restore())
    }

    /// Serialises to format v1 bytes. Deterministic: equal observable
    /// states produce identical bytes, on any host, under either
    /// capturing engine.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut sections: Vec<([u8; 4], Vec<u8>)> = vec![
            (TAG_CPU, enc_cpu(&self.state)),
            (TAG_MEM, enc_mem(&self.state.mem)),
            (TAG_IOEV, enc_ioev(&self.state.io_events)),
            (TAG_RUN, enc_run(self.state.instructions_retired, self.engine)),
            (TAG_STAT, enc_stat(&self.state.stats)),
        ];
        if let Some(fs) = &self.fs {
            sections.push((TAG_FS, basis::snap::encode_fs(fs)));
        }

        let table_end = 24 + sections.len() * 20;
        let body: usize = sections.iter().map(|(_, p)| p.len()).sum();
        let mut out = Vec::with_capacity(table_end + body);
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, VERSION);
        put_u64(&mut out, 0); // checksum, patched below
        put_u32(&mut out, sections.len() as u32);
        let mut off = table_end as u64;
        for (tag, payload) in &sections {
            out.extend_from_slice(tag);
            put_u64(&mut out, off);
            put_u64(&mut out, payload.len() as u64);
            off += payload.len() as u64;
        }
        for (_, payload) in &sections {
            out.extend_from_slice(payload);
        }
        let sum = checksum64(&out[20..]);
        out[12..20].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parses format v1 bytes.
    ///
    /// # Errors
    ///
    /// A [`SnapshotError`] naming exactly what is wrong — magic,
    /// version, checksum, table, or the first corrupt section.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < 24 {
            if bytes.len() >= 8 && bytes[..8] != MAGIC {
                return Err(SnapshotError::BadMagic);
            }
            return Err(SnapshotError::Truncated { section: "header" });
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(SnapshotError::BadVersion { found: version });
        }
        let expected = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let found = checksum64(&bytes[20..]);
        if expected != found {
            return Err(SnapshotError::Checksum { expected, found });
        }

        let count = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes")) as usize;
        let table_end = 24usize
            .checked_add(count.checked_mul(20).ok_or(SnapshotError::Table {
                detail: "section count overflows".to_string(),
            })?)
            .ok_or(SnapshotError::Table { detail: "section count overflows".to_string() })?;
        if table_end > bytes.len() {
            return Err(SnapshotError::Truncated { section: "section table" });
        }

        let mut seen: Vec<[u8; 4]> = Vec::new();
        let mut cpu = None;
        let mut mem = None;
        let mut ioev = None;
        let mut run = None;
        let mut stat = None;
        let mut fs = None;
        for i in 0..count {
            let entry = &bytes[24 + i * 20..24 + (i + 1) * 20];
            let tag: [u8; 4] = entry[..4].try_into().expect("4 bytes");
            let off = u64::from_le_bytes(entry[4..12].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(entry[12..20].try_into().expect("8 bytes"));
            let end = off.checked_add(len).filter(|&e| e <= bytes.len() as u64).ok_or_else(
                || SnapshotError::Table {
                    detail: format!(
                        "section {:?} [{off}, +{len}) exceeds file of {} bytes",
                        String::from_utf8_lossy(&tag),
                        bytes.len()
                    ),
                },
            )?;
            if off < table_end as u64 {
                return Err(SnapshotError::Table {
                    detail: format!(
                        "section {:?} overlaps the header",
                        String::from_utf8_lossy(&tag)
                    ),
                });
            }
            if seen.contains(&tag) {
                return Err(SnapshotError::Table {
                    detail: format!("duplicate section {:?}", String::from_utf8_lossy(&tag)),
                });
            }
            seen.push(tag);
            let payload = &bytes[off as usize..end as usize];
            match tag {
                TAG_CPU => cpu = Some(payload),
                TAG_MEM => mem = Some(payload),
                TAG_IOEV => ioev = Some(payload),
                TAG_RUN => run = Some(payload),
                TAG_STAT => stat = Some(payload),
                TAG_FS => fs = Some(payload),
                _ => {
                    return Err(SnapshotError::Table {
                        detail: format!("unknown section {:?}", String::from_utf8_lossy(&tag)),
                    })
                }
            }
        }

        let mut state = State::new();
        dec_cpu(cpu.ok_or(SnapshotError::MissingSection { tag: "CPU " })?, &mut state)?;
        dec_mem(mem.ok_or(SnapshotError::MissingSection { tag: "MEM " })?, &mut state.mem)?;
        state.io_events = dec_ioev(ioev.ok_or(SnapshotError::MissingSection { tag: "IOEV" })?)?;
        let (retired, engine) =
            dec_run(run.ok_or(SnapshotError::MissingSection { tag: "RUN " })?)?;
        state.instructions_retired = retired;
        state.stats = dec_stat(stat.ok_or(SnapshotError::MissingSection { tag: "STAT" })?)?;
        let fs = match fs {
            Some(payload) => Some(basis::snap::decode_fs(payload).map_err(|detail| {
                SnapshotError::Corrupt { section: "FS", detail }
            })?),
            None => None,
        };
        Ok(Snapshot { state, engine, fs })
    }

    /// Writes the snapshot to `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the write fails.
    pub fn write_to(&self, path: &Path) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Writes the snapshot via a `.tmp` sibling plus rename, so a crash
    /// mid-write never leaves a torn checkpoint where the previous good
    /// one was — the rolling-checkpoint write path.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the write or rename fails.
    pub fn write_rolling(&self, path: &Path) -> Result<(), SnapshotError> {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "checkpoint.snap".to_string());
        let tmp = path.with_file_name(format!("{name}.tmp"));
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when reading fails, otherwise whatever
    /// [`Snapshot::from_bytes`] reports.
    pub fn read_from(path: &Path) -> Result<Snapshot, SnapshotError> {
        Snapshot::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag32::asm::Assembler;
    use ag32::{Func, Reg, Ri};

    /// A program exercising memory, flags, I/O ports and interrupts.
    fn busy_state() -> State {
        let mut a = Assembler::new(0);
        let r = Reg::new;
        a.li(r(1), 0xDEAD);
        a.li(r(2), 0x2000);
        a.instr(ag32::Instr::StoreMem { a: Ri::Reg(r(1)), b: Ri::Reg(r(2)) });
        a.normal(Func::Add, r(3), Ri::Reg(r(1)), Ri::Reg(r(1)));
        a.instr(ag32::Instr::Out { func: Func::Snd, w: r(3), a: Ri::Imm(0), b: Ri::Reg(r(3)) });
        a.instr(ag32::Instr::Interrupt);
        a.instr(ag32::Instr::In { w: r(4) });
        a.halt(r(5));
        let mut s = State::new();
        s.mem.write_bytes(0, &a.assemble().expect("assembles"));
        s.data_in = 0x5511;
        s.io_window = (0x2000, 8);
        s.run(100);
        assert!(s.is_halted());
        assert!(!s.io_events.is_empty());
        s
    }

    #[test]
    fn roundtrip_is_lossless_and_deterministic() {
        let s = busy_state();
        let snap = Snapshot::capture(&s);
        let bytes = snap.to_bytes();
        assert_eq!(bytes, Snapshot::capture(&s).to_bytes(), "capture is deterministic");

        let back = Snapshot::from_bytes(&bytes).expect("decodes");
        assert_eq!(back.engine, SnapEngine::Ref);
        let restored = back.restore();
        assert!(restored.isa_visible_eq(&s));
        assert_eq!(restored.instructions_retired, s.instructions_retired);
        assert_eq!(restored.stats, s.stats);
        assert_eq!(back.to_bytes(), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn jet_and_ref_captures_serialise_identically() {
        let mut boot = busy_state();
        // Rewind to a fresh image: rebuild the same program state.
        boot = Snapshot::capture(&boot).restore();
        let ref_bytes = Snapshot::capture(&boot).to_bytes();
        let jet_bytes = Snapshot::capture_jet(&Jet::from_state(&boot)).to_bytes();
        // Engine provenance differs (RUN section), everything else must
        // agree — compare after normalising the engine byte.
        let ref_snap = Snapshot::from_bytes(&ref_bytes).unwrap();
        let jet_snap = Snapshot::from_bytes(&jet_bytes).unwrap();
        assert_eq!(jet_snap.engine, SnapEngine::Jet);
        assert!(ref_snap.state.isa_visible_eq(&jet_snap.state));
        assert_eq!(
            Snapshot { engine: SnapEngine::Ref, ..jet_snap }.to_bytes(),
            ref_bytes,
            "identical states serialise to identical bytes"
        );
    }

    #[test]
    fn fs_section_roundtrips() {
        let mut fs = FsState::stdin_only(&["prog"], b"stdin bytes");
        fs.write(1, b"partial stdout").unwrap();
        let snap = Snapshot::capture(&busy_state()).with_fs(fs.clone());
        let back = Snapshot::from_bytes(&snap.to_bytes()).expect("decodes");
        assert_eq!(back.fs.as_ref(), Some(&fs));
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let bytes = Snapshot::capture(&busy_state()).to_bytes();
        // Flip one bit in a selection of positions across the file;
        // every flip must surface as a typed error (the checksum covers
        // the body; header flips hit magic/version/checksum checks).
        for pos in (0..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[pos] ^= 1;
            Snapshot::from_bytes(&bad).expect_err("bit flip must be detected");
        }
    }

    #[test]
    fn restore_resets_accel_to_identity() {
        fn doubler(x: u32) -> u32 {
            x.wrapping_mul(2)
        }
        let mut s = busy_state();
        s.accel = doubler;
        let restored = Snapshot::capture(&s).restore();
        assert_eq!((restored.accel)(21), 21, "identity accelerator after restore");
    }
}
