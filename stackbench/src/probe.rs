//! The host-speed probe. The host's speed drifts by up to ≈2× in spells
//! that last minutes (see `BASELINE.md`), and moves every level of the
//! stack alike. So each workload times fixed work of its own next to the
//! stack's and reports its end-to-end timings divided by that work's
//! time: at a reference speed.
//!
//! The probe is the benchmark's own fixed code over the standard library,
//! with no call into the stack, so a change to the stack cannot move it: a
//! stack that gets slower reads slower by the same share. Code with a
//! large footprint (many branches, allocations, maps) slows more in the
//! host's slow spells than a tight loop does, so each workload's probe
//! does the kind of work that dominates it:
//!
//! * `serve-exec`, whose jobs spend ≈94% of their execution scanning
//!   memory in checkpoint capture, splits its run into segments and takes
//!   a reading of a tight loop at every boundary, while the service is
//!   idle ([`Speeds`]);
//! * `stack-levels`, whose calls compile and run interpreters and circuit
//!   simulators, has each caller time a slice of text, map and sorting
//!   work after every call ([`slice_ms`]), so the slices see the host as
//!   the calls do, the other caller busy with the stack.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::report::median;

/// A tight-loop round's time at the reference speed, ms: about its time
/// on the host `BASELINE.md` was measured on. A speed factor is a time
/// over its reference, so it only scales the figures.
const LOOP_REFERENCE_MS: f64 = 25.0;

/// A mixed slice's time at the reference speed, ms.
const SLICE_REFERENCE_MS: f64 = 3.0;

/// Rounds per reading; the reading is their fastest. A round's time
/// sits on a steady floor with short bursts above it, when another
/// tenant's work takes the core; the floor moves with the host's spells.
const ROUNDS: usize = 8;

/// Threads per round, one per core, as the workloads load both.
const THREADS: usize = 2;

/// The longest segment of a measured run, s.
const SEGMENT_S: u64 = 5;

/// The lengths of the segments a run of `seconds` is split into: equal,
/// none longer than `SEGMENT_S`.
pub fn segments(seconds: u64) -> Vec<Duration> {
    let n = seconds.div_ceil(SEGMENT_S).max(1);
    vec![Duration::from_secs_f64(seconds as f64 / n as f64); n as usize]
}

/// xorshift64.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One thread's tight loop: data-dependent loads and stores over a table
/// that fits the core's own caches, a branch on each loaded value, and
/// block copies. (A table larger than the core's caches made the
/// readings follow other tenants' memory traffic, which moved the stack
/// far less.)
fn tight_loop(seed: u64) -> u64 {
    const WORDS: usize = 1 << 15;
    const STEPS: usize = 1 << 23;
    let mut table: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9))
        .collect();
    let mut copy = vec![0u64; WORDS / 4];
    let mut x = seed | 1;
    let mut acc = 0u64;
    for step in 0..STEPS {
        next(&mut x);
        let i = (x as usize) & (WORDS - 1);
        let v = table[i];
        acc = if v & 1 == 0 {
            acc.rotate_left(5) ^ v
        } else {
            acc.wrapping_add(v >> 3)
        };
        table[i] = acc;
        if step % (STEPS / 16) == 0 {
            let from = (x as usize) % (WORDS - copy.len());
            let n = copy.len();
            copy.copy_from_slice(&table[from..from + n]);
            acc ^= copy[x as usize % n];
        }
    }
    acc
}

/// Mixed work: keys formatted, parsed back and kept in an ordered map
/// with range lookups and removals, then numbers sorted, printed as
/// decimals and parsed again.
fn mixed(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut map: BTreeMap<String, u64> = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..3_000u64 {
        let v = next(&mut x);
        let mut key = String::new();
        let _ = write!(key, "{:x}.{}", v % 100_000, i % 97);
        let back = key
            .split('.')
            .next()
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .unwrap_or(0);
        acc = acc.wrapping_add(back);
        map.insert(key, v);
        if i % 3 == 0 {
            let from = format!("{:x}.{}", next(&mut x) % 100_000, i % 97);
            if let Some(k) = map.range(from..).next().map(|(k, _)| k.clone()) {
                acc ^= map.remove(&k).unwrap_or(0);
            }
        }
    }
    let mut nums: Vec<u64> = (0..10_000).map(|_| next(&mut x) % 1_000_000).collect();
    nums.sort_unstable();
    for n in nums.iter().step_by(7) {
        let text = format!("{}", *n as f64 / 7.0);
        acc = acc.wrapping_add(text.parse::<f64>().map_or(0, |f| f as u64));
    }
    acc.wrapping_add(map.len() as u64)
}

/// Times one slice of mixed work on the calling thread, ms.
pub fn slice_ms(seed: u64) -> f64 {
    let t = Instant::now();
    std::hint::black_box(mixed(seed));
    t.elapsed().as_secs_f64() * 1e3
}

/// The speed factor of a run's slices: their median time over the
/// reference. Above 1 means slower than the reference.
pub fn slice_factor(slices: &[f64]) -> f64 {
    median(slices) / SLICE_REFERENCE_MS
}

/// One reading of the host's speed: the fastest of `ROUNDS` rounds of
/// the tight loop, `THREADS` at once, over its reference time. Above 1
/// means slower than the reference.
fn host_factor() -> f64 {
    let ms = (0..ROUNDS)
        .map(|round| {
            let t = Instant::now();
            std::thread::scope(|s| {
                let threads: Vec<_> = (0..THREADS)
                    .map(|k| {
                        s.spawn(move || {
                            std::hint::black_box(tight_loop((round * THREADS + k) as u64))
                        })
                    })
                    .collect();
                for h in threads {
                    h.join().expect("probe thread panicked");
                }
            });
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    ms / LOOP_REFERENCE_MS
}

/// Host-speed readings taken at the boundaries of a run's segments.
#[derive(Default)]
pub struct Speeds {
    readings: Vec<f64>,
}

impl Speeds {
    /// Takes a reading at the next boundary.
    pub fn read(&mut self) {
        self.readings.push(host_factor());
    }

    /// The run's speed factor: the median reading. A single reading
    /// strays by about ±10% from its neighbours, more than the stack's
    /// own speed does between segments, so no reading is applied alone.
    pub fn factor(&self) -> f64 {
        median(&self.readings)
    }

    /// Every reading, for the run's note.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}
