//! Checkpoint costs on the jet engine: capture, restore and engine
//! construction on the paper's two heaviest ISA workloads (the R2
//! sort and R3 compile-gap shapes `engines.rs` also runs).
//!
//! The service checkpoints every job every `checkpoint_every` retires
//! (100k by default) so a job can migrate when its worker dies; this
//! bench times the three operations that contract costs:
//!
//! - `capture`: [`Snapshot::capture_jet`] after the first 100k retires,
//!   i.e. the jet memory write-back into a reference `Memory`;
//! - `restore`: [`Snapshot::restore_jet`] of that checkpoint;
//! - `from_state`: [`Jet::from_state`] on the boot image.
//!
//! For scale it also times the 100k-retire slice the capture protects.
//! Before anything is timed, the jet capture is checked against a
//! reference-interpreter capture at the same retire count: equal
//! memory, and identical bytes once the engine tag is normalised.
//!
//! Emits `BENCH_checkpoint.json` (suite `checkpoint`, one JSON line per
//! timed entry — see `EXPERIMENTS.md` for the line schema).

use bench::random_lines;
use jet::Jet;
use silver::snapshot::{SnapEngine, Snapshot};
use silver_stack::{apps, Stack};
use testkit::bench::Bench;

/// The service's default rolling-checkpoint cadence, in retires.
const SLICE: u64 = 100_000;

/// The mini-compiler input `engines.rs` and `compile_gap.rs` use.
fn big_expression() -> Vec<u8> {
    let mut e = String::from("1");
    for i in 2..400 {
        e.push_str(&format!(" + {} * ({} - 2)", i % 97, i % 13));
    }
    e.push('\n');
    e.into_bytes()
}

fn main() {
    let stack = Stack::new();
    let sort_input = random_lines(1000, 42);
    let gap_input = big_expression();
    let workloads: [(&str, &str, Vec<&str>, &[u8]); 2] = [
        ("sort_1000", apps::SORT, vec!["sort"], &sort_input),
        ("compile_gap", apps::MINI_COMPILER, vec!["minicc"], &gap_input),
    ];

    let mut b = Bench::new("checkpoint").sample_size(10).warmup(2);
    eprintln!("--- jet checkpoints: capture / restore / from_state ---");
    for (name, src, args, stdin) in workloads {
        let compiled = stack.compile(src).expect("compiles");
        let image = stack.load(&compiled, &args, stdin).expect("image");

        let mut j = Jet::from_state(&image);
        assert_eq!(j.run(SLICE), SLICE, "{name} must run past the first checkpoint");
        let mut reference = image.clone();
        assert_eq!(reference.run(SLICE), SLICE);

        // Correctness gate: the jet capture is the reference capture.
        let snap = Snapshot::capture_jet(&j);
        assert_eq!(snap.state.mem, reference.mem, "{name}: captured memory");
        assert_eq!(
            Snapshot { engine: SnapEngine::Ref, ..snap.clone() }.to_bytes(),
            Snapshot::capture(&reference).to_bytes(),
            "{name}: serialised bytes"
        );

        let capture_ns =
            b.bench(&format!("{name}_capture"), || Snapshot::capture_jet(&j)).median_ns;
        let restore_ns = b.bench(&format!("{name}_restore"), || snap.restore_jet()).median_ns;
        let from_state_ns =
            b.bench(&format!("{name}_from_state"), || Jet::from_state(&image)).median_ns;
        let slice_ns = b
            .bench(&format!("{name}_slice"), || {
                let mut k = snap.restore_jet();
                k.run(SLICE)
            })
            .median_ns
            - restore_ns;

        eprintln!("{name}: checkpoint at retire {SLICE}");
        eprintln!("  capture    : {}", testkit::bench::fmt_ns(capture_ns));
        eprintln!("  restore    : {}", testkit::bench::fmt_ns(restore_ns));
        eprintln!("  from_state : {}", testkit::bench::fmt_ns(from_state_ns));
        eprintln!("  capture / {SLICE}-retire slice : {:.2}", capture_ns / slice_ns.max(1.0));
    }
    b.finish();
}
