//! The sliced job executor: run a job in checkpoint-sized slices so a
//! worker stop interrupts *between* slices, hand back the last rolling
//! checkpoint, and let any worker resume it later — the in-memory form
//! of the `silverc --checkpoint/--resume` crash-resume contract (and
//! the job-migration gap PR 6 left for the service layer).
//!
//! Semantics mirror `silver_stack::Stack` exactly: fuel is total
//! retires from boot, a resume runs `fuel − snapshot.retired()` more,
//! classification is `basis::classify_exit` on the reference engine and
//! `basis::classify_exit_parts` on jet, so a migrated job is
//! byte-identical to an uninterrupted one (`tests/crash_resume.rs`
//! asserts this).

use ag32::{IoEvent, State};
use basis::{classify_exit, classify_exit_parts, extract_streams, ExitStatus};
use cakeml::TargetLayout;
use jet::Jet;
use silver::snapshot::Snapshot;

use crate::job::{JobOutcome, JobStatus, ServeEngine};

/// How a slice loop ended.
pub(crate) enum ExecEnd {
    /// Ran to completion (halt, wedge, or fuel exhaustion).
    Done(JobOutcome),
    /// Stopped cooperatively at a slice boundary; resume from this
    /// rolling checkpoint (a stop is only ever observed right after a
    /// capture, so there is always one).
    Killed(Box<Snapshot>),
}

/// Execution environment threaded through a slice loop.
pub(crate) struct SliceEnv<'a> {
    /// Memory layout for exit classification.
    pub layout: &'a TargetLayout,
    /// Slice length = rolling-checkpoint cadence, in retires.
    pub checkpoint_every: u64,
    /// Polled at every slice boundary; `true` interrupts the job.
    pub stop: &'a dyn Fn() -> bool,
    /// Called once per captured rolling checkpoint with the retire
    /// count it captured at.
    pub on_checkpoint: &'a dyn Fn(u64),
    /// Called once per executed slice with the retire counts at slice
    /// begin and end — the engine-level trace events (`SpanKind::Slice`
    /// with retire-count logical annotations).
    pub on_slice: &'a dyn Fn(u64, u64),
}

/// A finished slice loop: the exit verdict, the streams recovered from
/// the I/O events, and the retire count.
fn done(exit: ExitStatus, events: &[IoEvent], instructions: u64, engine: ServeEngine) -> ExecEnd {
    let (stdout, stderr) = extract_streams(events);
    let (status, message) = match exit {
        ExitStatus::Exited(c) => (JobStatus::Exited(c), String::new()),
        ExitStatus::OutOfFuel => (JobStatus::OutOfFuel, String::new()),
        ExitStatus::Wedged => (JobStatus::Wedged, String::new()),
        ExitStatus::FfiFailed(detail) => (JobStatus::FfiFailed, detail),
    };
    ExecEnd::Done(JobOutcome {
        job_id: 0,
        status,
        message,
        stdout,
        stderr,
        instructions,
        engine,
        cached: false,
        shadowed: false,
        migrations: 0,
    })
}

/// Runs `state` on the reference interpreter up to `fuel` total retires
/// (the state may already carry a resumed prefix), capturing a rolling
/// checkpoint every slice.
pub(crate) fn run_ref_sliced(env: &SliceEnv<'_>, mut state: State, fuel: u64) -> ExecEnd {
    loop {
        let remaining = fuel.saturating_sub(state.instructions_retired);
        if remaining == 0 || state.is_halted() {
            break;
        }
        let chunk = env.checkpoint_every.min(remaining);
        let before = state.instructions_retired;
        let n = state.run(chunk);
        (env.on_slice)(before, state.instructions_retired);
        if state.is_halted() || n < chunk {
            break;
        }
        let snap = Snapshot::capture(&state);
        (env.on_checkpoint)(state.instructions_retired);
        if (env.stop)() {
            return ExecEnd::Killed(Box::new(snap));
        }
    }
    let exit = classify_exit(&state, env.layout, state.instructions_retired < fuel);
    done(exit, &state.io_events, state.instructions_retired, ServeEngine::Ref)
}

/// [`run_ref_sliced`], on the jet engine. Classification is the
/// reference path's, through [`classify_exit_parts`].
pub(crate) fn run_jet_sliced(env: &SliceEnv<'_>, mut j: Jet, fuel: u64) -> ExecEnd {
    loop {
        let remaining = fuel.saturating_sub(j.instructions_retired);
        if remaining == 0 || j.is_halted() {
            break;
        }
        let chunk = env.checkpoint_every.min(remaining);
        let before = j.instructions_retired;
        let n = j.run(chunk);
        (env.on_slice)(before, j.instructions_retired);
        if j.is_halted() || n < chunk {
            break;
        }
        let snap = Snapshot::capture_jet(&j);
        (env.on_checkpoint)(j.instructions_retired);
        if (env.stop)() {
            return ExecEnd::Killed(Box::new(snap));
        }
    }
    let fuel_left = j.instructions_retired < fuel;
    let code = j.mem().read_word(env.layout.exit_code_addr);
    let exit = classify_exit_parts(j.is_halted(), j.pc, code, env.layout, fuel_left);
    done(exit, &j.io_events, j.instructions_retired, ServeEngine::Jet)
}

/// Dispatches a fresh image or a restored checkpoint to the right
/// engine's slice loop.
pub(crate) fn run_sliced(
    env: &SliceEnv<'_>,
    start: Start,
    fuel: u64,
    engine: ServeEngine,
) -> ExecEnd {
    match (engine, start) {
        (ServeEngine::Ref, Start::Image(state)) => run_ref_sliced(env, *state, fuel),
        (ServeEngine::Ref, Start::Checkpoint(snap)) => run_ref_sliced(env, snap.restore(), fuel),
        (ServeEngine::Jet, Start::Image(state)) => {
            let j = Jet::from_state(&state);
            run_jet_sliced(env, j, fuel)
        }
        (ServeEngine::Jet, Start::Checkpoint(snap)) => run_jet_sliced(env, snap.restore_jet(), fuel),
    }
}

/// Where a slice loop starts from.
pub(crate) enum Start {
    /// A freshly built boot image.
    Image(Box<State>),
    /// A rolling checkpoint captured by an interrupted run.
    Checkpoint(Box<Snapshot>),
}
