//! The verified stack, assembled: compile → load → run at any level.

use std::fmt;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

use std::path::Path;

use ag32::State;
use basis::{
    build_image, classify_exit, classify_exit_parts, extract_streams, run_to_halt, ExitStatus,
    ImageError,
};
use cakeml::{CompileError, CompiledProgram, CompilerConfig, TargetLayout};
use obs::CycleProfiler;
use silver::env::{Latency, MemEnvConfig};
use silver::lockstep::LockstepError;
use silver::snapshot::{Snapshot, SnapshotError};
use silver::trace::{PcSampler, RtlVcd, VerilogVcd};

/// Checkpoint cadence used when [`RunConfig::checkpoint`] names a file
/// but no interval was chosen.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1_000_000;

/// Which layer of Figure 1 executes the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The Silver ISA (`Next`), layer 2.
    Isa,
    /// The circuit-level CPU implementation, layer 3.
    Rtl,
    /// The generated deep-embedded Verilog, layer 4.
    Verilog,
}

/// Which *implementation* of the ISA layer executes the program when
/// [`Backend::Isa`] is selected. Both implement the same `Next`
/// semantics; [`Engine::Jet`] trades the step-at-a-time reference
/// interpreter for a predecoded translation cache (theorem J: jet ≡
/// Next, checkable at runtime via [`RunConfig::shadow`]). The hardware
/// backends ignore this field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The reference interpreter (`ag32::State::next`), one decoded
    /// instruction at a time. The specification-side engine.
    #[default]
    Ref,
    /// The [`jet`] translation-cache engine: decode once per basic
    /// block, execute lowered ops, invalidate on self-modifying stores.
    Jet,
}

impl Engine {
    /// Stable lower-case name used by `silverc --engine` and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Ref => "ref",
            Engine::Jet => "jet",
        }
    }
}

/// Execution limits and environment behaviour.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Maximum ISA instructions (ISA backend).
    pub fuel: u64,
    /// Maximum clock cycles (circuit/Verilog backends).
    pub max_cycles: u64,
    /// Lab-environment behaviour for the hardware backends.
    pub env: MemEnvConfig,
    /// ISA-layer implementation ([`Backend::Isa`] only).
    pub engine: Engine,
    /// Shadow-mode differential checking for [`Engine::Jet`]:
    /// `Some(1)` runs the reference interpreter in lockstep and
    /// compares the full architectural state after every retire,
    /// `Some(n)` compares every `n` retires (the PC still every
    /// retire), `None` (default) runs the jet engine alone. A
    /// divergence surfaces as [`StackError::Divergence`] carrying the
    /// forensics report. Ignored for [`Engine::Ref`].
    pub shadow: Option<u64>,
    /// Rolling-checkpoint file for [`Backend::Isa`] runs: every
    /// [`RunConfig::checkpoint_interval`] retires the run's snapshot is
    /// rewritten here (atomically, via a temp sibling + rename), so a
    /// killed run resumes from its last checkpoint via
    /// [`Stack::resume_snapshot`]. `None` (default) writes nothing.
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint cadence in retires. Also drives *checkpoint-anchored
    /// shadow mode*: with [`RunConfig::shadow`] set, a divergence
    /// replays from the last in-memory anchor instead of from boot,
    /// even when no checkpoint file was requested. `None` falls back to
    /// [`DEFAULT_CHECKPOINT_EVERY`] when `checkpoint` names a file.
    pub checkpoint_interval: Option<u64>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            fuel: 4_000_000_000,
            max_cycles: 4_000_000_000,
            env: MemEnvConfig { mem_latency: Latency::Fixed(0), ..MemEnvConfig::default() },
            engine: Engine::Ref,
            shadow: None,
            checkpoint: None,
            checkpoint_interval: None,
        }
    }
}

impl RunConfig {
    /// Sets the checkpoint cadence (builder style): `n` retires between
    /// rolling checkpoints / shadow anchors.
    #[must_use]
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_interval = Some(n.max(1));
        self
    }

    /// Sets the rolling-checkpoint file (builder style).
    #[must_use]
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// The `(file, cadence)` pair when checkpointing to disk is on.
    fn checkpoint_plan(&self) -> Option<(&Path, u64)> {
        self.checkpoint
            .as_deref()
            .map(|p| (p, self.checkpoint_interval.unwrap_or(DEFAULT_CHECKPOINT_EVERY).max(1)))
    }
}

/// The outcome of running a program on the stack.
#[derive(Clone, Debug)]
pub struct StackResult {
    /// Exit classification.
    pub exit: ExitStatus,
    /// Standard output bytes.
    pub stdout: Vec<u8>,
    /// Standard error bytes.
    pub stderr: Vec<u8>,
    /// Instructions retired (ISA/RTL backends; RTL reports its retired
    /// counter).
    pub instructions: u64,
    /// Clock cycles (hardware backends only).
    pub cycles: Option<u64>,
    /// Per-opcode retire counters (ISA backend only; the hardware
    /// simulators do not decode what they retire).
    pub stats: Option<ag32::ExecStats>,
}

impl StackResult {
    /// Standard output as a string (lossy).
    #[must_use]
    pub fn stdout_utf8(&self) -> String {
        String::from_utf8_lossy(&self.stdout).into_owned()
    }

    /// Standard error as a string (lossy).
    #[must_use]
    pub fn stderr_utf8(&self) -> String {
        String::from_utf8_lossy(&self.stderr).into_owned()
    }

    /// The exit code, if the program exited.
    #[must_use]
    pub fn exit_code(&self) -> Option<u8> {
        match self.exit {
            ExitStatus::Exited(c) => Some(c),
            _ => None,
        }
    }
}

/// Stack-level errors.
#[derive(Debug)]
pub enum StackError {
    /// Compilation failed.
    Compile(CompileError),
    /// Image construction failed (`initAg` assumption violated).
    Image(ImageError),
    /// A hardware backend failed or timed out.
    Hardware(LockstepError),
    /// An observability sink (VCD/profile file) failed.
    Io(std::io::Error),
    /// Shadow mode caught the jet engine diverging from the reference
    /// interpreter — theorem J violated. Carries the full forensics
    /// report (divergent retire index, differing fields, retire tails).
    Divergence(Box<obs::Forensics>),
    /// Writing a rolling checkpoint or loading a snapshot to resume
    /// failed (I/O, or a corrupt/incompatible snapshot file).
    Snapshot(SnapshotError),
}

impl fmt::Display for StackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackError::Compile(e) => write!(f, "compile: {e}"),
            StackError::Image(e) => write!(f, "image: {e}"),
            StackError::Hardware(e) => write!(f, "hardware: {e}"),
            StackError::Io(e) => write!(f, "io: {e}"),
            StackError::Divergence(fx) => write!(f, "shadow divergence:\n{}", fx.render()),
            StackError::Snapshot(e) => write!(f, "snapshot: {e}"),
        }
    }
}

impl std::error::Error for StackError {}

impl From<CompileError> for StackError {
    fn from(e: CompileError) -> Self {
        StackError::Compile(e)
    }
}

impl From<ImageError> for StackError {
    fn from(e: ImageError) -> Self {
        StackError::Image(e)
    }
}

impl From<LockstepError> for StackError {
    fn from(e: LockstepError) -> Self {
        StackError::Hardware(e)
    }
}

impl From<std::io::Error> for StackError {
    fn from(e: std::io::Error) -> Self {
        StackError::Io(e)
    }
}

impl From<SnapshotError> for StackError {
    fn from(e: SnapshotError) -> Self {
        StackError::Snapshot(e)
    }
}

/// What to observe during a run. Everything is off by default, and the
/// observed entry points degrade to the plain ones when nothing is
/// requested — observability costs nothing unless asked for.
#[derive(Debug, Default)]
pub struct Observe {
    /// Keep the last N retired instructions in a ring (ISA backend).
    /// `0` disables the retire log.
    pub retire_log: usize,
    /// Attribute execution to source functions (retires on the ISA
    /// backend, true clock cycles on the hardware backends) and report
    /// flamegraph folded stacks.
    pub profile: bool,
    /// Record every system call: name, arguments, result, descriptor
    /// state (ISA backend).
    pub syscalls: bool,
    /// Dump a GTKWave-viewable VCD waveform of every CPU signal to this
    /// file (hardware backends).
    pub vcd: Option<PathBuf>,
}

impl Observe {
    fn is_off(&self) -> bool {
        self.retire_log == 0 && !self.profile && !self.syscalls && self.vcd.is_none()
    }
}

/// What a run observed (fields mirror [`Observe`]).
#[derive(Debug, Default)]
pub struct Observations {
    /// The retire log, oldest first.
    pub retire_log: Option<ag32::RetireRing>,
    /// The cycle/retire profiler, ready for
    /// [`folded`](obs::CycleProfiler::folded) output.
    pub profile: Option<CycleProfiler>,
    /// The system-call trace.
    pub syscalls: Option<basis::SyscallTrace>,
    /// Where the VCD waveform was written.
    pub vcd: Option<PathBuf>,
}

/// The stack: a compiler configuration plus a memory layout.
#[derive(Clone, Debug, Default)]
pub struct Stack {
    /// Compiler options.
    pub compiler: CompilerConfig,
    /// Memory layout.
    pub layout: TargetLayout,
}

impl Stack {
    /// A stack with default configuration.
    #[must_use]
    pub fn new() -> Self {
        Stack::default()
    }

    /// Compiles a program (theorem (3): `compile confAg prog = Some ...`).
    ///
    /// # Errors
    ///
    /// Parse, type or code-generation errors.
    pub fn compile(&self, src: &str) -> Result<CompiledProgram, StackError> {
        Ok(cakeml::compile_source(src, self.layout, &self.compiler)?)
    }

    /// Builds the Figure-2 initial machine state for a compiled program.
    ///
    /// # Errors
    ///
    /// [`ImageError`] when stdin or the command line exceed their devices.
    pub fn load(
        &self,
        compiled: &CompiledProgram,
        args: &[&str],
        stdin: &[u8],
    ) -> Result<State, StackError> {
        Ok(build_image(compiled, args, stdin)?)
    }

    /// Compiles, loads and runs in one step.
    ///
    /// # Errors
    ///
    /// Any [`StackError`].
    pub fn run_source(
        &self,
        src: &str,
        args: &[&str],
        stdin: &[u8],
        backend: Backend,
        rc: &RunConfig,
    ) -> Result<StackResult, StackError> {
        let compiled = self.compile(src)?;
        let image = self.load(&compiled, args, stdin)?;
        self.run_image(image, backend, rc)
    }

    /// Runs a loaded image on the chosen backend.
    ///
    /// # Errors
    ///
    /// Hardware-backend simulation failures or timeouts.
    pub fn run_image(
        &self,
        image: State,
        backend: Backend,
        rc: &RunConfig,
    ) -> Result<StackResult, StackError> {
        match backend {
            Backend::Isa => match rc.engine {
                Engine::Ref => match rc.checkpoint_plan() {
                    Some((path, every)) => self.run_ref_checkpointed(image, rc.fuel, every, path),
                    None => {
                        let r = run_to_halt(image, &self.layout, rc.fuel);
                        Ok(isa_result(r))
                    }
                },
                Engine::Jet => self.jet_result(image, rc),
            },
            Backend::Rtl => {
                let (rtl_state, env, cycles) =
                    silver::run_rtl_program(&image, rc.env.clone(), rc.max_cycles)?;
                self.rtl_result(&rtl_state, &env, cycles)
            }
            Backend::Verilog => {
                let (fin, env, cycles) =
                    silver::run_verilog_program(&image, rc.env.clone(), rc.max_cycles)?;
                Ok(self.verilog_result(&fin, &env, cycles))
            }
        }
    }

    /// [`run_source`](Stack::run_source) with observability: compiles,
    /// loads, runs, and returns whatever `ocfg` asked to observe. With
    /// the default (all-off) [`Observe`] this is exactly `run_source` —
    /// the observed entry points construct nothing unless asked.
    ///
    /// # Errors
    ///
    /// Any [`StackError`]; I/O failures writing a requested VCD file
    /// surface as [`StackError::Io`].
    pub fn run_source_observed(
        &self,
        src: &str,
        args: &[&str],
        stdin: &[u8],
        backend: Backend,
        rc: &RunConfig,
        ocfg: &Observe,
    ) -> Result<(StackResult, Observations), StackError> {
        let compiled = self.compile(src)?;
        let image = self.load(&compiled, args, stdin)?;
        self.run_image_observed(&compiled, image, backend, rc, ocfg)
    }

    /// [`run_image`](Stack::run_image) with observability. The compiled
    /// program is needed for its symbol table (profiling) and FFI names
    /// (syscall tracing). Fields of `ocfg` that do not apply to the
    /// chosen backend are ignored (e.g. `vcd` on the ISA backend).
    ///
    /// # Errors
    ///
    /// Any [`StackError`].
    pub fn run_image_observed(
        &self,
        compiled: &CompiledProgram,
        image: State,
        backend: Backend,
        rc: &RunConfig,
        ocfg: &Observe,
    ) -> Result<(StackResult, Observations), StackError> {
        if ocfg.is_off() {
            return Ok((self.run_image(image, backend, rc)?, Observations::default()));
        }
        let mut obs = Observations::default();
        let result = match backend {
            Backend::Isa => {
                // The observers below hook the reference interpreter.
                // Under the jet engine the observations still come from
                // a reference pass (execution is deterministic and
                // theorem-J-equivalent) but the *result* comes from the
                // selected engine, so `--stats` etc. reflect it.
                let jet_image = (rc.engine == Engine::Jet).then(|| image.clone());
                // The syscall trace needs its own pure-`Next` pass (it
                // watches FFI entry PCs); execution is deterministic, so
                // a clone of the image observes the same run.
                if ocfg.syscalls {
                    let mut trace = basis::SyscallTrace::new();
                    let _ = basis::run_to_halt_traced(
                        image.clone(),
                        &self.layout,
                        &compiled.ffi_names,
                        rc.fuel,
                        &mut trace,
                    );
                    obs.syscalls = Some(trace);
                }
                let r = match (ocfg.retire_log > 0, ocfg.profile) {
                    (true, true) => {
                        let mut ring = ag32::RetireRing::new(ocfg.retire_log);
                        let mut prof = CycleProfiler::new(compiled.symbols.to_ranges());
                        let r = basis::run_to_halt_observed(
                            image,
                            &self.layout,
                            rc.fuel,
                            &mut ag32::NoCoverage,
                            &mut (&mut ring, &mut prof),
                        );
                        obs.retire_log = Some(ring);
                        obs.profile = Some(prof);
                        r
                    }
                    (true, false) => {
                        let mut ring = ag32::RetireRing::new(ocfg.retire_log);
                        let r = basis::run_to_halt_observed(
                            image,
                            &self.layout,
                            rc.fuel,
                            &mut ag32::NoCoverage,
                            &mut ring,
                        );
                        obs.retire_log = Some(ring);
                        r
                    }
                    (false, true) => {
                        let mut prof = CycleProfiler::new(compiled.symbols.to_ranges());
                        let r = basis::run_to_halt_observed(
                            image,
                            &self.layout,
                            rc.fuel,
                            &mut ag32::NoCoverage,
                            &mut prof,
                        );
                        obs.profile = Some(prof);
                        r
                    }
                    (false, false) => run_to_halt(image, &self.layout, rc.fuel),
                };
                match jet_image {
                    Some(img) => self.jet_result(img, rc)?,
                    None => isa_result(r),
                }
            }
            Backend::Rtl => {
                let circuit = silver::silver_cpu();
                let (rtl_state, env, cycles) = match (&ocfg.vcd, ocfg.profile) {
                    (Some(path), true) => {
                        let vcd = RtlVcd::new(
                            BufWriter::new(File::create(path)?),
                            &circuit,
                            "silver_cpu",
                        )?;
                        let sampler = PcSampler::new(CycleProfiler::new(
                            compiled.symbols.to_ranges(),
                        ));
                        let mut pair = (vcd, sampler);
                        let out = silver::run_rtl_program_observed(
                            &image,
                            rc.env.clone(),
                            rc.max_cycles,
                            &mut pair,
                        )?;
                        pair.0.finish()?;
                        obs.vcd = Some(path.clone());
                        obs.profile = Some(pair.1.profiler);
                        out
                    }
                    (Some(path), false) => {
                        let mut vcd = RtlVcd::new(
                            BufWriter::new(File::create(path)?),
                            &circuit,
                            "silver_cpu",
                        )?;
                        let out = silver::run_rtl_program_observed(
                            &image,
                            rc.env.clone(),
                            rc.max_cycles,
                            &mut vcd,
                        )?;
                        vcd.finish()?;
                        obs.vcd = Some(path.clone());
                        out
                    }
                    (None, true) => {
                        let mut sampler = PcSampler::new(CycleProfiler::new(
                            compiled.symbols.to_ranges(),
                        ));
                        let out = silver::run_rtl_program_observed(
                            &image,
                            rc.env.clone(),
                            rc.max_cycles,
                            &mut sampler,
                        )?;
                        obs.profile = Some(sampler.profiler);
                        out
                    }
                    (None, false) => {
                        silver::run_rtl_program(&image, rc.env.clone(), rc.max_cycles)?
                    }
                };
                self.rtl_result(&rtl_state, &env, cycles)?
            }
            Backend::Verilog => {
                let circuit = silver::silver_cpu();
                let (fin, env, cycles) = match (&ocfg.vcd, ocfg.profile) {
                    (Some(path), true) => {
                        let vcd = VerilogVcd::new(
                            BufWriter::new(File::create(path)?),
                            &circuit,
                            "silver_cpu",
                        )?;
                        let sampler = PcSampler::new(CycleProfiler::new(
                            compiled.symbols.to_ranges(),
                        ));
                        let mut pair = (vcd, sampler);
                        let out = silver::run_verilog_program_observed(
                            &image,
                            rc.env.clone(),
                            rc.max_cycles,
                            &mut pair,
                        )?;
                        pair.0.finish()?;
                        obs.vcd = Some(path.clone());
                        obs.profile = Some(pair.1.profiler);
                        out
                    }
                    (Some(path), false) => {
                        let mut vcd = VerilogVcd::new(
                            BufWriter::new(File::create(path)?),
                            &circuit,
                            "silver_cpu",
                        )?;
                        let out = silver::run_verilog_program_observed(
                            &image,
                            rc.env.clone(),
                            rc.max_cycles,
                            &mut vcd,
                        )?;
                        vcd.finish()?;
                        obs.vcd = Some(path.clone());
                        out
                    }
                    (None, true) => {
                        let mut sampler = PcSampler::new(CycleProfiler::new(
                            compiled.symbols.to_ranges(),
                        ));
                        let out = silver::run_verilog_program_observed(
                            &image,
                            rc.env.clone(),
                            rc.max_cycles,
                            &mut sampler,
                        )?;
                        obs.profile = Some(sampler.profiler);
                        out
                    }
                    (None, false) => {
                        silver::run_verilog_program(&image, rc.env.clone(), rc.max_cycles)?
                    }
                };
                self.verilog_result(&fin, &env, cycles)
            }
        };
        Ok((result, obs))
    }

    /// Resumes a checkpoint on the configured engine — including
    /// cross-engine resume (a `ref` checkpoint under [`Engine::Jet`]
    /// and vice versa), which is theorem J restated over serialised
    /// state. `rc.fuel` is the *total* fuel of the logical run: a
    /// snapshot taken at retire `C` under fuel `F` resumes with `F − C`
    /// remaining, so exit classification (`OutOfFuel` in particular)
    /// matches the uninterrupted run exactly. The result's
    /// `instructions` count is likewise the total including the
    /// pre-checkpoint prefix. Rolling checkpoints and shadow mode
    /// compose with resume.
    ///
    /// # Errors
    ///
    /// Any [`StackError`]; shadow divergence over the resumed segment
    /// surfaces as [`StackError::Divergence`].
    pub fn resume_snapshot(
        &self,
        snap: &Snapshot,
        rc: &RunConfig,
    ) -> Result<StackResult, StackError> {
        let remaining = rc.fuel.saturating_sub(snap.retired());
        match rc.engine {
            Engine::Ref => match rc.checkpoint_plan() {
                Some((path, every)) => {
                    self.run_ref_checkpointed(snap.restore(), remaining, every, path)
                }
                None => {
                    let mut state = snap.restore();
                    let n = state.run(remaining);
                    Ok(self.finish_ref(&state, n < remaining))
                }
            },
            Engine::Jet => {
                if let Some(sample) = rc.shadow {
                    self.shadow_check(&snap.restore(), remaining, sample, rc)?;
                }
                let mut j = snap.restore_jet();
                match rc.checkpoint_plan() {
                    Some((path, every)) => self.run_jet_checkpointed(j, remaining, every, path),
                    None => {
                        let n = j.run(remaining);
                        Ok(self.classify_jet(&j, n < remaining))
                    }
                }
            }
        }
    }

    /// [`resume_snapshot`](Stack::resume_snapshot) straight from a
    /// `.snap` file — the `silverc --resume` entry point.
    ///
    /// # Errors
    ///
    /// [`StackError::Snapshot`] when the file is unreadable or corrupt,
    /// otherwise any [`StackError`].
    pub fn resume_file(&self, path: &Path, rc: &RunConfig) -> Result<StackResult, StackError> {
        self.resume_snapshot(&Snapshot::read_from(path)?, rc)
    }

    /// Reference-interpreter run in checkpoint-sized slices, rewriting
    /// the rolling snapshot after each full slice. Slicing cannot
    /// change behaviour: `State::run` is deterministic and stops
    /// pre-step on halt, so N slices of M retires classify exactly like
    /// one run of N·M — `tests/checkpoint.rs` holds it to that.
    fn run_ref_checkpointed(
        &self,
        mut state: State,
        fuel: u64,
        every: u64,
        path: &Path,
    ) -> Result<StackResult, StackError> {
        let mut done = 0u64;
        while done < fuel {
            let chunk = every.min(fuel - done);
            let n = state.run(chunk);
            done += n;
            if n < chunk {
                break;
            }
            Snapshot::capture(&state).write_rolling(path)?;
        }
        Ok(self.finish_ref(&state, done < fuel))
    }

    /// Classification + stream extraction off a reference state, shared
    /// by the chunked and resumed run paths. Delegates the exit verdict
    /// to [`basis::classify_exit`] — the same function `run_to_halt`
    /// uses — so every path agrees on `Exited`/`Wedged`/`OutOfFuel`.
    fn finish_ref(&self, state: &State, fuel_left: bool) -> StackResult {
        let (stdout, stderr) = extract_streams(&state.io_events);
        StackResult {
            exit: classify_exit(state, &self.layout, fuel_left),
            stdout,
            stderr,
            instructions: state.instructions_retired,
            cycles: None,
            stats: Some(state.stats.clone()),
        }
    }

    /// Runs a loaded image on the [`jet`] translation-cache engine,
    /// classifying the end state exactly like the reference machine
    /// runner does. When [`RunConfig::shadow`] is set, a lockstep
    /// shadow run against `ag32::State::next` happens first and any
    /// divergence aborts with the forensics report — the plain run only
    /// proceeds once theorem J held over the whole execution.
    fn jet_result(&self, image: State, rc: &RunConfig) -> Result<StackResult, StackError> {
        if let Some(sample) = rc.shadow {
            self.shadow_check(&image, rc.fuel, sample, rc)?;
        }
        let mut j = jet::Jet::from_state(&image);
        match rc.checkpoint_plan() {
            Some((path, every)) => self.run_jet_checkpointed(j, rc.fuel, every, path),
            None => {
                let retired = j.run(rc.fuel);
                Ok(self.classify_jet(&j, retired < rc.fuel))
            }
        }
    }

    /// The lockstep shadow oracle, checkpoint-anchored when a cadence
    /// is configured: on a divergence the last good anchor (a verified
    /// reference state) is replayed to confirm the bug reproduces from
    /// the checkpoint — replaying `divergent − anchor` retires instead
    /// of `divergent` from boot — and, when a checkpoint file is
    /// configured, the anchor is written there so `silverc --resume`
    /// can re-enter the failure neighbourhood directly.
    fn shadow_check(
        &self,
        image: &State,
        fuel: u64,
        sample: u64,
        rc: &RunConfig,
    ) -> Result<(), StackError> {
        let every = match (rc.checkpoint_interval, &rc.checkpoint) {
            (Some(n), _) => n.max(1),
            (None, Some(_)) => DEFAULT_CHECKPOINT_EVERY,
            (None, None) => {
                // No anchoring configured: plain whole-run shadow.
                return jet::run_shadow(image, fuel, sample, 0)
                    .map(|_| ())
                    .map_err(StackError::Divergence);
            }
        };
        match jet::run_shadow_anchored(image, fuel, sample, 0, every) {
            Ok(_) => Ok(()),
            Err(div) => {
                let mut fx = div.forensics;
                if let Some(anchor) = div.anchor.as_deref() {
                    let step = fx.divergent_step.unwrap_or(div.anchor_retired);
                    let replay_fuel = step.saturating_sub(div.anchor_retired).saturating_add(8);
                    let reproduced = jet::run_shadow(anchor, replay_fuel, sample, 0).is_err();
                    fx.notes.push(format!(
                        "checkpoint-anchored replay from retire {}: {} within {} retires (saved {} boot retires)",
                        div.anchor_retired,
                        if reproduced {
                            "divergence reproduced"
                        } else {
                            "not reproduced (translation-cache history dependent; replay from boot)"
                        },
                        replay_fuel,
                        div.anchor_retired,
                    ));
                    if let Some(path) = rc.checkpoint.as_deref() {
                        Snapshot::capture(anchor).write_rolling(path)?;
                        fx.notes.push(format!(
                            "anchor checkpoint written to {} (resume with --resume to replay)",
                            path.display()
                        ));
                    }
                }
                Err(StackError::Divergence(fx))
            }
        }
    }

    /// Jet-engine run in checkpoint-sized slices; see
    /// [`run_ref_checkpointed`](Stack::run_ref_checkpointed). Each
    /// snapshot goes through [`Snapshot::capture_jet`], whose
    /// memory write-back makes the bytes identical to a reference
    /// checkpoint of the same logical state.
    fn run_jet_checkpointed(
        &self,
        mut j: jet::Jet,
        fuel: u64,
        every: u64,
        path: &Path,
    ) -> Result<StackResult, StackError> {
        let mut done = 0u64;
        while done < fuel {
            let chunk = every.min(fuel - done);
            let n = j.run(chunk);
            done += n;
            if n < chunk {
                break;
            }
            Snapshot::capture_jet(&j).write_rolling(path)?;
        }
        Ok(self.classify_jet(&j, done < fuel))
    }

    /// Classifies the jet engine's end state with
    /// [`basis::classify_exit_parts`]. Reads straight off the engine:
    /// everything the verdict needs (halt probe, exit-code word, PC,
    /// streams, stats) is readable without building a reference
    /// `State`, so no memory write-back happens at all.
    fn classify_jet(&self, j: &jet::Jet, fuel_left: bool) -> StackResult {
        let (stdout, stderr) = extract_streams(&j.io_events);
        let code = j.mem().read_word(self.layout.exit_code_addr);
        let exit = classify_exit_parts(j.is_halted(), j.pc, code, &self.layout, fuel_left);
        StackResult {
            exit,
            stdout,
            stderr,
            instructions: j.instructions_retired,
            cycles: None,
            stats: Some(j.stats.clone()),
        }
    }

    fn rtl_result(
        &self,
        rtl_state: &rtl::RtlState,
        env: &silver::env::MemEnv,
        cycles: u64,
    ) -> Result<StackResult, StackError> {
        let (stdout, stderr) = extract_streams(&env.io_events);
        let instructions = rtl_state
            .get_scalar("retired")
            .map_err(|e| StackError::Hardware(LockstepError::Rtl(e)))?;
        let pc = rtl_state
            .get_scalar("pc")
            .map_err(|e| StackError::Hardware(LockstepError::Rtl(e)))? as u32;
        let exit = classify_hw(pc, env.mem.read_word(self.layout.exit_code_addr), &self.layout);
        Ok(StackResult { exit, stdout, stderr, instructions, cycles: Some(cycles), stats: None })
    }

    fn verilog_result(
        &self,
        fin: &verilog::eval::VarState,
        env: &silver::env::MemEnv,
        cycles: u64,
    ) -> StackResult {
        let (stdout, stderr) = extract_streams(&env.io_events);
        let code = env.mem.read_word(self.layout.exit_code_addr);
        let pc = fin.get("pc").map(|v| v.as_u64() as u32).unwrap_or(0);
        let exit = classify_hw(pc, code, &self.layout);
        StackResult { exit, stdout, stderr, instructions: 0, cycles: Some(cycles), stats: None }
    }
}

fn isa_result(r: basis::MachineResult) -> StackResult {
    StackResult {
        exit: r.exit,
        stdout: r.stdout,
        stderr: r.stderr,
        instructions: r.instructions,
        cycles: None,
        stats: Some(r.state.stats.clone()),
    }
}

/// Hardware runs stop on a cycle budget, not fuel, so only the halt
/// verdict applies: `Exited` or `Wedged`.
fn classify_hw(pc: u32, exit_code: u32, layout: &TargetLayout) -> ExitStatus {
    classify_exit_parts(true, pc, exit_code, layout, true)
}
