//! The stack's layers, called one public function at a time in the order
//! `Stack` and the service worker call them, each call inside a span.
//! The traced run replays jobs through these and checks that the replay
//! does the same work as the untraced path: the same code bytes, the
//! same retire counts, the same cycle counts.

use std::time::Instant;

use ag32::State;
use basis::image::EXIT_UNSET;
use basis::{build_image, classify_exit, extract_streams, ExitStatus};
use cakeml::{CompiledProgram, CompilerConfig, TargetLayout};
use jet::{Jet, JetCounters};
use rtl::interp::RtlEnv as _;
use silver::lockstep::{env_from_isa, init_rtl_from_isa, rtl_is_halted};
use silver::snapshot::Snapshot;

use crate::spans::Rec;

/// Compiles `source` pass by pass (the body of `cakeml::compile_source`).
pub fn compile(
    rec: &mut Rec,
    source: &str,
    layout: TargetLayout,
    cfg: &CompilerConfig,
) -> CompiledProgram {
    rec.span("compile", |rec| {
        let mut prog = rec.span("cakeml.parse", |_| {
            cakeml::parse_program(&cakeml::full_source(source, cfg)).expect("corpus program parses")
        });
        let data = rec.span("cakeml.typecheck", |_| {
            cakeml::check_program(&mut prog).expect("corpus program types")
        });
        let mut lowered = rec.span("cakeml.anf", |_| {
            cakeml::anf::lower_program_with(&prog, &data, cfg.direct_calls)
        });
        if cfg.const_fold {
            lowered = rec.span("cakeml.opt", |_| cakeml::opt::optimize(lowered));
        }
        let flat = rec.span("cakeml.clos", |_| cakeml::clos::convert_program(&lowered));
        rec.span("cakeml.codegen", |_| {
            cakeml::codegen::generate(&flat, layout, *cfg).expect("code generation")
        })
    })
}

/// Builds the boot image.
pub fn image(rec: &mut Rec, compiled: &CompiledProgram, args: &[&str], stdin: &[u8]) -> State {
    rec.span("basis.image", |_| {
        build_image(compiled, args, stdin).expect("inputs fit their devices")
    })
}

/// What one replayed execution produced.
#[derive(Clone, Debug, Default)]
pub struct Run {
    /// Exit code, when the program exited.
    pub exit: Option<u8>,
    /// Standard output.
    pub stdout: Vec<u8>,
    /// Standard error.
    pub stderr: Vec<u8>,
    /// Instructions retired (ISA engines) or cycles (hardware levels).
    pub retired: u64,
    /// Rolling checkpoints captured.
    pub captures: u64,
    /// Serialised size of the last checkpoint.
    pub snapshot_bytes: u64,
    /// Jet engine counters.
    pub counters: JetCounters,
}

fn exited(status: ExitStatus) -> Option<u8> {
    match status {
        ExitStatus::Exited(c) => Some(c),
        _ => None,
    }
}

/// The reference interpreter to halt, as `Stack` runs it.
pub fn run_ref(rec: &mut Rec, mut state: State, fuel: u64, layout: &TargetLayout) -> Run {
    let retired = rec.span("ag32.run", |_| state.run(fuel));
    let (stdout, stderr) = extract_streams(&state.io_events);
    Run {
        exit: exited(classify_exit(&state, layout, retired < fuel)),
        stdout,
        stderr,
        retired,
        ..Run::default()
    }
}

/// The jet exit probe of the service worker and `Stack`.
fn jet_exit(j: &Jet, fuel: u64, layout: &TargetLayout) -> Option<u8> {
    let code = j.mem().read_word(layout.exit_code_addr);
    let halted = j.instructions_retired < fuel || j.is_halted();
    (halted && j.pc == layout.halt_addr && code != EXIT_UNSET).then_some(code as u8)
}

/// Jet to halt in one call, as `Stack` runs it (no checkpoints).
pub fn run_jet(rec: &mut Rec, image: &State, fuel: u64, layout: &TargetLayout) -> Run {
    let mut j = rec.span("jet.from_state", |_| Jet::from_state(image));
    let retired = rec.span("jet.run", |_| j.run(fuel));
    let (stdout, stderr) = extract_streams(&j.io_events);
    Run {
        exit: jet_exit(&j, fuel, layout),
        stdout,
        stderr,
        retired,
        counters: j.counters(),
        ..Run::default()
    }
}

/// Jet in checkpoint-sized slices with a rolling capture after each full
/// slice: the service worker's loop. After the run, the last checkpoint
/// is restored and serialised once, outside the job's span, to time
/// those two calls.
pub fn run_jet_sliced(
    rec: &mut Rec,
    image: &State,
    fuel: u64,
    every: u64,
    layout: &TargetLayout,
) -> (Run, Option<Snapshot>) {
    let (run, last) = rec.span("exec", |rec| {
        let mut j = rec.span("jet.from_state", |_| Jet::from_state(image));
        let mut last = None;
        let mut captures = 0;
        loop {
            let remaining = fuel.saturating_sub(j.instructions_retired);
            if remaining == 0 || j.is_halted() {
                break;
            }
            let chunk = every.min(remaining);
            let n = rec.span("jet.run", |_| j.run(chunk));
            if j.is_halted() || n < chunk {
                break;
            }
            last = Some(rec.span("snapshot.capture", |_| Snapshot::capture_jet(&j)));
            captures += 1;
        }
        let (stdout, stderr) = extract_streams(&j.io_events);
        let run = Run {
            exit: jet_exit(&j, fuel, layout),
            stdout,
            stderr,
            retired: j.instructions_retired,
            captures,
            counters: j.counters(),
            ..Run::default()
        };
        (run, last)
    });
    (run, last)
}

/// Times `restore_jet` and `to_bytes` on a checkpoint; returns its size.
pub fn probe_snapshot(rec: &mut Rec, snap: &Snapshot) -> u64 {
    rec.span("probe", |rec| {
        let j = rec.span("snapshot.restore", |_| snap.restore_jet());
        std::hint::black_box(j.pc);
        rec.span("snapshot.to_bytes", |_| snap.to_bytes()).len() as u64
    })
}

/// Per-cycle time accumulators for the hardware loops.
#[derive(Default)]
struct Clock {
    on: bool,
    ns: [u64; 3],
}

impl Clock {
    fn time<T>(&mut self, slot: usize, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.ns[slot] += t.elapsed().as_nanos() as u64;
        out
    }
}

fn hw_run(env: &silver::env::MemEnv, pc: u32, layout: &TargetLayout, cycles: u64) -> Run {
    let (stdout, stderr) = extract_streams(&env.io_events);
    let code = env.mem.read_word(layout.exit_code_addr);
    let exit = (pc == layout.halt_addr && code != EXIT_UNSET).then_some(code as u8);
    Run {
        exit,
        stdout,
        stderr,
        retired: cycles,
        ..Run::default()
    }
}

const HW_MAX_CYCLES: u64 = 200_000_000;

/// Layer 3: the circuit under the lab environment, cycle by cycle, as
/// `silver::run_rtl_program` runs it. `rtl.env` is the environment's
/// drive and the input writes; `rtl.cycle` is `rtl::interp::cycle`.
pub fn run_rtl(rec: &mut Rec, image: &State, layout: &TargetLayout) -> Run {
    let mut clock = Clock {
        on: rec.on(),
        ..Clock::default()
    };
    rec.span("rtl", |rec| {
        let circuit = silver::silver_cpu();
        let mut env = env_from_isa(image, silver::MemEnvConfig::default());
        let mut st = init_rtl_from_isa(&circuit, image);
        let mut cycles = 0u64;
        let mut last_retired = 0;
        loop {
            assert!(cycles < HW_MAX_CYCLES, "rtl run exceeded its cycle budget");
            clock.time(0, || {
                for (name, v) in env.drive(cycles, &st) {
                    st.set(&name, v).expect("input port");
                }
            });
            clock
                .time(1, || rtl::interp::cycle(&circuit, &mut st))
                .expect("rtl cycle");
            cycles += 1;
            let retired = st.get_scalar("retired").expect("retired counter");
            if retired != last_retired {
                last_retired = retired;
                if rtl_is_halted(&st, &env).expect("halt probe") {
                    break;
                }
            }
            if st.get_scalar("state").expect("fsm state") == silver::cpu::fsm::WEDGED {
                break;
            }
        }
        rec.summed("rtl.env", clock.ns[0], cycles);
        rec.summed("rtl.cycle", clock.ns[1], cycles);
        hw_run(
            &env,
            st.get_scalar("pc").expect("pc") as u32,
            layout,
            cycles,
        )
    })
}

/// Layer 4: the generated Verilog in lockstep with the circuit, as
/// `silver::run_verilog_program` runs it. `verilog.env` drives both,
/// `verilog.rtl_cycle` clocks the circuit, `verilog.cycle` is
/// `verilog::eval::cycle`.
pub fn run_verilog(rec: &mut Rec, image: &State, layout: &TargetLayout) -> Run {
    let mut clock = Clock {
        on: rec.on(),
        ..Clock::default()
    };
    rec.span("verilog", |rec| {
        let circuit = silver::silver_cpu();
        let module = rtl::generate(&circuit).expect("circuit elaborates to Verilog");
        let mut env = env_from_isa(image, silver::MemEnvConfig::default());
        let mut st = init_rtl_from_isa(&circuit, image);
        let mut v = module.initial_state().expect("initial Verilog state");
        for (name, value) in st.iter() {
            match rtl::equiv::to_verilog_value(value) {
                verilog::ast::ValueOrArray::Value(x) => v.set(name, x).expect("mirror scalar"),
                verilog::ast::ValueOrArray::Unpacked(elems) => {
                    for (i, e) in elems.into_iter().enumerate() {
                        v.set_index(name, i as u64, e).expect("mirror array");
                    }
                }
            }
        }
        let mut cycles = 0u64;
        let mut last_retired = 0;
        loop {
            assert!(
                cycles < HW_MAX_CYCLES,
                "verilog run exceeded its cycle budget"
            );
            clock.time(0, || {
                for (name, value) in env.drive(cycles, &st) {
                    if let verilog::ast::ValueOrArray::Value(x) =
                        rtl::equiv::to_verilog_value(&value)
                    {
                        v.set(&name, x).expect("verilog input");
                    }
                    st.set(&name, value).expect("rtl input");
                }
            });
            clock
                .time(1, || rtl::interp::cycle(&circuit, &mut st))
                .expect("rtl cycle");
            clock
                .time(2, || verilog::eval::cycle(&module, &mut v))
                .expect("verilog cycle");
            cycles += 1;
            for name in [
                "pc",
                "state",
                "mem_addr",
                "mem_valid",
                "data_out",
                "retired",
            ] {
                let a = st.get_scalar(name).expect("rtl signal");
                let b = v.get(name).expect("verilog signal").as_u64();
                assert_eq!(
                    a, b,
                    "circuit and Verilog disagree on `{name}` at cycle {cycles}"
                );
            }
            let retired = st.get_scalar("retired").expect("retired counter");
            if retired != last_retired {
                last_retired = retired;
                if rtl_is_halted(&st, &env).expect("halt probe") {
                    break;
                }
            }
            if st.get_scalar("state").expect("fsm state") == silver::cpu::fsm::WEDGED {
                break;
            }
        }
        rec.summed("verilog.env", clock.ns[0], cycles);
        rec.summed("verilog.rtl_cycle", clock.ns[1], cycles);
        rec.summed("verilog.cycle", clock.ns[2], cycles);
        hw_run(
            &env,
            v.get("pc").expect("pc").as_u64() as u32,
            layout,
            cycles,
        )
    })
}
