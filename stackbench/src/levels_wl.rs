//! The `stack-levels` workload: no service. Sweeps of the app corpus
//! through `Stack::run_source`, the `silverc` path, on the reference
//! engine, on jet, at RTL and (for `hello`) at Verilog; each result
//! checked against the oracle. A job is one program run at one level.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use cakeml::CompilerConfig;
use silver_stack::{Backend, Engine, RunConfig, Stack, StackResult};

use crate::gen::{self, Job, LevelJob};
use crate::layers::{self, Run};
use crate::oracle::{self, Expected};
use crate::probe;
use crate::report::{self, median, quantile, Report};
use crate::spans::{interleaved, Rec};
use crate::Opts;

/// The four ways a program is run, in sweep order.
const LEVELS: [&str; 4] = [
    "silverc.ref",
    "silverc.jet",
    "silverc.rtl",
    "silverc.verilog",
];

fn runs_at(entry: &LevelJob, level: usize) -> bool {
    match level {
        2 => entry.rtl,
        3 => entry.verilog,
        _ => true,
    }
}

/// One `Stack` call: compile, load, run at `level`.
fn call(stack: &Stack, job: &Job, level: usize) -> Result<StackResult, String> {
    let (backend, engine) = match level {
        0 => (Backend::Isa, Engine::Ref),
        1 => (Backend::Isa, Engine::Jet),
        2 => (Backend::Rtl, Engine::Ref),
        _ => (Backend::Verilog, Engine::Ref),
    };
    let rc = RunConfig {
        engine,
        ..RunConfig::default()
    };
    stack
        .run_source(job.source, &job.argv(), &job.stdin, backend, &rc)
        .map_err(|e| e.to_string())
}

fn verdict(r: &Result<StackResult, String>, want: &Expected) -> Result<(), String> {
    let r = r.as_ref().map_err(Clone::clone)?;
    oracle::check(want, r.exit_code(), &r.stdout, &r.stderr)
}

/// The work count the level reports: retires on the ISA engines, cycles
/// on the hardware levels.
fn work(r: &StackResult, level: usize) -> u64 {
    if level >= 2 {
        r.cycles.unwrap_or(0)
    } else {
        r.instructions
    }
}

/// Concurrent callers, one per core.
const CALLERS: usize = 2;

/// Calls of `hello` at Verilog per sweep, so that level has as many
/// samples per run as the others.
const VERILOG_REPEATS: usize = 6;

/// Set-ups before the measured run (the last one serves it) and after
/// it; `setup_s` is their median.
const SETUPS_BEFORE: usize = 5;
const SETUPS_AFTER: usize = 5;

/// One timed call of a sweep.
struct Call {
    entry: usize,
    level: usize,
    ms: f64,
    work: u64,
    ok: bool,
}

/// Every distinct `(corpus entry, level)` call, in sweep order.
fn plan(corpus: &[LevelJob]) -> Vec<(usize, usize)> {
    corpus
        .iter()
        .enumerate()
        .flat_map(|(i, e)| {
            (0..LEVELS.len())
                .filter(move |&l| runs_at(e, l))
                .map(move |l| (i, l))
        })
        .collect()
}

/// The calls of one measured sweep: `plan` with each Verilog call
/// repeated `VERILOG_REPEATS` times.
fn sweep_plan(corpus: &[LevelJob]) -> Vec<(usize, usize)> {
    plan(corpus)
        .into_iter()
        .flat_map(|c| std::iter::repeat_n(c, if c.1 == 3 { VERILOG_REPEATS } else { 1 }))
        .collect()
}

/// What one caller did: its calls, its probe slices (ms) and its first
/// failure.
#[derive(Default)]
struct Calls {
    calls: Vec<Call>,
    slices: Vec<f64>,
    error: Option<String>,
}

/// The calls of `plan` a caller makes: its `k`-th call is
/// `plan[(k + offset) % plan.len()]`, each followed by a probe slice
/// when `probe` is set.
struct Caller<'a> {
    stack: &'a Stack,
    plan: &'a [(usize, usize)],
    offset: usize,
    corpus: &'a [LevelJob],
    expected: &'a [Expected],
    probe: bool,
}

impl Caller<'_> {
    /// Makes calls while `more(calls made)` holds, checking each against
    /// the oracle.
    fn run(&self, more: impl Fn(usize) -> bool) -> Calls {
        let mut out = Calls::default();
        while more(out.calls.len()) {
            let k = out.calls.len();
            let (i, level) = self.plan[(k + self.offset) % self.plan.len()];
            let t = Instant::now();
            let r = call(self.stack, &self.corpus[i].job, level);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let ok = verdict(&r, &self.expected[i]);
            if let Err(e) = &ok {
                out.error.get_or_insert_with(|| {
                    format!("{} at {}: {e}", self.corpus[i].job.family, LEVELS[level])
                });
            }
            out.calls.push(Call {
                entry: i,
                level,
                ms,
                work: r.as_ref().map_or(0, |r| work(r, level)),
                ok: ok.is_ok(),
            });
            if self.probe {
                out.slices.push(probe::slice_ms(k as u64));
            }
        }
        out
    }

    /// One whole sweep of the plan.
    fn sweep(&self) -> Calls {
        self.run(|k| k < self.plan.len())
    }
}

/// Calls that failed the oracle.
fn failures(calls: &[Call]) -> u64 {
    calls.iter().filter(|c| !c.ok).count() as u64
}

/// The checker's own test, through the sweep loop and the count the
/// measured run uses: `hello` on both ISA engines, checked once against
/// a corrupted stdout and once against a wrong exit code, must come back
/// as two failures of two calls.
fn self_check(stack: &Stack, hello: &LevelJob, want: &Expected) -> Result<(), String> {
    let bad = oracle::corruptions(want);
    let corpus = [hello.clone(), hello.clone()];
    let out = Caller {
        stack,
        plan: &[(0, 0), (1, 1)],
        offset: 0,
        corpus: &corpus,
        expected: &bad,
        probe: false,
    }
    .sweep();
    oracle::expect_counted(out.calls.len() as u64, failures(&out.calls), bad.len())
}

/// Geometric mean, so that each level weighs alike however long its
/// calls take.
fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len().max(1) as f64).exp()
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report {
        correct: true,
        ..Report::default()
    };
    let corpus = gen::level_corpus(opts.seed);
    let jobs: Vec<Job> = corpus.iter().map(|e| e.job.clone()).collect();
    let expected = oracle::expect_all(&jobs, 2);

    // Set-up: a stack, then the fixed (not seeded) corpus once on both
    // ISA engines and `hello` at RTL and Verilog.
    let warm = gen::level_corpus(0);
    let warm_jobs: Vec<Job> = warm.iter().map(|e| e.job.clone()).collect();
    let warm_expected = oracle::expect_all(&warm_jobs, 2);
    let warm_plan: Vec<(usize, usize)> = plan(&warm)
        .into_iter()
        .filter(|&(i, l)| l < 2 || i == 0)
        .collect();
    let mut setups = Vec::new();
    let mut set_up = |rep: &mut Report| {
        let t = Instant::now();
        let stack = Stack::new();
        let out = Caller {
            stack: &stack,
            plan: &warm_plan,
            offset: 0,
            corpus: &warm,
            expected: &warm_expected,
            probe: false,
        }
        .sweep();
        setups.push(t.elapsed().as_secs_f64());
        if let Some(e) = out.error {
            eprintln!("stackbench: warm-up failed: {e}");
            rep.correct = false;
        }
        stack
    };
    let mut stack = set_up(&mut rep);
    for _ in 1..SETUPS_BEFORE {
        stack = set_up(&mut rep);
    }
    if let Err(e) = self_check(&stack, &warm[0], &warm_expected[0]) {
        eprintln!("stackbench: {e}");
        rep.correct = false;
    }

    // Sweeps on two callers at once, the second starting half a sweep
    // ahead, until the deadline, each finishing at least one whole sweep
    // so that every call of the plan is sampled: with both cores busy
    // with the benchmark's own work, no other tenant's thread shares the
    // core, and medians moved about half as much between sets of runs as
    // with one caller (see BASELINE.md).
    let plan = sweep_plan(&corpus);
    let deadline = Instant::now() + std::time::Duration::from_secs(opts.seconds);
    let more = |k: usize| Instant::now() < deadline || k < plan.len();
    let t0 = Instant::now();
    let outs: Vec<Calls> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..CALLERS)
            .map(|c| {
                let caller = Caller {
                    stack: &stack,
                    plan: &plan,
                    offset: c * plan.len() / CALLERS,
                    corpus: &corpus,
                    expected: &expected,
                    probe: true,
                };
                s.spawn(move || caller.run(more))
            })
            .collect();
        threads
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let (mut calls, mut slices) = (Vec::new(), Vec::new());
    for caller in outs {
        if let Some(e) = caller.error {
            eprintln!("stackbench: {e}");
        }
        calls.extend(caller.calls);
        slices.extend(caller.slices);
    }
    let n_sweeps = calls.len() as f64 / plan.len() as f64;
    rep.attempted = calls.len() as u64;
    rep.failed = failures(&calls);
    rep.correct &= rep.failed == 0;
    for _ in 0..SETUPS_AFTER {
        set_up(&mut rep);
    }

    // Per distinct call of the plan: its median time, and its work (the
    // same on every sweep).
    let mut by_call: BTreeMap<(usize, usize), (Vec<f64>, u64)> = BTreeMap::new();
    for c in &calls {
        let e = by_call.entry((c.entry, c.level)).or_default();
        e.0.push(c.ms);
        e.1 = c.work;
    }
    let call_ms: BTreeMap<(usize, usize), f64> = by_call
        .iter()
        .map(|(&k, (ms, _))| (k, median(ms)))
        .collect();
    let call_work: BTreeMap<(usize, usize), u64> = by_call.iter().map(|(&k, v)| (k, v.1)).collect();
    // Per level: its sweep time (the sum of its calls' medians, each
    // distinct call once), its simulated work and its latencies.
    let sweep_ms = |level: usize| -> f64 {
        call_ms
            .iter()
            .filter(|((_, l), _)| *l == level)
            .map(|(_, ms)| ms)
            .sum()
    };
    let level_work = |level: usize| -> u64 {
        call_work
            .iter()
            .filter(|((_, l), _)| *l == level)
            .map(|(_, w)| w)
            .sum()
    };
    let latencies = |level: usize| -> Vec<f64> {
        calls
            .iter()
            .filter(|c| c.level == level)
            .map(|c| c.ms)
            .collect()
    };
    // Each level's call rate with both callers on it, and its latency
    // quantiles; the end-to-end figures are their geometric means over
    // the four levels, so a change at any one level moves them alike,
    // taken at the reference speed.
    let f = probe::slice_factor(&slices);
    let levels = 0..LEVELS.len();
    let rates: Vec<f64> = levels
        .clone()
        .map(|l| {
            let n = call_ms.keys().filter(|(_, cl)| *cl == l).count();
            CALLERS as f64 * n as f64 * 1e3 / sweep_ms(l)
        })
        .collect();
    let p = |q: f64| -> Vec<f64> { levels.clone().map(|l| quantile(&latencies(l), q)).collect() };
    rep.set("setup_s", median(&setups) / f);
    rep.set(
        "ok_rate",
        1.0 - rep.failed as f64 / rep.attempted.max(1) as f64,
    );
    rep.set("jobs_per_s", geomean(&rates) * f);
    rep.set("job_p50_ms", geomean(&p(0.5)) / f);
    rep.set("job_p90_ms", geomean(&p(0.9)) / f);

    let kcycles_per_s = |level: usize| level_work(level) as f64 / sweep_ms(level);
    let (silverc, silverc_jet, rtl_rate, verilog_rate) =
        (sweep_ms(0), sweep_ms(1), kcycles_per_s(2), kcycles_per_s(3));
    let beyond_p90 = levels
        .clone()
        .map(|l| latencies(l).len() / 10)
        .min()
        .unwrap_or(0);
    eprintln!(
        "stackbench: {n_sweeps:.1} sweeps, {} calls in {wall:.2} s, at least {beyond_p90} beyond p90 per level; per sweep as measured silverc {silverc:.2} ms, silverc on jet {silverc_jet:.2} ms; rtl {rtl_rate:.1} kcycles/s, verilog {verilog_rate:.1} kcycles/s; level rates as measured {rates:.2?}/s; setups as measured {setups:.3?} s; {} probe slices, factor {f:.3}",
        calls.len(),
        slices.len()
    );

    if opts.trace {
        rep.set("silverc_ms", silverc);
        rep.set("silverc_jet_ms", silverc_jet);
        rep.set("rtl_kcycles_per_s", rtl_rate);
        rep.set("verilog_kcycles_per_s", verilog_rate);
        traced(
            &mut rep, opts.seed, &corpus, &expected, &call_work, &call_ms,
        );
    }
    rep.set("peak_rss_mb", report::peak_rss_mb());
    rep
}

/// Replays one call through the layers `Stack::run_source` calls.
fn replay_one(rec: &mut Rec, job: &Job, level: usize, cfg: &CompilerConfig) -> (Run, Vec<u8>) {
    let layout = cakeml::TargetLayout::default();
    let fuel = RunConfig::default().fuel;
    rec.span("job", |rec| {
        let compiled = layers::compile(rec, job.source, layout, cfg);
        let image = layers::image(rec, &compiled, &job.argv(), &job.stdin);
        let run = match level {
            0 => layers::run_ref(rec, image, fuel, &layout),
            1 => layers::run_jet(rec, &image, fuel, &layout),
            2 => layers::run_rtl(rec, &image, &layout),
            _ => layers::run_verilog(rec, &image, &layout),
        };
        (run, compiled.code)
    })
}

fn traced(
    rep: &mut Report,
    seed: u64,
    corpus: &[LevelJob],
    expected: &[Expected],
    call_work: &BTreeMap<(usize, usize), u64>,
    call_ms: &BTreeMap<(usize, usize), f64>,
) {
    let plan = plan(corpus);
    let cfg = CompilerConfig::default();
    let (rec, runs, overhead) = interleaved(plan.len(), |_, rec, k| {
        let (i, level) = plan[k];
        let (run, code) = replay_one(rec, &corpus[i].job, level, &cfg);
        ((i, level), run, code)
    });
    rep.set("trace.overhead_pct", overhead);

    // Fidelity: same outputs, same retire and cycle counts, same code.
    let layout = cakeml::TargetLayout::default();
    let mut code_bytes = 0;
    for ((i, level), run, code) in &runs {
        let name = format!("{} at {}", corpus[*i].job.family, LEVELS[*level]);
        if let Err(e) = oracle::check(&expected[*i], run.exit, &run.stdout, &run.stderr) {
            eprintln!("stackbench: replay of {name} disagrees with the oracle: {e}");
            rep.correct = false;
        }
        if call_work.get(&(*i, *level)) != Some(&run.retired) {
            eprintln!(
                "stackbench: replay of {name} counted {}, the stack {:?}",
                run.retired,
                call_work.get(&(*i, *level))
            );
            rep.correct = false;
        }
        if *level == 0 {
            let whole = cakeml::compile_source(corpus[*i].job.source, layout, &cfg)
                .expect("corpus compiles");
            if whole.code != *code {
                eprintln!(
                    "stackbench: pass-by-pass code for `{}` differs from compile_source",
                    corpus[*i].job.family
                );
                rep.correct = false;
            }
            code_bytes += code.len();
        }
    }

    let ms = |name: &str| median(&rec.durations(name)) / 1e6;
    for pass in ["parse", "typecheck", "anf", "opt", "clos", "codegen"] {
        rep.set(format!("cakeml.{pass}_ms"), ms(&format!("cakeml.{pass}")));
    }
    rep.set("cakeml.code_bytes", code_bytes as f64);
    rep.set("basis.image_ms", ms("basis.image"));
    rep.set("jet.from_state_ms", ms("jet.from_state"));
    let per_call = |name: &str| {
        let (ns, calls) = rec.total(name);
        ns as f64 / calls.max(1) as f64
    };
    rep.set("rtl.cycle_ns", per_call("rtl.cycle"));
    rep.set("rtl.env_ns", per_call("rtl.env"));
    rep.set("verilog.cycle_ns", per_call("verilog.cycle"));
    let at = |level: usize| runs.iter().filter(move |((_, l), _, _)| *l == level);
    let retired_ref: u64 = at(0).map(|(_, r, _)| r.retired).sum();
    rep.set(
        "ag32.minstr_per_s",
        retired_ref as f64 * 1e3 / rec.total("ag32.run").0.max(1) as f64,
    );
    rep.set("count.jobs_replayed", runs.len() as f64);
    rep.set(
        "count.retires_per_job",
        retired_ref as f64 / corpus.len() as f64,
    );
    rep.set(
        "count.rtl_cycles",
        at(2).map(|(_, r, _)| r.retired).sum::<u64>() as f64,
    );
    rep.set(
        "count.verilog_cycles",
        at(3).map(|(_, r, _)| r.retired).sum::<u64>() as f64,
    );

    let jet_ns: BTreeMap<usize, u64> = rec
        .spans
        .iter()
        .filter(|s| s.name == "jet.run")
        .map(|s| (s.job, s.ns()))
        .collect();
    for (k, ((i, _), run, _)) in runs.iter().enumerate().filter(|(_, (c, _, _))| c.1 == 1) {
        let fam = corpus[*i].job.family;
        let ns = jet_ns.get(&k).copied().unwrap_or(0);
        rep.set(
            format!("jet.minstr_per_s.{fam}"),
            run.retired as f64 * 1e3 / ns.max(1) as f64,
        );
        rep.set(
            format!("jet.code_invalidations.{fam}"),
            run.counters.code_invalidations as f64,
        );
        rep.set(
            format!("jet.redecodes.{fam}"),
            run.counters.redecodes as f64,
        );
        rep.set(
            format!("jet.slow_steps.{fam}"),
            run.counters.slow_steps as f64,
        );
    }

    // The stack call's time the replayed layers do not cover.
    let job_ns: BTreeMap<usize, u64> = rec
        .spans
        .iter()
        .filter(|s| s.name == "job")
        .map(|s| (s.job, s.ns()))
        .collect();
    let unattributed: Vec<f64> = plan
        .iter()
        .enumerate()
        .filter_map(|(k, c)| Some(call_ms.get(c)? - *job_ns.get(&k)? as f64 / 1e6))
        .collect();
    rep.set("service.unattributed_ms", median(&unattributed));

    let mut counts = String::new();
    for ((i, level), run, code) in &runs {
        let c = run.counters;
        let _ = writeln!(
            counts,
            "{} {} work={} code_bytes={} blocks_decoded={} redecodes={} code_invalidations={} slow_steps={}",
            corpus[*i].job.family, LEVELS[*level], run.retired, code.len(), c.blocks_decoded, c.redecodes, c.code_invalidations, c.slow_steps
        );
    }
    let family = |k: usize| {
        plan.get(k).map_or_else(
            || "?".to_string(),
            |&(i, l)| format!("{}@{}", corpus[i].job.family, &LEVELS[l][8..]),
        )
    };
    crate::write_outputs("stack-levels", seed, &rec, &counts, family);
}
