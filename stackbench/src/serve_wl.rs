//! The `serve-exec` workload: closed-loop clients against the in-process
//! service, every reply checked against the oracle, and (traced) a replay
//! of a fixed prefix of the submissions through the layers the service
//! worker calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cakeml::{CompilerConfig, TargetLayout};
use service::wire::{
    read_request, read_response, write_request, write_response, Request, Response,
};
use service::{job_key, JobOutcome, JobSpec, JobStatus, ResultCache, ServeEngine};

use crate::gen::{self, Job};
use crate::layers::{self, Run};
use crate::oracle::{self, Expected};
use crate::probe::{self, Speeds};
use crate::report::{self, median, quantile, Report};
use crate::serve::{self, Done, Host};
use crate::spans::{interleaved, Rec};
use crate::Opts;

/// Submissions the traced run replays: a fixed prefix of the order, so
/// its counts repeat exactly for a seed.
const REPLAYED: usize = 24;

/// Set-ups before the measured run (the last one serves it) and after
/// it. `setup_s` is the median of all of them, so it samples the host's
/// speed at both ends of the run.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;

/// Distinct `serve-exec` inputs. Submission `k` runs input `k % EXEC_BASE`
/// with the round `k / EXEC_BASE` appended to its command line, which
/// every family ignores: each submission is a distinct job to the cache,
/// while the oracle runs only once per input. The count is prime to the
/// service's shadow cadence (every 8th job), so the sampler's picks walk
/// through every input, not the same eight inputs round after round.
const EXEC_BASE: usize = 63;

/// Warm-up jobs of every set-up: fixed (not seeded), so set-up does the
/// same work on every seed. `hello` goes first, alone, so it is the job
/// the shadow sampler picks; then one sort input under six command
/// lines, three per connection.
fn warmup() -> Vec<Job> {
    let hello = gen::level_corpus(0).swap_remove(0).job;
    let sort = gen::exec_job(&mut testkit::TestRng::seed_from_u64(0x3a7b), "sort");
    let sorts = (0..6).map(|i| Job {
        args: vec!["sort".into(), format!("warm-{i}")],
        ..sort.clone()
    });
    std::iter::once(hello).chain(sorts).collect()
}

fn exit_of(out: &JobOutcome) -> Option<u8> {
    match out.status {
        JobStatus::Exited(c) => Some(c),
        _ => None,
    }
}

/// Checks one reply against the oracle.
fn verdict(out: &JobOutcome, want: &Expected) -> Result<(), String> {
    if out.status == JobStatus::Divergence {
        return Err(format!("shadow divergence: {}", out.message));
    }
    oracle::check(want, exit_of(out), &out.stdout, &out.stderr)
}

/// Starts the service, connects, and runs the warm-up jobs.
fn set_up(warm: &[JobSpec], expected: &[Expected]) -> Result<(Host, Vec<service::Client>), String> {
    let host = Host::start();
    let mut clients: Vec<_> = (0..serve::CONNS).map(|_| host.connect()).collect();
    let far = Instant::now() + Duration::from_secs(3600);
    let check = |i: usize, out: &JobOutcome| verdict(out, &expected[i]);
    let first = serve::drive(
        &mut clients[..1],
        warm,
        &|k| (k < 1).then_some(k),
        0,
        far,
        0,
        &check,
    );
    let rest = serve::drive(
        &mut clients,
        warm,
        &|k| (k < warm.len()).then_some(k),
        1,
        far,
        0,
        &check,
    );
    match first.first_error.or(rest.first_error) {
        Some(e) => Err(e),
        None => Ok((host, clients)),
    }
}

/// The checker's own test, through the path the measured run counts
/// with: `hello` submitted twice over a live connection, checked once
/// against a corrupted stdout and once against a wrong exit code, must
/// come back as two failures of two attempts.
fn self_check(
    clients: &mut [service::Client],
    hello: &JobSpec,
    want: &Expected,
) -> Result<(), String> {
    let bad = oracle::corruptions(want);
    let specs = [hello.clone(), hello.clone()];
    let far = Instant::now() + Duration::from_secs(3600);
    let load = serve::drive(
        &mut clients[..1],
        &specs,
        &|k| (k < bad.len()).then_some(k),
        0,
        far,
        0,
        &|i, out| verdict(out, &bad[i]),
    );
    oracle::expect_counted(load.attempted, load.failed, bad.len())
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report {
        correct: true,
        ..Report::default()
    };
    // `jobs` are the distinct inputs, each checked by the oracle once;
    // `specs` are what is submitted; `specs[k]` runs `jobs[k % EXEC_BASE]`.
    let jobs = gen::exec_jobs(opts.seed, EXEC_BASE);
    // Far more submissions than two shards finish in the run.
    let specs: Vec<JobSpec> = (0..opts.seconds as usize * 40 + EXEC_BASE)
        .map(|k| {
            let mut spec = serve::spec(&jobs[k % EXEC_BASE], k);
            if k >= EXEC_BASE {
                spec.args.push(format!("round-{}", k / EXEC_BASE));
            }
            spec
        })
        .collect();
    let n = specs.len();
    let pick = move |k: usize| (k < n).then_some(k);
    let warm = warmup();

    // The oracle, before any timing.
    let expected = oracle::expect_all(&jobs, serve::SHARDS);
    let warm_expected = oracle::expect_all(&warm, serve::SHARDS);
    let warm_specs: Vec<JobSpec> = warm
        .iter()
        .enumerate()
        .map(|(i, j)| serve::spec(j, i))
        .collect();

    // Set-up, repeated; the last one before the run serves it.
    let mut setups = Vec::new();
    let mut timed_setup = |rep: &mut Report| {
        let t = Instant::now();
        match set_up(&warm_specs, &warm_expected) {
            Ok(up) => {
                setups.push(t.elapsed().as_secs_f64());
                Some(up)
            }
            Err(e) => {
                eprintln!("stackbench: warm-up failed: {e}");
                rep.correct = false;
                None
            }
        }
    };
    let mut kept = None;
    for _ in 0..SETUPS_BEFORE {
        if let Some((host, clients)) = kept.take() {
            drop(clients);
            Host::stop(host);
        }
        kept = timed_setup(&mut rep);
    }
    let Some((host, mut clients)) = kept else {
        return rep;
    };
    if let Err(e) = self_check(&mut clients, &warm_specs[0], &warm_expected[0]) {
        eprintln!("stackbench: {e}");
        rep.correct = false;
    }
    let before = host.service.cache_stats();

    // The measured run, in segments with a host-speed reading between
    // them while the service is idle.
    let mut speeds = Speeds::default();
    let mut load = serve::Load::default();
    for len in probe::segments(opts.seconds) {
        speeds.read();
        let part = serve::drive(
            &mut clients,
            &specs,
            &pick,
            load.attempted as usize,
            Instant::now() + len,
            REPLAYED,
            &|i, out| verdict(out, &expected[i % EXEC_BASE]),
        );
        load.window += part.window;
        load.merge(part);
    }
    speeds.read();
    let after = host.service.cache_stats();
    if host.service.divergences() > 0 {
        rep.correct = false;
    }
    if let Some(e) = &load.first_error {
        eprintln!(
            "stackbench: {} of {} submissions failed; first: {e}",
            load.failed, load.attempted
        );
    }
    rep.attempted = load.attempted;
    rep.failed = load.failed;
    rep.correct &= load.failed == 0 && load.attempted > 0;
    if pick(load.attempted as usize).is_none() {
        eprintln!("stackbench: the job list ran out before the deadline");
        rep.correct = false;
    }
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    if hits > 0 {
        eprintln!("stackbench: serve-exec served {hits} cache hits; its jobs must be distinct");
        rep.correct = false;
    }

    drop(clients);
    Host::stop(host);
    for _ in 0..SETUPS_AFTER {
        if let Some((host, clients)) = timed_setup(&mut rep) {
            drop(clients);
            Host::stop(host);
        }
    }

    // Timings at the reference speed.
    let f = speeds.factor();
    let lat: Vec<f64> = load.lat_ms.iter().map(|&x| f64::from(x) / f).collect();
    rep.set("setup_s", median(&setups) / f);
    rep.set(
        "ok_rate",
        1.0 - load.failed as f64 / load.attempted.max(1) as f64,
    );
    rep.set("jobs_per_s", load.in_window as f64 * f / load.window);
    rep.set("job_p50_ms", quantile(&lat, 0.5));
    rep.set("job_p90_ms", quantile(&lat, 0.9));
    eprintln!(
        "stackbench: {} jobs ({} within the {:.1} s window, {:.2}/s as measured), {} beyond p90; cache {hits} hits / {misses} misses; setups as measured {setups:.3?} s; host speed readings {:.3?}, factor {f:.3}",
        lat.len(),
        load.in_window,
        load.window,
        load.in_window as f64 / load.window,
        lat.len() / 10,
        speeds.readings(),
    );

    if opts.trace {
        rep.set(
            "service.cache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        traced(&mut rep, opts.seed, &jobs, &specs, &expected, &load.head);
    }
    rep.set("peak_rss_mb", report::peak_rss_mb());
    rep
}

struct Replayed {
    family: &'static str,
    /// The cache lookup hit (never, when the jobs are distinct).
    hit: bool,
    run: Run,
    /// The pass-by-pass machine code.
    code: Vec<u8>,
}

/// Replays one submission through the layers, in the order the client,
/// the front end and the worker call them.
fn replay_one(
    rec: &mut Rec,
    job: &Job,
    spec: &JobSpec,
    shadowed: bool,
    cache: &ResultCache,
    svc: &service::ServiceConfig,
) -> (Replayed, Option<silver::snapshot::Snapshot>) {
    let (layout, cfg) = (TargetLayout::default(), CompilerConfig::default());
    rec.span("job", |rec| {
        let bytes = rec.span("wire.encode", |_| {
            let mut b = Vec::new();
            write_request(&mut b, &Request::Submit(spec.clone())).expect("encode request");
            b
        });
        let Request::Submit(spec) = rec.span("wire.decode", |_| {
            read_request(&mut bytes.as_slice()).expect("decode request")
        }) else {
            panic!("a Submit request decodes to Submit");
        };
        let key = job_key(&spec);
        let hit = rec.span("cache.lookup", |_| cache.lookup(key)).is_some();
        let compiled = layers::compile(rec, &spec.source, layout, &cfg);
        let args: Vec<&str> = spec.args.iter().map(String::as_str).collect();
        let image = layers::image(rec, &compiled, &args, &spec.stdin);
        if shadowed {
            rec.span("shadow", |_| {
                jet::run_shadow(&image, spec.fuel, svc.shadow.sample.max(1), 0)
            })
            .unwrap_or_else(|fx| panic!("replay shadow diverged: {}", fx.render()));
        }
        let (run, last) =
            layers::run_jet_sliced(rec, &image, spec.fuel, svc.checkpoint_every.max(1), &layout);
        let outcome = JobOutcome {
            job_id: 0,
            status: run.exit.map_or(JobStatus::Wedged, JobStatus::Exited),
            message: String::new(),
            stdout: run.stdout.clone(),
            stderr: run.stderr.clone(),
            instructions: run.retired,
            engine: ServeEngine::Jet,
            cached: false,
            shadowed,
            migrations: 0,
        };
        rec.span("cache.insert", |_| cache.insert(key, &outcome));
        let replayed = Replayed {
            family: job.family,
            hit,
            run,
            code: compiled.code,
        };
        let bytes = rec.span("wire.encode", |_| {
            let mut b = Vec::new();
            write_response(&mut b, &Response::Done(outcome)).expect("encode response");
            b
        });
        rec.span("wire.decode", |_| {
            read_response(&mut bytes.as_slice()).expect("decode response")
        });
        (replayed, last)
    })
}

/// The traced run's replay of the first `REPLAYED` submissions and its
/// per-layer metrics. `head` holds the service's replies for them.
fn traced(
    rep: &mut Report,
    seed: u64,
    jobs: &[Job],
    specs: &[JobSpec],
    expected: &[Expected],
    head: &[Done],
) {
    let by_pos: BTreeMap<usize, &Done> = head.iter().map(|d| (d.pos, d)).collect();
    let shadowed: BTreeMap<usize, bool> = by_pos
        .iter()
        .map(|(&k, d)| (k, d.outcome.as_ref().is_some_and(|o| o.shadowed)))
        .collect();

    // Each pass keeps its own cache, as a fresh service would.
    let svc = serve::config();
    let caches: [ResultCache; 3] = std::array::from_fn(|_| ResultCache::new(svc.cache_capacity));
    let (rec, replayed, overhead) = interleaved(REPLAYED, |pass, rec, k| {
        let sh = shadowed.get(&k).copied().unwrap_or(false);
        let (mut r, last) = replay_one(
            rec,
            &jobs[k % EXEC_BASE],
            &specs[k],
            sh,
            &caches[pass],
            &svc,
        );
        if let Some(snap) = last {
            r.run.snapshot_bytes = layers::probe_snapshot(rec, &snap);
        }
        r
    });
    rep.set("trace.overhead_pct", overhead);

    // Fidelity: the replay must do what the service did.
    let (layout, cfg) = (TargetLayout::default(), CompilerConfig::default());
    let mut code_sizes: BTreeMap<&str, u64> = BTreeMap::new();
    for (k, r) in replayed.iter().enumerate() {
        let i = k % EXEC_BASE;
        if let Err(e) = oracle::check(&expected[i], r.run.exit, &r.run.stdout, &r.run.stderr) {
            eprintln!("stackbench: replay of submission {k} disagrees with the oracle: {e}");
            rep.correct = false;
        }
        if r.hit {
            eprintln!("stackbench: replay of submission {k} hit the cache; the service did not");
            rep.correct = false;
        }
        if let Some(out) = by_pos.get(&k).and_then(|d| d.outcome.as_ref()) {
            if out.instructions != r.run.retired {
                eprintln!(
                    "stackbench: replay of submission {k} retired {}, the service {}",
                    r.run.retired, out.instructions
                );
                rep.correct = false;
            }
        }
        if !code_sizes.contains_key(r.family) {
            let whole =
                cakeml::compile_source(jobs[i].source, layout, &cfg).expect("corpus compiles");
            if whole.code != r.code {
                eprintln!(
                    "stackbench: pass-by-pass code for `{}` differs from compile_source",
                    r.family
                );
                rep.correct = false;
            }
            code_sizes.insert(r.family, r.code.len() as u64);
        }
    }

    // Per-layer metrics.
    let per_job = rec.per_job();
    let ms = |name: &str| median(&rec.durations(name)) / 1e6;
    let us_per_job = |names: &[&str]| {
        let sums: Vec<f64> = per_job
            .values()
            .map(|m| {
                names
                    .iter()
                    .map(|n| m.get(n).copied().unwrap_or(0))
                    .sum::<u64>() as f64
            })
            .collect();
        median(&sums) / 1e3
    };
    for pass in ["parse", "typecheck", "anf", "opt", "clos", "codegen"] {
        rep.set(format!("cakeml.{pass}_ms"), ms(&format!("cakeml.{pass}")));
    }
    rep.set("cakeml.code_bytes", code_sizes.values().sum::<u64>() as f64);
    rep.set("basis.image_ms", ms("basis.image"));
    rep.set("jet.from_state_ms", ms("jet.from_state"));
    rep.set("snapshot.capture_ms", ms("snapshot.capture"));
    rep.set("snapshot.restore_ms", ms("snapshot.restore"));
    rep.set("snapshot.to_bytes_ms", ms("snapshot.to_bytes"));
    rep.set("shadow.ms", ms("shadow"));
    let per_exec = |f: fn(&Replayed) -> u64| {
        replayed.iter().map(f).sum::<u64>() as f64 / replayed.len().max(1) as f64
    };
    rep.set("snapshot.captures_per_job", per_exec(|r| r.run.captures));
    rep.set("snapshot.bytes", per_exec(|r| r.run.snapshot_bytes));
    rep.set("count.retires_per_job", per_exec(|r| r.run.retired));
    rep.set(
        "exec.capture_share_pct",
        100.0 * rec.total("snapshot.capture").0 as f64 / rec.total("exec").0.max(1) as f64,
    );
    rep.set(
        "service.cache_lookup_us",
        us_per_job(&["cache.lookup", "cache.insert"]),
    );
    rep.set("wire.encode_us", us_per_job(&["wire.encode"]));
    rep.set("wire.decode_us", us_per_job(&["wire.decode"]));
    rep.set("count.jobs_replayed", replayed.len() as f64);
    rep.set(
        "count.cache_hits",
        replayed.iter().filter(|r| r.hit).count() as f64,
    );
    rep.set(
        "count.cache_misses",
        replayed.iter().filter(|r| !r.hit).count() as f64,
    );

    // Jet rate and counters per program, over its replays.
    let mut fams: BTreeMap<&str, (u64, u64, jet::JetCounters)> = BTreeMap::new();
    for (k, r) in replayed.iter().enumerate() {
        let e = fams.entry(r.family).or_default();
        e.0 += r.run.retired;
        e.1 += per_job
            .get(&k)
            .and_then(|m| m.get("jet.run"))
            .copied()
            .unwrap_or(0);
        e.2.code_invalidations += r.run.counters.code_invalidations;
        e.2.redecodes += r.run.counters.redecodes;
        e.2.slow_steps += r.run.counters.slow_steps;
    }
    for (fam, (retired, ns, c)) in &fams {
        rep.set(
            format!("jet.minstr_per_s.{fam}"),
            *retired as f64 * 1e3 / (*ns).max(1) as f64,
        );
        rep.set(
            format!("jet.code_invalidations.{fam}"),
            c.code_invalidations as f64,
        );
        rep.set(format!("jet.redecodes.{fam}"), c.redecodes as f64);
        rep.set(format!("jet.slow_steps.{fam}"), c.slow_steps as f64);
    }

    // What the client waited for that the replayed layers do not cover:
    // queue wait, the front end's threads and socket, admission.
    let unattributed: Vec<f64> = (0..replayed.len())
        .filter_map(|k| {
            let d = by_pos.get(&k).filter(|d| d.outcome.is_some())?;
            let job_ns = per_job.get(&k)?.get("job")?;
            Some(d.ms - *job_ns as f64 / 1e6)
        })
        .collect();
    rep.set("service.unattributed_ms", median(&unattributed));

    // Exact counts and the layer breakdown, written when the run ends.
    let mut counts = String::new();
    for (k, r) in replayed.iter().enumerate() {
        let c = r.run.counters;
        let _ = writeln!(
            counts,
            "{k} {} hit={} retires={} captures={} snapshot_bytes={} code_bytes={} blocks_decoded={} redecodes={} code_invalidations={} slow_steps={}",
            r.family, r.hit, r.run.retired, r.run.captures, r.run.snapshot_bytes, r.code.len(), c.blocks_decoded, c.redecodes, c.code_invalidations, c.slow_steps
        );
    }
    let family = |k: usize| jobs[k % EXEC_BASE].family.to_string();
    crate::write_outputs("serve-exec", seed, &rec, &counts, family);
}
