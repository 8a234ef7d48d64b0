//! In-process service end-to-end: multi-tenant submission, cache
//! behaviour across engines, shadow sampling, admission control, and
//! the socket front end over a Unix socket.

use std::sync::Arc;

use service::{
    serve, Client, Endpoint, EnginePref, JobSpec, JobStatus, RejectReason, ServeEngine, Service,
    ServiceConfig, ShadowPolicy, ShadowPref, TenantPolicy,
};

const HELLO: &str = r#"
val _ = print "Hello from the verified stack!\n";
"#;

const SORT: &str = r#"
val input = read_all ();
val lines = split_lines input;
val sorted = merge_sort string_lt lines;
val _ = print (join_lines sorted);
"#;

fn cfg() -> ServiceConfig {
    ServiceConfig { shards: 2, ..ServiceConfig::default() }
}

fn hello_spec(tenant: &str) -> JobSpec {
    JobSpec::new(tenant, HELLO)
}

fn sort_spec(tenant: &str, stdin: &[u8]) -> JobSpec {
    let mut spec = JobSpec::new(tenant, SORT);
    spec.stdin = stdin.to_vec();
    spec
}

#[test]
fn two_tenants_one_computation_one_cache_hit() {
    let svc = Service::start(cfg());
    let a = svc.submit(hello_spec("alice")).expect("alice's job admitted");
    assert_eq!(a.status, JobStatus::Exited(0), "{a:?}");
    assert_eq!(a.stdout, b"Hello from the verified stack!\n");
    assert!(!a.cached);
    assert_eq!(a.engine, ServeEngine::Jet, "jet is the default engine");

    // Same program from another tenant: served from the cache,
    // byte-identical, and not metered against bob.
    let b = svc.submit(hello_spec("bob")).expect("bob's job admitted");
    assert!(b.cached, "second submission must hit the cache");
    assert!(b.result_bytes_eq(&a), "cache hit must be byte-identical");
    let stats = svc.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    let tenants = svc.tenant_snapshot();
    assert_eq!(tenants.len(), 1, "bob's cache hit created no metering state: {tenants:?}");
    assert_eq!(tenants[0].0, "alice");
    assert!(tenants[0].1 > 0, "alice was charged the instructions actually retired");
    svc.shutdown();
}

#[test]
fn engines_agree_byte_for_byte_and_share_the_cache_key() {
    // Cache off: both engines really execute.
    let svc = Service::start(ServiceConfig { cache_capacity: 0, ..cfg() });
    let stdin = b"pear\napple\nmango\n";
    let mut on_ref = sort_spec("t", stdin);
    on_ref.engine = EnginePref::Ref;
    let mut on_jet = sort_spec("t", stdin);
    on_jet.engine = EnginePref::Jet;
    let r = svc.submit(on_ref).expect("ref admitted");
    let j = svc.submit(on_jet).expect("jet admitted");
    assert_eq!(r.engine, ServeEngine::Ref);
    assert_eq!(j.engine, ServeEngine::Jet);
    assert_eq!(r.stdout, b"apple\nmango\npear\n");
    assert!(r.result_bytes_eq(&j), "theorem J at the service level: {r:?} vs {j:?}");
    svc.shutdown();

    // Cache on: a result computed on ref serves a jet request.
    let svc = Service::start(cfg());
    let mut on_ref = sort_spec("t", stdin);
    on_ref.engine = EnginePref::Ref;
    let first = svc.submit(on_ref).expect("ref admitted");
    let mut on_jet = sort_spec("t", stdin);
    on_jet.engine = EnginePref::Jet;
    let second = svc.submit(on_jet).expect("jet admitted");
    assert!(second.cached, "engine choice must not split the cache key");
    assert!(second.result_bytes_eq(&first));
    svc.shutdown();
}

#[test]
fn shadow_sampling_runs_and_finds_no_divergence() {
    // every_jobs = 1: every executed job is shadow-checked.
    let svc = Service::start(ServiceConfig {
        shadow: ShadowPolicy { every_jobs: 1, sample: 1 },
        ..cfg()
    });
    let out = svc.submit(sort_spec("t", b"b\na\n")).expect("admitted");
    assert_eq!(out.status, JobStatus::Exited(0), "{out:?}");
    assert!(out.shadowed, "policy says every job is shadowed");
    assert_eq!(svc.divergences(), 0, "theorem J must hold");

    // A cache hit is served, not re-executed, hence not re-shadowed.
    let hit = svc.submit(sort_spec("other", b"b\na\n")).expect("admitted");
    assert!(hit.cached);
    svc.shutdown();

    // ShadowPref::Always forces a check even when sampling is off.
    let svc = Service::start(ServiceConfig {
        shadow: ShadowPolicy { every_jobs: 0, sample: 1 },
        ..cfg()
    });
    let mut spec = hello_spec("t");
    spec.shadow = ShadowPref::Always;
    let out = svc.submit(spec).expect("admitted");
    assert!(out.shadowed, "jobs may strengthen the policy");
    let plain = svc.submit(hello_spec("u")).expect("admitted");
    assert!(plain.cached, "forced-shadow result still lands in the shared cache");
    svc.shutdown();
}

#[test]
fn admission_control_rejects_over_budget_and_malformed_jobs() {
    let svc = Service::start(ServiceConfig {
        tenant: TenantPolicy { fuel_budget: 1_000_000, max_in_flight: 2, max_job_fuel: 600_000 },
        ..cfg()
    });

    // Per-job cap.
    let mut big = hello_spec("a");
    big.fuel = 700_000;
    match svc.submit(big) {
        Err(RejectReason::JobFuel(_)) => {}
        other => panic!("expected JobFuel, got {other:?}"),
    }

    // Budget: a completed job charges actual retire count, so a cheap
    // job leaves budget; an expensive reservation is refused.
    let mut small = hello_spec("a");
    small.fuel = 600_000;
    svc.submit(small).expect("fits the budget");
    let mut again = hello_spec("a");
    again.source.push_str("\nval _ = print \"x\";"); // different key: no cache hit
    again.fuel = 600_000;
    let spent = svc.tenant_snapshot()[0].1;
    assert!(spent < 400_000, "hello is cheap (spent {spent})");
    svc.submit(again).expect("budget counts actual spend, not reservations");

    // Malformed jobs.
    let mut withfiles = hello_spec("b");
    withfiles.files = vec![("f".into(), b"x".to_vec())];
    match svc.submit(withfiles) {
        Err(RejectReason::BadRequest(_)) => {}
        other => panic!("expected BadRequest for named files, got {other:?}"),
    }
    let mut nofuel = hello_spec("b");
    nofuel.fuel = 0;
    match svc.submit(nofuel) {
        Err(RejectReason::BadRequest(_)) => {}
        other => panic!("expected BadRequest for zero fuel, got {other:?}"),
    }
    svc.shutdown();
}

#[test]
fn compile_errors_out_of_fuel_and_shutdown_are_reported() {
    let svc = Service::start(cfg());
    let bad = svc.submit(JobSpec::new("t", "val _ = this is not cakeml;")).expect("admitted");
    assert_eq!(bad.status, JobStatus::CompileError, "{bad:?}");
    assert!(!bad.message.is_empty(), "compile error carries the diagnostic");

    let mut starved = sort_spec("t", b"kiwi\nfig\n");
    starved.fuel = 1_000;
    let out = svc.submit(starved).expect("admitted");
    assert_eq!(out.status, JobStatus::OutOfFuel, "{out:?}");
    assert_eq!(out.instructions, 1_000, "ran exactly the budget");

    svc.shutdown();
    match svc.submit(hello_spec("t")) {
        Err(RejectReason::ShuttingDown) => {}
        other => panic!("expected ShuttingDown after shutdown, got {other:?}"),
    }
}

#[test]
fn bench_artifact_carries_the_service_schema() {
    let svc = Service::start(cfg());
    svc.submit(hello_spec("a")).expect("job 1");
    svc.submit(hello_spec("b")).expect("job 2 (cache hit)");
    svc.shutdown();

    let text = svc.stats_text();
    let head = text.lines().next().expect("summary line");
    for key in [
        "\"suite\":\"service\"",
        "\"qps\":",
        "\"p50_us\":",
        "\"p99_us\":",
        "\"cache_hit_rate\":0.5000",
        "\"divergences\":0",
        "\"shards\":2",
    ] {
        assert!(head.contains(key), "summary line missing {key}: {head}");
    }
    assert!(text.contains("\"metric\":\"counter\",\"name\":\"service.jobs.completed\",\"value\":2"));
    assert!(text.contains("\"name\":\"service.cache.hits\",\"value\":1"));
    assert!(text.contains("\"metric\":\"histogram\",\"name\":\"service.job_us\""));
    assert!(text.contains("\"name\":\"service.shard_busy_us.0\""));
}

#[test]
fn bench_file_numbers_its_lines_from_zero_despite_live_polls() {
    let path = std::env::temp_dir().join(format!("silver-svc-series-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let svc = Service::start(cfg());
    // Live polls first, as a `stats` or `top` client racing the first
    // periodic write would.
    assert!(svc.stats_text().starts_with("{\"suite\":\"service\",\"seq\":0,"));
    assert!(svc.stats_line().contains("\"seq\":1,"));
    svc.append_stats_line(&path).expect("append");
    svc.append_stats_line(&path).expect("append");
    svc.shutdown();
    svc.write_bench(&path).expect("tail");
    let text = std::fs::read_to_string(&path).expect("bench file");
    let _ = std::fs::remove_file(&path);
    let seqs: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("{\"suite\":\"service\""))
        .map(|l| l.split(',').nth(1).expect("seq field"))
        .collect();
    assert_eq!(seqs, ["\"seq\":0", "\"seq\":1", "\"seq\":2"], "{text}");
}

#[test]
fn unix_socket_roundtrip_with_graceful_shutdown() {
    let dir = std::env::temp_dir().join(format!("silver-svc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let sock = dir.join("svc.sock");
    let bench = dir.join("BENCH_service.json");

    let svc = Arc::new(Service::start(cfg()));
    let server = {
        let svc = Arc::clone(&svc);
        let sock = sock.clone();
        let bench = bench.clone();
        std::thread::spawn(move || serve(&svc, &Endpoint::Unix(sock), Some(&bench)))
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !sock.exists() {
        assert!(std::time::Instant::now() < deadline, "server never bound its socket");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let endpoint = Endpoint::Unix(sock.clone());
    let mut alice = Client::connect(&endpoint).expect("connect");
    alice.ping().expect("ping");
    match alice.submit(&hello_spec("alice")).expect("submit") {
        service::wire::Response::Done(out) => {
            assert_eq!(out.status, JobStatus::Exited(0));
            assert_eq!(out.stdout, b"Hello from the verified stack!\n");
            assert!(!out.cached);
        }
        other => panic!("expected Done, got {other:?}"),
    }

    let mut bob = Client::connect(&endpoint).expect("second connection");
    match bob.submit(&hello_spec("bob")).expect("submit") {
        service::wire::Response::Done(out) => assert!(out.cached, "cross-connection cache hit"),
        other => panic!("expected Done, got {other:?}"),
    }
    let stats = bob.stats().expect("stats");
    assert!(stats.contains("\"suite\":\"service\""), "{stats}");

    bob.shutdown().expect("shutdown ack");
    server.join().expect("server thread").expect("serve returns cleanly");
    let bench_text = std::fs::read_to_string(&bench).expect("bench artifact written");
    assert!(bench_text.contains("\"suite\":\"service\""));
    assert!(!sock.exists(), "socket file cleaned up");
    let _ = std::fs::remove_dir_all(&dir);
}
