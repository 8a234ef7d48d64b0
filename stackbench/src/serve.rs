//! The service, hosted in-process behind its real Unix-socket front end,
//! and the closed-loop clients that load it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use service::wire::Response;
use service::{Client, Endpoint, JobOutcome, JobSpec, Service, ServiceConfig};

use crate::gen::Job;

/// Worker shards (the machine's two cores).
pub const SHARDS: usize = 2;
/// Closed-loop client connections.
pub const CONNS: usize = 2;
/// Per-job fuel: far above any generated job, far below the tenant caps.
pub const FUEL: u64 = 50_000_000;

/// The configuration under test: two shards, all else the default.
pub fn config() -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        ..ServiceConfig::default()
    }
}

/// The wire request for `job`, metered against one of four tenants.
pub fn spec(job: &Job, tenant: usize) -> JobSpec {
    let mut s = JobSpec::new(&format!("tenant-{}", tenant % 4), job.source);
    s.args = job.args.clone();
    s.stdin = job.stdin.clone();
    s.fuel = FUEL;
    s
}

/// A running service and its socket front end.
pub struct Host {
    /// The service, for its counters.
    pub service: Arc<Service>,
    endpoint: Endpoint,
    front: Option<JoinHandle<std::io::Result<()>>>,
}

impl Host {
    /// Starts the service and its front end on a socket in the working
    /// directory (relative, so the path stays short), and waits until it
    /// accepts.
    pub fn start() -> Host {
        let path = PathBuf::from(format!(".stackbench-{}.sock", std::process::id()));
        let endpoint = Endpoint::Unix(path);
        let service = Arc::new(Service::start(config()));
        let front = {
            let (service, endpoint) = (Arc::clone(&service), endpoint.clone());
            std::thread::spawn(move || service::serve(&service, &endpoint, None))
        };
        let host = Host {
            service,
            endpoint,
            front: Some(front),
        };
        let t = Instant::now();
        while Client::connect(&host.endpoint)
            .and_then(|mut c| c.ping().map_err(std::io::Error::other))
            .is_err()
        {
            assert!(
                t.elapsed() < Duration::from_secs(10),
                "service front end did not come up"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        host
    }

    /// A new client connection.
    pub fn connect(&self) -> Client {
        Client::connect(&self.endpoint).expect("connect to the service")
    }

    /// Shuts the front end and the service down and waits for both.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(front) = self.front.take() {
            let _ = Client::connect(&self.endpoint).map(|mut c| c.shutdown());
            match front.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("stackbench: service front end failed: {e}"),
                Err(_) => eprintln!("stackbench: service front end panicked"),
            }
            self.service.shutdown();
            if let Endpoint::Unix(path) = &self.endpoint {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One submission among the first `head` of a run, as the client saw it.
pub struct Done {
    /// Position in the submission order.
    pub pos: usize,
    /// `Submit` to `Done`, in ms.
    pub ms: f64,
    /// The reply, when it was a `Done` that matched the oracle.
    pub outcome: Option<JobOutcome>,
}

/// What a closed-loop run observed.
#[derive(Default)]
pub struct Load {
    /// Latency of every completed job, ms.
    pub lat_ms: Vec<f32>,
    /// Submissions sent.
    pub attempted: u64,
    /// Submissions that failed: rejected, wrong output, divergence, or
    /// transport error.
    pub failed: u64,
    /// The first failure.
    pub first_error: Option<String>,
    /// Details of the submissions at positions below `head`.
    pub head: Vec<Done>,
    /// Jobs completed before the deadline.
    pub in_window: u64,
    /// From the first send to the deadline, s: the window `in_window`
    /// counts over, so the replies still running at the deadline do not
    /// stretch it.
    pub window: f64,
}

impl Load {
    /// Adds the counts and samples of a later part of the same run; the
    /// window is left as it is.
    pub fn merge(&mut self, other: Load) {
        self.lat_ms.extend(other.lat_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_error = self.first_error.take().or(other.first_error);
        self.head.extend(other.head);
        self.head.sort_by_key(|d| d.pos);
        self.in_window += other.in_window;
    }
}

/// Submits `specs[pick(start)]`, `specs[pick(start + 1)]`, … over the
/// clients, each sending its next job only after the last reply (closed
/// loop), until `deadline` or until `pick` returns `None`. Every reply
/// goes through `check` (the oracle); the positions below `head` are
/// kept in full.
pub fn drive(
    clients: &mut [Client],
    specs: &[JobSpec],
    pick: &(dyn Fn(usize) -> Option<usize> + Sync),
    start: usize,
    deadline: Instant,
    head: usize,
    check: &(dyn Fn(usize, &JobOutcome) -> Result<(), String> + Sync),
) -> Load {
    let next = AtomicUsize::new(start);
    let t0 = Instant::now();
    let mut load = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut mine = Load::default();
                    while Instant::now() < deadline {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(idx) = pick(k) else { break };
                        let t = Instant::now();
                        let resp = client.submit(&specs[idx]);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        mine.attempted += 1;
                        let (verdict, broken) = match resp {
                            Ok(Response::Done(out)) => {
                                mine.lat_ms.push(ms as f32);
                                mine.in_window += u64::from(Instant::now() <= deadline);
                                (check(idx, &out).map(|()| out), false)
                            }
                            Ok(Response::Rejected { code, reason }) => {
                                (Err(format!("rejected ({code}): {reason}")), false)
                            }
                            Ok(other) => (Err(format!("unexpected response {other:?}")), true),
                            Err(e) => (Err(format!("transport: {e}")), true),
                        };
                        if let Err(e) = &verdict {
                            mine.failed += 1;
                            mine.first_error
                                .get_or_insert_with(|| format!("submission {k}: {e}"));
                        }
                        if k < head {
                            mine.head.push(Done {
                                pos: k,
                                ms,
                                outcome: verdict.ok(),
                            });
                        }
                        if broken {
                            break;
                        }
                    }
                    mine
                })
            })
            .collect();
        let mut load = Load::default();
        for w in workers {
            load.merge(w.join().expect("client thread panicked"));
        }
        load
    });
    load.window = deadline.saturating_duration_since(t0).as_secs_f64();
    load.head.sort_by_key(|d| d.pos);
    load
}
