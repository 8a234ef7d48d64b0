//! In-memory spans for the traced run: one span around each call into a
//! layer, with its parent and the job it belongs to. Nothing is written
//! until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call (or, with `calls > 1`, the summed time of a hot loop's
/// calls, placed at the start of its parent).
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `snapshot.capture`.
    pub name: &'static str,
    /// Job the call served.
    pub job: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// End, ns since the recorder was made.
    pub end_ns: u64,
    /// Calls summed into this span.
    pub calls: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. When off, `span` only runs its closure, so the
/// same replay code gives the untraced comparison.
pub struct Rec {
    on: bool,
    t0: Instant,
    job: usize,
    open: Vec<usize>,
    /// Every span recorded, in start order.
    pub spans: Vec<Span>,
}

impl Rec {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Rec {
        Rec {
            on,
            t0: Instant::now(),
            job: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Sets the job that following spans belong to.
    pub fn job(&mut self, job: usize) {
        self.job = job;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Rec) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns: start,
            calls: 1,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Records `ns` summed over `calls` calls as one child of the
    /// innermost open span (for per-cycle work, where a span per call
    /// would cost more than the call).
    pub fn summed(&mut self, name: &'static str, ns: u64, calls: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        let start = parent.map_or_else(|| self.now(), |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            job: self.job,
            parent,
            start_ns: start,
            end_ns: start + ns,
            calls,
        });
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Per job, the summed duration of each span name.
    pub fn per_job(&self) -> BTreeMap<usize, BTreeMap<&'static str, u64>> {
        let mut out: BTreeMap<usize, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.job).or_default().entry(s.name).or_default() += s.ns();
        }
        out
    }

    /// Every recorded duration of `name`, one per span.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Total ns and calls of spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, calls), s| (ns + s.ns(), calls + s.calls))
    }

    /// Self time summed per `(group, span name)`, where `group` maps a
    /// job to its program family.
    pub fn self_by_group(
        &self,
        group: impl Fn(usize) -> String,
    ) -> BTreeMap<(String, &'static str), u64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry((group(s.job), s.name)).or_insert(0) += ns;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.name, s.job, s.start_ns, s.end_ns, s.calls
            );
        }
        out
    }
}

/// Runs `step(pass, rec, k)` for every `k` below `n` in three passes,
/// untraced, traced and untraced, interleaved per `k` so that drift in
/// machine speed weighs on all three alike. Returns the traced pass's
/// recorder and results, and the tracing overhead in percent: the traced
/// pass's time over the mean of the untraced ones.
pub fn interleaved<T>(
    n: usize,
    mut step: impl FnMut(usize, &mut Rec, usize) -> T,
) -> (Rec, Vec<T>, f64) {
    let mut recs = [Rec::new(false), Rec::new(true), Rec::new(false)];
    let mut secs = [0f64; 3];
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        for (pass, rec) in recs.iter_mut().enumerate() {
            rec.job(k);
            let t = Instant::now();
            let r = step(pass, rec, k);
            secs[pass] += t.elapsed().as_secs_f64();
            if pass == 1 {
                out.push(r);
            }
        }
    }
    let [_, rec, _] = recs;
    (
        rec,
        out,
        (secs[1] / ((secs[0] + secs[2]) / 2.0) - 1.0) * 100.0,
    )
}
