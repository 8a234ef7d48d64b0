//! The metric catalogue and the result line. The names and units here
//! are the ones `BENCHMARK.json` declares; every run prints all of its
//! mode's metrics, in this order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use silver_stack::apps;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
];

/// Per-layer metrics that are not per program, printed by every traced
/// run. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cakeml.parse_ms", "ms"),
    ("cakeml.typecheck_ms", "ms"),
    ("cakeml.anf_ms", "ms"),
    ("cakeml.opt_ms", "ms"),
    ("cakeml.clos_ms", "ms"),
    ("cakeml.codegen_ms", "ms"),
    ("cakeml.code_bytes", "B"),
    ("basis.image_ms", "ms"),
    ("ag32.minstr_per_s", "Minstr/s"),
    ("jet.from_state_ms", "ms"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.captures_per_job", "count"),
    ("snapshot.restore_ms", "ms"),
    ("snapshot.to_bytes_ms", "ms"),
    ("snapshot.bytes", "B"),
    ("exec.capture_share_pct", "%"),
    ("shadow.ms", "ms"),
    ("rtl.cycle_ns", "ns"),
    ("rtl.env_ns", "ns"),
    ("verilog.cycle_ns", "ns"),
    ("silverc_ms", "ms"),
    ("silverc_jet_ms", "ms"),
    ("rtl_kcycles_per_s", "kcycles/s"),
    ("verilog_kcycles_per_s", "kcycles/s"),
    ("service.cache_hit_rate", "ratio"),
    ("service.cache_lookup_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("service.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("count.jobs_replayed", "count"),
    ("count.retires_per_job", "count"),
    ("count.rtl_cycles", "count"),
    ("count.verilog_cycles", "count"),
    ("count.cache_hits", "count"),
    ("count.cache_misses", "count"),
];

/// Per-program jet metrics: `<stem>.<program>` for every corpus program.
pub const PER_PROGRAM: &[(&str, &str)] = &[
    ("jet.minstr_per_s", "Minstr/s"),
    ("jet.code_invalidations", "count"),
    ("jet.redecodes", "count"),
    ("jet.slow_steps", "count"),
];

/// Every per-layer metric name with its unit, per-program ones expanded.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<_> = PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for &(stem, unit) in PER_PROGRAM {
        for (prog, _) in apps::ALL {
            out.push((format!("{stem}.{prog}"), unit));
        }
    }
    out
}

/// One run's result line.
#[derive(Default)]
pub struct Report {
    /// Every output matched the oracle and every self-check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The result line: every metric of the mode, in catalogue order.
    ///
    /// # Panics
    ///
    /// When a correct untraced run did not measure an end-to-end metric
    /// (a benchmark bug).
    pub fn json(&self, traced: bool) -> String {
        let names: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut m = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = match self.values.get(name) {
                Some(v) => *v,
                None if traced || !self.correct => 0.0,
                None => panic!("end-to-end metric `{name}` was not measured"),
            };
            let v = if v.is_finite() { v } else { 0.0 };
            let _ = write!(
                m,
                "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (v.len() - 1) as f64 * q;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident memory of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
