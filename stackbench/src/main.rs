//! `stackbench`: the repository benchmark. One command runs a named
//! workload from a seed, checks every output against the source
//! semantics, and prints its metrics as one JSON line:
//!
//! ```text
//! cargo run --release --manifest-path stackbench/Cargo.toml -- \
//!     --workload serve-exec --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is a separate
//! run that also replays a fixed prefix of the jobs through each
//! layer's public functions inside spans, prints the per-layer metrics,
//! and writes the spans, the exact counts and the per-layer self times
//! under `stackbench/out/`. See `stackbench/README.md`.

mod gen;
mod layers;
mod levels_wl;
mod oracle;
mod probe;
mod report;
mod serve;
mod serve_wl;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use spans::Rec;

/// Command-line options.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
}

fn parse() -> Result<Opts, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        map.insert(key, value);
    }
    let take = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| take(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"));
    let opts = Opts {
        workload: take("workload")?,
        seed: num("seed")?,
        seconds: num("seconds")?,
        trace: num("trace")? == 1,
    };
    if map
        .keys()
        .any(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err("unknown option".to_string());
    }
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(opts)
}

/// Where the traced run writes its spans, counts and breakdown.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the traced run's files: the spans as JSON lines, the exact
/// counts, and self time per layer and per program family.
pub fn write_outputs(
    workload: &str,
    seed: u64,
    rec: &Rec,
    counts: &str,
    family: impl Fn(usize) -> String,
) {
    let mut layers =
        String::from("# self time per (family, layer), ms; then per layer over all families\n");
    let by_group = rec.self_by_group(family);
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for ((fam, name), ns) in &by_group {
        let _ = writeln!(layers, "{fam:<24} {name:<22} {:>12.3}", *ns as f64 / 1e6);
        *by_layer.entry(name).or_default() += ns;
    }
    layers.push('\n');
    for (name, ns) in &by_layer {
        let _ = writeln!(layers, "{:<24} {name:<22} {:>12.3}", "*", *ns as f64 / 1e6);
    }
    eprint!("{layers}");
    let dir = out_dir();
    let stem = format!("{workload}-seed{seed}");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}-spans.jsonl")), rec.json_lines()))
        .and_then(|()| std::fs::write(dir.join(format!("{stem}-counts.txt")), counts))
        .and_then(|()| std::fs::write(dir.join(format!("{stem}-layers.txt")), &layers));
    if let Err(e) = written {
        eprintln!("stackbench: could not write {}: {e}", dir.display());
    }
}

fn main() {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stackbench: {e}\nusage: stackbench --workload <serve-exec|stack-levels> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let report = match opts.workload.as_str() {
        "serve-exec" => serve_wl::run(&opts),
        "stack-levels" => levels_wl::run(&opts),
        other => {
            eprintln!("stackbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    println!("{}", report.json(opts.trace));
}
