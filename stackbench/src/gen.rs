//! Seeded inputs for every workload. The seed picks the content; the
//! shape (programs and input sizes) is fixed per workload, so
//! different seeds load the stack alike and only the bytes differ.

use silver_stack::apps;
use testkit::{Rng, TestRng};

/// One compile-and-run request: a corpus program, its command line and
/// its standard input.
#[derive(Clone, Debug)]
pub struct Job {
    /// Program family (the corpus name in `apps::ALL`).
    pub family: &'static str,
    /// Source text.
    pub source: &'static str,
    /// Command line, `argv[0]` first.
    pub args: Vec<String>,
    /// Standard input.
    pub stdin: Vec<u8>,
}

impl Job {
    fn new(family: &'static str, args: Vec<String>, stdin: Vec<u8>) -> Job {
        let source = apps::ALL
            .iter()
            .find(|(name, _)| *name == family)
            .map(|(_, src)| *src)
            .expect("family names a corpus program");
        Job {
            family,
            source,
            args,
            stdin,
        }
    }

    /// The command line as borrowed strings, for `Stack` and `build_image`.
    pub fn argv(&self) -> Vec<&str> {
        self.args.iter().map(String::as_str).collect()
    }
}

const WORDS: &[&str] = &[
    "silver", "cake", "verified", "stack", "theorem", "retire", "fuel", "shard", "jet", "proof",
    "halt", "carry", "mango", "pear", "apple", "lemma", "circuit", "verilog", "wire", "clock",
    "fetch", "decode", "store", "load", "branch", "trap", "page", "frame", "queue", "cache",
    "tenant", "slice",
];

fn word(rng: &mut TestRng) -> &'static str {
    WORDS[rng.gen_range(0..WORDS.len())]
}

/// `lines` lines of one to `max_words` words each.
fn text(rng: &mut TestRng, lines: usize, max_words: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..lines {
        let n = rng.gen_range(1..=max_words);
        for w in 0..n {
            if w > 0 {
                out.push(b' ');
            }
            out.extend_from_slice(word(rng).as_bytes());
        }
        out.push(b'\n');
    }
    out
}

/// Random words and newlines up to exactly `bytes` bytes.
fn text_bytes(rng: &mut TestRng, bytes: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes + 16);
    while out.len() < bytes {
        out.extend_from_slice(word(rng).as_bytes());
        out.push(if rng.gen_range(0..5u32) == 0 {
            b'\n'
        } else {
            b' '
        });
    }
    out.truncate(bytes);
    out.push(b'\n');
    out
}

/// An arithmetic expression with `terms` terms: a sum of products of at
/// most two small factors, some parenthesised. Values stay far inside
/// the machine's integer range.
fn expression(rng: &mut TestRng, terms: usize) -> Vec<u8> {
    let mut s = String::new();
    for t in 0..terms {
        if t > 0 {
            s.push_str(if rng.gen_range(0..3u32) == 0 {
                " - "
            } else {
                " + "
            });
        }
        let a = rng.gen_range(0..100u32);
        match rng.gen_range(0..3u32) {
            0 => s.push_str(&a.to_string()),
            1 => s.push_str(&format!("{a}*{}", rng.gen_range(0..100u32))),
            _ => s.push_str(&format!(
                "({a}+{})*{}",
                rng.gen_range(0..100u32),
                rng.gen_range(0..10u32)
            )),
        }
    }
    s.push('\n');
    s.into_bytes()
}

/// A grep job whose pattern occurs in its input, so it exits 0.
fn grep_job(rng: &mut TestRng, lines: usize) -> Job {
    let stdin = text(rng, lines, 4);
    let first = String::from_utf8_lossy(&stdin)
        .split_whitespace()
        .next()
        .unwrap_or("silver")
        .to_string();
    Job::new("grep", vec!["grep".into(), first], stdin)
}

/// A proof of `a -> a` from K and S, with `extra` more K axioms.
fn proof(rng: &mut TestRng, extra: usize) -> Vec<u8> {
    let atom = |rng: &mut TestRng| (b'a' + rng.gen_range(0..6u8)) as char;
    let a = atom(rng);
    let mut s = format!("S {a} i{a}{a} {a}\nK {a} i{a}{a}\nMP 0 1\nK {a} {a}\nMP 2 3\n");
    for _ in 0..extra {
        s.push_str(&format!("K {} {}\n", atom(rng), atom(rng)));
    }
    s.into_bytes()
}

/// The families of `serve-exec`, with the input shape of each. Sizes
/// put every family near half a million retires, so a job costs about
/// the same whichever family the shadow sampler picks.
pub const EXEC_FAMILIES: &[&str] = &["sort", "wc", "grep", "mini_compiler"];

/// One distinct mid-size job of `family`.
pub fn exec_job(rng: &mut TestRng, family: &str) -> Job {
    match family {
        "sort" => Job::new("sort", vec!["sort".into()], text(rng, 21, 3)),
        "wc" => Job::new("wc", vec!["wc".into()], text_bytes(rng, 700)),
        "grep" => grep_job(rng, 24),
        "mini_compiler" => Job::new(
            "mini_compiler",
            vec!["mini_compiler".into()],
            expression(rng, 10),
        ),
        other => panic!("no exec family `{other}`"),
    }
}

/// `n` distinct `serve-exec` jobs: each block of four holds one job of
/// every family, in a seeded order, so any stretch of the run mixes the
/// families evenly. A drawn input that repeats an earlier one is drawn
/// again, so no job can hit the result cache.
pub fn exec_jobs(seed: u64, n: usize) -> Vec<Job> {
    let mut rng = TestRng::seed_from_u64(seed ^ 0x5e4e_e8ec);
    let mut seen = std::collections::HashSet::new();
    let mut jobs = Vec::with_capacity(n);
    while jobs.len() < n {
        let mut order = EXEC_FAMILIES.to_vec();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for f in order {
            let job = loop {
                let job = exec_job(&mut rng, f);
                if seen.insert((job.args.clone(), job.stdin.clone())) {
                    break job;
                }
            };
            jobs.push(job);
        }
    }
    jobs.truncate(n);
    jobs
}

/// One `stack-levels` corpus entry and the hardware levels it runs at.
#[derive(Clone, Debug)]
pub struct LevelJob {
    /// The program and its input.
    pub job: Job,
    /// Runs at layer 3 (the circuit).
    pub rtl: bool,
    /// Runs at layer 4 (Verilog, in lockstep with the circuit).
    pub verilog: bool,
}

/// The `stack-levels` corpus: every program of the app suite on a tiny
/// seeded input. Which levels an entry runs at is fixed per program, by
/// its size: everything runs on both ISA engines, the five short
/// programs at RTL, and `hello` at Verilog: every program that reads
/// its input pays a fixed ~260k retires for `read_all`'s buffers, which
/// is ~2.6 s per run at layer 4.
pub fn level_corpus(seed: u64) -> Vec<LevelJob> {
    let mut rng = TestRng::seed_from_u64(seed ^ 0x1e7e15);
    let entry = |job, rtl, verilog| LevelJob { job, rtl, verilog };
    vec![
        entry(
            Job::new("hello", vec!["hello".into()], Vec::new()),
            true,
            true,
        ),
        entry(
            Job::new("cat", vec!["cat".into()], text(&mut rng, 1, 2)),
            true,
            false,
        ),
        entry(
            Job::new("wc", vec!["wc".into()], text(&mut rng, 1, 3)),
            true,
            false,
        ),
        entry(
            Job::new("sort", vec!["sort".into()], text(&mut rng, 3, 1)),
            true,
            false,
        ),
        entry(grep_job(&mut rng, 2), true, false),
        entry(
            Job::new(
                "proof_checker",
                vec!["proof_checker".into()],
                proof(&mut rng, 2),
            ),
            false,
            false,
        ),
        entry(
            Job::new(
                "mini_compiler",
                vec!["mini_compiler".into()],
                expression(&mut rng, 6),
            ),
            false,
            false,
        ),
    ]
}
