//! The output oracle: the source semantics. Every expected result comes
//! from `cakeml::run_program` under `basis::BasisHost`, never from the
//! compiler or an engine under test.

use basis::{BasisHost, FsState};
use cakeml::CompilerConfig;

use crate::gen::Job;

/// What the source semantics says a job must produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Exit code.
    pub exit: u8,
    /// Standard output.
    pub stdout: Vec<u8>,
    /// Standard error.
    pub stderr: Vec<u8>,
}

/// Interpreter fuel: far beyond any generated input.
const INTERP_FUEL: u64 = 1 << 40;

/// Runs `job` under the source semantics.
///
/// # Panics
///
/// When a generated input does not run to an exit under the source
/// semantics: the generator is then broken, not the stack.
pub fn expect(job: &Job) -> Expected {
    let (prog, _) = cakeml::frontend(job.source, &CompilerConfig::default())
        .unwrap_or_else(|e| panic!("corpus program `{}` must parse and type: {e}", job.family));
    let mut host = BasisHost::new(FsState::stdin_only(&job.argv(), &job.stdin));
    let out = cakeml::run_program(&prog, &mut host, INTERP_FUEL)
        .unwrap_or_else(|e| panic!("`{}` must run under the source semantics: {e}", job.family));
    Expected {
        exit: out.exit_code,
        stdout: host.fs.stdout,
        stderr: host.fs.stderr,
    }
}

/// Stack for oracle threads: the interpreter recurses deeply.
const ORACLE_STACK: usize = 256 << 20;

/// Expected results for every job, computed on `threads` threads.
pub fn expect_all(jobs: &[Job], threads: usize) -> Vec<Expected> {
    let chunk = jobs.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| {
                std::thread::Builder::new()
                    .stack_size(ORACLE_STACK)
                    .spawn_scoped(s, move || part.iter().map(expect).collect::<Vec<_>>())
                    .expect("spawn oracle thread")
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// Compares an observed result against the oracle; `Err` names the
/// first difference.
pub fn check(
    want: &Expected,
    exit: Option<u8>,
    stdout: &[u8],
    stderr: &[u8],
) -> Result<(), String> {
    if exit != Some(want.exit) {
        return Err(format!("exit {exit:?}, expected {}", want.exit));
    }
    if stdout != want.stdout.as_slice() {
        return Err(format!(
            "stdout differs ({} bytes, expected {})",
            stdout.len(),
            want.stdout.len()
        ));
    }
    if stderr != want.stderr.as_slice() {
        return Err("stderr differs".to_string());
    }
    Ok(())
}

/// Two wrong expectations for the checker's own test: `want` with one
/// stdout byte corrupted, and `want` with another exit code. A true
/// result checked against either must be counted as a failure.
pub fn corruptions(want: &Expected) -> [Expected; 2] {
    let mut stdout = want.clone();
    match stdout.stdout.first_mut() {
        Some(b) => *b ^= 0x20,
        None => stdout.stdout.push(b'x'),
    }
    let exit = Expected {
        exit: want.exit.wrapping_add(1),
        ..want.clone()
    };
    [stdout, exit]
}

/// The verdict of the checker's own test: the `n` results checked
/// against `corruptions` must all have been counted, and all as failed.
pub fn expect_counted(attempted: u64, failed: u64, n: usize) -> Result<(), String> {
    if attempted == n as u64 && failed == n as u64 {
        Ok(())
    } else {
        Err(format!(
            "oracle self-check: {n} results checked against corrupted expectations counted {failed} failed of {attempted} attempted"
        ))
    }
}
