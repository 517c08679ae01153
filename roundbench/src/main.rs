//! The round benchmark's command.
//!
//! ```text
//! cargo run --release --offline --manifest-path roundbench/Cargo.toml -- \
//!     --workload fedknow-inproc --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The command re-runs itself as a child process with every inherited
//! `FEDKNOW_*` variable removed, so each workload gets a fresh process
//! (and its own peak RSS) and the program runs with its defaults. The
//! child prints a metric table and, as its last line, one JSON object;
//! it exits non-zero when an output check failed.

use fedknow_roundbench::measure::{traced_run, untraced_run, Outcome};
use fedknow_roundbench::workload::Workload;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        child,
    })
}

/// Run the child and pass its output on; a child that died before
/// printing its result line is reported as one failed operation.
fn run_child() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("roundbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cmd = Command::new(exe);
    cmd.args(std::env::args_os().skip(1))
        .arg("--child")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        // One glibc malloc arena: otherwise peak RSS depends on which
        // arena each short-lived worker thread happens to get.
        .env("MALLOC_ARENA_MAX", "1");
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("FEDKNOW_") {
            cmd.env_remove(key);
        }
    }
    let out = match cmd.output() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("roundbench: cannot start the workload process: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let has_result = stdout
        .lines()
        .last()
        .is_some_and(|l| l.starts_with("{\"correct\""));
    if !has_result {
        eprintln!(
            "roundbench: the workload process ended without a result ({})",
            out.status
        );
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        return ExitCode::FAILURE;
    }
    if out.status.success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("roundbench: {e}");
            eprintln!("usage: roundbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if !args.child {
        return run_child();
    }
    let outcome: Outcome = if args.trace {
        traced_run(args.workload, args.seed, args.seconds)
    } else {
        untraced_run(args.workload, args.seed, args.seconds)
    };
    if outcome.print() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
