//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <shor_sim|serve_mixed|serve_catalog> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for `--seconds`,
//! checks every output against an oracle, prints what it measured, and
//! ends with one JSON line: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced run (`--trace 1`). See `perfbench/README.md`.

mod clock;
mod layers;
mod report;
mod serve;
mod shor;
mod stats;
mod trace;

use report::{metric_lines, result_line, Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["shor_sim", "serve_mixed", "serve_catalog"];

/// A seed never used while the benchmark was tuned: a claimed gain must
/// hold on it too.
pub const HOLDOUT_SEED: u64 = 104_729;

/// `serve_mixed`: requests served per second of `--seconds` (the closed
/// loop stops there, or at `--seconds`, whichever comes first). Low
/// enough to be reached in a phase of heavy steal, so that the requests
/// each fleet keeps — and with them `peak_rss_mb` — do not vary.
const MIXED_PER_SECOND: f64 = 800.0;
/// `serve_mixed`: latency limit of `slo_attainment`, ms.
const MIXED_SLO_MS: f64 = 20.0;
/// `serve_catalog`: distinct programs (three times the fleet's 16 cache
/// entries).
const CATALOG_DISTINCT: usize = 48;
/// `serve_catalog`: requests kept outstanding by the closed loop.
const CATALOG_OUTSTANDING: usize = 4;
/// `serve_catalog`: requests served per second of `--seconds` (the
/// closed loop stops there, or at `--seconds`, whichever comes first).
const CATALOG_PER_SECOND: f64 = 180.0;
/// `serve_catalog`: latency limit of `slo_attainment`, ms.
const CATALOG_SLO_MS: f64 = 100.0;

const USAGE: &str =
    "usage: perfbench --workload <shor_sim|serve_mixed|serve_catalog> [--seed N] [--seconds S] [--trace 0|1]";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot_taken = |taken: bool| {
            if taken {
                Err(format!("{flag} given twice"))
            } else {
                Ok(())
            }
        };
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                slot_taken(workload.is_some())?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                slot_taken(seed.is_some())?;
                seed = Some(number()?);
            }
            "--seconds" => {
                slot_taken(seconds.is_some())?;
                let s = number()?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds must be 1..=600, not {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                slot_taken(trace.is_some())?;
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The commit the benchmark was built from, when run inside a git
/// checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|h| h.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or_default()
                        .to_string()
                })
            })
            .unwrap_or_default(),
    };
    if hash.is_empty() {
        "unknown (not a git checkout)".to_string()
    } else {
        hash
    }
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let seconds = args.seconds as f64;
    let mut outcome: Outcome = match args.workload {
        "shor_sim" => shor::run(args.seed, seconds, args.trace, nproc),
        "serve_mixed" => serve::run(
            &serve::mixed(args.seed, MIXED_PER_SECOND, MIXED_SLO_MS),
            seconds,
            args.trace,
            (nproc / 2).max(1),
        ),
        _ => serve::run(
            &serve::catalog(
                args.seed,
                CATALOG_DISTINCT,
                CATALOG_OUTSTANDING,
                CATALOG_PER_SECOND,
                CATALOG_SLO_MS,
            ),
            seconds,
            args.trace,
            (nproc / 2).max(1),
        ),
    };
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        match peak_rss_mb() {
            Ok(mb) => outcome.metrics.set("peak_rss_mb", mb),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "perfbench {} (seed {}, {} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    let mut provenance = vec![
        ("workload", json_string(args.workload)),
        ("seed", args.seed.to_string()),
        ("holdout_seed", HOLDOUT_SEED.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("commit", json_string(&commit())),
    ];
    provenance.extend(outcome.params.iter().map(|(k, v)| (*k, json_string(v))));
    println!(
        "provenance {{{}}}",
        provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for line in metric_lines(catalogue, &outcome.metrics) {
        println!("{line}");
    }
    println!(
        "  {:<30} {:>16.6} fraction ({} failed of {} attempted)",
        "failed_frac",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    match result_line(
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        catalogue,
        &outcome.metrics,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: an output check failed (see the lines above)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn full_command_line_parses() {
        assert_eq!(
            parse("--workload serve_mixed --seed 7 --seconds 10 --trace 1"),
            Ok(Args {
                workload: "serve_mixed",
                seed: 7,
                seconds: 10,
                trace: true
            })
        );
        assert_eq!(parse("--workload shor_sim").unwrap().seconds, 10);
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload shor_sim --seed x",
            "--workload shor_sim --seed -1",
            "--workload shor_sim --seconds 0",
            "--workload shor_sim --trace 2",
            "--workload shor_sim --seed 1 --seed 2",
            "--workload shor_sim --extra 1",
            "--workload shor_sim --seed",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }
}
