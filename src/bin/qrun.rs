//! `qrun` — assemble and execute a timed-QASM program on a configurable
//! QuAPE machine, printing the operation timeline and run statistics.
//!
//! ```sh
//! qrun program.qasm [--config scalar|superscalar8|multiprocessor=N]
//!                   [--seed N] [--model zero|one|coin|p=0.25]
//!                   [--timeline] [--ces] [--listing] [--limit CYCLES]
//!                   [--emit-object out.qobj]
//! qrun program.qobj ...      # binary containers load directly
//! ```

use quape::core::{render_timeline, TimelineOptions};
use quape::prelude::*;
use std::process::ExitCode;

struct Args {
    path: String,
    config: QuapeConfig,
    model: MeasurementModel,
    timeline: bool,
    ces: bool,
    listing: bool,
    limit: u64,
    emit_object: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut config = QuapeConfig::superscalar(8);
    let mut model = MeasurementModel::Bernoulli { p_one: 0.5 };
    let mut timeline = false;
    let mut ces = false;
    let mut listing = false;
    let mut limit = 10_000_000u64;
    let mut seed = 1u64;
    let mut emit_object = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => {
                let v = args.next().ok_or("--config needs a value")?;
                config = match v.as_str() {
                    "scalar" => QuapeConfig::scalar_baseline(),
                    "superscalar8" => QuapeConfig::superscalar(8),
                    other => match other.strip_prefix("multiprocessor=") {
                        Some(n) => QuapeConfig::multiprocessor(
                            n.parse()
                                .map_err(|_| format!("bad processor count `{n}`"))?,
                        ),
                        None => return Err(format!("unknown config `{other}`")),
                    },
                };
            }
            "--seed" => {
                seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "bad seed".to_string())?;
            }
            "--model" => {
                let v = args.next().ok_or("--model needs a value")?;
                model = match v.as_str() {
                    "zero" => MeasurementModel::AlwaysZero,
                    "one" => MeasurementModel::AlwaysOne,
                    "coin" => MeasurementModel::Bernoulli { p_one: 0.5 },
                    other => match other.strip_prefix("p=") {
                        Some(p) => MeasurementModel::Bernoulli {
                            p_one: p.parse().map_err(|_| format!("bad probability `{p}`"))?,
                        },
                        None => return Err(format!("unknown model `{other}`")),
                    },
                };
            }
            "--timeline" => timeline = true,
            "--ces" => ces = true,
            "--listing" => listing = true,
            "--emit-object" => {
                emit_object = Some(args.next().ok_or("--emit-object needs a path")?);
            }
            "--limit" => {
                limit = args
                    .next()
                    .ok_or("--limit needs a value")?
                    .parse()
                    .map_err(|_| "bad cycle limit".to_string())?;
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let path = path.ok_or("usage: qrun <program.qasm|program.qobj> [options]")?;
    Ok(Args {
        path,
        config: config.with_seed(seed),
        model,
        timeline,
        ces,
        listing,
        limit,
        emit_object,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qrun: {e}");
            return ExitCode::FAILURE;
        }
    };
    let program = if args.path.ends_with(".qobj") {
        match std::fs::read(&args.path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| quape::isa::read_object(&bytes).map_err(|e| e.to_string()))
        {
            Ok(p) => p,
            Err(e) => {
                eprintln!("qrun: {}: {e}", args.path);
                return ExitCode::FAILURE;
            }
        }
    } else {
        let source = match std::fs::read_to_string(&args.path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("qrun: cannot read {}: {e}", args.path);
                return ExitCode::FAILURE;
            }
        };
        match assemble(&source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("qrun: {}: {e}", args.path);
                return ExitCode::FAILURE;
            }
        }
    };
    if let Some(out) = &args.emit_object {
        match quape::isa::write_object(&program) {
            Ok(bytes) => {
                if let Err(e) = std::fs::write(out, bytes) {
                    eprintln!("qrun: cannot write {out}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {out}");
            }
            Err(e) => {
                eprintln!("qrun: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.listing {
        print!("{}", program.listing());
    }
    println!(
        "{}: {} quantum + {} classical instructions, {} block(s)",
        args.path,
        program.quantum_count(),
        program.classical_count(),
        program.blocks().len().max(1)
    );
    let cfg = args.config;
    let qpu = BehavioralQpu::new(cfg.timings, args.model, cfg.seed);
    let seed = cfg.seed;
    let job = match CompiledJob::compile(cfg, program) {
        Ok(job) => job,
        Err(e) => {
            eprintln!("qrun: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = job.shot(Box::new(qpu), seed).run_with_limit(args.limit);
    println!(
        "stop: {:?} after {} cycles ({} ns); {} ops issued, {} measurement(s)",
        report.stop,
        report.cycles,
        report.execution_time_ns(),
        report.issued_count(),
        report.measurements.len()
    );
    println!(
        "timing: {} late issue(s), {} QPU violation(s), {} context switch(es)",
        report.stats.late_issues,
        report.violations.len(),
        report
            .stats
            .processors
            .iter()
            .map(|p| p.context_switches)
            .sum::<u64>()
    );
    for m in &report.measurements {
        println!(
            "  t = {:>6} ns  {} -> {}",
            m.time_ns,
            m.qubit,
            u8::from(m.value)
        );
    }
    if args.timeline {
        println!();
        print!("{}", render_timeline(&report, &TimelineOptions::default()));
    }
    if args.ces {
        println!();
        print!("{}", ces_report_paper(&report));
    }
    if matches!(report.stop, StopReason::Completed | StopReason::Halted) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
