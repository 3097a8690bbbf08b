//! Regenerates Fig. 14: individual RB and simRB decay curves with fitted
//! fidelities, plus a through-the-control-stack validation run.
//!
//! Usage: `fig14_simrb [--json] [--stack] [--batch [SHOTS]]`.
//!
//! `--batch` runs the shot-engine acceptance comparison *instead of*
//! the figure (it composes with `--json` but not `--stack`): N noise
//! realizations (default 256) of one RB sequence through the complete
//! stack, once as a sequential loop of full-report shots from one
//! compiled job and once through the batched `ShotEngine`, reporting
//! shots/sec for both.

use quape_bench::fig14;
use quape_bench::table::{to_json, TextTable};

fn batch_comparison(shots: u64, json: bool) {
    let c = fig14::shot_engine_comparison(48, shots, 0);
    if json {
        println!("{}", to_json(&c));
        return;
    }
    println!(
        "shot engine vs sequential loop — {} shots of one m={} RB sequence through the stack:\n",
        c.shots, c.m
    );
    let mut t = TextTable::new(["method", "wall time", "shots/sec", "survival"]);
    t.row([
        "sequential Shot loop".to_string(),
        format!("{:.3} s", c.sequential_secs),
        format!("{:.1}", c.sequential_shots_per_sec),
        format!("{:.3}", c.survival_sequential),
    ]);
    t.row([
        format!("ShotEngine ({} threads)", c.batch_threads),
        format!("{:.3} s", c.batch_secs),
        format!("{:.1}", c.batch_shots_per_sec),
        format!("{:.3}", c.survival_batch),
    ]);
    println!("{}", t.render());
    println!("speedup: {:.2}x", c.speedup);
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let stack = std::env::args().any(|a| a == "--stack");
    if let Some(pos) = std::env::args().position(|a| a == "--batch") {
        if stack {
            eprintln!("fig14_simrb: --batch replaces the figure run; ignoring --stack");
        }
        let shots = match std::env::args().nth(pos + 1) {
            Some(v) if !v.starts_with("--") => v.parse().expect("--batch needs a number"),
            _ => 256,
        };
        batch_comparison(shots, json);
        return;
    }

    let report = fig14::run_direct();
    if json {
        println!("{}", to_json(&report));
        return;
    }

    println!("Fig. 14 — RB and simRB on q0/q1 (state-vector QPU):\n");
    let mut t = TextTable::new(["curve", "fidelity", "paper", "decay p"]);
    let rows = [
        ("RB q0 (individual)", &report.individual_a, 0.995),
        ("RB q1 (individual)", &report.individual_b, 0.994),
        ("simRB q0", &report.simultaneous_a, 0.987),
        ("simRB q1", &report.simultaneous_b, 0.991),
    ];
    for (name, curve, paper) in rows {
        t.row([
            name.to_string(),
            format!("{:.2}%", curve.fidelity() * 100.0),
            format!("{:.1}%", paper * 100.0),
            format!("{:.5}", curve.fit.decay),
        ]);
    }
    println!("{}", t.render());

    println!("survival curves (sequence length -> survival):");
    let mut c = TextTable::new(["m", "RB q0", "RB q1", "simRB q0", "simRB q1"]);
    for (i, p) in report.individual_a.points.iter().enumerate() {
        c.row([
            p.length.to_string(),
            format!("{:.4}", p.survival),
            format!("{:.4}", report.individual_b.points[i].survival),
            format!("{:.4}", report.simultaneous_a.points[i].survival),
            format!("{:.4}", report.simultaneous_b.points[i].survival),
        ]);
    }
    println!("{}", c.render());

    if stack {
        println!("through-stack validation (assembler -> QuAPE machine -> QPU):");
        let lengths = [1, 4, 12, 24, 48, 96];
        let (samples, shots_per_sample) = (40, 4);
        let started = std::time::Instant::now();
        let r = fig14::run_through_stack_batch(&lengths, samples, shots_per_sample, 0);
        let secs = started.elapsed().as_secs_f64();
        let total_shots = (lengths.len() as u64) * 2 * samples as u64 * shots_per_sample;
        println!(
            "({samples} sequences x {shots_per_sample} shots per length and mode: {total_shots} shots in {secs:.2} s, {:.1} shots/sec)",
            total_shots as f64 / secs.max(f64::MIN_POSITIVE)
        );
        let mut s = TextTable::new(["m", "individual", "simultaneous"]);
        for (i, &m) in r.lengths.iter().enumerate() {
            s.row([
                m.to_string(),
                format!("{:.3}", r.survival_individual[i]),
                format!("{:.3}", r.survival_simultaneous[i]),
            ]);
        }
        println!("{}", s.render());
        println!(
            "fits: individual p={:.5}, simultaneous p={:.5}",
            r.fit_individual.decay, r.fit_simultaneous.decay
        );
    }
}
