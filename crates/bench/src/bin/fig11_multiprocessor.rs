//! Regenerates Fig. 11: Shor syndrome measurement execution time and
//! speedup for 1/2/4/6 processors at three verification failure rates.
//!
//! Usage: `fig11_multiprocessor [--runs N] [--json]` (paper: 1000 runs).

use quape_bench::fig11::{self, Fig11Options};
use quape_bench::table::{to_json, TextTable};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let runs = args.iter().position(|a| a == "--runs").map_or(200, |i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--runs needs a number")
    });
    let json = args.iter().any(|a| a == "--json");

    let (q, c, blocks, priorities) = fig11::workload_stats();
    println!("Shor syndrome measurement, Steane [[7,1,3]], 37 qubits");
    println!(
        "program: {q} quantum + {c} classical instructions, {blocks} blocks, {priorities} priorities"
    );
    println!("(paper: 288 quantum + 252 classical, 50 blocks, 15 priorities)\n");

    let rows = fig11::run(Fig11Options { runs, seed: 1 });
    if json {
        println!("{}", to_json(&rows));
        return;
    }

    println!("Fig. 11a — mean execution time over {runs} runs (µs):");
    let mut a = TextTable::new(["failure rate", "1 proc", "2 procs", "4 procs", "6 procs"]);
    for &f in &fig11::FAILURE_RATES {
        let cell = |n: usize| {
            rows.iter()
                .find(|r| r.processors == n && (r.failure_rate - f).abs() < 1e-9)
                .map(|r| format!("{:.2}", r.mean_time_us))
                .expect("cell present")
        };
        a.row([format!("{f:.2}"), cell(1), cell(2), cell(4), cell(6)]);
    }
    println!("{}", a.render());

    println!("Fig. 11b — actual and ideal speedup:");
    let mut b = TextTable::new(["processors", "actual", "ideal"]);
    for &n in &fig11::PROCESSOR_COUNTS {
        let series: Vec<_> = rows.iter().filter(|r| r.processors == n).collect();
        let actual = series.iter().map(|r| r.speedup).sum::<f64>() / series.len() as f64;
        let ideal = series.iter().map(|r| r.ideal_speedup).sum::<f64>() / series.len() as f64;
        b.row([n.to_string(), format!("{actual:.2}"), format!("{ideal:.2}")]);
    }
    println!("{}", b.render());
    println!(
        "peak 6-core speedup: {:.2}x   (paper: up to 2.59x)",
        fig11::peak_speedup(&rows)
    );
}
