//! Regenerates the Fig. 7 scheduler status-register flow on the Fig. 6
//! example circuit (W1 ∥ W2 → W3 → W4).
//!
//! Usage: `fig07_status_flow [processors]` (default 2, as in the paper's
//! illustration).

use quape_bench::fig07;
use quape_bench::table::TextTable;

fn main() {
    let processors: usize = std::env::args()
        .nth(1)
        .map_or(2, |a| a.parse().expect("processors needs a number"));
    println!("Fig. 7 — block status flow on {processors} processor(s):");
    let events = fig07::run(processors);
    let mut t = TextTable::new(["cycle", "block", "status", "processor"]);
    let program = fig07::example_program();
    for e in &events {
        let name = program
            .blocks()
            .get(e.block)
            .map(|b| b.name.clone())
            .unwrap_or_else(|| e.block.to_string());
        t.row([
            e.cycle.to_string(),
            name,
            e.status.to_string(),
            e.processor.map_or("-".to_string(), |p| p.to_string()),
        ]);
    }
    println!("{}", t.render());
}
