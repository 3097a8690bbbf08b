//! ASCII timeline rendering of a run's AWG playback timeline.
//!
//! Produces the per-qubit Gantt view used by the examples to show what
//! the control stack actually delivered to the QPU — the visual
//! equivalent of Fig. 3's parallel/serial execution diagrams.
//!
//! Pulse extents **stream from the recorded playback timeline**
//! ([`RunReport::playback`]): the AWG bank resolved each waveform's
//! duration at emit time, so the renderer never re-derives timing. For
//! hand-built reports without playback data it falls back to deriving
//! extents from the issued operations and [`TimelineOptions::timings`].

use crate::report::RunReport;
use quape_isa::{OpTimings, QuantumOp};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Options for [`render_timeline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineOptions {
    /// Nanoseconds represented by one character column.
    pub ns_per_column: u64,
    /// Maximum number of columns (the timeline truncates after this).
    pub max_columns: usize,
    /// Operation durations for the no-playback fallback path (reports
    /// produced by a machine run carry recorded extents instead).
    pub timings: OpTimings,
}

impl Default for TimelineOptions {
    fn default() -> Self {
        TimelineOptions {
            ns_per_column: 10,
            max_columns: 120,
            timings: OpTimings {
                single_qubit_ns: 20,
                two_qubit_ns: 40,
                readout_pulse_ns: 300,
            },
        }
    }
}

fn glyph(op: &QuantumOp) -> char {
    match op {
        QuantumOp::Gate1(g, _) => g.mnemonic().chars().next().unwrap_or('?'),
        QuantumOp::Gate2(g, ..) => g.mnemonic().chars().next().unwrap_or('?'),
        QuantumOp::Measure(_) => 'M',
    }
}

/// One pulse to paint: a qubit row plus the extent in absolute time.
struct Paint {
    qubit: u16,
    start_ns: u64,
    end_ns: u64,
    glyph: char,
}

/// Renders the playback timeline of `report` as one text row per qubit.
///
/// Each pulse paints its first column with the gate's initial and the
/// rest of its extent with `=` (every column the pulse touches, rounding
/// the end up); idle time is `.`. A trailing `>` marks each row that
/// overflowed `max_columns`.
///
/// ```
/// use quape_core::{render_timeline, CompiledJob, QuapeConfig, TimelineOptions};
/// use quape_qpu::{BehavioralQpu, MeasurementModel};
/// use quape_isa::assemble;
///
/// let program = assemble("0 H q0\n0 H q1\n2 CNOT q0, q1\nSTOP\n")?;
/// let cfg = QuapeConfig::superscalar(4);
/// let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysZero, 1);
/// let report = CompiledJob::compile(cfg, program)?.shot(Box::new(qpu), 0).run();
/// let art = render_timeline(&report, &TimelineOptions::default());
/// assert!(art.contains("q0"));
/// assert!(art.contains("H="));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn render_timeline(report: &RunReport, opts: &TimelineOptions) -> String {
    let paints: Vec<Paint> = if report.playback.is_empty() {
        // Fallback for reports without device recordings.
        report
            .issued
            .iter()
            .flat_map(|issued| {
                let duration = opts.timings.duration_of(&issued.op);
                let g = glyph(&issued.op);
                let start_ns = issued.time_ns;
                issued.op.qubits().map(move |q| Paint {
                    qubit: q.index(),
                    start_ns,
                    end_ns: start_ns + duration,
                    glyph: g,
                })
            })
            .collect()
    } else {
        report
            .playback
            .iter()
            .map(|e| Paint {
                qubit: e.qubit.index(),
                start_ns: e.start_ns,
                end_ns: e.end_ns,
                glyph: glyph(&e.op),
            })
            .collect()
    };
    if paints.is_empty() {
        return String::from("(no operations issued)\n");
    }
    let t0 = paints.iter().map(|p| p.start_ns).min().unwrap_or(0);
    // Row content plus a per-row truncation flag: only rows that actually
    // overflow `max_columns` carry the `>` marker.
    let mut rows: BTreeMap<u16, (Vec<char>, bool)> = BTreeMap::new();
    for p in &paints {
        let start_col = ((p.start_ns - t0) / opts.ns_per_column) as usize;
        // Paint every column the pulse touches: floor the start, round the
        // end up (a 25 ns pulse at 10 ns/col spans 3 columns, not 2).
        let end_col = ((p.end_ns - t0).div_ceil(opts.ns_per_column) as usize).max(start_col + 1);
        let (row, truncated) = rows.entry(p.qubit).or_default();
        if start_col >= opts.max_columns {
            *truncated = true;
            continue;
        }
        if end_col > opts.max_columns {
            *truncated = true;
        }
        let end_col = end_col.min(opts.max_columns);
        if row.len() < end_col {
            row.resize(end_col, '.');
        }
        row[start_col] = p.glyph;
        for slot in row.iter_mut().take(end_col).skip(start_col + 1) {
            *slot = '=';
        }
    }
    let any_truncated = rows.values().any(|(_, t)| *t);
    let width = rows.values().map(|(row, _)| row.len()).max().unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "t = {t0} ns, one column = {} ns{}",
        opts.ns_per_column,
        if any_truncated { " (truncated)" } else { "" }
    );
    for (qubit, (mut row, truncated)) in rows {
        row.resize(width, '.');
        let line: String = row.into_iter().collect();
        let _ = writeln!(
            out,
            "q{qubit:<3} {line}{}",
            if truncated { ">" } else { "" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledJob, QuapeConfig};
    use quape_isa::assemble;
    use quape_qpu::{BehavioralQpu, MeasurementModel};

    fn run(src: &str) -> RunReport {
        let cfg = QuapeConfig::superscalar(8);
        let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysZero, 1);
        CompiledJob::compile(cfg, assemble(src).unwrap())
            .unwrap()
            .shot(Box::new(qpu), 0)
            .run()
    }

    #[test]
    fn parallel_gates_share_a_column() {
        let report = run("0 H q0\n0 H q1\n2 CNOT q0, q1\nSTOP\n");
        let art = render_timeline(&report, &TimelineOptions::default());
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 qubit rows
                                    // Both qubit rows start with the H glyph at the same column.
        let h0 = lines[1].find('H').expect("q0 has an H");
        let h1 = lines[2].find('H').expect("q1 has an H");
        assert_eq!(h0, h1);
        // The CNOT paints both rows after the H pulses.
        assert!(lines[1].contains('C') && lines[2].contains('C'));
    }

    #[test]
    fn durations_paint_extents() {
        let report = run("0 MEAS q0\nSTOP\n");
        assert!(!report.playback.is_empty(), "machine runs record playback");
        let art = render_timeline(&report, &TimelineOptions::default());
        // 300 ns readout at 10 ns/col = 30 columns: M followed by 29 '='.
        let row = art.lines().nth(1).expect("one qubit row");
        let eq_count = row.matches('=').count();
        assert_eq!(eq_count, 29, "{row}");
    }

    #[test]
    fn pulse_width_rounds_up_to_touched_columns() {
        // A 25 ns pulse at 10 ns/col touches 3 columns (glyph + 2 '='),
        // not the 2 that truncating division would paint.
        let mut report = run("0 X q0\nSTOP\n");
        report.playback[0].end_ns = report.playback[0].start_ns + 25;
        let art = render_timeline(&report, &TimelineOptions::default());
        let row = art.lines().nth(1).expect("one qubit row");
        assert_eq!(row.matches('=').count(), 2, "{row}");
        assert!(row.contains("X=="), "{row}");
    }

    #[test]
    fn truncation_is_flagged() {
        let mut src = String::new();
        for _ in 0..100 {
            src.push_str("2 X q0\n");
        }
        src.push_str("STOP\n");
        let report = run(&src);
        let art = render_timeline(
            &report,
            &TimelineOptions {
                max_columns: 20,
                ..TimelineOptions::default()
            },
        );
        assert!(art.contains("(truncated)"));
        assert!(art.lines().nth(1).expect("row").ends_with('>'));
    }

    #[test]
    fn truncation_marks_only_overflowing_rows() {
        // q0 runs a long pulse train past max_columns; q1 plays one short
        // gate. Only q0's row may carry the `>` marker.
        let mut src = String::from("0 H q1\n");
        for _ in 0..50 {
            src.push_str("2 X q0\n");
        }
        src.push_str("STOP\n");
        let report = run(&src);
        let art = render_timeline(
            &report,
            &TimelineOptions {
                max_columns: 20,
                ..TimelineOptions::default()
            },
        );
        assert!(art.contains("(truncated)"));
        let lines: Vec<&str> = art.lines().collect();
        let q0 = lines.iter().find(|l| l.starts_with("q0")).expect("q0 row");
        let q1 = lines.iter().find(|l| l.starts_with("q1")).expect("q1 row");
        assert!(q0.ends_with('>'), "{q0}");
        assert!(!q1.ends_with('>'), "{q1}");
    }

    #[test]
    fn renders_from_recorded_playback_not_rederived_timings() {
        // Corrupting the options' timings must not change the art: the
        // extents come from the device recording.
        let report = run("0 MEAS q0\nSTOP\n");
        let mut opts = TimelineOptions::default();
        opts.timings.readout_pulse_ns = 10;
        let art = render_timeline(&report, &opts);
        let row = art.lines().nth(1).expect("one qubit row");
        assert_eq!(row.matches('=').count(), 29, "{row}");
    }

    #[test]
    fn empty_report_renders_placeholder() {
        let report = run("NOP\nSTOP\n");
        let art = render_timeline(&report, &TimelineOptions::default());
        assert!(art.contains("no operations"));
    }
}
