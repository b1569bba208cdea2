//! League-table rendering for a study that races controllers × schemes.
//!
//! A fault study that runs the `shared` scenario (the checked-in `arena`
//! preset) closes with this table: `bench::study` reduces each contestant's
//! outcomes to one [`LeagueRow`]; this module owns the presentation so the
//! report stays a pure fold over plain data (the crate's determinism
//! contract). Layout rules the golden test leans on:
//!
//! * the league table lists cells in *fixed input order* (the study's
//!   controller-major contestants), never sorted by a measured quantity —
//!   a metric drifting within the golden tolerance can therefore never
//!   reorder rows;
//! * the `faults` column and the gate count invariants held, which is a
//!   gate, not a score: nothing ranks the cells by it.

use poi360_metrics::table::{fnum, mbps, pct, Table};

/// One league cell (a controller × scheme contestant), fully scored.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LeagueRow {
    /// Controller label ("FBCC", "GCC", "OCC").
    pub controller: String,
    /// Tiling-policy name ("roi", "pano", "ghosh").
    pub policy: String,
    /// Mean ROI PSNR across the cell's flows, dB.
    pub roi_psnr_db: f64,
    /// Fraction of MOS samples at Good or Excellent, pooled over flows.
    pub mos_good: f64,
    /// Mean playback freeze ratio across flows.
    pub freeze: f64,
    /// Jain fairness index over the flows' throughputs.
    pub jain: f64,
    /// Mean per-flow throughput, bps.
    pub throughput_bps: f64,
    /// Fault-suite invariants that held.
    pub fault_passes: usize,
    /// Fault-suite invariants judged.
    pub fault_total: usize,
    /// Violated invariants as `"scenario: name"` lines, input order.
    pub fault_failures: Vec<String>,
}

impl LeagueRow {
    /// Total violated invariants.
    pub fn failures(&self) -> usize {
        self.fault_total - self.fault_passes
    }
}

/// Render the full league report: scores, the arena gate line, and a
/// failure listing when any verdict failed.
pub fn league_report(title: &str, rows: &[LeagueRow]) -> String {
    let mut out = String::new();
    let mut table = Table::new(
        title,
        &[
            "controller",
            "tiling",
            "roi_psnr_db",
            "mos_good",
            "freeze",
            "jain",
            "tput_mbps",
            "faults",
        ],
    );
    for r in rows {
        table.row(vec![
            r.controller.clone(),
            r.policy.clone(),
            fnum(r.roi_psnr_db, 2),
            pct(r.mos_good),
            pct(r.freeze),
            fnum(r.jain, 4),
            mbps(r.throughput_bps),
            format!("{}/{}", r.fault_passes, r.fault_total),
        ]);
    }
    out.push_str(&table.render());

    let broken: Vec<&LeagueRow> = rows.iter().filter(|r| r.failures() > 0).collect();
    if broken.is_empty() {
        out.push_str("arena gate: every fault invariant held\n");
    } else {
        out.push_str("\nViolated invariants:\n");
        for r in &broken {
            for f in &r.fault_failures {
                out.push_str(&format!("  {} + {}: {}\n", r.controller, r.policy, f));
            }
        }
        let total: usize = broken.iter().map(|r| r.failures()).sum();
        out.push_str(&format!("arena gate: {total} violated invariant(s)\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(controller: &str, policy: &str, passes: usize) -> LeagueRow {
        LeagueRow {
            controller: controller.into(),
            policy: policy.into(),
            roi_psnr_db: 34.5,
            mos_good: 0.8,
            freeze: 0.01,
            jain: 0.99,
            throughput_bps: 2.0e6,
            fault_passes: passes,
            fault_total: 12,
            fault_failures: (passes..12).map(|k| format!("rlf: invariant-{k}")).collect(),
        }
    }

    #[test]
    fn league_rows_stay_in_input_order() {
        let rows = [row("GCC", "roi", 12), row("FBCC", "pano", 12)];
        let text = league_report("arena", &rows);
        let gcc = text.find("GCC").unwrap();
        let fbcc = text.find("FBCC").unwrap();
        assert!(gcc < fbcc, "league table must keep input order:\n{text}");
    }

    #[test]
    fn clean_arena_reports_a_clean_gate() {
        let text = league_report("arena", &[row("FBCC", "roi", 12)]);
        assert!(text.contains("arena gate: every fault invariant held"), "{text}");
        assert!(!text.contains("Violated"), "{text}");
    }

    #[test]
    fn failures_are_listed_and_counted() {
        let text = league_report("arena", &[row("GCC", "pano", 11)]);
        assert!(text.contains("Violated invariants:"), "{text}");
        assert!(text.contains("GCC + pano: rlf: invariant-11"), "{text}");
        assert!(text.contains("arena gate: 1 violated invariant(s)"), "{text}");
    }
}
