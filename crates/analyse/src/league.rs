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
//! * the standings section ranks by fault verdicts only — integers, so
//!   the order is drift-stable. Tied cells share a place number (1, 1, 3:
//!   a place is one plus the number of cells strictly ahead) and are
//!   listed in input order, which ranks nothing;
//! * the champion line names every cell tied for first place and carries
//!   no numerals at all.

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

/// Render the full league report: scores, standings, champion line, and
/// a failure listing when any verdict failed.
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

    // Standings: fault passes only (integers — drift-stable). The stable
    // sort lists ties in input order, but a tie is reported as a tie:
    // equal passes share a place, and every first-place cell is named.
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| rows[b].fault_passes.cmp(&rows[a].fault_passes));
    out.push_str("\nStandings (fault invariants held; equal counts share a place):\n");
    let mut first_place = Vec::new();
    for &k in &order {
        let r = &rows[k];
        let place = 1 + rows.iter().filter(|o| o.fault_passes > r.fault_passes).count();
        out.push_str(&format!(
            "  {}. {} + {} ({}/{})\n",
            place, r.controller, r.policy, r.fault_passes, r.fault_total
        ));
        if place == 1 {
            first_place.push(r);
        }
    }
    match first_place.as_slice() {
        [] => {}
        [r] => out.push_str(&format!(
            "champion: {} with {} tiling — most fault invariants held\n",
            r.controller, r.policy
        )),
        tied => {
            let cells: Vec<String> =
                tied.iter().map(|r| format!("{} + {}", r.controller, r.policy)).collect();
            out.push_str(&format!(
                "champion: none — tied on fault invariants held: {}\n",
                cells.join(", ")
            ));
        }
    }

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
    fn standings_rank_by_fault_passes_with_stable_ties() {
        let rows = [row("FBCC", "roi", 10), row("GCC", "roi", 12), row("OCC", "roi", 11)];
        let text = league_report("arena", &rows);
        let standings = text.split("Standings").nth(1).unwrap();
        assert!(standings.contains("  1. GCC + roi (12/12)\n  2. OCC + roi (11/12)\n"), "{text}");
        assert!(standings.contains("  3. FBCC + roi (10/12)\n"), "{text}");
        assert!(text.contains("champion: GCC with roi tiling — most"), "{text}");

        // A tie is reported as a tie: shared place numbers, input order
        // within the tie, and no input-order champion.
        let rows = [row("FBCC", "roi", 10), row("GCC", "roi", 12), row("OCC", "pano", 12)];
        let text = league_report("arena", &rows);
        let standings = text.split("Standings").nth(1).unwrap();
        assert!(standings.contains("  1. GCC + roi (12/12)\n  1. OCC + pano (12/12)\n"), "{text}");
        assert!(standings.contains("  3. FBCC + roi (10/12)\n"), "{text}");
        let champion = text.lines().find(|l| l.starts_with("champion:")).unwrap();
        assert!(champion.ends_with("held: GCC + roi, OCC + pano"), "{champion}");
        assert!(champion.contains("tied") && !champion.contains("most"), "{champion}");
        assert!(!champion.chars().any(|c| c.is_ascii_digit()), "{champion}");
    }

    #[test]
    fn champion_line_has_no_numerals() {
        let rows = [row("OCC", "ghosh", 12)];
        let text = league_report("arena", &rows);
        let line = text.lines().find(|l| l.starts_with("champion:")).unwrap();
        assert!(!line.chars().any(|c| c.is_ascii_digit()), "{line}");
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
