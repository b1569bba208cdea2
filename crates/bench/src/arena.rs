//! The controller × tiling tournament (`reproduce arena`).
//!
//! Every rate controller races every tiling policy; each pairing (a
//! *cell* of the league) runs two legs:
//!
//! * a **quality leg** — a shared-cell ensemble (two identical flows of
//!   the pairing plus emergent background load) scored on the paper's
//!   metrics: mean ROI PSNR, pooled MOS Good-or-better, freeze ratio,
//!   Jain fairness;
//! * **fault legs** — the pairing runs the fault suite's presets through
//!   `faults::judge`, and the league counts how many recovery invariants
//!   held.
//!
//! One [`Case`] per (cell, leg) goes through [`run_concat`] in a single
//! dispatch, so the arena artifact is byte-identical at any
//! `POI360_THREADS` width (ci.sh `cmp`-gates it, like the study).
//! Rendering lives in `poi360_analyse::league` — this module only
//! builds the case list and reduces outcomes to [`LeagueRow`]s.
//! Controllers are named by the shared `analyse::study::CONTROLLERS`
//! vocabulary (typed by [`crate::study::rate_control`]); tiling policies
//! by [`POLICIES`].

use crate::faults::FAULT_SMOKE_SECS;
use crate::protocol::{run_concat, Case, Outcome, Protocol};
use crate::study::rate_control;
use poi360_analyse::league::{league_report, LeagueRow};
use poi360_analyse::study::CONTROLLERS;
use poi360_core::config::{CompressionScheme, RateControlKind};
use poi360_core::multicell::{FlowSpec, MultiCellConfig};
use poi360_core::report::SessionReport;
use poi360_lte::scenario::{unknown_scenario_error, FaultScenario, FAULT_RUN_SECS};
use poi360_metrics::mos::MosPdf;
use poi360_sim::time::SimDuration;

/// The tiling policies the arena can race: CLI name, scheme, and the
/// `reproduce --list` description. `roi` is the paper's distance-based
/// POI360 policy; `pano` and `ghosh` are the related-work modulations in
/// `video::perceptual`.
pub const POLICIES: [(&str, CompressionScheme, &str); 3] = [
    ("roi", CompressionScheme::Poi360, "POI360 distance-based compression matrix"),
    ("pano", CompressionScheme::Pano, "Pano-style quality-sensitivity weighting"),
    ("ghosh", CompressionScheme::Ghosh, "Ghosh-style per-tile bitrate optimization"),
];

/// Resolve a tiling-policy name, erroring with the valid set.
pub fn policy_by_name(name: &str) -> Result<CompressionScheme, String> {
    POLICIES
        .iter()
        .find(|p| p.0 == name)
        .map(|p| p.1)
        .ok_or_else(|| unknown_scenario_error("tiling", name, &POLICIES.map(|p| p.0)))
}

/// The tiling-policy CLI name of a scheme in [`POLICIES`].
fn policy_name(scheme: CompressionScheme) -> &'static str {
    POLICIES.iter().find(|p| p.1 == scheme).map(|p| p.0).expect("arena policies come from POLICIES")
}

/// The tournament matrix, after CLI parsing.
#[derive(Clone, Debug)]
pub struct ArenaConfig {
    /// Controllers to race, league order.
    pub controllers: Vec<RateControlKind>,
    /// Tiling policies to race, league order.
    pub policies: Vec<CompressionScheme>,
    /// Per-leg run length, seconds.
    pub seconds: u64,
    /// Master seed for every leg.
    pub seed: u64,
    /// Fault presets each cell must survive.
    pub fault_scenarios: Vec<FaultScenario>,
}

impl ArenaConfig {
    /// The full tournament: every controller × every policy × the whole
    /// 7-scenario fault suite at full timeline scale.
    pub fn full() -> Self {
        ArenaConfig {
            controllers: CONTROLLERS.map(rate_control).to_vec(),
            policies: POLICIES.map(|p| p.1).to_vec(),
            seconds: FAULT_RUN_SECS,
            seed: 1,
            fault_scenarios: FaultScenario::all(),
        }
    }

    /// CI scale: same 3×3 matrix, compressed timeline, three fault
    /// presets covering the radio, diag, and load seams.
    pub fn smoke() -> Self {
        ArenaConfig {
            seconds: FAULT_SMOKE_SECS,
            fault_scenarios: ["rlf", "diag_freeze", "flash_crowd"]
                .iter()
                .map(|n| FaultScenario::by_name(n).expect("preset exists"))
                .collect(),
            ..ArenaConfig::full()
        }
    }
}

/// Run the whole tournament: expand cells controller-major, fan every
/// leg across the worker pool in one dispatch, reduce to league rows
/// (league order) plus the concatenated JSONL of every leg.
pub fn run_legs(cfg: &ArenaConfig) -> (Vec<LeagueRow>, Vec<u8>) {
    let mut rows = Vec::new();
    let mut cases = Vec::new();
    let mut cell_of = Vec::new();
    for &rc in &cfg.controllers {
        for &scheme in &cfg.policies {
            let policy = policy_name(scheme);
            cell_of.extend(std::iter::repeat_n(rows.len(), 1 + cfg.fault_scenarios.len()));
            rows.push(LeagueRow {
                controller: rc.label().to_string(),
                policy: policy.to_string(),
                ..Default::default()
            });
            // Quality leg: two identical flows of the pairing sharing a
            // cell with emergent background load.
            cases.push(Case::Ensemble(MultiCellConfig {
                background_ues: 4,
                flows: vec![FlowSpec { scheme, rate_control: rc, ..Default::default() }; 2],
                duration: SimDuration::from_secs(cfg.seconds),
                seed: cfg.seed,
                ..Default::default()
            }));
            for fs in &cfg.fault_scenarios {
                cases.push(Case::Fault {
                    src: format!("{}.{policy}.{}", rc.label(), fs.name),
                    fs: fs.clone(),
                    scheme,
                    rc,
                    seconds: cfg.seconds,
                    seed: cfg.seed,
                });
            }
        }
    }
    let (outcomes, jsonl) = run_concat(cases);
    for (k, outcome) in cell_of.into_iter().zip(outcomes) {
        let row = &mut rows[k];
        match outcome {
            Outcome::Ensemble(report) => {
                let n = report.flows.len() as f64;
                let mean =
                    |f: fn(&SessionReport) -> f64| report.flows.iter().map(f).sum::<f64>() / n;
                let mut mos = MosPdf::new();
                for f in &report.flows {
                    mos.merge(&f.mos());
                }
                row.roi_psnr_db = mean(SessionReport::mean_psnr_db);
                row.mos_good = mos.good_or_better();
                row.freeze = mean(SessionReport::freeze_ratio);
                row.jain = report.jain_throughput();
                row.throughput_bps = mean(SessionReport::mean_throughput_bps);
            }
            Outcome::Fault(out) => {
                for (held, name) in out.verdict.checks() {
                    row.fault_total += 1;
                    if held {
                        row.fault_passes += 1;
                    } else {
                        row.fault_failures.push(format!("{}: {name}", out.scenario));
                    }
                }
            }
            Outcome::Grid(_) => unreachable!("the arena builds no grid cases"),
        }
    }
    (rows, jsonl)
}

/// The whole `reproduce arena` protocol: run every leg, render the
/// league report. Shared verbatim by the CLI and the golden test.
pub fn run_protocol(cfg: &ArenaConfig, smoke: bool) -> Protocol {
    eprintln!(
        "# arena: {} controllers x {} policies, {}s legs, {} fault presets, seed {}",
        cfg.controllers.len(),
        cfg.policies.len(),
        cfg.seconds,
        cfg.fault_scenarios.len(),
        cfg.seed
    );
    let (rows, jsonl) = run_legs(cfg);
    let title = format!(
        "Controller x tiling arena ({} cells, {}s legs, {} fault presets, seed {})",
        rows.len(),
        cfg.seconds,
        cfg.fault_scenarios.len(),
        cfg.seed
    );
    Protocol {
        stem: if smoke { "arena_smoke" } else { "arena" }.to_string(),
        text: league_report(&title, &rows),
        failures: rows.iter().map(|r| r.failures()).sum(),
        jsonl,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultVerdict;

    fn tiny() -> ArenaConfig {
        ArenaConfig {
            controllers: vec![RateControlKind::Fbcc, RateControlKind::Occ],
            policies: vec![CompressionScheme::Poi360, CompressionScheme::Pano],
            seconds: 3,
            seed: 5,
            fault_scenarios: vec![FaultScenario::by_name("rlf").expect("preset")],
        }
    }

    #[test]
    fn policy_names_resolve_and_unknowns_list_the_valid_set() {
        for (name, scheme, _) in POLICIES {
            assert_eq!(policy_by_name(name), Ok(scheme));
            assert_eq!(policy_name(scheme), name);
        }
        let e = policy_by_name("tiles").unwrap_err();
        assert_eq!(e, "unknown tiling scenario \"tiles\" (expected one of: roi, pano, ghosh)");
    }

    #[test]
    fn smoke_covers_the_full_matrix() {
        let cfg = ArenaConfig::smoke();
        assert_eq!(cfg.controllers.len() * cfg.policies.len(), 9);
        assert_eq!(cfg.fault_scenarios.len(), 3);
        assert!(cfg.seconds < FAULT_RUN_SECS);
    }

    #[test]
    fn tiny_arena_scores_every_cell_and_is_rerun_stable() {
        let cfg = tiny();
        let (rows, _) = run_legs(&cfg);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.roi_psnr_db > 0.0, "quality leg missing: {row:?}");
            let legs = cfg.fault_scenarios.len();
            assert_eq!(row.fault_total, legs * FaultVerdict::CHECKS, "every check of every leg");
            assert_eq!(row.fault_passes + row.fault_failures.len(), row.fault_total);
        }
        let a = run_protocol(&cfg, false);
        assert!(a.text.contains("Standings"));
        let b = run_protocol(&cfg, false);
        assert_eq!(a.jsonl, b.jsonl, "arena reruns must be byte-identical");
        assert_eq!(a.text, b.text);
    }
}
