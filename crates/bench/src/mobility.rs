//! The mobility family's judge: the handover invariants.
//!
//! Every mobility-family study (the checked-in `mobility` and `ho_tails`
//! presets, any `.study` file) and the handover regression tests judge
//! [`MobilityScenario`] runs by the same invariants, defined exactly once
//! here: every convoy flow must hand over at least once, packet
//! conservation must hold exactly across every migration (accepted ==
//! delivered + flushed + still queued, for flows and load UEs alike),
//! first-transmission video must never reorder or duplicate, the delivery
//! gap around each handover must stay bounded, and the probe plane must
//! never see an out-of-order sample. `invariants` tabulates a study's
//! verdicts. A run is a pure function of its seed — interference is
//! published one subframe late and the sharded driver merges everything
//! at fixed epoch barriers — so the JSONL stream is byte-identical across
//! reruns and shard/worker-pool widths (`ci.sh` `cmp`s it across widths).

use crate::protocol::Outcome;
use crate::study::ExecutedCase;
use poi360_core::multicell::{MultiGridConfig, MultiGridReport};
use poi360_lte::grid::MobilityKind;
use poi360_lte::scenario::MobilityScenario;
use poi360_metrics::table::Table;
use poi360_sim::time::SimDuration;

/// Run length of every `--smoke` mobility case: on the compressed lattice
/// every flow crosses a cell boundary inside it.
pub const MOBILITY_SMOKE_SECS: u64 = 8;

/// Materialize the grid configuration of one `seconds`-long case: the
/// acceptance-grade convoy (8 flows + 200 load UEs) at the preset's
/// geometry, or with `smoke` the CI lattice (4 flows + 28 load UEs, 160 m
/// sites, 30 m/s) on which every flow crosses a boundary inside
/// [`MOBILITY_SMOKE_SECS`].
pub fn grid_config(ms: &MobilityScenario, smoke: bool, seconds: u64, seed: u64) -> MultiGridConfig {
    let (flows, load_ues, isd_m, speed_mps) =
        if smoke { (4, 28, 160.0, 30.0) } else { (8, 200, ms.isd_m, ms.speed_mps) };
    MultiGridConfig {
        a3: ms.a3,
        rings: ms.rings,
        isd_m,
        mobility: ms.kind,
        speed_mps,
        flows: vec![Default::default(); flows],
        load_ues,
        duration: SimDuration::from_secs(seconds),
        seed,
        // Shard width rides the worker-pool resolution (`--threads` /
        // `POI360_THREADS`), so the same knob that fans independent jobs
        // out also shards a single grid — and `ci.sh`'s width gate on
        // `study mobility --smoke` doubles as a shard-width-invariance check.
        shards: crate::runner::worker_threads(),
        ..Default::default()
    }
}

/// Invariant verdicts for one finished mobility run.
#[derive(Clone, Debug)]
pub struct MobilityVerdict {
    /// Every flow handed over (required only when the trajectory
    /// guarantees a boundary crossing — convoy presets).
    pub coverage_ok: bool,
    /// Exact packet conservation held for every flow and load UE.
    pub conserved: bool,
    /// No first-transmission video packet reordered or duplicated.
    pub in_order: bool,
    /// Every gap stayed under the interruption bound.
    pub gaps_bounded: bool,
    /// The probe plane never dropped an out-of-order sample.
    pub probes_in_order: bool,
}

/// Largest tolerated delivery gap around a handover, ms. A clean
/// handover interrupts for ~45 ms and an RLF re-establishment for
/// ~240 ms; the bound leaves room for the rate controller to refill an
/// RLF-flushed buffer before the next departure.
pub const GAP_BOUND_MS: f64 = 2_000.0;

impl MobilityVerdict {
    /// Names of every invariant this run violated (empty = pass).
    pub fn failures(&self) -> Vec<&'static str> {
        [
            (self.coverage_ok, "handover-coverage"),
            (self.conserved, "packet-conservation"),
            (self.in_order, "video-order"),
            (self.gaps_bounded, "gap-bound"),
            (self.probes_in_order, "probe-order"),
        ]
        .into_iter()
        .filter_map(|(held, name)| (!held).then_some(name))
        .collect()
    }

    /// True when every invariant held.
    pub fn pass(&self) -> bool {
        self.failures().is_empty()
    }
}

/// Judge the handover invariants of one finished run.
pub fn judge(ms: &MobilityScenario, report: &MultiGridReport) -> MobilityVerdict {
    let flows_with_handover =
        report.flow_stats.iter().filter(|f| f.handovers + f.rlfs >= 1).count();
    // Only a convoy trajectory guarantees every flow crosses a cell
    // boundary, making handover coverage a hard invariant.
    let coverage_ok =
        !matches!(ms.kind, MobilityKind::Convoy) || flows_with_handover == report.flow_stats.len();
    let conserved =
        report.flow_stats.iter().all(|f| f.conserved()) && report.load_conservation_violations == 0;
    let in_order = report.flow_stats.iter().all(|f| f.seq_violations == 0);
    let max_gap_ms =
        report.flow_stats.iter().flat_map(|f| f.gap_ms.iter().copied()).fold(0.0_f64, f64::max);
    MobilityVerdict {
        coverage_ok,
        conserved,
        in_order,
        gaps_bounded: max_gap_ms <= GAP_BOUND_MS,
        probes_in_order: report.probe_drops == 0,
    }
}

/// The invariants tables of a mobility-family study report: one row
/// per case and flow with its handovers, packet ledger, worst gap and
/// PSNR across the migration, then one row per case with the load UEs'
/// totals and the case's verdict. Returns the two tables and the labels of
/// the cases that failed.
pub(crate) fn invariants(seconds: u64, cases: &[ExecutedCase]) -> (String, Vec<&str>) {
    let mut flows = Table::new(
        format!("Handover invariants — {seconds}s runs, per flow"),
        &[
            "Case",
            "Flow",
            "HO",
            "RLF",
            "Enq",
            "Delv",
            "Flush",
            "Queued",
            "Max gap ms",
            "PSNR pre",
            "PSNR post",
            "Conserved",
        ],
    );
    let mut totals = Table::new(
        "Handover invariants — per case",
        &["Case", "Cells", "Load UEs", "Load HO", "Load RLF", "Load violations", "Verdict"],
    );
    let mut failed = Vec::new();
    for e in cases {
        let Outcome::Grid(r) = &e.outcome else {
            unreachable!("{} returned {:?}", e.case.label, e.outcome)
        };
        let ms = MobilityScenario::by_name(&e.case.scenario).unwrap_or_else(|| {
            unreachable!("StudyConfig::validate admitted {:?}", e.case.scenario)
        });
        for fs in &r.flow_stats {
            let max_gap = fs.gap_ms.iter().copied().fold(0.0_f64, f64::max);
            flows.row(vec![
                e.case.label.clone(),
                fs.label.clone(),
                fs.handovers.to_string(),
                fs.rlfs.to_string(),
                fs.enqueued.to_string(),
                fs.delivered.to_string(),
                fs.flushed.to_string(),
                fs.queued_at_end.to_string(),
                format!("{max_gap:.0}"),
                format!("{:.1}", fs.psnr_before_db),
                format!("{:.1}", fs.psnr_after_db),
                if fs.conserved() && fs.seq_violations == 0 { "yes".into() } else { "NO".into() },
            ]);
        }
        let v = judge(&ms, r);
        let verdict = if v.pass() {
            "pass".to_string()
        } else {
            failed.push(e.case.label.as_str());
            format!("FAIL: {}", v.failures().join(","))
        };
        totals.row(vec![
            e.case.label.clone(),
            r.cells.to_string(),
            r.load_ues.to_string(),
            r.load_handovers.to_string(),
            r.load_rlfs.to_string(),
            r.load_conservation_violations.to_string(),
            verdict,
        ]);
    }
    (flows.render() + "\n" + &totals.render(), failed)
}
