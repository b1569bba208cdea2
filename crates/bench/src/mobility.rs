//! The hex-grid mobility harness.
//!
//! The `reproduce mobility` subcommand, the mobility studies and the
//! handover regression tests drive the same [`MobilityScenario`] presets through the same
//! invariants, defined exactly once here: every convoy flow must hand
//! over at least once, packet conservation must hold exactly across
//! every migration (accepted == delivered + flushed + still queued, for
//! flows and load UEs alike), first-transmission video must never
//! reorder or duplicate, the delivery gap around each handover must stay
//! bounded, and the probe plane must never see an out-of-order sample.
//! A run is a pure function of its seed — interference is published one
//! subframe late and the sharded driver merges everything at fixed epoch
//! barriers — so the JSONL stream is byte-identical across reruns and
//! shard/worker-pool widths (`ci.sh` `cmp`s it across widths).

use crate::protocol::{run_traced, Outcome, Protocol};
use crate::study::traced_cases;
use poi360_analyse::study::{StudyConfig, StudyFamily};
use poi360_core::multicell::{MultiGridConfig, MultiGridReport};
use poi360_lte::grid::MobilityKind;
use poi360_lte::scenario::{unknown_preset_error, MobilityScenario};
use poi360_metrics::table::Table;
use poi360_sim::time::SimDuration;

/// Recommended run length for the named mobility scenarios: a 500 m
/// inter-site convoy at 20 m/s crosses its first cell boundary by
/// ~19 s, so 30 s guarantees one handover per flow with margin.
pub const MOBILITY_RUN_SECS: u64 = 30;

/// Population/geometry scale of one mobility run.
#[derive(Clone, Copy, Debug)]
pub struct MobilityScale {
    /// Run length, seconds.
    pub seconds: u64,
    /// Telephony sessions under test.
    pub flows: usize,
    /// Mobile cross-traffic UEs.
    pub load_ues: usize,
    /// Inter-site distance override (None = preset value).
    pub isd_m: Option<f64>,
    /// Speed override (None = preset value).
    pub speed_mps: Option<f64>,
}

impl MobilityScale {
    /// Full scale: the acceptance-grade 7-cell, 208-UE convoy.
    pub fn full() -> Self {
        MobilityScale {
            seconds: MOBILITY_RUN_SECS,
            flows: 8,
            load_ues: 200,
            isd_m: None,
            speed_mps: None,
        }
    }

    /// CI scale: a compressed lattice (160 m sites, 30 m/s) so every
    /// flow still crosses a boundary inside 8 simulated seconds.
    pub fn smoke() -> Self {
        MobilityScale {
            seconds: 8,
            flows: 4,
            load_ues: 28,
            isd_m: Some(160.0),
            speed_mps: Some(30.0),
        }
    }
}

/// Materialize the grid configuration for one `scenario x scale x seed`.
pub fn grid_config(ms: &MobilityScenario, scale: &MobilityScale, seed: u64) -> MultiGridConfig {
    MultiGridConfig {
        a3: ms.a3,
        rings: ms.rings,
        isd_m: scale.isd_m.unwrap_or(ms.isd_m),
        mobility: ms.kind,
        speed_mps: scale.speed_mps.unwrap_or(ms.speed_mps),
        flows: vec![Default::default(); scale.flows],
        load_ues: scale.load_ues,
        duration: SimDuration::from_secs(scale.seconds),
        seed,
        // Shard width rides the worker-pool resolution (`--threads` /
        // `POI360_THREADS`), so the same knob that fans independent jobs
        // out also shards a single grid — and `ci.sh`'s width gate on
        // `mobility --smoke` doubles as a shard-width-invariance check.
        shards: crate::runner::worker_threads(),
        ..Default::default()
    }
}

/// Invariant verdicts for one finished mobility run.
#[derive(Clone, Debug)]
pub struct MobilityVerdict {
    /// Flows that experienced at least one handover or RLF.
    pub flows_with_handover: usize,
    /// Every flow handed over (required only when the trajectory
    /// guarantees a boundary crossing — convoy presets).
    pub coverage_ok: bool,
    /// Exact packet conservation held for every flow and load UE.
    pub conserved: bool,
    /// No first-transmission video packet reordered or duplicated.
    pub in_order: bool,
    /// Largest delivery gap around any handover, ms.
    pub max_gap_ms: f64,
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
        flows_with_handover,
        coverage_ok,
        conserved,
        in_order,
        max_gap_ms,
        gaps_bounded: max_gap_ms <= GAP_BOUND_MS,
        probes_in_order: report.probe_drops == 0,
    }
}

/// The full `reproduce mobility` protocol for one preset: a mobility-family
/// study of that preset at three seeds from `seed`, run once; the
/// invariants are judged on every seed, the seeds must actually diverge,
/// and the first seed's run gives the per-flow table and the JSONL
/// artifact. `--smoke` swaps in the compressed lattice; `seconds`
/// overrides the scale's run length. Shared verbatim by the CLI and the
/// golden test.
pub fn run_protocol(
    name: &str,
    smoke: bool,
    seconds: Option<u64>,
    seed: u64,
) -> Result<Protocol, String> {
    let ms =
        MobilityScenario::by_name(name).ok_or_else(|| unknown_preset_error("mobility", name))?;
    let scale = if smoke { MobilityScale::smoke() } else { MobilityScale::full() };
    let cfg = StudyConfig {
        name: name.into(),
        family: StudyFamily::Mobility,
        scenarios: vec![name.to_string()],
        seeds: 3,
        base_seed: seed,
        seconds: seconds.unwrap_or(scale.seconds),
        ..Default::default()
    };
    cfg.validate()?;
    eprintln!(
        "# mobility `{}`: {}s, {} flows + {} load UEs, 3 seeds from {seed}",
        ms.name, cfg.seconds, scale.flows, scale.load_ues
    );
    let mut runs: Vec<_> = run_traced(traced_cases(&cfg, smoke))
        .into_iter()
        .map(|(outcome, bytes)| {
            let Outcome::Grid(report) = outcome else {
                unreachable!("a grid case returned {outcome:?}")
            };
            (judge(&ms, &report), report, bytes)
        })
        .collect();
    let seeds_diverge = runs.windows(2).all(|w| w[0].2 != w[1].2);

    let (verdict, r, _) = &runs[0];
    let mut t = Table::new(
        format!(
            "Hex-grid mobility — `{}`, {}s, {} cells, {} flows + {} loads, seed {seed}",
            ms.name,
            cfg.seconds,
            r.cells,
            r.flows.len(),
            r.load_ues
        ),
        &[
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
    for fs in &r.flow_stats {
        let max_gap = fs.gap_ms.iter().copied().fold(0.0_f64, f64::max);
        t.row(vec![
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
    let stem = match (smoke, name) {
        (true, "convoy") => "mobility_smoke".to_string(),
        (true, other) => format!("mobility_{other}_smoke"),
        (false, other) => format!("mobility_{other}"),
    };
    let violated = verdict.failures();
    let mut p = Protocol { stem, text: t.render(), failures: violated.len(), ..Default::default() };
    p.text.push_str(&match violated.is_empty() {
        true => "invariants: pass\n".to_string(),
        false => format!("invariants: FAIL: {}\n", violated.join(",")),
    });
    for (mseed, (v, ..)) in (seed..).zip(&runs) {
        if !v.pass() {
            p.text.push_str(&format!("seed {mseed}: FAIL: {}\n", v.failures().join(",")));
            p.failures += 1;
        }
    }
    p.text.push_str(&format!(
        "load UEs: {} handovers, {} RLFs, {} conservation violations\n",
        r.load_handovers, r.load_rlfs, r.load_conservation_violations
    ));
    p.check(
        "seed matrix",
        seeds_diverge,
        "3 seeds judged, streams diverge as expected",
        "3 seeds judged, streams did not diverge",
    );
    p.jsonl = runs.swap_remove(0).2;
    Ok(p)
}
