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
//! barriers — so the JSONL stream is asserted byte-identical across
//! reruns and shard/worker-pool widths.

use crate::protocol::{run_traced, Case, Outcome, Protocol};
use crate::runner::with_worker_threads;
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
        // out also shards a single grid — and the thread-invariance
        // checks below double as shard-width-invariance checks.
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

/// One completed mobility run: the report plus its verdicts.
#[derive(Clone, Debug)]
pub struct MobilityOutcome {
    /// Preset name (`convoy`, `late_ho`, ...).
    pub scenario: &'static str,
    /// The full grid report.
    pub report: MultiGridReport,
    /// The invariant verdicts.
    pub verdict: MobilityVerdict,
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

/// Run one scenario at one scale and judge it. Returns the outcome plus
/// the raw JSONL probe stream — byte-identical across calls with the
/// same arguments, which is exactly what callers assert.
pub fn run_case(
    ms: &MobilityScenario,
    scale: &MobilityScale,
    seed: u64,
) -> (MobilityOutcome, Vec<u8>) {
    run_matrix(ms, scale, &[seed]).pop().expect("one case in, one outcome out")
}

/// Run one scenario across several seeds, fanning the independent runs
/// across the worker pool. Results come back in seed order.
pub fn run_matrix(
    ms: &MobilityScenario,
    scale: &MobilityScale,
    seeds: &[u64],
) -> Vec<(MobilityOutcome, Vec<u8>)> {
    let cases = seeds.iter().map(|&seed| Case::Grid { ms: ms.clone(), scale: *scale, seed });
    run_traced(cases.collect())
        .into_iter()
        .map(|(outcome, bytes)| {
            let Outcome::Grid(report) = outcome else {
                unreachable!("a grid case returned {outcome:?}")
            };
            let verdict = judge(ms, &report);
            (MobilityOutcome { scenario: ms.name, report, verdict }, bytes)
        })
        .collect()
}

/// The full `reproduce mobility` protocol for one preset: prove the
/// probe stream byte-identical across worker-pool widths, judge the
/// invariants on a 3-seed matrix, check the seeds actually diverge, and
/// render the per-flow table. `--smoke` swaps in the compressed lattice;
/// `seconds` overrides the scale's run length. Shared verbatim by the
/// CLI and the golden test.
pub fn run_protocol(
    name: &str,
    smoke: bool,
    seconds: Option<u64>,
    seed: u64,
) -> Result<Protocol, String> {
    let ms =
        MobilityScenario::by_name(name).ok_or_else(|| unknown_preset_error("mobility", name))?;
    let mut scale = if smoke { MobilityScale::smoke() } else { MobilityScale::full() };
    scale.seconds = seconds.unwrap_or(scale.seconds);
    eprintln!(
        "# mobility `{}`: {}s, {} flows + {} load UEs, seed {seed}; thread-invariance pair + 3-seed matrix",
        ms.name, scale.seconds, scale.flows, scale.load_ues
    );

    // Determinism proof: the identical case pinned to one worker and
    // sharded at the width this process resolved (`--threads`,
    // `POI360_THREADS`, else the host's cores — what a user's grids
    // actually run at; never less than 2) must emit byte-identical JSONL
    // streams.
    let sharded_width = crate::runner::worker_threads().max(2);
    let case = || run_case(&ms, &scale, seed);
    let (outcome, jsonl) = with_worker_threads(1, case);
    let (_, wide) = with_worker_threads(sharded_width, case);

    // Seed matrix: the invariants must hold across seeds, and distinct
    // seeds must actually diverge.
    let seeds = [seed, seed + 1, seed + 2];
    let matrix = run_matrix(&ms, &scale, &seeds);
    let seeds_diverge = matrix[0].1 != matrix[1].1 && matrix[1].1 != matrix[2].1;

    let r = &outcome.report;
    let mut t = Table::new(
        format!(
            "Hex-grid mobility — `{}`, {}s, {} cells, {} flows + {} loads, seed {seed}",
            ms.name,
            scale.seconds,
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
    let violated = outcome.verdict.failures();
    let mut p = Protocol { stem, text: t.render(), failures: violated.len(), ..Default::default() };
    p.text.push_str(&match violated.is_empty() {
        true => "invariants: pass\n".to_string(),
        false => format!("invariants: FAIL: {}\n", violated.join(",")),
    });
    for (mseed, (m, _)) in seeds.iter().zip(&matrix) {
        if !m.verdict.pass() {
            p.text.push_str(&format!("seed {mseed}: FAIL: {}\n", m.verdict.failures().join(",")));
            p.failures += 1;
        }
    }
    p.text.push_str(&format!(
        "load UEs: {} handovers, {} RLFs, {} conservation violations\n",
        r.load_handovers, r.load_rlfs, r.load_conservation_violations
    ));
    p.check(
        "thread invariance",
        jsonl == wide,
        "byte-identical across worker counts",
        "streams differ",
    );
    p.check(
        "seed matrix",
        seeds_diverge,
        "3 seeds judged, streams diverge as expected",
        "3 seeds judged, streams did not diverge",
    );
    p.jsonl = jsonl;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_convoy_passes_and_is_byte_identical() {
        let ms = MobilityScenario::by_name("convoy").expect("preset exists");
        let (a, a_bytes) = run_case(&ms, &MobilityScale::smoke(), 3);
        assert!(a.verdict.pass(), "failures: {:?}", a.verdict.failures());
        assert_eq!(a.verdict.flows_with_handover, a.report.flow_stats.len());
        let (_, b_bytes) = run_case(&ms, &MobilityScale::smoke(), 3);
        assert_eq!(a_bytes, b_bytes, "mobility reruns must be byte-identical");
    }

    #[test]
    fn matrix_is_thread_count_invariant() {
        let ms = MobilityScenario::by_name("convoy").expect("preset exists");
        let scale = MobilityScale::smoke();
        let matrix = || run_matrix(&ms, &scale, &[5, 6]);
        let serial = with_worker_threads(1, matrix);
        let par = with_worker_threads(4, matrix);
        assert_eq!(serial.len(), par.len());
        for ((_, s_bytes), (_, p_bytes)) in serial.iter().zip(par.iter()) {
            assert_eq!(s_bytes, p_bytes, "a seed's stream moved with thread count or order");
        }
        assert_ne!(serial[0].1, serial[1].1, "different seeds must diverge");
    }

    #[test]
    fn protocol_pair_hands_back_the_callers_width() {
        // `reproduce mobility --threads 3`: the serial/sharded pair used to
        // end by clearing the override, so the seed matrix ran unpinned.
        let after = with_worker_threads(3, || {
            run_protocol("convoy", true, Some(1), 1).expect("preset exists");
            crate::runner::worker_threads()
        });
        assert_eq!(after, 3);
    }

    #[test]
    fn late_ho_turns_handovers_into_rlfs() {
        let late = MobilityScenario::by_name("late_ho").expect("preset exists");
        let (o, _) = run_case(&late, &MobilityScale::smoke(), 3);
        let rlfs: u64 = o.report.flow_stats.iter().map(|f| f.rlfs).sum();
        let base_rlfs: u64 = {
            let ms = MobilityScenario::by_name("convoy").expect("preset exists");
            let (b, _) = run_case(&ms, &MobilityScale::smoke(), 3);
            b.report.flow_stats.iter().map(|f| f.rlfs).sum()
        };
        assert!(
            rlfs > base_rlfs,
            "conservative A3 must cause more RLFs (late {rlfs} vs base {base_rlfs})"
        );
        assert!(o.verdict.conserved, "RLF flushes still conserve packets exactly");
    }
}
