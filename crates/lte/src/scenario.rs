//! Field-test scenario presets (paper §6.2).
//!
//! The paper's system-level evaluation varies three independent conditions:
//!
//! * **Background traffic load** — early-morning idle campus vs. busy noon
//!   (Fig. 17a/b),
//! * **Signal strength** — parking garage (−115 dBm) / shadowed lot
//!   (−82 dBm) / open lot (−73 dBm) (Fig. 17c/d),
//! * **Mobility** — 15 / 30 / 50 mph driving (Fig. 17e/f); the paper notes
//!   the highway route enjoys *better* RSS (≈ −60 dBm) thanks to fewer
//!   blocking buildings.
//!
//! [`Scenario`] composes those axes into an [`UplinkConfig`].

use crate as poi360_lte;
use crate::channel::ChannelConfig;
use crate::grid::{A3Config, MobilityKind};
use crate::uplink::{LoadConfig, UplinkConfig};
use poi360_sim::fault::{FaultKind, FaultPlan};
use poi360_sim::time::{SimDuration, SimTime};

/// Competing-traffic condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackgroundLoad {
    /// Early morning, idle channel.
    Idle,
    /// Ordinary daytime cell (the §6.1 micro-benchmark condition).
    Typical,
    /// Noon after class, busy channel.
    Busy,
}

/// Received-signal-strength tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SignalStrength {
    /// Concrete parking garage, −115 dBm.
    Weak,
    /// Outdoor lot shadowed by a tall building, −82 dBm.
    Moderate,
    /// Open lot, −73 dBm.
    Strong,
    /// Highway route, −60 dBm (used by the mobility experiments).
    Highway,
}

impl SignalStrength {
    /// The RSS value the paper reports for this tier.
    pub fn rss_dbm(&self) -> f64 {
        match self {
            SignalStrength::Weak => -115.0,
            SignalStrength::Moderate => -82.0,
            SignalStrength::Strong => -73.0,
            SignalStrength::Highway => -60.0,
        }
    }

    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            SignalStrength::Weak => "weak (-115dBm)",
            SignalStrength::Moderate => "moderate (-82dBm)",
            SignalStrength::Strong => "strong (-73dBm)",
            SignalStrength::Highway => "highway (-60dBm)",
        }
    }
}

/// Mobility tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mobility {
    /// Stationary experiments.
    Static,
    /// Residential-area slow driving.
    Mph15,
    /// Urban driving.
    Mph30,
    /// Highway driving.
    Mph50,
}

impl Mobility {
    /// Speed in mph.
    pub fn mph(&self) -> f64 {
        match self {
            Mobility::Static => 0.0,
            Mobility::Mph15 => 15.0,
            Mobility::Mph30 => 30.0,
            Mobility::Mph50 => 50.0,
        }
    }

    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Mobility::Static => "static",
            Mobility::Mph15 => "15mph",
            Mobility::Mph30 => "30mph",
            Mobility::Mph50 => "50mph",
        }
    }
}

/// A complete field condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// Competing cell traffic.
    pub load: BackgroundLoad,
    /// RSS tier.
    pub signal: SignalStrength,
    /// UE mobility.
    pub mobility: Mobility,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario::baseline()
    }
}

impl Scenario {
    /// The micro-benchmark condition: static, strong signal, idle cell.
    pub fn baseline() -> Self {
        Scenario {
            load: BackgroundLoad::Typical,
            signal: SignalStrength::Strong,
            mobility: Mobility::Static,
        }
    }

    /// A quiet cell with strong signal: the most benign condition.
    pub fn quiet() -> Self {
        Scenario {
            load: BackgroundLoad::Idle,
            signal: SignalStrength::Strong,
            mobility: Mobility::Static,
        }
    }

    /// Fig. 17a/b conditions: static strong-signal location, varying load.
    pub fn load_sweep() -> [Scenario; 2] {
        [
            Scenario { load: BackgroundLoad::Idle, ..Scenario::quiet() },
            Scenario { load: BackgroundLoad::Busy, ..Scenario::quiet() },
        ]
    }

    /// Fig. 17c/d conditions: idle weekend cell, varying RSS.
    pub fn signal_sweep() -> [Scenario; 3] {
        [
            Scenario { signal: SignalStrength::Weak, ..Scenario::quiet() },
            Scenario { signal: SignalStrength::Moderate, ..Scenario::quiet() },
            Scenario { signal: SignalStrength::Strong, ..Scenario::quiet() },
        ]
    }

    /// Fig. 17e/f conditions: driving at three speeds; the route has
    /// highway-grade RSS as the paper observes.
    pub fn mobility_sweep() -> [Scenario; 3] {
        let drive = Scenario {
            load: BackgroundLoad::Idle,
            signal: SignalStrength::Highway,
            mobility: Mobility::Static,
        };
        [
            Scenario { mobility: Mobility::Mph15, ..drive },
            Scenario { mobility: Mobility::Mph30, ..drive },
            Scenario { mobility: Mobility::Mph50, ..drive },
        ]
    }

    /// Materialize the uplink configuration for this scenario.
    pub fn uplink_config(&self) -> UplinkConfig {
        // The paper's weak-signal site is a concrete parking garage with a
        // *stable* low RSS ("as long as the RSS does not fluctuate,
        // POI360's rate control can always converge"): deep-indoor static
        // links see little shadowing drift or Doppler.
        let (shadow_std, fading_std) = if self.signal == SignalStrength::Weak {
            (1.0, 1.0)
        } else {
            let d = ChannelConfig::default();
            (d.shadow_std_db, d.fading_std_db)
        };
        // A weekend garage cell is nearly empty: PF compensation can hand a
        // deep-fade UE far more PRBs than its fair share on a loaded cell.
        let scheduler = if self.signal == SignalStrength::Weak {
            poi360_lte::scheduler::SchedulerConfig { max_prbs: 40, ..Default::default() }
        } else {
            Default::default()
        };
        UplinkConfig {
            scheduler,
            channel: ChannelConfig {
                rss_dbm: self.signal.rss_dbm(),
                speed_mph: self.mobility.mph(),
                shadow_std_db: shadow_std,
                fading_std_db: fading_std,
            },
            load: match self.load {
                BackgroundLoad::Idle => LoadConfig::idle(),
                BackgroundLoad::Typical => LoadConfig::typical(),
                BackgroundLoad::Busy => LoadConfig::busy(),
            },
        }
    }

    /// Label used in reports.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            match self.load {
                BackgroundLoad::Idle => "idle",
                BackgroundLoad::Typical => "typical",
                BackgroundLoad::Busy => "busy",
            },
            self.signal.label(),
            self.mobility.label()
        )
    }
}

/// When every named fault scenario injects its (first) fault.
pub const FAULT_AT: SimTime = SimTime::from_secs(10);

/// Recommended run length for the named fault scenarios: the fault clears
/// by ~13 s, leaving >10 s of recovery to assert on.
pub const FAULT_RUN_SECS: u64 = 24;

/// A named robustness condition: a field [`Scenario`] plus a [`FaultPlan`]
/// injected into it. These presets are the vocabulary shared by
/// `tests/faults.rs`, the fault studies (`reproduce study faults`), and
/// EXPERIMENTS.md — each models
/// one §4.3-style way the uplink actually breaks.
#[derive(Clone, Debug)]
pub struct FaultScenario {
    /// Stable name (CLI argument, test name, report row).
    pub name: &'static str,
    /// One-line description for tables and docs.
    pub what: &'static str,
    /// The field condition the fault is injected into.
    pub scenario: Scenario,
    /// The faults themselves.
    pub plan: FaultPlan,
}

impl FaultScenario {
    /// All named fault scenarios, in presentation order. Every
    /// [`FaultKind`] appears in at least one preset.
    pub fn all() -> Vec<FaultScenario> {
        let quiet = Scenario::quiet();
        let s = SimDuration::from_secs;
        vec![
            FaultScenario {
                name: "rlf",
                what: "radio link failure: TBS->0 for 2s",
                scenario: quiet,
                plan: FaultPlan::new().with(FaultKind::RadioLinkFailure, FAULT_AT, s(2)),
            },
            FaultScenario {
                name: "diag_freeze",
                what: "diag stall: FBCC sees frozen B(t) for 2.5s",
                scenario: quiet,
                plan: FaultPlan::new().with(
                    FaultKind::DiagStall,
                    FAULT_AT,
                    SimDuration::from_millis(2_500),
                ),
            },
            FaultScenario {
                name: "grant_starve",
                what: "scheduler serves 20% of normal grants for 3s",
                scenario: quiet,
                plan: FaultPlan::new().with(
                    FaultKind::GrantStarvation { factor: 0.2 },
                    FAULT_AT,
                    s(3),
                ),
            },
            FaultScenario {
                name: "roi_blackout",
                what: "95% ROI/RTCP feedback loss for 3s",
                scenario: quiet,
                plan: FaultPlan::new().with(FaultKind::FeedbackLoss { loss: 0.95 }, FAULT_AT, s(3)),
            },
            FaultScenario {
                name: "wireline_spike",
                what: "downstream +150ms delay, +5% loss for 3s",
                scenario: quiet,
                plan: FaultPlan::new().with(
                    FaultKind::WirelineSpike {
                        extra_delay: SimDuration::from_millis(150),
                        extra_loss: 0.05,
                    },
                    FAULT_AT,
                    s(3),
                ),
            },
            FaultScenario {
                name: "flash_crowd",
                what: "background flash crowd adds 0.6 load for 3s",
                scenario: quiet,
                plan: FaultPlan::new().with(
                    FaultKind::FlashCrowd { extra_load: 0.6 },
                    FAULT_AT,
                    s(3),
                ),
            },
            FaultScenario {
                name: "stacked",
                what: "flash crowd + feedback loss, then an RLF on top",
                scenario: quiet,
                plan: FaultPlan::new()
                    .with(FaultKind::FlashCrowd { extra_load: 0.4 }, FAULT_AT, s(3))
                    .with(FaultKind::FeedbackLoss { loss: 0.5 }, FAULT_AT, s(3))
                    .with(
                        FaultKind::RadioLinkFailure,
                        FAULT_AT + SimDuration::from_millis(1_000),
                        SimDuration::from_millis(800),
                    ),
            },
        ]
    }

    /// Look a preset up by name.
    pub fn by_name(name: &str) -> Option<FaultScenario> {
        FaultScenario::all().into_iter().find(|f| f.name == name)
    }
}

/// A named hex-grid mobility condition: trajectory family, speed,
/// lattice geometry, and handover tuning. These presets are the
/// vocabulary shared by the mobility studies (`reproduce study mobility`),
/// the handover tests, and
/// EXPERIMENTS.md — the grid driver in `poi360-core` materializes them
/// into a full run configuration.
#[derive(Clone, Debug)]
pub struct MobilityScenario {
    /// Stable name (CLI argument, test name, report row).
    pub name: &'static str,
    /// One-line description for tables and docs.
    pub what: &'static str,
    /// Trajectory family.
    pub kind: MobilityKind,
    /// Ground speed, m/s.
    pub speed_mps: f64,
    /// Hex rings around the center cell (1 = 7 cells).
    pub rings: usize,
    /// Inter-site distance, meters.
    pub isd_m: f64,
    /// A3 handover + RLF tuning.
    pub a3: A3Config,
}

impl MobilityScenario {
    /// All named mobility scenarios, in presentation order.
    pub fn all() -> Vec<MobilityScenario> {
        vec![
            MobilityScenario {
                name: "convoy",
                what: "lane of UEs drives straight across the lattice",
                kind: MobilityKind::Convoy,
                speed_mps: 20.0,
                rings: 1,
                isd_m: 500.0,
                a3: A3Config::default(),
            },
            MobilityScenario {
                name: "waypoint",
                what: "random-waypoint roaming with dwell pauses",
                kind: MobilityKind::Waypoint,
                speed_mps: 15.0,
                rings: 1,
                isd_m: 500.0,
                a3: A3Config::default(),
            },
            MobilityScenario {
                name: "flash_crowd",
                what: "everyone converges on the center cell and parks",
                kind: MobilityKind::FlashCrowd,
                speed_mps: 15.0,
                rings: 1,
                isd_m: 500.0,
                a3: A3Config::default(),
            },
            MobilityScenario {
                name: "late_ho",
                what: "over-conservative A3 (14dB/640ms): handovers turn into RLFs",
                kind: MobilityKind::Convoy,
                speed_mps: 20.0,
                rings: 1,
                isd_m: 500.0,
                a3: A3Config {
                    hysteresis_db: 14.0,
                    time_to_trigger: SimDuration::from_millis(640),
                },
            },
        ]
    }

    /// Look a preset up by name.
    pub fn by_name(name: &str) -> Option<MobilityScenario> {
        MobilityScenario::all().into_iter().find(|m| m.name == name)
    }
}

/// One row of the unified preset registry.
#[derive(Clone, Copy, Debug)]
pub struct PresetInfo {
    /// Which experiment family the preset belongs to.
    pub family: &'static str,
    /// Preset name (what the CLI accepts).
    pub name: &'static str,
    /// One-line description.
    pub what: &'static str,
}

/// Every named preset across experiment families, in presentation
/// order: fault scenarios first, then mobility scenarios. `reproduce
/// --list` reads from here, so what it lists is what the code accepts.
pub fn preset_registry() -> Vec<PresetInfo> {
    let mut out = Vec::new();
    for f in FaultScenario::all() {
        out.push(PresetInfo { family: "fault", name: f.name, what: f.what });
    }
    for m in MobilityScenario::all() {
        out.push(PresetInfo { family: "mobility", name: m.name, what: m.what });
    }
    out
}

/// The shared wording for an unknown named scenario. Families whose
/// presets live outside this crate (the study registry in
/// `poi360-analyse`) format their errors through this so the phrasing
/// never drifts between families.
pub fn unknown_scenario_error(family: &str, got: &str, valid: &[&str]) -> String {
    format!("unknown {family} scenario \"{got}\" (expected one of: {})", valid.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::saturation_bits_per_subframe;

    /// Long-run saturation throughput (bps) under the scenario's channel
    /// and load means.
    fn capacity(s: Scenario) -> f64 {
        let cfg = s.uplink_config();
        let cqi = crate::tbs::sinr_to_cqi(cfg.channel.mean_sinr_db());
        saturation_bits_per_subframe(&cfg.scheduler, cqi, cfg.load.mean) * 1000.0
    }

    #[test]
    fn signal_sweep_orders_capacity() {
        let [weak, moderate, strong] = Scenario::signal_sweep();
        assert!(capacity(weak) < capacity(moderate));
        assert!(capacity(moderate) <= capacity(strong) * 1.05);
    }

    #[test]
    fn busy_cell_cuts_capacity() {
        let [idle, busy] = Scenario::load_sweep();
        assert!(capacity(busy) < capacity(idle) * 0.8);
    }

    #[test]
    fn mobility_sweep_keeps_highway_rss() {
        for s in Scenario::mobility_sweep() {
            assert_eq!(s.signal, SignalStrength::Highway);
            assert!(s.mobility.mph() > 0.0);
        }
    }

    #[test]
    fn baseline_capacity_realistic() {
        let c = capacity(Scenario::baseline());
        assert!((2.0e6..7.0e6).contains(&c), "baseline capacity {c}");
    }

    #[test]
    fn uplink_config_wires_the_knobs() {
        let s = Scenario {
            load: BackgroundLoad::Busy,
            signal: SignalStrength::Weak,
            mobility: Mobility::Mph30,
        };
        let cfg = s.uplink_config();
        assert_eq!(cfg.channel.rss_dbm, -115.0);
        assert_eq!(cfg.channel.speed_mph, 30.0);
        assert!(cfg.load.burst_extra > 0.0);
    }

    #[test]
    fn fault_scenarios_cover_every_kind_with_unique_names() {
        let all = FaultScenario::all();
        assert!(all.len() >= 6, "at least 6 named fault scenarios");
        let names: std::collections::HashSet<_> = all.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), all.len(), "names are unique");
        let kinds: std::collections::HashSet<_> = all
            .iter()
            .flat_map(|f| f.plan.events().iter().map(|e| std::mem::discriminant(&e.kind)))
            .collect();
        assert_eq!(kinds.len(), 6, "every FaultKind appears: {kinds:?}");
        for f in &all {
            assert!(!f.plan.is_empty());
            assert!(
                f.plan.horizon() < SimTime::from_secs(FAULT_RUN_SECS) - SimDuration::from_secs(8),
                "{}: fault must clear with >=8s of recovery left",
                f.name
            );
            assert_eq!(FaultScenario::by_name(f.name).map(|g| g.what), Some(f.what));
        }
        assert!(FaultScenario::by_name("no_such").is_none());
    }

    #[test]
    fn preset_registry_unifies_families_with_unique_names() {
        let reg = preset_registry();
        assert_eq!(
            reg.len(),
            FaultScenario::all().len() + MobilityScenario::all().len(),
            "registry covers both families"
        );
        let keys: std::collections::HashSet<_> = reg.iter().map(|p| (p.family, p.name)).collect();
        assert_eq!(keys.len(), reg.len(), "(family, name) pairs are unique");
        for p in &reg {
            match p.family {
                "fault" => assert!(FaultScenario::by_name(p.name).is_some()),
                "mobility" => assert!(MobilityScenario::by_name(p.name).is_some()),
                other => panic!("unexpected family {other}"),
            }
        }
        assert!(MobilityScenario::by_name("no_such").is_none());
    }

    #[test]
    fn late_ho_preset_is_meaningfully_conservative() {
        let late = MobilityScenario::by_name("late_ho").unwrap();
        let base = A3Config::default();
        assert!(late.a3.hysteresis_db > base.hysteresis_db + 5.0);
        assert!(late.a3.time_to_trigger > base.time_to_trigger);
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels = std::collections::HashSet::new();
        for s in Scenario::load_sweep()
            .into_iter()
            .chain(Scenario::signal_sweep())
            .chain(Scenario::mobility_sweep())
        {
            labels.insert(s.label());
        }
        // load_sweep's idle condition and signal_sweep's strong condition
        // are the same baseline scenario, so 8 entries give 7 labels.
        assert_eq!(labels.len(), 7);
    }
}
