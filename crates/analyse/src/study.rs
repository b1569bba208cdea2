//! The declarative study layer: one `key=value` config describes a
//! `scenarios × rate-controllers × seeds` matrix; [`StudyConfig::cases`]
//! expands it to a deterministic case list that `bench::study` fans out
//! over the worker pool.
//!
//! Config format (DESIGN.md §12): flat `key=value` text (this module's
//! private `KvMap`), list values `+`-separated (commas and whitespace
//! are KV separators). Keys: `name`, `family` (`fault` | `mobility`),
//! `scenarios`, `controllers` (fault family only: `fbcc` / `gcc` / `occ`),
//! `schemes` (fault family only: `roi` / `pano` / `ghosh`, default
//! `roi`), `seeds` (count), `base_seed`, `seconds`. Unknown keys are
//! errors — a typo must not silently run the default matrix.
//!
//! The six checked-in presets (`studies/*.study`) are embedded at
//! compile time and registered in the same [`PresetInfo`] vocabulary as
//! the fault/mobility presets, so `reproduce --list` enumerates them
//! and unknown-study errors share the registry wording. `faults` and
//! `mobility` are the two families' robustness suites; `cc_matrix`,
//! `ho_tails` and `busy` ask one question each, and `arena` races every
//! controller and scheme. Every study's cases are judged by their
//! family's invariants (`bench::faults`, `bench::mobility`).

use poi360_lte::scenario::{
    unknown_scenario_error, BackgroundLoad, FaultScenario, MobilityScenario, PresetInfo, Scenario,
};
use poi360_sim::fault::FaultPlan;
use poi360_sim::time::SimDuration;
use std::collections::BTreeMap;

/// Which experiment family a study drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StudyFamily {
    /// Single-cell fault scenarios (`FaultScenario` presets plus the
    /// synthetic `baseline` = quiet cell, empty fault plan).
    Fault,
    /// Hex-grid mobility scenarios (`MobilityScenario` presets).
    Mobility,
}

impl StudyFamily {
    /// Stable lowercase name used in configs and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            StudyFamily::Fault => "fault",
            StudyFamily::Mobility => "mobility",
        }
    }

    fn parse(s: &str) -> Result<StudyFamily, String> {
        match s {
            "fault" => Ok(StudyFamily::Fault),
            "mobility" => Ok(StudyFamily::Mobility),
            other => Err(format!("unknown study family {other:?} (expected fault or mobility)")),
        }
    }
}

/// The rate controllers a fault-family study may race: POI360's
/// firmware-buffer-aware control, stock WebRTC delay-gradient control,
/// and PHY-assisted grant/backlog control. This is the one label
/// vocabulary (`.study` files, `--list`); `bench::study::rate_control`
/// maps it onto `RateControlKind`.
pub const CONTROLLERS: [&str; 3] = ["fbcc", "gcc", "occ"];

/// The compression schemes a fault-family study may race: POI360's
/// distance-based ROI matrix (the first, and the default), and the
/// Pano-style and Ghosh-style tilings of `video::perceptual`.
/// `bench::study::compression_scheme` maps it onto `CompressionScheme`.
pub const SCHEMES: [&str; 3] = ["roi", "pano", "ghosh"];

/// The fault-family scenarios that are not fault presets, each with an
/// empty plan, as `(name, description, load)`: `baseline` is the quiet
/// cell (byte-identical to an untraced clean run by the fault plane's
/// composition rule), `busy` the loaded cell of the load sweep, and
/// `shared` two flows of the case's contestant sharing a cell with
/// background UEs, scored by the league rather than judged (no session
/// cell: `bench::study` runs it as an ensemble). A cell is
/// [`Scenario::quiet`] under its load. Validation, [`fault_scenario`] and
/// `reproduce --list` (through [`registry`]) all read this table.
const CELL_SCENARIOS: [(&str, &str, Option<BackgroundLoad>); 3] = [
    ("baseline", "quiet cell, no faults injected", Some(BackgroundLoad::Idle)),
    ("busy", "busy cell, no faults injected", Some(BackgroundLoad::Busy)),
    ("shared", "two flows per contestant share a cell with 4 background UEs", None),
];

/// Resolve a fault-study session scenario: a fault preset, or a
/// plan-less cell of [`CELL_SCENARIOS`]. `shared` is not a session
/// scenario.
pub fn fault_scenario(name: &str) -> FaultScenario {
    match CELL_SCENARIOS.iter().find(|&&(cell, ..)| cell == name) {
        Some(&(name, what, Some(load))) => FaultScenario {
            name,
            what,
            scenario: Scenario { load, ..Scenario::quiet() },
            plan: FaultPlan::new(),
        },
        _ => FaultScenario::by_name(name).unwrap_or_else(|| {
            unreachable!("{name:?} is not a session scenario StudyConfig::validate admits")
        }),
    }
}

/// The label a contestant's cases carry as their `rc`: the controller,
/// then `.scheme` unless the scheme is the default.
fn contestant_label(controller: &str, scheme: &str) -> String {
    match scheme == SCHEMES[0] {
        true => controller.to_string(),
        false => format!("{controller}.{scheme}"),
    }
}

/// The controller and scheme labels of a case's `rc`.
pub fn contestant(rc: &str) -> (&str, &str) {
    rc.split_once('.').unwrap_or((rc, SCHEMES[0]))
}

const NO_MOBILITY_SCHEMES: &str =
    "mobility study takes no schemes (the grid driver owns its flows)";

/// A declarative study: the full matrix, before expansion.
#[derive(Clone, Debug, PartialEq)]
pub struct StudyConfig {
    /// Study name (artifact file names, report header).
    pub name: String,
    /// Which experiment family the scenarios come from.
    pub family: StudyFamily,
    /// Scenario preset names (fault family also accepts `baseline`).
    pub scenarios: Vec<String>,
    /// Rate-controller labels (fault family; empty for mobility, where
    /// the grid driver owns rate control).
    pub controllers: Vec<String>,
    /// Compression-scheme labels (fault family; mobility keeps the
    /// default `roi`).
    pub schemes: Vec<String>,
    /// Seeds per `scenario × controller` group.
    pub seeds: u64,
    /// First seed; repetition `r` runs at `base_seed + r`.
    pub base_seed: u64,
    /// Run length per case, seconds.
    pub seconds: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            name: "study".into(),
            family: StudyFamily::Fault,
            scenarios: Vec::new(),
            controllers: Vec::new(),
            schemes: vec![SCHEMES[0].into()],
            seeds: 3,
            base_seed: 1,
            seconds: 0,
        }
    }
}

fn split_list(v: &str) -> Vec<String> {
    v.split('+').filter(|s| !s.is_empty()).map(str::to_string).collect()
}

/// A flat string→string map parsed from `key=value` text.
///
/// Accepted separators between pairs: commas, whitespace, and newlines.
/// Lines starting with `#` are ignored so the format doubles as a minimal
/// config-file syntax.
#[derive(Debug)]
struct KvMap {
    pairs: BTreeMap<String, String>,
}

impl KvMap {
    /// Parse `key=value` pairs. Later duplicates win.
    fn parse(text: &str) -> Result<KvMap, String> {
        let mut pairs = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            for token in line.split(|c: char| c == ',' || c.is_whitespace()) {
                if token.is_empty() {
                    continue;
                }
                let Some((k, v)) = token.split_once('=') else {
                    return Err(format!("malformed key=value token: {token:?}"));
                };
                pairs.insert(k.trim().to_string(), v.trim().to_string());
            }
        }
        Ok(KvMap { pairs })
    }

    /// Raw lookup.
    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.get(key).map(String::as_str)
    }

    /// Parse a value with `FromStr`; `Ok(None)` when the key is absent.
    fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(raw) => {
                raw.parse::<T>().map(Some).map_err(|_| format!("cannot parse {key}={raw:?}"))
            }
        }
    }

    /// Keys present in the map.
    fn keys(&self) -> impl Iterator<Item = &str> {
        self.pairs.keys().map(String::as_str)
    }
}

impl StudyConfig {
    /// Parse and validate a study from its `key=value` text. Missing keys
    /// keep their defaults; unknown keys are errors.
    pub fn from_kv_str(text: &str) -> Result<Self, String> {
        let kv = KvMap::parse(text)?;
        const KNOWN: [&str; 8] = [
            "name",
            "family",
            "scenarios",
            "controllers",
            "schemes",
            "seeds",
            "base_seed",
            "seconds",
        ];
        for key in kv.keys() {
            if !KNOWN.contains(&key) {
                return Err(format!(
                    "unknown study key {key:?} (expected one of: {})",
                    KNOWN.join(", ")
                ));
            }
        }
        let mut cfg = StudyConfig::default();
        if let Some(name) = kv.get("name") {
            cfg.name = name.to_string();
        }
        if let Some(family) = kv.get("family") {
            cfg.family = StudyFamily::parse(family)?;
        }
        if let Some(scenarios) = kv.get("scenarios") {
            cfg.scenarios = split_list(scenarios);
        }
        if let Some(controllers) = kv.get("controllers") {
            cfg.controllers = split_list(controllers);
        }
        if let Some(schemes) = kv.get("schemes") {
            if cfg.family == StudyFamily::Mobility {
                return Err(NO_MOBILITY_SCHEMES.into());
            }
            cfg.schemes = split_list(schemes);
        }
        if let Some(seeds) = kv.get_parsed("seeds")? {
            cfg.seeds = seeds;
        }
        if let Some(base_seed) = kv.get_parsed("base_seed")? {
            cfg.base_seed = base_seed;
        }
        if let Some(seconds) = kv.get_parsed("seconds")? {
            cfg.seconds = seconds;
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// One expanded run of a study matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct StudyCase {
    /// Scenario preset name.
    pub scenario: String,
    /// Contestant label: the controller, with `.scheme` appended unless
    /// the scheme is `roi` (`None` for mobility cases).
    pub rc: Option<String>,
    /// Seed this case runs at.
    pub seed: u64,
    /// Stable case label, also the trace `src` tag:
    /// `scenario.rc.s<seed>` / `scenario.s<seed>`.
    pub label: String,
}

impl StudyConfig {
    /// Reject configs that could not run: empty or unknown scenarios,
    /// bad controller or scheme sets, repeated names, zero seeds/seconds,
    /// a run length or a seed range past `u64`.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("study name must not be empty".into());
        }
        if self.scenarios.is_empty() {
            return Err("study has no scenarios".into());
        }
        for s in &self.scenarios {
            let known = match self.family {
                StudyFamily::Fault => {
                    CELL_SCENARIOS.iter().any(|&(name, ..)| name == s)
                        || FaultScenario::by_name(s).is_some()
                }
                StudyFamily::Mobility => MobilityScenario::by_name(s).is_some(),
            };
            if !known {
                return Err(match self.family {
                    StudyFamily::Fault => {
                        let mut valid: Vec<&str> = CELL_SCENARIOS.map(|(name, ..)| name).to_vec();
                        valid.extend(FaultScenario::all().iter().map(|f| f.name));
                        unknown_scenario_error("fault", s, &valid)
                    }
                    StudyFamily::Mobility => {
                        let valid: Vec<&str> =
                            MobilityScenario::all().iter().map(|m| m.name).collect();
                        unknown_scenario_error("mobility", s, &valid)
                    }
                });
            }
        }
        match self.family {
            StudyFamily::Fault => {
                if self.controllers.is_empty() {
                    return Err(format!(
                        "fault study needs controllers (one or more of: {})",
                        CONTROLLERS.join(", ")
                    ));
                }
                for c in &self.controllers {
                    if !CONTROLLERS.contains(&c.as_str()) {
                        return Err(unknown_scenario_error("controller", c, &CONTROLLERS));
                    }
                }
                if self.schemes.is_empty() {
                    return Err(format!(
                        "fault study needs schemes (one or more of: {})",
                        SCHEMES.join(", ")
                    ));
                }
                for s in &self.schemes {
                    if !SCHEMES.contains(&s.as_str()) {
                        return Err(unknown_scenario_error("scheme", s, &SCHEMES));
                    }
                }
            }
            StudyFamily::Mobility => {
                if !self.controllers.is_empty() {
                    return Err(
                        "mobility study takes no controllers (the grid driver owns them)".into()
                    );
                }
                if self.schemes != [SCHEMES[0]] {
                    return Err(NO_MOBILITY_SCHEMES.into());
                }
            }
        }
        // A repeated name would run its cases twice under one label.
        for (what, names) in [
            ("scenario", &self.scenarios),
            ("controller", &self.controllers),
            ("scheme", &self.schemes),
        ] {
            let mut dedup = names.clone();
            dedup.sort();
            dedup.dedup();
            if dedup.len() != names.len() {
                return Err(format!("duplicate {what} in study"));
            }
        }
        if self.seeds == 0 {
            return Err("study needs seeds >= 1".into());
        }
        if self.seconds == 0 {
            return Err("study needs seconds >= 1".into());
        }
        if SimDuration::checked_from_secs(self.seconds).is_none() {
            return Err(format!("seconds={} overflows the simulation clock", self.seconds));
        }
        if self.base_seed.checked_add(self.seeds - 1).is_none() {
            return Err(format!(
                "base_seed={} + seeds={} overflows u64",
                self.base_seed, self.seeds
            ));
        }
        Ok(())
    }

    /// The contestant labels of a fault study, controller-major: every
    /// controller with every scheme (empty for mobility).
    pub fn contestants(&self) -> Vec<String> {
        let schemes = || self.schemes.iter().map(String::as_str);
        let pairs = self.controllers.iter().flat_map(|c| schemes().map(move |s| (c, s)));
        pairs.map(|(c, s)| contestant_label(c, s)).collect()
    }

    /// Expand the matrix in deterministic order: scenario-major, then
    /// contestant ([`StudyConfig::contestants`]), then repetition (`seed =
    /// base_seed + r`). This order is the contract `bench::study` relies
    /// on for input-ordered, byte-deterministic aggregation.
    pub fn cases(&self) -> Vec<StudyCase> {
        let mut out = Vec::new();
        let rcs: Vec<Option<String>> = match self.family {
            StudyFamily::Fault => self.contestants().into_iter().map(Some).collect(),
            StudyFamily::Mobility => vec![None],
        };
        for scenario in &self.scenarios {
            for rc in &rcs {
                for r in 0..self.seeds {
                    let seed = self.base_seed + r;
                    let label = match rc {
                        Some(rc) => format!("{scenario}.{rc}.s{seed}"),
                        None => format!("{scenario}.s{seed}"),
                    };
                    out.push(StudyCase { scenario: scenario.clone(), rc: rc.clone(), seed, label });
                }
            }
        }
        out
    }

    /// Groups of the matrix (`scenario × controller`), in case order.
    pub fn groups(&self) -> Vec<(String, Option<String>)> {
        let mut out = Vec::new();
        for case in self.cases() {
            let key = (case.scenario.clone(), case.rc.clone());
            if !out.contains(&key) {
                out.push(key);
            }
        }
        out
    }
}

/// The checked-in study presets, embedded at compile time: registry row
/// + config text.
pub fn study_presets() -> Vec<(PresetInfo, &'static str)> {
    let preset = |name, what, text| (PresetInfo { family: "study", name, what }, text);
    vec![
        preset(
            "faults",
            "every fault preset x FBCC/GCC/OCC: recovery invariants",
            include_str!("../studies/faults.study"),
        ),
        preset(
            "mobility",
            "hex-grid convoy x 3 seeds: handover invariants",
            include_str!("../studies/mobility.study"),
        ),
        preset(
            "cc_matrix",
            "FBCC vs GCC x {baseline,rlf,flash_crowd} x 3 seeds",
            include_str!("../studies/cc_matrix.study"),
        ),
        preset(
            "ho_tails",
            "handover-gap tails across mobility presets x 3 seeds",
            include_str!("../studies/ho_tails.study"),
        ),
        preset(
            "busy",
            "one traced FBCC session in the busy cell, no faults",
            include_str!("../studies/busy.study"),
        ),
        preset(
            "arena",
            "FBCC/GCC/OCC x roi/pano/ghosh: shared-cell quality + fault league",
            include_str!("../studies/arena.study"),
        ),
    ]
}

/// This crate's rows of the unified `reproduce --list` registry: the
/// plan-less fault-family scenarios, then the study presets.
pub fn registry() -> Vec<PresetInfo> {
    let cells = CELL_SCENARIOS.map(|(name, what, _)| PresetInfo { family: "fault", name, what });
    cells.into_iter().chain(study_presets().into_iter().map(|(info, _)| info)).collect()
}

/// Parse a preset by name (`None` for names not in the registry).
pub fn by_name(name: &str) -> Option<StudyConfig> {
    study_presets().into_iter().find(|(info, _)| info.name == name).map(|(info, text)| {
        StudyConfig::from_kv_str(text)
            .unwrap_or_else(|e| panic!("checked-in study {} is invalid: {e}", info.name))
    })
}

/// Error text for an unknown study that names the valid set, phrased
/// through the same formatter as the fault/mobility families.
pub fn unknown_study_error(got: &str) -> String {
    let valid: Vec<&str> = study_presets().into_iter().map(|(p, _)| p.name).collect();
    unknown_scenario_error("study", got, &valid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_presets_parse_and_validate() {
        let cc = by_name("cc_matrix").expect("cc_matrix registered");
        assert_eq!(cc.family, StudyFamily::Fault);
        assert_eq!(cc.scenarios, ["baseline", "rlf", "flash_crowd"]);
        assert_eq!(cc.controllers, ["fbcc", "gcc"]);
        assert_eq!((cc.seeds, cc.base_seed, cc.seconds), (3, 1, 24));
        assert_eq!(cc.cases().len(), 18, "2 controllers x 3 scenarios x 3 seeds");

        let ho = by_name("ho_tails").expect("ho_tails registered");
        assert_eq!(ho.family, StudyFamily::Mobility);
        assert!(ho.controllers.is_empty());
        assert_eq!(ho.cases().len(), 9);
        assert!(by_name("nope").is_none());
    }

    /// The two suites cover their families: a fault preset added to the
    /// registry without joining `faults.study` fails here.
    #[test]
    fn suites_run_every_fault_preset_and_the_convoy_at_three_seeds() {
        use poi360_lte::scenario::FAULT_RUN_SECS;
        let faults = by_name("faults").expect("faults registered");
        let names: Vec<&str> = FaultScenario::all().iter().map(|f| f.name).collect();
        assert_eq!(faults.family, StudyFamily::Fault);
        assert_eq!(faults.scenarios, names, "every fault preset, in registry order");
        assert_eq!(faults.controllers, CONTROLLERS);
        assert_eq!((faults.seeds, faults.base_seed, faults.seconds), (1, 1, FAULT_RUN_SECS));
        let labels: Vec<String> = faults.cases().into_iter().map(|c| c.label).collect();
        assert_eq!(labels.len(), names.len() * CONTROLLERS.len());
        assert_eq!(labels[..4], ["rlf.fbcc.s1", "rlf.gcc.s1", "rlf.occ.s1", "diag_freeze.fbcc.s1"]);

        let mobility = by_name("mobility").expect("mobility registered");
        assert_eq!(mobility.family, StudyFamily::Mobility);
        assert_eq!(mobility.scenarios, ["convoy"]);
        assert_eq!((mobility.seeds, mobility.base_seed, mobility.seconds), (3, 1, 30));
        let labels: Vec<String> = mobility.cases().into_iter().map(|c| c.label).collect();
        assert_eq!(labels, ["convoy.s1", "convoy.s2", "convoy.s3"]);
    }

    #[test]
    fn case_expansion_is_scenario_major_with_stable_labels() {
        let cc = by_name("cc_matrix").unwrap();
        let cases = cc.cases();
        assert_eq!(cases[0].label, "baseline.fbcc.s1");
        assert_eq!(cases[1].label, "baseline.fbcc.s2");
        assert_eq!(cases[3].label, "baseline.gcc.s1");
        assert_eq!(cases[6].label, "rlf.fbcc.s1");
        assert_eq!(cases[17].label, "flash_crowd.gcc.s3");
        assert_eq!(cc.groups().len(), 6, "groups follow case order: one per scenario x controller");
        assert_eq!(cc.groups()[0], ("baseline".into(), Some("fbcc".into())));
    }

    #[test]
    fn unknown_keys_scenarios_and_controllers_are_rejected() {
        let err = StudyConfig::from_kv_str("name=x family=fault scenariox=rlf").unwrap_err();
        assert!(err.contains("unknown study key"), "{err}");

        let err = StudyConfig::from_kv_str(
            "name=x family=fault scenarios=warp_core controllers=fbcc seconds=6",
        )
        .unwrap_err();
        assert!(err.contains("unknown fault scenario \"warp_core\""), "{err}");
        assert!(err.contains("baseline, busy, shared, rlf"), "valid set named: {err}");

        let err = StudyConfig::from_kv_str("name=x family=mobility scenarios=teleport seconds=6")
            .unwrap_err();
        assert!(err.contains("unknown mobility scenario \"teleport\""), "{err}");
        assert!(err.contains("convoy") && !err.contains("baseline"), "valid set named: {err}");

        let err =
            StudyConfig::from_kv_str("name=x family=fault scenarios=rlf controllers=tcp seconds=6")
                .unwrap_err();
        assert!(err.contains("unknown controller scenario \"tcp\""), "{err}");

        let err = StudyConfig::from_kv_str(
            "name=x family=mobility scenarios=convoy controllers=fbcc seconds=6",
        )
        .unwrap_err();
        assert!(err.contains("no controllers"), "{err}");

        let err = StudyConfig::from_kv_str("name=x family=fault scenarios=rlf controllers=fbcc")
            .unwrap_err();
        assert!(err.contains("seconds"), "{err}");
    }

    #[test]
    fn schemes_parse_into_contestants_and_unknowns_name_the_valid_set() {
        let arena = by_name("arena").expect("arena registered");
        assert_eq!(arena.schemes, SCHEMES);
        let contestants = arena.contestants();
        assert_eq!(contestants[..4], ["fbcc", "fbcc.pano", "fbcc.ghosh", "gcc"]);
        assert_eq!(contestants.len(), CONTROLLERS.len() * SCHEMES.len());
        for rc in &contestants {
            let (controller, scheme) = contestant(rc);
            assert!(CONTROLLERS.contains(&controller) && SCHEMES.contains(&scheme), "{rc}");
        }
        let labels: Vec<String> = arena.cases().into_iter().map(|c| c.label).collect();
        assert_eq!(labels[..2], ["shared.fbcc.s1", "shared.fbcc.pano.s1"]);
        assert_eq!(labels.len(), 4 * contestants.len());

        let pano =
            StudyConfig::from_kv_str("name=x scenarios=rlf controllers=gcc schemes=pano seconds=6")
                .expect("a lone non-default scheme");
        assert_eq!(pano.cases()[0].label, "rlf.gcc.pano.s1");

        let err = StudyConfig::from_kv_str(
            "name=x scenarios=rlf controllers=fbcc schemes=tiles seconds=6",
        )
        .unwrap_err();
        assert_eq!(err, "unknown scheme scenario \"tiles\" (expected one of: roi, pano, ghosh)");
        let err =
            StudyConfig::from_kv_str("name=x scenarios=rlf controllers=fbcc schemes= seconds=6")
                .unwrap_err();
        assert!(err.contains("needs schemes"), "{err}");
        for (repeat, what) in [
            ("controllers=fbcc+gcc+fbcc", "duplicate controller"),
            ("controllers=fbcc schemes=pano+roi+pano", "duplicate scheme"),
        ] {
            let err = StudyConfig::from_kv_str(&format!("name=x scenarios=rlf {repeat} seconds=6"))
                .unwrap_err();
            assert_eq!(err, format!("{what} in study"));
        }
    }

    #[test]
    fn mobility_studies_reject_schemes() {
        for schemes in ["pano", "roi"] {
            let err = StudyConfig::from_kv_str(&format!(
                "name=x family=mobility scenarios=convoy schemes={schemes} seconds=6"
            ))
            .unwrap_err();
            assert!(err.contains("takes no schemes"), "{err}");
        }
        let cfg = StudyConfig { schemes: vec!["ghosh".into()], ..by_name("mobility").unwrap() };
        assert!(cfg.validate().unwrap_err().contains("takes no schemes"));
    }

    /// The four presets that predate `schemes` expand to the labels, in
    /// the order, they had before it: FNV-1a of the newline-joined labels,
    /// taken on the commit before the key landed.
    #[test]
    fn labels_of_the_presets_before_schemes_are_unchanged() {
        let fnv = |text: &str| {
            text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        for (name, count, pin) in [
            ("faults", 21, 0x00ab_61f7_3dc0_eb39),
            ("mobility", 3, 0x7300_7614_3015_def0),
            ("cc_matrix", 18, 0xbef6_f362_3d96_fe00),
            ("ho_tails", 9, 0x2ad0_1c21_68a4_32af),
        ] {
            let cfg = by_name(name).expect("registered");
            let labels: Vec<String> = cfg.cases().into_iter().map(|c| c.label).collect();
            assert_eq!((labels.len(), fnv(&labels.join("\n"))), (count, pin), "{name}");
        }
    }

    #[test]
    fn run_lengths_and_seed_ranges_past_u64_are_rejected() {
        let study = |tail: &str| {
            StudyConfig::from_kv_str(&format!("name=x scenarios=rlf controllers=fbcc {tail}"))
        };
        let err = study("seconds=18446744073710").unwrap_err();
        assert!(err.contains("seconds=18446744073710 overflows"), "{err}");
        let err = study("seconds=6 base_seed=18446744073709551615 seeds=2").unwrap_err();
        assert!(err.contains("overflows u64"), "{err}");
        let last = study("seconds=18446744073709 base_seed=18446744073709551614 seeds=2");
        assert_eq!(last.expect("the last seed is u64::MAX").cases()[1].seed, u64::MAX);
    }

    #[test]
    fn unknown_study_error_names_the_registry() {
        let err = unknown_study_error("cc_matirx");
        assert_eq!(
            err,
            "unknown study scenario \"cc_matirx\" (expected one of: faults, mobility, cc_matrix, \
             ho_tails, busy, arena)"
        );
    }

    #[test]
    fn kv_parses_mixed_separators() {
        let kv = KvMap::parse("a=1, b=2\n# comment\nc=hello d=4.5").unwrap();
        assert_eq!(kv.get("a"), Some("1"));
        assert_eq!(kv.get_parsed::<u64>("b").unwrap(), Some(2));
        assert_eq!(kv.get("c"), Some("hello"));
        assert_eq!(kv.get_parsed::<f64>("d").unwrap(), Some(4.5));
        assert_eq!(kv.get("missing"), None);
        assert_eq!(kv.keys().count(), 4);
    }

    #[test]
    fn kv_rejects_malformed() {
        assert!(KvMap::parse("novalue").is_err());
        let kv = KvMap::parse("x=notanum").unwrap();
        assert!(kv.get_parsed::<u64>("x").is_err());
    }

    #[test]
    fn kv_malformed_token_error_names_the_token() {
        let err = KvMap::parse("a=1 stray b=2").unwrap_err();
        assert!(err.contains("malformed key=value token"), "{err}");
        assert!(err.contains("stray"), "error should quote the offender: {err}");
    }

    #[test]
    fn kv_malformed_value_error_names_key_and_value() {
        let kv = KvMap::parse("repeats=lots").unwrap();
        let err = kv.get_parsed::<u64>("repeats").unwrap_err();
        assert!(err.contains("repeats"), "{err}");
        assert!(err.contains("lots"), "{err}");
    }

    #[test]
    fn kv_later_duplicates_win() {
        let kv = KvMap::parse("a=1 a=2").unwrap();
        assert_eq!(kv.get("a"), Some("2"));
        assert_eq!(kv.keys().count(), 1);
    }
}
