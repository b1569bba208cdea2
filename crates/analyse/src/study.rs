//! The declarative study layer: one `key=value` config describes a
//! `scenarios × rate-controllers × seeds` matrix; [`StudyConfig::cases`]
//! expands it to a deterministic case list that `bench::study` fans out
//! over the worker pool.
//!
//! Config format (DESIGN.md §12): flat `key=value` text (this module's
//! private `KvMap`), list values `+`-separated (commas and whitespace
//! are KV separators). Keys: `name`, `family` (`fault` | `mobility`),
//! `scenarios`, `controllers` (fault family only: `fbcc` / `gcc` / `occ`),
//! `seeds` (count), `base_seed`, `seconds`, `threshold` (A-vs-B drift
//! fraction). Unknown keys are errors — a typo must not silently run
//! the default matrix.
//!
//! The two checked-in presets (`studies/*.study`) are embedded at
//! compile time and registered in the same [`PresetInfo`] vocabulary as
//! the fault/mobility presets, so `reproduce --list` enumerates them
//! and unknown-study errors share the registry wording.

use poi360_lte::scenario::{unknown_scenario_error, FaultScenario, MobilityScenario, PresetInfo};
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

/// The rate controllers a fault-family study or the arena may race:
/// POI360's firmware-buffer-aware control, stock WebRTC delay-gradient
/// control, and PHY-assisted grant/backlog control. This is the one
/// label vocabulary (`.study` files, `arena --controllers`, `--list`);
/// `bench::study::rate_control` maps it onto `RateControlKind`.
pub const CONTROLLERS: [&str; 3] = ["fbcc", "gcc", "occ"];

/// The synthetic no-fault scenario every fault study may include: a
/// quiet cell with an empty fault plan (byte-identical to an untraced
/// clean run by the PR 4 composition rule).
pub const BASELINE_SCENARIO: &str = "baseline";

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
    /// Seeds per `scenario × controller` group.
    pub seeds: u64,
    /// First seed; repetition `r` runs at `base_seed + r`.
    pub base_seed: u64,
    /// Run length per case, seconds.
    pub seconds: u64,
    /// A-vs-B drift threshold as a fraction (0.25 = flag deltas >25%).
    pub threshold: f64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            name: "study".into(),
            family: StudyFamily::Fault,
            scenarios: Vec::new(),
            controllers: Vec::new(),
            seeds: 3,
            base_seed: 1,
            seconds: 0,
            threshold: 0.25,
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
            "seeds",
            "base_seed",
            "seconds",
            "threshold",
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
        if let Some(seeds) = kv.get_parsed("seeds")? {
            cfg.seeds = seeds;
        }
        if let Some(base_seed) = kv.get_parsed("base_seed")? {
            cfg.base_seed = base_seed;
        }
        if let Some(seconds) = kv.get_parsed("seconds")? {
            cfg.seconds = seconds;
        }
        if let Some(threshold) = kv.get_parsed("threshold")? {
            cfg.threshold = threshold;
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
    /// Controller label (`None` for mobility cases).
    pub rc: Option<String>,
    /// Seed this case runs at.
    pub seed: u64,
    /// Stable case label, also the trace `src` tag:
    /// `scenario.rc.s<seed>` / `scenario.s<seed>`.
    pub label: String,
}

impl StudyConfig {
    /// Reject configs that could not run: empty or unknown scenarios,
    /// bad controller sets, zero seeds/seconds, a run length or a seed
    /// range past `u64`, broken thresholds.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("study name must not be empty".into());
        }
        if self.scenarios.is_empty() {
            return Err("study has no scenarios".into());
        }
        for s in &self.scenarios {
            let known = match self.family {
                StudyFamily::Fault => s == BASELINE_SCENARIO || FaultScenario::by_name(s).is_some(),
                StudyFamily::Mobility => MobilityScenario::by_name(s).is_some(),
            };
            if !known {
                return Err(match self.family {
                    StudyFamily::Fault => {
                        let mut valid = vec![BASELINE_SCENARIO];
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
            }
            StudyFamily::Mobility => {
                if !self.controllers.is_empty() {
                    return Err(
                        "mobility study takes no controllers (the grid driver owns them)".into()
                    );
                }
            }
        }
        let mut dedup = self.scenarios.clone();
        dedup.sort();
        dedup.dedup();
        if dedup.len() != self.scenarios.len() {
            return Err("duplicate scenario in study".into());
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
        if !(self.threshold > 0.0 && self.threshold.is_finite()) {
            return Err("threshold must be a positive fraction".into());
        }
        Ok(())
    }

    /// Expand the matrix in deterministic order: scenario-major, then
    /// controller, then repetition (`seed = base_seed + r`). This order
    /// is the contract `bench::study` relies on for input-ordered,
    /// byte-deterministic aggregation.
    pub fn cases(&self) -> Vec<StudyCase> {
        let mut out = Vec::new();
        let rcs: Vec<Option<&str>> = match self.family {
            StudyFamily::Fault => self.controllers.iter().map(|c| Some(c.as_str())).collect(),
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
                    out.push(StudyCase {
                        scenario: scenario.clone(),
                        rc: rc.map(str::to_string),
                        seed,
                        label,
                    });
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

/// `cc_matrix` preset text, embedded at compile time.
pub const CC_MATRIX_STUDY: &str = include_str!("../studies/cc_matrix.study");
/// `ho_tails` preset text, embedded at compile time.
pub const HO_TAILS_STUDY: &str = include_str!("../studies/ho_tails.study");

/// The checked-in study presets: registry row + config text.
pub fn study_presets() -> Vec<(PresetInfo, &'static str)> {
    vec![
        (
            PresetInfo {
                family: "study",
                name: "cc_matrix",
                what: "FBCC vs GCC x {baseline,rlf,flash_crowd} x 3 seeds",
            },
            CC_MATRIX_STUDY,
        ),
        (
            PresetInfo {
                family: "study",
                name: "ho_tails",
                what: "handover-gap tails across mobility presets x 3 seeds",
            },
            HO_TAILS_STUDY,
        ),
    ]
}

/// Study rows for the unified `reproduce --list` registry.
pub fn registry() -> Vec<PresetInfo> {
    study_presets().into_iter().map(|(info, _)| info).collect()
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
    let valid: Vec<&str> = registry().into_iter().map(|p| p.name).collect();
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
        assert!(err.contains("baseline, rlf"), "valid set named: {err}");

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
            "unknown study scenario \"cc_matirx\" (expected one of: cc_matrix, ho_tails)"
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
