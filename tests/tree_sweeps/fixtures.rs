//! Seeded violations and near misses for every tree sweep. Each case is a
//! small tree of its own; a violation names what its rule must report, a
//! near miss must leave the rule silent.

use super::*;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rule {
    Hermetic,
    DeadFns,
    UnreadFields,
    Modules,
    Config,
    Shapes,
    DesignRefs,
    DocNames,
    PanicSites,
}

pub struct Case {
    pub rule: Rule,
    pub name: &'static str,
    pub files: &'static [(&'static str, &'static str)],
    /// The allow-list the rule runs with.
    pub list: &'static str,
    /// `Some(text)`: a finding must contain it; `None`: no finding.
    pub flags: Option<&'static str>,
}

const fn case(
    rule: Rule,
    name: &'static str,
    files: &'static [(&'static str, &'static str)],
    list: &'static str,
    flags: Option<&'static str>,
) -> Case {
    Case { rule, name, files, list, flags }
}

/// What every shape case starts from: one interference sum, one seam file
/// listed in DESIGN.md and carrying `#[inline]`.
const SHAPE_BASE: &[(&str, &str)] = &[
    (
        "crates/lte/src/grid/mod.rs",
        "pub fn measure_block(mw: &[f64], interference_mw: &mut [f64]) {\n    interference_mw[0] += mw[0];\n}\n",
    ),
    ("DESIGN.md", "## 10. Hot path\n### Crate seams\n- `crates/lte/src/tbs.rs`: `bits_per_prb`.\n### Next\n"),
    ("crates/lte/src/tbs.rs", "#[inline]\npub fn bits_per_prb() -> f64 { 1.0 }\n"),
];

use Rule::*;

pub const CASES: &[Case] = &[
    // --- hermetic manifests -------------------------------------------------
    case(Hermetic, "a registry crate", &[("crates/a/Cargo.toml", "[dependencies]\nserde = \"1\"\n")], "", Some("serde")),
    case(
        Hermetic,
        "a workspace reference to a foreign crate",
        &[("crates/a/Cargo.toml", "[dev-dependencies]\nrand.workspace = true\n")],
        "",
        Some("rand"),
    ),
    case(
        Hermetic,
        "a poi360 crate from the registry",
        &[("Cargo.toml", "[build-dependencies]\npoi360-sim = \"0.1\"\n")],
        "",
        Some("poi360-sim"),
    ),
    case(
        Hermetic,
        "a foreign workspace dependency",
        &[("Cargo.toml", "[workspace.dependencies]\nlibm = { path = \"vendor/libm\" }\n")],
        "",
        Some("libm"),
    ),
    case(
        Hermetic,
        "near miss: path crates, workspace references, a foreign key in another table",
        &[(
            "crates/a/Cargo.toml",
            "[package]\nname = \"a\"\n\n[dependencies]\npoi360-sim = { path = \"../sim\" }\npoi360-lte.workspace = true\n# serde = \"1\"\n\n[features]\nserde = []\n",
        )],
        "",
        None,
    ),
    // --- dead public functions ----------------------------------------------
    case(
        DeadFns,
        "only tests call it",
        &[
            ("crates/a/src/lib.rs", "pub fn lonely() {}\n#[cfg(test)]\nmod tests {\n    fn t() { super::lonely(); }\n}\n"),
            ("crates/a/tests/t.rs", "fn t() { a::lonely(); }\n"),
        ],
        "",
        Some("crates/a/src/lib.rs lonely"),
    ),
    case(
        DeadFns,
        "only it calls itself",
        &[("crates/a/src/lib.rs", "pub fn spin(n: u32) -> u32 { if n == 0 { 0 } else { spin(n - 1) } }\n")],
        "",
        Some("crates/a/src/lib.rs spin"),
    ),
    case(
        DeadFns,
        "named only in a comment and a string",
        &[
            ("crates/a/src/lib.rs", "pub fn quiet() {}\n"),
            ("src/lib.rs", "// quiet() is not called\nconst S: &str = \"quiet()\";\n"),
        ],
        "",
        Some("crates/a/src/lib.rs quiet"),
    ),
    case(
        DeadFns,
        "another type's method of the same name, receiver typed",
        &[
            ("crates/a/src/lib.rs", "pub struct A;\nimpl A {\n    pub fn reset(&mut self) {\n    }\n}\n"),
            (
                "crates/a/src/b.rs",
                "pub struct B;\nimpl B {\n    pub fn reset(&mut self) {\n    }\n}\npub fn drive(b: &mut B, a: A) {\n    b.reset();\n    drop(a);\n}\n",
            ),
            ("src/lib.rs", "pub fn go(b: &mut a::b::B, x: a::A) {\n    a::b::drive(b, x);\n}\n"),
        ],
        "",
        Some("crates/a/src/lib.rs reset (A)"),
    ),
    case(
        DeadFns,
        "another type's associated function of the same name",
        &[
            ("crates/a/src/lib.rs", "pub struct A;\nimpl A {\n    pub fn new() -> A { A }\n}\n"),
            ("crates/a/src/b.rs", "pub struct B;\nimpl B {\n    pub fn new() -> B { B }\n}\npub fn make() -> B { B::new() }\n"),
            ("src/lib.rs", "pub fn go() { a::b::make(); }\n"),
        ],
        "",
        Some("crates/a/src/lib.rs new (A)"),
    ),
    case(
        DeadFns,
        "a stale allow-list entry",
        &[("crates/a/src/lib.rs", "pub fn used() {}\npub fn caller() { used(); }\n"), ("src/lib.rs", "fn f() { a::caller(); }\n")],
        "crates/a/src/lib.rs oracle a test compares against it",
        Some("allow-list entry whose function is gone: crates/a/src/lib.rs oracle"),
    ),
    case(
        DeadFns,
        "near miss: the benchmark calls it, an untyped receiver in a file that names the type, an allow-listed oracle",
        &[
            (
                "crates/a/src/lib.rs",
                "pub struct A;\nimpl A {\n    pub fn new() -> A { A }\n    pub fn step(&mut self) {}\n}\npub fn oracle() {}\n",
            ),
            ("benchmark/src/main.rs", "use a::A;\nfn main() { let mut x = make(); x.step(); }\nfn make() -> A { A::new() }\n"),
        ],
        "crates/a/src/lib.rs oracle a test compares against it",
        None,
    ),
    // --- unread public fields -----------------------------------------------
    case(
        UnreadFields,
        "only a test reads it",
        &[
            (
                "crates/a/src/lib.rs",
                "pub struct Report {\n    pub received: u64,\n}\npub fn report() -> Report { Report { received: 1 } }\n#[cfg(test)]\nmod tests {\n    fn t() { assert_eq!(super::report().received, 1); }\n}\n",
            ),
            ("tests/t.rs", "fn t() { let r = a::report(); assert_eq!(r.received, 1); }\n"),
        ],
        "",
        Some("crates/a/src/lib.rs Report::received"),
    ),
    case(
        UnreadFields,
        "only its Debug impl reads it",
        &[(
            "crates/a/src/lib.rs",
            "use std::fmt;\npub struct Summary {\n    pub n: usize,\n}\nimpl fmt::Debug for Summary {\n    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result { write!(f, \"{}\", self.n) }\n}\n",
        )],
        "",
        Some("crates/a/src/lib.rs Summary::n"),
    ),
    case(
        UnreadFields,
        "only a same-named field elsewhere is read",
        &[(
            "crates/a/src/lib.rs",
            "pub struct ReceiverReport {\n    pub jitter_ms: f64,\n}\npub struct ReceiverStats {\n    jitter_ms: f64,\n}\nimpl ReceiverStats {\n    pub fn report(&self) -> ReceiverReport { ReceiverReport { jitter_ms: self.jitter_ms } }\n}\n",
        )],
        "",
        Some("crates/a/src/lib.rs ReceiverReport::jitter_ms"),
    ),
    case(
        UnreadFields,
        "a same-named field of a typed parameter is read",
        &[(
            "crates/a/src/lib.rs",
            "pub struct Rtp {\n    pub received: u64,\n}\npub struct Entry {\n    pub received: u64,\n}\npub fn count(e: &Entry) -> u64 { e.received }\n",
        )],
        "",
        Some("crates/a/src/lib.rs Rtp::received"),
    ),
    case(
        UnreadFields,
        "a stale unread_ok entry",
        &[("crates/a/src/lib.rs", "pub struct S {\n    pub x: u8,\n}\npub fn f(s: S) -> u8 { s.x }\n")],
        "crates/a/src/lib.rs y the oracle reads it",
        Some("allow-list entry whose field is gone: crates/a/src/lib.rs y"),
    ),
    case(
        UnreadFields,
        "near miss: a returned value, a pattern, a file that names the type, an oracle hook",
        &[
            (
                "crates/a/src/lib.rs",
                "pub struct Report {\n    pub text: String,\n    pub failures: usize,\n    pub hook: u8,\n}\npub struct Other {\n    pub text: String,\n    pub seen: u8,\n}\npub fn report() -> Report { Report { text: String::new(), failures: 0, hook: 0 } }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "use a::{report, Other};\npub fn go(o: Other) -> usize {\n    let rep = report();\n    let Other { seen, .. } = o;\n    rep.text.len() + rep.failures + seen as usize\n}\n",
            ),
            ("benchmark/src/main.rs", "fn main() { let o: a::Other = todo!(); let t = &o; println!(\"{}\", t.text); }\n"),
        ],
        "crates/a/src/lib.rs hook the oracle reads it",
        None,
    ),
    // --- module reachability ------------------------------------------------
    case(
        Modules,
        "only its crate root and the tests name it",
        &[
            ("crates/a/src/lib.rs", "pub mod lonely;\npub use lonely::f;\n"),
            ("crates/a/src/lonely.rs", "pub fn f() {}\n"),
            ("tests/t.rs", "fn t() { a::lonely::f(); }\n"),
            ("src/lib.rs", "#[cfg(test)]\nmod tests {\n    fn t() { a::lonely::f(); }\n}\n"),
        ],
        "",
        Some("lonely"),
    ),
    case(
        Modules,
        "named only in a comment and a string",
        &[("crates/a/src/lib.rs", "pub mod quiet;\n"), ("src/lib.rs", "// quiet::f\nconst S: &str = \"quiet::f\";\n")],
        "",
        Some("quiet"),
    ),
    case(
        Modules,
        "near miss: the benchmark names it",
        &[("crates/a/src/lib.rs", "pub mod used;\n"), ("benchmark/src/main.rs", "fn main() { a::used::f(); }\n")],
        "",
        None,
    ),
    // --- one value, one constant --------------------------------------------
    case(
        Config,
        "only a test sets the second value",
        &[
            (
                "crates/a/src/lib.rs",
                "pub struct LinkConfig {\n    pub queue_bytes: u64,\n}\nimpl Default for LinkConfig {\n    fn default() -> Self {\n        LinkConfig { queue_bytes: 1 }\n    }\n}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        let _ = super::LinkConfig { queue_bytes: 3 };\n    }\n}\n",
            ),
            ("tests/t.rs", "fn t() {\n    let _ = a::LinkConfig { queue_bytes: 2 };\n}\n"),
            ("crates/a/tests/p.rs", "fn t() {\n    let mut c = a::LinkConfig::default();\n    c.queue_bytes = 4;\n}\n"),
        ],
        "",
        Some("crates/a/src/lib.rs LinkConfig::queue_bytes"),
    ),
    case(
        Config,
        "a signature and a comment are not values",
        &[(
            "crates/a/src/lib.rs",
            "pub struct RunSpec {\n    pub seed: u64,\n}\nimpl Default for RunSpec {\n    fn default() -> Self {\n        RunSpec { seed: 1 }\n    }\n}\npub fn run(\n    seed: u64,\n) -> u64 {\n    // RunSpec { seed: 2 }\n    seed + 1\n}\n",
        )],
        "",
        Some("crates/a/src/lib.rs RunSpec::seed"),
    ),
    case(
        Config,
        "a stale fixed entry",
        &[("crates/a/src/lib.rs", "pub struct AConfig {}\n")],
        "crates/a/src/lib.rs gone the benchmark reads it",
        Some("allow-list entry whose field is gone: crates/a/src/lib.rs gone"),
    ),
    case(
        Config,
        "near miss: a second value in non-test code, an assignment, a fixed entry",
        &[
            (
                "crates/a/src/lib.rs",
                "pub struct LinkConfig {\n    pub queue_bytes: u64,\n    pub rate: f64,\n    pub geometry: u8,\n}\nimpl Default for LinkConfig {\n    fn default() -> Self {\n        LinkConfig { queue_bytes: 1, rate: 1.0, geometry: 0 }\n    }\n}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn small() -> a::LinkConfig {\n    let mut c = a::LinkConfig { queue_bytes: 9, ..Default::default() };\n    c.rate = 2.0;\n    c\n}\n",
            ),
        ],
        "crates/a/src/lib.rs geometry the benchmark reads it from a default config",
        None,
    ),
    // --- structural shapes --------------------------------------------------
    case(
        Shapes,
        "a second interference sum",
        &[(
            "crates/lte/src/grid/mod.rs",
            "pub fn a(mw: &[f64], interference_mw: &mut [f64]) {\n    interference_mw[0] += mw[0];\n}\npub fn b(mw: &[f64], mut interference_mw: f64) -> f64 {\n    interference_mw += mw[1];\n    interference_mw\n}\n",
        )],
        "",
        Some("interference_mw … +="),
    ),
    case(Shapes, "a trait object in core", &[("crates/core/src/x.rs", "pub fn f(p: &dyn Fn()) { p() }\n")], "", Some("`dyn`")),
    case(
        Shapes,
        "the per-UE measurement in the driver",
        &[("crates/core/src/multicell.rs", "fn f(radio: &R) { radio.measure(0); }\n")],
        "",
        Some("radio . measure ("),
    ),
    case(Shapes, "a per-scheme module", &[("crates/core/src/lib.rs", "pub mod tiling;\n")], "", Some("mod tiling")),
    case(
        Shapes,
        "an ordered map in the session's test module",
        &[("crates/core/src/session.rs", "#[cfg(test)]\nmod tests {\n    use std::collections::BTreeMap;\n}\n")],
        "",
        Some("BTreeMap"),
    ),
    case(Shapes, "a deque on the UE side", &[("crates/lte/src/ue.rs", "use std::collections::VecDeque;\n")], "", Some("VecDeque")),
    case(
        Shapes,
        "#[inline] outside the seams",
        &[("crates/lte/src/cell/mod.rs", "#[inline]\nfn f() {}\n")],
        "",
        Some("crates/lte/src/cell/mod.rs: `# [ inline ]`"),
    ),
    case(
        Shapes,
        "#[inline(always)] in a seam file",
        &[("crates/lte/src/tbs.rs", "#[inline]\npub fn a() {}\n#[inline(always)]\npub fn b() {}\n")],
        "",
        Some("inline ( always )"),
    ),
    case(Shapes, "a seam file without #[inline]", &[("crates/lte/src/tbs.rs", "pub fn a() {}\n")], "", Some("want Present")),
    case(
        Shapes,
        "near miss: the names in comments and strings, the second sum in the test module",
        &[
            (
                "crates/lte/src/grid/mod.rs",
                "pub fn a(mw: &[f64], interference_mw: &mut [f64]) {\n    interference_mw[0] += mw[0];\n}\n#[cfg(test)]\nmod tests {\n    fn oracle(mut interference_mw: f64) { interference_mw += 1.0; }\n}\n",
            ),
            ("crates/core/src/session.rs", "// no BTreeMap, no dyn, no radio.measure( here\nconst S: &str = \"#[inline]\";\n"),
            ("crates/lte/src/ue.rs", "/// Replaces the `VecDeque` pipeline.\npub struct BsrPipeline;\n"),
        ],
        "",
        None,
    ),
    // --- DESIGN.md references -----------------------------------------------
    case(
        DesignRefs,
        "a section that does not exist",
        &[("DESIGN.md", "## 5. Policy\n"), ("crates/a/src/lib.rs", "// See DESIGN.md \u{a7}7.\n")],
        "",
        Some("no section 7 in DESIGN.md"),
    ),
    case(
        DesignRefs,
        "a subsection that does not exist",
        &[("DESIGN.md", "## 5b. Decisions\n1. **One.**\n2. **Two.**\n"), ("ci.sh", "# DESIGN \u{a7}5b.3 says so\n")],
        "",
        Some("ci.sh:1: no section 5b.3"),
    ),
    case(
        DesignRefs,
        "near miss: headings, numbered decisions, the paper's sections",
        &[
            ("DESIGN.md", "## 2. Crates\n### 2.1 `sim`\n## 5b. Decisions\n1. **One.**\n2. **Two.**\n"),
            ("tests/t.rs", "// DESIGN.md \u{a7}2.1, DESIGN.md's \u{a7}5b.2 and DESIGN \u{a7}2; the paper's \u{a7}4.1.\n"),
        ],
        "",
        None,
    ),
    // --- names the docs cite -----------------------------------------------
    case(
        DocNames,
        "a method that is gone",
        &[
            ("DESIGN.md", "A look is `Channel::advance_static`; the separate `step_off_cadence` is gone.\n"),
            ("crates/lte/src/channel.rs", "impl Channel {\n    pub fn advance_static(&mut self) {}\n}\n"),
        ],
        "",
        Some("DESIGN.md:1: `step_off_cadence` names nothing"),
    ),
    case(
        DocNames,
        "a test file that is gone",
        &[("EXPERIMENTS.md", "Held by\n`tests/faults.rs::handover_conserves_every_packet`.\n")],
        "",
        Some("EXPERIMENTS.md:2: `tests/faults.rs` is no file"),
    ),
    case(
        DocNames,
        "a module of a path that is gone",
        &[
            ("DESIGN.md", "Both read `analyse::{ingest, chrome}`.\n"),
            ("crates/analyse/src/ingest.rs", "pub fn read() {}\n"),
        ],
        "",
        Some("`analyse::chrome` names nothing"),
    ),
    case(
        DocNames,
        "a name only a comment holds",
        &[
            ("DESIGN.md", "The grant is `grant_for_subframe`.\n"),
            ("crates/a/src/lib.rs", "// grant_for_subframe was the old name.\npub fn grant() {}\n"),
        ],
        "",
        Some("`grant_for_subframe` names nothing"),
    ),
    case(
        DocNames,
        "a method cited on a type whose file calls but lacks it",
        &[
            ("DESIGN.md", "Each look is `Channel::config`.\n"),
            (
                "crates/lte/src/channel.rs",
                "pub struct Channel;\nimpl Channel {\n    pub fn advance(&mut self) {\n        crate::cell::config();\n    }\n}\n",
            ),
            ("crates/lte/src/cell/mod.rs", "pub fn config() {}\n"),
        ],
        "",
        Some("`Channel::config` names nothing"),
    ),
    case(
        DocNames,
        "a test cited in a file that lacks it",
        &[
            ("EXPERIMENTS.md", "Held by `tests/faults.rs::fresh_run`.\n"),
            ("tests/faults.rs", "fn other_run() {}\n"),
            ("tests/mobility.rs", "fn fresh_run() {}\n"),
        ],
        "",
        Some("`tests/faults.rs::fresh_run` names nothing"),
    ),
    case(
        DocNames,
        "near miss: names in code, strings and file names; fences; two-word names",
        &[
            (
                "DESIGN.md",
                "`Cell::subframe` in `src/{faults,mobility}.rs`, `crates/*/tests/prop.rs`,\n`sim.trace.bytes_per_record`, `bench_results/study_faults_smoke.txt`, a\n`` `held_in_code` `` span, `tests/faults.rs::fresh_run`, `dead_name` and\n```text study_faults_smoke\n`never_defined_here`\n```\n`self.rsrp_dbm`, `Vec::with_capacity`, `sim::trace::Sink::write_line`,\n`lte::cell::tests::sounding_oracle_holds`, `analyse::{ingest, chrome}`.\n",
            ),
            ("EXPERIMENTS.md", "` ```text <stem> ` blocks quote `per_ue_load_of(cell)`.\n"),
            (
                "crates/lte/src/cell/mod.rs",
                "impl Cell {\n    pub fn subframe(&mut self) {}\n}\n#[cfg(test)]\nmod tests {\n    fn sounding_oracle_holds() {}\n}\n",
            ),
            ("crates/bench/src/faults.rs", "fn held_in_code() -> Vec<u8> { Vec::with_capacity(1) }\n"),
            ("crates/bench/src/mobility.rs", "const M: &str = \"sim.trace.bytes_per_record\";\n"),
            ("crates/sim/src/trace.rs", "pub trait Sink {\n    fn write_line(&mut self);\n}\n"),
            ("crates/analyse/src/ingest.rs", "pub fn read() {}\n"),
            ("crates/analyse/src/chrome.rs", "pub fn export() {}\n"),
            ("crates/sim/tests/prop.rs", "fn per_ue_load_of() {}\n"),
            ("tests/faults.rs", "fn fresh_run() {}\n"),
            ("bench_results/study_faults_smoke.txt", ""),
        ],
        "",
        None,
    ),
    // --- panic sites --------------------------------------------------------
    case(
        PanicSites,
        "an unlisted site",
        &[("crates/a/src/lib.rs", "pub fn head(v: &[u8]) -> u8 { *v.first().unwrap() }\n")],
        "",
        Some("crates/a/src/lib.rs head unwrap: 1 unlisted"),
    ),
    case(
        PanicSites,
        "a listed site that is gone",
        &[("crates/a/src/lib.rs", "pub fn head(v: &[u8]) -> Option<u8> { v.first().copied() }\n")],
        "crates/a/src/lib.rs head unwrap invariant the caller checks the slice is not empty",
        Some("crates/a/src/lib.rs head unwrap: 1 listed site(s) gone"),
    ),
    case(
        PanicSites,
        "near miss: listed sites, a parser's own expect, test code, unwrap_or",
        &[
            (
                "crates/a/src/lib.rs",
                "pub fn head(v: &[u8]) -> u8 { *v.first().expect(\"non-empty\") }\npub fn pick(k: u8) -> u8 { match k { 0 => 1, _ => unreachable!(\"validated\") } }\nstruct P;\nimpl P {\n    fn expect(&mut self, b: u8) -> Result<(), String> { Ok(()) }\n    fn list(&mut self) -> Result<(), String> { self.expect(b'[') }\n}\npub fn or(v: Option<u8>) -> u8 { v.unwrap_or(0) }\n#[cfg(test)]\nmod tests {\n    fn t() { panic!(\"fine\"); }\n}\n",
            ),
            ("crates/testkit/src/lib.rs", "pub fn f() { None::<u8>.unwrap(); }\n"),
            ("tests/t.rs", "fn t() { None::<u8>.unwrap(); }\n"),
        ],
        "crates/a/src/lib.rs head expect invariant callers pass a non-empty slice\ncrates/a/src/lib.rs pick unreachable input a code that did not pass validation",
        None,
    ),
];

pub fn run(case: &Case) -> Vec<String> {
    let mut files: Vec<(String, &'static str)> =
        case.files.iter().map(|(p, t)| (p.to_string(), *t)).collect();
    if case.rule == Shapes {
        for (path, text) in SHAPE_BASE {
            if !files.iter().any(|(p, _)| p == path) {
                files.push((path.to_string(), text));
            }
        }
    }
    let tree = Tree::of(files);
    match case.rule {
        Hermetic => hermetic(&tree),
        DeadFns => dead_fns(&tree, case.list),
        UnreadFields => unread_fields(&tree, case.list),
        Modules => unreachable_mods(&tree),
        Config => single_valued_config(&tree, case.list),
        Shapes => shape_violations(&tree),
        DesignRefs => dangling_design_refs(&tree),
        DocNames => stale_doc_names(&tree),
        PanicSites => unlisted_panic_sites(&tree, case.list),
    }
}

#[test]
fn every_fixture_gets_its_verdict() {
    let mut wrong = Vec::new();
    for case in CASES {
        let found = run(case);
        let ok = match case.flags {
            Some(text) => found.iter().any(|f| f.contains(text)),
            None => found.is_empty(),
        };
        if !ok {
            wrong.push(format!(
                "{:?} / {}: want {:?}, found {found:?}",
                case.rule, case.name, case.flags
            ));
        }
    }
    assert!(wrong.is_empty(), "fixtures with the wrong verdict:\n  {}", wrong.join("\n  "));
}

#[test]
fn every_rule_has_a_violation_and_a_near_miss() {
    let rules = [
        Hermetic,
        DeadFns,
        UnreadFields,
        Modules,
        Config,
        Shapes,
        DesignRefs,
        DocNames,
        PanicSites,
    ];
    for rule in rules {
        let cases: Vec<_> = CASES.iter().filter(|c| c.rule == rule).collect();
        assert!(cases.iter().any(|c| c.flags.is_some()), "{rule:?} has no seeded violation");
        assert!(cases.iter().any(|c| c.flags.is_none()), "{rule:?} has no near miss");
    }
}
