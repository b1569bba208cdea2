//! The tree sweeps: rules that hold the source tree small and its
//! structure as DESIGN.md describes it. Every rule reads the tree through
//! one token scanner (`tree_sweeps/scan.rs`), and every rule has fixtures
//! (`tree_sweeps/fixtures.rs`): a seeded violation it must flag and a near
//! miss it must pass. DESIGN.md §15 lists the rules.
//!
//! "Non-test code" is every `.rs` file under `crates/*/src`, `src` and
//! `benchmark/src` outside its `#[cfg(test)] mod` blocks, `crates/testkit`
//! excepted; `tests/`, `crates/*/tests` and test modules never count.
//!
//! Run alone: `cargo test -q -p poi360 --test tree_sweeps`.

#[path = "tree_sweeps/fixtures.rs"]
mod fixtures;
#[path = "tree_sweeps/scan.rs"]
mod scan;

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use scan::{Kind, RefKind, Scan, Tok};

/// Public functions only tests call, kept as what a test compares the
/// simulator against: `path name reason`. The sweep forgives these names;
/// an entry whose function is gone fails. Entries the sweep would not flag
/// are listed too, so the list is the whole inventory of test-only API.
const ALLOWED: &str = "
crates/lte/src/scheduler.rs saturation_bits_per_subframe the closed-form Fig. 5 asymptote the grant law and the scenarios are tested against (cfg(test))
crates/video/src/content.rs weight sender_oracles.rs re-derives each frame size from the tile complexities
crates/video/src/encoder.rs tiles sender_oracles.rs compares the level, bits and weight of every tile with the three-pass encoder
crates/lte/src/buffer.rs total_served_bytes conservation properties balance it against what was enqueued and flushed
crates/net/src/pipe.rs sent conservation properties balance sent against delivered and in flight
crates/net/src/pipe.rs in_flight conservation properties balance sent against delivered and in flight
crates/transport/src/rtp.rs completed reassembly properties account every frame as completed or abandoned
crates/transport/src/rtp.rs abandoned reassembly properties account every frame as completed or abandoned
crates/core/src/ring.rs iter the ring oracles compare its live entries with a BTreeMap
crates/analyse/src/ingest.rs generic_records the ingest gates assert every JsonlSink stream reads on the shaped path
crates/sim/src/trace.rs shared RingSink, a test sink: the unit tests of sim use it and cannot take it from testkit
crates/sim/src/trace.rs records RingSink, a test sink: the unit tests of sim use it and cannot take it from testkit
crates/sim/src/json.rs as_bool the unit test of benchmark/src/main.rs reads the correct field of a summary line with it
crates/sim/src/workers.rs with_worker_threads tests that compare pool widths set the width with it, under the process-wide lock beside it
crates/lte/src/cell/mod.rs background_steps zero_alloc.rs pins the UE-subframes the parking cell walks
crates/lte/src/cell/mod.rs background_channel_samples zero_alloc.rs pins the channel samples the sounding cadence takes
crates/core/src/multicell.rs background_steps zero_alloc.rs pins the UE-subframes a mobility grid walks
crates/core/src/multicell.rs background_channel_samples zero_alloc.rs pins the channel samples a mobility grid takes
crates/bench/src/protocol.rs records fault_prefix.rs and faults.rs pin the records each shared prefix formats once per group
crates/lte/src/channel.rs config the noiseless sounding oracle in lte::cell's tests rebuilds each background channel at its RSS (cfg(test))
";

/// Public fields only tests read, kept as oracle hooks: `path field
/// reason`; an entry whose field is gone fails.
const UNREAD_OK: &str = "
crates/lte/src/cell/mod.rs bg_backlog_bytes the 500-UE byte pin in cell_prop.rs and the parking and sounding oracles fold it in
crates/video/src/encoder.rs keyframe the encoder tests and sender_oracles.rs check which frames are keyframes
crates/transport/src/rtp.rs suffered_loss the reassembly unit and property tests check which frames needed a repair
crates/lte/src/diag.rs delivered_at only benchmark/src/adapter.rs builds a DiagReport, so it sets every field
crates/lte/src/uplink.rs buffer_bytes the uplink's RLF tests check the subframe after a radio link failure logs the flushed buffer
crates/video/src/encoder.rs sender_roi sender_oracles.rs checks every frame carries the ROI the three-pass encoder was given
";

/// Config fields that stay although one value is in use: `path field
/// reason`; an entry whose field is gone fails. Entries the count would
/// not flag are listed too, so the list is the whole inventory.
const FIXED: &str = "
crates/video/src/encoder.rs geometry every run encodes UHD_4K, but benchmark/src/adapter.rs reads the field from a default config
crates/core/src/config.rs pipeline_delay end_to_end.rs traced_predictive_session_records_its_mode_switches runs a 1.5 s pipeline so M stays above every frame delay
crates/lte/src/cell/mod.rs total_prbs cell_prop.rs prb_allocation_conserves_capacity draws the cell's PRB count
crates/lte/src/cell/mod.rs pf_time_constant_subframes lte::cell's parked_ues_are_idle_silent_and_never_candidates property draws the PF time constant
crates/lte/src/scheduler.rs ue_base_prbs crate_smoke.rs lte_buffer_serves_what_it_queued_and_tbs_grows_with_prbs grows the grant with the base PRB share
crates/lte/src/scheduler.rs share_jitter crate_smoke.rs lte_buffer_serves_what_it_queued_and_tbs_grows_with_prbs turns the share jitter off to compare two shares
crates/net/src/wireline.rs queue_bytes property_based.rs wireline_link_is_a_lindley_queue and the wireline unit tests draw the queue size
crates/video/src/encoder.rs keyframe_interval sender_oracles.rs one_pass_encoder_matches_the_three_pass_encoder draws periodic keyframes
crates/video/src/encoder.rs rate_jitter_std sender_oracles.rs draws the rate jitter; video prop.rs psnr_bounded_and_rate_monotone and the encoder tests turn it off
";

/// Every `unwrap()`, `expect("…")`, `panic!` and `unreachable!` in the
/// library crates' non-test code: `path fn kind class reason`, one line per
/// site. An `invariant` site cannot fire unless the code around it is
/// wrong; an `input` site fires on what a caller passes in. A site not on
/// the list fails, and so does an entry whose site is gone.
const PANIC_SITES: &str = "
crates/analyse/src/report.rs delta expect invariant every caller passes the probe's stats on one side at least
crates/analyse/src/study.rs by_name panic invariant the checked-in presets are compiled in, and a unit test parses every one
crates/analyse/src/study.rs fault_scenario unreachable invariant StudyConfig::validate admits only the cell scenarios and the registry's presets
crates/bench/src/experiments.rs coexist expect invariant the pool returns one group per coexistence mix
crates/bench/src/experiments.rs coexist expect invariant the pool returns one group per sweep size
crates/bench/src/mobility.rs invariants unreachable invariant a mobility study builds grid cases only
crates/bench/src/mobility.rs invariants unreachable invariant StudyConfig::validate admits only mobility scenarios in a mobility study
crates/bench/src/protocol.rs continue_case panic invariant a prefix is spliced only into the sink it was formatted for
crates/bench/src/protocol.rs run_traced expect invariant fault_groups places every fault case in a group
crates/bench/src/study.rs rate_control unreachable input a controller label that did not pass StudyConfig::validate
crates/bench/src/study.rs compression_scheme unreachable input a scheme label that did not pass StudyConfig::validate
crates/bench/src/study.rs traced_cases expect invariant StudyConfig::cases gives every fault case a controller
crates/bench/src/study.rs traced_cases unreachable invariant StudyConfig::validate admits only session scenarios in a fault study
crates/bench/src/study.rs league expect invariant every executed case's controller is one of the listed contestants
crates/bench/src/study.rs league unreachable invariant a fault study builds no grid cases
crates/core/src/multicell.rs seat expect invariant every UE is resident in its serving cell's bundle, as the grid barrier debug-checks
crates/core/src/session.rs misdriven panic input a caller advances a driver-served session itself, or a standalone one through a driver
crates/lte/src/buffer.rs serve_into expect invariant a positive queued byte count implies a queue head
crates/lte/src/cell/mod.rs assert_unique panic input a caller attaches a second UE under a name already attached
crates/lte/src/cell/mod.rs detach_foreground expect input a caller detaches a UeId that is not attached
crates/lte/src/cell/mod.rs set_foreground_radio expect input a caller passes a UeId that is not attached
crates/lte/src/cell/mod.rs firmware expect input a caller passes a UeId that is not attached
crates/lte/src/cell/mod.rs enqueue expect input a caller passes a UeId that is not attached
crates/lte/src/channel.rs subframe expect invariant a handover is scheduled only when the mobility pattern has an interval
crates/lte/src/grid/hex.rs serving_cell expect invariant a hex grid has its centre cell at every ring count
crates/lte/src/grid/mod.rs top2 expect invariant a radio map row has one entry per cell, and a grid has one at least
crates/net/src/wireline.rs poll expect invariant a positive queued byte count implies a queue head
crates/sim/src/json.rs number unwrap invariant the token is ASCII digits, signs, dots and exponents only
crates/sim/src/series.rs sliding_window_std unwrap invariant the empty series returned early
crates/sim/src/workers.rs lock expect invariant the epoch state is never held across a job, so never poisoned
crates/sim/src/workers.rs worker expect invariant the epoch state is never held across a job, so never poisoned
crates/sim/src/workers.rs drain expect invariant a range slot is only locked to empty it, so never poisoned
crates/sim/src/workers.rs dispatch unwrap invariant the spawn gate is held only to count workers, so never poisoned
crates/sim/src/workers.rs dispatch expect input the host refuses to spawn a worker thread
crates/sim/src/workers.rs dispatch expect invariant the epoch state is never held across a job, so never poisoned
crates/transport/src/pacer.rs tick_into expect invariant a positive queued byte count implies a queue head
crates/transport/src/rtp.rs on_packet expect input a caller hands the reassembler a packet that is not video
crates/transport/src/rtp.rs on_packet expect invariant a frame's entry exists until its last packet completes it
";

// ---------------------------------------------------------------------------
// The tree
// ---------------------------------------------------------------------------

/// One Rust file: its path from the repository root and its scan.
pub struct Source {
    pub path: String,
    pub raw: &'static str,
    pub scan: Scan,
}

impl Source {
    /// `crates/<name>` for a crate's file, `benchmark` or `.` (the root
    /// package) otherwise.
    fn package(&self) -> &str {
        match self.path.split('/').collect::<Vec<_>>()[..] {
            ["crates", name, ..] => &self.path[..7 + name.len()],
            ["benchmark", ..] => "benchmark",
            _ => ".",
        }
    }

    /// Under `crates/*/src`.
    fn in_crate_src(&self) -> bool {
        matches!(self.path.split('/').collect::<Vec<_>>()[..], ["crates", _, "src", ..])
    }

    /// Non-test code the sweeps count: `crates/*/src` (testkit excepted),
    /// `src` and `benchmark/src`.
    fn is_product(&self) -> bool {
        (self.in_crate_src() && !self.path.starts_with("crates/testkit/"))
            || self.path.starts_with("src/")
            || self.path.starts_with("benchmark/src/")
    }
}

/// A source tree as the sweeps read it.
pub struct Tree {
    pub rust: Vec<Source>,
    /// `Cargo.toml`, `crates/*/Cargo.toml` and `benchmark/Cargo.toml`.
    pub manifests: Vec<(String, &'static str)>,
    pub design: &'static str,
    /// The Markdown documents beside DESIGN.md that cite it.
    pub docs: Vec<(String, &'static str)>,
    pub ci: &'static str,
    /// Every file of the tree, `.rs` or not, from the repository root.
    pub files: Vec<String>,
}

impl Tree {
    /// A tree from `(path, text)` pairs; `.rs` files are scanned.
    pub fn of(files: Vec<(String, &'static str)>) -> Tree {
        let mut tree = Tree {
            rust: Vec::new(),
            manifests: Vec::new(),
            design: "",
            docs: Vec::new(),
            ci: "",
            files: files.iter().map(|(path, _)| path.clone()).collect(),
        };
        for (path, raw) in files {
            if path.ends_with(".rs") {
                tree.rust.push(Source { scan: scan::scan(raw), path, raw });
            } else if path.ends_with("Cargo.toml") {
                tree.manifests.push((path, raw));
            } else if path == "DESIGN.md" {
                tree.design = raw;
            } else if path.ends_with(".md") {
                tree.docs.push((path, raw));
            } else if path == "ci.sh" {
                tree.ci = raw;
            }
        }
        tree.rust.sort_by(|a, b| a.path.cmp(&b.path));
        tree
    }

    fn product(&self) -> impl Iterator<Item = &Source> {
        self.rust.iter().filter(|s| s.is_product())
    }
}

fn repo_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// The repository's own tree, read once per test binary: one walk lists
/// every file and reads the `.rs` files of the source directories and the
/// crates' manifests.
fn tree() -> &'static Tree {
    static TREE: OnceLock<Tree> = OnceLock::new();
    TREE.get_or_init(|| {
        let root = repo_root();
        let read = |rel: &str| -> &'static str {
            let text = std::fs::read_to_string(root.join(rel))
                .unwrap_or_else(|e| panic!("read {rel}: {e}"));
            Box::leak(text.into_boxed_str())
        };
        let sources = ["src/", "tests/", "benchmark/src/", "crates/*/src/", "crates/*/tests/"];
        let mut all = Vec::new();
        let mut files = Vec::new();
        walk(&root, Path::new(""), &mut Vec::new(), &mut |rel| {
            let source = rel.ends_with(".rs") && sources.iter().any(|d| path_matches(d, rel));
            if source || path_matches("crates/*/Cargo.toml", rel) {
                files.push((rel.to_string(), read(rel)));
            }
            all.push(rel.to_string());
        });
        let markdown = ["DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md", "README.md"];
        for rel in ["Cargo.toml", "benchmark/Cargo.toml", "ci.sh"].into_iter().chain(markdown) {
            files.push((rel.to_string(), read(rel)));
        }
        let mut tree = Tree::of(files);
        tree.files = all;
        tree
    })
}

/// Every file under `root/dir`, as a `/`-separated relative path. Hidden
/// entries, `target` and what a `.gitignore` on the way down names are
/// skipped, so build and run output never counts as part of the tree.
/// `ignored` carries the patterns read so far, each as (directory of its
/// `.gitignore`, pattern); a pattern with a leading `/` matches the path
/// below that directory, one without a `/` any entry's name below it.
fn walk(root: &Path, dir: &Path, ignored: &mut Vec<(String, String)>, found: &mut dyn FnMut(&str)) {
    let Ok(entries) = std::fs::read_dir(root.join(dir)) else { return };
    let base = dir.to_string_lossy().replace('\\', "/");
    let outer = ignored.len();
    if let Ok(text) = std::fs::read_to_string(root.join(dir).join(".gitignore")) {
        let patterns = text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#'));
        ignored.extend(patterns.map(|p| (base.clone(), p.trim_end_matches('/').to_string())));
    }
    let mut entries: Vec<_> = entries.map(|e| e.expect("directory entry").path()).collect();
    entries.sort();
    for path in entries {
        let rel = path.strip_prefix(root).expect("under the root");
        let rel_text = rel.to_string_lossy().replace('\\', "/");
        let name = path.file_name().map_or_else(Default::default, |n| n.to_string_lossy());
        let skip = ignored.iter().any(|(base, pat)| {
            let below = if base.is_empty() {
                Some(rel_text.as_str())
            } else {
                rel_text.strip_prefix(base.as_str()).and_then(|r| r.strip_prefix('/'))
            };
            match (below, pat.strip_prefix('/')) {
                (Some(below), Some(anchored)) => {
                    let (segs, pats) = (below.split('/'), anchored.split('/'));
                    segs.clone().count() == pats.clone().count()
                        && pats.zip(segs).all(|(p, s)| glob(p, s))
                }
                (Some(_), None) => !pat.contains('/') && glob(pat, &name),
                (None, _) => false,
            }
        });
        if skip || name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk(root, rel, ignored, found);
        } else {
            found(&rel_text);
        }
    }
    ignored.truncate(outer);
}

/// Whether `name` matches the one-segment pattern `pat`, `*` any run of
/// characters.
fn glob(pat: &str, name: &str) -> bool {
    match pat.split_once('*') {
        None => pat == name,
        Some((head, rest)) => name.strip_prefix(head).is_some_and(|tail| {
            (0..=tail.len()).filter(|&k| tail.is_char_boundary(k)).any(|k| glob(rest, &tail[k..]))
        }),
    }
}

/// `path name reason` rows of an allow-list.
fn entries(list: &'static str) -> Vec<(&'static str, &'static str)> {
    list.lines()
        .filter_map(|row| {
            let mut words = row.split_whitespace();
            Some((words.next()?, words.next()?))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The rules. Each returns its findings, one line each; none is clean.
// ---------------------------------------------------------------------------

/// No `[dependencies]`, `[dev-dependencies]`, `[build-dependencies]`,
/// `[workspace.dependencies]` or target-specific entry names anything but a
/// `poi360-*` crate by path (or by a workspace reference to one).
pub fn hermetic(tree: &Tree) -> Vec<String> {
    let mut found = Vec::new();
    for (path, text) in &tree.manifests {
        let mut table: Option<String> = None;
        for line in text.lines().map(str::trim) {
            if line.starts_with('[') {
                let name = line.trim_matches(|c| c == '[' || c == ']');
                let deps = ["dependencies", "dev-dependencies", "build-dependencies"];
                let last = name.rsplit('.').next().unwrap_or(name);
                table = if deps.contains(&last) {
                    Some(String::new())
                } else {
                    // `[dependencies.name]`: the table is one entry.
                    deps.iter()
                        .find_map(|d| name.strip_prefix(d).and_then(|r| r.strip_prefix('.')))
                        .or_else(|| name.split_once(".dependencies.").map(|(_, r)| r))
                        .map(str::to_string)
                };
                if let Some(dep) =
                    table.as_deref().filter(|d| !d.is_empty() && !d.starts_with("poi360-"))
                {
                    found.push(format!("{path}: [{name}] names {dep}"));
                }
                continue;
            }
            let Some(dep) = table.as_deref() else { continue };
            if line.is_empty() || line.starts_with('#') || !dep.is_empty() {
                continue;
            }
            let key = line.split(['=', '.']).next().unwrap_or("").trim();
            let value =
                line.split_once('=').map_or("", |(k, v)| if k.contains('.') { k } else { v });
            if !key.starts_with("poi360-")
                || !(value.contains("path") || value.contains("workspace"))
            {
                found.push(format!("{path}: {line}"));
            }
        }
    }
    found
}

/// Every `pub` / `pub(crate)` function under `crates/*/src` is used by
/// non-test code. A use is a call or a path, never a bare name:
/// - `Type::name` / `Self::name` uses only `Type`'s function; a free
///   function is used by `name(` or `module::name`;
/// - `.name(` on a receiver whose type the text shows (`self`, a typed
///   parameter or `let`, a field of one) uses that type's function when it
///   has one;
/// - any other `.name(` uses a method of a type in the calling package, or
///   of a type the calling file names, or any method of that name when the
///   calling package defines no `pub fn name` of its own;
/// - a call or path inside the body of the function it names does not use
///   that function.
pub fn dead_fns(tree: &Tree, allowed: &'static str) -> Vec<String> {
    let allowed = entries(allowed);
    let mut found = stale(tree, &allowed, "function", |s, name| {
        s.scan.fns.iter().any(|f| f.public && f.name == name)
    });
    let methods: HashSet<(&str, &str)> = tree
        .product()
        .flat_map(|s| s.scan.fns.iter().filter(|f| f.public).filter_map(|f| Some((f.ty?, f.name))))
        .collect();
    let pub_in: HashSet<(&str, &str)> = tree
        .product()
        .flat_map(|s| s.scan.fns.iter().filter(|f| f.public).map(move |f| (s.package(), f.name)))
        .collect();
    let index = scan::Index::new(tree.product().map(|s| &s.scan));
    type FnId = (usize, usize);
    let mut uses: HashMap<(Option<&str>, &str), usize> = HashMap::new();
    let mut self_uses: HashMap<FnId, usize> = HashMap::new();
    // Unbound `.name(` calls: name -> (file, package, enclosing fn of that name).
    type Caller<'a> = (usize, &'a str, Option<FnId>);
    let mut calls: HashMap<&str, Vec<Caller>> = HashMap::new();
    let files: Vec<&Source> = tree.product().collect();
    let names: Vec<HashSet<&str>> = files
        .iter()
        .map(|s| {
            s.scan
                .toks
                .iter()
                .filter(|t| t.kind == Kind::Ident && t.text.starts_with(char::is_uppercase))
                .map(|t| t.text)
                .collect()
        })
        .collect();
    for (k, s) in files.iter().enumerate() {
        for r in &s.scan.refs {
            let within = |own: bool| r.within.filter(|_| own).map(|f| (k, f));
            let typed = match r.kind {
                RefKind::Path(Some(q)) => Some((Some(q), within(Some(q) == r.impl_ty))),
                RefKind::Path(None) | RefKind::Call => Some((None, within(r.impl_ty.is_none()))),
                RefKind::Method => index
                    .resolve(&r.recv)
                    .filter(|t| methods.contains(&(*t, r.name)))
                    .map(|t| (Some(t), within(Some(t) == r.impl_ty))),
                _ => continue,
            };
            match typed {
                Some((ty, owner)) => {
                    *uses.entry((ty, r.name)).or_default() += 1;
                    if let Some(owner) = owner {
                        *self_uses.entry(owner).or_default() += 1;
                    }
                }
                None => calls.entry(r.name).or_default().push((
                    k,
                    s.package(),
                    r.within.map(|f| (k, f)),
                )),
            }
        }
    }
    for (k, s) in files.iter().enumerate() {
        if !s.path.starts_with("crates/") {
            continue;
        }
        for (id, f) in s.scan.fns.iter().enumerate().filter(|(_, f)| f.public) {
            if allowed.contains(&(s.path.as_str(), f.name)) {
                continue;
            }
            let own = self_uses.get(&(k, id)).copied().unwrap_or(0);
            let used = uses.get(&(f.ty, f.name)).copied().unwrap_or(0) > own
                || f.ty.is_some() && uses.contains_key(&(Some("?"), f.name))
                || f.ty.is_some_and(|t| {
                    calls.get(f.name).into_iter().flatten().any(|&(file, pkg, within)| {
                        within != Some((k, id))
                            && (pkg == s.package()
                                || names[file].contains(t)
                                || !pub_in.contains(&(pkg, f.name)))
                    })
                });
            if !used {
                found.push(format!(
                    "{} {}{}",
                    s.path,
                    f.name,
                    f.ty.map_or(String::new(), |t| format!(" ({t})"))
                ));
            }
        }
    }
    found.sort();
    found
}

/// The allow-list entries whose item is gone from their file.
fn stale(
    tree: &Tree,
    list: &[(&str, &str)],
    what: &str,
    has: impl Fn(&Source, &str) -> bool,
) -> Vec<String> {
    list.iter()
        .filter(|(path, name)| !tree.rust.iter().any(|s| s.path == *path && has(s, name)))
        .map(|(path, name)| format!("allow-list entry whose {what} is gone: {path} {name}"))
        .collect()
}

/// Every `pub` / `pub(crate)` field of a `pub` / `pub(crate)` struct under
/// `crates/*/src` is read by non-test code: `.name` that is neither a
/// method call nor an assignment target, or `name` in a destructuring
/// pattern (`name: _` reads nothing). Writing a field in a struct literal
/// does not read it, and neither does a `Debug` impl. A read whose
/// receiver the text shows counts for that type only; any other read of
/// `.name` counts for a type the reading file names, or for every field
/// of that name when only one struct declares one.
pub fn unread_fields(tree: &Tree, unread_ok: &'static str) -> Vec<String> {
    let unread_ok = entries(unread_ok);
    let declared = |s: &Source| s.is_product() && s.in_crate_src();
    let mut found = stale(tree, &unread_ok, "field", |s, name| {
        declared(s)
            && s.scan
                .structs
                .iter()
                .any(|d| d.public && d.fields.iter().any(|f| f.public && f.name == name))
    });
    let index = scan::Index::new(tree.product().map(|s| &s.scan));
    let mut owners: HashMap<&str, HashSet<&str>> = HashMap::new();
    for d in tree.product().flat_map(|s| &s.scan.structs) {
        for f in &d.fields {
            owners.entry(f.name).or_default().insert(d.name);
        }
    }
    let mut bound: HashSet<(&str, &str)> = HashSet::new();
    let mut unbound: HashMap<&str, Vec<usize>> = HashMap::new();
    // The types each file names or gets back from a function it calls.
    let mut reaches: Vec<HashSet<&str>> = Vec::new();
    for (k, s) in tree.product().enumerate() {
        let mut reach: HashSet<&str> =
            s.scan.toks.iter().filter(|t| t.kind == Kind::Ident).map(|t| t.text).collect();
        reach.extend(s.scan.refs.iter().flat_map(|r| index.returns_of(r)));
        reaches.push(reach);
        for r in s.scan.refs.iter().filter(|r| matches!(r.kind, RefKind::Read | RefKind::Pattern)) {
            if r.impl_trait == Some("Debug") {
                continue;
            }
            match index.resolve(&r.recv).filter(|t| index.has_field(t, r.name)) {
                Some(t) => drop(bound.insert((t, r.name))),
                None => unbound.entry(r.name).or_default().push(k),
            }
        }
    }
    for s in tree.product().filter(|s| declared(s)) {
        for d in s.scan.structs.iter().filter(|d| d.public) {
            for f in d.fields.iter().filter(|f| f.public) {
                if unread_ok.contains(&(s.path.as_str(), f.name))
                    || bound.contains(&(d.name, f.name))
                {
                    continue;
                }
                let unique = owners.get(f.name).is_some_and(|o| o.len() == 1);
                let read = unbound.get(f.name).is_some_and(|readers| {
                    unique || readers.iter().any(|&r| reaches[r].contains(d.name))
                });
                if !read {
                    found.push(format!("{} {}::{}", s.path, d.name, f.name));
                }
            }
        }
    }
    found
}

/// Every `pub mod m` of a `crates/*/src/lib.rs` is named (`m::`) by non-test
/// code in some other file under `crates/*/src`, `src` or `benchmark/src`
/// (no crate root counts): a module only its own crate root, a comment or a
/// test can reach is one no run can reach.
pub fn unreachable_mods(tree: &Tree) -> Vec<String> {
    let is_root = |s: &Source| s.in_crate_src() && s.path.ends_with("/src/lib.rs");
    let mut named = HashSet::new();
    for s in tree.rust.iter().filter(|s| !is_root(s) && (s.in_crate_src() || s.is_product())) {
        for w in s.scan.toks.windows(2).filter(|w| w[1].is("::")) {
            named.insert(w[0].text);
        }
    }
    let mut found: Vec<String> = tree
        .rust
        .iter()
        .filter(|s| is_root(s))
        .flat_map(|s| {
            s.scan.toks.windows(3).filter(|w| w[0].is("pub") && w[1].is("mod")).map(|w| w[2].text)
        })
        .filter(|m| !named.contains(m))
        .map(str::to_string)
        .collect();
    found.sort();
    found.dedup();
    found
}

/// Every `pub` field of a `pub struct *Config` / `*Spec` / `*Scale` under
/// `crates/*/src` is initialised on two or more lines of non-test code: its
/// own `Default` and one more. A line initialises `name` when it writes
/// `name:` or the `name,` / `name }` shorthand, or assigns `.name =`; `pub
/// name:` declarations and `fn` signatures do not count. Matching is by
/// bare name.
pub fn single_valued_config(tree: &Tree, fixed: &'static str) -> Vec<String> {
    let fixed = entries(fixed);
    let mut found = stale(tree, &fixed, "field", |s, name| {
        s.in_crate_src()
            && configs(&s.scan).any(|d| d.fields.iter().any(|f| f.plain_pub && f.name == name))
    });
    let mut lines: HashMap<&str, HashSet<(&str, u32)>> = HashMap::new();
    for s in tree.product() {
        let toks = &s.scan.toks;
        let in_sig: Vec<bool> = {
            let mut v = vec![false; toks.len()];
            for f in &s.scan.fns {
                v[f.sig.0..f.sig.1.min(toks.len())].iter_mut().for_each(|x| *x = true);
            }
            v
        };
        for (j, t) in toks.iter().enumerate().filter(|(j, t)| t.kind == Kind::Ident && !in_sig[*j])
        {
            let prev = j.checked_sub(1).map_or("", |p| toks[p].text);
            let next = toks.get(j + 1).map_or("", |t| t.text);
            let declared = prev == "pub" || prev == ")" && j >= 4 && toks[j - 4].is("pub");
            let writes = if prev == "." {
                next == "="
            } else {
                [":", ",", "}"].contains(&next) && !(declared && next == ":")
            };
            if writes {
                lines.entry(t.text).or_default().insert((s.path.as_str(), t.line));
            }
        }
    }
    for s in tree.rust.iter().filter(|s| s.in_crate_src()) {
        for d in configs(&s.scan) {
            for f in d.fields.iter().filter(|f| f.plain_pub) {
                if !fixed.contains(&(s.path.as_str(), f.name))
                    && lines.get(f.name).map_or(0, HashSet::len) < 2
                {
                    found.push(format!("{} {}::{}", s.path, d.name, f.name));
                }
            }
        }
    }
    found
}

/// The `pub struct *Config` / `*Spec` / `*Scale` of a file.
fn configs(s: &Scan) -> impl Iterator<Item = &scan::StructDef> {
    s.structs
        .iter()
        .filter(|d| d.plain_pub && ["Config", "Spec", "Scale"].iter().any(|k| d.name.ends_with(k)))
}

/// What a shape rule wants of a file.
#[derive(Clone, Copy, Debug)]
pub enum Want {
    Absent,
    Exactly(usize),
    Present,
}

/// A structural rule: in every file `path` matches (`*` is one path
/// segment; a path ending in `/` is a directory), the lines that `pattern`
/// (tokens, `…` for any run of tokens on the same line) matches, counted
/// over the whole file (`true`) or outside its test modules, and why.
type Shape = (String, &'static str, Want, bool, &'static str);

const SHAPES: &[(&str, &str, Want, bool, &str)] = &[
    (
        "crates/lte/src/grid/mod.rs",
        "interference_mw … +=",
        Want::Exactly(1),
        false,
        "RadioMap::measure and measure_all are one kernel: the interference sum is accumulated once",
    ),
    ("crates/core/src/", "radio . measure (", Want::Absent, true, "the grid driver measures through measure_all only"),
    ("crates/core/src/", "dyn", Want::Absent, true, "the session holds its selector and rate law by value"),
    ("crates/core/src/lib.rs", "mod baselines", Want::Absent, true, "every scheme is an AdaptiveCompression setting"),
    ("crates/core/src/lib.rs", "mod predictive", Want::Absent, true, "every scheme is an AdaptiveCompression setting"),
    ("crates/core/src/lib.rs", "mod tiling", Want::Absent, true, "every scheme is an AdaptiveCompression setting"),
    (
        "crates/core/src/session.rs",
        "BTreeMap",
        Want::Absent,
        true,
        "the RTX history and frame store are seq-indexed rings, held to BTreeMap semantics by sender_oracles.rs",
    ),
    (
        "crates/lte/src/ue.rs",
        "VecDeque",
        Want::Absent,
        true,
        "a UE's BSR pipeline is an inline ring, held to the deque it replaced by bsr_ring_matches_the_deque_pipeline",
    ),
    ("crates/*/src/", "# [ inline ( always ) ]", Want::Absent, true, "inlining is a measured choice per helper"),
];

/// [`SHAPES`] and, for every file under `crates/*/src` and every file the
/// "Crate seams" section of DESIGN.md lists, whether it carries `#[inline]`.
fn shapes(tree: &Tree) -> Vec<Shape> {
    let mut rows: Vec<Shape> = SHAPES
        .iter()
        .map(|&(p, pat, want, whole, why)| (p.to_string(), pat, want, whole, why))
        .collect();
    let seams = seam_files(tree.design);
    let files = tree.rust.iter().filter(|s| s.in_crate_src()).map(|s| s.path.as_str());
    for path in files.chain(seams.iter().copied()).collect::<HashSet<_>>() {
        let row = if seams.contains(&path) {
            (Want::Present, "DESIGN.md lists it under \"Crate seams\"")
        } else {
            (Want::Absent, "only the files DESIGN.md lists under \"Crate seams\" carry #[inline]")
        };
        rows.push((path.to_string(), "# [ inline ]", row.0, true, row.1));
    }
    rows
}

/// The backquoted `crates/….rs` paths of DESIGN.md's "Crate seams" section.
fn seam_files(design: &'static str) -> Vec<&'static str> {
    let Some(start) = design.find("\n### Crate seams") else { return Vec::new() };
    let body = &design[start + 1..];
    let body = &body[..body[3..].find("\n##").map_or(body.len(), |k| k + 3)];
    let mut files: Vec<_> = body
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|p| p.starts_with("crates/") && p.ends_with(".rs"))
        .collect();
    files.sort();
    files.dedup();
    files
}

fn path_matches(pattern: &str, path: &str) -> bool {
    let (pat, dir) = match pattern.strip_suffix('/') {
        Some(p) => (p, true),
        None => (pattern, false),
    };
    let segs: Vec<_> = path.split('/').collect();
    let pats: Vec<_> = pat.split('/').collect();
    (if dir { segs.len() > pats.len() } else { segs.len() == pats.len() })
        && pats.iter().zip(&segs).all(|(p, s)| *p == "*" || p == s)
}

/// The lines of `toks` on which `pattern` matches.
fn matching_lines(toks: &[Tok], pattern: &str) -> usize {
    let pat: Vec<&str> = pattern.split_whitespace().collect();
    let mut lines = HashSet::new();
    for start in 0..toks.len() {
        let line = toks[start].line;
        let (mut k, mut ok) = (start, true);
        for (n, p) in pat.iter().enumerate() {
            if *p == "…" {
                let next = pat[n + 1];
                match (k..toks.len())
                    .take_while(|&j| toks[j].line == line)
                    .find(|&j| toks[j].is(next))
                {
                    Some(j) => k = j,
                    None => ok = false,
                }
            } else if toks.get(k).is_some_and(|t| t.is(p)) {
                k += 1;
            } else {
                ok = false;
            }
            if !ok {
                break;
            }
        }
        if ok {
            lines.insert(line);
        }
    }
    lines.len()
}

pub fn shape_violations(tree: &Tree) -> Vec<String> {
    let mut found = Vec::new();
    if seam_files(tree.design).is_empty() {
        found.push("DESIGN.md lists no \"Crate seams\" files".to_string());
    }
    for (path, pattern, want, whole, reason) in shapes(tree) {
        let files: Vec<&Source> =
            tree.rust.iter().filter(|s| path_matches(&path, &s.path)).collect();
        if files.is_empty() && !matches!(want, Want::Absent) {
            found.push(format!("{path}: no such file ({reason})"));
        }
        for s in files {
            let toks = if whole { scan::lex(s.raw) } else { s.scan.toks.clone() };
            let n = matching_lines(&toks, pattern);
            let ok = match want {
                Want::Absent => n == 0,
                Want::Exactly(k) => n == k,
                Want::Present => n > 0,
            };
            if !ok {
                found.push(format!(
                    "{}: `{pattern}` on {n} lines, want {want:?} ({reason})",
                    s.path
                ));
            }
        }
    }
    found
}

/// The section numbers DESIGN.md defines: each heading's leading number
/// (`## 5b.` is `5b`, `### 2.1` is `2.1`) and each numbered item directly
/// under a `##` section (item 2 of `## 5b.` is `5b.2`).
fn design_sections(design: &str) -> HashSet<String> {
    let mut out = HashSet::new();
    let mut section = None;
    for line in design.lines() {
        if let Some(title) = line.strip_prefix('#') {
            let level = 1 + title.chars().take_while(|&c| c == '#').count();
            let num = title
                .trim_start_matches('#')
                .split_whitespace()
                .next()
                .unwrap_or("")
                .trim_end_matches('.');
            let is_num = num.starts_with(|c: char| c.is_ascii_digit());
            if is_num {
                out.insert(num.to_string());
            }
            if level == 2 {
                section = is_num.then(|| num.to_string());
            }
        } else if let (Some(sec), Some((n, _))) = (&section, line.split_once(". ")) {
            if !n.is_empty() && n.chars().all(|c| c.is_ascii_digit()) {
                out.insert(format!("{sec}.{n}"));
            }
        }
    }
    out
}

/// Every section number cited after `DESIGN.md` (or `DESIGN`) and a `§` in
/// a Rust file of the tree, in `ci.sh` or in a Markdown document beside
/// DESIGN.md names a section DESIGN.md has.
pub fn dangling_design_refs(tree: &Tree) -> Vec<String> {
    let sections = design_sections(tree.design);
    let rust = tree.rust.iter().map(|s| (s.path.as_str(), s.raw));
    let docs = tree.docs.iter().map(|(path, text)| (path.as_str(), *text));
    let texts = rust.chain([("ci.sh", tree.ci)]).chain(docs);
    let mut found = Vec::new();
    for (path, text) in texts {
        for (n, line) in text.lines().enumerate() {
            let mut rest = line;
            while let Some(at) = rest.find("DESIGN") {
                rest = &rest[at + "DESIGN".len()..];
                let tail = rest.strip_prefix(".md").unwrap_or(rest);
                let tail = tail.strip_prefix("'s").unwrap_or(tail).trim_start();
                let Some(id) = tail.strip_prefix('§') else { continue };
                let id: String = id
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '.')
                    .collect();
                let id = id.trim_end_matches('.');
                if !sections.contains(id) {
                    found.push(format!("{path}:{}: no section {id} in DESIGN.md", n + 1));
                }
            }
        }
    }
    found
}

/// The code spans of a Markdown document outside its fenced blocks, each
/// with the line it opens on. A span opened by a run of `n` backquotes
/// closes at the next run of exactly `n`; a run with no partner is text.
fn code_spans(doc: &str) -> Vec<(usize, &str)> {
    let mut b = Vec::with_capacity(doc.len());
    let mut fenced = false;
    for line in doc.split_inclusive('\n') {
        let fence = line.trim_start().starts_with("```");
        fenced ^= fence;
        // A fenced or fence line is blanked byte for byte, so line numbers
        // and offsets into `doc` hold.
        let blank = fenced || fence;
        b.extend(line.bytes().map(|c| if blank && c != b'\n' { b' ' } else { c }));
    }
    let run_at = |i: usize| b[i..].iter().take_while(|&&c| c == b'`').count();
    let mut spans = Vec::new();
    let (mut i, mut line) = (0, 1);
    while i < b.len() {
        if b[i] != b'`' {
            line += (b[i] == b'\n') as usize;
            i += 1;
            continue;
        }
        let n = run_at(i);
        let mut j = i + n;
        let close = loop {
            match b[j..].iter().position(|&c| c == b'`') {
                Some(k) if run_at(j + k) == n => break Some(j + k),
                Some(k) => j += k + run_at(j + k),
                None => break None,
            }
        };
        match close {
            Some(end) => {
                spans.push((line, &doc[i + n..end]));
                line += b[i..end].iter().filter(|&&c| c == b'\n').count();
                i = end + n;
            }
            None => i += n,
        }
    }
    spans
}

/// `a{b,c}d` as `abd` and `acd`.
fn expand_braces(pattern: &str) -> Vec<String> {
    match (pattern.find('{'), pattern.find('}')) {
        (Some(open), Some(close)) if open < close => pattern[open + 1..close]
            .split(',')
            .flat_map(|alt| {
                expand_braces(&format!(
                    "{}{}{}",
                    &pattern[..open],
                    alt.trim(),
                    &pattern[close + 1..]
                ))
            })
            .collect(),
        _ => vec![pattern.to_string()],
    }
}

/// The members each `impl`, `trait`, `struct` and `enum` of `toks` gives
/// its type, as `(type, member)`: the fns, consts and types of an `impl`
/// or `trait` body, a struct's named fields, an enum's variants.
fn members(toks: &[Tok]) -> Vec<(&'static str, &'static str)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(kw) = ["impl", "trait", "struct", "enum"].into_iter().find(|kw| t.is(kw)) else {
            continue;
        };
        // The header runs to the body; a `;` first means there is none.
        let open = toks[i + 1..].iter().position(|t| t.is("{") || t.is(";")).map(|k| i + 1 + k);
        let Some(open) = open.filter(|&o| toks[o].is("{")) else { continue };
        let header = &toks[i + 1..open];
        let ty = match kw {
            "impl" => impl_self_type(header),
            _ => header.first().filter(|t| t.kind == Kind::Ident).map(|t| t.text),
        };
        let (Some(ty), Some(close)) = (ty, scan::close_of(toks, open)) else { continue };
        let body = &toks[open + 1..close];
        let mut depth = 0;
        for (k, t) in body.iter().enumerate() {
            let prev = k.checked_sub(1).map(|p| body[p]);
            let member = depth == 0
                && t.kind == Kind::Ident
                && match kw {
                    "struct" => body.get(k + 1).is_some_and(|n| n.is(":")),
                    "enum" => prev.is_none_or(|p| p.is(",") || p.is("]")),
                    _ => prev.is_some_and(|p| p.is("fn") || p.is("const") || p.is("type")),
                };
            if member {
                out.push((ty, t.text));
            }
            if t.kind == Kind::Punct {
                depth += ["(", "[", "{"].contains(&t.text) as i32;
                depth -= [")", "]", "}"].contains(&t.text) as i32;
            }
        }
    }
    out
}

/// The self type an `impl` header names: the last name outside generics,
/// after `for` if there is one, before any `where`.
fn impl_self_type(header: &[Tok]) -> Option<&'static str> {
    let from = header.iter().position(|t| t.is("for")).map_or(0, |k| k + 1);
    let (mut depth, mut ty) = (0, None);
    for t in &header[from..] {
        match t.text {
            "<" => depth += 1,
            ">" => depth -= 1,
            "where" if depth == 0 => break,
            _ if depth == 0 && t.kind == Kind::Ident => ty = Some(t.text),
            _ => {}
        }
    }
    ty
}

/// A path's segments, each also without its extension.
fn path_names(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').flat_map(|seg| [seg, seg.split('.').next().unwrap_or(seg)])
}

/// What a word of a code span follows: nothing that qualifies it, a
/// word, or a `.rs` path and the sources it matches.
enum Last<'a> {
    None,
    Word(&'a str),
    Path(&'a str, Vec<usize>),
}

/// The names DESIGN.md and EXPERIMENTS.md cite in code spans outside
/// fenced blocks: each `.rs` path (`{a,b}` expanded, `*` a whole segment,
/// matched against the tail of a file's path), each segment of a
/// `Type::item` or `path::fn` chain (`a::{b, c}` included) and each
/// snake_case name of three or more words. A path must be a file of the
/// tree. A name must be an identifier of a Rust source or a word inside
/// one of its string literals (comments do not count), a word of `ci.sh`
/// outside its comments, or a file's name, stem or directory. A segment
/// after `Q::`, when the tree defines `Q`, must moreover be a member of
/// `Q` for a type or trait (a fn, const or type of its `impl` or `trait`
/// blocks, a field, a variant), and a name of a file of `Q` (under it, or
/// declaring `mod Q`) for a module, crate or `.rs` path. A `Q` the tree
/// does not define (`Vec`, `str`) leaves its segment to the first test.
/// The sweeps' own files do not count: their fixtures cite stale names.
pub fn stale_doc_names(tree: &Tree) -> Vec<String> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    // Each source's tokens, test modules included, and the names in them.
    let sources: Vec<(&str, Vec<Tok>, HashSet<&str>)> = tree
        .rust
        .iter()
        .filter(|s| !s.path.starts_with("tests/tree_sweeps/"))
        .map(|s| {
            let toks = scan::lex(s.raw);
            let names = toks
                .iter()
                .filter(|t| matches!(t.kind, Kind::Ident | Kind::Str))
                .flat_map(|t| t.text.split(|c: char| !ident(c)))
                .collect();
            (s.path.as_str(), toks, names)
        })
        .collect();
    let mut words: HashSet<&str> = sources.iter().flat_map(|s| s.2.iter().copied()).collect();
    for line in tree.ci.lines().filter(|l| !l.trim_start().starts_with('#')) {
        let code = line.split(" #").next().unwrap_or(line);
        words.extend(code.split(|c: char| !ident(c)));
    }
    words.extend(tree.files.iter().flat_map(|f| path_names(f)));
    let matches = |pattern: &str, file: &str| {
        let depth = pattern.split('/').count();
        let segs: Vec<_> = file.split('/').collect();
        segs.len() >= depth
            && expand_braces(pattern)
                .iter()
                .any(|pat| path_matches(pat, &segs[segs.len() - depth..].join("/")))
    };
    // The sources that define each name: its types and traits (declared or
    // implemented there), its modules (path names and `mod` items).
    let mut defined: HashMap<&str, Vec<usize>> = HashMap::new();
    for (k, (path, toks, _)) in sources.iter().enumerate() {
        let mut names: HashSet<&str> = path_names(path).collect();
        for (i, w) in toks.windows(2).enumerate() {
            let item =
                ["struct", "enum", "trait", "type", "union", "mod"].iter().any(|kw| w[0].is(kw));
            if item && w[1].kind == Kind::Ident {
                names.insert(w[1].text);
            }
            if w[0].is("impl") {
                let header = toks[i + 1..].iter().take_while(|t| !t.is("{") && !t.is(";"));
                names.extend(
                    header
                        .filter(|t| t.kind == Kind::Ident && t.text.starts_with(char::is_uppercase))
                        .map(|t| t.text),
                );
            }
        }
        for name in names {
            defined.entry(name).or_default().push(k);
        }
    }
    let owners = |q: &str| defined.get(q.strip_prefix("poi360_").unwrap_or(q)).cloned();
    let mut items: HashMap<&str, HashSet<&str>> = HashMap::new();
    for (ty, member) in sources.iter().flat_map(|(_, toks, _)| members(toks)) {
        items.entry(ty).or_default().insert(member);
    }
    let has = |k: usize, name: &str| {
        sources[k].2.contains(name) || path_names(sources[k].0).any(|n| n == name)
    };
    let snake = |w: &str| {
        let parts: Vec<_> = w.split('_').collect();
        parts.len() >= 3
            && w.starts_with(|c: char| c.is_ascii_lowercase())
            && parts.iter().all(|p| {
                !p.is_empty() && p.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
            })
    };
    let mut found = Vec::new();
    let experiments = tree.docs.iter().find(|(path, _)| path == "EXPERIMENTS.md");
    let experiments = experiments.map_or("", |&(_, text)| text);
    for (doc, text) in [("DESIGN.md", tree.design), ("EXPERIMENTS.md", experiments)] {
        for (line, span) in code_spans(text) {
            let mut flag = |what: String| found.push(format!("{doc}:{line}: {what}"));
            // Each `.rs` path becomes a `\0` in `rest`, its sources kept in order.
            let mut rest = span.to_string();
            let mut paths = Vec::new();
            for tok in span.split_whitespace() {
                let ends = tok.match_indices(".rs").map(|(k, _)| k + 3);
                let Some(end) = ends.clone().find(|&e| !tok[e..].starts_with(ident)) else {
                    continue;
                };
                let path = tok[..end].trim_start_matches(|c: char| !ident(c) && c != '{');
                if !tree.files.iter().any(|f| matches(path, f)) {
                    flag(format!("`{path}` is no file of the tree"));
                }
                paths.push((path, (0..sources.len()).filter(|&k| matches(path, sources[k].0))));
                rest = rest.replacen(path, "\0", 1);
            }
            let mut paths = paths.into_iter().map(|(p, ks)| (p, ks.collect::<Vec<_>>()));
            // The qualifier of the next word, and of every word of a
            // `{…}` group: its text and the sources that define it.
            let mut qual: Option<(&str, Option<Vec<usize>>)> = None;
            let mut group = None;
            let mut last = Last::None;
            let mut tail = rest.as_str();
            while let Some(c) = tail.chars().next() {
                let len = tail.find(|c: char| !ident(c)).unwrap_or(tail.len());
                if len > 0 {
                    let word = &tail[..len];
                    tail = &tail[len..];
                    let next_sep = tail.trim_start().starts_with("::");
                    let q = qual.take();
                    let cited = q.is_some() || next_sep || snake(word);
                    if cited && !word.starts_with(|c: char| c.is_ascii_digit()) {
                        match q {
                            Some((name, Some(files))) => {
                                let known = match items.get(name) {
                                    Some(set) if name.starts_with(char::is_uppercase) => {
                                        set.contains(word)
                                    }
                                    _ => files.iter().any(|&k| has(k, word)),
                                };
                                if !known {
                                    flag(format!("`{name}::{word}` names nothing in the tree"));
                                }
                            }
                            _ if !words.contains(word) => {
                                flag(format!("`{word}` names nothing in the tree"));
                            }
                            _ => {}
                        }
                    }
                    last = Last::Word(word);
                    continue;
                }
                if let Some(after) = tail.strip_prefix("::") {
                    let q = match std::mem::replace(&mut last, Last::None) {
                        Last::Word(w) => (w, owners(w)),
                        Last::Path(p, files) => (p, (!files.is_empty()).then_some(files)),
                        Last::None => ("", None),
                    };
                    tail = after.trim_start();
                    if let Some(inner) = tail.strip_prefix('{') {
                        group = Some(q.clone());
                        tail = inner;
                    }
                    qual = Some(q);
                    continue;
                }
                match c {
                    '\0' => last = paths.next().map_or(Last::None, |(p, ks)| Last::Path(p, ks)),
                    ',' if group.is_some() => qual = group.clone(),
                    '}' => group = None,
                    _ => {}
                }
                if !c.is_whitespace() && c != '\0' {
                    last = Last::None;
                    if c != ',' {
                        qual = None;
                    }
                }
                tail = &tail[c.len_utf8()..];
            }
        }
    }
    found
}

/// The panic sites of the library crates' non-test code (`crates/*/src`,
/// testkit excepted, and `src`) against `list`.
pub fn unlisted_panic_sites(tree: &Tree, list: &'static str) -> Vec<String> {
    let mut sites: HashMap<(&str, &str, &str), usize> = HashMap::new();
    for s in tree.product().filter(|s| !s.path.starts_with("benchmark/")) {
        let toks = &s.scan.toks;
        for (j, t) in toks.iter().enumerate() {
            let at = |k: usize, text: &str| toks.get(k).is_some_and(|t| t.is(text));
            let kind = match t.text {
                "unwrap" if j > 0 && at(j - 1, ".") && at(j + 1, "(") && at(j + 2, ")") => "unwrap",
                "expect"
                    if j > 0
                        && at(j - 1, ".")
                        && at(j + 1, "(")
                        && toks.get(j + 2).is_some_and(|t| t.kind == Kind::Str) =>
                {
                    "expect"
                }
                "panic" | "unreachable" if at(j + 1, "!") => t.text,
                _ => continue,
            };
            let func = s.scan.fn_at[j].map_or("-", |f| s.scan.fns[f].name);
            *sites.entry((s.path.as_str(), func, kind)).or_default() += 1;
        }
    }
    let mut listed: HashMap<(&str, &str, &str), usize> = HashMap::new();
    let mut found = Vec::new();
    for row in list.lines().filter(|r| !r.trim().is_empty()) {
        let w: Vec<_> = row.split_whitespace().collect();
        match w[..] {
            [path, func, kind, "invariant" | "input", _, ..] => {
                *listed.entry((path, func, kind)).or_default() += 1
            }
            _ => found.push(format!(
                "malformed entry (want `path fn kind invariant|input reason`): {row}"
            )),
        }
    }
    let mut keys: Vec<_> =
        sites.keys().chain(listed.keys()).copied().collect::<HashSet<_>>().into_iter().collect();
    keys.sort();
    for key @ (path, func, kind) in keys {
        let (have, want) =
            (sites.get(&key).copied().unwrap_or(0), listed.get(&key).copied().unwrap_or(0));
        if have > want {
            found.push(format!("{path} {func} {kind}: {} unlisted site(s)", have - want));
        } else if want > have {
            found.push(format!("{path} {func} {kind}: {} listed site(s) gone", want - have));
        }
    }
    found
}

// ---------------------------------------------------------------------------
// The sweeps over this tree
// ---------------------------------------------------------------------------

fn assert_clean(what: &str, found: Vec<String>) {
    assert!(found.is_empty(), "{what}:\n  {}", found.join("\n  "));
}

#[test]
fn manifests_name_only_in_repo_path_crates() {
    assert_clean("non-hermetic dependency entries", hermetic(tree()));
}

#[test]
fn every_public_function_has_a_non_test_caller() {
    assert_clean("public functions no non-test code calls", dead_fns(tree(), ALLOWED));
}

#[test]
fn every_public_field_has_a_non_test_reader() {
    assert_clean("public fields no non-test code reads", unread_fields(tree(), UNREAD_OK));
}

#[test]
fn every_public_module_is_named_outside_its_crate_root() {
    assert_clean("public modules no code outside their crate root names", unreachable_mods(tree()));
}

#[test]
fn every_config_field_has_two_values_in_use() {
    assert_clean(
        "config fields nothing but their Default sets (make each a const)",
        single_valued_config(tree(), FIXED),
    );
}

#[test]
fn the_tree_keeps_its_shapes() {
    assert_clean("structural rules broken", shape_violations(tree()));
}

#[test]
fn design_references_resolve() {
    assert_clean("DESIGN.md references to missing sections", dangling_design_refs(tree()));
}

#[test]
fn documented_names_exist() {
    assert_clean(
        "names DESIGN.md or EXPERIMENTS.md cite that the tree lacks",
        stale_doc_names(tree()),
    );
}

#[test]
fn the_walk_skips_hidden_and_ignored_entries() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tree_sweeps_walk");
    let _ = std::fs::remove_dir_all(&root);
    let files = [
        (".gitignore", "/out\n/results/*.json\n"),
        (".hidden/a.rs", ""),
        ("gen/kept.rs", ""),
        ("out/a.rs", ""),
        ("results/a.json", ""),
        ("results/a.txt", ""),
        ("sub/.gitignore", "# generated\n/gen/\n*.log\n"),
        ("sub/deep/run.log", ""),
        ("sub/gen/a.rs", ""),
        ("sub/kept.rs", ""),
        ("target/a.rs", ""),
    ];
    for (rel, text) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("a parent")).expect("create a directory");
        std::fs::write(path, text).expect("write a file");
    }
    let mut found = Vec::new();
    walk(&root, Path::new(""), &mut Vec::new(), &mut |rel| found.push(rel.to_string()));
    assert_eq!(found, ["gen/kept.rs", "results/a.txt", "sub/kept.rs"]);
}

#[test]
fn every_panic_site_is_classified() {
    assert_clean("panic sites against the list", unlisted_panic_sites(tree(), PANIC_SITES));
}
