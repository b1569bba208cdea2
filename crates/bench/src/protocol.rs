//! The one experiment protocol behind `reproduce study`: run seeded,
//! traced cases over a matrix, capture what the modem and the player
//! saw, judge, tabulate.
//!
//! A [`Case`] is plain data describing one traced run. [`run_traced`] is
//! the only place a traced case meets the worker pool, in two fan-outs.
//! The first steps each [`FaultGroup`]'s shared pre-fault run once: fault
//! cases with equal session configurations run the same subframes up to
//! their earliest fault window, because a plan does nothing before its
//! first window (DESIGN.md §9), and formats the prefix's records once,
//! for any source tag ([`TracePrefix`]). The second runs every case, in
//! input order, against its own stamped in-memory sink
//! ([`poi360_sim::trace::capture`]): a fault case continues from a copy
//! of its group's [`Prefix`], whose lines are spliced into its stream with
//! its own `src` written in; grid and ensemble cases run whole. Trace
//! records carry no
//! cross-case state (no global sequence numbers, no shared clocks), so
//! concatenating the per-case bytes in case order gives an artifact that
//! is byte-identical at any `POI360_THREADS` width — the property `ci.sh`
//! `cmp`-gates. `bench::study` builds the case lists and reduces the
//! outcomes, the family modules (`faults`, `mobility`) are its judges,
//! and each run ends in a [`Protocol`], the one result type the CLI
//! writes.

use crate::faults::{self, FaultVerdict};
use crate::mobility;
use poi360_core::config::{CompressionScheme, RateControlKind, SessionConfig};
use poi360_core::multicell::{
    MultiCell, MultiCellConfig, MultiCellReport, MultiGrid, MultiGridReport,
};
use poi360_core::report::SessionReport;
use poi360_core::session::Session;
use poi360_lte::scenario::{FaultScenario, MobilityScenario};
use poi360_sim::fault::FaultPlan;
use poi360_sim::time::SimTime;
use poi360_sim::trace::{self, JsonlSink, RunMeta, TracePrefix};
use poi360_sim::{Recorder, SUBFRAME};
use std::sync::{Arc, Mutex};

/// One traced run, as plain (`Send`) data; the simulation objects are
/// built inside the worker that runs it.
#[derive(Debug)]
pub enum Case {
    /// A standalone session on a fault preset's cell, under the preset's
    /// plan time-scaled to `seconds`. `src` tags its probe records.
    Fault {
        src: String,
        fs: FaultScenario,
        scheme: CompressionScheme,
        rc: RateControlKind,
        seconds: u64,
        seed: u64,
    },
    /// A hex-grid mobility run of one preset, `seconds` long, on the CI
    /// lattice when `smoke` (`mobility::grid_config`).
    Grid { ms: MobilityScenario, smoke: bool, seconds: u64, seed: u64 },
    /// A shared-cell ensemble (a study's `shared` scenario).
    Ensemble(MultiCellConfig),
}

impl Case {
    /// The seed the case runs at (and its sink is stamped with).
    pub fn seed(&self) -> u64 {
        match self {
            Case::Fault { seed, .. } | Case::Grid { seed, .. } => *seed,
            Case::Ensemble(cfg) => cfg.seed,
        }
    }

    /// A fault case's session configuration and scaled plan.
    fn fault_session(&self) -> Option<(SessionConfig, FaultPlan)> {
        let Case::Fault { fs, scheme, rc, seconds, seed, .. } = self else { return None };
        let cfg =
            SessionConfig { scheme: *scheme, ..faults::session_config(fs, *rc, *seconds, *seed) };
        Some((cfg, faults::scaled_plan(fs, *seconds)))
    }
}

/// The fault cases of one case list that run one session configuration:
/// [`run_traced`] steps the subframes they share once and continues every
/// member from a copy of that session.
#[derive(Debug)]
pub struct FaultGroup {
    /// The session configuration every member runs.
    pub cfg: SessionConfig,
    /// Where the shared prefix ends: the earliest first-window start among
    /// the members' scaled plans, or the end of the run when every plan is
    /// empty. The prefix steps every subframe that begins before it.
    pub branch_at: SimTime,
    /// The members' positions in the case list, ascending.
    pub members: Vec<usize>,
}

/// Group the fault cases of `cases` by equal session configuration, in
/// order of first appearance: the grouping [`run_traced`] runs.
pub fn fault_groups(cases: &[Case]) -> Vec<FaultGroup> {
    let mut groups: Vec<FaultGroup> = Vec::new();
    for (k, case) in cases.iter().enumerate() {
        let Some((cfg, plan)) = case.fault_session() else { continue };
        let end = SimTime::ZERO + cfg.duration;
        // Windows are sorted by start.
        let onset = plan.events().first().map_or(end, |e| e.start.min(end));
        match groups.iter_mut().find(|g| g.cfg == cfg) {
            Some(g) => {
                g.branch_at = g.branch_at.min(onset);
                g.members.push(k);
            }
            None => groups.push(FaultGroup { cfg, branch_at: onset, members: vec![k] }),
        }
    }
    groups
}

/// Session subframes [`run_traced`] steps for the fault cases of `cases`:
/// each group's prefix once, plus every member from its group's branch
/// point to the end of the run.
pub fn fault_subframes(cases: &[Case]) -> u64 {
    let subframes_before = |t: SimTime| t.as_micros().div_ceil(SUBFRAME.as_micros());
    fault_groups(cases)
        .iter()
        .map(|g| {
            let prefix = subframes_before(g.branch_at);
            let run = subframes_before(SimTime::ZERO + g.cfg.duration);
            prefix + g.members.len() as u64 * (run - prefix)
        })
        .sum()
}

/// A [`FaultGroup`]'s pre-fault run, stepped once: the session as it
/// stands at the branch point, the recorder it reported through, and the
/// lines of the records it emitted, formatted once.
pub struct Prefix {
    session: Session,
    recorder: Recorder,
    lines: TracePrefix,
}

impl Prefix {
    /// Step a fresh session of the group's configuration, with no plan,
    /// through every subframe that begins before the branch point,
    /// formatting its records as they come.
    pub fn run(group: &FaultGroup) -> Prefix {
        let formatted = Arc::new(Mutex::new(TracePrefix::default()));
        // The lines leave the source tag out; each member's splice writes
        // its own.
        let recorder = Recorder::to_sink(formatted.clone(), "prefix");
        let mut session = Session::traced(group.cfg, recorder.clone());
        while session.now() < group.branch_at {
            session.step();
        }
        let mut lines = std::mem::take(&mut *trace::lock(&formatted));
        lines.shrink_to_fit();
        Prefix { session, recorder, lines }
    }

    /// Records the prefix formatted: once for its group, however many
    /// members it opens.
    pub fn records(&self) -> u64 {
        self.lines.records()
    }

    /// Continue one member from a copy of the prefix: splice the prefix's
    /// lines into `sink`, a freshly stamped one, as `src`'s, attach `plan`
    /// to the copy before the first subframe any window covers, and run it
    /// to the end. Returns the report and the out-of-order gauge count it
    /// is judged on — what a fresh `Session::faulted_traced` run with the
    /// same plan, recorder `src` and sink gives, byte for byte.
    pub fn continue_case(
        &self,
        plan: &FaultPlan,
        sink: &Arc<Mutex<JsonlSink<Vec<u8>>>>,
        src: &str,
    ) -> (SessionReport, u64) {
        if let Err(why) = trace::lock(sink).splice(&self.lines, src) {
            panic!("a case continues in a freshly stamped sink, but {why}");
        }
        let recorder = self.recorder.fork(sink.clone(), src);
        let mut session = self.session.branch(recorder.clone());
        session.set_fault_plan(plan);
        let report = session.run();
        (report, recorder.out_of_order_drops())
    }
}

/// What a finished [`Case`] hands back, variant for variant.
#[derive(Debug)]
pub enum Outcome {
    /// The fault run's verdicts (the out-of-order probe count it is
    /// judged on lives in the recorder, so judging happens with the run).
    Fault(FaultVerdict),
    /// The grid report; `mobility::judge` reads everything from it.
    Grid(MultiGridReport),
    /// The ensemble report.
    Ensemble(MultiCellReport),
}

/// Run every case across the worker pool; `(outcome, JSONL bytes)` per
/// case, in input order. The bytes lead with the case's [`RunMeta`]
/// stamp. Two fan-outs: every [`FaultGroup`]'s [`Prefix`], then every
/// case, a fault case continuing from its group's prefix.
pub fn run_traced(cases: Vec<Case>) -> Vec<(Outcome, Vec<u8>)> {
    let groups = fault_groups(&cases);
    let prefixes = crate::runner::run_jobs(groups.iter().collect(), Prefix::run);
    let mut prefix_of = vec![None; cases.len()];
    for (group, prefix) in groups.iter().zip(&prefixes) {
        for &k in &group.members {
            prefix_of[k] = Some(prefix);
        }
    }
    crate::runner::run_jobs(cases.into_iter().zip(prefix_of).collect(), |(case, prefix)| {
        trace::capture(Some(&RunMeta::current(case.seed())), |sink| match case {
            Case::Fault { src, fs, seconds, .. } => {
                let prefix = prefix.expect("fault_groups places every fault case");
                let plan = faults::scaled_plan(&fs, seconds);
                let (report, drops) = prefix.continue_case(&plan, sink, &src);
                Outcome::Fault(faults::judge(&report, &plan, seconds, drops))
            }
            Case::Grid { ms, smoke, seconds, seed } => {
                let cfg = mobility::grid_config(&ms, smoke, seconds, seed);
                Outcome::Grid(MultiGrid::traced(cfg, sink.clone()).run())
            }
            Case::Ensemble(cfg) => Outcome::Ensemble(MultiCell::traced(cfg, sink.clone()).run()),
        })
    })
}

/// Everything one `reproduce` subcommand produces, minus file IO.
#[derive(Debug, Default)]
pub struct Protocol {
    /// Artifact file stem: `<stem>.txt`, `<stem>.jsonl`, `<stem><suffix>`.
    pub stem: String,
    /// The rendered report — exactly the `.txt` artifact, and what
    /// `tests/golden.rs` pins. It never names a path, a byte count or
    /// anything else that varies with the checkout or the command line.
    pub text: String,
    /// Violated invariants and gate failures; 0 = pass.
    pub failures: usize,
    /// The JSONL probe artifact (empty = none).
    pub jsonl: Vec<u8>,
    /// Further artifacts as `(file-name suffix after the stem, content)`.
    pub extra: Vec<(&'static str, Vec<u8>)>,
}
