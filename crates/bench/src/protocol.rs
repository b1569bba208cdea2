//! The one experiment protocol behind `reproduce faults / mobility /
//! study / arena`: run seeded, traced cases over a matrix, capture what
//! the modem and the player saw, judge, tabulate.
//!
//! A [`Case`] is plain data describing one traced run. [`run_traced`] is
//! the only place a traced case meets the worker pool: every case runs
//! in its own worker against its own stamped in-memory sink
//! ([`poi360_sim::trace::capture`]) and the results come back in input
//! order. Trace records carry no cross-case state (no global sequence
//! numbers, no shared clocks), so concatenating the per-case bytes in
//! case order gives an artifact that is byte-identical at any
//! `POI360_THREADS` width — the property every harness asserts and
//! `ci.sh` `cmp`-gates. The harness modules are case-list builders,
//! judges and reducers around this function; each ends in a
//! [`Protocol`], the one result type the CLI writes.

use crate::faults::{self, FaultOutcome};
use crate::mobility::{self, MobilityScale};
use poi360_core::config::{CompressionScheme, RateControlKind};
use poi360_core::multicell::{
    MultiCell, MultiCellConfig, MultiCellReport, MultiGrid, MultiGridReport,
};
use poi360_lte::scenario::{FaultScenario, MobilityScenario};
use poi360_sim::trace::{self, RunMeta};
use poi360_sim::Recorder;

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
    /// A hex-grid mobility run of one preset at one scale.
    Grid { ms: MobilityScenario, scale: MobilityScale, seed: u64 },
    /// A shared-cell ensemble.
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
}

/// What a finished [`Case`] hands back, variant for variant.
#[derive(Debug)]
pub enum Outcome {
    /// The judged fault run (the out-of-order probe count it is judged
    /// on lives in the recorder, so judging happens with the run).
    Fault(FaultOutcome),
    /// The grid report; `mobility::judge` reads everything from it.
    Grid(MultiGridReport),
    /// The ensemble report.
    Ensemble(MultiCellReport),
}

/// Run every case across the worker pool; `(outcome, JSONL bytes)` per
/// case, in input order. The bytes lead with the case's [`RunMeta`]
/// stamp.
pub fn run_traced(cases: Vec<Case>) -> Vec<(Outcome, Vec<u8>)> {
    crate::runner::run_jobs(cases, |case| {
        trace::capture(Some(&RunMeta::current(case.seed())), |sink| match case {
            Case::Fault { src, fs, scheme, rc, seconds, seed } => {
                let recorder = Recorder::to_sink(sink.clone(), &src);
                let (_, verdict) = faults::run_case(&fs, scheme, rc, seconds, seed, recorder);
                Outcome::Fault(FaultOutcome { scenario: fs.name, rc, verdict })
            }
            Case::Grid { ms, scale, seed } => {
                let cfg = mobility::grid_config(&ms, &scale, seed);
                Outcome::Grid(MultiGrid::traced(cfg, sink.clone()).run())
            }
            Case::Ensemble(cfg) => Outcome::Ensemble(MultiCell::traced(cfg, sink.clone()).run()),
        })
    })
}

/// [`run_traced`] with the per-case streams also concatenated, in case
/// order, into the suite's JSONL artifact.
pub fn run_concat(cases: Vec<Case>) -> (Vec<Outcome>, Vec<u8>) {
    let mut jsonl = Vec::new();
    let outcomes = run_traced(cases)
        .into_iter()
        .map(|(outcome, bytes)| {
            jsonl.extend_from_slice(&bytes);
            outcome
        })
        .collect();
    (outcomes, jsonl)
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

impl Protocol {
    /// Append `"<label>: <ok>"`, or `"<label>: FAIL: <fail>"` plus one
    /// failure — the shape of every yes/no line the protocols render.
    pub fn check(&mut self, label: &str, held: bool, ok: &str, fail: &str) {
        if held {
            self.text.push_str(&format!("{label}: {ok}\n"));
        } else {
            self.text.push_str(&format!("{label}: FAIL: {fail}\n"));
            self.failures += 1;
        }
    }
}
