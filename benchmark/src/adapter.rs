//! The only file that names `poi360_*` items: config builders, the five
//! workloads, and the bodies of the per-layer micro-drivers. A change that
//! removes or renames a simulator API corrects the benchmark here and
//! nowhere else (README.md lists every public function called).

use crate::harness::{RepOutput, Workload};
use crate::span::SpanCtx;
use crate::stats::Fnv1a;
use poi360_analyse::chrome::chrome_trace;
use poi360_analyse::ingest::RunTrace;
use poi360_analyse::report::{study_report, CaseTrace};
use poi360_analyse::study::{StudyCase, StudyConfig, StudyFamily};
use poi360_bench::runner::{run_jobs, session_seed, set_worker_threads};
use poi360_bench::study::{run_cases, ExecutedCase};
use poi360_core::config::{CompressionScheme, NetworkKind, RateControlKind, SessionConfig};
use poi360_core::multicell::{
    FlowSpec, MultiCell, MultiCellConfig, MultiCellReport, MultiGrid, MultiGridConfig,
    MultiGridReport,
};
use poi360_core::report::{Aggregate, SessionReport};
use poi360_core::session::Session;
use poi360_lte::grid::mobility::MobilityKind;
use poi360_lte::scenario::{FaultScenario, Scenario};
use poi360_sim::json::ToJson;
use poi360_sim::time::SimDuration;
use poi360_sim::trace::{JsonlSink, RunMeta, SinkHandle, TraceSink};
use poi360_viewport::motion::UserArchetype;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

pub use poi360_sim::json::{parse_json, JsonValue};
pub use poi360_sim::trace::git_commit;

/// Workload names, in run order. Final: later issues cite them.
pub const WORKLOADS: [&str; 5] =
    ["paper_grid", "cell_crowded", "grid_mobility", "trace_write", "trace_read"];

/// Steps per `step_batch` span of the serial workloads.
pub const STEP_BATCH: u32 = 100;

/// Full-length workloads, or the tenth-length ones of `--smoke`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    fn secs(self, full: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 10).max(1),
        }
    }
}

/// Pin the worker-pool width for the process: `min(nproc, 4)`, set once.
/// Fan-outs and grid shards never use more threads than this.
pub fn pin_width() -> usize {
    let width = nproc().min(4);
    set_worker_threads(width);
    width
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where the benchmark writes: `benchmark/out/`, next to this package's
/// manifest wherever the checkout lives.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Build the named workload from the seed. `trace_read` regenerates the
/// `trace_write` artifact here, untimed.
pub fn workload(name: &str, seed: u64, width: usize, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_grid" => Box::new(PaperGrid::new(seed, scale)),
        "cell_crowded" => Box::new(CellCrowded::new(seed, scale)),
        "grid_mobility" => Box::new(GridMobility::new(seed, width, scale)),
        "trace_write" => Box::new(TraceWrite::new(seed, width, scale)),
        "trace_read" => Box::new(TraceRead::new(seed, width, scale)),
        _ => return None,
    })
}

/// Fan `jobs` out through `run_jobs`, each under a `job[k]` span on its
/// worker, catching a panic per job: a failed job is `None` in its slot and
/// the rest of the fan-out still runs.
pub fn fan_out<I: Send, O: Send>(
    ctx: &SpanCtx<'_>,
    jobs: Vec<I>,
    f: impl Fn(I) -> O + Sync,
) -> Vec<Option<O>> {
    let indexed: Vec<(u32, I)> = (0u32..).zip(jobs).collect();
    run_jobs(indexed, |(k, job)| {
        ctx.scope("job", Some(k), |_| catch_unwind(AssertUnwindSafe(|| f(job))).ok())
    })
}

fn digest_json(hash: &mut Fnv1a, scratch: &mut String, value: &dyn ToJson) {
    scratch.clear();
    value.write_json(scratch);
    hash.update(scratch.as_bytes());
}

// ---------------------------------------------------------------------
// paper_grid
// ---------------------------------------------------------------------

/// The paper's §6 grid: every user archetype under each condition.
struct Condition {
    label: &'static str,
    scheme: CompressionScheme,
    rate_control: RateControlKind,
    wireline: bool,
}

const CONDITIONS: [Condition; 5] = [
    Condition {
        label: "POI360+FBCC",
        scheme: CompressionScheme::Poi360,
        rate_control: RateControlKind::Fbcc,
        wireline: false,
    },
    Condition {
        label: "POI360+GCC",
        scheme: CompressionScheme::Poi360,
        rate_control: RateControlKind::Gcc,
        wireline: false,
    },
    Condition {
        label: "Conduit+GCC",
        scheme: CompressionScheme::Conduit,
        rate_control: RateControlKind::Gcc,
        wireline: false,
    },
    Condition {
        label: "Pano+OCC",
        scheme: CompressionScheme::Pano,
        rate_control: RateControlKind::Occ,
        wireline: false,
    },
    Condition {
        label: "POI360+GCC wireline",
        scheme: CompressionScheme::Poi360,
        rate_control: RateControlKind::Gcc,
        wireline: true,
    },
];

const FBCC: usize = 0;
const GCC: usize = 1;

/// Simulated seconds per `paper_grid` session. The paper's run 300 s; half
/// that keeps a repetition near 1.5 s, and five of them inside a run.
const PAPER_SESSION_SECS: u64 = 150;

pub struct PaperGrid {
    /// `(condition index, config)` per session, condition-major.
    jobs: Vec<(usize, SessionConfig)>,
    sim_s: f64,
    /// Left by `timed` for `check`.
    product: Option<PaperProduct>,
}

/// What a `paper_grid` repetition leaves for its check: a report per session
/// (`None` where the job panicked), the pooled conditions, and their JSON.
struct PaperProduct {
    reports: Vec<Option<SessionReport>>,
    aggregates: Vec<Aggregate>,
    rendered: Vec<String>,
}

impl PaperGrid {
    fn new(seed: u64, scale: Scale) -> Self {
        let duration = SimDuration::from_secs(scale.secs(PAPER_SESSION_SECS));
        let mut jobs = Vec::new();
        for (c, cond) in CONDITIONS.iter().enumerate() {
            for (u, &user) in UserArchetype::all().iter().enumerate() {
                let network = if cond.wireline {
                    NetworkKind::Wireline
                } else {
                    NetworkKind::Cellular(Scenario::baseline())
                };
                jobs.push((
                    c,
                    SessionConfig {
                        scheme: cond.scheme,
                        rate_control: cond.rate_control,
                        network,
                        user,
                        duration,
                        seed: session_seed(seed, u, c as u64),
                        ..Default::default()
                    },
                ));
            }
        }
        let sim_s = jobs.len() as f64 * duration.as_secs_f64();
        PaperGrid { jobs, sim_s, product: None }
    }
}

impl Workload for PaperGrid {
    fn name(&self) -> &'static str {
        "paper_grid"
    }

    fn setup_once(&mut self) {
        for (_, cfg) in &self.jobs {
            let mut session = Session::new(*cfg);
            session.step();
            std::hint::black_box(session.now());
        }
    }

    fn timed(&mut self, ctx: &SpanCtx<'_>) {
        let configs: Vec<SessionConfig> =
            ctx.scope("setup", None, |_| self.jobs.iter().map(|(_, cfg)| *cfg).collect());
        let reports =
            ctx.scope("run", None, |run| fan_out(run, configs, |cfg| Session::new(cfg).run()));
        let (aggregates, rendered) = ctx.scope("aggregate", None, |_| {
            let mut aggregates: Vec<Aggregate> =
                CONDITIONS.iter().map(|c| Aggregate::new(c.label)).collect();
            for ((c, _), report) in self.jobs.iter().zip(&reports) {
                if let Some(report) = report {
                    aggregates[*c].add(report);
                }
            }
            let rendered = aggregates.iter().map(|a| a.to_json()).collect();
            (aggregates, rendered)
        });
        self.product = Some(PaperProduct { reports, aggregates, rendered });
    }

    fn check(&mut self, _: &SpanCtx<'_>) -> RepOutput {
        let PaperProduct { reports, aggregates, rendered } =
            self.product.take().expect("timed ran first");
        let mut hash = Fnv1a::default();
        let mut scratch = String::new();
        for json in &rendered {
            hash.update(json.as_bytes());
        }
        let mut ops_failed = 0;
        let (mut frames_sent, mut frames_delivered, mut received_bits) = (0u64, 0u64, 0.0);
        for report in &reports {
            match report {
                Some(report) => {
                    digest_json(&mut hash, &mut scratch, report);
                    frames_sent += report.frames_sent;
                    frames_delivered += report.frames_delivered;
                    // One throughput sample (bps) per simulated second.
                    received_bits += report.throughput.values().iter().sum::<f64>();
                }
                None => ops_failed += 1,
            }
        }
        // The paper's headline ordering (FBCC 1.6 % vs GCC 4.7 %) is reported,
        // not checked: it is a statistic, and pooled over five 150 s sessions
        // it inverts for about one seed in thirty (seed 10946: 3.36 % vs
        // 3.17 %), while the runner picks the seeds. `tests/paper_claims.rs`
        // pins it on the seeds it was calibrated on.
        let (fbcc, gcc) = (aggregates[FBCC].freeze_ratio(), aggregates[GCC].freeze_ratio());
        RepOutput {
            sim_s: self.sim_s,
            ops_attempted: reports.len() as u64,
            ops_failed,
            digest: hash.finish(),
            counts: vec![
                ("frames_sent", frames_sent as f64),
                ("frames_delivered", frames_delivered as f64),
                ("freeze_ratio.fbcc", fbcc),
                ("freeze_ratio.gcc", gcc),
                ("roi_psnr_db.poi360", aggregates[FBCC].mean_psnr_db()),
                // Diag epochs closed, and packets delivered as estimated from
                // the received bits: call counts for the attr.* estimates.
                (
                    "fw_epochs",
                    reports.iter().flatten().map(|r| r.fw_buffer.len()).sum::<usize>() as f64,
                ),
                ("packets_est", received_bits / 8.0 / 1_240.0),
                (
                    "cellular_share",
                    CONDITIONS.iter().filter(|c| !c.wireline).count() as f64
                        / CONDITIONS.len() as f64,
                ),
            ],
        }
    }
}

// ---------------------------------------------------------------------
// cell_crowded
// ---------------------------------------------------------------------

const CROWDED_SECS: u64 = 20;
const CROWDED_BACKGROUND_UES: usize = 496;

pub struct CellCrowded {
    cfg: MultiCellConfig,
    product: Option<Option<(MultiCellReport, String)>>,
}

impl CellCrowded {
    fn new(seed: u64, scale: Scale) -> Self {
        use RateControlKind::{Fbcc, Gcc, Occ};
        let cfg = MultiCellConfig {
            flows: [Fbcc, Fbcc, Gcc, Occ].map(FlowSpec::with_rate_control).to_vec(),
            background_ues: CROWDED_BACKGROUND_UES,
            duration: SimDuration::from_secs(scale.secs(CROWDED_SECS)),
            seed,
            ..Default::default()
        };
        CellCrowded { cfg, product: None }
    }
}

/// Step `$driver` to `$duration` in [`STEP_BATCH`]-step spans under `$run`.
/// A macro because `MultiCell` and `MultiGrid` share no stepping trait.
macro_rules! step_in_batches {
    ($run:expr, $driver:expr, $duration:expr) => {{
        let steps = $duration.as_millis() as u32;
        for batch in 0..steps.div_ceil(STEP_BATCH) {
            $run.scope("step_batch", Some(batch), |_| {
                for _ in batch * STEP_BATCH..((batch + 1) * STEP_BATCH).min(steps) {
                    $driver.step();
                }
            });
        }
    }};
}

impl Workload for CellCrowded {
    fn name(&self) -> &'static str {
        "cell_crowded"
    }

    fn setup_once(&mut self) {
        let mut cell = MultiCell::new(self.cfg.clone());
        cell.step();
        std::hint::black_box(cell.config().seed);
    }

    fn timed(&mut self, ctx: &SpanCtx<'_>) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut cell = ctx.scope("setup", None, |_| MultiCell::new(self.cfg.clone()));
            let report = ctx.scope("run", None, |run| {
                step_in_batches!(run, cell, self.cfg.duration);
                cell.run()
            });
            let json = ctx.scope("aggregate", None, |_| report.to_json());
            (report, json)
        }));
        self.product = Some(outcome.ok());
    }

    fn check(&mut self, _: &SpanCtx<'_>) -> RepOutput {
        let outcome = self.product.take().expect("timed ran first");
        let mut hash = Fnv1a::default();
        let mut counts = Vec::new();
        if let Some((report, json)) = &outcome {
            hash.update(json.as_bytes());
            counts = vec![
                ("prb_utilization", report.mean_utilization),
                ("jain", report.jain_throughput()),
                ("frames_sent", report.flows.iter().map(|f| f.frames_sent).sum::<u64>() as f64),
                ("flows", report.flows.len() as f64),
            ];
        }
        RepOutput {
            sim_s: self.cfg.duration.as_secs_f64(),
            ops_attempted: 1,
            ops_failed: u64::from(outcome.is_none()),
            digest: hash.finish(),
            counts,
        }
    }
}

// ---------------------------------------------------------------------
// grid_mobility
// ---------------------------------------------------------------------

/// Length of a `grid_mobility` run in tenths of a simulated second, so the
/// tenth-length smoke run is still a whole number of steps.
const GRID_TENTHS: u64 = 40;

/// The `grid_mobility` lattice: 61 cells, a 64-UE convoy crossing 160 m sites.
pub fn mobility_grid(seed: u64, shards: usize, duration: SimDuration) -> MultiGridConfig {
    MultiGridConfig {
        rings: 4,
        isd_m: 160.0,
        mobility: MobilityKind::Convoy,
        speed_mps: 30.0,
        flows: vec![FlowSpec::default(); 8],
        load_ues: 56,
        static_bg_per_cell: 12,
        duration,
        seed,
        shards,
        ..Default::default()
    }
}

/// Failed correctness checks of one grid report, each named on stderr.
fn grid_violations(workload: &str, report: &MultiGridReport) -> u64 {
    let mut broken = 0;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("{workload}: {what}");
            broken += 1;
        }
    };
    check(report.flow_stats.iter().all(|f| f.conserved()), "a flow lost or invented packets");
    check(report.flow_stats.iter().all(|f| f.seq_violations == 0), "video packets reordered");
    check(report.load_conservation_violations == 0, "a load UE lost or invented packets");
    check(report.probe_drops == 0, "out-of-order probe samples dropped");
    broken
}

fn grid_handovers(report: &MultiGridReport) -> u64 {
    report.flow_stats.iter().map(|f| f.handovers + f.rlfs).sum::<u64>()
        + report.load_handovers
        + report.load_rlfs
}

pub struct GridMobility {
    cfg: MultiGridConfig,
    scale: Scale,
    product: Option<Option<(MultiGridReport, String)>>,
}

impl GridMobility {
    fn new(seed: u64, width: usize, scale: Scale) -> Self {
        let duration = SimDuration::from_millis(scale.secs(GRID_TENTHS) * 100);
        GridMobility { cfg: mobility_grid(seed, width, duration), scale, product: None }
    }
}

impl Workload for GridMobility {
    fn name(&self) -> &'static str {
        "grid_mobility"
    }

    fn setup_once(&mut self) {
        // Built at width 1: the objects are the same, and the first step
        // does not wait for a parked pool worker to wake, which on a
        // two-vCPU guest takes anything from 0 to 0.5 ms of a 1.4 ms
        // sample depending on the host's mood, not on the code.
        let mut grid = MultiGrid::new(MultiGridConfig { shards: 1, ..self.cfg.clone() });
        grid.step();
        std::hint::black_box(grid.config().seed);
    }

    fn timed(&mut self, ctx: &SpanCtx<'_>) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut grid = ctx.scope("setup", None, |_| MultiGrid::new(self.cfg.clone()));
            let report = ctx.scope("run", None, |run| {
                step_in_batches!(run, grid, self.cfg.duration);
                grid.run()
            });
            let json = ctx.scope("aggregate", None, |_| report.to_json());
            (report, json)
        }));
        self.product = Some(outcome.ok());
    }

    fn check(&mut self, _: &SpanCtx<'_>) -> RepOutput {
        let outcome = self.product.take().expect("timed ran first");
        let mut hash = Fnv1a::default();
        let mut counts = Vec::new();
        let mut ops_failed = u64::from(outcome.is_none());
        if let Some((report, json)) = &outcome {
            hash.update(json.as_bytes());
            let handovers = grid_handovers(report);
            let mut broken = grid_violations("grid_mobility", report);
            // The tenth-length `--smoke` convoy stops short of its first boundary.
            if handovers == 0 && self.scale == Scale::Full {
                eprintln!("grid_mobility: the convoy crossed no cell boundary");
                broken += 1;
            }
            ops_failed += u64::from(broken > 0);
            counts = vec![
                ("handovers", handovers as f64),
                ("cells", report.cells as f64),
                ("flows", report.flows.len() as f64),
                ("mobiles", (report.flows.len() + report.load_ues) as f64),
                ("prb_utilization", report.mean_utilization),
            ];
        }
        RepOutput {
            sim_s: self.cfg.duration.as_secs_f64(),
            ops_attempted: 1,
            ops_failed,
            digest: hash.finish(),
            counts,
        }
    }
}

// ---------------------------------------------------------------------
// trace_write
// ---------------------------------------------------------------------

const FAULT_CASE_SECS: u64 = 24;
const FAULT_SEEDS: u64 = 1;
const TRACED_GRID_SECS: u64 = 4;

/// The fault-family study the trace workloads run: the quiet baseline plus
/// every fault preset, under each controller.
fn fault_study(seed: u64, scale: Scale) -> StudyConfig {
    let mut scenarios = vec!["baseline".to_string()];
    scenarios.extend(FaultScenario::all().iter().map(|f| f.name.to_string()));
    let cfg = StudyConfig {
        name: "benchmark_faults".into(),
        family: StudyFamily::Fault,
        scenarios,
        controllers: ["fbcc", "gcc", "occ"].map(String::from).to_vec(),
        seeds: FAULT_SEEDS,
        base_seed: seed,
        seconds: scale.secs(FAULT_CASE_SECS),
        ..Default::default()
    };
    cfg.validate().expect("the benchmark's study config is valid");
    cfg
}

/// The traced convoy case: the 7-cell cluster at the mobility smoke scale.
fn traced_grid(seed: u64, shards: usize, scale: Scale) -> MultiGridConfig {
    MultiGridConfig {
        rings: 1,
        isd_m: 160.0,
        mobility: MobilityKind::Convoy,
        speed_mps: 30.0,
        flows: vec![FlowSpec::default(); 4],
        load_ues: 28,
        duration: SimDuration::from_secs(scale.secs(TRACED_GRID_SECS)),
        seed,
        shards,
        ..Default::default()
    }
}

fn stamped_sink(seed: u64) -> Arc<Mutex<JsonlSink<Vec<u8>>>> {
    sink_with(&RunMeta::current(seed))
}

fn sink_with(stamp: &RunMeta) -> Arc<Mutex<JsonlSink<Vec<u8>>>> {
    let mut sink = JsonlSink::to_writer(Vec::new());
    sink.stamp(stamp);
    Arc::new(Mutex::new(sink))
}

/// A provenance stamp that costs nothing to make. `RunMeta::current` runs
/// `git rev-parse` for every sink it stamps: a process spawn, 1.9 ms, as
/// steady as the host's process creation. Where sinks are built in a timed
/// loop of the benchmark's own, they are stamped with this instead.
fn constant_stamp(seed: u64) -> RunMeta {
    RunMeta { schema: 0, commit: String::new(), argv: Vec::new(), seed }
}

/// One traced grid run: the report, its JSONL stream and the sink's own
/// record count.
fn run_traced_grid(cfg: MultiGridConfig) -> (MultiGridReport, Vec<u8>, u64) {
    let sink = stamped_sink(cfg.seed);
    let handle: SinkHandle = sink.clone();
    let report = MultiGrid::traced(cfg, handle).run();
    let mut sink = Arc::try_unwrap(sink)
        .unwrap_or_else(|_| panic!("the finished grid still holds its sink"))
        .into_inner()
        .expect("sink lock poisoned");
    sink.flush();
    let lines = sink.lines();
    (report, sink.into_inner(), lines)
}

/// True for the provenance stamp that opens every case's stream. It names
/// the commit and command line, so digests skip it.
fn is_meta_line(line: &[u8]) -> bool {
    line.starts_with(b"{\"meta\":")
}

/// Digest and record count of a JSONL stream, provenance stamps excluded.
fn digest_jsonl(hash: &mut Fnv1a, bytes: &[u8]) -> u64 {
    let mut records = 0;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        if !is_meta_line(line) {
            hash.update(line);
            records += 1;
        }
    }
    records
}

/// What a `trace_write` repetition leaves for its check.
struct Traced {
    cases: Vec<ExecutedCase>,
    grid: Option<(MultiGridReport, Vec<u8>, u64)>,
    artifact_bytes: usize,
    written: bool,
}

pub struct TraceWrite {
    study: StudyConfig,
    grid: MultiGridConfig,
    /// Repetitions are byte-identical (the digest proves it), so only the
    /// first pays for parsing every case back.
    reparsed: bool,
    product: Option<Traced>,
}

impl TraceWrite {
    fn new(seed: u64, width: usize, scale: Scale) -> Self {
        TraceWrite {
            study: fault_study(seed, scale),
            grid: traced_grid(seed, width, scale),
            reparsed: false,
            product: None,
        }
    }

    fn sim_s(&self) -> f64 {
        self.study.cases().len() as f64 * self.study.seconds as f64
            + self.grid.duration.as_secs_f64()
    }

    pub fn artifact_path() -> PathBuf {
        out_dir().join("trace_write.jsonl")
    }
}

impl Workload for TraceWrite {
    fn name(&self) -> &'static str {
        "trace_write"
    }

    fn setup_once(&mut self) {
        // Stamping these 25 sinks through `RunMeta::current` would be 45 of
        // the 47 ms this set-up takes. The timed section pays those spawns
        // inside `run_cases`; the set-up sample stamps without them. The
        // grid is built at width 1 for the reason given in `grid_mobility`.
        let stamp = constant_stamp(self.grid.seed);
        let seconds = self.study.seconds;
        for case in self.study.cases() {
            let fs = poi360_bench::study::fault_scenario(&case.scenario);
            let rc = poi360_bench::study::rate_control(case.rc.as_deref().expect("fault case"));
            let handle: SinkHandle = sink_with(&stamp);
            let mut session = Session::faulted_traced(
                poi360_bench::faults::session_config(&fs, rc, seconds, case.seed),
                &poi360_bench::faults::scaled_plan(&fs, seconds),
                Recorder::to_sink(handle, &case.label),
            );
            session.step();
            std::hint::black_box(session.now());
        }
        let handle: SinkHandle = sink_with(&stamp);
        let mut grid =
            MultiGrid::traced(MultiGridConfig { shards: 1, ..self.grid.clone() }, handle);
        grid.step();
        std::hint::black_box(grid.config().seed);
    }

    fn timed(&mut self, ctx: &SpanCtx<'_>) {
        let (cases, grid) = ctx.scope("run", None, |run| {
            // `run_cases` fans out inside the simulator, out of reach of
            // job spans; it is one span here.
            let cases = run.scope("run_cases", None, |_| {
                catch_unwind(AssertUnwindSafe(|| run_cases(&self.study, false))).unwrap_or_default()
            });
            let grid = run.scope("job", Some(cases.len() as u32), |_| {
                catch_unwind(AssertUnwindSafe(|| run_traced_grid(self.grid.clone()))).ok()
            });
            (cases, grid)
        });
        let (artifact_bytes, written) = ctx.scope("artifact_write", None, |_| {
            // Sized up front: a growing `Vec` doubles, and the peak heap would
            // then follow how close the artifact is to a power of two.
            let grid_bytes = grid.as_ref().map_or(0, |(_, bytes, _)| bytes.len());
            let total = cases.iter().map(|c| c.bytes.len()).sum::<usize>() + grid_bytes;
            let mut artifact = Vec::with_capacity(total);
            for case in &cases {
                artifact.extend_from_slice(&case.bytes);
            }
            if let Some((_, bytes, _)) = &grid {
                artifact.extend_from_slice(bytes);
            }
            let written = std::fs::create_dir_all(out_dir())
                .and_then(|()| std::fs::write(TraceWrite::artifact_path(), &artifact));
            if let Err(e) = &written {
                eprintln!("trace_write: cannot write the artifact: {e}");
            }
            (artifact.len(), written.is_ok())
        });
        self.product = Some(Traced { cases, grid, artifact_bytes, written });
    }

    fn check(&mut self, _: &SpanCtx<'_>) -> RepOutput {
        let Traced { cases, grid, artifact_bytes, written } =
            self.product.take().expect("timed ran first");
        let expected_cases = self.study.cases().len();
        let mut hash = Fnv1a::default();
        let mut records = 0;
        // A panic inside `run_cases` loses every case at once.
        let mut ops_failed = (expected_cases - cases.len()) as u64 + u64::from(grid.is_none());
        for case in &cases {
            let lines = digest_jsonl(&mut hash, &case.bytes);
            records += lines;
            if !self.reparsed && !reparses_to(&case.bytes, lines, &case.case.label) {
                ops_failed += 1;
            }
        }
        if let Some((report, bytes, sink_lines)) = &grid {
            let lines = digest_jsonl(&mut hash, bytes);
            records += lines;
            let mut broken = grid_violations("trace_write", report);
            if lines != *sink_lines {
                eprintln!(
                    "trace_write: grid stream holds {lines} records, sink wrote {sink_lines}"
                );
                broken += 1;
            }
            if !self.reparsed && !reparses_to(bytes, lines, "convoy") {
                broken += 1;
            }
            ops_failed += u64::from(broken > 0);
        }
        if !written {
            ops_failed += 1;
        }
        self.reparsed = true;
        RepOutput {
            sim_s: self.sim_s(),
            ops_attempted: expected_cases as u64 + 1,
            ops_failed,
            digest: hash.finish(),
            counts: vec![("records", records as f64), ("artifact_bytes", artifact_bytes as f64)],
        }
    }
}

/// The stream parses back to exactly `records` probe records.
fn reparses_to(bytes: &[u8], records: u64, label: &str) -> bool {
    match RunTrace::parse_bytes(bytes) {
        Ok(trace) if trace.len() as u64 == records => true,
        Ok(trace) => {
            eprintln!("trace case {label}: wrote {records} records, parsed {}", trace.len());
            false
        }
        Err(e) => {
            eprintln!("trace case {label}: does not parse back: {e}");
            false
        }
    }
}

// ---------------------------------------------------------------------
// trace_read
// ---------------------------------------------------------------------

/// Split a concatenated artifact at the provenance stamp opening each case.
fn split_cases(artifact: &[u8]) -> Vec<&[u8]> {
    let mut starts = Vec::new();
    let mut at = 0;
    for line in artifact.split_inclusive(|&b| b == b'\n') {
        if is_meta_line(line) {
            starts.push(at);
        }
        at += line.len();
    }
    starts.push(artifact.len());
    starts.windows(2).map(|w| &artifact[w[0]..w[1]]).collect()
}

pub struct TraceRead {
    study: StudyConfig,
    /// Descriptors of the artifact's segments, in order: the study's cases,
    /// then the convoy case.
    cases: Vec<StudyCase>,
    sim_s: f64,
    product: Option<ReadBack>,
}

/// What a `trace_read` repetition leaves for its check.
#[derive(Default)]
struct ReadBack {
    parsed: usize,
    report: Option<(String, usize)>,
    chrome: String,
}

impl TraceRead {
    fn new(seed: u64, width: usize, scale: Scale) -> Self {
        let mut writer = TraceWrite::new(seed, width, scale);
        let spans = crate::span::Spans::disabled();
        writer.timed(&spans.root("trace_read", 0));
        let written = writer.check(&spans.root("trace_read", 0));
        assert_eq!(written.ops_failed, 0, "trace_read needs a clean trace_write artifact");
        let mut cases = writer.study.cases();
        cases.push(StudyCase {
            scenario: "convoy".into(),
            rc: None,
            seed: writer.grid.seed,
            label: "convoy".into(),
        });
        TraceRead { sim_s: writer.sim_s(), study: writer.study, cases, product: None }
    }
}

impl Workload for TraceRead {
    fn name(&self) -> &'static str {
        "trace_read"
    }

    fn setup_once(&mut self) {
        let bytes = std::fs::read(TraceWrite::artifact_path()).expect("artifact is readable");
        std::hint::black_box(bytes.len());
    }

    fn timed(&mut self, ctx: &SpanCtx<'_>) {
        let artifact = ctx.scope("setup", None, |_| {
            std::fs::read(TraceWrite::artifact_path()).unwrap_or_else(|e| {
                eprintln!("trace_read: cannot load the artifact: {e}");
                Vec::new()
            })
        });
        let mut back = ReadBack::default();
        let mut traces = Vec::new();
        for (k, (segment, case)) in split_cases(&artifact).into_iter().zip(&self.cases).enumerate()
        {
            match ctx.scope("parse", Some(k as u32), |_| RunTrace::parse_bytes(segment)) {
                Ok(trace) => traces.push(CaseTrace {
                    scenario: case.scenario.clone(),
                    rc: case.rc.clone(),
                    seed: case.seed,
                    trace,
                    gaps_ms: Vec::new(),
                }),
                Err(e) => eprintln!("trace_read: case {}: {e}", case.label),
            }
        }
        back.parsed = traces.len();
        // The whole artifact is its own `--baseline`: one more parse, and a
        // drift gate that must find nothing.
        let baseline =
            ctx.scope("parse", Some(self.cases.len() as u32), |_| RunTrace::parse_bytes(&artifact));
        if let (Ok(baseline), false) = (&baseline, traces.is_empty()) {
            let report =
                ctx.scope("report", None, |_| study_report(&self.study, &traces, Some(baseline)));
            back.report = Some((report.text, report.failures));
            back.chrome = ctx.scope("chrome", None, |_| chrome_trace(&traces[0].trace));
        }
        self.product = Some(back);
    }

    fn check(&mut self, _: &SpanCtx<'_>) -> RepOutput {
        let back = self.product.take().expect("timed ran first");
        let mut hash = Fnv1a::default();
        let mut ops_failed = (self.cases.len() - back.parsed) as u64;
        match &back.report {
            Some((text, failures)) => {
                hash.update(text.as_bytes());
                if *failures > 0 {
                    eprintln!("trace_read: self-baseline report has {failures} failure(s)");
                    ops_failed += 1;
                }
            }
            None => ops_failed += 1,
        }
        hash.update(back.chrome.as_bytes());
        RepOutput {
            sim_s: self.sim_s,
            // Every case parse, the baseline parse folded into the report op.
            ops_attempted: self.cases.len() as u64 + 1,
            ops_failed,
            digest: hash.finish(),
            counts: vec![
                ("cases_parsed", back.parsed as f64),
                ("report_bytes", back.report.map_or(0, |(text, _)| text.len()) as f64),
                ("chrome_bytes", back.chrome.len() as f64),
            ],
        }
    }
}

// ---------------------------------------------------------------------
// Per-layer micro-drivers (the span pass calls these)
// ---------------------------------------------------------------------

use crate::alloc;
use crate::layers::Layers;
use crate::micro::{allocs_per_call, ns_per_call};
use crate::stats::{median, percentile};
use poi360_analyse::aggregate::Pool;
use poi360_core::adaptive::AdaptiveCompression;
use poi360_core::fbcc::{Fbcc, FbccConfig};
use poi360_core::occ::{Occ, OccConfig};
use poi360_core::policy::CompressionPolicy;
use poi360_lte::buffer::FirmwareBuffer;
use poi360_lte::cell::{Cell, CellConfig};
use poi360_lte::channel::{Channel, ChannelConfig};
use poi360_lte::diag::{DiagInterface, DiagReport, DiagSample};
use poi360_lte::grid::handover::{A3Config, A3State};
use poi360_lte::grid::hex::{CellId, HexGrid};
use poi360_lte::grid::mobility::GroundMotion;
use poi360_lte::grid::{RadioConfig, RadioMap};
use poi360_lte::scheduler::{PfScheduler, SchedulerConfig};
use poi360_lte::uplink::{CellUplink, UplinkConfig};
use poi360_net::packet::{FrameTag, Packet};
use poi360_net::pipe::{DelayPipe, PipeConfig};
use poi360_net::wireline::{WirelineConfig, WirelineLink};
use poi360_sim::rng::SimRng;
use poi360_sim::time::SimTime;
use poi360_sim::trace::{BufferSink, NullSink};
use poi360_sim::workers;
use poi360_sim::{Recorder, SUBFRAME};
use poi360_transport::gcc::GccReceiver;
use poi360_transport::pacer::Pacer;
use poi360_transport::rtcp::ReceiverStats;
use poi360_transport::rtp::{Packetizer, Reassembler};
use poi360_video::compression::CompressionMode;
use poi360_video::content::ContentModel;
use poi360_video::encoder::{Encoder, EncoderConfig};
use poi360_video::frame::{TileGrid, TilePos};
use poi360_video::perceptual::{weighted_matrix, SensitivityMap};
use poi360_video::rd::RdModel;
use poi360_video::roi::Roi;
use poi360_viewport::motion::{HeadMotion, MotionConfig};
use std::hint::black_box;

const MIB: f64 = (1u64 << 20) as f64;

fn video_packet(seq: u64, now: SimTime) -> Packet {
    Packet::video(
        seq,
        1_240,
        now,
        FrameTag { frame_no: seq / 8, index: (seq % 8) as u32, count: 8 },
    )
}

/// Simulated seconds a busy cell runs before it is timed. The background
/// UEs' backlogs take about eight seconds to build: a 500-UE subframe costs
/// 55 us in the first simulated second and 97 us from the ninth on.
const CELL_WARM_TICKS: u32 = 10_000;

/// A busy cell in steady state: one backlogged foreground UE among `ues`,
/// one subframe per call.
fn busy_cell(ues: usize) -> impl FnMut() {
    let mut cell: Cell<Packet> = Cell::new(CellConfig::default(), 42);
    let fg = cell.attach_foreground("fg.0", ChannelConfig::default());
    cell.attach_background_population(ues - 1);
    let (mut now, mut seq) = (SimTime::ZERO, 0);
    let mut tick = move || {
        while cell.buffer_level(fg) < 20_000 {
            cell.enqueue(fg, video_packet(seq, now), now);
            seq += 1;
        }
        now += SUBFRAME;
        let out = cell.subframe(now);
        black_box(&out);
        cell.recycle(out);
    };
    (0..CELL_WARM_TICKS).for_each(|_| tick());
    tick
}

/// A standalone session of effectively unbounded length, warmed past its
/// start-up transient, stepped one subframe per call.
fn warmed_session(rate_control: RateControlKind, network: NetworkKind) -> Session {
    let mut session = Session::new(SessionConfig {
        rate_control,
        network,
        duration: SimDuration::from_secs(1_000_000),
        ..Default::default()
    });
    for _ in 0..2_000 {
        session.step();
    }
    session
}

/// One closed diag epoch of a busy uplink, stamped at `now`.
fn diag_epoch(now: SimTime) -> DiagReport {
    let samples = (0..40)
        .map(|k| DiagSample {
            at: now + SUBFRAME * k,
            buffer_bytes: 18_000 + 50 * k,
            tbs_bits: 9_000,
        })
        .collect();
    DiagReport { delivered_at: now + SUBFRAME * 40, samples }
}

/// Time each layer's public calls from outside on warmed, representative
/// state. Needs the `trace_write` artifact on disk.
pub fn micro_drivers(layers: &mut Layers, seed: u64, width: usize) {
    let cellular = NetworkKind::Cellular(Scenario::baseline());

    // ---- sim ----
    {
        // A fresh sink every 64 Ki records bounds memory; its amortized
        // growth is what a `Vec<u8>`-backed case sink pays anyway.
        let fresh = || Recorder::to_sink(sink_with(&constant_stamp(1)) as SinkHandle, "bench");
        let (mut rec, mut n) = (fresh(), 0u64);
        layers.set(
            "sim.trace.emit_ns_per_record",
            ns_per_call(|| {
                n += 1;
                if n.is_multiple_of(1 << 16) {
                    rec = fresh();
                }
                let at = SimTime::from_micros(n % (1 << 16) * 1_000);
                match n % 3 {
                    0 => rec.gauge("pacer.rate_bps", at, 2.4e6 + n as f64),
                    1 => rec.count("video.frame_encoded", at, 1),
                    _ => rec.event("cell.prb_grant", at, 17.0),
                }
            }),
        );
    }
    {
        let staged = BufferSink::shared();
        let rec = Recorder::to_sink(staged.clone() as SinkHandle, "cell.00");
        let mut sink = NullSink;
        let per_drain = ns_per_call(|| {
            for k in 0..64 {
                rec.event("cell.prb_grant", SimTime::from_micros(k), 17.0);
            }
            staged.lock().expect("staging lock").drain_into("cell.00", &mut sink);
        });
        layers.set("sim.trace.drain_ns_per_record", per_drain / 64.0);
    }
    {
        let rec = Recorder::null();
        let mut n = 0u64;
        layers.set(
            "sim.trace.null_probe_ns",
            ns_per_call(|| {
                n += 1;
                if n.is_multiple_of(1 << 16) {
                    drop(rec.take_gauge("pacer.rate_bps"));
                }
                rec.gauge("pacer.rate_bps", SimTime::from_micros(n), 2.4e6);
            }),
        );
    }
    let dispatch = |w: usize| {
        ns_per_call(|| {
            workers::global().dispatch(w, |k| {
                black_box(k);
            })
        })
    };
    layers.set("sim.workers.dispatch_ns.serial", dispatch(1));
    layers.set("sim.workers.dispatch_ns.wide", dispatch(width));
    {
        let mut rng = SimRng::from_seed(seed);
        layers.set(
            "sim.rng.normal_ns",
            ns_per_call(|| {
                black_box(rng.normal(0.0, 8.0));
            }),
        );
    }

    // ---- lte ----
    {
        let mut tick = busy_cell(500);
        layers.set("lte.cell.subframe_us.ue500", ns_per_call(&mut tick) / 1e3);
        layers.set("lte.cell.subframe_allocs.ue500", allocs_per_call(1_000, tick));
    }
    layers.set("lte.cell.subframe_us.ue16", ns_per_call(busy_cell(16)) / 1e3);
    layers.set(
        "lte.cell.attach_us_per_ue",
        ns_per_call(|| {
            let mut cell: Cell<Packet> = Cell::new(CellConfig::default(), 42);
            cell.attach_background_population(500);
            black_box(cell.background_count());
        }) / 500.0
            / 1e3,
    );
    {
        let mut ul: CellUplink<Packet> = CellUplink::new(UplinkConfig::default(), 3);
        let (mut now, mut seq) = (SimTime::ZERO, 0);
        layers.set(
            "lte.uplink.subframe_ns",
            ns_per_call(|| {
                while ul.buffer_level() < 12_000 {
                    ul.enqueue(video_packet(seq, now), now);
                    seq += 1;
                }
                now += SUBFRAME;
                let out = ul.subframe(now);
                black_box(&out);
                if let Some(diag) = out.diag {
                    ul.recycle_diag(diag);
                }
                ul.recycle_departed(out.departed);
            }),
        );
    }
    {
        let mut channel = Channel::new(ChannelConfig::default(), seed);
        let mut now = SimTime::ZERO;
        layers.set(
            "lte.channel.subframe_ns",
            ns_per_call(|| {
                now += SUBFRAME;
                black_box(channel.subframe(now));
            }),
        );
    }
    {
        let mut scheduler = PfScheduler::new(SchedulerConfig::default(), seed);
        layers.set(
            "lte.scheduler.grant_ns",
            ns_per_call(|| {
                black_box(scheduler.grant_bits(20_000, 12, 0.3));
            }),
        );
    }
    {
        let mut diag = DiagInterface::new(DiagInterface::DEFAULT_PERIOD);
        let mut now = SimTime::ZERO;
        layers.set(
            "lte.diag.record_ns",
            ns_per_call(|| {
                now += SUBFRAME;
                let sample = DiagSample { at: now, buffer_bytes: 18_000, tbs_bits: 9_000 };
                if let Some(report) = diag.record(sample) {
                    diag.recycle(black_box(report));
                }
            }),
        );
    }
    {
        let mut buffer: FirmwareBuffer<Packet> = FirmwareBuffer::new(512 * 1024);
        let mut done = Vec::new();
        let (now, mut seq) = (SimTime::ZERO, 0);
        let per_round = ns_per_call(|| {
            for _ in 0..8 {
                buffer.enqueue(video_packet(seq, now), now);
                seq += 1;
            }
            buffer.serve_into(8 * 1_240, &mut done);
            black_box(done.len());
            done.clear();
        });
        layers.set("lte.buffer.enqueue_serve_ns_per_packet", per_round / 8.0);
    }
    for (rings, name) in
        [(1, "lte.grid.observe_ns_per_ue.c7"), (4, "lte.grid.observe_ns_per_ue.c61")]
    {
        let grid = HexGrid::new(rings, 160.0);
        let activity = vec![0.35; grid.len()];
        let mut map = RadioMap::new(RadioConfig::default(), grid);
        let ue = map.register_ue(seed, "fg.00");
        layers.set(
            name,
            ns_per_call(|| {
                black_box(map.observe(ue, SUBFRAME, 40.0, 5.0, CellId(0), &activity));
            }),
        );
    }
    {
        let (cfg, mut state) = (A3Config::default(), A3State::default());
        let mut now = SimTime::ZERO;
        layers.set(
            "lte.grid.a3_decide_ns",
            ns_per_call(|| {
                now += SUBFRAME;
                black_box(state.decide(&cfg, now, -80.0, 12.0, Some((CellId(1), -84.0))));
            }),
        );
    }
    {
        let grid = HexGrid::new(4, 160.0);
        let mut motion = GroundMotion::new(MobilityKind::Convoy, &grid, 30.0, seed, "fg.00", 0, 64);
        layers.set(
            "lte.grid.motion_step_ns",
            ns_per_call(|| {
                black_box(motion.step(SUBFRAME));
            }),
        );
        layers.set(
            "lte.grid.register_ue_us.c61",
            ns_per_call(|| {
                let mut map = RadioMap::new(RadioConfig::default(), grid.clone());
                for k in 0..16 {
                    black_box(map.register_ue(seed, ["fg.00", "fg.01", "ld.000", "ld.001"][k % 4]));
                }
            }) / 16.0
                / 1e3,
        );
    }

    // ---- net ----
    {
        let mut pipe: DelayPipe<Packet> = DelayPipe::new(PipeConfig::cellular_downstream(), 7);
        let mut arrivals = Vec::new();
        let (mut now, mut seq) = (SimTime::ZERO, 0);
        layers.set(
            "net.pipe.send_poll_ns",
            ns_per_call(|| {
                now += SUBFRAME;
                pipe.tick(now);
                pipe.send(video_packet(seq, now), now);
                seq += 1;
                arrivals.clear();
                pipe.poll_into(now, &mut arrivals);
                black_box(arrivals.len());
            }),
        );
    }
    {
        let mut link: WirelineLink<Packet> = WirelineLink::new(WirelineConfig::default());
        let (mut now, mut seq) = (SimTime::ZERO, 0);
        layers.set(
            "net.wireline.enqueue_poll_ns",
            ns_per_call(|| {
                now += SUBFRAME;
                link.enqueue(video_packet(seq, now), now);
                seq += 1;
                black_box(link.poll(now));
            }),
        );
    }

    // ---- transport ----
    {
        // 12 Mbps drains one 1 240-byte packet per tick, so the queue holds steady.
        let mut pacer = Pacer::new(12.0e6);
        let mut staged = Vec::new();
        let (mut now, mut seq) = (SimTime::ZERO, 0);
        layers.set(
            "transport.pacer.tick_ns",
            ns_per_call(|| {
                pacer.enqueue(video_packet(seq, now));
                seq += 1;
                now += SUBFRAME;
                staged.clear();
                pacer.tick_into(now, &mut staged);
                black_box(staged.len());
            }),
        );
    }
    {
        let mut packetizer = Packetizer::new();
        let mut frame_no = 0;
        layers.set(
            "transport.rtp.packetize_ns_per_frame",
            ns_per_call(|| {
                frame_no += 1;
                // 3 Mbps at 36 fps is about 10 kB a frame: nine packets.
                black_box(packetizer.packetize(frame_no, 10_400, SimTime::ZERO));
            }),
        );
    }
    {
        let mut reassembler = Reassembler::new(SimDuration::from_millis(1_500));
        let mut gcc = GccReceiver::new(1.0e6);
        let mut stats = ReceiverStats::new();
        // Eight packets a frame, one frame every 27.8 ms.
        let arrival = |seq: u64| SimTime::from_micros(seq / 8 * 27_778 + seq % 8 * 400);
        let mut seq = 0;
        layers.set(
            "transport.rtp.reassemble_ns_per_packet",
            ns_per_call(|| {
                black_box(reassembler.on_packet(&video_packet(seq, arrival(seq)), arrival(seq)));
                seq += 1;
            }),
        );
        let mut seq = 0;
        layers.set(
            "transport.gcc.on_packet_ns",
            ns_per_call(|| {
                gcc.on_packet(&video_packet(seq, arrival(seq)), arrival(seq));
                seq += 1;
            }),
        );
        let mut seq = 0;
        layers.set(
            "transport.rtcp.on_packet_ns",
            ns_per_call(|| {
                stats.on_packet(&video_packet(seq, arrival(seq)), arrival(seq));
                seq += 1;
            }),
        );
    }

    // ---- video ----
    let tiles = TileGrid::POI360;
    let roi = Roi::at_tile(&tiles, TilePos::new(6, 4));
    let mode = CompressionMode::protected_geometric(1.4, 1, 1);
    let matrix = mode.matrix(&tiles, roi.center);
    {
        let config = EncoderConfig::default();
        let mut encoder = Encoder::new(config, seed);
        let content = ContentModel::new(tiles, seed);
        let mut now = SimTime::ZERO;
        let mut encode = || {
            now += config.frame_interval();
            encoder.encode(now, roi, &matrix, &content, 3.0e6)
        };
        layers.set(
            "video.encoder.encode_us_per_frame",
            ns_per_call(|| drop(black_box(encode()))) / 1e3,
        );
        layers.set(
            "video.encoder.encode_allocs_per_frame",
            allocs_per_call(256, || drop(black_box(encode()))),
        );
        let (frame, rd) = (encode(), RdModel::default());
        layers.set(
            "video.encoder.region_psnr_ns",
            ns_per_call(|| {
                black_box(frame.region_psnr(&rd, &config.geometry, roi.fov_tiles(&tiles, 1, 1)));
            }),
        );
    }
    layers.set(
        "video.compression.matrix_ns",
        ns_per_call(|| drop(black_box(mode.matrix(&tiles, roi.center)))),
    );
    layers.set(
        "video.perceptual.pano_matrix_ns",
        ns_per_call(|| {
            black_box(weighted_matrix(&matrix, &SensitivityMap::pano(&tiles, roi.center)));
        }),
    );

    // ---- viewport ----
    {
        let mut head = HeadMotion::new(UserArchetype::Saccadic, MotionConfig::default(), seed);
        layers.set("viewport.motion.step_ns", ns_per_call(|| head.step(SUBFRAME)));
    }

    // ---- metrics ----
    {
        let mut rng = SimRng::from_seed(seed);
        let values: Vec<f64> = (0..10_000).map(|_| rng.normal(30.0, 4.0)).collect();
        layers.set(
            "metrics.dist.percentile_us_per_10k",
            ns_per_call(|| {
                black_box(poi360_metrics::dist::percentile(&values, 0.99));
            }) / 1e3,
        );
    }

    // ---- core: sessions and controllers ----
    for (name, rate_control, network) in [
        ("core.session.step_ns.fbcc", RateControlKind::Fbcc, cellular),
        ("core.session.step_ns.gcc", RateControlKind::Gcc, cellular),
        ("core.session.step_ns.occ", RateControlKind::Occ, cellular),
        ("core.session.step_ns.wireline", RateControlKind::Gcc, NetworkKind::Wireline),
    ] {
        let mut session = warmed_session(rate_control, network);
        layers.set(name, ns_per_call(|| session.step()));
    }
    {
        let mut session = warmed_session(RateControlKind::Fbcc, cellular);
        layers.set("core.session.step_allocs", allocs_per_call(20_000, || session.step()));
    }
    layers.set(
        "core.session.new_us",
        ns_per_call(|| drop(black_box(Session::new(SessionConfig::default())))) / 1e3,
    );
    {
        let secs = PAPER_SESSION_SECS;
        let mut session = Session::new(SessionConfig {
            duration: SimDuration::from_secs(secs),
            ..Default::default()
        });
        let before = alloc::live_bytes();
        for _ in 0..secs * 1_000 {
            session.step();
        }
        let grown = alloc::live_bytes().saturating_sub(before);
        layers.set("core.session.heap_bytes_per_sim_s", grown as f64 / secs as f64);
    }
    {
        let mut fbcc = Fbcc::new(FbccConfig::default());
        let mut occ = Occ::new(1.0e6, OccConfig::default());
        let rtt = SimDuration::from_millis(80);
        let mut now = SimTime::ZERO;
        layers.set(
            "core.fbcc.on_diag_ns",
            ns_per_call(|| {
                now += SUBFRAME * 40;
                black_box(fbcc.on_diag(&diag_epoch(now), rtt, now));
            }),
        );
        let mut now = SimTime::ZERO;
        layers.set(
            "core.occ.on_diag_ns",
            ns_per_call(|| {
                now += SUBFRAME * 40;
                occ.on_diag(&diag_epoch(now), now);
            }),
        );
        let mut policy = AdaptiveCompression::new();
        layers.set(
            "core.adaptive.matrix_ns",
            ns_per_call(|| drop(black_box(policy.matrix(&tiles, &roi)))),
        );
    }

    // ---- core: the grid driver; four variants interleaved round-robin ----
    {
        // The workload's grid at width 1 and at the pinned width, and its
        // two marginal-cost variants: without the static background UEs and
        // without the load UEs. Stepped a batch each in turn, so that a
        // shift in the host's speed lands on all four alike.
        let full = mobility_grid(seed, 1, SimDuration::from_secs(1_000_000));
        let variants = [
            full.clone(),
            MultiGridConfig { shards: width, ..full.clone() },
            MultiGridConfig { static_bg_per_cell: 0, ..full.clone() },
            MultiGridConfig { load_ues: 0, ..full.clone() },
        ];
        let mut grids = variants.map(|cfg| {
            let mut grid = MultiGrid::new(cfg);
            (0..200).for_each(|_| grid.step());
            grid
        });
        const BATCHES: usize = 40;
        const STEPS: u32 = 25;
        let mut us: [Vec<f64>; 4] = Default::default();
        for _ in 0..BATCHES {
            for (grid, us) in grids.iter_mut().zip(&mut us) {
                let start = std::time::Instant::now();
                (0..STEPS).for_each(|_| grid.step());
                us.push(start.elapsed().as_nanos() as f64 / f64::from(STEPS) / 1e3);
            }
        }
        let [serial_us, wide_us, no_bg_us, no_load_us] = &us;
        layers.set("core.multicell.grid_step_us.serial", median(serial_us));
        layers.set("core.multicell.grid_step_us.wide", median(wide_us));
        layers.set("core.multicell.grid_step_p99_us.serial", percentile(serial_us, 0.99));
        layers.set("core.multicell.grid_step_p99_us.wide", percentile(wide_us, 0.99));
        // Median of the round-by-round differences, not difference of medians.
        let saved_ns = |without: &[f64]| {
            median(
                &serial_us
                    .iter()
                    .zip(without)
                    .map(|(with, w)| (with - w) * 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        let cells = HexGrid::new(full.rings, full.isd_m).len() as f64;
        layers.set("core.multicell.grid_ns_per_cell", saved_ns(no_bg_us) / cells);
        layers.set(
            "core.multicell.grid_ns_per_mobile_ue",
            saved_ns(no_load_us) / full.load_ues as f64,
        );
        let [serial, ..] = &mut grids;
        layers.set("core.multicell.grid_allocs_per_step", allocs_per_call(1_000, || serial.step()));
        layers.set(
            "core.multicell.grid_new_ms",
            ns_per_call(|| drop(black_box(MultiGrid::new(full.clone())))) / 1e6,
        );
    }

    // ---- analyse, sim.json: one case of the artifact, read back ----
    {
        let artifact = std::fs::read(TraceWrite::artifact_path()).expect("trace_write ran first");
        let segments = split_cases(&artifact);
        let case = segments[0];
        let text = std::str::from_utf8(case).expect("JSONL is UTF-8");
        let lines: Vec<&str> = text.lines().take(4_096).collect();
        let line_bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
        let per_pass = ns_per_call(|| {
            for line in &lines {
                black_box(parse_json(line).expect("artifact lines are JSON"));
            }
        });
        layers.set("sim.json.parse_mib_per_s", line_bytes as f64 / MIB / (per_pass / 1e9));

        let per_parse = ns_per_call(|| drop(black_box(RunTrace::parse_bytes(case))));
        layers.set("analyse.ingest.parse_mib_per_s", case.len() as f64 / MIB / (per_parse / 1e9));
        let before = alloc::live_bytes();
        let trace = RunTrace::parse_bytes(case).expect("the artifact parses");
        let held = alloc::live_bytes().saturating_sub(before);
        layers.set("analyse.ingest.heap_bytes_per_input_byte", held as f64 / case.len() as f64);
        layers.set(
            "analyse.aggregate.add_ns_per_record",
            ns_per_call(|| {
                let mut pool = Pool::new();
                pool.add(&trace);
                black_box(pool.traces());
            }) / trace.len() as f64,
        );
        let per_export = ns_per_call(|| drop(black_box(chrome_trace(&trace))));
        let exported = chrome_trace(&trace).len();
        layers.set("analyse.chrome.export_mib_per_s", exported as f64 / MIB / (per_export / 1e9));

        // The report over the first scenario's cases, one per controller.
        let study = fault_study(seed, Scale::Full);
        let cases: Vec<CaseTrace> = study
            .cases()
            .into_iter()
            .zip(&segments)
            .take(study.controllers.len() * study.seeds as usize)
            .map(|(case, bytes)| CaseTrace {
                scenario: case.scenario,
                rc: case.rc,
                seed: case.seed,
                trace: RunTrace::parse_bytes(bytes).expect("the artifact parses"),
                gaps_ms: Vec::new(),
            })
            .collect();
        layers.set(
            "analyse.report.study_report_ms",
            ns_per_call(|| drop(black_box(study_report(&study, &cases, None)))) / 1e6,
        );
    }

    // ---- bench ----
    layers.set(
        "bench.runner.run_jobs_overhead_us",
        ns_per_call(|| drop(black_box(run_jobs((0..64u32).collect(), |k| k)))) / 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Better, END_TO_END, FAILED_SHARE};
    use crate::layers::layer_metrics;
    use crate::span::{chrome_trace as spans_to_chrome, Spans};

    fn session_digest(seed: u64) -> u64 {
        let cfg = SessionConfig { duration: SimDuration::from_secs(2), seed, ..Default::default() };
        let mut hash = Fnv1a::default();
        digest_json(&mut hash, &mut String::new(), &Session::new(cfg).run());
        hash.finish()
    }

    #[test]
    fn the_digest_is_stable_across_two_in_process_runs_and_follows_the_seed() {
        assert_eq!(session_digest(360), session_digest(360));
        assert_ne!(session_digest(360), session_digest(361));
    }

    #[test]
    fn a_panicking_job_is_one_failed_op_and_the_fan_out_completes() {
        let spans = Spans::enabled(16);
        let out = fan_out(&spans.root("test", 0), (0..8u32).collect(), |k| {
            assert_ne!(k, 3, "job 3 fails on purpose");
            k * 2
        });
        let expected: Vec<Option<u32>> = (0..8).map(|k| (k != 3).then_some(k * 2)).collect();
        assert_eq!(out, expected, "input order kept, only job 3 lost");
        let jobs = spans.snapshot();
        assert_eq!(jobs.len(), 8, "the failed job still closed its span");
        assert!(jobs.iter().all(|s| s.name == "job" && s.index.is_some()));
    }

    #[test]
    fn spans_json_is_accepted_by_the_simulators_json_parser() {
        let spans = Spans::enabled(8);
        spans.root("paper_grid", 1).scope("rep", None, |rep| {
            rep.scope("run", None, |run| run.scope("job", Some(4), |_| ()));
        });
        let doc = parse_json(&spans_to_chrome(&spans.snapshot())).expect("spans.json is JSON");
        let events = doc.get("traceEvents").and_then(JsonValue::as_array).expect("traceEvents");
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("name").and_then(JsonValue::as_str), Some("job[4]"));
        assert_eq!(events[0].get("cat").and_then(JsonValue::as_str), Some("paper_grid"));
        let parent =
            events[0].get("args").and_then(|a| a.get("parent")).and_then(JsonValue::as_f64);
        let run_id = events[1].get("args").and_then(|a| a.get("id")).and_then(JsonValue::as_f64);
        assert_eq!(parent, run_id, "job hangs from run");
    }

    #[test]
    fn jsonl_digests_and_splits_ignore_nothing_but_the_provenance_stamps() {
        let a = b"{\"meta\":\"poi360.trace\",\"commit\":\"aaa\"}\n{\"t_us\":1}\n{\"t_us\":2}\n";
        let b = b"{\"meta\":\"poi360.trace\",\"commit\":\"bbb\"}\n{\"t_us\":1}\n{\"t_us\":2}\n";
        let digest = |bytes: &[u8]| {
            let mut hash = Fnv1a::default();
            (digest_jsonl(&mut hash, bytes), hash.finish())
        };
        assert_eq!(digest(a), digest(b), "the stamp names the commit; the digest must not");
        assert_eq!(digest(a).0, 2);
        assert_ne!(digest(a).1, digest(b"{\"t_us\":1}\n{\"t_us\":3}\n").1);

        let joined = [a.as_slice(), b.as_slice()].concat();
        assert_eq!(split_cases(&joined), [a.as_slice(), b.as_slice()]);
        assert!(split_cases(b"").is_empty());
    }

    /// `BENCHMARK.json` at the repository root repeats the metric tables for
    /// the runner; the tables in this package are the source.
    #[test]
    fn benchmark_json_lists_the_workloads_and_metrics_of_this_package() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
            .expect("BENCHMARK.json is JSON");
        let list = |key: &str| doc.get(key).and_then(JsonValue::as_array).expect("a list").to_vec();
        let text = |v: &JsonValue, key: &str| {
            v.get(key).and_then(JsonValue::as_str).expect("a string").to_string()
        };

        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);

        // `failed_share` is never above 0 on a healthy run, and the runner
        // takes metrics that are never 0: it reads `failed` instead.
        let gating: Vec<_> = END_TO_END.iter().filter(|m| m.name != FAILED_SHARE).collect();
        let listed = list("end_to_end");
        assert_eq!(listed.len(), gating.len());
        for (m, v) in gating.iter().zip(&listed) {
            assert_eq!((text(v, "name"), text(v, "unit")), (m.name.into(), m.unit.into()));
            assert_eq!(text(v, "better"), m.better.as_str());
            assert_eq!(v.get("bound").and_then(JsonValue::as_f64), Some(m.bound));
        }

        let table = layer_metrics();
        let listed = list("per_layer");
        assert_eq!(listed.len(), table.len());
        for (m, v) in table.iter().zip(&listed) {
            assert_eq!((text(v, "name"), text(v, "unit")), (m.name.clone(), m.unit.into()));
            let better = if m.better == Better::Higher { "higher" } else { "lower" };
            assert_eq!(text(v, "better"), better, "{}", m.name);
        }
    }
}
