//! Determinism guarantees: the whole system is a pure function of its
//! master seed, and independent components draw from decorrelated named
//! streams.

use poi360::core::config::{CompressionScheme, NetworkKind, RateControlKind, SessionConfig};
use poi360::core::multicell::{FlowSpec, MultiCell, MultiCellConfig};
use poi360::core::session::Session;
use poi360::lte::buffer::PacketLike;
use poi360::lte::cell::{Cell, CellConfig};
use poi360::lte::channel::ChannelConfig;
use poi360::lte::scenario::Scenario;
use poi360::sim::json::ToJson;
use poi360::sim::rng::SimRng;
use poi360::sim::time::{SimDuration, SimTime};
use poi360::sim::SUBFRAME;
use poi360::viewport::motion::UserArchetype;

fn cfg(seed: u64, network: NetworkKind) -> SessionConfig {
    SessionConfig {
        scheme: CompressionScheme::Poi360,
        rate_control: RateControlKind::Fbcc,
        network,
        user: UserArchetype::SmoothPanner,
        duration: SimDuration::from_secs(20),
        seed,
        ..Default::default()
    }
}

/// Two runs of the same master seed must produce byte-identical session
/// reports — the JSON serialization captures every field, so any hidden
/// nondeterminism (iteration order, ambient entropy, time) shows up here.
#[test]
fn same_seed_gives_byte_identical_report() {
    for network in [NetworkKind::Wireline, NetworkKind::Cellular(Scenario::baseline())] {
        let a = Session::new(cfg(42, network)).run().to_json();
        let b = Session::new(cfg(42, network)).run().to_json();
        assert_eq!(a, b, "session report must be a pure function of the seed");
        assert!(a.contains("\"frames_sent\":"), "report JSON lost its fields");
    }
}

/// Different master seeds must actually change the outcome (the report
/// is not a constant).
#[test]
fn different_seeds_differ() {
    let net = NetworkKind::Cellular(Scenario::baseline());
    let a = Session::new(cfg(1, net)).run().to_json();
    let b = Session::new(cfg(2, net)).run().to_json();
    assert_ne!(a, b, "distinct seeds should perturb the session");
}

/// A whole shared-cell ensemble — N sessions, background UEs, and the PF
/// scheduler in lockstep — is a pure function of one master seed.
#[test]
fn multicell_same_seed_gives_byte_identical_report() {
    let mk = || MultiCellConfig {
        flows: vec![FlowSpec::default(); 2],
        background_ues: 4,
        duration: SimDuration::from_secs(6),
        seed: 77,
        ..Default::default()
    };
    let a = MultiCell::new(mk()).run().to_json();
    let b = MultiCell::new(mk()).run().to_json();
    assert_eq!(a, b, "multi-cell report must be a pure function of the seed");
    assert!(a.contains("\"jain_throughput\":"), "report JSON lost its fields");
}

#[derive(Debug)]
struct Pkt;
impl PacketLike for Pkt {
    fn wire_bytes(&self) -> u32 {
        1_200
    }
}

/// Because every UE's RNG streams are keyed by the cell seed and the UE's
/// *name* (not attach index), the background population is invisible to a
/// foreground UE's private randomness: permuting attach order changes
/// nothing at all, and adding competitors changes scheduling but never
/// the foreground UE's channel draws.
#[test]
fn per_ue_streams_decouple_foreground_from_background() {
    let run = |bg_names: &[&str]| {
        let mut cell = Cell::new(CellConfig::default(), 9);
        let ue = cell.attach_foreground("fg.0", ChannelConfig::default());
        for name in bg_names {
            cell.attach_background(name);
        }
        let mut now = SimTime::ZERO;
        let mut tbs = Vec::new();
        let mut cqi = Vec::new();
        let mut load = Vec::new();
        let total_prbs = CellConfig::default().total_prbs as f64;
        for _ in 0..2_000 {
            while cell.buffer_level(ue) < 20_000 {
                cell.enqueue(ue, Pkt, now);
            }
            let out = cell.subframe(now);
            tbs.push(out.per_ue[0].tbs_bits);
            cqi.push(out.per_ue[0].cqi);
            // The load UE 0 sees: PRBs everyone else consumed (no flash
            // crowd here), as a fraction of the cell.
            load.push((out.prbs_granted - out.prbs_per_ue[0]) as f64 / total_prbs);
            now += SUBFRAME;
        }
        ((tbs, cqi), load)
    };
    let (forward, _) = run(&["bg.a", "bg.b", "bg.c"]);
    let (shuffled, _) = run(&["bg.b", "bg.c", "bg.a"]);
    assert_eq!(forward, shuffled, "background attach order leaked into foreground results");

    let ((_, cqi_alone), load_alone) = run(&[]);
    let ((_, cqi_crowded), load_crowded) = run(&["bg.a", "bg.b", "bg.c"]);
    assert_eq!(cqi_alone, cqi_crowded, "competitors must not perturb a UE's channel stream");
    // The background UEs may be served only out of PRBs the foreground
    // leaves over, so its TBS need not move; the load it sees must.
    assert_ne!(load_alone, load_crowded, "competitors should claim PRBs the foreground sees");
}

// ---------------------------------------------------------------------
// Hex-grid mobility determinism
// ---------------------------------------------------------------------

use poi360_analyse::study::{by_name, StudyConfig, StudyFamily};
use poi360_bench::mobility::MOBILITY_SMOKE_SECS;
use poi360_bench::protocol::{run_traced, Outcome};
use poi360_bench::runner::with_worker_threads;
use poi360_bench::study::{run_protocol, traced_cases};

/// A 7-cell convoy — mobility, shadowing, inter-cell interference, A3
/// handovers, firmware buffers migrating between cells — emits a
/// byte-identical JSONL probe stream across reruns *and* across worker
/// pool widths (the in-process equivalent of different `POI360_THREADS`
/// values): the grid driver is lockstep single-threaded and interference
/// couples cells only through the previous subframe's published
/// activity, so no thread schedule can reorder anything. The two seeds of
/// the matrix run side by side on the pool, and a different master seed
/// perturbs the whole trajectory — the stream is deterministic, not
/// constant.
#[test]
fn grid_convoy_byte_identical_across_thread_counts_and_reruns() {
    let cfg = StudyConfig {
        name: "convoy".into(),
        family: StudyFamily::Mobility,
        scenarios: vec!["convoy".into()],
        seeds: 2,
        base_seed: 21,
        seconds: MOBILITY_SMOKE_SECS,
        ..Default::default()
    };
    let run = || run_traced(traced_cases(&cfg, true));
    let (a, b) = with_worker_threads(1, || (run(), run()));
    let c = with_worker_threads(4, run);
    let Outcome::Grid(report) = &a[0].0 else { unreachable!("a grid case") };
    assert_eq!(report.cells, 7, "rings=1 lattice");
    let streams =
        |runs: &[(Outcome, Vec<u8>)]| runs.iter().map(|r| r.1.clone()).collect::<Vec<_>>();
    let (a, b, c) = (streams(&a), streams(&b), streams(&c));
    assert!(!a[0].is_empty(), "trace stream captured");
    assert_eq!(a, b, "grid rerun diverged at the same worker width");
    assert_eq!(a, c, "grid stream moved with the worker-pool width");
    // The leading stamp names the seed; the records must differ too.
    let records = |s: &[u8]| s.splitn(2, |&b| b == b'\n').nth(1).map(<[u8]>::to_vec);
    assert_ne!(records(&a[0]), records(&a[1]), "distinct seeds should give distinct grid traces");
}

/// The grid report itself (JSON serialization, every counter and stat)
/// is a pure function of the seed — mirrors the MultiCell guarantee.
#[test]
fn multigrid_same_seed_gives_byte_identical_report() {
    use poi360::core::multicell::{MultiGrid, MultiGridConfig};
    let mk = || MultiGridConfig {
        flows: vec![FlowSpec::default(); 2],
        load_ues: 8,
        static_bg_per_cell: 2,
        isd_m: 160.0,
        speed_mps: 30.0,
        duration: SimDuration::from_secs(6),
        seed: 77,
        ..Default::default()
    };
    let a = MultiGrid::new(mk()).run().to_json();
    let b = MultiGrid::new(mk()).run().to_json();
    assert_eq!(a, b, "multi-grid report must be a pure function of the seed");
    assert!(a.contains("\"flow_stats\":"), "report JSON lost its fields");
}

/// The sharded epoch-lockstep executor is schedule-independent: the
/// same grid scenario at shard widths 1, 2, and 8 produces a
/// byte-identical probe JSONL stream *and* a byte-identical report.
/// Cross-cell effects — handover migrations carrying the firmware
/// buffer, neighbor-PRB interference — are exchanged only at the
/// subframe barrier in fixed cell-id order, and per-shard trace buffers
/// merge in canonical (cell, flow, grid) order, so no worker
/// interleaving can reach the output.
#[test]
fn multigrid_sharded_widths_are_byte_identical() {
    use poi360::core::multicell::{MultiGrid, MultiGridConfig};
    use poi360::sim::trace::capture;
    let run = |shards: usize| {
        let cfg = MultiGridConfig {
            flows: vec![FlowSpec::default(); 2],
            load_ues: 8,
            static_bg_per_cell: 2,
            isd_m: 160.0,
            speed_mps: 30.0,
            duration: SimDuration::from_secs(4),
            seed: 5,
            shards,
            ..Default::default()
        };
        capture(None, |sink| MultiGrid::traced(cfg, sink.clone()).run().to_json())
    };
    let (r1, t1) = run(1);
    let (r2, t2) = run(2);
    let (r8, t8) = run(8);
    assert!(!t1.is_empty(), "probe stream captured");
    assert_eq!(r1, r2, "report diverged at shard width 2");
    assert_eq!(r1, r8, "report diverged at shard width 8");
    assert_eq!(t1, t2, "probe JSONL diverged at shard width 2");
    assert_eq!(t1, t8, "probe JSONL diverged at shard width 8");
}

/// Long-run recycling soak: 2.5 simulated seconds of a sharded grid is
/// thousands of epochs of pooled trace-buffer reuse — every per-entity
/// `BufferSink` drains into the merge and refills in place, and the
/// JSONL sink re-renders each record into one recycled line scratch.
/// Recycled capacity must never leak stale bytes: the sharded stream
/// stays byte-identical to the serial one, and a sink reused across
/// back-to-back runs (its scratch still warm from a *different* seed's
/// longer stream) and stamped between them appends exactly the bytes a
/// fresh stamped sink produces: the stamp starts a run segment, in which
/// probe ids start again from 0.
#[test]
fn multigrid_long_run_recycled_buffers_stay_byte_identical() {
    use poi360::core::multicell::{MultiGrid, MultiGridConfig};
    use poi360::sim::trace::{capture, RunMeta};
    let cfg = |seed: u64, shards: usize| MultiGridConfig {
        flows: vec![FlowSpec::default(); 2],
        load_ues: 8,
        static_bg_per_cell: 2,
        isd_m: 160.0,
        speed_mps: 30.0,
        duration: SimDuration::from_millis(2_500),
        seed,
        shards,
        ..Default::default()
    };
    // One shared sink, two runs back to back: seed 91 first (warms the
    // line scratch and the pool workers), then a stamp and seed 5. The
    // seed-5 bytes are the suffix after the seed-91 stream's lines.
    let meta = RunMeta::current(5);
    let ((warm_lines, report_reused), bytes) = capture(None, |sink| {
        MultiGrid::traced(cfg(91, 4), sink.clone()).run();
        let warm_lines = sink.lock().unwrap().lines() as usize;
        sink.lock().unwrap().stamp(&meta);
        (warm_lines, MultiGrid::traced(cfg(5, 4), sink.clone()).run().to_json())
    });
    let warm_len: usize =
        bytes.split_inclusive(|&b| b == b'\n').take(warm_lines).map(<[u8]>::len).sum();
    assert!(bytes.len() > warm_len, "second run traced nothing");
    let reused_tail = bytes[warm_len..].to_vec();

    // Fresh-sink serial reference for the same seed-5 scenario.
    let fresh = |shards: usize| {
        capture(Some(&meta), |sink| MultiGrid::traced(cfg(5, shards), sink.clone()).run().to_json())
    };
    let (report_serial, trace_serial) = fresh(1);
    assert_eq!(report_reused, report_serial, "sharded long-run report diverged from serial");
    assert_eq!(
        reused_tail, trace_serial,
        "a recycled sink scratch leaked stale bytes into the stream"
    );
}

/// Named component streams derived from one master seed are mutually
/// independent: different names give uncorrelated sequences, the same
/// name reproduces the identical sequence.
#[test]
fn named_streams_are_independent() {
    let master = 360;
    let take = |name: &str| {
        let mut r = SimRng::stream(master, name);
        (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(take("uplink"), take("uplink"), "same name must replay the same stream");
    let (a, b) = (take("uplink"), take("encoder"));
    assert_ne!(a, b);
    let collisions = a.iter().zip(&b).filter(|(x, y)| x == y).count();
    assert!(collisions <= 1, "streams for distinct names look correlated: {collisions} matches");
}

/// The `arena` study, cut to two controllers, two schemes, the shared
/// cell and one fault preset at 3 s: `seed` is its base seed.
fn small_arena(controllers: &[&str], schemes: &[&str], seed: u64) -> StudyConfig {
    StudyConfig {
        scenarios: vec!["shared".into(), "rlf".into()],
        controllers: controllers.iter().map(|c| c.to_string()).collect(),
        schemes: schemes.iter().map(|s| s.to_string()).collect(),
        seconds: 3,
        base_seed: seed,
        ..by_name("arena").expect("a checked-in preset")
    }
}

/// The arena study (JSONL stream and rendered report, league included)
/// is byte-identical across reruns and across worker-pool widths: every
/// case traces into its own sink and the streams concatenate in case
/// order, so no thread schedule can reorder anything.
#[test]
fn arena_byte_identical_across_thread_counts_and_reruns() {
    let cfg = small_arena(&["fbcc", "occ"], &["roi", "pano"], 11);
    let run = || run_protocol(&cfg, false, None).expect("the arena study runs");
    let (a, b) = with_worker_threads(1, || (run(), run()));
    let c = with_worker_threads(4, run);
    assert!(!a.jsonl.is_empty(), "arena trace stream captured");
    assert!(
        a.text.contains("== Controller x tiling league"),
        "the report closes with the league:\n{}",
        a.text
    );
    assert_eq!(a.jsonl, b.jsonl, "arena rerun diverged at the same worker width");
    assert_eq!(a.jsonl, c.jsonl, "arena stream moved with the worker-pool width");
    assert_eq!(a.text, b.text, "arena report rerun diverged");
    assert_eq!(a.text, c.text, "arena report moved with the worker-pool width");
}

/// A different base seed perturbs the whole arena trace — the stream is
/// deterministic, not constant. Provenance stamps name the seed, so only
/// the records can show a trajectory.
#[test]
fn arena_different_seeds_diverge() {
    let records = |seed| {
        let jsonl = run_protocol(&small_arena(&["fbcc"], &["roi"], seed), false, None)
            .expect("the arena study runs")
            .jsonl;
        let lines = jsonl.split(|&b| b == b'\n').filter(|l| !l.starts_with(b"{\"meta\":"));
        lines.map(<[u8]>::to_vec).collect::<Vec<_>>()
    };
    assert_ne!(records(41), records(42), "distinct seeds should give distinct arena traces");
}

// ---------------------------------------------------------------------
// Byte pins across the lockstep drivers
// ---------------------------------------------------------------------

/// FNV-1a-64 over a byte string (same constants as `cell_prop.rs`'s
/// crowded-cell pin).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01B3))
}

/// Digest of a traced run: report JSON, then the captured JSONL.
fn pin(report: &str, jsonl: &[u8]) -> u64 {
    fnv1a(&[report.as_bytes(), jsonl].concat())
}

/// Byte pin for the shared-cell driver: mixed FBCC/GCC flows under a plan
/// whose access slice (RLF, diag stall — applied by the cell) and path
/// slice (feedback loss — applied by each session's pipes) are both live.
/// A driver or session refactor must leave the constant alone (it last
/// moved with trace schema 2, whose lines refer to a probe by id after
/// naming it once: the same records, re-rendered as schema 1 lines, still
/// gave the old constant; before that with EXPERIMENTS.md deviation D13,
/// the ziggurat's normal draws, D11, background-UE channels read on the
/// 10 ms sounding cadence, and D9, parking).
#[test]
fn multicell_faulted_mixed_flows_are_byte_pinned() {
    use poi360::sim::fault::{FaultKind, FaultPlan};
    use poi360::sim::trace::capture;
    let (t, d) = (SimTime::from_millis, SimDuration::from_millis);
    let cfg = MultiCellConfig {
        flows: vec![
            FlowSpec::with_rate_control(RateControlKind::Fbcc),
            FlowSpec::with_rate_control(RateControlKind::Gcc),
            FlowSpec::with_rate_control(RateControlKind::Fbcc),
        ],
        background_ues: 6,
        duration: SimDuration::from_secs(6),
        seed: 1_607,
        faults: FaultPlan::new()
            .with(FaultKind::DiagStall, t(1_000), d(600))
            .with(FaultKind::RadioLinkFailure, t(2_500), d(300))
            .with(FaultKind::FeedbackLoss { loss: 0.7 }, t(4_000), d(800)),
    };
    let (report, jsonl) =
        capture(None, |sink| MultiCell::traced(cfg, sink.clone()).run().to_json());
    let text = String::from_utf8_lossy(&jsonl);
    for probe in ["fault.radio_link_failure", "fault.diag_stall", "fault.feedback_loss"] {
        assert!(text.contains(probe), "{probe} never fired");
    }
    assert_eq!(pin(&report, &jsonl), 0xd542_fc19_cbd0_5be0, "shared-cell bytes moved");
}

/// Byte pin for the grid driver: a fast convoy over 19 cells in which
/// flows and load UEs each see at least one clean handover and one RLF,
/// at a serial and a ragged shard width. The constant is that of the
/// two-rate radio map with parking background UEs whose channels are read
/// on the sounding cadence (EXPERIMENTS.md, deviations D8, D9 and D11),
/// re-taken with the ziggurat's normal draws (D13) and with trace schema 2
/// (probe ids; the records re-rendered as schema 1 lines gave the D13
/// constant); a driver or session refactor must leave it alone. Under D13 seed 5's flows saw no RLF, so
/// the seed moved to 10, the first one up from 5 whose flows and loads
/// each see both again (the guard below holds on 96 of the seeds 5..205
/// under the ziggurat, 89 under Box–Muller).
#[test]
fn multigrid_fast_convoy_is_byte_pinned() {
    use poi360::core::multicell::{MultiGrid, MultiGridConfig};
    use poi360::lte::grid::A3Config;
    use poi360::sim::trace::capture;
    for shards in [1, 3] {
        let cfg = MultiGridConfig {
            rings: 2,
            isd_m: 160.0,
            speed_mps: 30.0,
            // Conservative enough that some crossings come too late.
            a3: A3Config { hysteresis_db: 12.0, time_to_trigger: SimDuration::from_millis(480) },
            flows: vec![
                FlowSpec::with_rate_control(RateControlKind::Fbcc),
                FlowSpec::with_rate_control(RateControlKind::Gcc),
                FlowSpec::with_rate_control(RateControlKind::Occ),
            ],
            load_ues: 11,
            static_bg_per_cell: 2,
            duration: SimDuration::from_secs(8),
            seed: 10,
            shards,
            ..Default::default()
        };
        let ((report, json), jsonl) = capture(None, |sink| {
            let report = MultiGrid::traced(cfg, sink.clone()).run();
            let json = report.to_json();
            (report, json)
        });
        assert_eq!(report.cells, 19);
        let (ho, rlf) =
            report.flow_stats.iter().fold((0, 0), |(h, r), f| (h + f.handovers, r + f.rlfs));
        assert!(ho >= 1 && rlf >= 1, "flows: {ho} handovers, {rlf} RLFs");
        assert!(
            report.load_handovers >= 1 && report.load_rlfs >= 1,
            "loads: {} handovers, {} RLFs",
            report.load_handovers,
            report.load_rlfs
        );
        assert_eq!(
            pin(&json, &jsonl),
            0x376b_1d89_7b51_d7c4,
            "grid bytes moved at shards {shards}"
        );
    }
}

/// Byte pin for the standalone driver: one FBCC and one OCC session on the
/// scalar `CellUplink`, under a hand-built plan in which all four
/// access-level kinds fire and overlap (the flash crowd spans the diag
/// stall's tail and the RLF; grant starvation follows the re-establishment
/// flush). A refactor of the UE-side uplink mechanics must leave the
/// constants alone; they last moved with trace schema 2 (probe ids; the
/// records re-rendered as schema 1 lines gave the previous constants),
/// before that with the ziggurat's normal draws (EXPERIMENTS.md deviation
/// D13), and before that when the re-establishment
/// subframe stopped logging a TBS out of the buffer it had just flushed
/// (D10).
#[test]
fn standalone_faulted_session_is_byte_pinned() {
    use poi360::sim::fault::{FaultKind, FaultPlan};
    use poi360::sim::trace::capture;
    use poi360::sim::Recorder;
    let (t, d) = (SimTime::from_millis, SimDuration::from_millis);
    let plan = FaultPlan::new()
        .with(FaultKind::DiagStall, t(1_000), d(700))
        .with(FaultKind::FlashCrowd { extra_load: 0.5 }, t(1_400), d(1_600))
        .with(FaultKind::RadioLinkFailure, t(2_500), d(300))
        .with(FaultKind::GrantStarvation { factor: 0.3 }, t(2_700), d(900));
    let mut bytes = Vec::new();
    for rate_control in [RateControlKind::Fbcc, RateControlKind::Occ] {
        let cfg = SessionConfig {
            rate_control,
            duration: SimDuration::from_secs(6),
            ..cfg(1_907, NetworkKind::Cellular(Scenario::baseline()))
        };
        let (report, jsonl) = capture(None, |sink| {
            let recorder = Recorder::to_sink(sink.clone(), rate_control.label());
            Session::faulted_traced(cfg, &plan, recorder).run().to_json()
        });
        let text = String::from_utf8_lossy(&jsonl);
        for probe in [
            "fault.radio_link_failure",
            "fault.diag_stall",
            "fault.grant_starvation",
            "fault.flash_crowd",
        ] {
            assert!(text.contains(probe), "{probe} never fired under {}", rate_control.label());
        }
        bytes.push(pin(&report, &jsonl));
    }
    assert_eq!(
        bytes,
        [0xc5a7_d967_26e5_80a9, 0x985d_127c_a1e4_00bd],
        "standalone bytes moved: {bytes:x?}"
    );
}

/// Byte pin for the path `reproduce study` traces fault cases through:
/// `protocol::run_traced` over lossy presets (an RLF, and the stacked
/// plan), where a session's records go straight from its recorder into its
/// case's `JsonlSink`, not through `BufferSink::drain_into` as in the two
/// driver pins above. Lost packets keep the reassembler's NACK and
/// give-up bookkeeping busy. A change to the JSONL writers, the
/// reassembler or the session's hot path must leave the constant alone;
/// it was taken before the line-middle memo, the hand-written number
/// writers and the given-up map landed, re-taken with the ziggurat's
/// normal draws (EXPERIMENTS.md D13), and again with trace schema 2, whose
/// lines refer to a probe by id after naming it once (the records
/// re-rendered as schema 1 lines gave the D13 constant).
#[test]
fn protocol_traced_lossy_fault_cases_are_byte_pinned() {
    use poi360_bench::protocol::{run_traced, Case, Outcome};
    use poi360_lte::scenario::FaultScenario;
    let mut cases = Vec::new();
    for name in ["rlf", "stacked"] {
        for rc in [RateControlKind::Fbcc, RateControlKind::Gcc] {
            cases.push(Case::Fault {
                src: format!("{name}.{}", rc.label()),
                fs: FaultScenario::by_name(name).expect("preset exists"),
                scheme: CompressionScheme::Poi360,
                rc,
                seconds: 6,
                seed: 2_029,
            });
        }
    }
    let mut jsonl = Vec::new();
    let mut abandoned = 0;
    for (outcome, bytes) in run_traced(cases) {
        assert!(matches!(outcome, Outcome::Fault(_)));
        // The leading stamp names the commit and the command line.
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            if !line.starts_with(b"{\"meta\":") {
                jsonl.extend_from_slice(line);
            }
        }
        abandoned += String::from_utf8_lossy(&bytes).matches("video.frame_abandoned").count();
    }
    assert!(abandoned > 0, "no case lost a frame: the pin would not cover the lossy path");
    assert_eq!(fnv1a(&jsonl), 0xcca2_b646_8fdc_df6f, "run_traced bytes moved");
}

/// A lower bound on the packets a session's pacer released: each
/// `pacer.released_bytes` event is one subframe's release, and no packet is
/// larger than a full payload plus its headers (1 240 bytes).
#[derive(Default)]
struct ReleasedPackets(f64);

impl poi360::sim::trace::TraceSink for ReleasedPackets {
    fn record(&mut self, _src: &str, rec: &poi360::sim::trace::TraceRecord) {
        if rec.name == "pacer.released_bytes" {
            self.0 += (rec.value / 1_240.0).ceil();
        }
    }
}

/// Byte pin for the sessions `paper_grid` runs: its five conditions (POI360
/// under FBCC and GCC, Conduit + GCC, Pano + OCC, and POI360 + GCC over
/// wireline), one user archetype each, 30 s. Every session releases more
/// than the 4 000 packets the sender's retransmission history holds, so the
/// history evicts, which the 6 s pins above never reach. A change to the
/// encoder, the session's sender bookkeeping or the reassembler must leave
/// the constant alone; it was taken before the one-pass encoder and the
/// seq-indexed rings landed, re-taken when the wireline link started
/// serialising a packet no earlier than its enqueue (EXPERIMENTS.md D12),
/// and again with the ziggurat's normal draws (D13). Under D13 base seed
/// 3 000's Pano + OCC session released fewer than 4 000 packets, so the
/// base moved to 3 010, the first one up whose five sessions all do (all
/// five do on 12 of the bases 3 000..3 100 under the ziggurat, 15 under
/// Box–Muller: the Pano + OCC session sits near 4 000).
#[test]
fn paper_grid_conditions_are_byte_pinned() {
    use poi360::sim::Recorder;
    use std::sync::{Arc, Mutex};
    use UserArchetype::{Anchored, EventDriven, Passenger, Saccadic, SmoothPanner};
    // (scheme, rate control, network, user), in `paper_grid`'s condition
    // order; the archetypes rotate so that each condition gets a different
    // one.
    let cellular = NetworkKind::Cellular(Scenario::baseline());
    let conditions = [
        (CompressionScheme::Poi360, RateControlKind::Fbcc, cellular, Saccadic),
        (CompressionScheme::Poi360, RateControlKind::Gcc, cellular, EventDriven),
        (CompressionScheme::Conduit, RateControlKind::Gcc, cellular, Passenger),
        (CompressionScheme::Pano, RateControlKind::Occ, cellular, Anchored),
        (CompressionScheme::Poi360, RateControlKind::Gcc, NetworkKind::Wireline, SmoothPanner),
    ];
    let mut json = String::new();
    for (c, &(scheme, rate_control, network, user)) in conditions.iter().enumerate() {
        let u = UserArchetype::all().iter().position(|&a| a == user).expect("an archetype");
        let cfg = SessionConfig {
            scheme,
            rate_control,
            network,
            user,
            duration: SimDuration::from_secs(30),
            seed: poi360_bench::runner::session_seed(3_010, u, c as u64),
            ..Default::default()
        };
        let sink = Arc::new(Mutex::new(ReleasedPackets::default()));
        let report = Session::traced(cfg, Recorder::to_sink(sink.clone(), "session")).run();
        let released = sink.lock().unwrap().0;
        assert!(released > 4_000.0, "condition {c} released at least {released} packets");
        json.push_str(&report.to_json());
    }
    assert_eq!(fnv1a(json.as_bytes()), 0x2831_7caa_8697_0c21, "paper_grid session bytes moved");
}
