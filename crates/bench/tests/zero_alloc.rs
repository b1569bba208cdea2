//! The exact allocation gates, as regression tests (`ci.sh` runs this
//! binary in release).
//!
//! This test binary installs the counting allocator for real (the lib
//! test binary deliberately does not), self-checks that counting works,
//! and then asserts DESIGN.md §10's claims, none of which is a wall-clock
//! reading:
//!
//! * once pools and scratch buffers have grown to their working
//!   capacity, a busy 500-UE cell's subframe + recycle loop performs
//!   **zero** heap allocations, and so does a typical 12-UE cell over a
//!   window in which every background UE parks and wakes;
//! * the cells of the `mobility --smoke` grid walk an exactly pinned
//!   number of background UE-subframes — well under half of them, the
//!   rest are parked — and look at a background channel in a tenth of
//!   those, as the busy 500-UE cell does (DESIGN.md §10);
//! * the sharded grid allocates what the serial grid does — the executor
//!   itself (persistent pool dispatch, in-place bundle stepping, recycled
//!   trace staging) contributes nothing, in steady state (bounded) and
//!   over a whole run (exactly equal). This is the gate that would have
//!   caught the original mpsc-based executor's 29x allocation blowup;
//! * a warmed encoder allocates exactly the two buffers of each frame it
//!   returns, and a warmed full session an exactly pinned number over
//!   5 000 subframes;
//! * reading a `JsonlSink` stream back allocates for its names and its
//!   one `records` reservation, however many records it holds;
//! * writing one, once every `(src, name, kind)` has its line middle,
//!   allocates nothing per record.

use poi360_core::multicell::{FlowSpec, MultiGrid, MultiGridConfig};
use poi360_lte::buffer::PacketLike;
use poi360_lte::cell::{Cell, CellConfig};
use poi360_lte::channel::ChannelConfig;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_testkit::alloc::{count_allocs, counting_is_active, GlobalAllocScope};
use std::hint::black_box;

#[global_allocator]
static ALLOC: poi360_testkit::CountingAlloc = poi360_testkit::CountingAlloc;

/// The zero-alloc gate counts with the shard-aware *global* scope, so a
/// concurrent test allocating on another thread would show up in its
/// delta. Every test in this binary takes the lock; the gate gets the
/// process to itself.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Take [`SERIAL`]. A gate that fails panics holding it; the poison says
/// nothing about the next gate, which must report its own verdict rather
/// than die on a `PoisonError`: one moved pin is one failure, not five.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Ticks skipped before the zero-alloc window opens (pool/scratch
/// capacities settle during these).
const WARM_TICKS: u64 = 1_000;

/// Ticks measured by the zero-alloc gate.
const GATE_TICKS: u64 = 1_000;

/// Grid epochs stepped before the sharded bounded-alloc window opens
/// (session/cell scratch settles, trace buffers reach their high-water
/// capacity, and the persistent pool spawns its workers).
const GRID_WARM_EPOCHS: u64 = 200;

/// Grid epochs measured by the sharded bounded-alloc gate.
const GRID_GATE_EPOCHS: u64 = 200;

/// Allocation headroom allowed for the sharded grid over the serial
/// grid across [`GRID_GATE_EPOCHS`] epochs. The simulation is
/// byte-identical at every width, so the honest expectation is *equal*
/// allocation counts; the slack only absorbs one-off lazy-init noise
/// (thread-local storage, a first-use `OnceLock`) that can land inside
/// the window on some platforms.
const GRID_ALLOC_SLACK: u64 = 64;

struct Pkt;
impl PacketLike for Pkt {
    fn wire_bytes(&self) -> u32 {
        1_240
    }
}

/// Heap allocations on **any** thread while `f` runs: at shard widths
/// ≥ 2 most of the work (and so any executor-leaked allocation) happens
/// on pool worker threads a thread-local count would never see.
fn global_allocs(f: impl FnOnce()) -> u64 {
    let scope = GlobalAllocScope::enter();
    f();
    scope.exit().allocs
}

/// The steady-state zero-alloc probe: a cell loop with one backlogged
/// foreground UE among `background` background ones, allocation count
/// taken over ticks `warm..warm + gate`, returned with the background
/// UE-subframes walked in that window and the looks taken at a background
/// channel in them. Counted globally so
/// the gate stays honest for hot loops that fan out to worker threads
/// (the loop here is serial today, but the gate must not silently go
/// blind the day it isn't).
fn steady_state_allocs(background: usize, warm: u64, gate: u64) -> (u64, u64, u64) {
    let mut cell = Cell::new(CellConfig::default(), 42);
    let fg = cell.attach_foreground("fg.0", ChannelConfig::default());
    cell.attach_background_population(background);
    let mut now = SimTime::ZERO;
    let mut tick = |cell: &mut Cell<Pkt>| {
        while cell.buffer_level(fg) < 20_000 {
            cell.enqueue(fg, Pkt, now);
        }
        now += poi360_sim::SUBFRAME;
        let out = cell.subframe(now);
        black_box(&out);
        cell.recycle(out);
    };
    for _ in 0..warm {
        tick(&mut cell);
    }
    let (walked_before, looks_before) =
        (cell.background_steps(), cell.background_channel_samples());
    let allocs = global_allocs(|| (0..gate).for_each(|_| tick(&mut cell)));
    (
        allocs,
        cell.background_steps() - walked_before,
        cell.background_channel_samples() - looks_before,
    )
}

/// A short 19-cell grid run (2 hex rings) advanced for 0.2 s of simulated
/// time at the given shard width. Per-cell populations are kept small so
/// the *cell count* dominates the cost, not per-cell scheduler load.
fn grid_scale_config(shards: usize) -> MultiGridConfig {
    MultiGridConfig {
        rings: 2,
        isd_m: 300.0,
        speed_mps: 30.0,
        flows: vec![FlowSpec::default(); 2],
        load_ues: 16,
        static_bg_per_cell: 2,
        duration: SimDuration::from_secs_f64(0.2),
        seed: 9,
        shards,
        ..Default::default()
    }
}

/// The sharded-grid bounded-alloc probe: step a 19-cell grid at the
/// given shard width for [`GRID_WARM_EPOCHS`] epochs, then count global
/// heap allocations over the next [`GRID_GATE_EPOCHS`].
///
/// The simulation itself legitimately allocates at a low steady rate
/// (frame encodes, handover bookkeeping), and — because output is
/// byte-identical at every width — at a rate *independent of the shard
/// width*. The gate therefore compares widths against each other rather
/// than against zero.
fn grid_steady_allocs(shards: usize) -> u64 {
    let mut cfg = grid_scale_config(shards);
    // Far beyond what this probe will ever step: sessions must not end
    // inside the measured window.
    cfg.duration = SimDuration::from_secs(1_000);
    let mut grid = MultiGrid::new(cfg);
    for _ in 0..GRID_WARM_EPOCHS {
        grid.step();
    }
    global_allocs(|| (0..GRID_GATE_EPOCHS).for_each(|_| grid.step()))
}

#[test]
fn counting_allocator_actually_counts() {
    let _guard = serial();
    assert!(counting_is_active(), "this binary installs CountingAlloc");
    let ((), stats) = count_allocs(|| {
        let v: Vec<u64> = Vec::with_capacity(32);
        black_box(&v);
    });
    assert!(stats.allocs >= 1, "a Vec::with_capacity must be observed");
    assert!(stats.bytes >= 32 * 8, "observed {} bytes", stats.bytes);
}

#[test]
fn steady_state_subframes_do_not_allocate() {
    let _guard = serial();
    let (allocs, walked, looks) = steady_state_allocs(499, WARM_TICKS, GATE_TICKS);
    assert_eq!(allocs, 0, "ticks 1000.. of a busy 500-UE cell must not touch the heap");
    // The exact work counts of the same window (EXPERIMENTS.md deviation
    // D11): a background channel is looked at once per 10 ms sounding
    // period and once more per awake stretch it opens — fewer than one
    // stretch per UE here — not once per UE-subframe walked.
    assert_eq!((walked, looks), (173_936, 17_438), "walked / channel looks of ticks 1000..2000");
    assert!(looks * 10 <= walked + 10 * 499, "{looks} looks for {walked} UE-subframes");
}

#[test]
fn parking_and_waking_do_not_allocate() {
    let _guard = serial();
    // A typical cell (12 background UEs, as on the mobility grids) over
    // 60 s: OFF dwells average 1-6 s, so every UE parks and wakes several
    // times inside the window — the walked count says so — and neither
    // transition may reach the heap. The warm-up is 30 s here because the
    // sources start OFF: the allocator's scratch vectors reach their final
    // capacity (16 >= 13 UEs) the first time nine UEs file claims in one
    // subframe, which this seed does between 20 and 30 s.
    let (background, warm, gate) = (12, 30_000, 60_000);
    let (allocs, walked, _) = steady_state_allocs(background, warm, gate);
    assert_eq!(allocs, 0, "a parking 12-UE cell must not touch the heap");
    let everyone = background as u64 * gate;
    assert!(
        walked > everyone / 10 && walked < everyone * 6 / 10,
        "walked {walked} of {everyone} UE-subframes: the window must mix parked and awake"
    );
}

#[test]
fn mobility_smoke_grid_walks_a_pinned_share_of_its_background_ues() {
    let _guard = serial();
    // The `reproduce mobility --smoke` convoy grid at its default seed:
    // 7 cells x 5 static background UEs x 8 000 subframes. An exact work
    // count — it cannot drift with the host — next to the share it has to
    // stay under: a walk-everyone cell would count all 280 000.
    use poi360_bench::mobility::{grid_config, MobilityScale};
    use poi360_lte::scenario::MobilityScenario;
    let ms = MobilityScenario::by_name("convoy").expect("the convoy preset");
    let cfg = grid_config(&ms, &MobilityScale::smoke(), 1);
    let steps = cfg.duration.as_millis();
    assert_eq!((cfg.rings, cfg.static_bg_per_cell, steps), (1, 5, 8_000));
    let everyone = 7 * 5 * steps;
    let mut grid = MultiGrid::new(cfg);
    (0..steps).for_each(|_| grid.step());
    let (walked, looks) = (grid.background_steps(), grid.background_channel_samples());
    assert!(walked * 100 < everyone * 40, "walked {walked} of {everyone} UE-subframes");
    // Last moved with EXPERIMENTS.md deviation D11 (89 388 before it: a
    // held verdict shifts when a burst drains, hence when a UE parks).
    assert_eq!(walked, 89_396, "background UE-subframes walked by the smoke grid moved");
    // The channel looks in them: a tenth, plus the first look of each
    // awake stretch (the 35 UEs open fewer than one extra each over 8 s).
    assert_eq!(looks, 8_971, "background channel looks of the smoke grid moved");
    assert!(looks * 10 <= walked + 10 * 35, "{looks} looks for {walked} UE-subframes");
}

#[test]
fn sharded_grid_steady_state_allocs_are_bounded_by_serial() {
    let _guard = serial();
    // The persistent epoch pool steps cell bundles in place, so once the
    // warm-up epochs have grown every pool, a width-4 grid's steady-state
    // epochs must allocate what the serial path does — the simulation is
    // byte-identical across widths — give or take a small constant for
    // pool-internal bookkeeping. This is what catches a parallel path
    // that allocates per epoch (channels, boxed jobs, moved bundles).
    let serial = grid_steady_allocs(1);
    let sharded = grid_steady_allocs(4);
    assert!(
        sharded <= serial + GRID_ALLOC_SLACK,
        "sharded grid steady state allocates {sharded} vs serial {serial} — \
         the parallel path has regressed past the {GRID_ALLOC_SLACK} alloc slack",
    );
}

#[test]
fn grid_whole_run_allocs_are_equal_across_widths() {
    let _guard = serial();
    // Construction + every epoch + the report: identical simulations
    // allocate identically, so the sharded path adds exactly nothing
    // over a whole run either. One unmeasured width-4 run first: the
    // pool's workers spawn once per process, and first-use statics
    // initialise once, whichever test happens to run first.
    let whole_run =
        |shards| global_allocs(|| drop(black_box(MultiGrid::new(grid_scale_config(shards)).run())));
    whole_run(4);
    assert_eq!(whole_run(1), whole_run(4), "whole-run allocations moved with the shard width");
}

#[test]
fn encoder_allocates_two_buffers_per_frame() {
    let _guard = serial();
    // Once the encoder holds a previous matrix it refills that one in
    // place, and its tile sums need no scratch: a frame costs the two
    // buffers it hands out, its tile vector and its embedded matrix. The
    // matrices alternate between two modes and centers, so every frame
    // upgrades tiles, and the content drifts between frames.
    use poi360_video::compression::CompressionMode;
    use poi360_video::content::ContentModel;
    use poi360_video::encoder::{Encoder, EncoderConfig};
    use poi360_video::frame::{TileGrid, TilePos};
    use poi360_video::roi::Roi;

    let grid = TileGrid::POI360;
    let (a, b) = (TilePos::new(6, 4), TilePos::new(2, 3));
    let matrices = [
        (Roi::at_tile(&grid, a), CompressionMode::protected_geometric(1.4, 1, 1).matrix(&grid, a)),
        (Roi::at_tile(&grid, b), CompressionMode::two_level(1, 1, 48.0).matrix(&grid, b)),
    ];
    let config = EncoderConfig::default();
    let mut encoder = Encoder::new(config, 7);
    let mut content = ContentModel::new(grid, 7);
    let mut now = SimTime::ZERO;
    let mut encode = |k: usize, content: &ContentModel| {
        let (roi, matrix) = &matrices[k % 2];
        now += config.frame_interval();
        black_box(encoder.encode(now, *roi, matrix, content, 3.0e6));
    };
    encode(0, &content);
    let frames = 256;
    let ((), stats) = count_allocs(|| {
        for k in 1..=frames {
            content.advance_frame();
            encode(k, &content);
        }
    });
    assert_eq!(stats.allocs, 2 * frames as u64, "allocations of {frames} warmed encodes");
}

#[test]
fn session_steady_state_allocations_are_pinned() {
    let _guard = serial();
    // The session's per-subframe staging, its seq-indexed RTX history and
    // frame store, and the reassembler's idle polls reuse their capacity.
    // What still allocates comes once per frame or per feedback message:
    // the encoded frame's two buffers, its packet vector, the
    // reassembler's received flags, the ROI's field-of-view tiles, a
    // rebuilt matrix, NACK lists. Over these 5 000 subframes (180 frames)
    // of a seeded FBCC session that is an exact count, 0.22 per subframe.
    use poi360_core::config::{NetworkKind, RateControlKind, SessionConfig};
    use poi360_core::session::Session;
    use poi360_lte::scenario::Scenario;

    let mut s = Session::new(SessionConfig {
        rate_control: RateControlKind::Fbcc,
        network: NetworkKind::Cellular(Scenario::baseline()),
        duration: SimDuration::from_secs(1_000_000),
        seed: 1,
        ..Default::default()
    });
    for _ in 0..5_000 {
        s.step();
    }
    let ((), stats) = count_allocs(|| {
        for _ in 0..5_000 {
            s.step();
        }
        black_box(s.now());
    });
    assert_eq!(stats.allocs, 1_107, "allocations of 5 000 warmed session subframes");
}

/// Probe names and sources of [`ingest_allocs`]' streams. Statics, not
/// consts: `JsonlSink` matches names by address, and each use of a const
/// may see its own copy of a literal, so a warm-up and a measured loop
/// inlined apart could meet different names and render every middle twice.
static INGEST_NAMES: [&str; 6] =
    ["cell.prb_grant", "pacer.rate_bps", "fbcc.gamma_bytes", "a.b", "c.d_ns", "e.f"];
static INGEST_SRCS: [&str; 4] = ["fg.00", "fg.01", "cell.03", "baseline.fbcc.s1"];

/// Heap allocations `RunTrace::parse_bytes` makes at pool width `width`
/// on a stamped `JsonlSink` stream of `records` probe records, every chunk
/// of which meets all of [`INGEST_NAMES`] and [`INGEST_SRCS`]. The fewest
/// of three parses: the count is exact, and what else lands in a
/// process-wide count (the pool's first spawn and `OnceLock`, the test
/// harness reporting the previous test) only adds. A serial parse runs on
/// this thread alone, so at width 1 only this thread is counted: other
/// threads' allocations early in this test (1 to 6 seen per parse) could
/// land in all three short parses of a small stream.
fn ingest_allocs(width: usize, records: u64) -> u64 {
    use poi360_bench::runner::with_worker_threads;
    use poi360_sim::trace::{JsonlSink, ProbeKind, RunMeta, TraceRecord, TraceSink};
    let mut sink = JsonlSink::to_writer(Vec::new());
    sink.stamp(&RunMeta { schema: 1, commit: "pinned".into(), argv: Vec::new(), seed: 1 });
    for k in 0..records {
        let rec = TraceRecord {
            at: SimTime::from_micros(k * 1_000),
            name: INGEST_NAMES[(k % 6) as usize],
            kind: [ProbeKind::Gauge, ProbeKind::Counter, ProbeKind::Event][(k % 3) as usize],
            value: if k % 97 == 0 { f64::NAN } else { k as f64 * 0.37 - 11.0 },
        };
        sink.record(INGEST_SRCS[(k / 5 % 4) as usize], &rec);
    }
    let bytes = sink.into_inner();
    let parse = || {
        let mut trace = None;
        let allocs = with_worker_threads(width, || {
            let parse = || trace = Some(poi360_analyse::ingest::RunTrace::parse_bytes(&bytes));
            if width == 1 {
                count_allocs(parse).1.allocs
            } else {
                global_allocs(parse)
            }
        });
        let trace = trace.and_then(Result::ok).expect("the sink's own stream parses");
        assert_eq!(trace.len() as u64, records);
        assert_eq!(trace.generic_records(), 0, "a JsonlSink stream reads on the shaped path");
        allocs
    };
    (0..3).map(|_| parse()).min().expect("three parses")
}

#[test]
fn ingest_allocations_do_not_grow_with_the_record_count() {
    let _guard = serial();
    // Per record the shaped path borrows its strings from the line and
    // writes into its chunk's window of the one reservation; what is left
    // is the stamp's JSON tree, per chunk one `String` per distinct name
    // and source (plus their tables' growth and the merge's id maps), and
    // the `records` reservation — none of which knows how long the stream
    // is. The generic path cost ~9 per record.
    let (small, large) = (ingest_allocs(1, 100), ingest_allocs(1, 10_000));
    assert_eq!(large, small, "serial ingest allocations grew with the record count");
    assert!(large < 64, "{large} allocations for 6 names, 4 sources and one stamp");

    // 10 000 records are past four chunks' floor, so both streams are cut
    // in four.
    let (wide, wider) = (ingest_allocs(4, 10_000), ingest_allocs(4, 100_000));
    assert_eq!(wide, wider, "chunked ingest allocations grew with the record count");
    let per_chunk = INGEST_NAMES.len() + INGEST_SRCS.len();
    assert!(wide < (4 * per_chunk + 64) as u64, "{wide} allocations for 4 chunks");
}

/// Heap allocations a warmed `JsonlSink` makes writing `records` probe
/// records, counted on this thread (the sink never leaves it, so other
/// threads cannot blur the count), the fewest of three runs. The warm-up writes
/// one record of every `(src, name, kind)` the measured stream uses, with
/// a value longer than any it will meet; the writer discards its bytes, so
/// what is counted is the sink alone: line middles, counts, line buffer.
fn jsonl_sink_allocs(records: u64) -> u64 {
    use poi360_sim::trace::{JsonlSink, ProbeKind, TraceRecord, TraceSink};
    const KINDS: [ProbeKind; 3] = [ProbeKind::Gauge, ProbeKind::Counter, ProbeKind::Event];
    let rec = |k: u64, value: f64| TraceRecord {
        at: SimTime::from_micros(k * 1_000),
        name: INGEST_NAMES[(k % 6) as usize],
        kind: KINDS[(k % 3) as usize],
        value,
    };
    let src = |k: u64| INGEST_SRCS[(k / 5 % 4) as usize];
    let run = || {
        let mut sink = JsonlSink::to_writer(std::io::sink());
        // One period of the stream's (src, name, kind) cycle.
        for k in 0..60 {
            let late = SimTime::from_micros(1 << 50);
            sink.record(src(k), &TraceRecord { at: late, ..rec(k, -f64::MIN_POSITIVE) });
        }
        let ((), stats) = count_allocs(|| {
            for k in 0..records {
                // Integral values, `{:?}` values and nulls.
                let value = match k % 5 {
                    0 => f64::NAN,
                    1 | 2 => (k * 9_000) as f64,
                    _ => k as f64 * 0.37 - 11.0,
                };
                sink.record(src(k), &rec(k, value));
            }
        });
        stats.allocs
    };
    (0..3).map(|_| run()).min().expect("three runs")
}

#[test]
fn warmed_jsonl_sink_allocations_do_not_grow_with_the_record_count() {
    let _guard = serial();
    // Every `(src, name, kind)` has its rendered middle after the warm-up,
    // and the line buffer its longest line: a record formats its timestamp
    // and value into that buffer and nothing else.
    let (small, large) = (jsonl_sink_allocs(100), jsonl_sink_allocs(10_000));
    assert_eq!(large, small, "JsonlSink allocations grew with the record count");
    assert_eq!(small, 0, "a warmed JsonlSink allocated {small} times for 100 records");
}
