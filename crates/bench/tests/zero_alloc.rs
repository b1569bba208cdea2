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
//! * the cells of the `study mobility --smoke` first-seed grid walk an exactly pinned
//!   number of background UE-subframes — well under half of them, the
//!   rest are parked — and look at a background channel in a tenth of
//!   those, as the busy 500-UE cell does (DESIGN.md §10);
//! * the sharded grid allocates what the serial grid does — the executor
//!   itself (persistent pool dispatch, in-place bundle stepping, recycled
//!   trace staging) contributes nothing, in steady state (bounded) and
//!   over a whole run (exactly equal). This is the gate that would have
//!   caught the original mpsc-based executor's 29x allocation blowup;
//! * a warmed encoder allocates exactly the one buffer of each frame it
//!   returns, its tile weights, and a warmed full session an exactly
//!   pinned number over 5 000 subframes;
//! * frames encoded under one matrix hold exactly their tile weights on
//!   the heap and share that matrix: dropping one frees its weights;
//! * reading a `JsonlSink` stream back allocates for its names and its
//!   one `records` reservation, however many records it holds;
//! * writing one, once every `(src, name, kind)` has its line middle,
//!   allocates nothing per record;
//! * a finished session report, and a pool of such reports, hold exactly
//!   their samples on the heap: dropping one frees its lengths, with no
//!   growth slack left over from the run or the pooling;
//! * so does an analyse pool of the `study cc_matrix --smoke` traces,
//!   added trace by trace or folded at once: every probe buffer's
//!   capacity is its sample count, and storing a fold acquires heap once
//!   per probe buffer, reallocating none.

use poi360_core::multicell::{FlowSpec, MultiGrid, MultiGridConfig};
use poi360_lte::buffer::PacketLike;
use poi360_lte::cell::{Cell, CellConfig};
use poi360_lte::channel::ChannelConfig;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_testkit::alloc::{count_allocs, counting_is_active, live_bytes, GlobalAllocScope};
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
    // D11; last moved with D13, the ziggurat's normal draws, from 173 936 /
    // 17 438): a background channel is looked at once per 10 ms sounding
    // period and once more per awake stretch it opens — fewer than one
    // stretch per UE here — not once per UE-subframe walked.
    assert_eq!((walked, looks), (173_483, 17_393), "walked / channel looks of ticks 1000..2000");
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
    // The first-seed grid of `reproduce study mobility --smoke`, the convoy:
    // 7 cells x 5 static background UEs x 8 000 subframes. An exact work
    // count — it cannot drift with the host — next to the share it has to
    // stay under: a walk-everyone cell would count all 280 000.
    use poi360_bench::mobility::{grid_config, MOBILITY_SMOKE_SECS};
    use poi360_lte::scenario::MobilityScenario;
    let ms = MobilityScenario::by_name("convoy").expect("the convoy preset");
    let cfg = grid_config(&ms, true, MOBILITY_SMOKE_SECS, 1);
    let steps = cfg.duration.as_millis();
    assert_eq!((cfg.rings, cfg.static_bg_per_cell, steps), (1, 5, 8_000));
    let everyone = 7 * 5 * steps;
    let mut grid = MultiGrid::new(cfg);
    (0..steps).for_each(|_| grid.step());
    let (walked, looks) = (grid.background_steps(), grid.background_channel_samples());
    assert!(walked * 100 < everyone * 40, "walked {walked} of {everyone} UE-subframes");
    // Last moved with EXPERIMENTS.md deviation D13, the ziggurat's normal
    // draws (89 396 before it); before that with D11 (89 388 before it: a
    // held verdict shifts when a burst drains, hence when a UE parks).
    assert_eq!(walked, 89_394, "background UE-subframes walked by the smoke grid moved");
    // The channel looks in them: a tenth, plus the first look of each
    // awake stretch (the 35 UEs open fewer than one extra each over 8 s;
    // 8 971 before D13).
    assert_eq!(looks, 8_970, "background channel looks of the smoke grid moved");
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
fn encoder_allocates_one_buffer_per_frame() {
    let _guard = serial();
    // The encoder keeps the previous matrix, and each frame embeds the
    // current one, by sharing the caller's levels; its tile sums need no
    // scratch, and each tile's bits are derived when read. A frame costs
    // the one buffer it hands out, its tile weights. The matrices
    // alternate between two modes and centers, so every frame upgrades
    // tiles, and the content drifts between frames.
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
    assert_eq!(stats.allocs, frames as u64, "allocations of {frames} warmed encodes");
}

/// [`live_bytes`] once other threads have stopped moving it. Holding
/// [`SERIAL`] keeps every other gate out, but not the test harness: as a
/// gate starts, the thread of the test before it is still freeing its own
/// state and the harness is spawning the next test's thread. Both stop
/// within milliseconds, one exiting and the other waiting on `SERIAL`, so
/// a reading that holds for 10 ms moves afterwards only with this thread.
fn settled_live_bytes() -> u64 {
    let mut live = live_bytes();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(10));
        let now = live_bytes();
        if now == live {
            return live;
        }
        live = now;
    }
}

#[test]
fn held_frames_share_their_matrix_and_keep_only_tile_weights() {
    let _guard = serial();
    assert!(counting_is_active(), "this binary installs CountingAlloc");
    // A session holds every frame in flight until the client scores it,
    // up to 300 per flow. Frames encoded under one unchanged matrix, as
    // most are, hold their tile weights of their own and share the
    // matrix with the caller and the encoder, whatever the content does.
    // The encoder is warmed by one frame first: its recorder keeps a
    // counter for the first keyframe.
    use poi360_video::compression::CompressionMode;
    use poi360_video::content::ContentModel;
    use poi360_video::encoder::{EncodedFrame, Encoder, EncoderConfig};
    use poi360_video::frame::{TileGrid, TilePos};
    use poi360_video::roi::Roi;
    use std::mem::size_of;

    let (grid, center, held) = (TileGrid::POI360, TilePos::new(6, 4), 64);
    let weights = (size_of::<f64>() * grid.tile_count()) as u64;
    let config = EncoderConfig::default();
    let mut encoder = Encoder::new(config, 7);
    let mut content = ContentModel::new(grid, 7);
    let mut frames = Vec::with_capacity(held);
    let roi = Roi::at_tile(&grid, center);
    let mut now = SimTime::ZERO;
    let warm = CompressionMode::two_level(1, 1, 48.0).matrix(&grid, center);
    drop(encoder.encode(now, roi, &warm, &content, 3.0e6));

    let before = settled_live_bytes();
    let matrix = CompressionMode::protected_geometric(1.4, 1, 1).matrix(&grid, center);
    let shared = live_bytes() - before;
    assert!(shared >= weights, "a matrix holds its {weights} B of levels, saw {shared} B");
    for _ in 0..held {
        now += config.frame_interval();
        frames.push(encoder.encode(now, roi, &matrix, &content, 3.0e6));
        content.advance_frame();
    }
    assert_eq!(
        live_bytes() - before,
        shared + held as u64 * weights,
        "heap held by {held} frames under one matrix, and that matrix"
    );
    let last = frames.pop().expect("held frames");
    assert_eq!(freed_by(last), weights, "heap freed by dropping one frame");
    assert_eq!(freed_by(matrix), 0, "the caller's matrix is the frames' matrix");
    let slots = (size_of::<EncodedFrame>() * frames.capacity()) as u64;
    assert_eq!(
        freed_by(frames),
        slots + (held - 1) as u64 * weights,
        "heap freed by dropping the other frames: the encoder still holds their matrix"
    );
}

#[test]
fn session_steady_state_allocations_are_pinned() {
    let _guard = serial();
    // The session's per-subframe staging, its seq-indexed RTX history and
    // frame store, and the reassembler's idle polls reuse their capacity.
    // What still allocates comes once per frame or per feedback message:
    // the encoded frame's tile weights, its packet vector, the
    // reassembler's received flags, the ROI's field-of-view tiles, a
    // rebuilt matrix (the memo, the encoder and the frames share it), NACK
    // lists. Over these 5 000 subframes (180 frames) of a seeded FBCC
    // session that is an exact count, 0.15 per subframe. It follows the
    // realisation: 747 before EXPERIMENTS.md deviation D13, the ziggurat's
    // normal draws.
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
    assert_eq!(stats.allocs, 752, "allocations of 5 000 warmed session subframes");
}

/// Probe names and sources of [`ingest_allocs`]' streams. Statics, not
/// consts: `JsonlSink` keys names by address first, then by text, and each
/// use of a const may see its own copy of a literal, which costs one
/// allocation the first time the sink meets that address.
static INGEST_NAMES: [&str; 6] =
    ["cell.prb_grant", "pacer.rate_bps", "fbcc.gamma_bytes", "a.b", "c.d_ns", "e.f"];
static INGEST_SRCS: [&str; 4] = ["fg.00", "fg.01", "cell.03", "baseline.fbcc.s1"];

/// Heap allocations `RunTrace::parse_bytes` makes at pool width `width`
/// on a stamped `JsonlSink` stream of `records` probe records, whose first
/// chunk names every probe of [`INGEST_NAMES`] x [`INGEST_SRCS`] and whose
/// later chunks refer to them by id. The fewest
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
    // `RunTrace::parse_bytes` cuts no chunk under 192 KiB.
    let floor = width * (192 << 10);
    assert!(
        width == 1 || bytes.len() >= floor,
        "{} bytes are fewer than {width} chunks",
        bytes.len()
    );
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
    // and source it meets (plus their tables' growth, the segment's probe
    // ids and the merge's id maps), and the `records` reservation — none
    // of which knows how long the stream is. The generic path cost ~9 per
    // record.
    let (small, large) = (ingest_allocs(1, 100), ingest_allocs(1, 10_000));
    assert_eq!(large, small, "serial ingest allocations grew with the record count");
    assert!(large < 64, "{large} allocations for 6 names, 4 sources and one stamp");

    // 40 000 records are past four chunks' floor, so both streams are cut
    // in four.
    let (wide, wider) = (ingest_allocs(4, 40_000), ingest_allocs(4, 400_000));
    assert_eq!(wide, wider, "chunked ingest allocations grew with the record count");
    let per_chunk = INGEST_NAMES.len() + INGEST_SRCS.len();
    assert!(wide < (4 * per_chunk + 64) as u64, "{wide} allocations for 4 chunks");
}

/// Heap allocations a warmed `JsonlSink` makes writing `records` probe
/// records, counted on this thread (the sink never leaves it, so other
/// threads cannot blur the count), the fewest of three runs. The warm-up writes
/// one record of every `(src, name, kind)` the measured stream uses, with
/// a value longer than any it will meet; the stream has room reserved for
/// every line before counting starts, so what is counted is the sink
/// alone: probe lookups, line middles, counts.
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
        // Room for the 60 warm-up lines and the measured ones, each under
        // 160 bytes.
        let mut sink = JsonlSink::to_writer(Vec::with_capacity(160 * (60 + records as usize)));
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
    // and the stream room for every line: a record formats its timestamp
    // and value onto the stream and nothing else.
    let (small, large) = (jsonl_sink_allocs(100), jsonl_sink_allocs(10_000));
    assert_eq!(large, small, "JsonlSink allocations grew with the record count");
    assert_eq!(small, 0, "a warmed JsonlSink allocated {small} times for 100 records");
}

/// Heap bytes freed by dropping `value`, on any thread (the caller holds
/// [`SERIAL`], so nothing else allocates or frees meanwhile).
fn freed_by<T>(value: T) -> u64 {
    let before = live_bytes();
    drop(value);
    before - live_bytes()
}

#[test]
fn finished_reports_and_pools_hold_exactly_their_samples() {
    let _guard = serial();
    assert!(counting_is_active(), "this binary installs CountingAlloc");
    // Reports and pools live until the figures are rendered, so each
    // buffer in them leaves its run at exactly its length: a report's
    // series, PSNRs and delays, a pool's samples. Dropping one frees
    // those lengths and its label's capacity, not a byte more.
    use poi360_core::config::{NetworkKind, SessionConfig};
    use poi360_core::report::{Aggregate, SessionReport};
    use poi360_core::session::Session;
    use poi360_lte::scenario::Scenario;
    use std::mem::size_of;

    let reports: Vec<SessionReport> = (1..=5)
        .map(|seed| {
            Session::new(SessionConfig {
                network: NetworkKind::Cellular(Scenario::baseline()),
                duration: SimDuration::from_secs(20),
                seed,
                ..Default::default()
            })
            .run()
        })
        .collect();
    // Both pooling paths: two reports added, three more added to a second
    // pool and merged in, the way the figure pools fold users together.
    let (mut pool, mut tail) = (Aggregate::new("pool"), Aggregate::new("tail"));
    reports[..2].iter().for_each(|r| pool.add(r));
    reports[2..].iter().for_each(|r| tail.add(r));
    pool.merge(&tail);

    let f64s = |lens: &[usize]| (size_of::<f64>() * lens.iter().sum::<usize>()) as u64;
    for (k, report) in reports.into_iter().enumerate() {
        assert!(!report.fw_buffer.is_empty() && !report.roi_psnr_db.is_empty());
        let series = [
            &report.roi_level,
            &report.mismatch_ms,
            &report.fw_buffer,
            &report.phy_rate,
            &report.video_rate,
            &report.rtp_rate,
            &report.throughput,
        ];
        let samples: usize = series.iter().map(|s| s.len()).sum();
        let payload = (size_of::<(SimTime, f64)>() * samples) as u64
            + f64s(&[report.roi_psnr_db.len(), report.freeze.delays_ms().len()])
            + report.label.capacity() as u64;
        assert_eq!(freed_by(report), payload, "heap held by finished report {k}");
    }
    for pool in [pool, tail] {
        assert!(!pool.buffer_rate_pairs.is_empty());
        let payload = f64s(&[
            pool.roi_psnr_db.len(),
            pool.freeze.delays_ms().len(),
            pool.level_stds.len(),
            pool.mismatch_ms.len(),
            pool.fw_buffer.len(),
            pool.session_throughputs.len(),
            pool.throughput_samples.len(),
        ]) + (size_of::<(f64, f64)>() * pool.buffer_rate_pairs.len()) as u64
            + pool.label.capacity() as u64;
        let label = pool.label.clone();
        assert_eq!(freed_by(pool), payload, "heap held by pool {label:?}");
    }
}

/// A fold counts its traces' samples per probe before it stores any, so
/// after the `study cc_matrix --smoke` traces are pooled — each case in
/// turn through `Pool::add`, the study artifact as one trace, and both
/// folded at once the way `study_report` folds its cases and its
/// baseline — no buffer has growth slack. Dropping a pool frees exactly
/// what dropping a copy of it frees, and a copy holds every `Vec` and
/// `String` at its length; as no buffer holds less than its length,
/// equal totals mean every probe buffer's capacity equals its sample
/// count. Storing a counted fold acquires heap once per probe buffer and
/// for nothing else: no sample buffer is ever reallocated while folding.
#[test]
fn analyse_pools_hold_exactly_their_samples() {
    let _guard = serial();
    assert!(counting_is_active(), "this binary installs CountingAlloc");
    use poi360_analyse::aggregate::{Pool, Tally};
    use poi360_analyse::ingest::RunTrace;
    use poi360_analyse::study::by_name;
    use poi360_bench::study::{run_cases, smoke_variant};

    let cfg = smoke_variant(&by_name("cc_matrix").expect("preset exists"));
    let cases = run_cases(&cfg, true);
    let parse = |bytes: &[u8]| RunTrace::parse_bytes(bytes).expect("the study's JSONL parses");
    let artifact: Vec<u8> = cases.iter().flat_map(|c| c.bytes.iter().copied()).collect();
    let whole = parse(&artifact);
    let traces: Vec<RunTrace> = cases.iter().map(|c| parse(&c.bytes)).collect();
    let mut per_case = Pool::new();
    traces.iter().for_each(|trace| per_case.add(trace));
    let mut one_trace = Pool::new();
    one_trace.add(&whole);

    let mut pools = vec![("each case in turn".to_string(), per_case)];
    pools.push(("the study artifact".to_string(), one_trace));
    for (what, traces, rollup) in [
        ("the cases folded", traces.iter().collect(), true),
        ("the artifact folded", vec![&whole], false),
    ] {
        let tally = Tally::new(traces, rollup);
        let scope = GlobalAllocScope::enter();
        let fold = tally.store();
        let stored = scope.exit().allocs;
        let pool = fold.into_pool();
        let buffers = pool.clone().stats().len() as u64;
        assert_eq!(stored, buffers, "{what}: heap acquired by storing vs probe buffers");
        pools.push((what.to_string(), pool));
    }
    for (what, pool) in pools {
        let samples: u64 = pool.clone().stats().iter().map(|s| s.samples).sum();
        let exact = freed_by(pool.clone());
        assert!(samples > 0 && exact >= 8 * samples, "{what}: {samples} samples, {exact} B");
        assert_eq!(freed_by(pool), exact, "heap held by the pool of {what}");
    }
}
