//! Lockstep driver for M telephony sessions sharing one eNodeB cell.
//!
//! The paper could only put *one* instrumented phone in a commercial
//! cell; everything else in the cell was uncontrolled. [`MultiCell`] is
//! the controlled version of that experiment: M foreground sessions (each
//! a full [`Session`] with its own encoder, rate control, and viewer) are
//! attached to a single [`Cell`] alongside a population of background
//! UEs, and the whole ensemble advances one 1 ms subframe at a time —
//! every session runs its sender/pacer phases, the cell runs one
//! proportional-fair allocation across all UEs, and every session then
//! absorbs its own slice of the grant. The entire run is a deterministic
//! function of one master seed.
//!
//! [`MultiGrid`] scales the same lockstep discipline to a hex lattice of
//! cells with ground mobility: each subframe moves every UE, refreshes
//! its radio observation (path loss + shadowing + neighbor-cell
//! interference), runs the A3/RLF decision, migrates firmware buffers
//! across cells on handover, and then lets every cell run its own PF
//! allocation. Interference couples cells through the *previous*
//! subframe's published PRB activity, so cells can be stepped in any
//! order — including in parallel. The grid driver exploits exactly that,
//! twice per subframe, on the process-wide persistent pool
//! ([`poi360_sim::workers`]) at `MultiGridConfig::shards` width: first
//! the radio prologue (every mobile UE's shadowing, path loss and
//! milliwatt rows — [`RadioMap::advance_all`], most of a step's cost and
//! independent of everything the cells produce), then the cells, each
//! one's per-subframe work bundled into a `Send` [`CellWork`] arena entry
//! stepped **in place**. All cross-cell effects (measurements against
//! the published activity, handover migrations, interference
//! publication, trace merging) are confined to the serial stretches in
//! fixed UE / cell-id order. Nothing moves and nothing allocates on the
//! parallel paths. Output is byte-identical at any shard width.

use crate::config::{CompressionScheme, NetworkKind, RateControlKind, SessionConfig};
use crate::report::SessionReport;
use crate::session::Session;
use poi360_lte::cell::background::{BackgroundTraffic, BackgroundTrafficConfig};
use poi360_lte::cell::{Cell, CellConfig, UeId};
use poi360_lte::channel::ChannelConfig;
use poi360_lte::grid::{
    A3Config, A3State, CellId, GroundMotion, HexGrid, HoDecision, MobilityKind, RadioConfig,
    RadioMap, RadioUe,
};
use poi360_lte::scenario::BackgroundLoad;
use poi360_net::packet::{FlowKind, Packet};
use poi360_sim::fault::FaultPlan;
use poi360_sim::json::{JsonObject, ToJson};
use poi360_sim::rng::SimRng;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::trace::{BufferSink, SinkHandle};
use poi360_sim::Recorder;
use poi360_video::roi::Roi;
use poi360_viewport::motion::UserArchetype;
use std::sync::{Arc, Mutex};

/// One foreground session's knobs within a shared cell.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Spatial compression scheme.
    pub scheme: CompressionScheme,
    /// Rate control.
    pub rate_control: RateControlKind,
    /// Viewer behaviour.
    pub user: UserArchetype,
}

impl Default for FlowSpec {
    fn default() -> Self {
        FlowSpec {
            scheme: CompressionScheme::Poi360,
            rate_control: RateControlKind::Fbcc,
            user: UserArchetype::EventDriven,
        }
    }
}

impl FlowSpec {
    /// A POI360 flow with the given rate control.
    pub fn with_rate_control(rate_control: RateControlKind) -> Self {
        FlowSpec { rate_control, ..Default::default() }
    }
}

/// Configuration of a shared-cell run.
#[derive(Clone, Debug)]
pub struct MultiCellConfig {
    /// Cell-wide scheduler parameters.
    pub cell: CellConfig,
    /// Radio config applied to every foreground UE.
    pub channel: ChannelConfig,
    /// Background UE population size (emergent competing load).
    pub background_ues: usize,
    /// The foreground sessions.
    pub flows: Vec<FlowSpec>,
    /// Run length.
    pub duration: SimDuration,
    /// Master seed; the cell and every flow derive named streams from it.
    pub seed: u64,
    /// Initial encoding bitrate for every flow, bps.
    pub start_rate_bps: f64,
    /// Fault plan: access-level kinds are applied by the shared cell (to
    /// every foreground UE at once), path-level kinds by each session's
    /// pipes. Empty by default — a no-op.
    pub faults: FaultPlan,
}

impl Default for MultiCellConfig {
    fn default() -> Self {
        MultiCellConfig {
            cell: CellConfig::default(),
            channel: ChannelConfig::default(),
            background_ues: poi360_lte::cell::background_population_for(BackgroundLoad::Typical),
            flows: vec![FlowSpec::default(); 2],
            duration: SimDuration::from_secs(60),
            seed: 1,
            start_rate_bps: 1.0e6,
            faults: FaultPlan::new(),
        }
    }
}

/// Results of a shared-cell run.
#[derive(Clone, Debug)]
pub struct MultiCellReport {
    /// Per-flow session reports, in flow order.
    pub flows: Vec<SessionReport>,
    /// Mean fraction of cell PRBs granted per subframe over the run.
    pub mean_utilization: f64,
}

impl MultiCellReport {
    /// Jain's fairness index over the flows' mean throughputs.
    pub fn jain_throughput(&self) -> f64 {
        let rates: Vec<f64> = self.flows.iter().map(|f| f.mean_throughput_bps()).collect();
        poi360_metrics::fairness::jain_index(&rates)
    }
}

impl ToJson for MultiCellReport {
    fn write_json(&self, out: &mut String) {
        JsonObject::new()
            .field("mean_utilization", &self.mean_utilization)
            .field("jain_throughput", &self.jain_throughput())
            .field("flows", &self.flows)
            .write(out);
    }
}

/// The driver itself. Owns the cell directly (no shared handles): each
/// subframe it lends the cell mutably into every session's driver hooks.
pub struct MultiCell {
    cfg: MultiCellConfig,
    cell: Cell<Packet>,
    sessions: Vec<Session>,
    now: SimTime,
    /// Per-step ROI staging, reused across subframes.
    rois: Vec<Roi>,
}

impl MultiCell {
    /// Build the cell, attach every flow and the background population.
    pub fn new(cfg: MultiCellConfig) -> Self {
        MultiCell::build(cfg, None)
    }

    /// Like [`MultiCell::new`], but every flow and the cell scheduler write
    /// trace records to `sink`. Flow `k` records under source `fg.{k:02}`
    /// (matching its UE label) and the scheduler under `cell`, so a single
    /// JSONL stream can be split back out per emitter.
    pub fn traced(cfg: MultiCellConfig, sink: SinkHandle) -> Self {
        MultiCell::build(cfg, Some(sink))
    }

    fn build(cfg: MultiCellConfig, sink: Option<SinkHandle>) -> Self {
        assert!(!cfg.flows.is_empty(), "a MultiCell needs at least one flow");
        let cell_seed = SimRng::stream(cfg.seed, "multicell.cell").next_u64();
        let mut cell = Cell::new(cfg.cell, cell_seed);
        if let Some(sink) = &sink {
            let rec = Recorder::to_sink(Arc::clone(sink), "cell");
            cell.set_recorder(&rec);
        }
        if !cfg.faults.is_empty() {
            cell.set_fault_plan(cfg.faults.clone());
        }
        let mut sessions = Vec::with_capacity(cfg.flows.len());
        for (k, flow) in cfg.flows.iter().enumerate() {
            let label = format!("fg.{k:02}");
            let ue = cell.attach_foreground(&label, cfg.channel);
            debug_assert_eq!(ue, UeId(k));
            let flow_seed = SimRng::stream(cfg.seed, &format!("multicell.flow.{k}")).next_u64();
            let session_cfg = SessionConfig {
                scheme: flow.scheme,
                rate_control: flow.rate_control,
                user: flow.user,
                duration: cfg.duration,
                seed: flow_seed,
                network: NetworkKind::Cellular(poi360_lte::scenario::Scenario::baseline()),
                start_rate_bps: cfg.start_rate_bps,
                ..Default::default()
            };
            let recorder = match &sink {
                Some(sink) => Recorder::to_sink(Arc::clone(sink), &label),
                None => Recorder::null(),
            };
            let mut session = Session::with_shared_cell_traced(session_cfg, ue, recorder);
            if !cfg.faults.is_empty() {
                // Only the path slice applies here; the cell owns the
                // access slice for all its UEs at once.
                session.set_fault_plan(&cfg.faults);
            }
            sessions.push(session);
        }
        cell.attach_background_population(cfg.background_ues);
        MultiCell { cfg, cell, sessions, now: SimTime::ZERO, rois: Vec::new() }
    }

    /// Configuration in use.
    pub fn config(&self) -> &MultiCellConfig {
        &self.cfg
    }

    /// Advance every session and the cell by exactly one subframe.
    pub fn step(&mut self) {
        let now = self.now;
        self.rois.clear();
        for s in &mut self.sessions {
            let roi = s.multi_begin(&mut self.cell);
            self.rois.push(roi);
        }
        let mut out = self.cell.subframe(now);
        for ((session, outcome), roi) in
            self.sessions.iter_mut().zip(out.per_ue.drain(..)).zip(self.rois.iter())
        {
            session.multi_complete(outcome, roi, &mut self.cell);
        }
        // The outcomes went to the sessions (which recycle their departed
        // vectors and diag reports themselves); hand the emptied shells
        // back to the cell.
        self.cell.recycle(out);
        self.now += poi360_sim::SUBFRAME;
    }

    /// Run to completion and collect per-flow reports.
    pub fn run(mut self) -> MultiCellReport {
        let end = SimTime::ZERO + self.cfg.duration;
        while self.now < end {
            self.step();
        }
        let mean_utilization = self.cell.mean_utilization();
        for (k, session) in self.sessions.iter_mut().enumerate() {
            session.set_shared_dropped(self.cell.dropped(UeId(k)));
        }
        MultiCellReport {
            flows: self.sessions.into_iter().map(Session::into_report).collect(),
            mean_utilization,
        }
    }
}

// =====================================================================
// Multi-cell grid driver: mobility + A3 handover over a hex lattice
// =====================================================================

/// Configuration of a hex-grid mobility run ([`MultiGrid`]).
#[derive(Clone, Debug)]
pub struct MultiGridConfig {
    /// Scheduler parameters for every cell.
    pub cell: CellConfig,
    /// Nominal channel config handed to each attach. Grid UEs get their
    /// channel verdict from the radio map every subframe, so this
    /// internal channel is never stepped — it only shapes construction.
    pub channel: ChannelConfig,
    /// Path-loss / shadowing / interference model.
    pub radio: RadioConfig,
    /// A3 handover + RLF parameters.
    pub a3: A3Config,
    /// Hex rings around the center cell (1 = the 7-cell cluster).
    pub rings: usize,
    /// Inter-site distance, meters.
    pub isd_m: f64,
    /// Trajectory family for every mobile UE.
    pub mobility: MobilityKind,
    /// Ground speed, m/s.
    pub speed_mps: f64,
    /// The telephony sessions under test (all mobile).
    pub flows: Vec<FlowSpec>,
    /// Mobile cross-traffic UEs (real queues of [`FlowKind::Cross`]
    /// packets that hand over just like the flows).
    pub load_ues: usize,
    /// Stationary background UEs attached to every cell (they keep
    /// neighbor cells busy, which is what makes interference bite).
    pub static_bg_per_cell: usize,
    /// Run length.
    pub duration: SimDuration,
    /// Master seed: every cell, flow, trajectory, and shadowing track
    /// derives a named stream from it.
    pub seed: u64,
    /// Initial encoding bitrate for every flow, bps.
    pub start_rate_bps: f64,
    /// Worker shards for the epoch-lockstep executor: the mobile UEs'
    /// radio prologue and the cells are each advanced by this many
    /// threads per subframe. `1` (the default) runs fully serial on the
    /// caller's thread. Output is byte-identical at every width — shards
    /// only change wall-clock time.
    pub shards: usize,
}

impl Default for MultiGridConfig {
    fn default() -> Self {
        MultiGridConfig {
            cell: CellConfig::default(),
            channel: ChannelConfig::default(),
            radio: RadioConfig::default(),
            a3: A3Config::default(),
            rings: 1,
            isd_m: 500.0,
            mobility: MobilityKind::Convoy,
            speed_mps: 20.0,
            flows: vec![FlowSpec::default(); 4],
            load_ues: 60,
            static_bg_per_cell: 5,
            duration: SimDuration::from_secs(30),
            seed: 1,
            start_rate_bps: 1.0e6,
            shards: 1,
        }
    }
}

/// Mobility/handover accounting for one flow over a grid run.
#[derive(Clone, Debug)]
pub struct FlowGridStats {
    /// Flow label (`fg.{k:02}`).
    pub label: String,
    /// Clean A3 handovers executed.
    pub handovers: u64,
    /// Radio link failures (late handovers).
    pub rlfs: u64,
    /// Packets accepted into the (traveling) firmware buffer.
    pub enqueued: u64,
    /// Packets whose last byte was transmitted (any serving cell).
    pub delivered: u64,
    /// Packets discarded by RLF re-establishment flushes.
    pub flushed: u64,
    /// Packets still queued when the run ended.
    pub queued_at_end: u64,
    /// First-transmission video packets that arrived out of order or
    /// duplicated across a handover (must be 0: the buffer is FIFO and
    /// travels whole).
    pub seq_violations: u64,
    /// When each handover/RLF executed, ms.
    pub ho_at_ms: Vec<u64>,
    /// Delivery gap around each handover/RLF: from the event to the
    /// first packet served at the target cell, ms.
    pub gap_ms: Vec<f64>,
    /// Mean displayed ROI PSNR in the 1 s windows before all handovers
    /// (0.0 when no sample landed in a window).
    pub psnr_before_db: f64,
    /// ... and in the 1 s windows after.
    pub psnr_after_db: f64,
}

impl FlowGridStats {
    /// Exact packet conservation: everything accepted was delivered,
    /// explicitly flushed, or is still queued.
    pub fn conserved(&self) -> bool {
        self.enqueued == self.delivered + self.flushed + self.queued_at_end
    }
}

impl ToJson for FlowGridStats {
    fn write_json(&self, out: &mut String) {
        JsonObject::new()
            .field("label", &self.label.as_str())
            .field("handovers", &(self.handovers as f64))
            .field("rlfs", &(self.rlfs as f64))
            .field("enqueued", &(self.enqueued as f64))
            .field("delivered", &(self.delivered as f64))
            .field("flushed", &(self.flushed as f64))
            .field("queued_at_end", &(self.queued_at_end as f64))
            .field("seq_violations", &(self.seq_violations as f64))
            .field("conserved", &self.conserved())
            .field("psnr_before_db", &self.psnr_before_db)
            .field("psnr_after_db", &self.psnr_after_db)
            .write(out);
    }
}

/// Results of a grid mobility run.
#[derive(Clone, Debug)]
pub struct MultiGridReport {
    /// Per-flow session reports, in flow order.
    pub flows: Vec<SessionReport>,
    /// Per-flow handover/conservation stats, in flow order.
    pub flow_stats: Vec<FlowGridStats>,
    /// Number of cells in the lattice.
    pub cells: usize,
    /// Mobile cross-traffic UEs.
    pub load_ues: usize,
    /// Handovers executed by load UEs.
    pub load_handovers: u64,
    /// RLFs suffered by load UEs.
    pub load_rlfs: u64,
    /// Load UEs whose buffers failed exact conservation (must be 0).
    pub load_conservation_violations: u64,
    /// Mean PRB utilization across all cells.
    pub mean_utilization: f64,
    /// Out-of-order gauge samples dropped across all recorders (must
    /// be 0: the lockstep loop emits probes in time order).
    pub probe_drops: u64,
}

impl ToJson for MultiGridReport {
    fn write_json(&self, out: &mut String) {
        JsonObject::new()
            .field("cells", &(self.cells as f64))
            .field("load_ues", &(self.load_ues as f64))
            .field("load_handovers", &(self.load_handovers as f64))
            .field("load_rlfs", &(self.load_rlfs as f64))
            .field("load_conservation_violations", &(self.load_conservation_violations as f64))
            .field("mean_utilization", &self.mean_utilization)
            .field("probe_drops", &(self.probe_drops as f64))
            .field("flow_stats", &self.flow_stats)
            .field("flows", &self.flows)
            .write(out);
    }
}

/// Which grid UE owns a cell's foreground slot right now.
#[derive(Clone, Copy)]
enum SlotOwner {
    FlowUe(usize),
    LoadUe(usize),
    Vacant,
}

/// Mobility/handover state of one grid UE (flow or load).
struct MobileUe {
    motion: GroundMotion,
    radio: RadioUe,
    a3: A3State,
    serving: CellId,
    slot: UeId,
    /// Data interruption window after a handover / re-establishment.
    outage_until: SimTime,
    handovers: u64,
    rlfs: u64,
}

/// Cross-traffic source state of one load UE.
struct LoadSource {
    traffic: BackgroundTraffic,
    carry_bytes: u64,
    next_seq: u64,
    delivered: u64,
}

/// Per-flow delivery accounting the driver keeps outside the session.
#[derive(Default)]
struct FlowTally {
    delivered: u64,
    last_video_seq: Option<u64>,
    seq_violations: u64,
    ho_at: Vec<SimTime>,
    gaps_ms: Vec<f64>,
    /// A handover happened and no packet has departed since.
    pending_gap_from: Option<SimTime>,
}

/// A session riding a cell for one epoch: the flow index, the session
/// itself, and the driver's delivery tally (which travels with it so the
/// shard can update both without touching driver state).
struct FlowSlot {
    k: usize,
    session: Session,
    tally: FlowTally,
}

/// A load UE's traffic source riding a cell for one epoch.
struct LoadSlot {
    j: usize,
    slot: UeId,
    source: LoadSource,
}

/// One cell's arena entry: the cell plus everything needed to advance it
/// one subframe without touching any other cell. Entirely owned data, so
/// a bundle can be advanced by any worker thread (`CellWork` is `Send`);
/// the executor steps bundles **in place**, each worker holding disjoint
/// ranges of the arena, and all staging vectors (`owners`, `flows`, `loads`,
/// `rois`) are recycled across subframes — drained, never dropped — so an
/// epoch allocates nothing in the bundle. The serial barrier moves
/// sessions/loads in and out between epochs as UEs hand over.
struct CellWork {
    id: usize,
    cell: Cell<Packet>,
    /// Slot-owner map, indexed like the cell's `per_ue`.
    owners: Vec<SlotOwner>,
    /// Sessions served by this cell this epoch, ascending flow index.
    flows: Vec<FlowSlot>,
    /// Load sources served by this cell this epoch, ascending load index.
    loads: Vec<LoadSlot>,
    /// Per-epoch ROI staging, index-aligned with `flows`.
    rois: Vec<Roi>,
    /// This subframe's PRB utilization, published at the barrier.
    activity: f64,
}

impl CellWork {
    /// Phases 2+3 for this cell: sources enqueue, one PF allocation,
    /// outcomes route back to their owners. Pure function of the bundle's
    /// own state — runs on any thread.
    fn run(&mut self, now: SimTime, total_prbs: f64) {
        // Phase 2: sources. Sessions run their sender pipeline (enqueue
        // into this cell); load UEs turn accrued bytes into cross packets.
        self.rois.clear();
        for f in &mut self.flows {
            self.rois.push(f.session.multi_begin(&mut self.cell));
        }
        for l in &mut self.loads {
            l.source.carry_bytes += l.source.traffic.subframe();
            while l.source.carry_bytes >= LOAD_PACKET_BYTES {
                l.source.carry_bytes -= LOAD_PACKET_BYTES;
                let pkt = Packet::cross(l.source.next_seq, LOAD_PACKET_BYTES as u32, now);
                l.source.next_seq += 1;
                self.cell.enqueue(l.slot, pkt, now);
            }
        }

        // Phase 3: one PF allocation; outcomes route back to their
        // owners; utilization is staged for the barrier to publish as the
        // next subframe's interference activity.
        let mut out = self.cell.subframe(now);
        self.activity = out.prbs_granted as f64 / total_prbs;
        for (slot_idx, outcome) in out.per_ue.drain(..).enumerate() {
            match self.owners[slot_idx] {
                SlotOwner::FlowUe(k) => {
                    let fi = self
                        .flows
                        .iter()
                        .position(|f| f.k == k)
                        .expect("flow rides its serving cell");
                    let f = &mut self.flows[fi];
                    for (pkt, _) in &outcome.departed {
                        f.tally.delivered += 1;
                        if pkt.flow == FlowKind::Video && !pkt.retransmit {
                            if let Some(prev) = f.tally.last_video_seq {
                                if pkt.seq <= prev {
                                    f.tally.seq_violations += 1;
                                }
                            }
                            f.tally.last_video_seq =
                                Some(f.tally.last_video_seq.map_or(pkt.seq, |p| p.max(pkt.seq)));
                        }
                    }
                    if !outcome.departed.is_empty() {
                        if let Some(from) = f.tally.pending_gap_from.take() {
                            f.tally.gaps_ms.push(now.saturating_since(from).as_secs_f64() * 1e3);
                        }
                    }
                    f.session.multi_complete(outcome, &self.rois[fi], &mut self.cell);
                }
                SlotOwner::LoadUe(j) => {
                    let l = self
                        .loads
                        .iter_mut()
                        .find(|l| l.j == j)
                        .expect("load rides its serving cell");
                    l.source.delivered += outcome.departed.len() as u64;
                    self.cell.recycle_departed(outcome.departed);
                    if let Some(report) = outcome.diag {
                        self.cell.recycle_diag(UeId(slot_idx), report);
                    }
                }
                SlotOwner::Vacant => {
                    self.cell.recycle_departed(outcome.departed);
                    if let Some(report) = outcome.diag {
                        self.cell.recycle_diag(UeId(slot_idx), report);
                    }
                }
            }
        }
        self.cell.recycle(out);
    }
}

/// Per-emitter staging buffers for a traced grid run. Every recorder in
/// the grid writes into its own [`BufferSink`] (never the real sink), and
/// the serial barrier drains them into the real sink in canonical order —
/// cells ascending, then flows ascending, then the grid driver — so the
/// JSONL byte stream is identical at every shard width.
struct GridBuffers {
    sink: SinkHandle,
    cells: Vec<(String, Arc<Mutex<BufferSink>>)>,
    flows: Vec<(String, Arc<Mutex<BufferSink>>)>,
    grid: Arc<Mutex<BufferSink>>,
}

impl GridBuffers {
    fn drain(&self) {
        let mut sink = self.sink.lock().unwrap();
        for (src, buf) in &self.cells {
            buf.lock().unwrap().drain_into(src, &mut *sink);
        }
        for (src, buf) in &self.flows {
            buf.lock().unwrap().drain_into(src, &mut *sink);
        }
        self.grid.lock().unwrap().drain_into("grid", &mut *sink);
    }
}

/// Lockstep driver for telephony sessions moving across a hex grid of
/// cells: per-subframe mobility → radio map → A3/RLF decisions →
/// firmware-buffer migration → one PF allocation per cell. A pure
/// function of the master seed: interference uses the previous subframe's
/// published activity and every stochastic track is keyed by UE name, so
/// per-cell subframes are schedule-independent. With
/// [`MultiGridConfig::shards`] > 1 the radio prologue and the per-cell
/// work run on a persistent worker pool; runs are byte-identical at
/// every shard width.
pub struct MultiGrid {
    cfg: MultiGridConfig,
    radio: RadioMap,
    /// Cell arena, indexed by cell id. Bundles are stepped in place; the
    /// parallel phase lends each worker disjoint ranges of it.
    works: Vec<CellWork>,
    /// Home storage for sessions between epochs, indexed by flow.
    sessions: Vec<Option<Session>>,
    /// Home storage for delivery tallies between epochs, indexed by flow.
    tallies: Vec<FlowTally>,
    /// Home storage for load sources between epochs, indexed by load UE.
    loads: Vec<Option<LoadSource>>,
    flow_recorders: Vec<Recorder>,
    grid_recorder: Recorder,
    flow_ues: Vec<MobileUe>,
    load_ues: Vec<MobileUe>,
    /// This subframe's position of every mobile UE, indexed like the
    /// radio map's registrations; refilled in place each step.
    positions: Vec<(f64, f64)>,
    /// Previous-subframe PRB utilization per cell (interference input).
    activity: Vec<f64>,
    /// This subframe's utilization, staged then swapped into `activity`.
    next_activity: Vec<f64>,
    now: SimTime,
    /// Trace staging (traced runs only).
    buffers: Option<GridBuffers>,
}

impl MultiGrid {
    /// Build the lattice, attach every flow and load UE at its starting
    /// position, and seed the per-cell background populations.
    pub fn new(cfg: MultiGridConfig) -> Self {
        MultiGrid::build(cfg, None)
    }

    /// Like [`MultiGrid::new`] with trace output: flow `k` records under
    /// `fg.{k:02}`, cell `c` under `cell.{c:02}`, and the driver itself
    /// (handover/RLF counts, mean activity) under `grid`.
    pub fn traced(cfg: MultiGridConfig, sink: SinkHandle) -> Self {
        MultiGrid::build(cfg, Some(sink))
    }

    fn build(cfg: MultiGridConfig, sink: Option<SinkHandle>) -> Self {
        assert!(!cfg.flows.is_empty(), "a MultiGrid needs at least one flow");
        let grid = HexGrid::new(cfg.rings, cfg.isd_m);
        let n_cells = grid.len();
        let mut radio = RadioMap::new(cfg.radio, grid);
        let mut buffers = sink.map(|sink| GridBuffers {
            sink,
            cells: Vec::with_capacity(n_cells),
            flows: Vec::with_capacity(cfg.flows.len()),
            grid: BufferSink::shared(),
        });

        let mut works = Vec::with_capacity(n_cells);
        for c in 0..n_cells {
            let cell_seed = SimRng::stream(cfg.seed, &format!("grid.cell.{c:02}")).next_u64();
            let mut cell = Cell::new(cfg.cell, cell_seed);
            if let Some(b) = &mut buffers {
                let src = format!("cell.{c:02}");
                let buf = BufferSink::shared();
                let handle: SinkHandle = buf.clone();
                let rec = Recorder::to_sink(handle, &src);
                cell.set_recorder(&rec);
                b.cells.push((src, buf));
            }
            cell.attach_background_population(cfg.static_bg_per_cell);
            works.push(CellWork {
                id: c,
                cell,
                owners: Vec::new(),
                flows: Vec::new(),
                loads: Vec::new(),
                rois: Vec::new(),
                activity: 0.0,
            });
        }
        let grid_recorder = match &buffers {
            Some(b) => {
                let handle: SinkHandle = b.grid.clone();
                Recorder::to_sink(handle, "grid")
            }
            None => Recorder::null(),
        };

        // Stagger indices: flows are spread evenly through the mobile
        // population (convoy position is a function of the index), loads
        // fill the remaining positions in order.
        let n_flows = cfg.flows.len();
        let total_mobiles = n_flows + cfg.load_ues;
        let flow_stagger: Vec<usize> = (0..n_flows).map(|k| k * total_mobiles / n_flows).collect();
        let mut load_stagger = Vec::with_capacity(cfg.load_ues);
        for idx in 0..total_mobiles {
            if !flow_stagger.contains(&idx) {
                load_stagger.push(idx);
            }
        }
        load_stagger.truncate(cfg.load_ues);

        let attach_mobile = |radio: &mut RadioMap,
                             works: &mut [CellWork],
                             name: &str,
                             stagger: usize,
                             owner: SlotOwner|
         -> MobileUe {
            let motion = GroundMotion::new(
                cfg.mobility,
                radio.grid(),
                cfg.speed_mps,
                cfg.seed,
                name,
                stagger,
                total_mobiles,
            );
            let (x, y) = motion.position();
            let serving = radio.grid().serving_cell(x, y);
            let w = &mut works[serving.0];
            let slot = w.cell.attach_foreground(name, cfg.channel);
            let track = radio.register_ue(cfg.seed, name);
            if slot.0 == w.owners.len() {
                w.owners.push(owner);
            } else {
                w.owners[slot.0] = owner;
            }
            MobileUe {
                motion,
                radio: track,
                a3: A3State::default(),
                serving,
                slot,
                outage_until: SimTime::ZERO,
                handovers: 0,
                rlfs: 0,
            }
        };

        let mut sessions = Vec::with_capacity(n_flows);
        let mut flow_recorders = Vec::with_capacity(n_flows);
        let mut flow_ues = Vec::with_capacity(n_flows);
        for (k, flow) in cfg.flows.iter().enumerate() {
            let label = format!("fg.{k:02}");
            let m = attach_mobile(&mut radio, &mut works, &label, flow_stagger[k], {
                SlotOwner::FlowUe(k)
            });
            let flow_seed = SimRng::stream(cfg.seed, &format!("grid.flow.{k}")).next_u64();
            let session_cfg = SessionConfig {
                scheme: flow.scheme,
                rate_control: flow.rate_control,
                user: flow.user,
                duration: cfg.duration,
                seed: flow_seed,
                network: NetworkKind::Cellular(poi360_lte::scenario::Scenario::baseline()),
                start_rate_bps: cfg.start_rate_bps,
                ..Default::default()
            };
            let recorder = match &mut buffers {
                Some(b) => {
                    let buf = BufferSink::shared();
                    let handle: SinkHandle = buf.clone();
                    b.flows.push((label.clone(), buf));
                    Recorder::to_sink(handle, &label)
                }
                None => Recorder::null(),
            };
            flow_recorders.push(recorder.clone());
            sessions.push(Some(Session::with_shared_cell_traced(session_cfg, m.slot, recorder)));
            flow_ues.push(m);
        }

        let mut load_ues = Vec::with_capacity(cfg.load_ues);
        let mut loads = Vec::with_capacity(cfg.load_ues);
        for (j, &stagger) in load_stagger.iter().enumerate() {
            let name = format!("ld.{j:03}");
            let m = attach_mobile(&mut radio, &mut works, &name, stagger, SlotOwner::LoadUe(j));
            load_ues.push(m);
            // Lighter profile than the in-cell background UEs: with
            // hundreds of mobiles sharing a handful of cells, commuter
            // phones mostly idle with bursts.
            let mut profile = SimRng::stream(cfg.seed, &format!("grid.load.{name}"));
            let traffic_cfg = BackgroundTrafficConfig {
                on_rate_bps: profile.uniform_range(0.1e6, 0.5e6),
                mean_on: SimDuration::from_secs_f64(profile.uniform_range(0.5, 2.0)),
                mean_off: SimDuration::from_secs_f64(profile.uniform_range(2.0, 8.0)),
                ..Default::default()
            };
            let traffic_seed = profile.next_u64();
            loads.push(Some(LoadSource {
                traffic: BackgroundTraffic::new(traffic_cfg, traffic_seed),
                carry_bytes: 0,
                next_seq: 0,
                delivered: 0,
            }));
        }

        let tallies = (0..n_flows).map(|_| FlowTally::default()).collect();
        MultiGrid {
            cfg,
            radio,
            works,
            sessions,
            tallies,
            loads,
            flow_recorders,
            grid_recorder,
            positions: vec![(0.0, 0.0); flow_ues.len() + load_ues.len()],
            flow_ues,
            load_ues,
            activity: vec![0.0; n_cells],
            next_activity: vec![0.0; n_cells],
            now: SimTime::ZERO,
            buffers,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &MultiGridConfig {
        &self.cfg
    }

    /// Detach `m` from its serving cell, carry the firmware buffer to
    /// `target`, and re-attach. `rlf` selects the failure flavor: flush
    /// and re-establishment instead of head-restart and clean
    /// interruption. Serial-phase only: both arena entries must be home.
    fn migrate(
        cfg: &MultiGridConfig,
        works: &mut [CellWork],
        m: &mut MobileUe,
        target: CellId,
        rlf: bool,
        now: SimTime,
    ) -> u64 {
        let src = &mut works[m.serving.0];
        let mut mu = src.cell.detach_foreground(m.slot);
        let owner = std::mem::replace(&mut src.owners[m.slot.0], SlotOwner::Vacant);
        let flushed = if rlf {
            m.rlfs += 1;
            mu.flush()
        } else {
            m.handovers += 1;
            // The RLC context dies with the source cell: a packet caught
            // mid-segmentation retransmits in full at the target.
            mu.restart_head();
            0
        };
        let tgt = &mut works[target.0];
        let slot = tgt.cell.attach_migrated(mu, cfg.channel);
        if slot.0 == tgt.owners.len() {
            tgt.owners.push(owner);
        } else {
            tgt.owners[slot.0] = owner;
        }
        m.serving = target;
        m.slot = slot;
        m.outage_until = now + if rlf { cfg.a3.reestablish_time } else { cfg.a3.interruption };
        flushed
    }

    /// The serial half of one mobile UE's prologue, once its radio rows
    /// are advanced: measure against last subframe's activity, run the
    /// A3/RLF decision, migrate on a handover or RLF, and hand the serving
    /// cell this subframe's channel state. Returns the decision and the
    /// packets an RLF flushed.
    fn settle(
        cfg: &MultiGridConfig,
        radio: &RadioMap,
        activity: &[f64],
        works: &mut [CellWork],
        m: &mut MobileUe,
        now: SimTime,
    ) -> (HoDecision, u64) {
        let obs = radio.measure(m.radio, m.serving, activity);
        let decision =
            m.a3.decide(&cfg.a3, now, obs.serving_rsrp_dbm, obs.sinr_db, obs.best_neighbor);
        let flushed = match decision {
            HoDecision::Stay => 0,
            HoDecision::Handover(t) => MultiGrid::migrate(cfg, works, m, t, false, now),
            HoDecision::Rlf(t) => MultiGrid::migrate(cfg, works, m, t, true, now),
        };
        let forced = now < m.outage_until;
        let state = obs.channel_state(radio.config(), forced);
        works[m.serving.0].cell.set_foreground_radio(m.slot, state);
        (decision, flushed)
    }

    /// Phase 1: mobility, then every UE's radio rows across the pool
    /// (they depend on the UE's own position and streams only), then the
    /// serial measurements, handover decisions and radio overrides.
    /// Flows first, then loads — a fixed order.
    fn phase1(&mut self, now: SimTime) {
        let dt = poi360_sim::SUBFRAME;
        for m in self.flow_ues.iter_mut().chain(&mut self.load_ues) {
            self.positions[m.radio.index()] = m.motion.step(dt);
        }
        self.radio.advance_all(self.cfg.shards, dt, &self.positions);

        let MultiGrid { cfg, radio, activity, works, .. } = self;
        for (k, m) in self.flow_ues.iter_mut().enumerate() {
            let (decision, flushed) = MultiGrid::settle(cfg, radio, activity, works, m, now);
            let executed = match decision {
                HoDecision::Stay => None,
                HoDecision::Handover(t) => Some(("ho.exec", "grid.handover", t.0 as f64)),
                HoDecision::Rlf(_) => Some(("ho.rlf", "grid.rlf", flushed as f64)),
            };
            if let Some((probe, counter, value)) = executed {
                self.sessions[k].as_mut().expect("session home").rehome_shared_cell(m.slot);
                self.flow_recorders[k].event(probe, now, value);
                self.grid_recorder.count(counter, now, 1);
                self.tallies[k].ho_at.push(now);
                self.tallies[k].pending_gap_from.get_or_insert(now);
            }
            if now.as_millis().is_multiple_of(100) {
                self.flow_recorders[k].gauge("grid.serving_cell", now, m.serving.0 as f64);
            }
        }
        for m in &mut self.load_ues {
            match MultiGrid::settle(cfg, radio, activity, works, m, now).0 {
                HoDecision::Stay => {}
                HoDecision::Handover(_) => self.grid_recorder.count("grid.handover", now, 1),
                HoDecision::Rlf(_) => self.grid_recorder.count("grid.rlf", now, 1),
            }
        }
    }

    /// Move every session and load source into its serving cell's arena
    /// bundle, in ascending flow / load order (which fixes the per-cell
    /// enqueue order independent of handover history).
    fn assemble(&mut self) {
        for (k, m) in self.flow_ues.iter().enumerate() {
            self.works[m.serving.0].flows.push(FlowSlot {
                k,
                session: self.sessions[k].take().expect("session home"),
                tally: std::mem::take(&mut self.tallies[k]),
            });
        }
        for (j, m) in self.load_ues.iter().enumerate() {
            self.works[m.serving.0].loads.push(LoadSlot {
                j,
                slot: m.slot,
                source: self.loads[j].take().expect("load home"),
            });
        }
    }

    /// Return sessions/loads to home storage and stage each cell's
    /// published activity.
    fn disassemble(&mut self) {
        for w in self.works.iter_mut() {
            self.next_activity[w.id] = w.activity;
            for f in w.flows.drain(..) {
                self.sessions[f.k] = Some(f.session);
                self.tallies[f.k] = f.tally;
            }
            for l in w.loads.drain(..) {
                self.loads[l.j] = Some(l.source);
            }
        }
    }

    /// Epoch barrier: publish this subframe's activity as the next
    /// subframe's interference input, emit driver gauges, merge trace
    /// staging in canonical order, and advance time.
    fn barrier(&mut self, now: SimTime) {
        self.disassemble();
        std::mem::swap(&mut self.activity, &mut self.next_activity);
        if now.as_millis().is_multiple_of(100) {
            let mean = self.activity.iter().sum::<f64>() / self.activity.len() as f64;
            self.grid_recorder.gauge("grid.mean_activity", now, mean);
        }
        if let Some(buffers) = &self.buffers {
            buffers.drain();
        }
        self.now = now + poi360_sim::SUBFRAME;
    }

    /// Advance the whole grid by exactly one subframe, honoring
    /// [`MultiGridConfig::shards`]: two pool epochs — the radio prologue
    /// inside [`MultiGrid::phase1`], then the cells — with the serial
    /// measurements and migrations between them and the barrier after.
    /// Neither epoch moves a bundle or allocates; at `shards <= 1` both
    /// are plain loops on the caller.
    pub fn step(&mut self) {
        let now = self.now;
        self.phase1(now);
        self.assemble();
        let total_prbs = self.cfg.cell.total_prbs.max(1) as f64;
        // Completion order is irrelevant: bundles stay slotted by cell id.
        poi360_sim::workers::global()
            .for_each_mut(self.cfg.shards, &mut self.works, |_, w| w.run(now, total_prbs));
        self.barrier(now);
    }

    /// Run to completion and assemble the report.
    pub fn run(mut self) -> MultiGridReport {
        let end = SimTime::ZERO + self.cfg.duration;
        while self.now < end {
            self.step();
        }

        // Per-flow stats. ROI-quality-across-handover windows come from
        // the recorder's PSNR gauge, which must be read *before*
        // `into_report` takes the channel.
        let mut flow_stats = Vec::with_capacity(self.sessions.len());
        for (k, m) in self.flow_ues.iter().enumerate() {
            let tally = &self.tallies[k];
            let fw = {
                let cell = &self.works[m.serving.0].cell;
                let fw = cell.firmware(m.slot);
                let dropped = cell.dropped(m.slot);
                self.sessions[k].as_mut().expect("session home").set_shared_dropped(dropped);
                (fw.total_enqueued(), fw.flushed(), fw.len() as u64)
            };
            let psnr = self.flow_recorders[k].gauge_series("video.roi_psnr_db");
            let window = SimDuration::from_secs(1);
            let (mut before_sum, mut before_n, mut after_sum, mut after_n) = (0.0, 0u64, 0.0, 0u64);
            for &at in &tally.ho_at {
                for (t, v) in psnr.iter() {
                    if t < at && at.saturating_since(t) <= window {
                        before_sum += v;
                        before_n += 1;
                    } else if t >= at && t.saturating_since(at) <= window {
                        after_sum += v;
                        after_n += 1;
                    }
                }
            }
            flow_stats.push(FlowGridStats {
                label: format!("fg.{k:02}"),
                handovers: m.handovers,
                rlfs: m.rlfs,
                enqueued: fw.0,
                delivered: tally.delivered,
                flushed: fw.1,
                queued_at_end: fw.2,
                seq_violations: tally.seq_violations,
                ho_at_ms: tally.ho_at.iter().map(|t| t.as_millis()).collect(),
                gap_ms: tally.gaps_ms.clone(),
                psnr_before_db: if before_n > 0 { before_sum / before_n as f64 } else { 0.0 },
                psnr_after_db: if after_n > 0 { after_sum / after_n as f64 } else { 0.0 },
            });
        }

        let mut load_conservation_violations = 0u64;
        let (mut load_handovers, mut load_rlfs) = (0u64, 0u64);
        for (j, m) in self.load_ues.iter().enumerate() {
            load_handovers += m.handovers;
            load_rlfs += m.rlfs;
            let cell = &self.works[m.serving.0].cell;
            let fw = cell.firmware(m.slot);
            let delivered = self.loads[j].as_ref().expect("load home").delivered;
            if fw.total_enqueued() != delivered + fw.flushed() + fw.len() as u64 {
                load_conservation_violations += 1;
            }
        }

        let n_cells = self.works.len() as f64;
        let mean_utilization =
            self.works.iter().map(|w| w.cell.mean_utilization()).sum::<f64>() / n_cells;
        let probe_drops = self.grid_recorder.out_of_order_drops()
            + self.flow_recorders.iter().map(Recorder::out_of_order_drops).sum::<u64>();
        if let Some(buffers) = &self.buffers {
            buffers.drain();
            buffers.sink.lock().unwrap().flush();
        }
        self.grid_recorder.flush();
        MultiGridReport {
            flows: self
                .sessions
                .into_iter()
                .map(|s| s.expect("session home").into_report())
                .collect(),
            flow_stats,
            cells: self.works.len(),
            load_ues: self.load_ues.len(),
            load_handovers,
            load_rlfs,
            load_conservation_violations,
            mean_utilization,
            probe_drops,
        }
    }
}

/// Wire size of one cross-traffic packet, bytes.
const LOAD_PACKET_BYTES: u64 = 1_200;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(flows: Vec<FlowSpec>, seed: u64) -> MultiCellConfig {
        MultiCellConfig {
            flows,
            duration: SimDuration::from_secs(8),
            background_ues: 4,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn cell_work_bundles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CellWork>();
    }

    #[test]
    fn two_flows_both_deliver() {
        let report = MultiCell::new(tiny(vec![FlowSpec::default(); 2], 42)).run();
        assert_eq!(report.flows.len(), 2);
        for flow in &report.flows {
            assert!(flow.frames_sent > 200, "sent {}", flow.frames_sent);
            let frac = flow.frames_delivered as f64 / flow.frames_sent as f64;
            assert!(frac > 0.7, "delivered fraction {frac}");
            assert!(!flow.fw_buffer.is_empty(), "shared-cell flows record diag");
        }
        assert!(report.mean_utilization > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = MultiCell::new(tiny(vec![FlowSpec::default(); 2], 7)).run();
        let b = MultiCell::new(tiny(vec![FlowSpec::default(); 2], 7)).run();
        let mut ja = String::new();
        let mut jb = String::new();
        a.write_json(&mut ja);
        b.write_json(&mut jb);
        assert_eq!(ja, jb);
    }

    #[test]
    fn traced_run_emits_per_flow_and_cell_probes() {
        let sink = poi360_sim::trace::RingSink::shared(200_000);
        let report = MultiCell::traced(tiny(vec![FlowSpec::default(); 2], 42), sink.clone()).run();
        assert_eq!(report.flows.len(), 2);
        let ring = sink.lock().unwrap();
        assert!(ring.count_of("cell.prb_grant") > 0, "scheduler grants traced");
        assert!(ring.count_of("video.frame_encoded") > 0, "flow probes traced");
        let srcs: std::collections::BTreeSet<_> =
            ring.records().map(|(src, _)| src.clone()).collect();
        assert!(srcs.contains("cell"), "srcs {srcs:?}");
        assert!(srcs.contains("fg.00") && srcs.contains("fg.01"), "srcs {srcs:?}");
    }

    #[test]
    fn tracing_does_not_perturb_the_run() {
        let a = MultiCell::new(tiny(vec![FlowSpec::default(); 2], 7)).run();
        let sink = poi360_sim::trace::RingSink::shared(200_000);
        let b = MultiCell::traced(tiny(vec![FlowSpec::default(); 2], 7), sink).run();
        let mut ja = String::new();
        let mut jb = String::new();
        a.write_json(&mut ja);
        b.write_json(&mut jb);
        assert_eq!(ja, jb);
    }

    #[test]
    fn symmetric_flows_are_fair() {
        let report = MultiCell::new(tiny(vec![FlowSpec::default(); 4], 9)).run();
        let jain = report.jain_throughput();
        assert!(jain > 0.9, "jain {jain}");
    }

    /// A compressed grid: short inter-site distance and fast UEs so the
    /// convoy crosses cell boundaries within a few simulated seconds.
    fn grid_tiny(flows: usize, seed: u64) -> MultiGridConfig {
        MultiGridConfig {
            flows: vec![FlowSpec::default(); flows],
            load_ues: 10,
            static_bg_per_cell: 2,
            isd_m: 160.0,
            speed_mps: 30.0,
            duration: SimDuration::from_secs(8),
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn convoy_flows_hand_over_and_conserve() {
        let report = MultiGrid::new(grid_tiny(2, 11)).run();
        assert_eq!(report.cells, 7);
        assert_eq!(report.flow_stats.len(), 2);
        for fs in &report.flow_stats {
            assert!(
                fs.handovers + fs.rlfs >= 1,
                "{} crossed no boundary (ho {} rlf {})",
                fs.label,
                fs.handovers,
                fs.rlfs
            );
            assert!(
                fs.conserved(),
                "{}: enq {} != del {} + flushed {} + queued {}",
                fs.label,
                fs.enqueued,
                fs.delivered,
                fs.flushed,
                fs.queued_at_end
            );
            assert_eq!(fs.seq_violations, 0, "{} reordered/duplicated video", fs.label);
            assert!(fs.enqueued > 100, "{} barely sent ({})", fs.label, fs.enqueued);
        }
        assert_eq!(report.load_conservation_violations, 0);
        assert!(report.load_handovers >= 1, "no load UE ever handed over");
        for flow in &report.flows {
            assert!(flow.frames_sent > 100, "sent {}", flow.frames_sent);
        }
    }

    #[test]
    fn grid_runs_are_deterministic_and_seed_sensitive() {
        let a = MultiGrid::new(grid_tiny(2, 5)).run();
        let b = MultiGrid::new(grid_tiny(2, 5)).run();
        let c = MultiGrid::new(grid_tiny(2, 6)).run();
        let (mut ja, mut jb, mut jc) = (String::new(), String::new(), String::new());
        a.write_json(&mut ja);
        b.write_json(&mut jb);
        c.write_json(&mut jc);
        assert_eq!(ja, jb, "same seed must reproduce byte-identically");
        assert_ne!(ja, jc, "different seed must diverge");
    }

    /// Report JSON and traced JSONL of one grid run at a shard width.
    fn traced_bytes(mut cfg: MultiGridConfig, shards: usize) -> (String, Vec<u8>) {
        cfg.shards = shards;
        poi360_sim::trace::capture(None, |sink| {
            let report = MultiGrid::traced(cfg, sink.clone()).run();
            let mut json = String::new();
            report.write_json(&mut json);
            json
        })
    }

    #[test]
    fn sharded_grid_is_byte_identical_at_every_width() {
        // 19 cells and 13 mobile UEs: widths 3 and 7 divide neither, so
        // the ranges come out ragged; 2 and 4 are what hosts shard at.
        let cfg = MultiGridConfig {
            rings: 2,
            load_ues: 11,
            duration: SimDuration::from_secs(4),
            ..grid_tiny(2, 11)
        };
        let (report, jsonl) = traced_bytes(cfg.clone(), 1);
        let untraced = MultiGrid::new(cfg.clone()).run();
        assert_eq!(untraced.cells, 19);
        assert!(
            untraced.flow_stats.iter().any(|f| f.handovers + f.rlfs >= 1)
                && untraced.load_handovers + untraced.load_rlfs >= 1,
            "flows and loads must both hand over"
        );
        assert!(!jsonl.is_empty(), "probe stream captured");
        for shards in [2, 3, 4, 7] {
            let (r, t) = traced_bytes(cfg.clone(), shards);
            assert_eq!(report, r, "report diverged at shard width {shards}");
            assert!(jsonl == t, "probe JSONL diverged at shard width {shards}");
        }
    }

    #[test]
    fn shards_beyond_the_ue_or_cell_count_change_nothing() {
        // One flow, no load UEs: four ways to cut one UE. A one-cell grid:
        // four ways to cut one cell (and no neighbor to measure).
        let lone_ue =
            MultiGridConfig { load_ues: 0, duration: SimDuration::from_secs(2), ..grid_tiny(1, 3) };
        let lone_cell = MultiGridConfig { rings: 0, ..lone_ue.clone() };
        for cfg in [lone_ue, lone_cell] {
            let serial = traced_bytes(cfg.clone(), 1);
            assert!(traced_bytes(cfg.clone(), 4) == serial, "rings {}", cfg.rings);
            assert!(traced_bytes(cfg.clone(), 0) == serial, "shards 0 is serial");
        }
    }

    #[test]
    fn traced_grid_run_emits_handover_probes() {
        let sink = poi360_sim::trace::RingSink::shared(400_000);
        let report = MultiGrid::traced(grid_tiny(2, 11), sink.clone()).run();
        assert!(report.flow_stats.iter().any(|f| f.handovers + f.rlfs >= 1));
        let ring = sink.lock().unwrap();
        assert!(ring.count_of("ho.exec") + ring.count_of("ho.rlf") > 0, "handover events traced");
        assert!(ring.count_of("grid.serving_cell") > 0, "serving-cell gauge traced");
        assert!(ring.count_of("grid.mean_activity") > 0, "activity gauge traced");
        let srcs: std::collections::BTreeSet<_> =
            ring.records().map(|(src, _)| src.clone()).collect();
        assert!(srcs.contains("grid"), "srcs {srcs:?}");
        assert!(srcs.contains("cell.00"), "srcs {srcs:?}");
    }
}
