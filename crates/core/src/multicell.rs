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
//! order — including in parallel. The grid driver exploits exactly that
//! on the process-wide persistent pool ([`poi360_sim::workers`]) at
//! `MultiGridConfig::shards` width: every subframe for the cells, and
//! before them, on the one subframe in 40 that completes a measurement
//! period, for the radio prologue (every mobile UE's shadowing, path loss
//! and milliwatt rows — [`RadioMap::advance_all`], independent of
//! everything the cells produce; the rows are held in between). All
//! cross-cell effects (every UE's measurement against the published
//! activity in one [`RadioMap::measure_all`] pass, then handover
//! migrations, interference publication, trace merging) are
//! confined to the serial stretches in fixed UE / cell-id order. Nothing
//! moves and nothing allocates on the parallel paths. Output is
//! byte-identical at any shard width.
//!
//! Both drivers step the same thing: a `CellWork` bundle — one [`Cell`]
//! plus the sessions and cross-traffic sources it currently serves, each
//! carrying its UE slot. The bundle is the only place a session meets a
//! cell (it carries the session's outbox into the UE's firmware buffer
//! and the UE's outcome back), it is entirely owned data (`Send`, stepped
//! **in place** by any worker), and its residents *live* there: a
//! `MultiCell` is one bundle and a clock, and a `MultiGrid` resident
//! changes bundle only inside a handover, at the serial barrier.

use crate::config::{CompressionScheme, NetworkKind, RateControlKind, SessionConfig};
use crate::report::SessionReport;
use crate::session::Session;
use poi360_lte::cell::background::{BackgroundTraffic, BackgroundTrafficConfig};
use poi360_lte::cell::{Cell, CellConfig, UeId};
use poi360_lte::channel::ChannelConfig;
use poi360_lte::grid::{
    A3Config, A3State, CellId, GroundMotion, HexGrid, HoDecision, MobilityKind, RadioConfig,
    RadioMap, RadioObservation, RadioUe,
};
use poi360_lte::scenario::BackgroundLoad;
use poi360_net::packet::{FlowKind, Packet};
use poi360_sim::fault::FaultPlan;
use poi360_sim::json::{JsonObject, ToJson};
use poi360_sim::rng::SimRng;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::trace::{self, BufferSink, SinkHandle};
use poi360_sim::Recorder;
use poi360_viewport::motion::UserArchetype;
use std::sync::{Arc, Mutex};

/// Data interruption of a successful handover (detach → attach).
const HO_INTERRUPTION: SimDuration = SimDuration::from_millis(45);

/// Data interruption of an RLF re-establishment (cell search + RRC).
const REESTABLISH_TIME: SimDuration = SimDuration::from_millis(240);

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
    /// Background UE population size (emergent competing load).
    pub background_ues: usize,
    /// The foreground sessions.
    pub flows: Vec<FlowSpec>,
    /// Run length.
    pub duration: SimDuration,
    /// Master seed; the cell and every flow derive named streams from it.
    pub seed: u64,
    /// Fault plan: access-level kinds are applied by the shared cell (to
    /// every foreground UE at once), path-level kinds by each session's
    /// pipes. Empty by default — a no-op.
    pub faults: FaultPlan,
}

impl Default for MultiCellConfig {
    fn default() -> Self {
        MultiCellConfig {
            background_ues: poi360_lte::cell::background_population_for(BackgroundLoad::Typical),
            flows: vec![FlowSpec::default(); 2],
            duration: SimDuration::from_secs(60),
            seed: 1,
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

/// Build one flow's driver-served session. Both drivers build their flows
/// here; what differs between them is only the name of the stream `seed`
/// is drawn from and the fault plan (the session applies its path slice;
/// the access slice belongs to whatever cell serves the flow).
fn flow_session(
    flow: &FlowSpec,
    seed: u64,
    duration: SimDuration,
    faults: &FaultPlan,
    recorder: Recorder,
) -> Session {
    let cfg = SessionConfig {
        scheme: flow.scheme,
        rate_control: flow.rate_control,
        user: flow.user,
        duration,
        seed,
        network: NetworkKind::Cellular(poi360_lte::scenario::Scenario::baseline()),
        ..Default::default()
    };
    let mut session = Session::driver_served(cfg, recorder);
    session.set_fault_plan(faults);
    session
}

/// The shared-cell driver: its configuration, the one cell bundle every
/// flow is resident in (flow `k` in slot `k`, for the whole run), and a
/// clock.
pub struct MultiCell {
    cfg: MultiCellConfig,
    work: CellWork,
    now: SimTime,
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
        let recorder = |src: &str| match &sink {
            Some(sink) => Recorder::to_sink(Arc::clone(sink), src),
            None => Recorder::null(),
        };
        let cell_seed = SimRng::stream(cfg.seed, "multicell.cell").next_u64();
        let mut cell = Cell::new(CellConfig::default(), cell_seed);
        cell.set_recorder(&recorder("cell"));
        cell.set_fault_plan(cfg.faults.clone());
        let mut work = CellWork::new(cell);
        for (k, flow) in cfg.flows.iter().enumerate() {
            let label = format!("fg.{k:02}");
            let slot = work.cell.attach_foreground(&label, ChannelConfig::default());
            let session = flow_session(
                flow,
                SimRng::stream(cfg.seed, &format!("multicell.flow.{k}")).next_u64(),
                cfg.duration,
                &cfg.faults,
                recorder(&label),
            );
            let state = FlowState { session, tally: FlowTally::default() };
            work.flows.push(Resident { index: k, slot, state });
        }
        work.cell.attach_background_population(cfg.background_ues);
        MultiCell { cfg, work, now: SimTime::ZERO }
    }

    /// Configuration in use.
    pub fn config(&self) -> &MultiCellConfig {
        &self.cfg
    }

    /// Advance every session and the cell by exactly one subframe.
    pub fn step(&mut self) {
        self.work.run(self.now);
        self.now += poi360_sim::SUBFRAME;
    }

    /// Run to completion and collect per-flow reports.
    pub fn run(mut self) -> MultiCellReport {
        let end = SimTime::ZERO + self.cfg.duration;
        while self.now < end {
            self.step();
        }
        let CellWork { cell, flows, .. } = self.work;
        MultiCellReport {
            flows: flows
                .into_iter()
                .map(|f| f.state.session.into_report(cell.dropped(f.slot)))
                .collect(),
            mean_utilization: cell.mean_utilization(),
        }
    }
}

// =====================================================================
// Multi-cell grid driver: mobility + A3 handover over a hex lattice
// =====================================================================

/// Configuration of a hex-grid mobility run ([`MultiGrid`]).
#[derive(Clone, Debug)]
pub struct MultiGridConfig {
    /// A3 handover parameters.
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
    /// Worker shards for the epoch-lockstep executor: the cells every
    /// subframe, and the mobile UEs' radio prologue on the subframes
    /// that sample it, are each advanced by this many threads. `1` (the
    /// default) runs fully serial on the caller's thread. Output is
    /// byte-identical at every width — shards only change wall-clock time.
    pub shards: usize,
}

impl Default for MultiGridConfig {
    fn default() -> Self {
        MultiGridConfig {
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

impl FlowTally {
    /// Account one subframe's departures: delivery count, first-transmission
    /// video ordering, and the gap a pending handover just closed.
    fn observe(&mut self, departed: &[(Packet, SimTime)], now: SimTime) {
        for (pkt, _) in departed {
            self.delivered += 1;
            if pkt.flow == FlowKind::Video && !pkt.retransmit {
                if self.last_video_seq.is_some_and(|prev| pkt.seq <= prev) {
                    self.seq_violations += 1;
                }
                self.last_video_seq = Some(self.last_video_seq.map_or(pkt.seq, |p| p.max(pkt.seq)));
            }
        }
        if !departed.is_empty() {
            if let Some(from) = self.pending_gap_from.take() {
                self.gaps_ms.push(now.saturating_since(from).as_secs_f64() * 1e3);
            }
        }
    }
}

/// Something a cell serves, living in that cell's bundle.
struct Resident<T> {
    /// Which UE: the flow number under [`MultiCell`], the radio map's
    /// registration index (flows first, then loads) under [`MultiGrid`].
    index: usize,
    /// The slot it holds in the bundle's cell.
    slot: UeId,
    state: T,
}

/// A resident flow: the session and the driver's delivery tally, which
/// travels with it so a shard updates both without touching driver state.
struct FlowState {
    session: Session,
    tally: FlowTally,
}

/// Where resident `index` sits in `residents` (kept ascending by index).
/// Every UE is resident in its serving cell's bundle — the grid barrier
/// debug-checks exactly that — so a miss is a driver bug.
fn seat<T>(residents: &[Resident<T>], index: usize) -> usize {
    residents
        .binary_search_by_key(&index, |r| r.index)
        .expect("a UE is resident in its serving cell's bundle")
}

/// One cell's bundle: the cell plus everything it serves, which is all it
/// takes to advance the cell one subframe without touching any other.
/// Entirely owned data, so a bundle can be advanced by any worker thread
/// (`CellWork` is `Send`); the executor steps bundles **in place**, each
/// worker holding disjoint ranges of the arena. Residents stay put between
/// subframes and change bundle only in [`MultiGrid::migrate`], so an epoch
/// moves nothing and allocates nothing here.
struct CellWork {
    cell: Cell<Packet>,
    /// Sessions this cell serves, ascending flow index — which is what
    /// fixes the per-cell enqueue order independent of handover history.
    flows: Vec<Resident<FlowState>>,
    /// Load sources this cell serves, ascending load index.
    loads: Vec<Resident<LoadSource>>,
    /// This subframe's PRB utilization, published at the barrier.
    activity: f64,
}

impl CellWork {
    fn new(cell: Cell<Packet>) -> Self {
        CellWork { cell, flows: Vec::new(), loads: Vec::new(), activity: 0.0 }
    }

    /// One subframe of this cell: sources enqueue, one PF allocation,
    /// outcomes route back to the residents. Pure function of the bundle's
    /// own state — runs on any thread — and the one place in this crate a
    /// session meets a cell.
    fn run(&mut self, now: SimTime) {
        // Sources. Sessions run their sender pipeline and the bundle
        // carries what they paced into their slot's firmware buffer; load
        // UEs turn accrued bytes into cross packets.
        for f in &mut self.flows {
            f.state.session.begin();
            for pkt in f.state.session.outbox.drain(..) {
                self.cell.enqueue(f.slot, pkt, now);
            }
        }
        for l in &mut self.loads {
            l.state.carry_bytes += l.state.traffic.subframe();
            while l.state.carry_bytes >= LOAD_PACKET_BYTES {
                l.state.carry_bytes -= LOAD_PACKET_BYTES;
                let pkt = Packet::cross(l.state.next_seq, LOAD_PACKET_BYTES as u32, now);
                l.state.next_seq += 1;
                self.cell.enqueue(l.slot, pkt, now);
            }
        }

        // One PF allocation; utilization is staged for the barrier to
        // publish as the next subframe's interference activity. Sessions
        // borrow their slot's outcome; the emptied shells and consumed
        // diag reports (and every vacant slot's) go back in `recycle`.
        let mut out = self.cell.subframe(now);
        self.activity = out.prbs_granted as f64 / self.cell.config().total_prbs.max(1) as f64;
        for f in &mut self.flows {
            let outcome = &mut out.per_ue[f.slot.0];
            f.state.tally.observe(&outcome.departed, now);
            f.state.session.complete(outcome);
        }
        for l in &mut self.loads {
            l.state.delivered += out.per_ue[l.slot.0].departed.len() as u64;
        }
        self.cell.recycle(out);
    }
}

/// Per-emitter staging buffers for a traced grid run. Every recorder in
/// the grid writes into its own [`BufferSink`] (never the real sink), and
/// the serial barrier drains them into the real sink in canonical order —
/// cells ascending, then flows ascending, then the grid driver, which is
/// the order the build asks for their recorders in — so the JSONL byte
/// stream is identical at every shard width. Inert on an untraced run.
struct GridBuffers {
    sink: Option<SinkHandle>,
    staged: Vec<(String, Arc<Mutex<BufferSink>>)>,
}

impl GridBuffers {
    /// The recorder for emitter `src`, staged behind every earlier one.
    fn recorder(&mut self, src: &str) -> Recorder {
        if self.sink.is_none() {
            return Recorder::null();
        }
        let buf = BufferSink::shared();
        let handle: SinkHandle = buf.clone();
        self.staged.push((src.to_owned(), buf));
        Recorder::to_sink(handle, src)
    }

    /// Merge everything staged into the real sink; `flush` it at run end.
    /// A lock poisoned by a panicking case is taken anyway (`trace::lock`).
    fn drain(&self, flush: bool) {
        let Some(sink) = &self.sink else { return };
        let mut sink = trace::lock(sink);
        for (src, buf) in &self.staged {
            trace::lock(buf).drain_into(src, &mut *sink);
        }
        if flush {
            sink.flush();
        }
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
    /// parallel phase lends each worker disjoint ranges of it. Every
    /// session and load source lives in its serving cell's bundle.
    works: Vec<CellWork>,
    flow_recorders: Vec<Recorder>,
    grid_recorder: Recorder,
    flow_ues: Vec<MobileUe>,
    load_ues: Vec<MobileUe>,
    /// This subframe's position of every mobile UE, indexed like the
    /// radio map's registrations; refilled in place each step.
    positions: Vec<(f64, f64)>,
    /// Every mobile UE's serving cell as of the top of the step and the
    /// observation measured against it, indexed and refilled the same way.
    serving: Vec<CellId>,
    observations: Vec<RadioObservation>,
    /// Previous-subframe PRB utilization per cell (interference input),
    /// copied out of the bundles at the barrier.
    activity: Vec<f64>,
    now: SimTime,
    /// Trace staging.
    buffers: GridBuffers,
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
        let mut radio = RadioMap::new(RadioConfig::default(), grid);
        let mut buffers = GridBuffers { sink, staged: Vec::new() };

        let mut works = Vec::with_capacity(n_cells);
        for c in 0..n_cells {
            let cell_seed = SimRng::stream(cfg.seed, &format!("grid.cell.{c:02}")).next_u64();
            let mut cell = Cell::new(CellConfig::default(), cell_seed);
            cell.set_recorder(&buffers.recorder(&format!("cell.{c:02}")));
            cell.attach_background_population(cfg.static_bg_per_cell);
            works.push(CellWork::new(cell));
        }
        // Stagger indices: flows are spread evenly through the mobile
        // population (convoy position is a function of the index), loads
        // fill the remaining positions in order.
        let n_flows = cfg.flows.len();
        let total_mobiles = n_flows + cfg.load_ues;
        let flow_stagger: Vec<usize> = (0..n_flows).map(|k| k * total_mobiles / n_flows).collect();
        let load_stagger: Vec<usize> = (0..total_mobiles)
            .filter(|idx| !flow_stagger.contains(idx))
            .take(cfg.load_ues)
            .collect();

        let attach_mobile = |radio: &mut RadioMap,
                             works: &mut [CellWork],
                             name: &str,
                             stagger: usize|
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
            // Grid UEs take their channel verdict from the radio map every
            // subframe: the cell-internal channel is never stepped.
            let slot = works[serving.0].cell.attach_foreground(name, ChannelConfig::default());
            let track = radio.register_ue(cfg.seed, name);
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

        // UEs are attached in ascending flow / load index, so pushing each
        // resident onto its serving bundle leaves every list ascending.
        let mut flow_recorders = Vec::with_capacity(n_flows);
        let mut flow_ues = Vec::with_capacity(n_flows);
        for (k, flow) in cfg.flows.iter().enumerate() {
            let label = format!("fg.{k:02}");
            let m = attach_mobile(&mut radio, &mut works, &label, flow_stagger[k]);
            let recorder = buffers.recorder(&label);
            flow_recorders.push(recorder.clone());
            let session = flow_session(
                flow,
                SimRng::stream(cfg.seed, &format!("grid.flow.{k}")).next_u64(),
                cfg.duration,
                &FaultPlan::new(),
                recorder,
            );
            let state = FlowState { session, tally: FlowTally::default() };
            works[m.serving.0].flows.push(Resident { index: m.radio.index(), slot: m.slot, state });
            flow_ues.push(m);
        }
        let grid_recorder = buffers.recorder("grid");

        let mut load_ues = Vec::with_capacity(cfg.load_ues);
        for (j, &stagger) in load_stagger.iter().enumerate() {
            let name = format!("ld.{j:03}");
            let m = attach_mobile(&mut radio, &mut works, &name, stagger);
            // Lighter profile than the in-cell background UEs: with
            // hundreds of mobiles sharing a handful of cells, commuter
            // phones mostly idle with bursts.
            let mut profile = SimRng::stream(cfg.seed, &format!("grid.load.{name}"));
            let traffic_cfg = BackgroundTrafficConfig {
                on_rate_bps: profile.uniform_range(0.1e6, 0.5e6),
                mean_on: SimDuration::from_secs_f64(profile.uniform_range(0.5, 2.0)),
                mean_off: SimDuration::from_secs_f64(profile.uniform_range(2.0, 8.0)),
            };
            let traffic_seed = profile.next_u64();
            let state = LoadSource {
                traffic: BackgroundTraffic::new(traffic_cfg, traffic_seed),
                carry_bytes: 0,
                next_seq: 0,
                delivered: 0,
            };
            works[m.serving.0].loads.push(Resident { index: m.radio.index(), slot: m.slot, state });
            load_ues.push(m);
        }

        MultiGrid {
            cfg,
            radio,
            works,
            flow_recorders,
            grid_recorder,
            positions: vec![(0.0, 0.0); total_mobiles],
            serving: vec![CellId(0); total_mobiles],
            observations: Vec::with_capacity(total_mobiles),
            flow_ues,
            load_ues,
            activity: vec![0.0; n_cells],
            now: SimTime::ZERO,
            buffers,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &MultiGridConfig {
        &self.cfg
    }

    /// Background UE-subframes the cells have walked so far, summed over
    /// the lattice ([`Cell::background_steps`]): an exact work count.
    pub fn background_steps(&self) -> u64 {
        self.works.iter().map(|w| w.cell.background_steps()).sum()
    }

    /// Looks the cells have taken at a background UE's channel so far,
    /// summed the same way ([`Cell::background_channel_samples`]).
    pub fn background_channel_samples(&self) -> u64 {
        self.works.iter().map(|w| w.cell.background_channel_samples()).sum()
    }

    /// Execute `decision` for `m`: detach it from its serving cell, carry
    /// the firmware buffer — and `m`'s session or load source, whichever
    /// list `residents` picks out of a bundle — to the target, and
    /// re-attach. An RLF flushes and re-establishes where a clean handover
    /// restarts the head packet and interrupts briefly. Returns the packets
    /// flushed and the resident's seat in the target bundle, `None` for
    /// [`HoDecision::Stay`]. Serial-phase only; this is the one place a
    /// resident changes bundle, landing at its ascending index so per-cell
    /// enqueue order never depends on handover history.
    fn migrate<T>(
        works: &mut [CellWork],
        m: &mut MobileUe,
        residents: impl Fn(&mut CellWork) -> &mut Vec<Resident<T>>,
        decision: HoDecision,
        now: SimTime,
    ) -> Option<(u64, usize)> {
        let (target, rlf) = match decision {
            HoDecision::Stay => return None,
            HoDecision::Handover(t) => (t, false),
            HoDecision::Rlf(t) => (t, true),
        };
        let index = m.radio.index();
        let src = &mut works[m.serving.0];
        let mut mu = src.cell.detach_foreground(m.slot);
        let from = residents(src);
        let mut resident = from.remove(seat(from, index));
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
        resident.slot = tgt.cell.attach_migrated(mu, ChannelConfig::default());
        m.serving = target;
        m.slot = resident.slot;
        m.outage_until = now + if rlf { REESTABLISH_TIME } else { HO_INTERRUPTION };
        let to = residents(tgt);
        let at = to.partition_point(|r| r.index < index);
        to.insert(at, resident);
        Some((flushed, at))
    }

    /// The serial half of one mobile UE's prologue, given the observation
    /// [`MultiGrid::phase1`] measured for it: run the A3/RLF decision,
    /// migrate on a handover or RLF, and hand the serving cell this
    /// subframe's channel state. Returns the decision and, when it moved
    /// the UE, what [`MultiGrid::migrate`] returned.
    fn settle<T>(
        cfg: &MultiGridConfig,
        obs: RadioObservation,
        works: &mut [CellWork],
        m: &mut MobileUe,
        residents: impl Fn(&mut CellWork) -> &mut Vec<Resident<T>>,
        now: SimTime,
    ) -> (HoDecision, Option<(u64, usize)>) {
        let decision =
            m.a3.decide(&cfg.a3, now, obs.serving_rsrp_dbm, obs.sinr_db, obs.best_neighbor);
        let moved = MultiGrid::migrate(works, m, residents, decision, now);
        let forced = now < m.outage_until;
        let state = obs.channel_state(forced);
        works[m.serving.0].cell.set_foreground_radio(m.slot, state);
        (decision, moved)
    }

    /// Phase 1: mobility, then — when a measurement period has passed —
    /// every UE's radio rows across the pool (they depend on the UE's own
    /// position and streams only), then every subframe all the
    /// measurements in one pass and, serially, the handover decisions,
    /// migrations and radio overrides they feed. Measuring everyone before
    /// anyone settles is order-safe: a UE's observation reads its own held
    /// rows, its own serving cell as of the top of the step and the
    /// previous subframe's activity, and another UE's migration writes none
    /// of the three. Flows first, then loads — a fixed order.
    fn phase1(&mut self, now: SimTime) {
        let dt = poi360_sim::SUBFRAME;
        for m in self.flow_ues.iter_mut().chain(&mut self.load_ues) {
            self.positions[m.radio.index()] = m.motion.step(dt);
            self.serving[m.radio.index()] = m.serving;
        }
        self.radio.advance_all(self.cfg.shards, dt, &self.positions);
        self.radio.measure_all(&self.serving, &self.activity, &mut self.observations);

        let MultiGrid { cfg, observations, works, .. } = self;
        for (k, m) in self.flow_ues.iter_mut().enumerate() {
            let obs = observations[m.radio.index()];
            let (decision, moved) = MultiGrid::settle(cfg, obs, works, m, |w| &mut w.flows, now);
            if let Some((flushed, at)) = moved {
                let (probe, counter, value) = match decision {
                    HoDecision::Rlf(_) => ("ho.rlf", "grid.rlf", flushed as f64),
                    _ => ("ho.exec", "grid.handover", m.serving.0 as f64),
                };
                self.flow_recorders[k].event(probe, now, value);
                self.grid_recorder.count(counter, now, 1);
                let tally = &mut works[m.serving.0].flows[at].state.tally;
                tally.ho_at.push(now);
                tally.pending_gap_from.get_or_insert(now);
            }
            if now.as_millis().is_multiple_of(100) {
                self.flow_recorders[k].gauge("grid.serving_cell", now, m.serving.0 as f64);
            }
        }
        for m in &mut self.load_ues {
            let obs = observations[m.radio.index()];
            match MultiGrid::settle(cfg, obs, works, m, |w| &mut w.loads, now).0 {
                HoDecision::Stay => {}
                HoDecision::Handover(_) => self.grid_recorder.count("grid.handover", now, 1),
                HoDecision::Rlf(_) => self.grid_recorder.count("grid.rlf", now, 1),
            }
        }
    }

    /// The residency invariant: every bundle's residents strictly ascending,
    /// and every mobile UE resident in exactly one bundle — its `serving`
    /// cell's — under its current slot.
    fn residency_holds(&self) -> bool {
        fn holds<T>(
            ues: &[MobileUe],
            works: &[CellWork],
            residents: fn(&CellWork) -> &Vec<Resident<T>>,
        ) -> bool {
            let lists = || works.iter().map(residents);
            lists().all(|l| l.windows(2).all(|w| w[0].index < w[1].index))
                && lists().map(Vec::len).sum::<usize>() == ues.len()
                && ues.iter().all(|m| {
                    let home = residents(&works[m.serving.0]);
                    home.binary_search_by_key(&m.radio.index(), |r| r.index)
                        .is_ok_and(|at| home[at].slot == m.slot)
                })
        }
        holds(&self.flow_ues, &self.works, |w| &w.flows)
            && holds(&self.load_ues, &self.works, |w| &w.loads)
    }

    /// Epoch barrier: publish this subframe's activity as the next
    /// subframe's interference input, emit driver gauges, merge trace
    /// staging in canonical order, and advance time.
    fn barrier(&mut self, now: SimTime) {
        debug_assert!(self.residency_holds(), "a resident is not where its UE is served");
        for (published, w) in self.activity.iter_mut().zip(&self.works) {
            *published = w.activity;
        }
        if now.as_millis().is_multiple_of(100) {
            let mean = self.activity.iter().sum::<f64>() / self.activity.len() as f64;
            self.grid_recorder.gauge("grid.mean_activity", now, mean);
        }
        self.buffers.drain(false);
        self.now = now + poi360_sim::SUBFRAME;
    }

    /// Advance the whole grid by exactly one subframe, honoring
    /// [`MultiGridConfig::shards`]: up to two pool epochs — the radio
    /// prologue inside [`MultiGrid::phase1`] on the subframes that sample,
    /// then the cells — with the one-pass measurement of every UE and the
    /// serial decisions and migrations it feeds between them, and the
    /// barrier after. Neither epoch moves a bundle or
    /// allocates; at `shards <= 1` both are plain loops on the caller.
    pub fn step(&mut self) {
        let now = self.now;
        self.phase1(now);
        // Completion order is irrelevant: bundles stay slotted by cell id.
        poi360_sim::workers::global()
            .for_each_mut(self.cfg.shards, &mut self.works, |_, w| w.run(now));
        self.barrier(now);
    }

    /// Run to completion and assemble the report.
    pub fn run(mut self) -> MultiGridReport {
        let end = SimTime::ZERO + self.cfg.duration;
        while self.now < end {
            self.step();
        }

        // Per-flow stats, each flow taken out of the bundle it ended the
        // run in. ROI-quality-across-handover windows come from the
        // recorder's PSNR gauge, which must be read *before* `into_report`
        // takes the channel.
        let mut flows = Vec::with_capacity(self.flow_ues.len());
        let mut flow_stats = Vec::with_capacity(self.flow_ues.len());
        for (k, m) in self.flow_ues.iter().enumerate() {
            let w = &mut self.works[m.serving.0];
            let FlowState { session, tally } =
                w.flows.remove(seat(&w.flows, m.radio.index())).state;
            let fw = w.cell.firmware(m.slot);
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
                enqueued: fw.total_enqueued(),
                delivered: tally.delivered,
                flushed: fw.flushed(),
                queued_at_end: fw.len() as u64,
                seq_violations: tally.seq_violations,
                gap_ms: tally.gaps_ms,
                psnr_before_db: if before_n > 0 { before_sum / before_n as f64 } else { 0.0 },
                psnr_after_db: if after_n > 0 { after_sum / after_n as f64 } else { 0.0 },
            });
            flows.push((session, w.cell.dropped(m.slot)));
        }

        let unconserved = |m: &&MobileUe| {
            let w = &self.works[m.serving.0];
            let fw = w.cell.firmware(m.slot);
            let delivered = w.loads[seat(&w.loads, m.radio.index())].state.delivered;
            fw.total_enqueued() != delivered + fw.flushed() + fw.len() as u64
        };
        let load_conservation_violations = self.load_ues.iter().filter(unconserved).count() as u64;

        let n_cells = self.works.len() as f64;
        let mean_utilization =
            self.works.iter().map(|w| w.cell.mean_utilization()).sum::<f64>() / n_cells;
        let probe_drops = self.grid_recorder.out_of_order_drops()
            + self.flow_recorders.iter().map(Recorder::out_of_order_drops).sum::<u64>();
        self.buffers.drain(true);
        self.grid_recorder.flush();
        MultiGridReport {
            flows: flows.into_iter().map(|(s, dropped)| s.into_report(dropped)).collect(),
            flow_stats,
            cells: self.works.len(),
            load_ues: self.load_ues.len(),
            load_handovers: self.load_ues.iter().map(|m| m.handovers).sum(),
            load_rlfs: self.load_ues.iter().map(|m| m.rlfs).sum(),
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
        let names: std::collections::BTreeSet<_> = ring.records().map(|(_, r)| r.name).collect();
        assert!(names.contains("cell.prb_grant"), "scheduler grants traced");
        assert!(names.contains("video.frame_encoded"), "flow probes traced");
        let srcs: std::collections::BTreeSet<_> =
            ring.records().map(|(src, _)| src.clone()).collect();
        assert!(srcs.contains("cell"), "srcs {srcs:?}");
        assert!(srcs.contains("fg.00") && srcs.contains("fg.01"), "srcs {srcs:?}");
    }

    #[test]
    fn a_poisoned_staging_buffer_still_drains_into_the_real_sink() {
        let ring = poi360_sim::trace::RingSink::shared(16);
        let mut buffers = GridBuffers { sink: Some(ring.clone()), staged: Vec::new() };
        let (cell, flow) = (buffers.recorder("cell.00"), buffers.recorder("fg.00"));
        cell.event("cell.prb_grant", SimTime::from_millis(1), 50.0);
        let staged = Arc::clone(&buffers.staged[0].1);
        let joined = std::thread::spawn(move || {
            let _held = staged.lock();
            panic!("a cell step panics while it holds its staging buffer");
        })
        .join();
        assert!(
            joined.is_err() && buffers.staged[0].1.is_poisoned(),
            "the buffer must be poisoned"
        );
        cell.event("cell.prb_grant", SimTime::from_millis(2), 48.0);
        flow.event("video.frame_encoded", SimTime::from_millis(2), 1.0);
        buffers.drain(true);
        let sink = trace::lock(&ring);
        let seen: Vec<(&str, &str)> = sink.records().map(|(s, r)| (s.as_str(), r.name)).collect();
        assert_eq!(
            seen,
            [
                ("cell.00", "cell.prb_grant"),
                ("cell.00", "cell.prb_grant"),
                ("fg.00", "video.frame_encoded")
            ]
        );
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
    fn residents_live_in_their_serving_cell_after_every_step() {
        // The fast convoy `tests/determinism.rs` pins: 19 cells, ISD 160 m,
        // 30 m/s, an A3 conservative enough that flows and loads see both
        // clean handovers and RLFs.
        let cfg = MultiGridConfig {
            rings: 2,
            a3: A3Config { hysteresis_db: 12.0, time_to_trigger: SimDuration::from_millis(480) },
            load_ues: 11,
            ..grid_tiny(3, 5)
        };
        let mut grid = MultiGrid::new(cfg);
        for _ in 0..8_000 {
            grid.step();
            assert!(grid.residency_holds(), "at {:?}", grid.now);
        }
        let moves = |ues: &[MobileUe]| {
            ues.iter().fold((0, 0), |(ho, rlf), m| (ho + m.handovers, rlf + m.rlfs))
        };
        let ((flow_ho, flow_rlf), (load_ho, load_rlf)) =
            (moves(&grid.flow_ues), moves(&grid.load_ues));
        assert!(flow_ho >= 1 && flow_rlf >= 1, "flows: {flow_ho} handovers, {flow_rlf} RLFs");
        assert!(load_ho >= 1 && load_rlf >= 1, "loads: {load_ho} handovers, {load_rlf} RLFs");

        // The check has teeth: a resident left behind in the wrong bundle
        // or under a stale slot is reported.
        let from = grid.flow_ues[0].serving.0;
        let stray = grid.works[from].flows.remove(0);
        grid.works[(from + 1) % 19].flows.insert(0, stray);
        assert!(!grid.residency_holds(), "misplaced resident went unnoticed");
    }

    #[test]
    fn a_misdriven_session_fails_one_way() {
        use poi360_lte::uplink::SubframeOutcome;
        fn message(misdrive: impl FnOnce() + std::panic::UnwindSafe) -> String {
            let payload = std::panic::catch_unwind(misdrive).expect_err("misdriving must panic");
            payload.downcast_ref::<String>().expect("formatted panic").clone()
        }
        let cfg = || SessionConfig { duration: SimDuration::from_secs(1), ..Default::default() };
        // A driver-served session stepped as if it owned an uplink ...
        let stepped = message(|| Session::driver_served(cfg(), Recorder::null()).step());
        // ... and a standalone session completed as if a driver served it.
        let completed = message(|| {
            let mut session = Session::new(cfg());
            session.begin();
            session.complete(&mut SubframeOutcome {
                departed: Vec::new(),
                tbs_bits: 0,
                buffer_bytes: 0,
                cqi: 0,
                load: 0.0,
                in_outage: false,
                diag: None,
            });
        });
        assert!(stepped.contains("misdriven"), "{stepped}");
        assert_eq!(stepped, completed, "both misuses must fail at the one documented site");
    }

    #[test]
    fn traced_grid_run_emits_handover_probes() {
        let sink = poi360_sim::trace::RingSink::shared(400_000);
        let report = MultiGrid::traced(grid_tiny(2, 11), sink.clone()).run();
        assert!(report.flow_stats.iter().any(|f| f.handovers + f.rlfs >= 1));
        let ring = sink.lock().unwrap();
        let names: std::collections::BTreeSet<_> = ring.records().map(|(_, r)| r.name).collect();
        assert!(names.contains("ho.exec") || names.contains("ho.rlf"), "handover events traced");
        assert!(names.contains("grid.serving_cell"), "serving-cell gauge traced");
        assert!(names.contains("grid.mean_activity"), "activity gauge traced");
        let srcs: std::collections::BTreeSet<_> =
            ring.records().map(|(src, _)| src.clone()).collect();
        assert!(srcs.contains("grid"), "srcs {srcs:?}");
        assert!(srcs.contains("cell.00"), "srcs {srcs:?}");
    }
}
