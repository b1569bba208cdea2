//! The full 360° telephony session.
//!
//! Wires together everything the paper's prototype runs (Fig. 7):
//!
//! ```text
//! sender:  viewer-ROI knowledge ─▶ compression policy ─▶ encoder
//!              ▲                                             │ frames
//!              │ feedback path                               ▼
//!              │ (ROI, M, RTCP,              packetizer ─▶ pacer (R_rtp)
//!              │  REMB, NACK, PLI)                           │ packets
//!              │                                             ▼
//! client:  reassembler ◀─ downstream pipe ◀─ LTE uplink / wireline
//!              │ frames                          │ diag (B, TBS) ─▶ FBCC
//!              ▼
//!          render + measure (delay, ROI PSNR, M) ─▶ feedback path
//! ```
//!
//! The session advances one LTE subframe (1 ms) at a time; every component
//! is polled explicitly, so a whole run is a deterministic function of its
//! [`SessionConfig`].
//!
//! ### Display model
//! A delivered frame's *user-perceived* ROI quality is the encoded ROI
//! PSNR capped by a staleness term: in an interactive scene, a frame that
//! arrives very late shows outdated content, so the displayed quality
//! decays with delay beyond ~450 ms; an abandoned frame leaves stale
//! content on screen and is scored at `STALE_PSNR_DB`. This reproduces the
//! coupling between congestion and measured quality in the paper's §6
//! results (quality and delay are measured on the same received stream).

use crate::adaptive::{AdaptiveCompression, RoiMismatchMonitor};
use crate::config::{NetworkKind, SessionConfig};
use crate::policy::CompressionPolicy;
use crate::rate::RateControl;
use crate::report::SessionReport;
use crate::ring::SeqRing;
use poi360_lte::uplink::{CellUplink, SubframeOutcome};
use poi360_net::packet::Packet;
use poi360_net::pipe::{DelayPipe, PipeConfig};
use poi360_net::wireline::{WirelineConfig, WirelineLink};
use poi360_sim::fault::{FaultPlan, FaultTimeline};
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::Recorder;
use poi360_transport::gcc::{GccReceiver, Remb};
use poi360_transport::pacer::Pacer;
use poi360_transport::rtcp::ReceiverStats;
use poi360_transport::rtp::{Packetizer, Reassembler};
use poi360_video::content::ContentModel;
use poi360_video::encoder::{frame_interval, EncodedFrame, Encoder, EncoderConfig};
use poi360_video::frame::FrameGeometry;
use poi360_video::rd::RdModel;
use poi360_video::roi::Roi;
use poi360_viewport::motion::{HeadMotion, MotionConfig};

/// Initial encoding bitrate before any feedback, bps.
const START_RATE_BPS: f64 = 1.0e6;

/// The canvas every session encodes: 4K equirectangular, POI360's tiles.
const GEOMETRY: FrameGeometry = FrameGeometry::UHD_4K;

/// PSNR assigned to a frame that never displays (stale content freezes on
/// screen).
pub const STALE_PSNR_DB: f64 = 12.0;

/// Delay beyond which displayed quality starts to decay (the scene has
/// moved on).
const STALENESS_ONSET: f64 = 0.45; // seconds

/// Quality decay per second of excess delay, dB.
const STALENESS_SLOPE: f64 = 35.0;

/// Oldest original send time a NACK can still resurrect (WebRTC's
/// time-limited RTX history). The receiver abandons an incomplete frame
/// 1 s after its first packet, so older retransmissions cannot help.
const RTX_MAX_AGE: SimDuration = SimDuration::from_millis(500);

/// Released packets the RTX history keeps, newest by seq.
const RTX_HISTORY_PACKETS: usize = 4_000;

/// Unscored frames the frame store keeps, newest by number: anything older
/// is past the abandon window anyway.
const FRAME_STORE_FRAMES: usize = 300;

/// Messages on the client → sender feedback path (WebRTC data channel +
/// RTCP).
#[derive(Clone)]
enum FeedbackMsg {
    /// Periodic ROI + averaged mismatch-time feedback (every frame interval).
    RoiAndM { roi: Roi, m: Option<SimDuration> },
    /// RTCP receiver report with RTT echo information.
    ReceiverReport { loss: f64, latest_departed_at: SimTime, hold: SimDuration },
    /// GCC receiver-estimated max bitrate.
    Remb(Remb),
    /// Retransmission request.
    Nack(u64),
    /// Picture loss indication: request a keyframe.
    Pli,
}

/// Access network (the segment FBCC can see into).
// One Access exists per session and lives as long as it, so the size skew
// between variants costs nothing; boxing the uplink would only add a
// pointer chase to the per-subframe hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum Access {
    Cellular(CellUplink<Packet>),
    Wireline(WirelineLink<Packet>),
    /// Served by a driver ([`crate::multicell`]): the session knows neither
    /// the cell nor its slot in it. The driver carries [`Session::outbox`]
    /// to whatever serves this UE and brings back the outcome, which keeps
    /// the whole session `Send` so a shard can step it on a worker thread.
    SharedCell,
}

/// One telephony session. A `clone` shares the original's recorder;
/// [`Session::branch`] is the copy that reports on its own.
#[derive(Clone)]
pub struct Session {
    cfg: SessionConfig,
    now: SimTime,
    rd: RdModel,

    // ---- sender ----
    content: ContentModel,
    encoder: Encoder,
    policy: AdaptiveCompression,
    rate: RateControl,
    packetizer: Packetizer,
    pacer: Pacer,
    sender_roi: Roi,
    next_frame_at: SimTime,
    /// Frame metadata the client "decodes" (matrix, tiles) keyed by number.
    sent_frames: SeqRing<EncodedFrame>,
    /// Released packets retained for NACK retransmission, keyed by seq; a
    /// retransmission overwrites its original.
    sent_packets: SeqRing<Packet>,

    // ---- network ----
    access: Access,
    downstream: DelayPipe<Packet>,
    feedback: DelayPipe<FeedbackMsg>,
    /// Path-level fault plan (feedback loss, wireline spikes); access-level
    /// faults live inside the uplink/cell.
    path_faults: FaultTimeline,

    // ---- client ----
    viewer: HeadMotion,
    reassembler: Reassembler,
    gcc_rx: GccReceiver,
    rstats: ReceiverStats,
    monitor: RoiMismatchMonitor,
    next_roi_feedback_at: SimTime,
    next_rr_at: SimTime,
    last_arrival: Option<(SimTime, SimTime)>, // (pkt departed_at, arrival)

    /// The viewer's ROI as sampled at the top of this subframe.
    client_roi: Roi,

    // ---- hot-path staging (DESIGN.md §10) ----
    /// Packets the pacer released this subframe, stamped and retained for
    /// NACKs, waiting for whoever serves the uplink to drain them.
    pub(crate) outbox: Vec<Packet>,
    /// Downstream arrival staging, cleared (capacity kept) every tick.
    arrivals: Vec<(SimTime, Packet)>,
    /// Feedback arrival staging, cleared (capacity kept) every tick.
    fb_arrivals: Vec<(SimTime, FeedbackMsg)>,

    // ---- measurement ----
    /// Probe handle every layer reports through; the report's series are
    /// derived from its channels in [`Session::into_report`].
    recorder: Recorder,
    report: SessionReport,
    rx_bytes_this_second: u64,
    current_second: u64,
}

impl Session {
    /// Build a session from its configuration, with no trace sink attached.
    pub fn new(cfg: SessionConfig) -> Self {
        Session::traced(cfg, Recorder::null())
    }

    /// Build a session whose probes report through `recorder` (normally one
    /// created with [`Recorder::to_sink`]; [`Session::new`] passes a null
    /// recorder). The recorder must be exclusive to this session.
    pub fn traced(cfg: SessionConfig, recorder: Recorder) -> Self {
        let (access, downstream_cfg, feedback_cfg) = match cfg.network {
            NetworkKind::Cellular(scenario) => (
                Access::Cellular(CellUplink::new(scenario.uplink_config(), cfg.seed)),
                PipeConfig::cellular_downstream(),
                PipeConfig::cellular_feedback(),
            ),
            NetworkKind::CellularEdge(scenario) => (
                Access::Cellular(CellUplink::new(scenario.uplink_config(), cfg.seed)),
                PipeConfig::edge_downstream(),
                PipeConfig::edge_feedback(),
            ),
            NetworkKind::Wireline => (
                Access::Wireline(WirelineLink::new(WirelineConfig::default())),
                PipeConfig::wireline_transit(),
                PipeConfig::wireline_feedback(),
            ),
        };
        Session::build(cfg, access, downstream_cfg, feedback_cfg, recorder)
    }

    /// Build a session whose uplink somebody else serves (`cfg.network` is
    /// not consulted): the driver advances it with [`Session::begin`],
    /// drains [`Session::outbox`] into the UE's queue, and returns the
    /// UE's slice of the subframe through [`Session::complete`].
    pub(crate) fn driver_served(cfg: SessionConfig, recorder: Recorder) -> Self {
        Session::build(
            cfg,
            Access::SharedCell,
            PipeConfig::cellular_downstream(),
            PipeConfig::cellular_feedback(),
            recorder,
        )
    }

    fn build(
        cfg: SessionConfig,
        access: Access,
        downstream_cfg: PipeConfig,
        feedback_cfg: PipeConfig,
        recorder: Recorder,
    ) -> Self {
        let grid = GEOMETRY.grid;
        let label = cfg.label();
        let mut session = Session {
            now: SimTime::ZERO,
            rd: RdModel::default(),
            content: ContentModel::new(grid, cfg.seed),
            encoder: Encoder::new(
                EncoderConfig { geometry: GEOMETRY, ..Default::default() },
                cfg.seed,
            ),
            policy: AdaptiveCompression::for_scheme(cfg.scheme),
            rate: RateControl::new(cfg.rate_control, START_RATE_BPS),
            packetizer: Packetizer::new(),
            pacer: Pacer::new(START_RATE_BPS),
            sender_roi: Roi::front(&grid),
            next_frame_at: SimTime::ZERO,
            sent_frames: SeqRing::new(FRAME_STORE_FRAMES),
            sent_packets: SeqRing::new(RTX_HISTORY_PACKETS),
            access,
            downstream: DelayPipe::new(downstream_cfg, cfg.seed ^ 0xd0),
            feedback: DelayPipe::new(feedback_cfg, cfg.seed ^ 0xfb),
            path_faults: FaultTimeline::default(),
            viewer: HeadMotion::new(cfg.user, MotionConfig::default(), cfg.seed ^ 0x9e),
            reassembler: Reassembler::new(SimDuration::from_millis(1_500)),
            gcc_rx: GccReceiver::new(START_RATE_BPS),
            rstats: ReceiverStats::new(),
            monitor: RoiMismatchMonitor::new(),
            next_roi_feedback_at: SimTime::ZERO,
            next_rr_at: SimTime::from_millis(100),
            last_arrival: None,
            client_roi: Roi::front(&grid),
            outbox: Vec::new(),
            arrivals: Vec::new(),
            fb_arrivals: Vec::new(),
            recorder: Recorder::null(),
            report: SessionReport { label, ..Default::default() },
            rx_bytes_this_second: 0,
            current_second: 0,
            cfg,
        };
        session.attach(recorder);
        session
    }

    /// Hand `recorder` to every instrumented component — the compression
    /// policy, the rate controller, the encoder, the pacer and a standalone
    /// cellular uplink — and keep it as the session's own. Clones share
    /// the same channels and sink, so the session's probes all land in one
    /// place. [`Session::build`] and [`Session::branch`] both come through
    /// here, so neither can leave a component on another recorder.
    fn attach(&mut self, recorder: Recorder) {
        self.policy.set_recorder(&recorder);
        self.rate.set_recorder(&recorder);
        self.encoder.set_recorder(&recorder);
        self.pacer.set_recorder(&recorder);
        if let Access::Cellular(ul) = &mut self.access {
            ul.set_recorder(&recorder);
        }
        self.recorder = recorder;
    }

    /// A copy of this session, at this instant, that reports through
    /// `recorder` from here on. Every component's state is copied; the
    /// probes move to `recorder`, which should start from a copy of this
    /// session's channels ([`Recorder::fork`]) for the copy's report to
    /// count what was emitted before the branch. Stepping the copy does
    /// exactly what stepping the original would: with a fault plan
    /// attached here that does nothing before its first window
    /// (DESIGN.md §9), the copy runs byte for byte like a session built
    /// with the plan.
    pub fn branch(&self, recorder: Recorder) -> Session {
        let mut copy = self.clone();
        copy.attach(recorder);
        copy
    }

    /// [`Session::traced`] with a fault plan attached.
    pub fn faulted_traced(cfg: SessionConfig, plan: &FaultPlan, recorder: Recorder) -> Self {
        let mut s = Session::traced(cfg, recorder);
        s.set_fault_plan(plan);
        s
    }

    /// Attach a fault plan to this session. Path-level kinds (feedback
    /// loss, wireline spikes) are applied at the session's pipe seams;
    /// access-level kinds are forwarded to a standalone cellular uplink.
    /// Driver-served sessions get access faults from whatever serves them
    /// (`MultiCellConfig::faults` reaches the shared cell), and wireline
    /// access has no radio to fail, so in both cases the access slice is
    /// ignored here.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.path_faults = FaultTimeline::new(plan.path_slice());
        if let Access::Cellular(ul) = &mut self.access {
            ul.set_fault_plan(plan.clone());
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run to completion and return the measurement record.
    pub fn run(mut self) -> SessionReport {
        let end = SimTime::ZERO + self.cfg.duration;
        while self.now < end {
            self.step();
        }
        let access_dropped = match &self.access {
            Access::Cellular(ul) => ul.dropped(),
            Access::Wireline(link) => link.dropped(),
            Access::SharedCell => 0,
        };
        self.into_report(access_dropped)
    }

    /// Advance exactly one subframe (1 ms): the same begin / absorb /
    /// egress sequence a driver runs, around this session's own uplink.
    /// Only valid for standalone access networks; a driver-served session
    /// is advanced by its driver and panics here.
    pub fn step(&mut self) {
        self.begin();

        // 5. Access link service.
        let now = self.now;
        let served = match &mut self.access {
            Access::Cellular(ul) => {
                for pkt in self.outbox.drain(..) {
                    ul.enqueue(pkt, now);
                }
                Some(ul.subframe(now))
            }
            Access::Wireline(link) => {
                for pkt in self.outbox.drain(..) {
                    link.enqueue(pkt, now);
                }
                for (_, pkt) in link.poll(now) {
                    self.downstream.send(pkt, now);
                }
                None
            }
            Access::SharedCell => self.misdriven(),
        };
        if let Some(mut out) = served {
            self.absorb(&mut out);
            // Hand the emptied shell and the consumed report back so the
            // next subframe serves into them instead of allocating.
            if let Access::Cellular(ul) = &mut self.access {
                ul.recycle_departed(out.departed);
                if let Some(diag) = out.diag {
                    ul.recycle_diag(diag);
                }
            }
        }

        self.egress();
    }

    /// The one way to get the seam wrong: a session is advanced by whoever
    /// owns its uplink — [`Session::step`] for a standalone session,
    /// [`Session::begin`] + [`Session::complete`] for a driver-served one —
    /// and the other party's call is a programming error, not a runtime
    /// condition.
    fn misdriven(&self) -> ! {
        panic!(
            "session {} misdriven: standalone sessions advance through Session::step, \
             driver-served ones through their driver's begin/complete",
            self.report.label
        )
    }

    /// Phases 1–4: head motion, feedback intake, encode, pacing. Leaves
    /// this subframe's packets in [`Session::outbox`] for whoever serves
    /// the uplink, and the sampled client ROI in the session for
    /// [`Session::egress`].
    pub(crate) fn begin(&mut self) {
        let now = self.now;

        // 1. Client head motion (sensor rate = subframe rate).
        self.viewer.step(poi360_sim::SUBFRAME);
        self.client_roi = self.viewer.roi(&GEOMETRY.grid);
        self.monitor.on_roi_update(now, &self.client_roi);

        // 2. Path-level fault state, then feedback arrivals at the sender.
        if !self.path_faults.is_empty() {
            let af = self.path_faults.advance(now, &self.recorder);
            self.feedback.set_fault_state(SimDuration::ZERO, af.feedback_loss);
            self.downstream.set_fault_state(af.extra_path_delay, af.extra_path_loss);
        }
        let mut fb = std::mem::take(&mut self.fb_arrivals);
        self.feedback.poll_into(now, &mut fb);
        for (_, msg) in fb.drain(..) {
            self.sender_handle_feedback(msg);
        }
        self.fb_arrivals = fb;

        // 3. Frame capture + encode on schedule.
        while self.now >= self.next_frame_at {
            self.sender_encode_frame();
            self.next_frame_at += frame_interval();
        }

        // 4. Pace packets toward the access link.
        self.pacer.set_rate_bps(self.rate.rtp_rate_bps(now));
        self.pacer.tick_into(now, &mut self.outbox);
        for pkt in &mut self.outbox {
            pkt.sent_at = now; // abs-send-time: when the packet leaves the app
            self.sent_packets.insert(pkt.seq, pkt.clone());
        }
    }

    /// Feed one uplink subframe outcome into the session: departed packets
    /// enter the downstream path, and a closed diag epoch reaches the rate
    /// controller. The outcome is only borrowed — the emptied `departed`
    /// shell and the consumed diag report stay with the caller, who owns
    /// the uplink they recycle into.
    fn absorb(&mut self, out: &mut SubframeOutcome<Packet>) {
        let now = self.now;
        for (pkt, _) in out.departed.drain(..) {
            self.downstream.send(pkt, now);
        }
        if let Some(diag) = &out.diag {
            self.recorder.gauge("uplink.fw_buffer_bytes", now, diag.last_buffer_bytes() as f64);
            self.recorder.gauge("uplink.phy_rate_bps", now, diag.mean_phy_rate_bps());
            self.rate.on_diag(diag, now);
        }
    }

    /// Phases 6–7 plus the clock advance.
    fn egress(&mut self) {
        let now = self.now;

        // 6. Deliveries at the client.
        let mut arrivals = std::mem::take(&mut self.arrivals);
        self.downstream.poll_into(now, &mut arrivals);
        for (at, pkt) in arrivals.drain(..) {
            self.client_handle_packet(pkt, at);
        }
        self.arrivals = arrivals;

        // 7. Client housekeeping: NACKs, abandoned frames, REMB, RR, ROI/M.
        self.client_housekeeping();

        self.now += poi360_sim::SUBFRAME;
    }

    /// Driver hook: absorb this UE's slice of the subframe its serving
    /// cell just ran and finish the subframe (phases 6–7). Misdriven on a
    /// standalone session.
    pub(crate) fn complete(&mut self, out: &mut SubframeOutcome<Packet>) {
        if !matches!(self.access, Access::SharedCell) {
            self.misdriven();
        }
        self.absorb(out);
        self.egress();
    }

    // ---------------------------------------------------------------
    // Sender side
    // ---------------------------------------------------------------

    fn sender_handle_feedback(&mut self, msg: FeedbackMsg) {
        match msg {
            FeedbackMsg::RoiAndM { roi, m } => {
                self.sender_roi = roi;
                self.policy.on_roi_feedback(self.now, &roi);
                if let Some(m) = m {
                    self.policy.on_mismatch_feedback(self.now, m);
                }
            }
            FeedbackMsg::ReceiverReport { loss, latest_departed_at, hold } => {
                let rtt = self.now.saturating_since(latest_departed_at).saturating_sub(hold);
                self.rate.on_receiver_report(loss, rtt);
            }
            FeedbackMsg::Remb(remb) => self.rate.on_remb(remb),
            FeedbackMsg::Nack(seq) => {
                // The RTX history is time-limited (as in WebRTC): a packet
                // this old can no longer beat the receiver's abandon timer,
                // and honoring stale NACKs after an outage clears would
                // turn the backlog into a retransmission storm.
                if let Some(pkt) = self.sent_packets.get(seq) {
                    if self.now.saturating_since(pkt.sent_at) <= RTX_MAX_AGE {
                        let mut retx = pkt.clone();
                        retx.retransmit = true;
                        self.pacer.enqueue_front(retx);
                    }
                }
            }
            FeedbackMsg::Pli => self.encoder.request_keyframe(),
        }
    }

    fn sender_encode_frame(&mut self) {
        let grid = GEOMETRY.grid;
        let matrix = self.policy.matrix(&grid, &self.sender_roi);
        let rv = self.rate.video_rate_bps(self.now);
        let frame = self.encoder.encode(self.now, self.sender_roi, &matrix, &self.content, rv);
        self.content.advance_frame();

        self.recorder.count("video.frame_encoded", self.now, 1);
        self.recorder.gauge("video.rate_bps", self.now, rv);
        self.recorder.gauge("pacer.rate_bps", self.now, self.rate.rtp_rate_bps(self.now));

        for pkt in self.packetizer.packetize(frame.frame_no, frame.bytes, self.now) {
            self.pacer.enqueue(pkt);
        }
        self.sent_frames.insert(frame.frame_no, frame);
    }

    // ---------------------------------------------------------------
    // Client side
    // ---------------------------------------------------------------

    fn client_handle_packet(&mut self, pkt: Packet, at: SimTime) {
        self.rx_bytes_this_second += pkt.bytes as u64;
        let second = at.as_micros() / 1_000_000;
        if second > self.current_second {
            // Close the finished second(s).
            let rate = self.rx_bytes_this_second as f64 * 8.0;
            self.recorder.gauge(
                "session.throughput_bps",
                SimTime::from_secs(self.current_second + 1),
                rate,
            );
            self.rx_bytes_this_second = 0;
            self.current_second = second;
        }

        self.last_arrival = Some((pkt.sent_at, at));
        self.gcc_rx.on_packet(&pkt, at);
        self.rstats.on_packet(&pkt, at);
        if let Some(done) = self.reassembler.on_packet(&pkt, at) {
            self.client_handle_frame(done.frame_no, done.completed_at);
        }
    }

    fn client_handle_frame(&mut self, frame_no: u64, completed_at: SimTime) {
        let Some(meta) = self.sent_frames.remove(frame_no) else {
            return; // metadata already pruned: too old to score
        };
        let grid = GEOMETRY.grid;
        let client_roi = self.client_roi;
        let delay = completed_at.saturating_since(meta.capture_time) + self.cfg.pipeline_delay;

        self.recorder.count("video.frame_delivered", completed_at, 1);
        self.report.freeze.record(delay);

        // User-perceived ROI quality: encoded quality in the viewer's FoV,
        // capped by staleness.
        let encoded_psnr = meta.region_psnr(&self.rd, &GEOMETRY, client_roi.fov_tiles(&grid, 1, 1));
        let staleness_cap =
            55.0 - STALENESS_SLOPE * (delay.as_secs_f64() - STALENESS_ONSET).max(0.0);
        let displayed = encoded_psnr.min(staleness_cap).max(8.0);
        self.recorder.gauge("video.roi_psnr_db", completed_at, displayed);

        // Displayed compression level at the gaze tile (Fig. 12 input).
        self.recorder.gauge("video.roi_level", completed_at, meta.matrix.level(client_roi.center));

        // ROI mismatch measurement (Eq. 2) and its window.
        let m = self.monitor.on_frame(completed_at, &meta, &client_roi, delay);
        self.recorder.gauge("session.mismatch_ms", completed_at, m.as_micros() as f64 / 1e3);
    }

    fn client_housekeeping(&mut self) {
        let now = self.now;

        // NACK generation.
        for nack in self.reassembler.poll_nacks(now, SimDuration::from_millis(100)) {
            self.feedback.send(FeedbackMsg::Nack(nack.seq), now);
        }

        // Abandoned frames: freeze + stale display + PLI.
        let abandoned = self.reassembler.poll_abandoned(now);
        for frame_no in abandoned {
            self.sent_frames.remove(frame_no);
            self.recorder.count("video.frame_abandoned", now, 1);
            self.report.freeze.record_lost();
            // Chronologically safe alongside the delivered-frame samples:
            // this subframe's arrivals (at <= now) were absorbed before
            // housekeeping runs at `now`.
            self.recorder.gauge("video.roi_psnr_db", now, STALE_PSNR_DB);
            self.feedback.send(FeedbackMsg::Pli, now);
        }

        // REMB.
        if let Some(remb) = self.gcc_rx.poll_remb(now) {
            self.feedback.send(FeedbackMsg::Remb(remb), now);
        }

        // RTCP receiver reports every 100 ms.
        if now >= self.next_rr_at {
            self.next_rr_at = now + SimDuration::from_millis(100);
            let loss = self.rstats.make_report();
            if let Some((departed_at, arrival)) = self.last_arrival {
                self.feedback.send(
                    FeedbackMsg::ReceiverReport {
                        loss,
                        latest_departed_at: departed_at,
                        hold: now.saturating_since(arrival),
                    },
                    now,
                );
            }
        }

        // ROI + M feedback every frame interval.
        if now >= self.next_roi_feedback_at {
            self.next_roi_feedback_at = now + frame_interval();
            self.feedback.send(
                FeedbackMsg::RoiAndM { roi: self.client_roi, m: self.monitor.average() },
                now,
            );
        }
    }

    /// Consume the session and derive its report from the probe channels.
    /// Every series below is the channel a probe retained during the run;
    /// nothing is double-counted because the emission sites replaced the
    /// old inline pushes 1:1. `access_dropped` is the tail-drop total of
    /// whatever queue served this session's uplink — its owner reads it.
    /// The report outlives the run, so every buffer in it leaves at its
    /// exact length (`take_gauge` shrinks the series; DESIGN.md §10).
    pub(crate) fn into_report(mut self, access_dropped: u64) -> SessionReport {
        let rec = &self.recorder;
        self.report.frames_sent = rec.counter("video.frame_encoded");
        self.report.frames_delivered = rec.counter("video.frame_delivered");
        self.report.frames_lost = rec.counter("video.frame_abandoned");
        self.report.roi_psnr_db = rec.take_gauge("video.roi_psnr_db").values();
        self.report.roi_level = rec.take_gauge("video.roi_level");
        self.report.mismatch_ms = rec.take_gauge("session.mismatch_ms");
        self.report.fw_buffer = rec.take_gauge("uplink.fw_buffer_bytes");
        self.report.phy_rate = rec.take_gauge("uplink.phy_rate_bps");
        self.report.video_rate = rec.take_gauge("video.rate_bps");
        self.report.rtp_rate = rec.take_gauge("pacer.rate_bps");
        self.report.throughput = rec.take_gauge("session.throughput_bps");
        self.report.freeze.shrink_to_fit();
        self.report.uplink_detections = self.rate.uplink_detections();
        self.report.packets_dropped = access_dropped + self.downstream.lost();
        self.recorder.flush();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CompressionScheme, RateControlKind};
    use poi360_lte::scenario::Scenario;
    use poi360_viewport::motion::UserArchetype;

    fn cfg(
        scheme: CompressionScheme,
        rc: RateControlKind,
        network: NetworkKind,
        seed: u64,
    ) -> SessionConfig {
        SessionConfig {
            scheme,
            rate_control: rc,
            network,
            user: UserArchetype::EventDriven,
            duration: SimDuration::from_secs(30),
            seed,
            ..Default::default()
        }
    }

    fn cellular() -> NetworkKind {
        NetworkKind::Cellular(Scenario::baseline())
    }

    #[test]
    fn sessions_are_send() {
        // The sharded grid driver ships whole sessions to worker threads;
        // this assertion is the compile-time contract that keeps it legal.
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
    }

    #[test]
    fn poi360_cellular_session_delivers_frames() {
        let report =
            Session::new(cfg(CompressionScheme::Poi360, RateControlKind::Fbcc, cellular(), 42))
                .run();
        // 30 s at 36 FPS = 1080 frames sent.
        assert!((1_050..=1_120).contains(&report.frames_sent), "sent {}", report.frames_sent);
        let delivered_frac = report.frames_delivered as f64 / report.frames_sent as f64;
        assert!(delivered_frac > 0.9, "delivered fraction {delivered_frac}");
        assert!(!report.roi_psnr_db.is_empty());
        assert!(!report.fw_buffer.is_empty(), "cellular sessions record diag");
    }

    #[test]
    fn wireline_session_runs_clean() {
        let report = Session::new(cfg(
            CompressionScheme::Poi360,
            RateControlKind::Gcc,
            NetworkKind::Wireline,
            43,
        ))
        .run();
        assert!(report.frames_delivered > 1_000);
        assert!(report.freeze_ratio() < 0.05, "wireline freeze {}", report.freeze_ratio());
        assert!(report.fw_buffer.is_empty(), "no diag on wireline");
    }

    #[test]
    fn sessions_are_deterministic() {
        let a = Session::new(cfg(CompressionScheme::Poi360, RateControlKind::Fbcc, cellular(), 7))
            .run();
        let b = Session::new(cfg(CompressionScheme::Poi360, RateControlKind::Fbcc, cellular(), 7))
            .run();
        assert_eq!(a.frames_sent, b.frames_sent);
        assert_eq!(a.frames_delivered, b.frames_delivered);
        assert_eq!(a.roi_psnr_db, b.roi_psnr_db);
        assert_eq!(a.mean_throughput_bps(), b.mean_throughput_bps());
    }

    #[test]
    fn seeds_change_outcomes() {
        let a = Session::new(cfg(CompressionScheme::Poi360, RateControlKind::Fbcc, cellular(), 1))
            .run();
        let b = Session::new(cfg(CompressionScheme::Poi360, RateControlKind::Fbcc, cellular(), 2))
            .run();
        assert_ne!(a.roi_psnr_db, b.roi_psnr_db);
    }

    #[test]
    fn fbcc_freezes_less_than_gcc_under_stress() {
        // The paper's Fig. 16a core claim: FBCC's local congestion detection
        // keeps the freeze ratio below stock GCC's on the same congested
        // cell. GCC's edge is a rare long stall, so a pooled freeze ratio is
        // heavy-tailed: over seeds 11..=250 a 12-seed pool holds in 16 of 20
        // disjoint pools, a 120-seed pool in over 99 % of resampled ones.
        let pooled = |rc| -> f64 {
            (11u64..=130)
                .map(|seed| {
                    Session::new(cfg(CompressionScheme::Poi360, rc, cellular(), seed))
                        .run()
                        .freeze_ratio()
                })
                .sum()
        };
        // 240 sessions: the two pools run side by side.
        let (fbcc_frozen, gcc_frozen) = std::thread::scope(|s| {
            let fbcc = s.spawn(|| pooled(RateControlKind::Fbcc));
            let gcc = pooled(RateControlKind::Gcc);
            (fbcc.join().expect("the FBCC pool ran"), gcc)
        });
        assert!(fbcc_frozen < gcc_frozen, "fbcc {fbcc_frozen} vs gcc {gcc_frozen}");
    }

    #[test]
    fn mismatch_feedback_flows() {
        let report =
            Session::new(cfg(CompressionScheme::Poi360, RateControlKind::Fbcc, cellular(), 21))
                .run();
        assert!(!report.mismatch_ms.is_empty());
        // M is at least the frame delay, so its mean is positive.
        assert!(report.mismatch_ms.mean().unwrap() > 0.0);
    }

    #[test]
    fn pyramid_is_bitrate_starved_on_cellular() {
        // Pyramid needs ~43 % of 12.65 Mbps ≈ 5.4 Mbps for full quality —
        // far above the cell's capacity — so its delivered quality must
        // fall below POI360's, which adapts its spatial load.
        let mut pyr = 0.0;
        let mut poi = 0.0;
        for seed in [31u64, 32, 33] {
            pyr += Session::new(cfg(
                CompressionScheme::Pyramid,
                RateControlKind::Gcc,
                cellular(),
                seed,
            ))
            .run()
            .mean_psnr_db();
            poi += Session::new(cfg(
                CompressionScheme::Poi360,
                RateControlKind::Gcc,
                cellular(),
                seed,
            ))
            .run()
            .mean_psnr_db();
        }
        assert!(pyr < poi, "pyramid {pyr} vs poi {poi}");
    }

    #[test]
    fn throughput_is_recorded_and_sane() {
        let report =
            Session::new(cfg(CompressionScheme::Poi360, RateControlKind::Fbcc, cellular(), 51))
                .run();
        let tput = report.mean_throughput_bps();
        assert!((0.3e6..6.0e6).contains(&tput), "throughput {tput}");
    }

    #[test]
    fn predictive_scheme_runs_end_to_end() {
        let report = Session::new(cfg(
            CompressionScheme::Poi360Predictive,
            RateControlKind::Fbcc,
            cellular(),
            61,
        ))
        .run();
        assert!(report.frames_delivered > 900, "delivered {}", report.frames_delivered);
        assert!(report.mean_psnr_db() > 20.0);
    }

    #[test]
    fn fixed_mode_schemes_run_and_differ() {
        let f1 = Session::new(cfg(
            CompressionScheme::FixedMode(1),
            RateControlKind::Fbcc,
            cellular(),
            62,
        ))
        .run();
        let f8 = Session::new(cfg(
            CompressionScheme::FixedMode(8),
            RateControlKind::Fbcc,
            cellular(),
            62,
        ))
        .run();
        // The conservative mode needs far more bitrate, so on the same cell
        // it must deliver lower quality.
        assert!(
            f8.mean_psnr_db() < f1.mean_psnr_db(),
            "F8 {} vs F1 {}",
            f8.mean_psnr_db(),
            f1.mean_psnr_db()
        );
    }

    #[test]
    fn edge_relay_shortens_the_loop() {
        let edge = Session::new(cfg(
            CompressionScheme::Poi360,
            RateControlKind::Fbcc,
            NetworkKind::CellularEdge(Scenario::baseline()),
            63,
        ))
        .run();
        let internet =
            Session::new(cfg(CompressionScheme::Poi360, RateControlKind::Fbcc, cellular(), 63))
                .run();
        assert!(
            edge.freeze.median_delay_ms() < internet.freeze.median_delay_ms(),
            "edge {:?} vs internet {:?}",
            edge.freeze.median_delay_ms(),
            internet.freeze.median_delay_ms()
        );
        // Shorter feedback loop => smaller measured ROI mismatch time.
        assert!(
            edge.mismatch_ms.mean().unwrap() < internet.mismatch_ms.mean().unwrap(),
            "edge M {} vs internet M {}",
            edge.mismatch_ms.mean().unwrap(),
            internet.mismatch_ms.mean().unwrap()
        );
    }
}
