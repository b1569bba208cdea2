//! The composed per-subframe LTE uplink: channel + cell load + PF grants +
//! firmware buffer + diag feed.
//!
//! [`CellUplink`] is the object the telephony session drives once per 1 ms
//! subframe. It owns the UE firmware buffer; the transport pacer enqueues
//! RTP packets into it, and each subframe the scheduler serves a grant out
//! of it. Departed packets then ride the rest of the end-to-end path
//! (modeled in `poi360-net`).

use crate::buffer::{FirmwareBuffer, PacketLike};
use crate::channel::{Channel, ChannelConfig};
use crate::diag::DiagReport;
use crate::scheduler::{PfScheduler, SchedulerConfig};
use crate::ue::{BsrPipeline, UeBearer};
use poi360_sim::fault::{FaultPlan, FaultTimeline};
use poi360_sim::process::{MarkovOnOff, OrnsteinUhlenbeck};
use poi360_sim::rng::SimRng;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::Recorder;

/// Competing-cell-load model configuration.
#[derive(Clone, Copy, Debug)]
pub struct LoadConfig {
    /// Mean competing load in `[0, 1)` (fraction of cell UL resources).
    pub mean: f64,
    /// Stationary std of the slow load drift.
    pub std: f64,
    /// Extra load added during bursts (0 disables bursts).
    pub burst_extra: f64,
    /// Mean burst duration.
    pub burst_on: SimDuration,
    /// Mean gap between bursts.
    pub burst_off: SimDuration,
}

impl LoadConfig {
    /// The paper's "early morning, most users off campus" condition.
    pub fn idle() -> Self {
        LoadConfig {
            mean: 0.10,
            std: 0.05,
            burst_extra: 0.0,
            burst_on: SimDuration::from_secs(1),
            burst_off: SimDuration::from_secs(9),
        }
    }

    /// An ordinary daytime cell: moderate, fluctuating competing load.
    /// Used for the paper's §6.1 micro-benchmarks, which ran on a live
    /// campus network at unspecified hours.
    pub fn typical() -> Self {
        LoadConfig {
            mean: 0.35,
            std: 0.12,
            burst_extra: 0.25,
            burst_on: SimDuration::from_millis(1_500),
            burst_off: SimDuration::from_secs(4),
        }
    }

    /// The paper's "noon just after class" condition.
    pub fn busy() -> Self {
        LoadConfig {
            mean: 0.45,
            std: 0.10,
            burst_extra: 0.20,
            burst_on: SimDuration::from_secs(2),
            burst_off: SimDuration::from_secs(6),
        }
    }
}

/// Evolving competing load.
#[derive(Clone, Debug)]
struct CellLoad {
    cfg: LoadConfig,
    drift: OrnsteinUhlenbeck,
    bursts: Option<MarkovOnOff>,
    rng: SimRng,
}

impl CellLoad {
    fn new(cfg: LoadConfig, seed: u64) -> Self {
        let mut rng = SimRng::stream(seed, "lte.load");
        let bursts = if cfg.burst_extra > 0.0 {
            Some(MarkovOnOff::new(cfg.burst_on, cfg.burst_off, false, &mut rng))
        } else {
            None
        };
        CellLoad {
            drift: OrnsteinUhlenbeck::with_stationary(cfg.mean, cfg.std, 5.0),
            bursts,
            cfg,
            rng,
        }
    }

    #[inline]
    fn subframe(&mut self) -> f64 {
        let mut load = self.drift.step(poi360_sim::SUBFRAME, &mut self.rng);
        if let Some(b) = &mut self.bursts {
            if b.step(poi360_sim::SUBFRAME, &mut self.rng) {
                load += self.cfg.burst_extra;
            }
        }
        load.clamp(0.0, 0.95)
    }
}

/// Full uplink configuration.
#[derive(Clone, Copy, Debug)]
pub struct UplinkConfig {
    /// Radio channel model.
    pub channel: ChannelConfig,
    /// Grant model.
    pub scheduler: SchedulerConfig,
    /// Competing cell load.
    pub load: LoadConfig,
}

impl Default for UplinkConfig {
    fn default() -> Self {
        UplinkConfig {
            channel: ChannelConfig::default(),
            scheduler: SchedulerConfig::default(),
            load: LoadConfig::idle(),
        }
    }
}

/// Everything that happened on the uplink in one subframe.
pub struct SubframeOutcome<T> {
    /// Packets whose last byte was served this subframe, with their
    /// firmware-buffer enqueue time.
    pub departed: Vec<(T, SimTime)>,
    /// TBS served this subframe (bits).
    pub tbs_bits: u32,
    /// Firmware buffer level at the *start* of the subframe (what the
    /// chipset logs).
    pub buffer_bytes: u64,
    /// CQI this subframe.
    pub cqi: u8,
    /// Whether a handover outage suppressed the grant.
    pub in_outage: bool,
    /// Diag batch, if this subframe closed a 40 ms epoch.
    pub diag: Option<DiagReport>,
}

/// The UE-side uplink machine: one UE (`crate::ue`) granted by the
/// scalar [`PfScheduler`] against a stochastic competing load.
#[derive(Clone)]
pub struct CellUplink<T> {
    channel: Channel,
    scheduler: PfScheduler,
    load: CellLoad,
    ue: UeBearer<T>,
    /// Grants see a BSR-delayed backlog.
    bsr: BsrPipeline,
    /// Access-network fault plan (radio / diag / grant / flash crowd).
    faults: FaultTimeline,
    /// An injected RLF covered last subframe: its trailing edge re-establishes.
    was_rlf: bool,
    /// Departed-packet vector shells returned via `recycle_departed`,
    /// reused so steady-state subframes do not allocate.
    departed_pool: Vec<Vec<(T, SimTime)>>,
    recorder: Recorder,
}

impl<T: PacketLike> CellUplink<T> {
    /// Build an uplink from config and seed.
    pub fn new(cfg: UplinkConfig, seed: u64) -> Self {
        CellUplink {
            channel: Channel::new(cfg.channel, seed),
            scheduler: PfScheduler::new(cfg.scheduler, seed ^ 0x5eed),
            load: CellLoad::new(cfg.load, seed ^ 0x10ad),
            ue: UeBearer::new(),
            bsr: BsrPipeline::new(cfg.scheduler.bsr_delay_subframes),
            faults: FaultTimeline::default(),
            was_rlf: false,
            departed_pool: Vec::new(),
            recorder: Recorder::null(),
        }
    }

    /// Return a consumed outcome's departed-vector shell (emptied) so the
    /// next subframe reuses its capacity instead of allocating.
    pub fn recycle_departed(&mut self, mut departed: Vec<(T, SimTime)>) {
        departed.clear();
        if self.departed_pool.len() < 4 {
            self.departed_pool.push(departed);
        }
    }

    /// Return a consumed diag report's sample storage for epoch reuse.
    pub fn recycle_diag(&mut self, report: DiagReport) {
        self.ue.recycle_diag(report);
    }

    /// Attach the session's probe recorder.
    pub fn set_recorder(&mut self, rec: &Recorder) {
        self.recorder = rec.clone();
    }

    /// Attach the access-network slice of a fault plan. Path-level kinds in
    /// `plan` (feedback loss, wireline spikes) are ignored here — sessions
    /// apply those at the pipe seam — so passing a full plan is harmless
    /// but slicing first avoids duplicate `fault.*` transition events.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultTimeline::new(plan.access_slice());
    }

    /// Offer a packet to the firmware buffer. Returns false on overflow
    /// drop.
    pub fn enqueue(&mut self, item: T, now: SimTime) -> bool {
        self.ue.enqueue(item, now)
    }

    /// The firmware buffer, read-only: level, drop and conservation counters.
    pub fn firmware(&self) -> &FirmwareBuffer<T> {
        self.ue.fw()
    }

    /// Current firmware buffer level, bytes.
    pub fn buffer_level(&self) -> u64 {
        self.firmware().level_bytes()
    }

    /// Packets dropped at the firmware buffer tail.
    pub fn dropped(&self) -> u64 {
        self.firmware().dropped()
    }

    /// Advance one subframe: sample channel and load, compute the grant,
    /// serve the firmware buffer, and feed the diag interface.
    pub fn subframe(&mut self, now: SimTime) -> SubframeOutcome<T> {
        let af = self.faults.advance(now, &self.recorder);
        // When an injected radio link failure clears, RRC re-establishment
        // flushes the RLC/firmware buffer and resets BSR state. (Natural
        // handover outages keep the buffer — the UE stays attached.) It
        // comes before anything reads the buffer: this subframe reports
        // and serves what is left, which is nothing.
        if self.was_rlf && !af.radio_failure {
            self.ue.reestablish();
            self.bsr.reset();
        }
        self.was_rlf = af.radio_failure;

        let ch = self.channel.subframe(now);
        let load = (self.load.subframe() + af.flash_crowd_load).clamp(0.0, 0.95);
        // An injected radio link failure is an outage like a handover's.
        let in_outage = ch.in_outage || af.radio_failure;
        let reported = self.bsr.turn(self.ue.fw().level_bytes(), in_outage);

        let grant_bits = if in_outage {
            0
        } else {
            // Smooth MCS adaptation: capacity follows the SINR continuously
            // rather than jumping at CQI band edges.
            let eff = crate::tbs::smooth_efficiency(ch.cqi, ch.sinr_db);
            let base = self.scheduler.grant_bits_eff(reported, eff, load);
            // Grant starvation scales the grant the scheduler would have
            // issued; factor 1.0 (no fault) leaves it untouched.
            (base as f64 * af.grant_factor) as u32
        };
        let mut departed = self.departed_pool.pop().unwrap_or_default();
        let (buffer_bytes, tbs_bits, diag) =
            self.ue.transmit(now, grant_bits, af.diag_stall, &mut departed);

        // Sink-only per-subframe probes: a branch each with no sink.
        if tbs_bits > 0 {
            self.recorder.event("cell.tbs_bits", now, tbs_bits as f64);
        }
        if diag.is_some() {
            self.recorder.event("cell.load", now, load);
        }

        SubframeOutcome { departed, tbs_bits, buffer_bytes, cqi: ch.cqi, in_outage, diag }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Pkt(u32);
    impl PacketLike for Pkt {
        fn wire_bytes(&self) -> u32 {
            self.0
        }
    }

    /// Keep the buffer topped up at `level` bytes and measure throughput.
    fn throughput_at_level(level: u64, cfg: UplinkConfig, seed: u64, secs: u64) -> f64 {
        let mut ul = CellUplink::new(cfg, seed);
        let mut now = SimTime::ZERO;
        let mut served_bits = 0u64;
        for _ in 0..secs * 1000 {
            while ul.buffer_level() < level {
                ul.enqueue(Pkt(1_200), now);
            }
            let out = ul.subframe(now);
            served_bits += out.tbs_bits as u64;
            now += poi360_sim::SUBFRAME;
        }
        served_bits as f64 / secs as f64
    }

    #[test]
    fn fig5_shape_linear_then_saturating() {
        let cfg = UplinkConfig::default();
        let r2 = throughput_at_level(2_000, cfg, 1, 20);
        let r5 = throughput_at_level(5_000, cfg, 1, 20);
        let r10 = throughput_at_level(10_000, cfg, 1, 20);
        let r20 = throughput_at_level(20_000, cfg, 1, 20);
        let r40 = throughput_at_level(40_000, cfg, 1, 20);
        assert!(r2 < r5 && r5 < r10 && r10 < r20, "{r2} {r5} {r10} {r20}");
        // Saturation: 20 KB -> 40 KB gains under 15 %.
        assert!((r40 - r20) / r20 < 0.15, "r20 {r20} r40 {r40}");
        // Absolute scale: the paper's Fig. 5 saturates around 4–6 Mbps.
        assert!((3.0e6..6.5e6).contains(&r40), "saturation {r40}");
    }

    #[test]
    fn empty_buffer_serves_nothing() {
        let mut ul = CellUplink::<Pkt>::new(UplinkConfig::default(), 2);
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            let out = ul.subframe(now);
            assert_eq!(out.tbs_bits, 0);
            assert!(out.departed.is_empty());
            now += poi360_sim::SUBFRAME;
        }
    }

    #[test]
    fn bsr_delay_defers_first_grant() {
        let mut ul = CellUplink::new(UplinkConfig::default(), 3);
        let mut now = SimTime::ZERO;
        ul.enqueue(Pkt(50_000), now);
        let mut first_service = None;
        for sf in 0..50u64 {
            let out = ul.subframe(now);
            if out.tbs_bits > 0 && first_service.is_none() {
                first_service = Some(sf);
            }
            now += poi360_sim::SUBFRAME;
        }
        let first = first_service.expect("eventually served");
        assert!(
            first >= UplinkConfig::default().scheduler.bsr_delay_subframes as u64,
            "served at subframe {first}, before the BSR could have arrived"
        );
    }

    #[test]
    fn diag_reports_arrive_every_40ms() {
        let mut ul = CellUplink::<Pkt>::new(UplinkConfig::default(), 4);
        let mut now = SimTime::ZERO;
        let mut reports = 0;
        for _ in 0..400 {
            if ul.subframe(now).diag.is_some() {
                reports += 1;
            }
            now += poi360_sim::SUBFRAME;
        }
        assert_eq!(reports, 10);
    }

    #[test]
    fn busy_cell_is_slower() {
        let idle = throughput_at_level(30_000, UplinkConfig::default(), 5, 20);
        let busy_cfg = UplinkConfig { load: LoadConfig::busy(), ..Default::default() };
        let busy = throughput_at_level(30_000, busy_cfg, 5, 20);
        assert!(busy < idle * 0.8, "busy {busy} idle {idle}");
    }

    #[test]
    fn weak_signal_is_slower() {
        let strong = throughput_at_level(30_000, UplinkConfig::default(), 6, 20);
        let weak_cfg = UplinkConfig {
            channel: ChannelConfig { rss_dbm: -115.0, ..Default::default() },
            ..Default::default()
        };
        let weak = throughput_at_level(30_000, weak_cfg, 6, 20);
        assert!(weak < strong * 0.4, "weak {weak} strong {strong}");
        assert!(weak > 100e3, "weak link must still carry something: {weak}");
    }

    #[test]
    fn packets_depart_in_order_with_enqueue_times() {
        let mut ul = CellUplink::new(UplinkConfig::default(), 7);
        let mut now = SimTime::ZERO;
        for k in 0..20u32 {
            ul.enqueue(Pkt(1_000 + k), now);
        }
        let mut sizes = Vec::new();
        for _ in 0..2_000 {
            let out = ul.subframe(now);
            sizes.extend(out.departed.iter().map(|(p, _)| p.0));
            now += poi360_sim::SUBFRAME;
        }
        assert_eq!(sizes, (0..20u32).map(|k| 1_000 + k).collect::<Vec<_>>());
    }

    #[test]
    fn radio_link_failure_zeroes_tbs_for_the_window() {
        use poi360_sim::fault::{FaultKind, FaultPlan};
        for seed in 1..=5 {
            let mut ul = CellUplink::new(UplinkConfig::default(), seed);
            ul.set_fault_plan(FaultPlan::new().with(
                FaultKind::RadioLinkFailure,
                SimTime::from_millis(200),
                SimDuration::from_millis(300),
            ));
            let mut now = SimTime::ZERO;
            for sf in 0..800u64 {
                while ul.buffer_level() < 20_000 {
                    ul.enqueue(Pkt(1_200), now);
                }
                let out = ul.subframe(now);
                if (200..500).contains(&sf) {
                    assert_eq!(out.tbs_bits, 0, "TBS must be zero during the RLF at sf {sf}");
                    assert!(out.in_outage);
                }
                // The subframe the failure clears re-establishes first: it
                // logs and serves the flushed buffer, not the lost backlog.
                if sf == 500 {
                    assert_eq!((out.tbs_bits, out.buffer_bytes), (0, 0), "seed {seed}");
                    assert!(out.departed.is_empty() && ul.buffer_level() == 0, "seed {seed}");
                }
                now += poi360_sim::SUBFRAME;
            }
        }
    }

    #[test]
    fn diag_stall_freezes_logged_samples_not_the_link() {
        use poi360_sim::fault::{FaultKind, FaultPlan};
        let mut ul = CellUplink::new(UplinkConfig::default(), 10);
        ul.set_fault_plan(FaultPlan::new().with(
            FaultKind::DiagStall,
            SimTime::from_millis(200),
            SimDuration::from_millis(120),
        ));
        let mut now = SimTime::ZERO;
        let mut stalled_samples = Vec::new();
        let mut served_during_stall = 0u64;
        for sf in 0..600u64 {
            while ul.buffer_level() < 30_000 {
                ul.enqueue(Pkt(1_200), now);
            }
            let out = ul.subframe(now);
            if (200..320).contains(&sf) {
                served_during_stall += out.tbs_bits as u64;
            }
            if let Some(r) = out.diag {
                stalled_samples.extend(
                    r.samples
                        .iter()
                        .filter(|s| (200..320).contains(&s.at.as_millis()))
                        .map(|s| (s.buffer_bytes, s.tbs_bits)),
                );
            }
            now += poi360_sim::SUBFRAME;
        }
        assert!(!stalled_samples.is_empty());
        assert!(
            stalled_samples.iter().all(|&s| s == stalled_samples[0]),
            "diag samples must be frozen during the stall"
        );
        assert!(served_during_stall > 0, "the link itself keeps serving during a diag stall");
    }

    #[test]
    fn grant_starvation_scales_throughput() {
        use poi360_sim::fault::{FaultKind, FaultPlan};
        let full = throughput_at_level(30_000, UplinkConfig::default(), 11, 10);
        let mut ul = CellUplink::new(UplinkConfig::default(), 11);
        ul.set_fault_plan(FaultPlan::new().with(
            FaultKind::GrantStarvation { factor: 0.25 },
            SimTime::ZERO,
            SimDuration::from_secs(10),
        ));
        let mut now = SimTime::ZERO;
        let mut served_bits = 0u64;
        for _ in 0..10_000 {
            while ul.buffer_level() < 30_000 {
                ul.enqueue(Pkt(1_200), now);
            }
            served_bits += ul.subframe(now).tbs_bits as u64;
            now += poi360_sim::SUBFRAME;
        }
        let starved = served_bits as f64 / 10.0;
        assert!(starved < full * 0.5, "starved {starved} full {full}");
        assert!(starved > 0.0);
    }

    #[test]
    fn empty_fault_plan_is_byte_identical() {
        use poi360_sim::fault::FaultPlan;
        let run = |with_plan: bool| {
            let mut ul = CellUplink::new(UplinkConfig::default(), 12);
            if with_plan {
                ul.set_fault_plan(FaultPlan::new());
            }
            let mut now = SimTime::ZERO;
            let mut trace = Vec::new();
            for _ in 0..2_000 {
                while ul.buffer_level() < 20_000 {
                    ul.enqueue(Pkt(1_200), now);
                }
                let out = ul.subframe(now);
                trace.push((out.tbs_bits, out.buffer_bytes, out.cqi, out.in_outage));
                now += poi360_sim::SUBFRAME;
            }
            trace
        };
        assert_eq!(run(false), run(true));
    }

    /// `BsrPipeline` as it was before it became a fixed ring, verbatim but
    /// for its name: the oracle for the ring's semantics.
    struct DequePipeline {
        /// Recent queue levels, oldest first.
        ring: std::collections::VecDeque<u64>,
        delay: usize,
        /// Outage state of the previous subframe, for edge detection.
        was_in_outage: bool,
    }

    impl DequePipeline {
        fn new(delay_subframes: usize) -> Self {
            let delay = delay_subframes.max(1);
            DequePipeline {
                ring: std::collections::VecDeque::with_capacity(delay + 1),
                delay,
                was_in_outage: false,
            }
        }

        fn turn(&mut self, level: u64, in_outage: bool) -> u64 {
            self.ring.push_back(level);
            let reported =
                if self.ring.len() > self.delay { self.ring.pop_front().unwrap_or(0) } else { 0 };
            if in_outage && !self.was_in_outage {
                self.ring.clear();
            }
            self.was_in_outage = in_outage;
            reported
        }

        fn reset(&mut self) {
            self.ring.clear();
        }

        fn is_quiet(&self) -> bool {
            self.ring.len() == self.delay && self.ring.iter().all(|&level| level == 0)
        }
    }

    #[test]
    fn bsr_ring_matches_the_deque_pipeline() {
        use poi360_testkit::prop::Gen;
        use poi360_testkit::{prop_assert_eq, prop_check};
        // Every delay the configs may ask for, levels that are mostly zero
        // (so the ring goes quiet and wakes again) or anything at all,
        // outages that come and go, and re-establishments at any point.
        let (mut quiet, mut loud) = (0u64, 0u64);
        prop_check!(512, |g: &mut Gen| {
            let delay = g.usize_in(0, crate::ue::MAX_BSR_DELAY_SUBFRAMES);
            let (mut ring, mut deque) = (BsrPipeline::new(delay), DequePipeline::new(delay));
            let (p_zero, p_edge, p_reset) = (g.f64_in(0.0, 1.0), g.f64_in(0.0, 0.3), 0.02);
            let mut in_outage = g.chance(0.2);
            for step in 0..g.usize_in(1, 120) {
                if g.chance(p_reset) {
                    ring.reset();
                    deque.reset();
                    prop_assert_eq!((step, ring.is_quiet()), (step, deque.is_quiet()));
                }
                in_outage ^= g.chance(p_edge);
                let level = if g.chance(p_zero) {
                    0
                } else if g.chance(0.5) {
                    g.u64_in(1, 3_000)
                } else {
                    g.any_u64()
                };
                let by_ring = (step, ring.turn(level, in_outage), ring.is_quiet());
                let by_deque = (step, deque.turn(level, in_outage), deque.is_quiet());
                prop_assert_eq!(by_ring, by_deque);
                if by_ring.2 {
                    quiet += 1;
                } else {
                    loud += 1;
                }
            }
            Ok(())
        });
        assert!(quiet > 1_000 && loud > 1_000, "quiet {quiet} / not {loud} steps");
    }
}
