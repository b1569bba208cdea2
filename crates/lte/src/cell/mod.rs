//! A shared eNodeB uplink cell serving many concurrent UEs.
//!
//! The standalone [`crate::uplink::CellUplink`] models *one* UE against a
//! stochastic competing-load scalar. This module is the multi-user
//! counterpart: a single [`Cell`] owns N attached UEs — each with its own
//! [`Channel`], BSR reporting pipeline, HARQ process, and uplink queue —
//! and every 1 ms subframe runs one proportional-fair PRB allocation
//! across all of them. Cell load is *emergent*: background UEs run on/off
//! traffic sources into real queues and compete for the same PRBs the
//! foreground (telephony) UEs want, so "busy cell" is produced by queues,
//! not sampled from a distribution.
//!
//! Scheduling follows textbook PF: each backlogged UE is weighted by
//! `instantaneous rate / EWMA throughput`, PRBs are split proportionally
//! to weight subject to a per-UE cap (integerized by largest remainder),
//! and the EWMA is updated from what each UE actually served. Everything
//! UE-side — the BSR pipeline and its outage reset, spending a grant with
//! its TBS accounting, diag logging, the RRC re-establishment flush — is
//! `crate::ue`, the same code the standalone uplink runs, so a session
//! sees one contract either way. What is this model's own is the grant
//! law (`allocate_prbs` and `Candidate::grant_bits` where the
//! standalone has `PfScheduler::grant_bits_eff` against a load scalar),
//! a HARQ stream per UE, and the `cell.prb_grant` probe.
//!
//! A subframe costs O(awake UEs) plus O(1) per UE that wakes, which is
//! what lets a 500-UE cell, and a 61-cell grid of mostly idle ones, run:
//! one pass per UE turns its BSR pipeline and files its PF claim against
//! the channel verdict held for it; the allocator hands the leftover PRBs
//! to the largest remainders by *selection*, not by sorting every claim,
//! over one packed integer key per claim (the remainder's bits, inverted,
//! above the claim's index); and a second pass per UE serves the grants,
//! which arrive in UE order, or decays the PF average of whoever got none
//! (DESIGN.md §10). A foreground UE's verdict is new every subframe. A
//! background UE's channel is *looked at*, not stepped — once per
//! [`SOUNDING_PERIOD_SUBFRAMES`], the cadence an eNodeB sounds an uplink
//! on, and whenever it wakes: one exact Ornstein–Uhlenbeck transition of
//! shadowing and fading over the subframes since the last look (the law
//! of the per-subframe walk, two Gaussians per look), held in between.
//!
//! The background plane is event-driven. A background UE whose source is
//! OFF, whose queue is empty and whose BSR ring holds nothing but zeros
//! can do nothing to the cell until its source flips, and the source
//! knows when that is: the UE **parks** until that subframe, and both
//! passes skip it on one compare. On waking it settles the interval at
//! once — the source skips its quiet subframes without a draw (bit-exact),
//! the PF average decays in closed form, the channel is due a look. A
//! parked UE would have filed no claim, so the candidate list and the
//! allocator's tie-breaks are the per-subframe walk's; with channel noise
//! off the two walks agree exactly (the `#[cfg(test)]` walk-everyone
//! oracle). [`Cell::background_steps`] counts the UE-subframes walked,
//! [`Cell::background_channel_samples`] the looks.
//!
//! Determinism: every UE derives its RNG streams from the cell seed and
//! the UE's *name* (via [`SimRng::stream`]), and background UEs are kept
//! sorted by name. Attaching the same set of UEs in any order therefore
//! produces byte-identical results, and adding UE j never perturbs UE i's
//! channel or HARQ draws.

pub mod background;

use crate::buffer::{FirmwareBuffer, PacketLike};
use crate::channel::{Channel, ChannelConfig, ChannelState};
use crate::diag::DiagReport;
use crate::scenario::BackgroundLoad;
use crate::tbs;
use crate::ue::{BsrPipeline, UeBearer};
use crate::uplink::SubframeOutcome;
use background::{BackgroundTraffic, BackgroundTrafficConfig};
use poi360_sim::fault::{FaultPlan, FaultTimeline};
use poi360_sim::rng::SimRng;
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::Recorder;

/// Cell-wide scheduler parameters.
#[derive(Clone, Copy, Debug)]
pub struct CellConfig {
    /// Uplink PRBs available per subframe (50 = 10 MHz LTE).
    pub total_prbs: u32,
    /// Per-UE PRB cap per subframe (single-cluster UL allocation limit).
    pub max_prbs_per_ue: u32,
    /// Subframes between a buffer level existing and the eNodeB seeing it.
    /// At most 10, the capacity of each UE's inline BSR ring: attaching a
    /// UE asserts it.
    pub bsr_delay_subframes: usize,
    /// Probability an initial HARQ transmission is lost (grant wasted).
    pub harq_fail_prob: f64,
    /// PF throughput-EWMA time constant, in subframes.
    pub pf_time_constant_subframes: f64,
}

impl Default for CellConfig {
    fn default() -> Self {
        CellConfig {
            total_prbs: 50,
            max_prbs_per_ue: 25,
            bsr_delay_subframes: 6,
            harq_fail_prob: 0.10,
            pf_time_constant_subframes: 500.0,
        }
    }
}

/// Subframes between two looks at an awake background UE's channel: the
/// largest TS 36.213 §8.2 SRS period (2/5/10/20/… ms) whose end-of-hold fading
/// drift (σ 2 dB, τ 200 ms: 0.62 dB) stays under a third of a 1.9 dB CQI step.
const SOUNDING_PERIOD_SUBFRAMES: u64 = 10;

/// A background UE's queue cap; arrivals beyond it are dropped (the UE's
/// app backs off).
const BACKGROUND_BACKLOG_CAP_BYTES: u64 = 256 * 1024;

/// Handle to a foreground UE attached to a [`Cell`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct UeId(pub usize);

/// Per-UE radio + reporting state shared by foreground and background UEs.
#[derive(Debug)]
struct UeLink {
    name: String,
    channel: Channel,
    harq: SimRng,
    bsr: BsrPipeline,
    /// PF throughput EWMA, bits per subframe.
    avg_bits_per_sf: f64,
    /// The channel verdict claims are filed against (phase A).
    cqi: u8,
    eff: f64,
    in_outage: bool,
    /// This subframe's BSR-delayed reported backlog, bytes.
    reported: u64,
}

impl UeLink {
    fn new(cell_seed: u64, name: &str, ch_cfg: ChannelConfig, bsr_delay: usize) -> Self {
        let channel_seed = SimRng::stream(cell_seed, &format!("cell.{name}.channel")).next_u64();
        let harq = SimRng::stream(cell_seed, &format!("cell.{name}.harq"));
        UeLink {
            name: name.to_string(),
            channel: Channel::new(ch_cfg, channel_seed),
            harq,
            bsr: BsrPipeline::new(bsr_delay),
            avg_bits_per_sf: 0.0,
            cqi: 0,
            eff: 0.0,
            in_outage: false,
            reported: 0,
        }
    }

    /// Take `ch` as the verdict until the next: link adaptation per verdict.
    fn tune(&mut self, ch: ChannelState) {
        self.cqi = ch.cqi;
        self.eff = tbs::smooth_efficiency(ch.cqi, ch.sinr_db);
        self.in_outage = ch.in_outage;
    }

    /// PF weight this subframe: achievable rate over smoothed throughput.
    fn pf_weight(&self) -> f64 {
        self.eff * tbs::DATA_RE_PER_PRB / self.avg_bits_per_sf.max(100.0)
    }

    fn update_avg(&mut self, served_bits: u32, alpha: f64) {
        self.avg_bits_per_sf += alpha * (served_bits as f64 - self.avg_bits_per_sf);
    }
}

/// A foreground UE: a real firmware buffer fed by a telephony session.
struct ForegroundUe<T> {
    link: UeLink,
    bearer: UeBearer<T>,
    /// Externally supplied channel verdict for the next subframe
    /// ([`Cell::set_foreground_radio`]); consumed in phase A.
    radio: Option<ChannelState>,
}

/// A foreground UE detached from one cell, in transit to another: its
/// bearer (the firmware buffer with every queued packet, and the diag
/// interface) travels; the radio link is rebuilt from the target cell's
/// seed on re-attach.
pub struct MigratedUe<T> {
    name: String,
    bearer: UeBearer<T>,
}

impl<T: PacketLike> MigratedUe<T> {
    /// Rewind any partial service of the head packet: the RLC context
    /// does not survive the handover, so a packet caught mid-segmentation
    /// retransmits in full at the target cell.
    pub fn restart_head(&mut self) {
        self.bearer.restart_head();
    }

    /// RRC re-establishment after a radio link failure: everything
    /// queued is lost. Returns the number of packets flushed.
    pub fn flush(&mut self) -> u64 {
        self.bearer.reestablish()
    }
}

/// A background UE: an on/off byte backlog that competes for PRBs.
///
/// It **parks** when its next effect on the cell is already known: the
/// source is OFF (its dwell is pre-drawn, so the flip instant is known),
/// the backlog is empty and the BSR ring is full of zeros. Until `parked_until`
/// the subframe walks pass it by; on waking it settles the interval in O(1).
/// Its channel is static and advanced only by [`BackgroundUe::enter`], the
/// verdict held in between (DESIGN.md §10).
struct BackgroundUe {
    link: UeLink,
    traffic: BackgroundTraffic,
    backlog_bytes: u64,
    /// The cell's subframe count as of the channel's state: one past the
    /// subframe of the last look, the count at attach before the first.
    channel_at: u64,
    /// First subframe of the next look; at attach a per-UE offset into the
    /// period, so looks are staggered (no verdict yet, no claim).
    next_sounding: u64,
    /// First subframe, by the cell's `subframes` count, this UE takes
    /// part in again; at or below the current count for an awake UE.
    parked_until: u64,
    /// Subframes it is passed by for while parked, owed to the traffic
    /// source and the PF average when it wakes; 0 once settled.
    asleep: u64,
}

impl BackgroundUe {
    /// How many subframes from now are a foregone conclusion — no bytes
    /// arriving or queued, zeros entering and leaving a full BSR ring, no
    /// claim filed, nothing but the channel and the PF average moving:
    /// the source's quiet subframes if the rest holds, else 0.
    fn quiet_ahead(&self) -> u64 {
        if self.backlog_bytes > 0 || !self.link.bsr.is_quiet() {
            return 0;
        }
        self.traffic.quiet_subframes()
    }

    /// After subframe `sf`: park until the subframe the source flips in.
    fn park(&mut self, sf: u64) {
        self.asleep = self.quiet_ahead();
        self.parked_until = sf + 1 + self.asleep;
    }

    /// Entering subframe `sf` awake: settle the `asleep` subframes passed
    /// by — the source skips them without a draw (bit-exact), the PF
    /// average takes their decay in closed form, the BSR ring is already
    /// the zeros it would have been — and, back from sleep or the hold
    /// over, look at the channel: one exact transition over every subframe
    /// since the last look (a parked interval or a hold, all one), the
    /// verdict then held `period` subframes. True if it looked.
    fn enter(&mut self, sf: u64, alpha: f64, period: u64) -> bool {
        let asleep = std::mem::take(&mut self.asleep);
        if asleep > 0 {
            self.traffic.skip_quiet(asleep);
            self.link.avg_bits_per_sf *=
                (1.0 - alpha).powi(i32::try_from(asleep).unwrap_or(i32::MAX));
        }
        let sounding = asleep > 0 || sf >= self.next_sounding;
        if sounding {
            let ch = self.link.channel.advance_static(sf + 1 - self.channel_at);
            self.link.tune(ch);
            (self.channel_at, self.next_sounding) = (sf + 1, sf + period);
        }
        sounding
    }
}

/// Which UE a scheduling candidate refers to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Fg(usize),
    Bg(usize),
}

/// One backlogged UE's claim in this subframe's allocation.
struct Candidate {
    slot: Slot,
    eff: f64,
    reported: u64,
    cap_prbs: u32,
    weight: f64,
    prbs: u32,
}

impl Candidate {
    /// The claim of a backlogged, in-coverage UE; `None` for anyone else.
    fn for_link(slot: Slot, link: &UeLink, max_prbs_per_ue: u32) -> Option<Candidate> {
        if link.in_outage || link.reported == 0 || link.eff <= 0.0 {
            return None;
        }
        // PRBs needed to clear the reported backlog this subframe cap the
        // claim: granting more would be wasted. A backlog the per-UE limit
        // cannot clear (a saturated cell: every one) takes the limit undivided.
        let want_bits = tbs::grant_ceiling_bits(link.reported);
        let bits_per_prb = link.eff * tbs::DATA_RE_PER_PRB;
        let cap_prbs = if want_bits >= max_prbs_per_ue as f64 * bits_per_prb {
            max_prbs_per_ue
        } else {
            // Below `max_prbs_per_ue`, so inside `tbs::ceil_u32`'s range.
            tbs::ceil_u32(want_bits / bits_per_prb).clamp(1, max_prbs_per_ue)
        };
        Some(Candidate {
            slot,
            eff: link.eff,
            reported: link.reported,
            cap_prbs,
            weight: link.pf_weight(),
            prbs: 0,
        })
    }

    /// Bits the granted PRBs carry, bounded by the reported backlog.
    fn grant_bits(&self) -> u32 {
        // `x as u32` is `x.floor() as u32` for every f64 (NaN, negative, huge).
        (self.prbs as f64 * self.eff * tbs::DATA_RE_PER_PRB)
            .min(tbs::grant_ceiling_bits(self.reported)) as u32
    }
}

/// Reusable working buffers for [`allocate_prbs`]: the active-index,
/// proportional-share and remainder-key vectors keep their capacity
/// across subframes.
#[derive(Default)]
struct AllocScratch {
    active: Vec<usize>,
    shares: Vec<f64>,
    /// One selection key per uncapped candidate: `!frac.to_bits()` above
    /// the candidate's index ([`integerize`]).
    keys: Vec<u128>,
}

/// Per-subframe working memory owned by the cell (DESIGN.md §10): every
/// vector here is cleared — never dropped — between ticks, so the
/// steady-state scheduler loop reuses capacity instead of allocating.
/// The `*_pool` / `spare_*` fields hold shells handed back through
/// [`Cell::recycle`] and friends; callers that never recycle simply fall
/// back to the pre-scratch allocation behaviour.
struct Scratch<T> {
    /// This subframe's PF candidate list.
    cands: Vec<Candidate>,
    /// Allocator working buffers.
    alloc: AllocScratch,
    /// Emptied departed vectors returned via recycling.
    departed_pool: Vec<Vec<(T, SimTime)>>,
    /// Emptied `CellSubframe` shells returned via [`Cell::recycle`].
    spare_per_ue: Vec<Vec<SubframeOutcome<T>>>,
    spare_prbs: Vec<Vec<u32>>,
}

impl<T> Default for Scratch<T> {
    fn default() -> Self {
        Scratch {
            cands: Vec::new(),
            alloc: AllocScratch::default(),
            departed_pool: Vec::new(),
            spare_per_ue: Vec::new(),
            spare_prbs: Vec::new(),
        }
    }
}

/// Everything the cell did in one subframe.
pub struct CellSubframe<T> {
    /// Per-foreground-UE outcomes, indexed by [`UeId`].
    pub per_ue: Vec<SubframeOutcome<T>>,
    /// PRBs granted to each foreground UE this subframe, indexed by
    /// [`UeId`].
    pub prbs_per_ue: Vec<u32>,
    /// Total PRBs granted (foreground + background) this subframe.
    pub prbs_granted: u32,
    /// Sum of background-UE queue backlogs after service, bytes.
    pub bg_backlog_bytes: u64,
}

/// The shared eNodeB uplink.
pub struct Cell<T> {
    cfg: CellConfig,
    seed: u64,
    /// Foreground slots, indexed by [`UeId`]. A slot goes `None` when its
    /// UE hands over to another cell ([`Cell::detach_foreground`]) and is
    /// reused by the next arrival, so UeIds of resident UEs stay stable.
    /// The last slot is never vacant.
    fg: Vec<Option<ForegroundUe<T>>>,
    bg: Vec<BackgroundUe>,
    subframes: u64,
    /// Background UE-subframes walked (not parked) and looks taken at a
    /// background channel in them: exact work counts.
    bg_steps: u64,
    bg_samples: u64,
    /// The per-subframe oracles: walk every UE every subframe, never park;
    /// look at (period 1) every channel walked.
    #[cfg(test)]
    walk_everyone: bool,
    #[cfg(test)]
    sounding_period: u64,
    prbs_granted_total: u64,
    /// Access-network fault plan, applied to every foreground UE.
    faults: FaultTimeline,
    /// An injected RLF covered last subframe: its trailing edge re-establishes.
    was_rlf: bool,
    /// Reusable per-subframe working memory.
    scratch: Scratch<T>,
    recorder: Recorder,
}

impl<T: PacketLike> Cell<T> {
    /// Create an empty cell.
    pub fn new(cfg: CellConfig, seed: u64) -> Self {
        Cell {
            cfg,
            seed,
            fg: Vec::new(),
            bg: Vec::new(),
            subframes: 0,
            bg_steps: 0,
            bg_samples: 0,
            #[cfg(test)]
            walk_everyone: false,
            #[cfg(test)]
            sounding_period: SOUNDING_PERIOD_SUBFRAMES,
            prbs_granted_total: 0,
            faults: FaultTimeline::default(),
            was_rlf: false,
            scratch: Scratch::default(),
            recorder: Recorder::null(),
        }
    }

    /// Attach the access-network slice of a fault plan. Faults apply to the
    /// cell's *foreground* UEs (the telephony sessions under test): radio
    /// link failure forces them into outage, grant starvation scales their
    /// grants, diag stalls freeze their logged samples, and a flash crowd
    /// removes a fraction of the cell's PRBs as if a sudden background
    /// population claimed them. Transition events are emitted on the cell's
    /// recorder.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultTimeline::new(plan.access_slice());
    }

    /// Attach the cell's probe recorder (scheduler-level probes; per-UE
    /// signals are traced by each UE's session recorder).
    pub fn set_recorder(&mut self, rec: &Recorder) {
        self.recorder = rec.clone();
    }

    /// Configuration in use.
    pub fn config(&self) -> &CellConfig {
        &self.cfg
    }

    /// Attach a foreground (session-driven) UE. Names must be unique
    /// within the cell; they key the UE's RNG streams.
    pub fn attach_foreground(&mut self, name: &str, ch_cfg: ChannelConfig) -> UeId {
        self.assert_unique(name);
        self.place_foreground(ForegroundUe {
            link: UeLink::new(self.seed, name, ch_cfg, self.cfg.bsr_delay_subframes),
            bearer: UeBearer::new(),
            radio: None,
        })
    }

    /// Panic if `name` is already attached; otherwise return where it
    /// sorts among the background UEs. Those are kept sorted by name, so
    /// the binary search that finds the insertion point is also the proof
    /// of uniqueness there, and only the few foreground slots are scanned:
    /// attaching a population of N stays O(N log N) compares.
    fn assert_unique(&self, name: &str) -> usize {
        let among_bg = self.bg.binary_search_by(|u| u.link.name.as_str().cmp(name));
        match among_bg {
            Err(at) if self.fg.iter().flatten().all(|u| u.link.name != name) => at,
            _ => panic!("duplicate UE name {name:?}"),
        }
    }

    /// Fill the lowest vacant slot (deterministic) or grow the vector.
    fn place_foreground(&mut self, ue: ForegroundUe<T>) -> UeId {
        match self.fg.iter().position(Option::is_none) {
            Some(k) => {
                self.fg[k] = Some(ue);
                UeId(k)
            }
            None => {
                self.fg.push(Some(ue));
                UeId(self.fg.len() - 1)
            }
        }
    }

    /// Detach a foreground UE for handover: its bearer (firmware buffer and
    /// diag interface) leaves with it, its slot opens for reuse, and its radio
    /// link (channel, HARQ, BSR pipeline, PF average) dies with the
    /// serving-cell context, exactly as X2 handover rebuilds MAC state.
    /// Vacant slots at the end of the table are dropped, so a cell every
    /// UE has left stops producing an outcome per departed UE per subframe;
    /// residents keep their ids and the next attach still gets the lowest
    /// vacant one.
    pub fn detach_foreground(&mut self, ue: UeId) -> MigratedUe<T> {
        let u = self.fg[ue.0].take().expect("detach of an occupied slot");
        while self.fg.last().is_some_and(Option::is_none) {
            self.fg.pop();
        }
        MigratedUe { name: u.link.name, bearer: u.bearer }
    }

    /// Re-attach a migrated UE. The target cell builds a fresh radio link
    /// keyed by the *same* UE name and its own seed; the firmware buffer
    /// arrives with whatever survived the handover.
    pub fn attach_migrated(&mut self, mu: MigratedUe<T>, ch_cfg: ChannelConfig) -> UeId {
        self.assert_unique(&mu.name);
        let link = UeLink::new(self.seed, &mu.name, ch_cfg, self.cfg.bsr_delay_subframes);
        self.place_foreground(ForegroundUe { link, bearer: mu.bearer, radio: None })
    }

    /// Dictate a foreground UE's channel verdict for the next subframe.
    /// While a grid drives a UE this is called every subframe; the UE's
    /// internal stochastic channel is then never stepped.
    pub fn set_foreground_radio(&mut self, ue: UeId, state: ChannelState) {
        self.fg[ue.0].as_mut().expect("occupied slot").radio = Some(state);
    }

    /// Read access to a foreground UE's firmware buffer (conservation
    /// accounting: `total_enqueued`, `flushed`, `len`).
    pub fn firmware(&self, ue: UeId) -> &FirmwareBuffer<T> {
        self.fg[ue.0].as_ref().expect("occupied slot").bearer.fw()
    }

    /// Attach one background UE. Its traffic profile, channel and sounding
    /// offset are drawn from a stream keyed by `name`, and background UEs
    /// are kept sorted by name so attach order never affects results.
    pub fn attach_background(&mut self, name: &str) {
        let at = self.assert_unique(name);
        let mut profile = SimRng::stream(self.seed, &format!("cell.{name}.profile"));
        let traffic_cfg = BackgroundTrafficConfig {
            on_rate_bps: profile.uniform_range(0.4e6, 2.4e6),
            mean_on: SimDuration::from_secs_f64(profile.uniform_range(0.5, 3.0)),
            mean_off: SimDuration::from_secs_f64(profile.uniform_range(1.0, 6.0)),
        };
        let ch_cfg =
            ChannelConfig { rss_dbm: profile.uniform_range(-100.0, -70.0), ..Default::default() };
        let traffic_seed = profile.next_u64();
        let ue = BackgroundUe {
            link: UeLink::new(self.seed, name, ch_cfg, self.cfg.bsr_delay_subframes),
            traffic: BackgroundTraffic::new(traffic_cfg, traffic_seed),
            backlog_bytes: 0,
            channel_at: self.subframes,
            next_sounding: self.subframes + profile.next_u64() % self.sounding_period(),
            parked_until: 0,
            asleep: 0,
        };
        self.bg.insert(at, ue);
    }

    /// Attach `count` background UEs named `bg.000`, `bg.001`, …
    pub fn attach_background_population(&mut self, count: usize) {
        let start = self.bg.len();
        // The population is attached once: room for exactly it, not the
        // next power of two of UEs that carry their BSR ring inline.
        self.bg.reserve_exact(count);
        for k in start..start + count {
            self.attach_background(&format!("bg.{k:03}"));
        }
    }

    /// Number of background UEs attached.
    pub fn background_count(&self) -> usize {
        self.bg.len()
    }

    /// Offer a packet to a foreground UE's firmware buffer. Returns false
    /// on overflow drop.
    pub fn enqueue(&mut self, ue: UeId, item: T, now: SimTime) -> bool {
        self.fg[ue.0].as_mut().expect("occupied slot").bearer.enqueue(item, now)
    }

    /// A foreground UE's firmware-buffer level, bytes.
    pub fn buffer_level(&self, ue: UeId) -> u64 {
        self.firmware(ue).level_bytes()
    }

    /// Packets dropped at a foreground UE's firmware-buffer tail.
    pub fn dropped(&self, ue: UeId) -> u64 {
        self.firmware(ue).dropped()
    }

    /// Background UE-subframes actually walked so far — BSR ring turned,
    /// PF average updated. `background_count()` times the subframes stepped,
    /// less this, is what parking saved; a count, so exact for a seed.
    pub fn background_steps(&self) -> u64 {
        self.bg_steps
    }

    /// Looks taken at a background UE's channel so far, two Gaussians each:
    /// a tenth of [`Cell::background_steps`] plus at most one per wake.
    pub fn background_channel_samples(&self) -> u64 {
        self.bg_samples
    }

    #[cfg(test)]
    fn may_park(&self) -> bool {
        !self.walk_everyone
    }

    #[cfg(not(test))]
    fn may_park(&self) -> bool {
        true
    }

    #[cfg(test)]
    fn sounding_period(&self) -> u64 {
        self.sounding_period
    }

    #[cfg(not(test))]
    fn sounding_period(&self) -> u64 {
        SOUNDING_PERIOD_SUBFRAMES
    }

    /// Mean fraction of PRBs granted per subframe so far.
    pub fn mean_utilization(&self) -> f64 {
        if self.subframes == 0 {
            return 0.0;
        }
        self.prbs_granted_total as f64 / (self.subframes * self.cfg.total_prbs as u64) as f64
    }

    /// Advance the whole cell one subframe: refresh every UE's channel and
    /// BSR, run one PF PRB allocation, serve the granted UEs, and return
    /// the per-foreground-UE outcomes.
    pub fn subframe(&mut self, now: SimTime) -> CellSubframe<T> {
        let alpha = 1.0 / self.cfg.pf_time_constant_subframes.max(1.0);
        let sf = self.subframes;
        let (may_park, sounding_period) = (self.may_park(), self.sounding_period());
        let af = self.faults.advance(now, &self.recorder);

        // Trailing edge of an injected radio link failure: RRC
        // re-establishment flushes every foreground UE's firmware buffer
        // and BSR state.
        if self.was_rlf && !af.radio_failure {
            for u in self.fg.iter_mut().flatten() {
                u.bearer.reestablish();
                u.link.bsr.reset();
            }
        }
        self.was_rlf = af.radio_failure;

        // Phase A: observe and gather. One pass per UE — foreground first
        // (UeId order), then background (name order, parked ones passed
        // by) — takes its channel verdict if one is due, turns its BSR
        // pipeline and, if backlogged and in coverage, files its PF claim;
        // each UE touches only its own RNG streams, and the candidate list
        // comes out in that same UE order. A parked UE would have filed none.
        let max_prbs_per_ue = self.cfg.max_prbs_per_ue;
        self.scratch.cands.clear();
        for (k, slot) in self.fg.iter_mut().enumerate() {
            let Some(u) = slot else { continue };
            // A verdict the grid's radio map dictated is taken as is, the UE's
            // own channel not stepped (no draws at all, so a grid-driven run
            // is deterministic however long the UE has been attached); an
            // injected `radio_failure` overrides either: the eNodeB is gone.
            let ch = u.radio.take().unwrap_or_else(|| u.link.channel.subframe(now));
            u.link.tune(ch);
            u.link.in_outage |= af.radio_failure;
            u.link.reported = u.link.bsr.turn(u.bearer.fw().level_bytes(), u.link.in_outage);
            self.scratch.cands.extend(Candidate::for_link(Slot::Fg(k), &u.link, max_prbs_per_ue));
        }
        for (k, u) in self.bg.iter_mut().enumerate() {
            if sf < u.parked_until {
                debug_assert_eq!(u.quiet_ahead(), u.asleep, "{} parked", u.link.name);
                continue;
            }
            self.bg_steps += 1;
            self.bg_samples += u64::from(u.enter(sf, alpha, sounding_period));
            u.backlog_bytes =
                (u.backlog_bytes + u.traffic.subframe()).min(BACKGROUND_BACKLOG_CAP_BYTES);
            u.link.reported = u.link.bsr.turn(u.backlog_bytes, false);
            self.scratch.cands.extend(Candidate::for_link(Slot::Bg(k), &u.link, max_prbs_per_ue));
        }

        // Phase B: allocate PRBs. A flash crowd claims a fraction of the
        // cell's PRBs before the PF allocator runs, exactly as a sudden
        // background population would.
        let effective_prbs = (self.cfg.total_prbs as f64 * (1.0 - af.flash_crowd_load)) as u32;
        allocate_prbs(effective_prbs, &mut self.scratch.cands, &mut self.scratch.alloc);

        // Phase C: serve grants, apply HARQ, update PF averages. The grants
        // are in UE order, so one walk over the UEs consumes them in step:
        // a UE either owns the next grant or spends a grant of nothing and so
        // decays its PF average (a parked one owes its decay until it wakes).
        let harq_fail_prob = self.cfg.harq_fail_prob;
        let n_fg = self.fg.len();
        let mut per_ue_prbs = self.scratch.spare_prbs.pop().unwrap_or_default();
        per_ue_prbs.clear();
        per_ue_prbs.resize(n_fg, 0);
        let mut per_ue = self.scratch.spare_per_ue.pop().unwrap_or_default();
        per_ue.clear();
        per_ue.reserve(n_fg);
        let mut prbs_granted = 0u32;
        let mut grants = self.scratch.cands.iter().filter(|c| c.prbs > 0).peekable();
        for (k, slot) in self.fg.iter_mut().enumerate() {
            let mut departed = self.scratch.departed_pool.pop().unwrap_or_default();
            let Some(u) = slot else {
                // Vacant slot (its UE handed over away): a zeroed outcome
                // keeps `per_ue` indexed by UeId.
                per_ue.push(SubframeOutcome {
                    departed,
                    tbs_bits: 0,
                    buffer_bytes: 0,
                    cqi: 0,
                    load: 0.0,
                    in_outage: true,
                    diag: None,
                });
                continue;
            };
            let mut grant_bits = 0;
            if let Some(c) = grants.next_if(|c| c.slot == Slot::Fg(k)) {
                prbs_granted += c.prbs;
                per_ue_prbs[k] = c.prbs;
                // Grant starvation scales only the foreground (session) UEs.
                grant_bits = (c.grant_bits() as f64 * af.grant_factor) as u32;
                // Initial HARQ loss wastes the grant; the PRBs stay consumed.
                if grant_bits > 0 && u.link.harq.chance(harq_fail_prob) {
                    grant_bits = 0;
                }
            }
            let (buffer_bytes, tbs_bits, diag) =
                u.bearer.transmit(now, grant_bits, af.diag_stall, &mut departed);
            u.link.update_avg(tbs_bits, alpha);
            per_ue.push(SubframeOutcome {
                departed,
                tbs_bits,
                buffer_bytes,
                cqi: u.link.cqi,
                load: 0.0,
                in_outage: u.link.in_outage,
                diag,
            });
        }
        let mut bg_backlog_bytes = 0u64;
        for (k, u) in self.bg.iter_mut().enumerate() {
            if sf < u.parked_until {
                continue;
            }
            let mut tbs_bits = 0;
            if let Some(c) = grants.next_if(|c| c.slot == Slot::Bg(k)) {
                prbs_granted += c.prbs;
                let grant_bits = c.grant_bits();
                if grant_bits == 0 || !u.link.harq.chance(harq_fail_prob) {
                    let served = (grant_bits as u64 / 8).min(u.backlog_bytes);
                    u.backlog_bytes -= served;
                    tbs_bits = (served * 8).min(grant_bits as u64) as u32;
                }
            }
            u.link.update_avg(tbs_bits, alpha);
            bg_backlog_bytes += u.backlog_bytes;
            if u.backlog_bytes == 0 && may_park {
                u.park(sf);
            }
        }
        debug_assert!(grants.next().is_none(), "grants are consumed in UE order");

        self.subframes += 1;
        self.prbs_granted_total += prbs_granted as u64;
        self.recorder.event("cell.prb_grant", now, prbs_granted as f64);

        // Phase D: the per-UE `load` is the fraction of PRBs everyone
        // *else* consumed — the shared-cell analogue of the standalone
        // competing-load scalar — so it waits for the whole walk. PRBs the
        // flash crowd claimed count as load everyone else sees.
        let total = self.cfg.total_prbs as f64;
        let crowd_prbs = self.cfg.total_prbs - effective_prbs;
        for (outcome, prbs) in per_ue.iter_mut().zip(&per_ue_prbs) {
            outcome.load = (prbs_granted + crowd_prbs - prbs) as f64 / total;
        }
        CellSubframe { per_ue, prbs_per_ue: per_ue_prbs, prbs_granted, bg_backlog_bytes }
    }

    /// Return a consumed [`CellSubframe`] so the next tick reuses its
    /// buffers. Any outcomes still inside are drained: their departed
    /// vectors go back to the departed pool and their diag reports back
    /// to the owning UE's diag interface. Callers that hand outcomes to
    /// sessions first (draining `per_ue`) still recycle the shells.
    pub fn recycle(&mut self, out: CellSubframe<T>) {
        let CellSubframe { mut per_ue, mut prbs_per_ue, .. } = out;
        for (k, outcome) in per_ue.drain(..).enumerate() {
            let SubframeOutcome { departed, diag, .. } = outcome;
            self.recycle_departed(departed);
            if let Some(report) = diag {
                self.recycle_diag(UeId(k), report);
            }
        }
        self.scratch.spare_per_ue.push(per_ue);
        prbs_per_ue.clear();
        self.scratch.spare_prbs.push(prbs_per_ue);
    }

    /// Return an emptied (or consumed) departed-packet vector for reuse
    /// by the next subframe's service phase.
    pub fn recycle_departed(&mut self, mut departed: Vec<(T, SimTime)>) {
        departed.clear();
        self.scratch.departed_pool.push(departed);
    }

    /// Return a consumed diag report's sample storage to the UE that
    /// produced it, for reuse by its next 40 ms epoch.
    pub fn recycle_diag(&mut self, ue: UeId, report: DiagReport) {
        if let Some(u) = self.fg.get_mut(ue.0).and_then(Option::as_mut) {
            u.bearer.recycle_diag(report);
        }
    }
}

/// Background population sizes calibrated so the emergent mean PRB
/// utilization lands near the standalone [`crate::uplink::LoadConfig`]
/// presets *including* their burst duty cycle (idle ≈ 0.10,
/// typical ≈ 0.42, busy ≈ 0.50).
pub fn background_population_for(load: BackgroundLoad) -> usize {
    match load {
        BackgroundLoad::Idle => 3,
        BackgroundLoad::Typical => 11,
        BackgroundLoad::Busy => 14,
    }
}

/// Split `total` PRBs across candidates proportionally to PF weight,
/// subject to per-candidate caps: candidates whose proportional share
/// meets their cap take exactly the cap and drop out (their surplus is
/// redistributed), then the rest are integerized by largest remainder.
///
/// All working storage lives in `scratch` so steady-state allocation
/// rounds reuse capacity, and the work is linear in the candidate count
/// per round (DESIGN.md §10): the leftover PRBs are *selected*, not
/// sorted out. Candidates arrive with `prbs == 0`.
fn allocate_prbs(total: u32, cands: &mut [Candidate], scratch: &mut AllocScratch) {
    if let Some(remaining) = settle_caps(total, cands, scratch) {
        integerize(remaining, cands, scratch, || ());
    }
}

/// The cap-and-redistribute rounds of [`allocate_prbs`]. Returns `None`
/// when there is nothing left to split; otherwise the PRBs remaining for
/// the uncapped candidates, with `scratch.active` listing them and
/// `scratch.shares[k]` holding the proportional share of `active[k]` —
/// every one strictly below its candidate's cap.
fn settle_caps(total: u32, cands: &mut [Candidate], scratch: &mut AllocScratch) -> Option<u32> {
    let AllocScratch { active, shares, .. } = scratch;
    active.clear();
    active.extend(0..cands.len());
    let mut remaining = total;
    loop {
        if remaining == 0 || active.is_empty() {
            return None;
        }
        let wsum: f64 = active.iter().map(|&i| cands[i].weight).sum();
        if wsum <= 0.0 {
            return None;
        }
        let mut capped_prbs = 0u32;
        shares.clear();
        // Whoever survives this round (in order) is the next round's active
        // set; if no one capped, that is everyone, and `shares` is final.
        active.retain(|&i| {
            let share = remaining as f64 * cands[i].weight / wsum;
            if share >= cands[i].cap_prbs as f64 {
                cands[i].prbs = cands[i].cap_prbs;
                capped_prbs += cands[i].cap_prbs;
                false
            } else {
                shares.push(share);
                true
            }
        });
        if capped_prbs == 0 {
            return Some(remaining);
        }
        // Sum of caps taken is bounded by the sum of their shares, which
        // is at most `remaining`.
        remaining -= capped_prbs;
    }
}

/// Largest-remainder integerization of the shares [`settle_caps`] left:
/// everyone takes the floor of their share, and the `leftover` PRBs go one
/// each to the largest fractional parts, lower candidate index on ties.
///
/// Every share here is strictly below its (integer) cap, so its floor is
/// at most `cap - 1` and the extra PRB always fits: the winners are
/// exactly the first `leftover` candidates of that order, which
/// `select_nth_unstable_by` partitions out in linear time without ranking
/// anyone else. The order is strict and total (no two distinct candidates
/// compare equal), so "the `leftover` first" names one set whatever
/// algorithm finds it. `on_compare` is called once per comparison (the
/// tests count them; the allocator passes a no-op).
///
/// The order is selected over integer keys: `!frac.to_bits()` in the high
/// half, the candidate index in the low. A fraction is at least +0.0, where
/// the bit pattern rises with the value, so ascending keys are descending
/// fractions (`total_cmp`) with the lower index first on ties — the same
/// order, hence the same winners and the same comparisons.
fn integerize(
    remaining: u32,
    cands: &mut [Candidate],
    scratch: &mut AllocScratch,
    mut on_compare: impl FnMut(),
) {
    let AllocScratch { active, shares, keys, .. } = scratch;
    let mut assigned = 0u32;
    keys.clear();
    for (&share, &i) in shares.iter().zip(active.iter()) {
        // `(x as u64) as f64` is `x.floor()` on [0, 2^53); a share is in [+0, cap).
        let whole = share as u64;
        cands[i].prbs = whole as u32;
        assigned += cands[i].prbs;
        let frac = share - whole as f64;
        debug_assert!(frac.is_sign_positive(), "keys order fractions of +0.0 and up");
        keys.push((u128::from(!frac.to_bits()) << 64) | i as u128);
    }
    // Float rounding can leave as many PRBs over as there are candidates
    // (one UE, share 4.999…): then everyone takes one and the rest stay
    // unspent, as a walk down the full order would have left them.
    let leftover = ((remaining - assigned) as usize).min(keys.len());
    if 0 < leftover && leftover < keys.len() {
        keys.select_nth_unstable_by(leftover - 1, |a, b| {
            on_compare();
            a.cmp(b)
        });
    }
    for &key in &keys[..leftover] {
        let c = &mut cands[key as u64 as usize];
        debug_assert!(c.prbs < c.cap_prbs, "a share below the cap floors below it");
        c.prbs += 1;
    }
}

/// [`allocate_prbs`] with a throwaway [`AllocScratch`]: one algorithm,
/// two entry points. The ~70-line fresh-`Vec` copy that used to live here
/// drifted from being a true oracle the moment the scratch version became
/// canonical; the differential test now pins reused-scratch against this
/// fresh-scratch wrapper, `pf_split_grants_are_pinned` pins the resulting
/// grants against hand-computed values, and the arithmetic oracle is
/// `tests::integerize_by_full_sort`.
#[cfg(test)]
fn allocate_prbs_reference(total: u32, cands: &mut [Candidate]) {
    allocate_prbs(total, cands, &mut AllocScratch::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use poi360_sim::SUBFRAME;

    #[derive(Debug)]
    struct Pkt(u32);
    impl PacketLike for Pkt {
        fn wire_bytes(&self) -> u32 {
            self.0
        }
    }

    fn strong_channel() -> ChannelConfig {
        ChannelConfig { shadow_std_db: 0.0, fading_std_db: 0.0, ..Default::default() }
    }

    /// Run `secs` seconds keeping each foreground UE's buffer topped up to
    /// `level` bytes; return per-UE mean throughput (bits/s).
    fn saturated_throughputs(cell: &mut Cell<Pkt>, level: u64, secs: u64) -> Vec<f64> {
        let n = cell.fg.len();
        let mut served = vec![0u64; n];
        let mut now = SimTime::ZERO;
        for _ in 0..secs * 1000 {
            for k in 0..n {
                while cell.buffer_level(UeId(k)) < level {
                    cell.enqueue(UeId(k), Pkt(1_200), now);
                }
            }
            let out = cell.subframe(now);
            for (tally, ue) in served.iter_mut().zip(&out.per_ue) {
                *tally += ue.tbs_bits as u64;
            }
            now += SUBFRAME;
        }
        served.iter().map(|&b| b as f64 / secs as f64).collect()
    }

    #[test]
    fn lone_ue_gets_served() {
        let mut cell = Cell::new(CellConfig::default(), 1);
        cell.attach_foreground("fg.0", strong_channel());
        let tput = saturated_throughputs(&mut cell, 40_000, 10)[0];
        // 25-PRB cap at good CQI is well above the standalone 8-PRB share.
        assert!(tput > 5.0e6, "lone UE throughput {tput}");
    }

    #[test]
    fn equal_ues_split_equally() {
        let mut cell = Cell::new(CellConfig::default(), 2);
        cell.attach_foreground("fg.0", strong_channel());
        cell.attach_foreground("fg.1", strong_channel());
        let t = saturated_throughputs(&mut cell, 40_000, 20);
        let ratio = t[0] / t[1];
        assert!((0.9..1.1).contains(&ratio), "split {t:?}");
    }

    #[test]
    fn prbs_never_exceed_capacity() {
        let mut cell = Cell::new(CellConfig::default(), 3);
        for k in 0..4 {
            cell.attach_foreground(&format!("fg.{k}"), ChannelConfig::default());
        }
        cell.attach_background_population(10);
        let mut now = SimTime::ZERO;
        for _ in 0..5_000 {
            for k in 0..4 {
                while cell.buffer_level(UeId(k)) < 30_000 {
                    cell.enqueue(UeId(k), Pkt(1_200), now);
                }
            }
            let out = cell.subframe(now);
            assert!(out.prbs_granted <= cell.config().total_prbs);
            now += SUBFRAME;
        }
    }

    #[test]
    fn detaching_drops_trailing_vacant_slots_and_keeps_the_ids_handed_out() {
        let mut cell = Cell::<Pkt>::new(CellConfig::default(), 4);
        let ids: Vec<UeId> =
            (0..3).map(|k| cell.attach_foreground(&format!("fg.{k}"), strong_channel())).collect();
        cell.detach_foreground(ids[2]);
        cell.detach_foreground(ids[1]);
        assert_eq!(cell.fg.len(), 1);
        assert_eq!(cell.subframe(SimTime::ZERO).per_ue.len(), 1);
        // A vacancy below a resident stays: the resident's id must not move.
        assert_eq!(cell.attach_foreground("fg.1", strong_channel()), UeId(1));
        assert_eq!(cell.attach_foreground("fg.2", strong_channel()), UeId(2));
        cell.detach_foreground(UeId(1));
        assert_eq!(cell.fg.len(), 3);
        cell.detach_foreground(UeId(2));
        assert_eq!(cell.fg.len(), 1, "the vacancy below went with the last resident");

        // Against a table that never shrinks and fills its lowest vacancy.
        let mut cell = Cell::<Pkt>::new(CellConfig::default(), 5);
        let mut model: Vec<bool> = Vec::new();
        let mut rng = SimRng::from_seed(6);
        for step in 0..1_000 {
            let resident: Vec<usize> = (0..model.len()).filter(|&k| model[k]).collect();
            if resident.is_empty() || (resident.len() < 12 && rng.chance(0.5)) {
                let want = model.iter().position(|&taken| !taken).unwrap_or(model.len());
                model.resize(model.len().max(want + 1), false);
                model[want] = true;
                let got = cell.attach_foreground(&format!("ue.{step}"), strong_channel());
                assert_eq!(got, UeId(want), "step {step}");
            } else {
                let leave = resident[rng.next_u64() as usize % resident.len()];
                model[leave] = false;
                cell.detach_foreground(UeId(leave));
            }
            let last = model.iter().rposition(|&taken| taken);
            assert_eq!(cell.fg.len(), last.map_or(0, |k| k + 1), "step {step}");
        }
    }

    #[test]
    fn background_population_loads_the_cell() {
        let mut cell = Cell::<Pkt>::new(CellConfig::default(), 4);
        cell.attach_background_population(background_population_for(BackgroundLoad::Busy));
        let mut now = SimTime::ZERO;
        for _ in 0..60_000 {
            cell.subframe(now);
            now += SUBFRAME;
        }
        let util = cell.mean_utilization();
        assert!((0.30..0.60).contains(&util), "busy-cell utilization {util}");
    }

    #[test]
    fn same_seed_same_trace() {
        let run = || {
            let mut cell = Cell::new(CellConfig::default(), 5);
            cell.attach_foreground("fg.0", ChannelConfig::default());
            cell.attach_background_population(6);
            let mut now = SimTime::ZERO;
            let mut trace = Vec::new();
            for _ in 0..3_000 {
                while cell.buffer_level(UeId(0)) < 20_000 {
                    cell.enqueue(UeId(0), Pkt(1_200), now);
                }
                let out = cell.subframe(now);
                trace.push((out.per_ue[0].tbs_bits, out.prbs_granted));
                now += SUBFRAME;
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cell_faults_starve_and_fail_foreground_ues() {
        use poi360_sim::fault::{FaultKind, FaultPlan};
        let mut cell = Cell::new(CellConfig::default(), 7);
        cell.attach_foreground("fg.0", strong_channel());
        cell.set_fault_plan(
            FaultPlan::new()
                .with(
                    FaultKind::RadioLinkFailure,
                    SimTime::from_millis(1_000),
                    SimDuration::from_millis(300),
                )
                .with(
                    FaultKind::FlashCrowd { extra_load: 0.9 },
                    SimTime::from_millis(2_000),
                    SimDuration::from_millis(500),
                ),
        );
        let mut now = SimTime::ZERO;
        let mut healthy_bits = 0u64;
        let mut crowd_bits = 0u64;
        for sf in 0..3_000u64 {
            while cell.buffer_level(UeId(0)) < 30_000 {
                cell.enqueue(UeId(0), Pkt(1_200), now);
            }
            let out = cell.subframe(now);
            let ue = &out.per_ue[0];
            match sf {
                1_000..=1_299 => {
                    assert_eq!(ue.tbs_bits, 0, "RLF must zero TBS at sf {sf}");
                    assert!(ue.in_outage);
                }
                2_000..=2_499 => {
                    crowd_bits += ue.tbs_bits as u64;
                    assert!(ue.load > 0.85, "crowd load visible: {}", ue.load);
                }
                0..=999 => healthy_bits += ue.tbs_bits as u64,
                _ => {}
            }
            now += SUBFRAME;
        }
        // 90 % of the PRBs gone leaves well under half the healthy rate.
        let healthy_rate = healthy_bits as f64 / 1_000.0;
        let crowd_rate = crowd_bits as f64 / 500.0;
        assert!(crowd_rate < healthy_rate * 0.5, "crowd {crowd_rate} healthy {healthy_rate}");
    }

    #[test]
    fn cell_empty_fault_plan_is_byte_identical() {
        use poi360_sim::fault::FaultPlan;
        let run = |with_plan: bool| {
            let mut cell = Cell::new(CellConfig::default(), 8);
            cell.attach_foreground("fg.0", ChannelConfig::default());
            cell.attach_background_population(4);
            if with_plan {
                cell.set_fault_plan(FaultPlan::new());
            }
            let mut now = SimTime::ZERO;
            let mut trace = Vec::new();
            for _ in 0..2_000 {
                while cell.buffer_level(UeId(0)) < 20_000 {
                    cell.enqueue(UeId(0), Pkt(1_200), now);
                }
                let out = cell.subframe(now);
                trace.push((out.per_ue[0].tbs_bits, out.prbs_granted));
                now += SUBFRAME;
            }
            trace
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn scratch_allocator_matches_fresh_allocation_reference() {
        use poi360_testkit::prop::Gen;
        use poi360_testkit::{prop_assert_eq, prop_check};
        // One scratch reused across every generated case, differentially
        // against a fresh scratch per case: stale contents from earlier
        // (differently-sized) rounds must never leak into a later
        // allocation.
        let mut scratch = AllocScratch::default();
        prop_check!(256, |g: &mut Gen| {
            let n = g.usize_in(0, 48);
            let total = g.u32_in(0, 120);
            let draw = |g: &mut Gen, k: usize| Candidate {
                slot: Slot::Fg(k),
                eff: g.f64_in(0.05, 6.0),
                reported: g.u64_in(0, 200_000),
                cap_prbs: g.u32_in(1, 32),
                weight: g.f64_in(0.0, 40.0),
                prbs: g.u32_in(0, 7), // stale garbage the allocator must overwrite
            };
            let mut with_scratch: Vec<Candidate> = (0..n).map(|k| draw(g, k)).collect();
            let mut reference: Vec<Candidate> = with_scratch
                .iter()
                .map(|c| Candidate {
                    slot: c.slot,
                    eff: c.eff,
                    reported: c.reported,
                    cap_prbs: c.cap_prbs,
                    weight: c.weight,
                    prbs: c.prbs,
                })
                .collect();
            allocate_prbs(total, &mut with_scratch, &mut scratch);
            allocate_prbs_reference(total, &mut reference);
            for (a, b) in with_scratch.iter().zip(&reference) {
                prop_assert_eq!(a.prbs, b.prbs);
            }
            Ok(())
        });
    }

    /// Oracle for [`integerize`], sharing none of its arithmetic: the
    /// textbook largest-remainder walk. Rank *every* candidate with a full
    /// sort, then hand the leftover PRBs down the ranking, re-checking the
    /// cap at each step. It floors with `f64::floor` and compares the
    /// fractions with `total_cmp`: neither the truncation nor the integer
    /// keys are its own.
    fn integerize_by_full_sort(
        remaining: u32,
        cands: &mut [Candidate],
        scratch: &AllocScratch,
        mut on_compare: impl FnMut(),
    ) {
        let (active, shares) = (&scratch.active, &scratch.shares);
        let mut leftover = remaining;
        for (k, &i) in active.iter().enumerate() {
            cands[i].prbs = shares[k].floor() as u32;
            leftover -= cands[i].prbs;
        }
        let mut ranking: Vec<usize> = (0..active.len()).collect();
        ranking.sort_by(|&a, &b| {
            on_compare();
            let fa = shares[a] - shares[a].floor();
            let fb = shares[b] - shares[b].floor();
            fb.total_cmp(&fa).then(active[a].cmp(&active[b]))
        });
        for k in ranking {
            let c = &mut cands[active[k]];
            if leftover > 0 && c.prbs < c.cap_prbs {
                c.prbs += 1;
                leftover -= 1;
            }
        }
    }

    fn cand(k: usize, weight: f64, cap_prbs: u32) -> Candidate {
        Candidate { slot: Slot::Bg(k), eff: 1.0, reported: 10_000, cap_prbs, weight, prbs: 0 }
    }

    /// Grants by the allocator and by cap rounds + the full-sort oracle.
    fn grants_both_ways(total: u32, weights_caps: &[(f64, u32)]) -> (Vec<u32>, Vec<u32>) {
        let build = || -> Vec<Candidate> {
            weights_caps.iter().enumerate().map(|(k, &(w, cap))| cand(k, w, cap)).collect()
        };
        let mut scratch = AllocScratch::default();
        let mut selected = build();
        allocate_prbs(total, &mut selected, &mut scratch);
        let mut sorted = build();
        if let Some(remaining) = settle_caps(total, &mut sorted, &mut scratch) {
            integerize_by_full_sort(remaining, &mut sorted, &scratch, || ());
        }
        let prbs = |cands: Vec<Candidate>| cands.iter().map(|c| c.prbs).collect();
        (prbs(selected), prbs(sorted))
    }

    #[test]
    fn selection_matches_the_full_sort_oracle() {
        use poi360_testkit::prop::Gen;
        use poi360_testkit::{prop_assert, prop_assert_eq, prop_check};
        prop_check!(512, |g: &mut Gen| {
            let n = g.usize_in(0, 600);
            let regime = g.index(7);
            let mut total = g.u32_in(0, 200);
            let weights_caps: Vec<(f64, u32)> = match regime {
                // Free-running weights and caps.
                0 => (0..n).map(|_| (g.f64_in(0.0, 40.0), g.u32_in(1, 32))).collect(),
                // All-equal weights, loose caps: every fraction ties, so
                // the winners are decided by candidate index alone.
                1 => {
                    let w = g.f64_in(0.01, 40.0);
                    vec![(w, 32); n]
                }
                // Binding caps: most of the cell is handed out in the
                // cap rounds and the final round splits the scraps.
                2 => {
                    total = g.u32_in(100, 2_000);
                    (0..n).map(|_| (g.f64_in(0.1, 40.0), g.u32_in(1, 3))).collect()
                }
                // Zero weights sprinkled among live ones (or all zero).
                3 => {
                    let p_live = g.f64_in(0.0, 1.0);
                    (0..n).map(|_| (if g.chance(p_live) { 1.5 } else { 0.0 }, 8)).collect()
                }
                // Integer shares: nothing left over for the remainders.
                4 => {
                    total = n as u32 * g.u32_in(0, 3);
                    vec![(1.0, 8); n]
                }
                // Near ties: weights a few ulps apart, so the fractions
                // differ in their last bits only, and a selection key that
                // lost any of those bits would rank them by index instead.
                5 => {
                    let w = g.f64_in(0.01, 40.0);
                    (0..n).map(|_| ((0..g.index(4)).fold(w, |x, _| x.next_up()), 32)).collect()
                }
                // An empty cell-side budget.
                _ => {
                    total = 0;
                    (0..n).map(|_| (g.f64_in(0.0, 40.0), g.u32_in(1, 32))).collect()
                }
            };
            let (selected, sorted) = grants_both_ways(total, &weights_caps);
            prop_assert_eq!(&selected, &sorted);
            prop_assert!(selected.iter().sum::<u32>() <= total, "granted more than {total}");
            for (&prbs, &(_, cap)) in selected.iter().zip(&weights_caps) {
                prop_assert!(prbs <= cap, "{prbs} PRBs over cap {cap}");
            }
            Ok(())
        });
    }

    #[test]
    fn selection_needs_a_linear_number_of_comparisons() {
        // An exact work counter, not a clock: the crowded cell's final
        // round (500 candidates, 50 PRBs, nobody near the 25-PRB cap) as
        // the allocator runs it and as a full sort would: 1 252 comparisons
        // against 4 792. The selection count is pinned exactly; it was 1 252
        // over the index-and-`total_cmp` order too, so the integer keys
        // order the claims the same way, comparison for comparison.
        let n = 500;
        let mut rng = SimRng::stream(360, "cell.tests.comparisons");
        let build = |rng: &mut SimRng| -> Vec<Candidate> {
            (0..n).map(|k| cand(k, rng.uniform_range(0.5, 40.0), 25)).collect()
        };
        let mut scratch = AllocScratch::default();
        let (mut selecting, mut sorting) = (0usize, 0usize);
        let mut cands = build(&mut rng);
        let remaining = settle_caps(50, &mut cands, &mut scratch).expect("PRBs to split");
        integerize_by_full_sort(remaining, &mut cands, &scratch, || sorting += 1);
        let by_sort: Vec<u32> = cands.iter().map(|c| c.prbs).collect();
        integerize(remaining, &mut cands, &mut scratch, || selecting += 1);
        let by_selection: Vec<u32> = cands.iter().map(|c| c.prbs).collect();
        assert_eq!(by_selection, by_sort);
        assert_eq!(scratch.active.len(), n, "one round, nobody capped");
        assert_eq!(selecting, 1_252, "selection comparisons for {n} candidates");
        assert!(sorting >= 8 * n, "a full sort took only {sorting}");
    }

    #[test]
    fn pf_split_grants_are_pinned() {
        // Hand-computed grant tables: with the fresh-`Vec` oracle gone
        // (allocate_prbs_reference now delegates), this pins the actual
        // arithmetic — proportional split, cap-and-redistribute, largest
        // remainder with index tie-break — against fixed values.
        let cand = |k: usize, weight: f64, cap_prbs: u32| Candidate {
            slot: Slot::Fg(k),
            eff: 1.0,
            reported: 10_000,
            cap_prbs,
            weight,
            prbs: 0,
        };
        let grants = |total: u32, mut cands: Vec<Candidate>| -> Vec<u32> {
            allocate_prbs(total, &mut cands, &mut AllocScratch::default());
            cands.iter().map(|c| c.prbs).collect()
        };
        // Equal weights, equal fractions: leftover goes to lower indices.
        assert_eq!(
            grants(10, vec![cand(0, 1.0, 32), cand(1, 1.0, 32), cand(2, 1.0, 32)]),
            [4, 3, 3]
        );
        // A cap binds: the heavy UE takes exactly its cap, the surplus is
        // re-split 3:1 over the others (7.5 and 2.5; the tie-free
        // fraction sends the leftover PRB to the heavier one).
        assert_eq!(
            grants(12, vec![cand(0, 6.0, 2), cand(1, 3.0, 32), cand(2, 1.0, 32)]),
            [2, 8, 2]
        );
        // Largest remainder without ties: 40/7 = 5.71 beats 16/7 = 2.29.
        assert_eq!(grants(8, vec![cand(0, 5.0, 32), cand(1, 2.0, 32)]), [6, 2]);
        // Proportional share exactly equal to the cap still counts as
        // capped (share >= cap), leaving a clean re-split for the rest.
        assert_eq!(grants(10, vec![cand(0, 1.0, 5), cand(1, 1.0, 8)]), [5, 5]);
        // Degenerate inputs: nothing to grant, or nobody schedulable.
        assert_eq!(grants(0, vec![cand(0, 1.0, 32)]), [0]);
        assert_eq!(grants(5, vec![cand(0, 0.0, 32), cand(1, 0.0, 32)]), [0, 0]);
    }

    #[test]
    fn claim_cap_shortcut_equals_the_division_it_skips() {
        use poi360_testkit::prop::Gen;
        use poi360_testkit::{prop_assert_eq, prop_check};
        let mut link = UeLink::new(1, "ue", strong_channel(), 6);
        let (mut at_the_limit, mut below_it) = (0, 0);
        prop_check!(4096, |g: &mut Gen| {
            let max_prbs_per_ue = g.u32_in(1, 110);
            let most = if g.chance(0.5) { 4_000 } else { 400_000 };
            link.reported = g.u64_in(1, most);
            let want_bits = tbs::grant_ceiling_bits(link.reported);
            // A free-running efficiency, or the one that puts the backlog
            // on the shortcut's boundary `want == max * eff * RE`, give or
            // take up to two ulps.
            link.eff = if g.chance(0.4) {
                g.f64_in(0.01, 6.0)
            } else {
                let on_it = want_bits / (max_prbs_per_ue as f64 * tbs::DATA_RE_PER_PRB);
                match g.index(5) {
                    0 => on_it.next_down().next_down(),
                    1 => on_it.next_down(),
                    2 => on_it,
                    3 => on_it.next_up(),
                    _ => on_it.next_up().next_up(),
                }
            };
            let claim = Candidate::for_link(Slot::Fg(0), &link, max_prbs_per_ue);
            let cap_prbs = claim.expect("backlogged and in coverage").cap_prbs;
            let needed = (want_bits / (link.eff * tbs::DATA_RE_PER_PRB)).ceil() as u32;
            prop_assert_eq!(cap_prbs, needed.clamp(1, max_prbs_per_ue));
            // Which arm answered: both must have been asked often.
            if want_bits >= max_prbs_per_ue as f64 * (link.eff * tbs::DATA_RE_PER_PRB) {
                at_the_limit += 1;
            } else {
                below_it += 1;
            }
            Ok(())
        });
        assert!(at_the_limit > 1_000 && below_it > 1_000, "{at_the_limit} / {below_it}");
    }

    #[test]
    fn recycled_subframes_are_byte_identical() {
        // The same run with and without recycling must produce the same
        // trace: scratch reuse may only change *where* buffers live.
        let run = |recycle: bool| {
            let mut cell = Cell::new(CellConfig::default(), 11);
            cell.attach_foreground("fg.0", ChannelConfig::default());
            cell.attach_background_population(6);
            let mut now = SimTime::ZERO;
            let mut trace = Vec::new();
            for _ in 0..3_000 {
                while cell.buffer_level(UeId(0)) < 20_000 {
                    cell.enqueue(UeId(0), Pkt(1_200), now);
                }
                let out = cell.subframe(now);
                trace.push((
                    out.per_ue[0].tbs_bits,
                    out.per_ue[0].departed.len(),
                    out.prbs_granted,
                    out.bg_backlog_bytes,
                ));
                if recycle {
                    cell.recycle(out);
                }
                now += SUBFRAME;
            }
            trace
        };
        assert_eq!(run(false), run(true));
    }

    impl Cell<Pkt> {
        /// Sound every `period` subframes instead of every
        /// [`SOUNDING_PERIOD_SUBFRAMES`]. Only on an empty cell: a UE's
        /// offset is drawn against the period when it attaches.
        fn force_sounding_period(&mut self, period: u64) {
            assert!(self.bg.is_empty(), "set the sounding period before attaching anyone");
            self.sounding_period = period;
        }
    }

    /// A cell with one topped-up foreground UE and `population` background
    /// UEs, parking or — the oracle — walking everyone every subframe.
    /// `noiseless` replaces every channel by one whose tracks never move,
    /// so the draws a parked channel skips cannot reach any output.
    fn parking_cell(seed: u64, population: usize, oracle: bool, noiseless: bool) -> Cell<Pkt> {
        sounding_cell(seed, population, oracle, noiseless, SOUNDING_PERIOD_SUBFRAMES)
    }

    /// [`parking_cell`] sounding every `period` subframes; 1 is the oracle
    /// that looks at every awake channel every subframe.
    fn sounding_cell(
        seed: u64,
        population: usize,
        oracle: bool,
        noiseless: bool,
        period: u64,
    ) -> Cell<Pkt> {
        let mut cell = Cell::new(CellConfig::default(), seed);
        cell.walk_everyone = oracle;
        cell.force_sounding_period(period);
        let fg_channel = if noiseless { strong_channel() } else { ChannelConfig::default() };
        cell.attach_foreground("fg.0", fg_channel);
        cell.attach_background_population(population);
        if noiseless {
            for u in &mut cell.bg {
                let quiet =
                    ChannelConfig { rss_dbm: u.link.channel.config().rss_dbm, ..fg_channel };
                u.link.channel = Channel::new(quiet, 0);
            }
        }
        cell
    }

    fn top_up_and_step(cell: &mut Cell<Pkt>, now: &mut SimTime) -> CellSubframe<Pkt> {
        while cell.buffer_level(UeId(0)) < 20_000 {
            cell.enqueue(UeId(0), Pkt(1_200), *now);
        }
        let out = cell.subframe(*now);
        *now += SUBFRAME;
        out
    }

    /// A background UE's PF average as the per-subframe walk would hold it
    /// now: a parked UE owes the decay of the subframes passed by so far.
    fn settled_avg(cell: &Cell<Pkt>, u: &BackgroundUe) -> f64 {
        let alpha = 1.0 / cell.cfg.pf_time_constant_subframes;
        let parked_at = u.parked_until - u.asleep;
        let passed_by = if u.asleep > 0 { cell.subframes - parked_at } else { 0 };
        u.link.avg_bits_per_sf * (1.0 - alpha).powi(passed_by as i32)
    }

    #[test]
    fn parking_matches_the_walk_everyone_oracle_when_channels_are_noiseless() {
        // With no channel randomness the only thing parking changes is
        // *when* work happens, so every output must match the oracle
        // exactly — off-by-one wake subframes, a BSR ring that is not the
        // zeros it should be, or a wrong decay exponent all show here.
        for population in [3usize, 11, 14, 60] {
            let mut parking = parking_cell(77, population, false, true);
            let mut oracle = parking_cell(77, population, true, true);
            let (mut now_p, mut now_o) = (SimTime::ZERO, SimTime::ZERO);
            for sf in 0..20_000 {
                let p = top_up_and_step(&mut parking, &mut now_p);
                let o = top_up_and_step(&mut oracle, &mut now_o);
                assert_eq!(
                    (p.prbs_granted, p.bg_backlog_bytes, p.per_ue[0].tbs_bits),
                    (o.prbs_granted, o.bg_backlog_bytes, o.per_ue[0].tbs_bits),
                    "population {population}, subframe {sf}"
                );
                for (up, uo) in parking.bg.iter().zip(&oracle.bg) {
                    assert_eq!(up.backlog_bytes, uo.backlog_bytes, "{} at {sf}", up.link.name);
                    let (ap, ao) = (settled_avg(&parking, up), uo.link.avg_bits_per_sf);
                    assert!(
                        (ap - ao).abs() <= 1e-9 * ao.abs(),
                        "{} at {sf}: PF average {ap} vs {ao}",
                        up.link.name
                    );
                }
            }
            let everyone = population as u64 * 20_000;
            assert_eq!(oracle.background_steps(), everyone);
            assert!(
                parking.background_steps() < everyone * 6 / 10,
                "population {population}: walked {} of {everyone}",
                parking.background_steps()
            );
        }
    }

    #[test]
    fn sounding_every_subframe_is_the_per_subframe_walk_it_replaced() {
        // Both digests were taken on the parent commit, where every awake
        // background UE stepped its channel every subframe and a waking one
        // caught up through a separate branch: with the period forced to 1
        // the one sampling path must reproduce them bit for bit, so only
        // the cadence changed. The population, fault plan and fold are
        // those of `cell_prop.rs`'s `crowded_cell_outputs_are_byte_pinned`
        // (whose constant before D11 is the 3 s digest), run four times as
        // long (by 12 s most of the 496 sources have burst and the cell has
        // saturated) and closed over every background UE's private state.
        use poi360_sim::fault::{FaultKind, FaultPlan};
        let mut cell = Cell::new(CellConfig::default(), 360);
        cell.force_sounding_period(1);
        for k in 0..4 {
            let ch = ChannelConfig { rss_dbm: -73.0 - 6.0 * k as f64, ..Default::default() };
            cell.attach_foreground(&format!("fg.{k}"), ch);
        }
        cell.attach_background_population(496);
        cell.set_fault_plan(
            FaultPlan::new()
                .with(
                    FaultKind::FlashCrowd { extra_load: 0.6 },
                    SimTime::from_millis(1_000),
                    SimDuration::from_millis(400),
                )
                .with(
                    FaultKind::RadioLinkFailure,
                    SimTime::from_millis(2_000),
                    SimDuration::from_millis(250),
                ),
        );
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
            hash
        };
        let mut now = SimTime::ZERO;
        let mut at_3_s = 0;
        for sf in 0..12_000 {
            for k in 0..4 {
                while cell.buffer_level(UeId(k)) < 30_000 {
                    cell.enqueue(UeId(k), Pkt(1_200), now);
                }
            }
            let out = cell.subframe(now);
            for (ue, &prbs) in out.per_ue.iter().zip(&out.prbs_per_ue) {
                fold(ue.tbs_bits as u64);
                fold(prbs as u64);
            }
            fold(out.prbs_granted as u64);
            let running = fold(out.bg_backlog_bytes);
            if sf == 2_999 {
                at_3_s = running;
            }
            cell.recycle(out);
            now += SUBFRAME;
        }
        for u in &cell.bg {
            fold(u.backlog_bytes);
            fold(u.link.avg_bits_per_sf.to_bits());
            fold(u.link.eff.to_bits());
        }
        let at_12_s = fold(cell.background_steps());
        assert_eq!(cell.background_channel_samples(), cell.background_steps());
        assert_eq!(at_3_s, 0x5a46_7b12_b4b4_1ff9, "the cell_prop.rs pin of the parent commit");
        assert_eq!(at_12_s, 0x1d5c_6ac5_77d9_faba, "taken on the parent commit's code");
    }

    #[test]
    fn parked_ues_are_idle_silent_and_never_candidates() {
        use poi360_testkit::prop::Gen;
        use poi360_testkit::{prop_assert, prop_assert_eq, prop_check};
        prop_check!(24, |g: &mut Gen| {
            let cfg = CellConfig {
                bsr_delay_subframes: g.usize_in(0, 9),
                pf_time_constant_subframes: g.f64_in(1.0, 800.0),
                ..Default::default()
            };
            let mut cell = Cell::<Pkt>::new(cfg, g.any_u64());
            cell.attach_background_population(g.usize_in(1, 20));
            let mut now = SimTime::ZERO;
            let mut ever_parked = false;
            // Awake stretches opened so far: one per UE at attach, one per
            // wake; and who wakes in the subframe about to run.
            let mut stretches = cell.bg.len() as u64;
            let mut waking = vec![false; cell.bg.len()];
            for _ in 0..g.usize_in(500, 6_000) {
                let sf = cell.subframes;
                cell.subframe(now);
                now += SUBFRAME;
                for (k, u) in cell.bg.iter().enumerate() {
                    // Passed by in the subframe just run: filed no claim.
                    if sf < u.parked_until && sf + u.asleep >= u.parked_until {
                        let claimed = cell.scratch.cands.iter().any(|c| c.slot == Slot::Bg(k));
                        prop_assert!(!claimed, "{} parked and a candidate", u.link.name);
                    } else {
                        // Walked: the verdict it filed against is a fresh
                        // one or a held one, never older than the hold.
                        let stale = cell.subframes - u.channel_at;
                        prop_assert!(stale < SOUNDING_PERIOD_SUBFRAMES, "held {stale} subframes");
                        // Back from sleep, however short: sounded at once.
                        prop_assert!(!waking[k] || stale == 0, "{} woke unsounded", u.link.name);
                    }
                    waking[k] = u.asleep > 0 && cell.subframes == u.parked_until;
                    stretches += u64::from(waking[k]);
                    // Parked for the subframe to come.
                    if cell.subframes < u.parked_until {
                        ever_parked = true;
                        prop_assert_eq!(u.backlog_bytes, 0);
                        prop_assert!(u.link.bsr.is_quiet(), "ring not full of zeros");
                        prop_assert!(u.traffic.quiet_subframes() > 0, "source ON or about to flip");
                        // It wakes on the subframe its source flips in.
                        let wake_in = u.parked_until - cell.subframes;
                        prop_assert!(
                            wake_in <= u.traffic.quiet_subframes(),
                            "sleeps {wake_in} past a flip {} away",
                            u.traffic.quiet_subframes()
                        );
                    } else if cell.subframes > u.parked_until {
                        prop_assert_eq!(u.asleep, 0); // settled on the subframe it woke in
                    }
                }
            }
            prop_assert!(ever_parked, "nobody ever parked");
            // One look per sounding period of an awake stretch, the first
            // when it opens (at attach: up to a period later).
            let (walked, looks) = (cell.background_steps(), cell.background_channel_samples());
            prop_assert!(10 * looks <= walked + 9 * stretches, "{looks} looks, {walked} walked");
            prop_assert!(10 * looks + 9 * cell.bg.len() as u64 >= walked, "{looks} for {walked}");
            Ok(())
        });
    }

    /// Run `population` background UEs beside one topped-up foreground UE
    /// for 32 seeds x 60 s as `changed` and as `oracle` build the cell, and
    /// hold the two ensembles to one law. Same seeds on both sides (the
    /// traffic is bit-identical, which is why the two ensembles sit far
    /// closer than two independent ones would).
    ///
    /// Tolerance: a quarter of the oracle's own seed-to-seed standard
    /// deviation over these 32 seeds, computed here, not assumed — for the
    /// means of utilisation, Jain over per-UE served bytes and served
    /// bytes, and for the worst single UE's bytes against how much one
    /// UE's bytes vary from seed to seed.
    fn assert_same_law(
        population: usize,
        changed: impl Fn(u64) -> Cell<Pkt>,
        oracle: impl Fn(u64) -> Cell<Pkt>,
    ) {
        let subframes = 60_000u64;
        // One run: (mean utilisation, Jain over per-UE served bytes, those bytes).
        let run = |mut cell: Cell<Pkt>| -> (f64, f64, Vec<f64>) {
            let mut twins: Vec<BackgroundTraffic> =
                cell.bg.iter().map(|u| u.traffic.clone()).collect();
            let mut offered = vec![0u64; population];
            let mut now = SimTime::ZERO;
            for _ in 0..subframes {
                top_up_and_step(&mut cell, &mut now);
                for (total, twin) in offered.iter_mut().zip(&mut twins) {
                    *total += twin.subframe();
                }
            }
            // Nobody nears the 256 KiB cap in a typical or busy cell, so
            // what a UE was offered and does not still hold, it was served.
            let served: Vec<f64> =
                cell.bg.iter().zip(&offered).map(|(u, &o)| (o - u.backlog_bytes) as f64).collect();
            let (sum, sumsq) = served.iter().fold((0.0, 0.0), |(s, q), x| (s + x, q + x * x));
            (cell.mean_utilization(), sum * sum / (population as f64 * sumsq), served)
        };
        let seeds = 32u64;
        let (mut ours, mut theirs) = (Vec::new(), Vec::new());
        for seed in 0..seeds {
            ours.push(run(changed(1_000 + seed)));
            theirs.push(run(oracle(1_000 + seed)));
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let sd = |xs: &[f64]| {
            let m = mean(xs);
            (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
        };
        let column = |runs: &[(f64, f64, Vec<f64>)], pick: fn(&(f64, f64, Vec<f64>)) -> f64| {
            runs.iter().map(pick).collect::<Vec<f64>>()
        };
        for (what, pick) in [
            ("utilisation", (|r| r.0) as fn(&(f64, f64, Vec<f64>)) -> f64),
            ("Jain", |r| r.1),
            ("served bytes", |r| r.2.iter().sum::<f64>()),
        ] {
            let (p, o) = (column(&ours, pick), column(&theirs, pick));
            let (gap, spread) = ((mean(&p) - mean(&o)).abs(), sd(&o));
            eprintln!("{population} UEs, {what}: {} oracle {} sd {spread}", mean(&p), mean(&o));
            assert!(gap < spread / 4.0, "{what}: means {gap} apart, oracle sd {spread}");
        }
        // Per UE: the same UE (same name, same seed) under both walks.
        let mut worst = 0.0f64;
        for (p, o) in ours.iter().zip(&theirs) {
            for (bp, bo) in p.2.iter().zip(&o.2) {
                worst = worst.max((bp - bo).abs() / bo.max(1.0));
            }
        }
        let per_ue: Vec<f64> = theirs.iter().map(|r| r.2[0]).collect();
        let per_ue_spread = sd(&per_ue) / mean(&per_ue);
        eprintln!("per-UE served bytes: worst gap {worst}, seed-to-seed sd {per_ue_spread}");
        assert!(worst < per_ue_spread / 4.0, "a UE's served bytes moved {worst}");
    }

    #[test]
    fn parking_keeps_the_law_of_the_walk_everyone_oracle() {
        // Default (noisy) channels: a woken channel is looked at at once,
        // the oracle's on its own schedule, so realisations differ and only
        // the law can agree. Measured on this tree (one topped-up
        // foreground UE + 11 background): utilisation 0.8539 vs 0.8559 (sd
        // 0.0504), Jain over per-UE served bytes 0.71518 vs 0.71523 (sd
        // 0.0853), served bytes 38.478 vs 38.474 MB (sd 9.70 MB); worst
        // single-UE gap 3.6 % of its bytes, where one UE's bytes vary 56 %
        // from seed to seed.
        let population = background_population_for(BackgroundLoad::Typical);
        assert_same_law(
            population,
            |seed| parking_cell(seed, population, false, false),
            |seed| parking_cell(seed, population, true, false),
        );
    }

    #[test]
    fn sounding_keeps_the_law_of_the_per_subframe_walk() {
        // The shipping cell (parks, sounds every 10 ms) against the cell
        // that parks and looks at every awake channel every subframe —
        // the model before D11. A held verdict is up to 9 ms stale, so
        // realisations differ; the law must not, in a typical (11-UE) and
        // a busy (14-UE) cell. Measured on this tree: utilisation 0.8539
        // vs 0.8552 (sd 0.0497) and 0.9122 vs 0.9132 (sd 0.0354), Jain
        // 0.71518 vs 0.71526 (sd 0.0854) and 0.70941 vs 0.70933 (sd
        // 0.0759), served bytes 38.478 vs 38.476 MB (sd 9.71 MB) and 49.721
        // vs 49.733 MB (sd 9.44 MB); worst single-UE gap 2.7 % and 4.4 %
        // of its bytes, where one UE's bytes vary 56 % from seed to seed.
        for load in [BackgroundLoad::Typical, BackgroundLoad::Busy] {
            let population = background_population_for(load);
            assert_same_law(
                population,
                |seed| parking_cell(seed, population, false, false),
                |seed| sounding_cell(seed, population, false, false, 1),
            );
        }
    }

    #[test]
    fn mid_run_attach_among_parked_ues_is_order_independent() {
        // Background UEs are indexed by sorted name and the index of a
        // parked UE shifts when a newcomer sorts in before it: parking
        // state must travel with the UE, not with its slot.
        let run = |first: [&str; 3], later: [&str; 2]| {
            let mut cell = Cell::new(CellConfig::default(), 6);
            cell.attach_foreground("fg.0", strong_channel());
            for name in first {
                cell.attach_background(name);
            }
            let mut now = SimTime::ZERO;
            let mut trace = Vec::new();
            let mut later = Some(later);
            for sf in 0..8_000 {
                // The newcomers arrive the first time, past 1 s, that two
                // residents are parked (the same subframe in every order).
                let parked = cell.bg.iter().filter(|u| cell.subframes < u.parked_until).count();
                if sf >= 1_000 && parked >= 2 {
                    for name in later.take().into_iter().flatten() {
                        cell.attach_background(name);
                    }
                }
                let out = top_up_and_step(&mut cell, &mut now);
                trace.push((out.per_ue[0].tbs_bits, out.prbs_granted, out.bg_backlog_bytes));
            }
            assert_eq!(cell.background_count(), 5, "two residents never parked together");
            let backlogs: Vec<(String, u64)> =
                cell.bg.iter().map(|u| (u.link.name.clone(), u.backlog_bytes)).collect();
            (trace, backlogs, cell.background_steps())
        };
        let forward = run(["bg.b", "bg.d", "bg.f"], ["bg.a", "bg.e"]);
        let shuffled = run(["bg.f", "bg.b", "bg.d"], ["bg.e", "bg.a"]);
        assert!(forward.0.iter().any(|&(_, _, backlog)| backlog > 0), "background never sent");
        assert_eq!(forward, shuffled);
    }

    #[test]
    #[should_panic(expected = "duplicate UE name \"bg.001\"")]
    fn background_name_clash_with_background_panics() {
        let mut cell = Cell::<Pkt>::new(CellConfig::default(), 12);
        cell.attach_background_population(3);
        cell.attach_background("bg.001");
    }

    #[test]
    #[should_panic(expected = "duplicate UE name \"ue.a\"")]
    fn background_name_clash_with_foreground_panics() {
        let mut cell = Cell::<Pkt>::new(CellConfig::default(), 12);
        cell.attach_background_population(3);
        cell.attach_foreground("ue.a", strong_channel());
        cell.attach_background("ue.a");
    }

    #[test]
    #[should_panic(expected = "duplicate UE name \"bg.002\"")]
    fn foreground_name_clash_with_background_panics() {
        let mut cell = Cell::<Pkt>::new(CellConfig::default(), 12);
        cell.attach_background_population(3);
        cell.attach_foreground("bg.002", strong_channel());
    }

    #[test]
    fn attach_order_does_not_change_foreground_results() {
        let run = |names: &[&str]| {
            let mut cell = Cell::new(CellConfig::default(), 6);
            cell.attach_foreground("fg.0", strong_channel());
            for name in names {
                cell.attach_background(name);
            }
            let mut now = SimTime::ZERO;
            let mut trace = Vec::new();
            for _ in 0..3_000 {
                while cell.buffer_level(UeId(0)) < 20_000 {
                    cell.enqueue(UeId(0), Pkt(1_200), now);
                }
                trace.push(cell.subframe(now).per_ue[0].tbs_bits);
                now += SUBFRAME;
            }
            trace
        };
        let forward = run(&["bg.a", "bg.b", "bg.c"]);
        let reversed = run(&["bg.c", "bg.b", "bg.a"]);
        assert_eq!(forward, reversed);
    }

    /// Work conservation: a lone backlogged UE on an idle cell (HARQ losses
    /// disabled, static strong channel) must be served at least as fast as
    /// the standalone per-UE grant model saturates in an idle cell — the
    /// cell has no one else to spend its PRBs on, so its 25-PRB cap
    /// strictly dominates the standalone ~8-PRB fair share.
    #[test]
    fn lone_backlogged_ue_is_work_conserving() {
        use crate::scheduler::{saturation_bits_per_subframe, SchedulerConfig};
        use poi360_testkit::{prop_assert, prop_check};

        let floor_bits_per_sf = saturation_bits_per_subframe(&SchedulerConfig::default(), 15, 0.0);
        prop_check!(24, |g| {
            let cfg = CellConfig { harq_fail_prob: 0.0, ..Default::default() };
            let mut cell = Cell::new(cfg, g.any_u64());
            let ue = cell.attach_foreground("fg.0", strong_channel());

            let mut now = SimTime::ZERO;
            let mut served_bits = 0u64;
            let measure_sf = 2_000u64;
            // Warmup covers the BSR pipeline delay before service starts.
            for sf in 0..measure_sf + 50 {
                while cell.buffer_level(ue) < 40_000 {
                    cell.enqueue(ue, Pkt(1_200), now);
                }
                let out = cell.subframe(now);
                if sf >= 50 {
                    served_bits += out.per_ue[0].tbs_bits as u64;
                }
                now += SUBFRAME;
            }
            let mean_bits_per_sf = served_bits as f64 / measure_sf as f64;
            prop_assert!(
                mean_bits_per_sf >= floor_bits_per_sf,
                "lone UE served {mean_bits_per_sf:.0} bits/sf < standalone floor {floor_bits_per_sf:.0}"
            );
            Ok(())
        });
    }
}
