//! Order-preserving delay pipe with jitter, loss, and congestion episodes.
//!
//! Models the path segments downstream of the uplink radio: core network,
//! Internet transit, and the viewer's downlink. Delays are base + lognormal
//! jitter; arrivals never reorder within a pipe (the core path is a single
//! route; LTE RLC delivers in order). A [`CongestionEpisodes`] modulator
//! adds bursty extra queueing delay and loss to model the paper's
//! "congestion elsewhere" case where POI360 must fall back to GCC.

use poi360_sim::event::EventQueue;
use poi360_sim::process::MarkovOnOff;
use poi360_sim::rng::SimRng;
use poi360_sim::time::{SimDuration, SimTime};

/// Configuration for a delay pipe.
#[derive(Clone, Copy, Debug)]
pub struct PipeConfig {
    /// Base one-way delay.
    pub base_delay: SimDuration,
    /// Lognormal jitter: std of the multiplicative factor's underlying
    /// normal (0 disables jitter).
    pub jitter_sigma: f64,
    /// Independent random loss probability.
    pub loss_prob: f64,
}

impl PipeConfig {
    /// Core network + viewer downlink after a cellular uplink: ~45 ms one
    /// way with moderate jitter (paper cites cellular paths as "much longer
    /// and unstabler latency than wireline").
    pub fn cellular_downstream() -> PipeConfig {
        PipeConfig {
            base_delay: SimDuration::from_millis(60),
            jitter_sigma: 0.30,
            loss_prob: 0.0005,
        }
    }

    /// Reverse (feedback) path when the viewer is also on LTE: the data
    /// channel is tiny, so it sees base cellular RTT-scale latency and
    /// jitter but no self-induced queueing.
    pub fn cellular_feedback() -> PipeConfig {
        PipeConfig {
            base_delay: SimDuration::from_millis(120),
            jitter_sigma: 0.50,
            loss_prob: 0.001,
        }
    }

    /// Mobile-edge relaying (paper §8): media turns around at the serving
    /// base station — only the radio legs and the edge switch remain.
    pub fn edge_downstream() -> PipeConfig {
        PipeConfig {
            base_delay: SimDuration::from_millis(18),
            jitter_sigma: 0.25,
            loss_prob: 0.0005,
        }
    }

    /// Edge-relayed feedback path: one radio RTT, no Internet transit.
    pub fn edge_feedback() -> PipeConfig {
        PipeConfig {
            base_delay: SimDuration::from_millis(35),
            jitter_sigma: 0.35,
            loss_prob: 0.001,
        }
    }

    /// Campus wireline transit: short and stable.
    pub fn wireline_transit() -> PipeConfig {
        PipeConfig {
            base_delay: SimDuration::from_millis(12),
            jitter_sigma: 0.08,
            loss_prob: 0.0001,
        }
    }

    /// Wireline feedback path.
    pub fn wireline_feedback() -> PipeConfig {
        PipeConfig {
            base_delay: SimDuration::from_millis(14),
            jitter_sigma: 0.08,
            loss_prob: 0.0001,
        }
    }
}

/// Bursty remote congestion: while ON, the pipe gains extra delay (ramping
/// like a growing queue) and extra loss.
#[derive(Clone, Debug)]
pub struct CongestionEpisodes {
    chain: MarkovOnOff,
    /// Extra delay added at the peak of an episode.
    pub peak_extra_delay: SimDuration,
    /// Extra loss probability while congested.
    pub extra_loss: f64,
    /// Current ramp position in [0, 1].
    ramp: f64,
    /// Ramp speed per second.
    ramp_rate: f64,
}

impl CongestionEpisodes {
    /// Create episodes with the given mean on/off durations.
    pub fn new(
        mean_on: SimDuration,
        mean_off: SimDuration,
        peak_extra_delay: SimDuration,
        extra_loss: f64,
        rng: &mut SimRng,
    ) -> Self {
        CongestionEpisodes {
            chain: MarkovOnOff::new(mean_on, mean_off, false, rng),
            peak_extra_delay,
            extra_loss,
            ramp: 0.0,
            ramp_rate: 2.0,
        }
    }

    /// Advance by `dt`; returns `(extra_delay, extra_loss)` for this step.
    pub fn step(&mut self, dt: SimDuration, rng: &mut SimRng) -> (SimDuration, f64) {
        let on = self.chain.step(dt, rng);
        let delta = self.ramp_rate * dt.as_secs_f64();
        self.ramp = if on { (self.ramp + delta).min(1.0) } else { (self.ramp - delta).max(0.0) };
        let extra = SimDuration::from_secs_f64(self.peak_extra_delay.as_secs_f64() * self.ramp);
        let loss = if on { self.extra_loss } else { 0.0 };
        (extra, loss)
    }

    /// Whether an episode is currently active.
    pub fn is_congested(&self) -> bool {
        self.ramp > 0.05
    }
}

/// The delay pipe.
pub struct DelayPipe<T> {
    cfg: PipeConfig,
    rng: SimRng,
    in_flight: EventQueue<T>,
    last_arrival: SimTime,
    congestion: Option<CongestionEpisodes>,
    congestion_state: (SimDuration, f64),
    fault_state: (SimDuration, f64),
    last_step: SimTime,
    sent: u64,
    lost: u64,
}

impl<T> DelayPipe<T> {
    /// Create a pipe.
    pub fn new(cfg: PipeConfig, seed: u64) -> Self {
        DelayPipe {
            cfg,
            rng: SimRng::stream(seed, "net.pipe"),
            in_flight: EventQueue::new(),
            last_arrival: SimTime::ZERO,
            congestion: None,
            congestion_state: (SimDuration::ZERO, 0.0),
            fault_state: (SimDuration::ZERO, 0.0),
            last_step: SimTime::ZERO,
            sent: 0,
            lost: 0,
        }
    }

    /// Packets accepted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Packets dropped so far.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Packets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether a remote-congestion episode is active.
    pub fn is_congested(&self) -> bool {
        self.congestion.as_ref().is_some_and(|c| c.is_congested())
    }

    /// Advance the congestion modulator to `now` (call once per tick).
    pub fn tick(&mut self, now: SimTime) {
        if let Some(c) = &mut self.congestion {
            let dt = now.saturating_since(self.last_step);
            if !dt.is_zero() {
                self.congestion_state = c.step(dt, &mut self.rng);
                self.last_step = now;
            }
        }
    }

    /// Impose injected fault conditions on the pipe: every subsequent send
    /// sees `extra_delay` more one-way delay and `extra_loss` more drop
    /// probability, composing with any remote-congestion episode. Resetting
    /// to `(SimDuration::ZERO, 0.0)` restores the healthy pipe. The fault
    /// plane calls this from the session's per-subframe fault timeline.
    pub fn set_fault_state(&mut self, extra_delay: SimDuration, extra_loss: f64) {
        self.fault_state = (extra_delay, extra_loss.clamp(0.0, 1.0));
    }

    /// Send a packet into the pipe at `now`.
    pub fn send(&mut self, item: T, now: SimTime) {
        self.sent += 1;
        let (cong_delay, cong_loss) = self.congestion_state;
        let (fault_delay, fault_loss) = self.fault_state;
        let extra_delay = cong_delay + fault_delay;
        let extra_loss = cong_loss + fault_loss;
        if self.rng.chance(self.cfg.loss_prob + extra_loss) {
            self.lost += 1;
            return;
        }
        let jitter = if self.cfg.jitter_sigma > 0.0 {
            (self.rng.gaussian() * self.cfg.jitter_sigma).exp()
        } else {
            1.0
        };
        let delay =
            SimDuration::from_secs_f64(self.cfg.base_delay.as_secs_f64() * jitter) + extra_delay;
        // FIFO: never deliver before a previously sent packet.
        let arrival = (now + delay).max(self.last_arrival);
        self.last_arrival = arrival;
        self.in_flight.schedule(arrival, item);
    }

    /// Deliver everything due by `now`, in order.
    pub fn poll(&mut self, now: SimTime) -> Vec<(SimTime, T)> {
        self.in_flight.drain_due(now)
    }

    /// Like [`DelayPipe::poll`], but appends into a caller-owned buffer so
    /// per-tick polling reuses capacity instead of allocating.
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, T)>) {
        self.in_flight.drain_due_into(now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe(cfg: PipeConfig, seed: u64) -> DelayPipe<u64> {
        DelayPipe::new(cfg, seed)
    }

    #[test]
    fn delivers_after_base_delay() {
        let cfg = PipeConfig {
            base_delay: SimDuration::from_millis(50),
            jitter_sigma: 0.0,
            loss_prob: 0.0,
        };
        let mut p = pipe(cfg, 1);
        p.send(7, SimTime::ZERO);
        assert!(p.poll(SimTime::from_millis(49)).is_empty());
        let got = p.poll(SimTime::from_millis(50));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 7);
        assert_eq!(got[0].0, SimTime::from_millis(50));
    }

    #[test]
    fn preserves_order_despite_jitter() {
        let cfg = PipeConfig {
            base_delay: SimDuration::from_millis(40),
            jitter_sigma: 0.5,
            loss_prob: 0.0,
        };
        let mut p = pipe(cfg, 2);
        for k in 0..500u64 {
            p.send(k, SimTime::from_millis(k));
        }
        let got = p.poll(SimTime::from_secs(10));
        let values: Vec<u64> = got.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (0..500).collect::<Vec<_>>());
        // Arrivals must be non-decreasing.
        for w in got.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
    }

    #[test]
    fn loss_rate_near_configured() {
        let cfg = PipeConfig {
            base_delay: SimDuration::from_millis(10),
            jitter_sigma: 0.0,
            loss_prob: 0.05,
        };
        let mut p = pipe(cfg, 3);
        for k in 0..20_000u64 {
            p.send(k, SimTime::from_micros(k));
        }
        let rate = p.lost() as f64 / p.sent() as f64;
        assert!((rate - 0.05).abs() < 0.01, "loss rate {rate}");
    }

    #[test]
    fn jitter_spreads_delays() {
        let cfg = PipeConfig {
            base_delay: SimDuration::from_millis(50),
            jitter_sigma: 0.3,
            loss_prob: 0.0,
        };
        let mut p = pipe(cfg, 4);
        // Spaced sends so FIFO clamping doesn't mask the jitter.
        for k in 0..200u64 {
            p.send(k, SimTime::from_millis(k * 500));
        }
        let got = p.poll(SimTime::from_secs(200));
        let delays: Vec<f64> = got
            .iter()
            .map(|&(at, v)| (at - SimTime::from_millis(v * 500)).as_secs_f64() * 1e3)
            .collect();
        let mean = delays.iter().sum::<f64>() / delays.len() as f64;
        let spread = delays.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / delays.len() as f64;
        assert!(spread.sqrt() > 5.0, "jitter std {}", spread.sqrt());
    }

    #[test]
    fn congestion_episode_inflates_delay() {
        let mut rng = SimRng::from_seed(5);
        let episodes = CongestionEpisodes::new(
            SimDuration::from_secs(1_000), // effectively always on once started
            SimDuration::from_micros(1),
            SimDuration::from_millis(400),
            0.0,
            &mut rng,
        );
        let cfg = PipeConfig {
            base_delay: SimDuration::from_millis(20),
            jitter_sigma: 0.0,
            loss_prob: 0.0,
        };
        let mut p = pipe(cfg, 6);
        p.congestion = Some(episodes);
        // Let the ramp build.
        for ms in 0..2_000 {
            p.tick(SimTime::from_millis(ms));
        }
        assert!(p.is_congested());
        p.send(1, SimTime::from_millis(2_000));
        let got = p.poll(SimTime::from_secs(10));
        let delay = got[0].0 - SimTime::from_millis(2_000);
        assert!(delay >= SimDuration::from_millis(300), "delay {delay:?}");
    }

    #[test]
    fn no_congestion_without_modulator() {
        let mut p = pipe(PipeConfig::wireline_transit(), 7);
        p.tick(SimTime::from_secs(100));
        assert!(!p.is_congested());
    }

    #[test]
    fn fault_state_adds_delay_and_loss_then_clears() {
        let cfg = PipeConfig {
            base_delay: SimDuration::from_millis(20),
            jitter_sigma: 0.0,
            loss_prob: 0.0,
        };
        let mut p = pipe(cfg, 11);
        p.set_fault_state(SimDuration::from_millis(100), 0.0);
        p.send(1, SimTime::ZERO);
        let got = p.poll(SimTime::from_secs(1));
        assert_eq!(got[0].0, SimTime::from_millis(120), "fault delay adds to base");
        // Total loss while the fault is active, none after it clears.
        p.set_fault_state(SimDuration::ZERO, 1.0);
        for k in 0..50u64 {
            p.send(k, SimTime::from_secs(2));
        }
        assert_eq!(p.lost(), 50);
        p.set_fault_state(SimDuration::ZERO, 0.0);
        p.send(2, SimTime::from_secs(3));
        assert_eq!(p.lost(), 50, "healthy pipe drops nothing at loss_prob 0");
    }
}
