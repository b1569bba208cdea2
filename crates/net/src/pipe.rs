//! Order-preserving delay pipe with jitter and loss.
//!
//! Models the path segments downstream of the uplink radio: core network,
//! Internet transit, and the viewer's downlink. Delays are base + lognormal
//! jitter; arrivals never reorder within a pipe (the core path is a single
//! route; LTE RLC delivers in order), so the packets in flight are a FIFO.
//! The paper's "congestion elsewhere" case, where POI360 must fall back to
//! GCC, is injected by the fault plane's `WirelineSpike` through
//! [`DelayPipe::set_fault_state`].

use poi360_sim::rng::SimRng;
use poi360_sim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

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

/// The delay pipe.
pub struct DelayPipe<T> {
    cfg: PipeConfig,
    rng: SimRng,
    /// `(arrival, item)` in send order; arrivals are non-decreasing.
    in_flight: VecDeque<(SimTime, T)>,
    last_arrival: SimTime,
    fault_state: (SimDuration, f64),
    sent: u64,
    lost: u64,
}

impl<T> DelayPipe<T> {
    /// Create a pipe.
    pub fn new(cfg: PipeConfig, seed: u64) -> Self {
        DelayPipe {
            cfg,
            rng: SimRng::stream(seed, "net.pipe"),
            in_flight: VecDeque::new(),
            last_arrival: SimTime::ZERO,
            fault_state: (SimDuration::ZERO, 0.0),
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

    /// Nothing in the pipe advances with the clock; kept because the
    /// frozen `benchmark/src/adapter.rs` calls it once per tick.
    pub fn tick(&mut self, _now: SimTime) {}

    /// Impose injected fault conditions on the pipe: every subsequent send
    /// sees `extra_delay` more one-way delay and `extra_loss` more drop
    /// probability. Resetting to `(SimDuration::ZERO, 0.0)` restores the
    /// healthy pipe. The fault plane calls this from the session's
    /// per-subframe fault timeline.
    pub fn set_fault_state(&mut self, extra_delay: SimDuration, extra_loss: f64) {
        self.fault_state = (extra_delay, extra_loss.clamp(0.0, 1.0));
    }

    /// Send a packet into the pipe at `now`.
    pub fn send(&mut self, item: T, now: SimTime) {
        self.sent += 1;
        let (extra_delay, extra_loss) = self.fault_state;
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
        self.in_flight.push_back((arrival, item));
    }

    /// Deliver everything due by `now`, in order.
    pub fn poll(&mut self, now: SimTime) -> Vec<(SimTime, T)> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    /// Like [`DelayPipe::poll`], but appends into a caller-owned buffer so
    /// per-tick polling reuses capacity instead of allocating.
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, T)>) {
        while self.in_flight.front().is_some_and(|&(arrival, _)| arrival <= now) {
            out.extend(self.in_flight.pop_front());
        }
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
