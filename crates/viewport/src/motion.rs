//! Head-motion kinematics and user archetypes.
//!
//! The gaze is a second-order system: each archetype emits *targets*
//! (where the user wants to look next and how urgently), and the kinematic
//! integrator pursues the target under velocity and acceleration limits.
//! Yaw is cyclic; pitch is clamped to `[-75°, 75°]` (humans rarely stare at
//! the poles, and HMD straps physically resist it).

use poi360_sim::process::OrnsteinUhlenbeck;
use poi360_sim::rng::SimRng;
use poi360_sim::time::SimDuration;
use poi360_video::frame::{wrap360, TileGrid};
use poi360_video::roi::Roi;

/// Maximum angular speed (deg/s), from the Oculus numbers cited in paper §8.
const MAX_SPEED: f64 = 240.0;
/// Maximum angular acceleration (deg/s²).
const MAX_ACCEL: f64 = 500.0;
/// Pitch excursion limit (deg).
pub const PITCH_LIMIT: f64 = 75.0;
/// Standard deviation of involuntary head sway (deg). Humans cannot hold an
/// HMD perfectly still; this is what makes rigid two-level schemes flicker
/// whenever the gaze sits near a tile boundary.
const SWAY_STD: f64 = 2.0;

/// A viewer's kinematic limits: all fixed, so they are the constants
/// above; the type stays for callers that name it.
#[derive(Clone, Copy, Debug, Default)]
pub struct MotionConfig {}

/// The five user archetypes substituting for the paper's five participants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UserArchetype {
    /// Mostly still (video-chat posture); occasional glances that return to
    /// a home direction.
    Anchored,
    /// Continuous slow panoramic panning (sightseeing).
    SmoothPanner,
    /// Frequent large saccades to random directions (active explorer).
    Saccadic,
    /// Long dwells interrupted by urgent attention shifts (event watcher).
    EventDriven,
    /// Vehicle passenger: forward bias, lateral scanning, rare rear checks.
    Passenger,
}

impl UserArchetype {
    /// All five archetypes in a fixed order: "user 1" … "user 5".
    pub fn all() -> [UserArchetype; 5] {
        [
            UserArchetype::Anchored,
            UserArchetype::SmoothPanner,
            UserArchetype::Saccadic,
            UserArchetype::EventDriven,
            UserArchetype::Passenger,
        ]
    }

    /// Human-readable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            UserArchetype::Anchored => "anchored",
            UserArchetype::SmoothPanner => "smooth-panner",
            UserArchetype::Saccadic => "saccadic",
            UserArchetype::EventDriven => "event-driven",
            UserArchetype::Passenger => "passenger",
        }
    }
}

/// Archetype behaviour state.
#[derive(Clone, Debug)]
enum Behaviour {
    Anchored {
        home_yaw: f64,
        glancing: bool,
        until: f64, // behaviour-clock seconds
    },
    SmoothPanner {
        rate_dps: f64, // current pan rate, slowly varying
    },
    Saccadic {
        next_saccade: f64,
    },
    EventDriven {
        next_event: f64,
    },
    Passenger {
        next_scan: f64,
    },
}

/// A simulated viewer's head.
#[derive(Clone, Debug)]
pub struct HeadMotion {
    behaviour: Behaviour,
    rng: SimRng,
    /// Behaviour clock in seconds since start.
    clock: f64,
    yaw: f64,
    pitch: f64,
    yaw_vel: f64,
    pitch_vel: f64,
    target_yaw: f64,
    target_pitch: f64,
    sway_yaw: OrnsteinUhlenbeck,
    sway_pitch: OrnsteinUhlenbeck,
}

fn wrap_delta(d: f64) -> f64 {
    // `d % 360.0` is `d` itself below 360 in magnitude, which is where the
    // difference of two wrapped angles lies; skip the `fmod` call there.
    let mut d = if d.abs() < 360.0 { d } else { d % 360.0 };
    if d >= 180.0 {
        d -= 360.0;
    }
    if d < -180.0 {
        d += 360.0;
    }
    d
}

impl HeadMotion {
    /// Create a viewer of the given archetype, gazing straight ahead.
    pub fn new(archetype: UserArchetype, _: MotionConfig, seed: u64) -> Self {
        let mut rng = SimRng::stream(seed, "viewport.motion");
        let behaviour = match archetype {
            UserArchetype::Anchored => Behaviour::Anchored {
                home_yaw: 180.0,
                glancing: false,
                until: 2.0 + rng.exponential(6.0),
            },
            UserArchetype::SmoothPanner => Behaviour::SmoothPanner { rate_dps: 25.0 },
            UserArchetype::Saccadic => {
                Behaviour::Saccadic { next_saccade: rng.uniform_range(0.5, 2.0) }
            }
            UserArchetype::EventDriven => {
                Behaviour::EventDriven { next_event: 2.0 + rng.exponential(4.0) }
            }
            UserArchetype::Passenger => {
                Behaviour::Passenger { next_scan: rng.uniform_range(1.0, 4.0) }
            }
        };
        HeadMotion {
            sway_yaw: OrnsteinUhlenbeck::with_stationary(0.0, SWAY_STD, 0.8),
            sway_pitch: OrnsteinUhlenbeck::with_stationary(0.0, SWAY_STD * 0.6, 0.8),
            behaviour,
            rng,
            clock: 0.0,
            yaw: 180.0,
            pitch: 0.0,
            yaw_vel: 0.0,
            pitch_vel: 0.0,
            target_yaw: 180.0,
            target_pitch: 0.0,
        }
    }

    /// Current gaze yaw in `[0, 360)`, including involuntary sway.
    pub fn yaw(&self) -> f64 {
        wrap360(self.yaw + self.sway_yaw.value())
    }

    /// Current gaze pitch, including involuntary sway.
    pub fn pitch(&self) -> f64 {
        (self.pitch + self.sway_pitch.value()).clamp(-PITCH_LIMIT, PITCH_LIMIT)
    }

    /// Current ROI on a tile grid.
    pub fn roi(&self, grid: &TileGrid) -> Roi {
        Roi::from_angles(grid, self.yaw(), self.pitch())
    }

    /// Advance behaviour and kinematics by `dt`.
    pub fn step(&mut self, dt: SimDuration) {
        self.sway_yaw.step(dt, &mut self.rng);
        self.sway_pitch.step(dt, &mut self.rng);
        let dt = dt.as_secs_f64();
        self.clock += dt;
        self.update_behaviour();
        self.integrate_axis(dt, true);
        self.integrate_axis(dt, false);
        self.yaw = wrap360(self.yaw);
        self.pitch = self.pitch.clamp(-PITCH_LIMIT, PITCH_LIMIT);
    }

    fn update_behaviour(&mut self) {
        let clock = self.clock;
        match &mut self.behaviour {
            Behaviour::Anchored { home_yaw, glancing, until } => {
                if clock >= *until {
                    if *glancing {
                        // Glance over; return home.
                        self.target_yaw = *home_yaw;
                        self.target_pitch = 0.0;
                        *glancing = false;
                        *until = clock + 3.0 + self.rng.exponential(7.0);
                    } else {
                        // Glance at something off to the side.
                        let offset = self.rng.uniform_range(35.0, 130.0)
                            * if self.rng.chance(0.5) { 1.0 } else { -1.0 };
                        self.target_yaw = wrap360(*home_yaw + offset);
                        self.target_pitch = self.rng.uniform_range(-20.0, 25.0);
                        *glancing = true;
                        *until = clock + self.rng.uniform_range(0.8, 2.5);
                    }
                }
            }
            Behaviour::SmoothPanner { rate_dps } => {
                // Slowly varying pan rate; target stays ahead of the gaze.
                *rate_dps += self.rng.gaussian() * 0.4;
                *rate_dps = rate_dps.clamp(10.0, 45.0);
                self.target_yaw = wrap360(self.yaw + *rate_dps * 0.5);
                self.target_pitch =
                    (self.target_pitch + self.rng.gaussian() * 0.2).clamp(-15.0, 15.0);
            }
            Behaviour::Saccadic { next_saccade } => {
                if clock >= *next_saccade {
                    self.target_yaw = self.rng.uniform_range(0.0, 360.0);
                    self.target_pitch = self.rng.uniform_range(-35.0, 35.0);
                    *next_saccade = clock + self.rng.uniform_range(0.8, 2.5);
                }
            }
            Behaviour::EventDriven { next_event } => {
                if clock >= *next_event {
                    // An event somewhere else in the scene demands attention.
                    let jump = self.rng.uniform_range(60.0, 180.0)
                        * if self.rng.chance(0.5) { 1.0 } else { -1.0 };
                    self.target_yaw = wrap360(self.yaw + jump);
                    self.target_pitch = self.rng.uniform_range(-25.0, 25.0);
                    *next_event = clock + 2.0 + self.rng.exponential(4.0);
                }
            }
            Behaviour::Passenger { next_scan } => {
                if clock >= *next_scan {
                    if self.rng.chance(0.12) {
                        // Rear check.
                        self.target_yaw = wrap360(self.rng.uniform_range(-30.0, 30.0));
                        *next_scan = clock + self.rng.uniform_range(0.8, 1.5);
                    } else {
                        // Scan the forward hemisphere.
                        self.target_yaw = wrap360(180.0 + self.rng.uniform_range(-80.0, 80.0));
                        *next_scan = clock + self.rng.uniform_range(1.5, 5.0);
                    }
                    self.target_pitch = self.rng.uniform_range(-15.0, 10.0);
                }
            }
        }
    }

    /// Accel-limited pursuit of the target on one axis.
    fn integrate_axis(&mut self, dt: f64, is_yaw: bool) {
        let (pos, vel, target) = if is_yaw {
            (self.yaw, self.yaw_vel, self.target_yaw)
        } else {
            (self.pitch, self.pitch_vel, self.target_pitch)
        };
        let err = if is_yaw { wrap_delta(target - pos) } else { target - pos };

        // Desired speed: proportional to error, but low enough that the
        // deceleration phase (bounded by max_accel) can stop at the target:
        // v_max_for_stop = sqrt(2 * a * |err|).
        let stop_speed = (2.0 * MAX_ACCEL * err.abs()).sqrt();
        let desired = err.signum() * stop_speed.min(MAX_SPEED);

        let dv = (desired - vel).clamp(-MAX_ACCEL * dt, MAX_ACCEL * dt);
        let new_vel = vel + dv;
        let new_pos = pos + new_vel * dt;

        if is_yaw {
            self.yaw_vel = new_vel;
            self.yaw = new_pos;
        } else {
            self.pitch_vel = new_vel;
            self.pitch = new_pos;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: SimDuration = SimDuration::from_millis(10);

    fn run(archetype: UserArchetype, secs: f64, seed: u64) -> (HeadMotion, Vec<(f64, f64, f64)>) {
        let mut m = HeadMotion::new(archetype, MotionConfig::default(), seed);
        let steps = (secs / DT.as_secs_f64()) as usize;
        let mut trace = Vec::with_capacity(steps);
        for _ in 0..steps {
            m.step(DT);
            // Angular speed (deg/s) combining both axes.
            let speed = (m.yaw_vel.powi(2) + m.pitch_vel.powi(2)).sqrt();
            trace.push((m.yaw(), m.pitch(), speed));
        }
        (m, trace)
    }

    #[test]
    fn respects_speed_limit() {
        for a in UserArchetype::all() {
            let (_, trace) = run(a, 60.0, 11);
            let max = trace.iter().map(|t| t.2).fold(0.0, f64::max);
            // The limit applies per axis; the two-axis norm can slightly
            // exceed it when both axes move.
            assert!(max <= 240.0 * 1.42, "{a:?} speed {max}");
        }
    }

    #[test]
    fn respects_accel_limit() {
        for a in UserArchetype::all() {
            let (_, trace) = run(a, 30.0, 13);
            for w in trace.windows(2) {
                let dv = (w[1].2 - w[0].2).abs();
                assert!(dv <= 500.0 * DT.as_secs_f64() * 2.0 + 1e-6, "{a:?} accel {dv}");
            }
        }
    }

    #[test]
    fn pitch_stays_in_band() {
        for a in UserArchetype::all() {
            let (_, trace) = run(a, 60.0, 17);
            for t in &trace {
                assert!(t.1.abs() <= 75.0 + 1e-9, "{a:?} pitch {}", t.1);
            }
        }
    }

    #[test]
    fn yaw_normalized() {
        let (_, trace) = run(UserArchetype::Saccadic, 60.0, 19);
        for t in &trace {
            assert!((0.0..360.0).contains(&t.0), "yaw {}", t.0);
        }
    }

    #[test]
    fn saccadic_moves_more_than_anchored() {
        let moved = |a| -> f64 {
            let (_, trace) = run(a, 120.0, 23);
            trace.iter().map(|t| t.2 * DT.as_secs_f64()).sum()
        };
        let anchored = moved(UserArchetype::Anchored);
        let saccadic = moved(UserArchetype::Saccadic);
        assert!(saccadic > anchored * 2.0, "saccadic {saccadic} anchored {anchored}");
    }

    #[test]
    fn panner_covers_the_full_circle() {
        let grid = TileGrid::POI360;
        let mut m = HeadMotion::new(UserArchetype::SmoothPanner, MotionConfig::default(), 29);
        let mut cols = std::collections::HashSet::new();
        for _ in 0..6_000 {
            m.step(DT);
            cols.insert(m.roi(&grid).center.i);
        }
        assert_eq!(cols.len(), 12, "panner should visit all columns: {cols:?}");
    }

    #[test]
    fn anchored_returns_home() {
        let (_, trace) = run(UserArchetype::Anchored, 240.0, 31);
        // Most of the time the anchored user looks near home (180°).
        let near_home = trace.iter().filter(|t| wrap_delta(t.0 - 180.0).abs() < 35.0).count()
            as f64
            / trace.len() as f64;
        assert!(near_home > 0.5, "near-home fraction {near_home}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (_, a) = run(UserArchetype::EventDriven, 20.0, 37);
        let (_, b) = run(UserArchetype::EventDriven, 20.0, 37);
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_decorrelate() {
        let (_, a) = run(UserArchetype::EventDriven, 20.0, 1);
        let (_, b) = run(UserArchetype::EventDriven, 20.0, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn average_speed_in_plausible_human_range() {
        // Paper §8 cites ~60 deg/s average head velocity; the archetype
        // ensemble should land in a loosely human band.
        let mut total = 0.0;
        let mut n = 0usize;
        for a in UserArchetype::all() {
            let (_, trace) = run(a, 120.0, 41);
            total += trace.iter().map(|t| t.2).sum::<f64>();
            n += trace.len();
        }
        let avg = total / n as f64;
        assert!((5.0..120.0).contains(&avg), "ensemble average speed {avg}");
    }

    #[test]
    fn wrap_delta_is_shortest_path() {
        assert_eq!(wrap_delta(350.0), -10.0);
        assert_eq!(wrap_delta(-350.0), 10.0);
        assert_eq!(wrap_delta(180.0), -180.0);
        assert_eq!(wrap_delta(0.0), 0.0);
        // The `fmod`-free range is exact: the old body, bit for bit.
        let old = |d: f64| {
            let mut d = d % 360.0;
            if d >= 180.0 {
                d -= 360.0;
            }
            if d < -180.0 {
                d += 360.0;
            }
            d
        };
        let mut rng = SimRng::from_seed(7);
        for d in [-0.0, 359.999, -360.0, 360.0, 1e9].into_iter().chain(
            (0..10_000).map(|_| rng.uniform_range(0.0, 360.0) - rng.uniform_range(0.0, 360.0)),
        ) {
            assert_eq!(wrap_delta(d).to_bits(), old(d).to_bits(), "{d:e}");
        }
    }
}
