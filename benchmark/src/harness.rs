//! The measurement loop: what a workload must provide, how one repetition
//! is timed, and how repetitions fold into a workload's result.

use crate::alloc;
use crate::reference::{self, NOMINAL_S};
use crate::span::{SpanCtx, Spans};
use crate::stats::Quartiles;
use std::time::{Duration, Instant};

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: the only numbers that gate a later change.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's value by which the metric may worsen.
    pub bound: f64,
    /// Which statistic of a run's samples is the metric's value.
    pub value: fn(&Quartiles) -> f64,
}

fn median_of(q: &Quartiles) -> f64 {
    q.median
}

/// The reference host flips between two speed levels 1.4x apart many times
/// a second (one integer loop reads 58 or 77 ms). A repetition lasts long
/// enough to average the two, a 20 ms set-up sample does not: the median of
/// 21 of them lands in either level, run to run, while their lower quartile
/// stays in the fast one.
fn lower_quartile_of(q: &Quartiles) -> f64 {
    q.q1
}

pub const SIM_S_PER_REF_S: &str = "sim_s_per_ref_s";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_HEAP_MIB: &str = "peak_heap_mib";
pub const FAILED_SHARE: &str = "failed_share";

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: SIM_S_PER_REF_S,
        unit: "sim-s/s",
        better: Better::Higher,
        bound: 0.25,
        value: median_of,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        value: lower_quartile_of,
    },
    EndToEnd {
        name: PEAK_HEAP_MIB,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        value: median_of,
    },
    EndToEnd {
        name: FAILED_SHARE,
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        value: median_of,
    },
];

impl EndToEnd {
    pub fn value_of(&self, samples: &[f64]) -> f64 {
        (self.value)(&Quartiles::of(samples))
    }
}

pub const SIM_S_PER_WALL_S: &str = "sim_s_per_wall_s";
pub const SETUP_WALL_S: &str = "setup_wall_s";
pub const REFERENCE_S: &str = "reference_s";

/// What the two time-based metrics above are made of, as the clock read it:
/// printed and stored, never gating. `(name, unit)`.
pub const RAW: [(&str, &str); 3] =
    [(SIM_S_PER_WALL_S, "sim-s/s"), (SETUP_WALL_S, "s"), (REFERENCE_S, "s")];

/// What one repetition produced, established by the workload's own checks.
#[derive(Clone, Debug, PartialEq)]
pub struct RepOutput {
    /// Simulated seconds completed (for `trace_read`: analysed).
    pub sim_s: f64,
    pub ops_attempted: u64,
    /// Operations that panicked or broke a correctness check.
    pub ops_failed: u64,
    /// FNV-1a-64 over the repetition's simulated output.
    pub digest: u64,
    /// Exact simulated statistics, stored so a later speed-only change can
    /// show them identical.
    pub counts: Vec<(&'static str, f64)>,
}

/// A closed batch: fixed inputs generated from the seed, run to completion.
pub trait Workload {
    fn name(&self) -> &'static str;

    /// One `setup_s` sample: build every simulated object of a repetition
    /// and complete its first step (for `trace_read`: load the artifact).
    fn setup_once(&mut self);

    /// The timed section of one repetition: construct, run, aggregate or
    /// report, write the artifact. Keeps what `check` needs.
    fn timed(&mut self, ctx: &SpanCtx<'_>);

    /// Untimed: verify what `timed` produced and release it.
    fn check(&mut self, ctx: &SpanCtx<'_>) -> RepOutput;
}

/// Process CPU time, from `/proc/self/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    /// Zero when `/proc` is unreadable: the host metrics are informative only.
    pub fn now() -> CpuTimes {
        // USER_HZ is 100 on every Linux ABI; the standard library offers no sysconf.
        const TICKS_PER_S: f64 = 100.0;
        let parse = || -> Option<CpuTimes> {
            let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
            // The command name (field 2) may hold spaces; fields resume after ')'.
            let rest = &stat[stat.rfind(')')? + 1..];
            let mut fields = rest.split_ascii_whitespace().skip(11);
            let user: f64 = fields.next()?.parse().ok()?;
            let sys: f64 = fields.next()?.parse().ok()?;
            Some(CpuTimes { user_s: user / TICKS_PER_S, sys_s: sys / TICKS_PER_S })
        };
        parse().unwrap_or_default()
    }

    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes { user_s: self.user_s - earlier.user_s, sys_s: self.sys_s - earlier.sys_s }
    }

    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// One measured repetition.
#[derive(Clone, Debug)]
pub struct RepSample {
    /// Wall seconds of the timed section.
    pub wall_s: f64,
    /// Peak live heap during the timed section.
    pub peak_heap_bytes: usize,
    /// Allocations during the timed section, all threads.
    pub allocs: u64,
    /// Process CPU time spent in the timed section.
    pub cpu: CpuTimes,
    pub out: RepOutput,
}

/// Run and check one repetition under a `rep` root span.
pub fn run_rep(w: &mut dyn Workload, spans: &Spans, rep: u32) -> RepSample {
    spans.root(w.name(), rep).scope("rep", None, |ctx| {
        alloc::reset_peak();
        let allocs_before = alloc::alloc_count();
        let cpu_before = CpuTimes::now();
        let start = Instant::now();
        w.timed(ctx);
        let wall_s = start.elapsed().as_secs_f64();
        let cpu = CpuTimes::now().since(cpu_before);
        let allocs = alloc::alloc_count() - allocs_before;
        let peak_heap_bytes = alloc::peak_bytes();
        let out = ctx.scope("check", None, |check| w.check(check));
        RepSample { wall_s, peak_heap_bytes, allocs, cpu, out }
    })
}

/// Fewest `setup_s` samples of a run.
const SETUP_SAMPLES: usize = 21;
/// Set-up samples taken before each repetition, so that they spread over
/// the whole run and not over its first half second.
const SETUP_SAMPLES_PER_REP: usize = 3;
/// Reference samples taken before each repetition: many short ones, because
/// each sits in one of the host's two speed levels and their mean has to
/// estimate the share of each.
const REFERENCE_SAMPLES_PER_REP: usize = 5;
/// A set-up too short to time within a tenth is repeated until a sample
/// lasts about this long; the sample then reports seconds per set.
const SETUP_SAMPLE_FLOOR: Duration = Duration::from_millis(20);

/// How many set-ups make one `setup_s` sample.
fn sets_per_sample(w: &mut dyn Workload) -> u32 {
    // The first build also pays one-off costs (worker threads, lazy
    // statics); it only sizes the samples.
    let start = Instant::now();
    w.setup_once();
    let once = start.elapsed().max(Duration::from_micros(1));
    (SETUP_SAMPLE_FLOOR.as_secs_f64() / once.as_secs_f64()).ceil().clamp(1.0, 1e4) as u32
}

/// One `setup_s` sample: seconds to build one repetition's simulated
/// objects and take their first step.
fn setup_sample(w: &mut dyn Workload, sets: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..sets {
        w.setup_once();
    }
    start.elapsed().as_secs_f64() / f64::from(sets)
}

/// How long a workload is measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Exactly this many repetitions.
    Reps(u32),
    /// Repetitions until this much wall time has passed since the workload
    /// started (set-up samples included), never fewer than [`MIN_TIMED_REPS`].
    Wall(Duration),
}

/// A median needs a few samples whatever the time budget says.
pub const MIN_TIMED_REPS: u32 = 5;

/// Everything measured for one workload, spans off.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub reps: Vec<RepSample>,
    /// Wall seconds per set-up, one per sample.
    pub setup_s: Vec<f64>,
    /// Seconds the host-speed reference took, a few samples before each repetition.
    pub reference_s: Vec<f64>,
    /// Failed operations, digest disagreements between repetitions included.
    pub ops_failed: u64,
    pub ops_attempted: u64,
}

impl WorkloadResult {
    pub fn from_samples(
        name: &'static str,
        reps: Vec<RepSample>,
        setup_s: Vec<f64>,
        reference_s: Vec<f64>,
    ) -> Self {
        assert!(!reps.is_empty(), "a workload result needs a repetition");
        let first = reps[0].out.digest;
        // Repetitions are byte-identical by construction, so a repetition
        // whose output differs from the first is a failed operation.
        let drifted = reps.iter().filter(|r| r.out.digest != first).count() as u64;
        let ops_failed = reps.iter().map(|r| r.out.ops_failed).sum::<u64>() + drifted;
        let ops_attempted = reps.iter().map(|r| r.out.ops_attempted).sum();
        WorkloadResult { name, reps, setup_s, reference_s, ops_failed, ops_attempted }
    }

    pub fn digest(&self) -> u64 {
        self.reps[0].out.digest
    }

    pub fn counts(&self) -> &[(&'static str, f64)] {
        &self.reps[0].out.counts
    }

    pub fn failed_share(&self) -> f64 {
        self.ops_failed as f64 / self.ops_attempted.max(1) as f64
    }

    /// The samples behind an end-to-end or raw metric.
    ///
    /// The two time-based end-to-end metrics are the clock's readings scaled
    /// by how the run's reference samples compare with their nominal length.
    /// A repetition lasts long enough to average the host's two speed levels,
    /// so its speed is scaled by the mean of the (short) reference samples; a
    /// set-up sample sits in one level and is valued at the fast one, by its
    /// lower quartile, so it is scaled by the reference's lower quartile.
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        let mean_reference = self.reference_s.iter().sum::<f64>() / self.reference_s.len() as f64;
        let fast_reference = Quartiles::of(&self.reference_s).q1;
        let speeds = || self.reps.iter().map(|r| r.out.sim_s / r.wall_s);
        match metric {
            SIM_S_PER_REF_S => speeds().map(|v| v * mean_reference / NOMINAL_S).collect(),
            SETUP_S => self.setup_s.iter().map(|s| s * NOMINAL_S / fast_reference).collect(),
            PEAK_HEAP_MIB => {
                self.reps.iter().map(|r| r.peak_heap_bytes as f64 / (1u64 << 20) as f64).collect()
            }
            FAILED_SHARE => vec![self.failed_share()],
            SIM_S_PER_WALL_S => speeds().collect(),
            SETUP_WALL_S => self.setup_s.clone(),
            REFERENCE_S => self.reference_s.clone(),
            other => panic!("no metric named {other}"),
        }
    }

    pub fn quartiles(&self, metric: &str) -> Quartiles {
        Quartiles::of(&self.samples(metric))
    }

    /// The metric's value for this run.
    pub fn value(&self, metric: &EndToEnd) -> f64 {
        metric.value_of(&self.samples(metric.name))
    }
}

/// Measure one workload with spans off: repetitions, each preceded by a few
/// set-up samples and a few samples of the host-speed reference on `width`
/// threads.
pub fn measure(w: &mut dyn Workload, budget: Budget, width: usize) -> WorkloadResult {
    let started = Instant::now();
    let spans = Spans::disabled();
    let sets = sets_per_sample(w);
    let (mut setup_s, mut reference_s, mut reps) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let done = reps.len() as u32;
        let enough = match budget {
            Budget::Reps(n) => done >= n,
            Budget::Wall(limit) => done >= MIN_TIMED_REPS && started.elapsed() >= limit,
        };
        if enough {
            break;
        }
        setup_s.extend((0..SETUP_SAMPLES_PER_REP).map(|_| setup_sample(w, sets)));
        reference_s.extend((0..REFERENCE_SAMPLES_PER_REP).map(|_| reference::sample_s(width)));
        reps.push(run_rep(w, &spans, done));
    }
    while setup_s.len() < SETUP_SAMPLES {
        setup_s.push(setup_sample(w, sets));
    }
    WorkloadResult::from_samples(w.name(), reps, setup_s, reference_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(digest: u64, ops_failed: u64) -> RepSample {
        RepSample {
            wall_s: 2.0,
            peak_heap_bytes: 3 << 20,
            allocs: 10,
            cpu: CpuTimes::default(),
            out: RepOutput { sim_s: 100.0, ops_attempted: 4, ops_failed, digest, counts: vec![] },
        }
    }

    #[test]
    fn a_digest_mismatch_between_repetitions_is_a_failed_operation() {
        let clean = WorkloadResult::from_samples("w", vec![sample(7, 0); 3], vec![0.5], vec![0.1]);
        assert_eq!((clean.ops_attempted, clean.ops_failed), (12, 0));
        assert_eq!(clean.failed_share(), 0.0);

        let reps = vec![sample(7, 0), sample(8, 0), sample(7, 1)];
        let drifted = WorkloadResult::from_samples("w", reps, vec![0.5], vec![0.1]);
        assert_eq!(drifted.ops_failed, 2, "one drifted repetition plus one failed check");
        assert!(drifted.failed_share() > 0.0);
    }

    #[test]
    fn end_to_end_samples_follow_their_definitions() {
        // A host at exactly its nominal speed: normalised equals raw.
        let nominal = vec![NOMINAL_S; 2];
        let r = WorkloadResult::from_samples("w", vec![sample(1, 0); 2], vec![0.25, 0.75], nominal);
        assert_eq!(r.samples(SIM_S_PER_WALL_S), vec![50.0, 50.0]);
        assert_eq!(r.samples(PEAK_HEAP_MIB), vec![3.0, 3.0]);
        // The value of `setup_s` is the lower quartile, of the others the median.
        assert!((r.quartiles(SETUP_S).median - 0.5).abs() < 1e-12);
        assert!((r.value(&END_TO_END[1]) - 0.125).abs() < 1e-12);
        assert!((r.value(&END_TO_END[0]) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn a_host_at_half_speed_reads_the_same_once_normalised() {
        // Everything takes twice as long: the repetitions, the set-ups and
        // the reference alike.
        let slow_rep = RepSample { wall_s: 4.0, ..sample(1, 0) };
        let fast = WorkloadResult::from_samples(
            "w",
            vec![sample(1, 0); 3],
            vec![0.2, 0.2, 0.3],
            vec![NOMINAL_S; 3],
        );
        let slow = WorkloadResult::from_samples(
            "w",
            vec![slow_rep; 3],
            vec![0.4, 0.4, 0.6],
            vec![2.0 * NOMINAL_S; 3],
        );
        assert_eq!(slow.samples(SIM_S_PER_WALL_S), vec![25.0; 3], "the clock sees the slowdown");
        for metric in &END_TO_END[..2] {
            assert!((slow.value(metric) - fast.value(metric)).abs() < 1e-12, "{}", metric.name);
        }
    }

    struct Counter {
        setups: u32,
        timed: u32,
    }

    impl Workload for Counter {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn setup_once(&mut self) {
            self.setups += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
        fn timed(&mut self, ctx: &SpanCtx<'_>) {
            ctx.scope("run", None, |_| self.timed += 1);
        }
        fn check(&mut self, _: &SpanCtx<'_>) -> RepOutput {
            RepOutput { sim_s: 1.0, ops_attempted: 1, ops_failed: 0, digest: 9, counts: vec![] }
        }
    }

    #[test]
    fn measure_interleaves_setup_samples_with_the_budgeted_repetitions() {
        let mut w = Counter { setups: 0, timed: 0 };
        let r = measure(&mut w, Budget::Reps(3), 1);
        assert_eq!(w.timed, 3);
        assert_eq!(r.setup_s.len(), SETUP_SAMPLES, "topped up after the last repetition");
        assert_eq!(r.reference_s.len(), 3 * REFERENCE_SAMPLES_PER_REP);
        assert!(w.setups > SETUP_SAMPLES as u32, "short set-ups are repeated within a sample");
        assert!(r.setup_s.iter().all(|&s| (0.004..0.1).contains(&s)), "seconds per set");

        let mut w = Counter { setups: 0, timed: 0 };
        let r = measure(&mut w, Budget::Reps(9), 1);
        assert_eq!(r.setup_s.len(), 9 * SETUP_SAMPLES_PER_REP);

        let mut w = Counter { setups: 0, timed: 0 };
        measure(&mut w, Budget::Wall(Duration::ZERO), 1);
        assert_eq!(w.timed, MIN_TIMED_REPS, "a spent budget still yields the minimum");
    }

    #[test]
    fn spans_on_records_the_rep_tree() {
        let spans = Spans::enabled(8);
        let mut w = Counter { setups: 0, timed: 0 };
        run_rep(&mut w, &spans, 2);
        let all = spans.snapshot();
        let names: Vec<_> = all.iter().map(|s| s.name).collect();
        assert_eq!(names, ["run", "check", "rep"]);
        assert!(all.iter().all(|s| s.workload == "counter" && s.rep == 2));
    }

    #[test]
    fn cpu_times_read_this_process() {
        let before = CpuTimes::now();
        let mut x = 0u64;
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = CpuTimes::now().since(before);
        assert!(spent.total_s() >= 0.03, "60 ms of spinning shows up: {spent:?}");
    }
}
