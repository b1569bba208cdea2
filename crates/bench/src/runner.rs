//! Shared experiment plumbing: the figure scale ([`ExpConfig`]), the
//! session seed law ([`session_seed`]) and the one fan-out. Every batch in
//! the crate — a condition's sessions, shared-cell ensembles, the fault
//! matrices — funnels through [`run_jobs`], which borrows workers from
//! the process-wide persistent epoch pool ([`pool`], shared with the
//! `MultiGrid` sharded executor) at a width resolved by
//! [`worker_threads`]: a `--threads` flag or `POI360_THREADS` env
//! override, else `available_parallelism` ([`with_worker_threads`] pins it
//! for one closure). Results always come back in
//! input order, so parallelism never perturbs output bytes.

use poi360_sim::time::SimDuration;

/// Global experiment scaling.
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Per-session duration in seconds (paper: 300 s).
    pub duration_secs: u64,
    /// Repetitions per user (paper: 10).
    pub repeats: u64,
    /// Base seed; session seeds derive from it, the user, and the repeat.
    pub base_seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        // Quick mode: enough sessions for stable aggregates in seconds of
        // wall-clock. `reproduce --full` switches to the paper's scale.
        ExpConfig { duration_secs: 90, repeats: 3, base_seed: 360 }
    }
}

impl ExpConfig {
    /// The paper's full scale: 5-minute sessions, 10 repetitions per user.
    pub fn full() -> Self {
        ExpConfig { duration_secs: 300, repeats: 10, base_seed: 360 }
    }

    /// Session duration.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs(self.duration_secs)
    }
}

/// Process-wide worker-thread override (0 = unset). Set by the
/// `reproduce --threads N` flag via [`set_worker_threads`].
static THREAD_OVERRIDE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Pin the worker-pool width for this process (0 clears the override).
pub fn set_worker_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, std::sync::atomic::Ordering::Relaxed);
}

/// Run `f` with the worker-pool width pinned to `threads`, then put back
/// whatever override was in force before (also when `f` panics). Scopes
/// on different threads exclude each other through one process-wide lock,
/// so two width comparisons in one test binary cannot overwrite each
/// other's pin mid-run; a scope opened inside another on the same thread
/// nests under the lock its thread already holds.
pub fn with_worker_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    static SCOPE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    thread_local!(static NESTED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) });
    struct Restore(usize, bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_worker_threads(self.0);
            NESTED.set(self.1);
        }
    }
    let nested = NESTED.replace(true);
    // The lock guards no data, and `Restore` undoes the pin on unwind, so a
    // scope that panicked leaves nothing for the next one to trip over.
    let _lock = (!nested).then(|| SCOPE.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
    let _restore =
        Restore(THREAD_OVERRIDE.swap(threads, std::sync::atomic::Ordering::Relaxed), nested);
    f()
}

/// Worker-pool width for [`run_jobs`] — and shard width for the
/// `MultiGrid` epoch-lockstep executor, which must reuse this resolution
/// rather than re-reading the environment: the [`set_worker_threads`]
/// override if set, else the `POI360_THREADS` environment variable, else
/// `available_parallelism` (min 1 in every case). An unparsable env
/// value warns exactly once per process, however many resolutions run.
pub fn worker_threads() -> usize {
    let pinned = THREAD_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed);
    if pinned > 0 {
        return pinned;
    }
    if let Ok(env) = std::env::var("POI360_THREADS") {
        if let Ok(n) = env.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
        WARN_ONCE.call_once(|| {
            eprintln!("warning: ignoring unparsable POI360_THREADS={env:?}");
        });
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// The persistent worker pool every parallel surface shares: `run_jobs`
/// fan-outs here, and the `MultiGrid` epoch-lockstep executor in
/// `poi360-core`. One set of threads serves both — they spawn on first
/// use and park between dispatches, so neither a bench fan-out nor a
/// per-subframe grid epoch ever pays a thread spawn.
pub fn pool() -> &'static poi360_sim::workers::EpochPool {
    poi360_sim::workers::global()
}

/// Run independent jobs across up to [`worker_threads`] pool workers and
/// return the outputs **in input order**.
///
/// Each worker repeatedly pops a job off a shared stack, runs `f`, and
/// files the result under the job's original index, so the caller sees
/// identical bytes no matter how many threads ran or how the scheduler
/// interleaved them. Jobs are plain data (`Send`); any non-`Send` state
/// (sessions, cells) is constructed inside `f` on the worker thread. A
/// job may itself dispatch onto the pool (e.g. build a sharded
/// `MultiGrid`) — nested dispatches run inline on that worker.
pub fn run_jobs<I: Send, O: Send>(jobs: Vec<I>, f: impl Fn(I) -> O + Sync) -> Vec<O> {
    let width = worker_threads().min(jobs.len()).max(1);
    let jobs = std::sync::Mutex::new(jobs.into_iter().enumerate().collect::<Vec<_>>());
    let results_mutex = std::sync::Mutex::new(Vec::new());
    pool().dispatch(width, |_| loop {
        let job = jobs.lock().expect("job queue poisoned").pop();
        let Some((idx, input)) = job else { break };
        let output = f(input);
        results_mutex.lock().expect("results poisoned").push((idx, output));
    });
    let mut results = results_mutex.into_inner().expect("results poisoned");
    results.sort_by_key(|&(idx, _)| idx);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Deterministic per-session seed from experiment base seed, user index,
/// and repetition number.
pub fn session_seed(base: u64, user_idx: usize, repeat: u64) -> u64 {
    base ^ ((user_idx as u64 + 1) << 24) ^ (repeat.wrapping_mul(0x9E37_79B9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_jobs_preserves_input_order() {
        let jobs: Vec<u64> = (0..64).collect();
        let out = run_jobs(jobs, |k| k * k);
        assert_eq!(out, (0..64).map(|k| k * k).collect::<Vec<_>>());
    }

    #[test]
    fn thread_override_takes_priority() {
        assert_eq!(with_worker_threads(3, worker_threads), 3);
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn run_jobs_handles_empty_and_single() {
        assert!(run_jobs(Vec::<u32>::new(), |k| k).is_empty());
        assert_eq!(run_jobs(vec![7u32], |k| k + 1), vec![8]);
    }

    #[test]
    fn seeds_are_distinct_across_users_and_repeats() {
        let mut seen = std::collections::HashSet::new();
        for user in 0..5 {
            for rep in 0..10 {
                assert!(seen.insert(session_seed(1, user, rep)));
            }
        }
    }
}
