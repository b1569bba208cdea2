//! Shared experiment plumbing: the figure scale ([`ExpConfig`]), the
//! session seed law ([`session_seed`]) and the one fan-out. Every batch in
//! the crate — a condition's sessions, shared-cell ensembles, the fault
//! matrices — funnels through [`run_jobs`], which borrows workers from
//! the process-wide persistent epoch pool (`sim::workers::global`, shared
//! with the `MultiGrid` sharded executor and the JSONL ingest; its
//! threads spawn on first use and park between dispatches) at the width
//! `sim::workers` resolves — a [`set_worker_threads`] override or the
//! `POI360_THREADS` env var, else `available_parallelism`
//! ([`with_worker_threads`] pins it for one closure); the three width
//! functions are re-exported here.
//! Results always come back in input order, so parallelism never perturbs
//! output bytes.

use poi360_sim::time::SimDuration;
use poi360_sim::trace::lock;
pub use poi360_sim::workers::{set_worker_threads, with_worker_threads, worker_threads};
use std::sync::{Mutex, PoisonError};

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

/// Run independent jobs across up to [`worker_threads`] pool workers and
/// return the outputs **in input order**.
///
/// Each worker repeatedly pops a job off a shared stack, runs `f`, and
/// files the result under the job's original index, so the caller sees
/// identical bytes no matter how many threads ran or how the scheduler
/// interleaved them. Jobs are plain data (`Send`); any non-`Send` state
/// (sessions, cells) is constructed inside `f` on the worker thread. A
/// job may itself dispatch onto the pool (e.g. build a sharded
/// `MultiGrid`) — nested dispatches run inline on that worker. Both locks
/// tolerate poison (`trace::lock`): a job that panics reaches the caller
/// through the pool's own propagation, not as every other worker's panic.
pub fn run_jobs<I: Send, O: Send>(jobs: Vec<I>, f: impl Fn(I) -> O + Sync) -> Vec<O> {
    let width = worker_threads().min(jobs.len()).max(1);
    let jobs = Mutex::new(jobs.into_iter().enumerate().collect::<Vec<_>>());
    let results_mutex = Mutex::new(Vec::new());
    poi360_sim::workers::global().dispatch(width, |_| loop {
        let job = lock(&jobs).pop();
        let Some((idx, input)) = job else { break };
        let output = f(input);
        lock(&results_mutex).push((idx, output));
    });
    let mut results = results_mutex.into_inner().unwrap_or_else(PoisonError::into_inner);
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
