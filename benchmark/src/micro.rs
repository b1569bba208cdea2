//! Timing loop of the per-layer micro-drivers: a layer's public call on
//! warmed state, repeated in batches, reported as the median cost per call.

use crate::alloc;
use crate::stats::median;
use std::time::{Duration, Instant};

/// Batches per metric.
pub const BATCHES: usize = 11;
/// Target length of one batch. The span pass covers some seventy drivers
/// and must end well inside the runner's per-run limit, hence 10 ms.
pub const BATCH: Duration = Duration::from_millis(10);

/// Nanoseconds per call of `f`, one sample per batch. Sizing the batch
/// doubles as the warm-up.
fn batch_ns_per_call(mut f: impl FnMut()) -> Vec<f64> {
    let mut calls = 1u64;
    let per_batch = loop {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        let took = start.elapsed();
        if took >= BATCH / 4 {
            break ((calls as f64 * BATCH.as_secs_f64() / took.as_secs_f64()) as u64).max(1);
        }
        calls *= 4;
    };
    (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect()
}

/// Median nanoseconds per call of `f`.
pub fn ns_per_call(f: impl FnMut()) -> f64 {
    median(&batch_ns_per_call(f))
}

/// Exact allocations per call over `calls` calls, all threads counted.
pub fn allocs_per_call(calls: u64, mut f: impl FnMut()) -> f64 {
    let before = alloc::alloc_count();
    for _ in 0..calls {
        f();
    }
    (alloc::alloc_count() - before) as f64 / calls as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_sized_to_the_target_and_grow_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 1u64;
                for _ in 0..n {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                }
            }
        };
        let samples = batch_ns_per_call(spin(1_000));
        assert_eq!(samples.len(), BATCHES);
        let (short, long) = (median(&samples), ns_per_call(spin(10_000)));
        assert!(long > 4.0 * short, "10x the work must cost more: {short} vs {long}");
    }

    #[test]
    fn allocation_counts_are_per_call() {
        // Other tests allocate concurrently, so this is a floor.
        let per_call = allocs_per_call(100, || drop(std::hint::black_box(vec![0u8; 64])));
        assert!(per_call >= 1.0, "{per_call}");
    }
}
