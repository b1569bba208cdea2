//! The host-speed reference: a fixed piece of work, timed beside every
//! repetition, that the time-based end-to-end metrics are divided by.
//!
//! The reference host does not hold a speed. It flips between two levels
//! about 1.4x apart many times a second, and the share of time it spends
//! at each drifts by tens of percent over minutes (README, "The reference
//! host"): `trace_read` has read 239 and 321 sim-s/s a quarter of an hour
//! apart on one binary. No bound the runner allows survives that, and no
//! statistic of a run averages it out. This kernel, run on as many threads
//! as the pool is wide, tracks those level shifts (correlation 0.9 with a
//! run's median repetition time across one); dividing by it turns "per wall
//! second" into "per second of a host at its nominal speed". Between shifts
//! it neither helps nor hurts.

use std::time::Instant;

/// What one sample takes on the reference host at its fast level. Only a
/// scale: it makes normalised numbers read like wall-clock ones there.
pub const NOMINAL_S: f64 = 0.010;

/// 4 MiB per thread: past the private caches, within the shared one, like
/// the simulator's own working sets.
const BUFFER_WORDS: usize = 1 << 19;
/// Passes over the buffer; sized for [`NOMINAL_S`].
const PASSES: u64 = 10;

/// Seconds one thread takes for the fixed work: a dependent multiply-add
/// chain that reads and rewrites the buffer.
fn kernel_s() -> f64 {
    let mut buf = vec![1u64; BUFFER_WORDS];
    let mut x = 1u64;
    let start = Instant::now();
    for pass in 0..PASSES {
        for word in buf.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(*word ^ pass);
            *word = x;
        }
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

/// One sample: the kernel on `width` threads at once, the slowest one's
/// seconds (each thread times itself, so spawning is not in the number).
pub fn sample_s(width: usize) -> f64 {
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..width.max(1)).map(|_| s.spawn(kernel_s)).collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("the reference kernel cannot panic"))
            .fold(0.0, f64::max)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_times_fixed_work() {
        let (one, two) = (sample_s(1), sample_s(2));
        assert!(one > 0.0 && two > 0.0);
        // Unoptimised test builds are slower than NOMINAL_S, never 50x faster.
        assert!(one > NOMINAL_S / 50.0, "{one}");
    }
}
