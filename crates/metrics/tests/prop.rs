//! Property-based tests for the metrics crate, on the in-repo
//! `poi360_testkit` harness (64+ seeded cases per property).

use poi360_metrics::dist::{percentile, quantile_sorted, quantiles, sort_samples, Summary};
use poi360_metrics::freeze::FreezeStats;
use poi360_metrics::mos::{Mos, MosPdf};
use poi360_sim::time::SimDuration;
use poi360_testkit::{prop_assert, prop_assert_eq, prop_check};

/// Summary statistics are internally consistent.
#[test]
fn summary_consistent() {
    prop_check!(64, |g| {
        let values = g.vec_f64(1, 200, -1e4, 1e4);
        let s = Summary::of(&values);
        prop_assert_eq!(s.n, values.len());
        prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.std >= 0.0);
        // std is bounded by the half-range.
        prop_assert!(s.std <= (s.max - s.min) / 2.0 + 1e-9);
        Ok(())
    });
}

/// Percentiles are monotone in q and bounded by the extremes.
#[test]
fn percentiles_monotone() {
    prop_check!(64, |g| {
        let values = g.vec_f64(1, 200, -1e4, 1e4);
        let mut last = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let p = percentile(&values, q).expect("non-empty");
            prop_assert!(p >= last - 1e-12);
            last = p;
        }
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(percentile(&values, 0.0).unwrap(), lo);
        prop_assert_eq!(percentile(&values, 1.0).unwrap(), hi);
        Ok(())
    });
}

/// Selection quantiles are the sort-then-read quantiles, `to_bits`-equal:
/// over duplicates, signed zeros in any input order (a stable sort keeps
/// them in it), NaN (no rank), infinities, and at one and two samples.
#[test]
fn selection_quantiles_match_the_sorted_read() {
    const SPECIAL: [f64; 7] = [0.0, -0.0, 1.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    prop_check!(256, |g| {
        let max_len = if g.chance(0.5) { 2 } else { 40 };
        let values = g.vec_of(1, max_len, |g| {
            if g.chance(0.7) {
                SPECIAL[g.index(SPECIAL.len())]
            } else {
                g.f64_in(-2.0, 2.0)
            }
        });
        let qs = [0.0, 0.5, 0.95, 0.99, 1.0, g.f64_in(0.0, 1.0)];
        let mut sorted = values.clone();
        sort_samples(&mut sorted);
        let want = qs.map(|q| quantile_sorted(&sorted, q).map(f64::to_bits));
        let got = quantiles(&values, qs).map(|got| got.map(f64::to_bits));
        let got = got.map_or([None; 6], |got| got.map(Some));
        prop_assert!(got == want, "{values:?}: selection {got:?}, sort {want:?}");
        prop_assert_eq!(percentile(&values, qs[5]).map(f64::to_bits), want[5]);
        Ok(())
    });
}

/// Every PSNR lands in exactly one MOS band, and the PDF sums to 1.
#[test]
fn mos_partition() {
    prop_check!(64, |g| {
        let psnrs = g.vec_f64(1, 300, 0.0, 60.0);
        let pdf = MosPdf::from_psnrs(psnrs.iter().copied());
        prop_assert_eq!(pdf.total() as usize, psnrs.len());
        let total: f64 = pdf.pdf().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Band boundaries are ordered.
        for &p in &psnrs {
            let band = Mos::from_psnr(p);
            if p > 37.0 {
                prop_assert_eq!(band, Mos::Excellent);
            }
            if p <= 20.0 {
                prop_assert_eq!(band, Mos::Bad);
            }
        }
        Ok(())
    });
}

/// Freeze ratio is a valid probability and counts exactly the >600 ms
/// frames plus losses.
#[test]
fn freeze_ratio_counts() {
    prop_check!(64, |g| {
        let delays = g.vec_u64(1, 200, 1, 2_999);
        let lost = g.u64_in(0, 19);
        let mut s = FreezeStats::new();
        for &d in &delays {
            s.record(SimDuration::from_millis(d));
        }
        for _ in 0..lost {
            s.record_lost();
        }
        let ratio = s.freeze_ratio().expect("non-empty");
        prop_assert!((0.0..=1.0).contains(&ratio));
        let frozen = delays.iter().filter(|&&d| d > 600).count() as u64 + lost;
        let expect = frozen as f64 / (delays.len() as u64 + lost) as f64;
        prop_assert!((ratio - expect).abs() < 1e-12);
        Ok(())
    });
}
