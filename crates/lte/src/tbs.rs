//! CQI / MCS / transport-block-size tables.
//!
//! Shapes follow 3GPP TS 36.213: the CQI table maps SINR to one of 15
//! modulation-and-coding operating points with spectral efficiencies from
//! 0.1523 to 5.5547 bit/s/Hz; a physical resource block (PRB) carries
//! 12 subcarriers × 14 OFDM symbols per 1 ms subframe, of which ~75 % remain
//! after reference signals and L1/L2 control overhead.
//!
//! Link adaptation is one lookup: [`sinr_to_cqi`] counts the thresholds an
//! SINR clears (the table is monotone, so the count is the index, with no
//! data-dependent branch), and [`smooth_efficiency`] takes that CQI as its
//! interpolation segment instead of searching the same table again.

/// Highest CQI index.
pub const MAX_CQI: u8 = 15;

/// Resource elements usable for data per PRB per subframe
/// (12 subcarriers × 14 symbols × 75 % after overhead).
pub const DATA_RE_PER_PRB: f64 = 12.0 * 14.0 * 0.75;

/// Spectral efficiency (bits per resource element) for each CQI, from the
/// 36.213 CQI table. Index 0 = out of range (no transmission).
const CQI_EFFICIENCY: [f64; 16] = [
    0.0, 0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766, 1.9141, 2.4063, 2.7305, 3.3223,
    3.9023, 4.5234, 5.1152, 5.5547,
];

/// SINR (dB) thresholds at which each CQI becomes usable (10 % BLER
/// operating points, standard link-level fit: CQI ≈ (SINR + 6.7) / 1.9).
const CQI_SINR_THRESHOLDS: [f64; 16] = [
    f64::NEG_INFINITY,
    -6.7,
    -4.8,
    -2.9,
    -1.0,
    0.9,
    2.8,
    4.7,
    6.6,
    8.5,
    10.4,
    12.3,
    14.2,
    16.1,
    18.0,
    19.9,
];

/// Map an SINR to the highest CQI whose threshold it clears. The
/// thresholds rise with the index, so that CQI is the number of finite
/// thresholds cleared: fifteen independent compares, no early exit. NaN
/// clears none and maps to CQI 0.
pub fn sinr_to_cqi(sinr_db: f64) -> u8 {
    CQI_SINR_THRESHOLDS[1..].iter().map(|&thr| (sinr_db >= thr) as u8).sum()
}

/// Spectral efficiency (bits per RE) of a CQI.
pub fn cqi_efficiency(cqi: u8) -> f64 {
    CQI_EFFICIENCY[(cqi as usize).min(15)]
}

/// Data bits one PRB carries in one subframe at the given CQI.
pub fn bits_per_prb(cqi: u8) -> f64 {
    cqi_efficiency(cqi) * DATA_RE_PER_PRB
}

/// Smooth spectral efficiency for an SINR: piecewise-linear interpolation
/// between the CQI operating points. Real link adaptation picks among ~29
/// MCS levels plus power control, so the achievable efficiency is far
/// smoother than the 15-step CQI table; using the raw table makes capacity
/// jump by tens of percent at band edges, which no real scheduler does.
///
/// `cqi` must be [`sinr_to_cqi`]`(sinr_db)`, which every
/// [`crate::channel::ChannelState`] already carries: the CQI *is* the
/// interpolation segment `[threshold(cqi), threshold(cqi + 1))`, so the
/// table is searched once per subframe, not twice.
pub fn smooth_efficiency(cqi: u8, sinr_db: f64) -> f64 {
    debug_assert_eq!(cqi, sinr_to_cqi(sinr_db), "segment of {sinr_db} dB");
    let k = cqi as usize;
    if k == 0 {
        return 0.0;
    }
    if k >= 15 {
        return CQI_EFFICIENCY[15];
    }
    let (lo, hi) = (CQI_SINR_THRESHOLDS[k], CQI_SINR_THRESHOLDS[k + 1]);
    let frac = (sinr_db - lo) / (hi - lo);
    CQI_EFFICIENCY[k] + frac * (CQI_EFFICIENCY[k + 1] - CQI_EFFICIENCY[k])
}

/// `x.ceil() as u32` for `x` in `[0, 2^32 − 1]` and for NaN (0), without
/// `f64::ceil`, which is a soft-float call on the baseline x86-64 target:
/// truncation is the floor there, and one comparison says whether `x`
/// had a fraction to round up.
pub(crate) fn ceil_u32(x: f64) -> u32 {
    let t = x as u32;
    t + u32::from((t as f64) < x)
}

/// The most a grant may carry against a reported backlog (bits): the
/// backlog plus a MAC-header allowance. Granting more would be wasted.
pub fn grant_ceiling_bits(reported_backlog_bytes: u64) -> f64 {
    reported_backlog_bytes as f64 * 8.0 + 256.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lookup as callers compose it.
    fn efficiency(sinr_db: f64) -> f64 {
        smooth_efficiency(sinr_to_cqi(sinr_db), sinr_db)
    }

    /// The 16-step dependent scan `sinr_to_cqi` replaced.
    fn scan_cqi(sinr_db: f64) -> u8 {
        let mut cqi = 0u8;
        for (k, &thr) in CQI_SINR_THRESHOLDS.iter().enumerate() {
            if sinr_db >= thr {
                cqi = k as u8;
            }
        }
        cqi
    }

    /// The early-exit segment search `smooth_efficiency` replaced.
    fn scan_efficiency(sinr_db: f64) -> f64 {
        if sinr_db < CQI_SINR_THRESHOLDS[1] {
            return 0.0;
        }
        if sinr_db >= CQI_SINR_THRESHOLDS[15] {
            return CQI_EFFICIENCY[15];
        }
        for k in 1..15 {
            let (lo, hi) = (CQI_SINR_THRESHOLDS[k], CQI_SINR_THRESHOLDS[k + 1]);
            if sinr_db < hi {
                let frac = (sinr_db - lo) / (hi - lo);
                return CQI_EFFICIENCY[k] + frac * (CQI_EFFICIENCY[k + 1] - CQI_EFFICIENCY[k]);
            }
        }
        CQI_EFFICIENCY[15]
    }

    #[test]
    fn shared_lookup_equals_the_two_scans_it_replaced() {
        let same = |sinr_db: f64| {
            assert_eq!(sinr_to_cqi(sinr_db), scan_cqi(sinr_db), "cqi at {sinr_db}");
            let (new, old) = (efficiency(sinr_db), scan_efficiency(sinr_db));
            assert_eq!(new.to_bits(), old.to_bits(), "efficiency at {sinr_db}: {new} vs {old}");
        };
        for step in 0..=7_000 {
            same(-30.0 + step as f64 * 0.01);
        }
        for &thr in &CQI_SINR_THRESHOLDS[1..] {
            same(thr.next_down());
            same(thr);
            same(thr.next_up());
        }
        same(f64::NEG_INFINITY);
        same(f64::INFINITY);
        // NaN clears no threshold: no CQI, no capacity. (The old segment
        // search fell through every `<` and answered with the top entry.)
        assert_eq!(sinr_to_cqi(f64::NAN), scan_cqi(f64::NAN));
        assert_eq!(sinr_to_cqi(f64::NAN), 0);
        assert_eq!(efficiency(f64::NAN), 0.0);
    }

    #[test]
    fn truncation_is_floor_bit_for_bit() {
        use poi360_testkit::prop::Gen;
        use poi360_testkit::{prop_assert_eq, prop_check};
        // The two identities the grant, TBS, background-source and
        // integerization paths use in place of `f64::floor`:
        // (1) `x as u32 == x.floor() as u32` for every f64;
        // (2) `(x as u64) as f64 == x.floor()`, to the bit, on [+0, 2^53).
        let one = |x: f64| assert_eq!(x as u32, x.floor() as u32, "(1) at {x:e}");
        let two = |x: f64| {
            let (trunc, floor) = ((x as u64) as f64, x.floor());
            assert_eq!(trunc.to_bits(), floor.to_bits(), "(2) at {x:e}: {trunc} vs {floor}");
        };
        let (two_32, two_53) = (2f64.powi(32), 2f64.powi(53));
        let mut edges = vec![0.0, -0.0, f64::MIN_POSITIVE, 0.5, two_32, two_53, two_53.next_down()];
        for n in [1.0, 2.0, 25.0, 50.0, 1_023.0, 4_097.0, two_32 - 1.0, two_32, two_53 - 1.0] {
            edges.extend([n.next_down(), n, n.next_up(), n + 0.5]);
        }
        for &x in &edges {
            one(x);
            one(-x);
            if x < two_53 && x.is_sign_positive() {
                two(x);
            }
        }
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN, f64::MAX, f64::MIN] {
            one(x);
        }
        // -0.0 is where (2) stops: the floor keeps the sign, the round trip
        // through an integer does not. The paths that use (2) never see it.
        assert_eq!(((-0.0f64 as u64) as f64).to_bits(), 0.0f64.to_bits());
        assert_ne!((-0.0f64).floor().to_bits(), 0.0f64.to_bits());
        prop_check!(20_000, |g: &mut Gen| {
            // (1) over every bit pattern: NaNs, infinities, subnormals, all signs.
            let any = f64::from_bits(g.any_u64());
            prop_assert_eq!(any as u32, any.floor() as u32);
            // (2) over every bit pattern of [+0, 2^53), and a dense small range.
            let below = f64::from_bits(g.u64_in(0, two_53.to_bits() - 1));
            let small = g.f64_in(0.0, 600.0);
            for x in [below, small] {
                prop_assert_eq!(((x as u64) as f64).to_bits(), x.floor().to_bits());
            }
            Ok(())
        });
    }

    #[test]
    fn truncation_plus_remainder_is_ceil_bit_for_bit() {
        use poi360_testkit::prop::Gen;
        use poi360_testkit::{prop_assert_eq, prop_check};
        // The identity the claim cap uses in place of `f64::ceil`:
        // `ceil_u32(x) == x.ceil() as u32` on [0, 2^32 - 1] and at NaN.
        let same = |x: f64| assert_eq!(ceil_u32(x), x.ceil() as u32, "at {x:e}");
        let max = u32::MAX as f64;
        let mut edges = vec![0.0, -0.0, f64::MIN_POSITIVE, 5e-324, 0.5, max, f64::NAN];
        for n in [1.0, 2.0, 25.0, 50.0, 100.0, 1_023.0, 4_097.0, 2f64.powi(31), max - 1.0] {
            edges.extend([n.next_down(), n, n.next_up(), n + 0.5]);
        }
        for &x in &edges {
            same(x);
        }
        // Above 2^32 - 1 the true ceiling no longer fits a `u32`: the
        // claim cap never goes there (it is below `max_prbs_per_ue`).
        assert_eq!(max.next_up().ceil() as u32, u32::MAX);
        prop_check!(20_000, |g: &mut Gen| {
            // Every bit pattern of [+0, 2^32 - 1], and a dense PRB-count range.
            let wide = f64::from_bits(g.u64_in(0, max.to_bits()));
            let prbs = g.f64_in(0.0, 110.0);
            for x in [wide, prbs] {
                prop_assert_eq!(ceil_u32(x), x.ceil() as u32);
            }
            Ok(())
        });
    }

    #[test]
    fn cqi_monotone_in_sinr() {
        let mut last = 0;
        for s in -10..30 {
            let cqi = sinr_to_cqi(s as f64);
            assert!(cqi >= last, "sinr {s}: cqi {cqi} < {last}");
            last = cqi;
        }
    }

    #[test]
    fn extremes() {
        assert_eq!(sinr_to_cqi(-20.0), 0);
        assert_eq!(sinr_to_cqi(-6.0), 1);
        assert_eq!(sinr_to_cqi(25.0), 15);
    }

    #[test]
    fn efficiency_monotone() {
        for c in 1..=15u8 {
            assert!(cqi_efficiency(c) > cqi_efficiency(c - 1));
        }
        assert_eq!(cqi_efficiency(0), 0.0);
        assert!((cqi_efficiency(15) - 5.5547).abs() < 1e-9);
    }

    #[test]
    fn one_prb_carries_the_table_efficiency() {
        // CQI 15, 1 PRB ≈ 5.5547 * 126 ≈ 700 bits.
        let one = bits_per_prb(15);
        assert!((one - 699.0).abs() <= 2.0, "one-PRB bits {one}");
    }

    #[test]
    fn smooth_efficiency_interpolates() {
        // Continuous, monotone, and anchored at the CQI operating points.
        let mut last = 0.0;
        for k in 0..400 {
            let sinr = -10.0 + k as f64 * 0.1;
            let e = efficiency(sinr);
            assert!(e >= last - 1e-12, "sinr {sinr}");
            last = e;
        }
        assert_eq!(efficiency(-20.0), 0.0);
        assert!((efficiency(25.0) - 5.5547).abs() < 1e-9);
        // At each threshold the interpolant lands on that CQI's efficiency.
        assert!((efficiency(-4.8) - 0.2344).abs() < 1e-9);
        assert!((efficiency(-2.9) - 0.3770).abs() < 1e-9);
        // Midway between thresholds it sits between the two table values.
        let mid = efficiency(-3.85);
        assert!(mid > 0.2344 && mid < 0.3770, "mid {mid}");
    }

    #[test]
    fn cqi_zero_is_unservable() {
        assert_eq!(bits_per_prb(0), 0.0);
    }

    #[test]
    fn realistic_cell_capacity() {
        // 50-PRB (10 MHz) uplink at CQI 15 ≈ 35 Mbit/s — sanity of the table.
        let mbps = bits_per_prb(15) * 50.0 * 1000.0 / 1e6;
        assert!((30.0..40.0).contains(&mbps), "cell capacity {mbps} Mbps");
    }
}
