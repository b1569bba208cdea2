//! Property tests for the OCC controller (ISSUE 9 satellites): rate
//! bounds under arbitrary diag streams, grant-monotone response, and
//! post-outage recovery against the fault suite's trough-progress bound.

use std::sync::{Arc, Mutex};

use poi360_core::occ::{Occ, OccConfig, HEADROOM, MAX_RATE_BPS, MIN_RATE_BPS, RTP_MULTIPLE};
use poi360_lte::diag::{DiagReport, DiagSample};
use poi360_sim::time::SimTime;
use poi360_sim::trace::{lock, Recorder, TraceRecord, TraceSink};
use poi360_testkit::{prop_assert, prop_check};

fn report(start_ms: u64, buffers: &[u64], tbs: u32) -> DiagReport {
    DiagReport {
        delivered_at: SimTime::from_millis(start_ms + buffers.len() as u64),
        samples: buffers
            .iter()
            .enumerate()
            .map(|(k, &b)| DiagSample {
                at: SimTime::from_millis(start_ms + k as u64),
                buffer_bytes: b,
                tbs_bits: tbs,
            })
            .collect(),
    }
}

/// The capacity estimate `Ĉ` as the controller publishes it: its
/// `occ.capacity_bps` event closes every non-empty report, stalled or not.
struct LastCapacity(f64);

impl TraceSink for LastCapacity {
    fn record(&mut self, _src: &str, rec: &TraceRecord) {
        if rec.name == "occ.capacity_bps" {
            self.0 = rec.value;
        }
    }
}

/// A controller whose published `Ĉ` the returned cell holds.
fn watched(start_rate_bps: f64) -> (Occ, Arc<Mutex<LastCapacity>>) {
    let cap = Arc::new(Mutex::new(LastCapacity(f64::NAN)));
    let mut occ = Occ::new(start_rate_bps, OccConfig::default());
    occ.set_recorder(&Recorder::to_sink(cap.clone(), "session"));
    (occ, cap)
}

/// Under completely arbitrary diag batches — any mix of idle, busy,
/// frozen, and outage epochs — the capacity estimate stays inside its
/// clamp range, the requested rates never leave the configured envelope,
/// and the pacer multiple holds exactly.
#[test]
fn rates_stay_bounded_under_arbitrary_diag_streams() {
    prop_check!("occ_bounds", 96, |g| {
        let (mut occ, published) = watched(g.f64_in(1e4, 1e8));
        let epochs = g.usize_in(1, 120);
        for epoch in 0..epochs {
            let buffers = g.vec_u64(1, 60, 0, 200_000);
            let tbs = g.u32_in(0, 60_000);
            occ.on_diag(
                &report(epoch as u64 * 40, &buffers, tbs),
                SimTime::from_millis(epoch as u64 * 40 + 40),
            );
            let video = occ.video_rate_bps();
            prop_assert!(
                (MIN_RATE_BPS..=MAX_RATE_BPS).contains(&video),
                "video rate {video} outside [{MIN_RATE_BPS}, {MAX_RATE_BPS}]"
            );
            prop_assert!(
                (occ.rtp_rate_bps() - RTP_MULTIPLE * video).abs() < 1e-6,
                "pacer multiple drifted"
            );
            let cap = lock(&published).0;
            prop_assert!(
                (MIN_RATE_BPS / HEADROOM - 1e-6..=MAX_RATE_BPS + 1e-6).contains(&cap),
                "capacity {cap} left its clamp range"
            );
        }
        Ok(())
    });
}

/// Feeding the same buffer trajectory with per-epoch grants that are
/// everywhere at least as large must never produce a smaller capacity
/// estimate or video rate: the EWMA, the probe, and the clamp are all
/// monotone in the granted TBS.
///
/// Scoped to live streams: every generated report carries at least two
/// distinct buffer values, so the frozen-pair predicate (which reacts to
/// the *absence* of information, not its magnitude) never fires — a
/// stall hold on one stream but not the other is the one deliberate
/// non-monotonicity in the controller.
#[test]
fn response_is_monotone_in_the_granted_tbs() {
    prop_check!("occ_monotone", 96, |g| {
        let start = g.f64_in(1e5, 1e7);
        let (mut lo, lo_cap) = watched(start);
        let (mut hi, hi_cap) = watched(start);
        let epochs = g.usize_in(1, 80);
        for epoch in 0..epochs {
            let mut buffers = g.vec_u64(2, 60, 0, 150_000);
            if buffers.iter().all(|&b| b == buffers[0]) {
                // Force two distinct values so neither stream can ever
                // look like a frozen diag read.
                let last = buffers.len() - 1;
                buffers[last] = buffers[0] + 1;
            }
            let tbs = g.u32_in(0, 40_000);
            let extra = g.u32_in(0, 20_000);
            let at = SimTime::from_millis(epoch as u64 * 40 + 40);
            lo.on_diag(&report(epoch as u64 * 40, &buffers, tbs), at);
            hi.on_diag(&report(epoch as u64 * 40, &buffers, tbs + extra), at);
            let (lo_c, hi_c) = (lock(&lo_cap).0, lock(&hi_cap).0);
            prop_assert!(
                hi_c >= lo_c - 1e-9,
                "epoch {epoch}: capacity not monotone ({hi_c} < {lo_c})"
            );
            prop_assert!(
                hi.video_rate_bps() >= lo.video_rate_bps() - 1e-9,
                "epoch {epoch}: video rate not monotone"
            );
        }
        Ok(())
    });
}

/// Warm-up, a full outage (zero grants, swelling backlog), then clean
/// recovery epochs: the post-outage rate must clear the fault suite's
/// full-scale trough-progress bound (post >= 1.2x trough) and return to
/// at least 90% of the pre-fault rate — the controller may not latch
/// onto the outage floor.
#[test]
fn post_outage_rate_clears_the_trough_progress_bound() {
    prop_check!("occ_recovery", 48, |g| {
        let tbs = g.u32_in(2_000, 8_000);
        let busy: Vec<u64> = (0..40).map(|k| 8_000 + (k % 3) * 400 + g.u64_in(0, 50)).collect();
        let mut occ = Occ::new(1e6, OccConfig::default());
        for epoch in 0..150u64 {
            occ.on_diag(&report(epoch * 40, &busy, tbs), SimTime::from_millis(epoch * 40 + 40));
        }
        let pre = occ.video_rate_bps();

        let outage_epochs = g.u64_in(5, 50);
        let mut trough = pre;
        for k in 0..outage_epochs {
            let swollen: Vec<u64> = (0..40).map(|j| 80_000 + k * 1_000 + j).collect();
            let start = (150 + k) * 40;
            occ.on_diag(&report(start, &swollen, 0), SimTime::from_millis(start + 40));
            trough = trough.min(occ.video_rate_bps());
        }
        prop_assert!(trough < pre, "an outage must depress the rate");

        for k in 0..150u64 {
            let start = (150 + outage_epochs + k) * 40;
            occ.on_diag(&report(start, &busy, tbs), SimTime::from_millis(start + 40));
        }
        let post = occ.video_rate_bps();
        prop_assert!(
            post >= 1.2 * trough,
            "post {post} under the trough-progress bound (trough {trough})"
        );
        prop_assert!(post >= 0.9 * pre, "post {post} never re-approached pre {pre}");
        Ok(())
    });
}
