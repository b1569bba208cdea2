//! Property-based tests for the LTE substrate, on the in-repo
//! `poi360_testkit` harness (64+ seeded cases per property).

use poi360_lte::buffer::{FirmwareBuffer, PacketLike};
use poi360_lte::scheduler::{PfScheduler, SchedulerConfig};
use poi360_lte::tbs;
use poi360_lte::uplink::{CellUplink, UplinkConfig};
use poi360_sim::time::SimTime;
use poi360_testkit::{prop_assert, prop_assert_eq, prop_check};

#[derive(Debug, Clone, Copy)]
struct Pkt(u32);
impl PacketLike for Pkt {
    fn wire_bytes(&self) -> u32 {
        self.0
    }
}

/// Firmware buffer conserves bytes: level + served == accepted, and
/// serving never fabricates packets.
#[test]
fn buffer_conserves_bytes() {
    prop_check!(64, |g| {
        let sizes = g.vec_u32(1, 100, 1, 4_999);
        let serves = g.vec_u32(1, 100, 0, 9_999);
        let mut buf = FirmwareBuffer::new(u64::MAX >> 1);
        let mut accepted_bytes = 0u64;
        let mut accepted_count = 0u64;
        for &s in &sizes {
            if buf.enqueue(Pkt(s), SimTime::ZERO) {
                accepted_bytes += s as u64;
                accepted_count += 1;
            }
        }
        let mut served = Vec::new();
        for &s in &serves {
            buf.serve_into(s, &mut served);
        }
        let served_pkts = served.len() as u64;
        prop_assert_eq!(buf.level_bytes() + buf.total_served_bytes(), accepted_bytes);
        prop_assert!(served_pkts <= accepted_count);
        Ok(())
    });
}

/// Capacity-limited buffer never exceeds its capacity and reports every
/// rejection.
#[test]
fn buffer_respects_capacity() {
    prop_check!(64, |g| {
        let sizes = g.vec_u32(1, 200, 1, 4_999);
        let cap = 20_000u64;
        let mut buf = FirmwareBuffer::new(cap);
        let mut rejected = 0;
        for &s in &sizes {
            if !buf.enqueue(Pkt(s), SimTime::ZERO) {
                rejected += 1;
            }
            prop_assert!(buf.level_bytes() <= cap);
        }
        prop_assert_eq!(buf.dropped(), rejected);
        Ok(())
    });
}

/// Grants never exceed the physically possible TBS for the share cap,
/// nor meaningfully exceed the reported backlog.
#[test]
fn grants_physically_bounded() {
    prop_check!(128, |g| {
        let backlog = g.u64_in(0, 199_999);
        let cqi = g.u8_in(0, 15);
        let load = g.f64_in(0.0, 1.0);
        let seed = g.any_u64();
        let cfg = SchedulerConfig::default();
        let mut s = PfScheduler::new(cfg, seed);
        let grant = s.grant_bits(backlog, cqi, load);
        // The TBS of the whole share cap: `x as u32` floors.
        let ceiling = (tbs::bits_per_prb(cqi) * cfg.max_prbs as f64) as u32;
        prop_assert!(grant <= ceiling, "grant {grant} > ceiling {ceiling}");
        prop_assert!(grant as u64 <= backlog * 8 + 256);
        Ok(())
    });
}

/// The uplink never loses packets silently: departures + buffered +
/// drops account for every enqueue.
#[test]
fn uplink_accounts_for_every_packet() {
    prop_check!(64, |g| {
        let seed = g.any_u64();
        let offered = g.vec_u32(1, 60, 100, 1_999);
        let mut ul = CellUplink::new(UplinkConfig::default(), seed);
        let mut now = SimTime::ZERO;
        let mut accepted = 0u64;
        for &bytes in &offered {
            if ul.enqueue(Pkt(bytes), now) {
                accepted += 1;
            }
        }
        let mut departed = 0u64;
        for _ in 0..5_000 {
            departed += ul.subframe(now).departed.len() as u64;
            now += poi360_sim::SUBFRAME;
        }
        // 5 s of subframes drains any realistic backlog from this offer.
        prop_assert_eq!(departed, accepted);
        prop_assert_eq!(ul.buffer_level(), 0);
        Ok(())
    });
}

/// TBS reported per subframe is consistent with served bytes.
#[test]
fn tbs_consistent_with_service() {
    prop_check!(64, |g| {
        let mut ul = CellUplink::new(UplinkConfig::default(), g.any_u64());
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            while ul.buffer_level() < 20_000 {
                ul.enqueue(Pkt(1_200), now);
            }
            let out = ul.subframe(now);
            // Served bits cannot exceed the TBS grant plus one packet of
            // segmentation slack.
            let served_bits: u64 =
                out.departed.iter().map(|(p, _)| p.wire_bytes() as u64 * 8).sum();
            prop_assert!(served_bits <= out.tbs_bits as u64 + 1_200 * 8);
            now += poi360_sim::SUBFRAME;
        }
        Ok(())
    });
}
