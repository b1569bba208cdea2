//! Property-based tests over the workspace's core data structures and
//! invariants, spanning crates — on the in-repo `poi360_testkit`
//! harness (64+ seeded cases per property).

use poi360::lte::buffer::PacketLike;
use poi360::lte::tbs;
use poi360::metrics::dist::{percentile, Cdf};
use poi360::net::pipe::{DelayPipe, PipeConfig};
use poi360::net::wireline::{WirelineConfig, WirelineLink};
use poi360::sim::rng::SimRng;
use poi360::sim::time::{SimDuration, SimTime};
use poi360::transport::rtp::{Packetizer, Reassembler};
use poi360::video::compression::{CompressionMode, L_MIN};
use poi360::video::frame::{TileGrid, TilePos};
use poi360_testkit::{prop_assert, prop_assert_eq, prop_assume, prop_check};

/// Compression levels are >= 1 everywhere and exactly 1 at the ROI
/// center, for every mode family and ROI position.
#[test]
fn compression_levels_valid() {
    prop_check!(96, |g| {
        let c = g.f64_in(1.01, 2.5);
        let i = g.u8_in(0, 11);
        let j = g.u8_in(0, 7);
        let protect = g.u8_in(0, 2);
        let grid = TileGrid::POI360;
        let center = TilePos::new(i, j);
        for mode in [
            CompressionMode::geometric(c),
            CompressionMode::protected_geometric(c, protect, protect),
            CompressionMode::two_level(protect, protect, 48.0),
        ] {
            let m = mode.matrix(&grid, center);
            prop_assert!((m.level(center) - L_MIN).abs() < 1e-12);
            for pos in grid.iter() {
                prop_assert!(m.level(pos) >= L_MIN - 1e-12);
            }
        }
        Ok(())
    });
}

/// Recentering a distance-based matrix (a cyclic shift of its levels)
/// equals rebuilding it, for any pair of centers on the same row (no pole
/// clamping involved).
#[test]
fn recenter_matches_rebuild() {
    prop_check!(96, |g| {
        let c = g.f64_in(1.05, 2.0);
        let from = g.u8_in(0, 11);
        let to = g.u8_in(0, 11);
        let row = g.u8_in(0, 7);
        let grid = TileGrid::POI360;
        let mode = CompressionMode::geometric(c);
        let built = mode.matrix(&grid, TilePos::new(to, row));
        let old = mode.matrix(&grid, TilePos::new(from, row));
        let shift = i16::from(to) - i16::from(from);
        for pos in grid.iter() {
            let src_i = (i16::from(pos.i) - shift).rem_euclid(i16::from(grid.cols)) as u8;
            let shifted = old.level(TilePos::new(src_i, pos.j));
            prop_assert!((built.level(pos) - shifted).abs() < 1e-9);
        }
        Ok(())
    });
}

/// Cyclic tile distance is a metric: symmetric, zero iff equal, and
/// respects the triangle inequality.
#[test]
fn tile_distance_is_a_metric() {
    prop_check!(128, |g| {
        let g9 = TileGrid::POI360;
        let pa = TilePos::new(g.u8_in(0, 11), g.u8_in(0, 7));
        let pb = TilePos::new(g.u8_in(0, 11), g.u8_in(0, 7));
        let pc = TilePos::new(g.u8_in(0, 11), g.u8_in(0, 7));
        prop_assert_eq!(g9.distance(pa, pb), g9.distance(pb, pa));
        prop_assert_eq!(g9.distance(pa, pa), 0);
        if pa != pb {
            prop_assert!(g9.distance(pa, pb) > 0);
        }
        prop_assert!(g9.distance(pa, pc) <= g9.distance(pa, pb) + g9.distance(pb, pc));
        Ok(())
    });
}

/// Packetize → deliver (in any loss-free order) → reassemble recovers
/// exactly one frame with the right byte count.
#[test]
fn rtp_roundtrip() {
    prop_check!(128, |g| {
        let payload = g.u32_in(1, 199_999);
        let mut pz = Packetizer::new();
        let mut rs = Reassembler::new(SimDuration::from_secs(10));
        let pkts = pz.packetize(0, payload, SimTime::ZERO);
        let mut completed = None;
        for (k, p) in pkts.iter().enumerate() {
            prop_assert!(completed.is_none());
            completed = rs.on_packet(p, SimTime::from_millis(k as u64));
        }
        let frame = completed.expect("frame completes on final packet");
        let headers = pkts.len() as u32 * poi360::transport::rtp::HEADER_BYTES;
        prop_assert_eq!(frame.bytes, payload + headers);
        prop_assert!(!frame.suffered_loss);
        Ok(())
    });
}

/// Dropping any single packet triggers exactly one NACK for it, and a
/// retransmission completes the frame.
#[test]
fn rtp_single_loss_recovers() {
    prop_check!(64, |g| {
        let payload = g.u32_in(2_500, 49_999);
        let mut pz = Packetizer::new();
        let mut rs = Reassembler::new(SimDuration::from_secs(10));
        // Two frames so a trailing drop is still detected by later seqs.
        let pkts_a = pz.packetize(0, payload, SimTime::ZERO);
        let pkts_b = pz.packetize(1, 2_000, SimTime::from_millis(28));
        let all: Vec<_> = pkts_a.iter().chain(pkts_b.iter()).cloned().collect();
        let drop_idx = g.index(pkts_a.len()); // drop within frame 0
                                              // A loss of the very first packet of a stream is undetectable by
                                              // sequence-gap analysis (nothing earlier was seen) — real WebRTC
                                              // relies on frame timeouts there too. See
                                              // `first_packet_loss_is_undetectable_by_seq_gap` for that case.
        prop_assume!(drop_idx > 0);
        for (k, p) in all.iter().enumerate() {
            if k != drop_idx {
                rs.on_packet(p, SimTime::from_millis(k as u64 + 1));
            }
        }
        let nacks = rs.poll_nacks(SimTime::from_millis(100), SimDuration::from_millis(100));
        prop_assert_eq!(nacks.len(), 1);
        prop_assert_eq!(nacks[0].seq, all[drop_idx].seq);
        let mut retx = all[drop_idx].clone();
        retx.retransmit = true;
        let frame = rs.on_packet(&retx, SimTime::from_millis(200)).expect("completes");
        prop_assert!(frame.suffered_loss);
        prop_assert_eq!(frame.frame_no, 0);
        Ok(())
    });
}

/// Regression (formerly `tests/property_based.proptest-regressions`,
/// payload = 2500 with the *first* packet dropped): a loss of the very
/// first packet of a stream produces no NACK, because sequence-gap
/// analysis has seen nothing earlier than the gap. The frame must not
/// complete, and no spurious NACK may be emitted for any other packet.
#[test]
fn first_packet_loss_is_undetectable_by_seq_gap() {
    let payload = 2_500u32;
    let mut pz = Packetizer::new();
    let mut rs = Reassembler::new(SimDuration::from_secs(10));
    let pkts_a = pz.packetize(0, payload, SimTime::ZERO);
    let pkts_b = pz.packetize(1, 2_000, SimTime::from_millis(28));
    assert!(pkts_a.len() >= 2, "payload 2500 must split across packets");
    let all: Vec<_> = pkts_a.iter().chain(pkts_b.iter()).cloned().collect();
    let mut frame0_completed = false;
    for (k, p) in all.iter().enumerate().skip(1) {
        if let Some(frame) = rs.on_packet(p, SimTime::from_millis(k as u64 + 1)) {
            frame0_completed |= frame.frame_no == 0;
        }
    }
    let nacks = rs.poll_nacks(SimTime::from_millis(100), SimDuration::from_millis(100));
    assert!(
        !nacks.iter().any(|n| n.seq == all[0].seq),
        "seq-gap analysis cannot have detected the first packet of the stream"
    );
    assert!(nacks.is_empty(), "no other packet was lost, got {nacks:?}");
    assert!(!frame0_completed, "frame 0 is missing its first packet");
}

/// `DelayPipe` is a FIFO of stamped arrivals: whatever the send times,
/// jitter, loss and fault state (extra delay rising *and* falling
/// mid-stream), every `poll_into(now)` hands over exactly the items with
/// `arrival <= now`, in send order, each once, and nothing goes
/// unaccounted.
#[test]
fn delay_pipe_is_fifo() {
    prop_check!(96, |g| {
        let cfg = PipeConfig {
            base_delay: SimDuration::from_micros(g.u64_in(0, 80_000)),
            jitter_sigma: if g.chance(0.3) { 0.0 } else { g.f64_in(0.0, 0.6) },
            loss_prob: g.f64_in(0.0, 0.3),
        };
        let mut pipe: DelayPipe<u64> = DelayPipe::new(cfg, g.any_u64());
        let mut delivered = Vec::new();
        let (mut now, mut sent) = (SimTime::ZERO, 0u64);
        for _ in 0..g.usize_in(1, 120) {
            // What the previous poll saw: anything it left behind was not due.
            let (polled_at, polled_sent, handed) = (now, sent, delivered.len());
            // A zero step keeps sends and polls on one instant (ties).
            now += SimDuration::from_micros(g.u64_in(0, 30_000));
            if g.chance(0.2) {
                let loss = if g.chance(0.5) { 0.0 } else { g.f64_in(0.0, 0.5) };
                pipe.set_fault_state(SimDuration::from_micros(g.u64_in(0, 200_000)), loss);
            }
            for _ in 0..g.usize_in(0, 3) {
                pipe.send(sent, now);
                sent += 1;
            }
            pipe.poll_into(now, &mut delivered);
            for &(arrival, id) in &delivered[handed..] {
                prop_assert!(arrival <= now, "item {id} due {arrival:?} handed over at {now:?}");
                let withheld = id < polled_sent && arrival <= polled_at;
                prop_assert!(!withheld, "item {id} due {arrival:?} withheld at {polled_at:?}");
            }
            let accounted = delivered.len() as u64 + pipe.lost() + pipe.in_flight() as u64;
            prop_assert_eq!(pipe.sent(), accounted);
        }
        let handed = delivered.len();
        pipe.poll_into(SimTime::MAX, &mut delivered);
        for &(arrival, id) in &delivered[handed..] {
            prop_assert!(arrival > now, "item {id} due {arrival:?} withheld at {now:?}");
        }
        prop_assert_eq!(delivered.len() as u64 + pipe.lost(), sent);
        for w in delivered.windows(2) {
            prop_assert!(w[0].1 < w[1].1, "out of send order: {} then {}", w[0].1, w[1].1);
            prop_assert!(w[0].0 <= w[1].0, "arrivals decreased: {:?} then {:?}", w[0].0, w[1].0);
        }
        Ok(())
    });
}

/// A wireline packet: its enqueue order and its size on the wire.
struct WirePkt {
    id: u64,
    bytes: u32,
}

impl PacketLike for WirePkt {
    fn wire_bytes(&self) -> u32 {
        self.bytes
    }
}

/// The wireline link is one FIFO transmitter. Under random arrival times
/// (idle gaps and same-instant bursts) and packet sizes, every accepted
/// packet departs no earlier than its enqueue time plus its transmit time,
/// no serialisation starts before the previous one ends, and the departures
/// are the Lindley recursion `d_k = max(d_{k-1}, a_k) + tx_k` over the
/// accepted packets.
#[test]
fn wireline_link_is_a_lindley_queue() {
    prop_check!(96, |g| {
        let rate_bps = g.f64_in(0.5e6, 100.0e6);
        let cfg = WirelineConfig { rate_bps, queue_bytes: g.u64_in(2_000, 400_000) };
        let mut link: WirelineLink<WirePkt> = WirelineLink::new(cfg);
        let tx = |bytes: u32| SimDuration::from_secs_f64(bytes as f64 * 8.0 / rate_bps);
        // (enqueue time, transmit time) of each accepted packet, by id.
        let mut accepted: Vec<(SimTime, SimDuration)> = Vec::new();
        let mut departed: Vec<(SimTime, u64)> = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..g.usize_in(1, 200) {
            now += SimDuration::from_micros(if g.chance(0.3) { 0 } else { g.u64_in(1, 20_000) });
            for _ in 0..g.usize_in(0, 4) {
                let bytes = g.u32_in(40, 1_500);
                if link.enqueue(WirePkt { id: accepted.len() as u64, bytes }, now) {
                    accepted.push((now, tx(bytes)));
                }
            }
            for (at, pkt) in link.poll(now) {
                prop_assert!(at <= now, "packet {} handed over at {now:?}, due {at:?}", pkt.id);
                departed.push((at, pkt.id));
            }
        }
        departed.extend(link.poll(SimTime::MAX).into_iter().map(|(at, pkt)| (at, pkt.id)));
        prop_assert_eq!(departed.len(), accepted.len());
        let (mut prev, mut lindley) = (SimTime::ZERO, SimTime::ZERO);
        for (k, &(at, id)) in departed.iter().enumerate() {
            prop_assert_eq!(id, k as u64);
            let (arrival, tx) = accepted[k];
            prop_assert!(at >= arrival + tx, "packet {k} left at {at:?}, enqueued {arrival:?}");
            prop_assert!(at >= prev + tx, "packet {k} started before {prev:?} was sent");
            lindley = lindley.max(arrival) + tx;
            prop_assert_eq!(at, lindley);
            prev = at;
        }
        Ok(())
    });
}

/// The bits a PRB carries are monotone in CQI, so a grant's TBS is
/// monotone in both CQI and PRB count.
#[test]
fn tbs_monotone() {
    prop_check!(128, |g| {
        let cqi = g.u8_in(1, 14);
        prop_assert!(tbs::bits_per_prb(cqi + 1) >= tbs::bits_per_prb(cqi));
        prop_assert!(tbs::bits_per_prb(cqi) > 0.0);
        Ok(())
    });
}

/// An empirical CDF is monotone and bounded to [0,1], and quantiles of
/// the same samples stay within the sample range.
#[test]
fn cdf_properties() {
    prop_check!(64, |g| {
        let samples = g.vec_f64(1, 300, -1e6, 1e6);
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let cdf = Cdf::new(samples.clone());
        let mut prev = 0.0;
        for k in 0..=20 {
            let x = lo + (hi - lo) * k as f64 / 20.0;
            let v = cdf.at(x);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= prev - 1e-12);
            prev = v;
        }
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let quantile = percentile(&samples, q).expect("non-empty");
            prop_assert!(quantile >= lo - 1e-9 && quantile <= hi + 1e-9);
        }
        Ok(())
    });
}

/// Named RNG streams never collide for distinct names (spot check over
/// arbitrary name pairs).
#[test]
fn rng_streams_decorrelate() {
    prop_check!(64, |g| {
        let seed = g.any_u64();
        let a = g.lowercase(1, 12);
        let b = g.lowercase(1, 12);
        prop_assume!(a != b);
        let mut ra = SimRng::stream(seed, &a);
        let mut rb = SimRng::stream(seed, &b);
        let matches = (0..32).filter(|_| ra.next_u64() == rb.next_u64()).count();
        prop_assert!(matches <= 1);
        Ok(())
    });
}

/// Handover migration at an epoch barrier never loses or invents a
/// packet: for arbitrary seeds and shard widths, a handover-heavy grid
/// run (tight lattice, fast convoy — flows *will* migrate, carrying
/// their firmware buffers between cells) preserves
/// `enqueued == delivered + flushed + queued_at_end` for every flow,
/// and the load-UE conservation check inside the driver never trips.
#[test]
fn grid_migration_preserves_packet_conservation() {
    use poi360::core::multicell::{FlowSpec, MultiGrid, MultiGridConfig};
    prop_check!(6, |g| {
        let seed = g.u64_in(1, 1 << 40);
        let shards = g.usize_in(1, 8);
        let report = MultiGrid::new(MultiGridConfig {
            flows: vec![FlowSpec::default(); 2],
            load_ues: 8,
            static_bg_per_cell: 2,
            isd_m: 150.0,
            speed_mps: 35.0,
            duration: SimDuration::from_secs(4),
            seed,
            shards,
            ..Default::default()
        })
        .run();
        let migrated = report.flow_stats.iter().any(|f| f.handovers + f.rlfs > 0)
            || report.load_handovers + report.load_rlfs > 0;
        prop_assert!(migrated, "scenario too tame: no migration exercised");
        for f in &report.flow_stats {
            prop_assert!(
                f.conserved(),
                "flow {}: enqueued {} != delivered {} + flushed {} + queued {}",
                f.label,
                f.enqueued,
                f.delivered,
                f.flushed,
                f.queued_at_end
            );
        }
        prop_assert_eq!(report.load_conservation_violations, 0);
        Ok(())
    });
}
