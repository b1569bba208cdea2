//! Property-based tests for the transport crate, on the in-repo
//! `poi360_testkit` harness (64+ seeded cases per property).

use poi360_net::packet::{FrameTag, Packet};
use poi360_sim::time::{SimDuration, SimTime};
use poi360_testkit::{prop_assert, prop_assert_eq, prop_assume, prop_check};
use poi360_transport::gcc::{GccReceiver, GccSender};
use poi360_transport::pacer::Pacer;
use poi360_transport::rtp::Packetizer;

/// The pacer conserves packets: everything enqueued is eventually
/// released, in order, and never faster than the configured rate
/// (beyond the burst allowance).
#[test]
fn pacer_conserves_and_limits() {
    prop_check!(64, |g| {
        let rate_kbps = g.u64_in(200, 9_999);
        let sizes = g.vec_u32(1, 100, 100, 1_499);
        let rate = rate_kbps as f64 * 1e3;
        let mut pacer = Pacer::new(rate);
        let total_bytes: u64 = sizes.iter().map(|&b| b as u64).sum();
        for (k, &bytes) in sizes.iter().enumerate() {
            pacer.enqueue(Packet::video(
                k as u64,
                bytes,
                SimTime::ZERO,
                FrameTag { frame_no: 0, index: k as u32, count: sizes.len() as u32 },
            ));
        }
        let mut released: Vec<u64> = Vec::new();
        let mut released_bytes = 0u64;
        let mut now = SimTime::ZERO;
        // Generous horizon: enough ms to drain everything at the rate.
        let horizon_ms = (total_bytes as f64 * 8.0 / rate * 1e3) as u64 + 100;
        for _ in 0..horizon_ms {
            now += SimDuration::from_millis(1);
            for p in pacer.tick(now) {
                released.push(p.seq);
                released_bytes += p.bytes as u64;
            }
            // Rate bound: released bytes never exceed rate*t + burst.
            let budget = rate / 8.0 * now.as_secs_f64() + rate / 8.0 * 0.01 + 2_000.0;
            prop_assert!(released_bytes as f64 <= budget + 1_500.0);
        }
        prop_assert_eq!(released_bytes, total_bytes);
        let expect: Vec<u64> = (0..sizes.len() as u64).collect();
        prop_assert_eq!(released, expect);
        Ok(())
    });
}

/// Packetizer output always reassembles to the input size, for any
/// payload size.
#[test]
fn packetizer_partition() {
    prop_check!(128, |g| {
        let payload = g.u32_in(0, 499_999);
        let mut pz = Packetizer::new();
        let pkts = pz.packetize(9, payload, SimTime::ZERO);
        let total: u32 = pkts.iter().map(|p| p.bytes - poi360_transport::rtp::HEADER_BYTES).sum();
        prop_assert_eq!(total, payload);
        // Tags are a proper partition.
        let count = pkts.len() as u32;
        for (k, p) in pkts.iter().enumerate() {
            let tag = p.frame.unwrap();
            prop_assert_eq!(tag.count, count);
            prop_assert_eq!(tag.index, k as u32);
        }
        Ok(())
    });
}

/// GCC receiver never proposes a rate outside its clamps, whatever the
/// arrival pattern.
#[test]
fn gcc_receiver_rate_clamped() {
    prop_check!(64, |g| {
        let delays = g.vec_u64(10, 120, 10, 499);
        let mut rx = GccReceiver::new(2.0e6);
        for (f, &d) in delays.iter().enumerate() {
            let sent = SimTime::from_millis(f as u64 * 28);
            let arrival = sent + SimDuration::from_millis(d);
            rx.on_packet(
                &Packet::video(
                    f as u64,
                    1_240,
                    sent,
                    FrameTag { frame_no: f as u64, index: 0, count: 1 },
                ),
                arrival,
            );
        }
        if let Some(remb) = rx.poll_remb(SimTime::from_secs(100)) {
            prop_assert!(remb.rate_bps >= 50_000.0);
            prop_assert!(remb.rate_bps <= 30.0e6);
        }
        Ok(())
    });
}

/// The sender-side loss controller is monotone in loss: a lossier
/// report never yields a higher rate than a cleaner one.
#[test]
fn gcc_sender_monotone_in_loss() {
    prop_check!(128, |g| {
        let l1 = g.f64_in(0.0, 0.5);
        let l2 = g.f64_in(0.0, 0.5);
        prop_assume!(l1 < l2);
        let mut clean = GccSender::new(2.0e6);
        let mut lossy = GccSender::new(2.0e6);
        for _ in 0..10 {
            clean.on_receiver_report(l1, SimDuration::from_millis(80));
            lossy.on_receiver_report(l2, SimDuration::from_millis(80));
        }
        prop_assert!(lossy.target_rate_bps() <= clean.target_rate_bps() + 1e-9);
        Ok(())
    });
}

// ---------------------------------------------------------------------
// The reassembler against its scan-everything predecessor
// ---------------------------------------------------------------------

use poi360_sim::rng::SimRng;
use poi360_transport::rtp::{Nack, ReassembledFrame, Reassembler, MAX_NACKS};
use std::collections::BTreeMap;

/// The reassembler as it was before given-up NACK records moved out of
/// the NACK-able map: every poll walks every record, the cap is a poll
/// argument, and abandoning always re-filters the records. Kept verbatim
/// (minus its unit-test hooks, its record struct a tuple) as the oracle for
/// the differential test.
struct ScanAll {
    partial: BTreeMap<u64, (Vec<bool>, u32, SimTime, SimTime, bool)>,
    highest_seq: Option<u64>,
    /// seq -> (frame_no, last_nack, nacks_sent).
    missing: BTreeMap<u64, (u64, Option<SimTime>, u32)>,
    abandon_after: SimDuration,
    completed: u64,
    abandoned: u64,
}

impl ScanAll {
    fn new(abandon_after: SimDuration) -> Self {
        ScanAll {
            partial: BTreeMap::new(),
            highest_seq: None,
            missing: BTreeMap::new(),
            abandon_after,
            completed: 0,
            abandoned: 0,
        }
    }

    fn on_packet(&mut self, pkt: &Packet, arrival: SimTime) -> Option<ReassembledFrame> {
        let tag = pkt.frame.expect("video packet");
        if !pkt.retransmit {
            if let Some(hi) = self.highest_seq {
                if pkt.seq > hi + 1 {
                    for gap_seq in (hi + 1)..pkt.seq {
                        self.missing.entry(gap_seq).or_insert((tag.frame_no, None, 0));
                    }
                }
                self.highest_seq = Some(hi.max(pkt.seq));
            } else {
                self.highest_seq = Some(pkt.seq);
            }
        }
        let was_missing = self.missing.remove(&pkt.seq).is_some();
        let entry = self
            .partial
            .entry(tag.frame_no)
            .or_insert_with(|| (vec![false; tag.count as usize], 0, pkt.sent_at, arrival, false));
        entry.4 |= was_missing || pkt.retransmit;
        if !entry.0[tag.index as usize] {
            entry.0[tag.index as usize] = true;
            entry.1 += pkt.bytes;
        }
        if entry.0.iter().all(|&r| r) {
            let (_, bytes, sent_at, _, suffered_loss) =
                self.partial.remove(&tag.frame_no).expect("entry exists");
            self.completed += 1;
            return Some(ReassembledFrame {
                frame_no: tag.frame_no,
                sent_at,
                completed_at: arrival,
                bytes,
                suffered_loss,
            });
        }
        None
    }

    fn poll_nacks(&mut self, now: SimTime, renack_every: SimDuration, max_nacks: u32) -> Vec<Nack> {
        let mut out = Vec::new();
        for (&seq, (_, last_nack, nacks_sent)) in self.missing.iter_mut() {
            let due = match *last_nack {
                None => true,
                Some(last) => now.saturating_since(last) >= renack_every,
            };
            if due && *nacks_sent < max_nacks {
                *last_nack = Some(now);
                *nacks_sent += 1;
                out.push(Nack { seq });
            }
        }
        out
    }

    fn poll_abandoned(&mut self, now: SimTime) -> Vec<u64> {
        let deadline = self.abandon_after;
        let expired: Vec<u64> = self
            .partial
            .iter()
            .filter(|(_, p)| now.saturating_since(p.3) > deadline)
            .map(|(&no, _)| no)
            .collect();
        for no in &expired {
            self.partial.remove(no);
            self.abandoned += 1;
        }
        self.missing.retain(|_, m| !expired.contains(&m.0));
        expired
    }
}

/// A seeded lossy stream drives the reassembler and [`ScanAll`] side by
/// side; on every 1 ms subframe their NACKs (in order), abandoned frames,
/// completed frames (`suffered_loss` included) and counters must agree.
/// Originals are lost or reordered, and a few arrive twice. A NACKed
/// packet comes back as a retransmission after a round trip unless it is
/// lost again or older than the sender's retransmission history, as in the
/// session; the history limit leaves given-up records behind.
///
/// Both keep one quirk on purpose: a gap is attributed to the frame of
/// the *arriving* packet, so when that frame completes first its gap
/// records outlive it, are NACKed to the cap and are dropped only by the
/// missing packet's arrival or by abandoning the frame they name. The
/// property counts such records in the oracle to show the runs reach
/// them. Attributing gaps to their own frames would move the bytes of
/// every lossy artifact.
#[test]
fn reassembler_matches_the_scan_everything_polls() {
    let mut outlived = 0u64;
    prop_check!(48, |g| {
        let loss = g.f64_in(0.0, 0.3);
        let reorder = g.f64_in(0.0, 0.2);
        // Half the senders keep no history: every NACK goes unanswered.
        let history_ms = if g.chance(0.5) { 0 } else { g.u64_in(0, 1_000) };
        let abandon_after = SimDuration::from_millis(g.u64_in(60, 1_500));
        let renack_every = SimDuration::from_millis(g.u64_in(5, 150));
        let rtt_ms = g.u64_in(10, 250);
        let mut rng = SimRng::from_seed(g.any_u64());

        let mut new = Reassembler::new(abandon_after);
        let mut old = ScanAll::new(abandon_after);
        let mut pz = Packetizer::new();
        let mut sent: BTreeMap<u64, Packet> = BTreeMap::new();
        // (arrival ms, order of scheduling) -> packet.
        let mut inflight: BTreeMap<(u64, u64), Packet> = BTreeMap::new();
        let mut order = 0u64;
        let mut schedule = |inflight: &mut BTreeMap<(u64, u64), Packet>, at: u64, p: Packet| {
            order += 1;
            inflight.insert((at, order), p);
        };
        for ms in 0..3_000u64 {
            let now = SimTime::from_millis(ms);
            if ms % 28 == 0 {
                // A third of the frames fit one packet: a late one of those
                // completes on its own, after the frame its gap named.
                let largest = if rng.chance(0.3) { 1_200 } else { 14_400 };
                let bytes = rng.below(largest) as u32;
                for p in pz.packetize(ms / 28, bytes, now) {
                    sent.insert(p.seq, p.clone());
                    if rng.chance(loss) {
                        continue;
                    }
                    let late = if rng.chance(reorder) { 1 + rng.below(1_500) } else { 0 };
                    if rng.chance(0.01) {
                        schedule(&mut inflight, ms + 20 + late + 7, p.clone());
                    }
                    schedule(&mut inflight, ms + 20 + late, p);
                }
            }
            while let Some(entry) = inflight.first_entry() {
                if entry.key().0 > ms {
                    break;
                }
                let p = entry.remove();
                prop_assert_eq!(new.on_packet(&p, now), old.on_packet(&p, now));
            }
            let nacks = new.poll_nacks(now, renack_every);
            prop_assert_eq!(&nacks, &old.poll_nacks(now, renack_every, MAX_NACKS));
            for nack in nacks {
                let answered = |p: &&Packet| ms <= p.sent_at.as_millis() + history_ms;
                if let Some(p) = sent.get(&nack.seq).filter(answered).filter(|_| !rng.chance(loss))
                {
                    let mut retx = p.clone();
                    retx.retransmit = true;
                    schedule(&mut inflight, ms + rtt_ms, retx);
                }
            }
            prop_assert_eq!(new.poll_abandoned(now), old.poll_abandoned(now));
            prop_assert_eq!((new.completed(), new.abandoned()), (old.completed, old.abandoned));
        }
        outlived += old.missing.values().filter(|m| !old.partial.contains_key(&m.0)).count() as u64;
        Ok(())
    });
    assert!(outlived > 0, "no run left a gap record behind a finished frame");
}

/// A frame completes when its distinct-packet count reaches its packet
/// count, where [`ScanAll`] rescans the received flags with `iter().all()`
/// on every packet. Each frame's packets arrive shuffled, some lost, many
/// more than once: as plain duplicates and as retransmitted copies of
/// packets that already arrived. Every arrival must complete the same frame
/// (or none) in both, so a duplicate counted twice, which would complete its
/// frame early, fails the property. The test checks that duplicates reach
/// frames that are still incomplete.
#[test]
fn received_count_completion_matches_the_flag_scan() {
    let mut into_partial = 0u64;
    prop_check!(64, |g| {
        let dup = g.f64_in(0.1, 0.6);
        let lost = g.f64_in(0.0, 0.1);
        let mut rng = SimRng::from_seed(g.any_u64());
        let abandon_after = SimDuration::from_secs(10);
        let (mut new, mut old) = (Reassembler::new(abandon_after), ScanAll::new(abandon_after));
        let mut pz = Packetizer::new();
        for f in 0..150u64 {
            let now = SimTime::from_millis(f * 28);
            let mut arrivals = Vec::new();
            for p in pz.packetize(f, rng.below(9_600) as u32, now) {
                while rng.chance(dup) {
                    arrivals.push(Packet { retransmit: rng.chance(0.5), ..p.clone() });
                }
                if !rng.chance(lost) {
                    arrivals.push(p);
                }
            }
            for k in (1..arrivals.len()).rev() {
                arrivals.swap(k, rng.below(k as u64 + 1) as usize);
            }
            for p in &arrivals {
                let tag = p.frame.expect("video packet");
                into_partial += old
                    .partial
                    .get(&tag.frame_no)
                    .is_some_and(|(received, ..)| received[tag.index as usize])
                    as u64;
                prop_assert_eq!(new.on_packet(p, now), old.on_packet(p, now));
            }
        }
        prop_assert_eq!(new.completed(), old.completed);
        Ok(())
    });
    assert!(into_partial > 0, "no duplicate reached an incomplete frame");
}
