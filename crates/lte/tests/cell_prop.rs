//! Property-based tests for the shared multi-UE cell scheduler.
//!
//! PRB conservation, an invariant the PF allocator must hold under *any*
//! mix of UEs: grants never exceed cell capacity in any subframe. (Work
//! conservation against the standalone grant model's closed-form
//! saturation is a unit test of `cell`, beside that crate-private
//! oracle.) A second test pins the crowded regime (hundreds of
//! candidates per allocation round) byte for byte, which no golden covers,
//! and a third counts how little of it event-driven parking can skip and
//! how few looks at a background channel the walk that remains takes.

use poi360_lte::buffer::PacketLike;
use poi360_lte::cell::{Cell, CellConfig, UeId};
use poi360_lte::channel::ChannelConfig;
use poi360_sim::fault::{FaultKind, FaultPlan};
use poi360_sim::time::{SimDuration, SimTime};
use poi360_sim::SUBFRAME;
use poi360_testkit::{prop_assert, prop_check};

#[derive(Debug)]
struct Pkt(u32);
impl PacketLike for Pkt {
    fn wire_bytes(&self) -> u32 {
        self.0
    }
}

/// PRB conservation: whatever the cell size, per-UE cap, channel mix, and
/// population, the sum of grants in a subframe never exceeds capacity,
/// and no foreground UE ever exceeds its per-UE cap.
#[test]
fn prb_allocation_conserves_capacity() {
    prop_check!(48, |g| {
        let total_prbs = g.u32_in(8, 50);
        let cfg = CellConfig {
            total_prbs,
            max_prbs_per_ue: g.u32_in(1, total_prbs),
            bsr_delay_subframes: g.usize_in(1, 10),
            harq_fail_prob: g.f64_in(0.0, 0.3),
            ..Default::default()
        };
        let mut cell = Cell::new(cfg, g.any_u64());
        let fg_count = g.usize_in(1, 3);
        for k in 0..fg_count {
            let ch = ChannelConfig {
                rss_dbm: g.f64_in(-105.0, -70.0),
                speed_mph: g.f64_in(0.0, 30.0),
                ..Default::default()
            };
            cell.attach_foreground(&format!("fg.{k}"), ch);
        }
        cell.attach_background_population(g.usize_in(0, 10));

        let top_up = g.u64_in(2_000, 60_000);
        let mut now = SimTime::ZERO;
        for _ in 0..300 {
            for k in 0..fg_count {
                while cell.buffer_level(UeId(k)) < top_up {
                    cell.enqueue(UeId(k), Pkt(1_200), now);
                }
            }
            let out = cell.subframe(now);
            prop_assert!(
                out.prbs_granted <= cfg.total_prbs,
                "granted {} of {} PRBs",
                out.prbs_granted,
                cfg.total_prbs
            );
            let fg_sum: u32 = out.prbs_per_ue.iter().sum();
            prop_assert!(fg_sum <= out.prbs_granted, "fg {} > total {}", fg_sum, out.prbs_granted);
            for (k, &p) in out.prbs_per_ue.iter().enumerate() {
                prop_assert!(p <= cfg.max_prbs_per_ue, "UE {k} got {p} PRBs over cap");
            }
            now += SUBFRAME;
        }
        Ok(())
    });
}

/// The crowded population of the pin below: 4 foreground UEs at four
/// signal tiers, 496 background UEs.
fn crowded_cell() -> Cell<Pkt> {
    let mut cell = Cell::new(CellConfig::default(), 360);
    for k in 0..4 {
        let ch = ChannelConfig { rss_dbm: -73.0 - 6.0 * k as f64, ..Default::default() };
        cell.attach_foreground(&format!("fg.{k}"), ch);
    }
    cell.attach_background_population(496);
    cell
}

/// A saturated cell has next to nobody to park. Every source starts OFF,
/// so the whole population parks at t = 0; but a burst lands in a cell
/// that serves ~70 kbps a head against ~350 kbps offered, and only the
/// few UEs whose bursts are short and whose OFF dwells are long ever drain
/// again. Measured for this seed: from 20 s on, 96.6 % of the background
/// UE-subframes are walked (about 17 of 496 UEs parked at any instant) —
/// the crowded workload is the one parking must not be able to slow.
#[test]
fn saturated_cell_parks_next_to_nobody_after_warm_up() {
    let mut cell = crowded_cell();
    let mut now = SimTime::ZERO;
    let (warm_up, window) = (20_000u64, 10_000u64);
    let (mut walked_at_warm_up, mut looks_at_warm_up) = (0, 0);
    for sf in 0..warm_up + window {
        if sf == warm_up {
            walked_at_warm_up = cell.background_steps();
            looks_at_warm_up = cell.background_channel_samples();
        }
        for k in 0..4 {
            while cell.buffer_level(UeId(k)) < 30_000 {
                cell.enqueue(UeId(k), Pkt(1_200), now);
            }
        }
        let out = cell.subframe(now);
        cell.recycle(out);
        now += SUBFRAME;
    }
    let walked = cell.background_steps() - walked_at_warm_up;
    let everyone = 496 * window;
    assert!(walked * 100 >= everyone * 95, "walked only {walked} of {everyone} UE-subframes");
    assert!(walked_at_warm_up < 496 * warm_up * 9 / 10, "the cold start parks everyone");
    // What it does get out of the walk (deviation D11): a background
    // channel is looked at once per 10 ms sounding period and once more per
    // wake, not once per UE-subframe. Measured: 479 394 looks for 4 793 791.
    let looks = cell.background_channel_samples() - looks_at_warm_up;
    assert!(looks * 10 <= walked + 10 * 496, "{looks} channel looks for {walked} UE-subframes");
    assert!(looks * 10 + 9 * 496 >= walked, "{looks} channel looks for {walked} UE-subframes");
}

/// Byte pin for the crowded regime: 4 foreground + 496 background UEs,
/// foreground buffers topped up every subframe, one flash crowd and one
/// radio link failure on the way. FNV-1a over every grant-visible output
/// of 3 000 subframes; a scheduler rewrite must leave the constant alone.
/// (Last moved with EXPERIMENTS.md deviation D11: a background channel is
/// looked at every 10 ms and on waking, not every subframe; the constant
/// before it, 0x5a46_7b12_b4b4_1ff9, is what `lte::cell`'s unit test
/// `sounding_every_subframe_is_the_per_subframe_walk_it_replaced` still
/// reproduces with the period forced to 1. Before that, D9: parking.)
#[test]
fn crowded_cell_outputs_are_byte_pinned() {
    let mut cell = crowded_cell();
    cell.set_fault_plan(
        FaultPlan::new()
            .with(
                FaultKind::FlashCrowd { extra_load: 0.6 },
                SimTime::from_millis(1_000),
                SimDuration::from_millis(400),
            )
            .with(
                FaultKind::RadioLinkFailure,
                SimTime::from_millis(2_000),
                SimDuration::from_millis(250),
            ),
    );

    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let mut now = SimTime::ZERO;
    let mut busiest = 0;
    for _ in 0..3_000 {
        for k in 0..4 {
            while cell.buffer_level(UeId(k)) < 30_000 {
                cell.enqueue(UeId(k), Pkt(1_200), now);
            }
        }
        let out = cell.subframe(now);
        for (ue, &prbs) in out.per_ue.iter().zip(&out.prbs_per_ue) {
            fold(ue.tbs_bits as u64);
            fold(prbs as u64);
        }
        fold(out.prbs_granted as u64);
        fold(out.bg_backlog_bytes);
        busiest = busiest.max(out.prbs_granted);
        cell.recycle(out);
        now += SUBFRAME;
    }
    assert_eq!(busiest, 50, "the cell must saturate for the pin to mean anything");
    assert_eq!(hash, 0xe958_3af4_a024_417d, "crowded-cell output digest moved");
}
