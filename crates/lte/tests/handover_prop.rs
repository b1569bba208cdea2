//! Property-based tests for the hex grid and the A3 handover state
//! machine, on the in-repo `poi360_testkit` harness.

use poi360_lte::grid::{mean_rsrp_dbm, A3Config, A3State, CellId, HexGrid, HoDecision};
use poi360_sim::time::{SimDuration, SimTime};
use poi360_testkit::{prop_assert, prop_assert_eq, prop_check};

/// Under a monotone RSRP crossing — serving falling, one neighbor rising
/// — the A3 machine executes at most one handover and never hands back
/// (no ping-pong): after the roles swap, the new serving link only gets
/// stronger.
#[test]
fn no_ping_pong_under_monotone_crossing() {
    prop_check!(64, |g| {
        let cfg = A3Config {
            hysteresis_db: g.f64_in(0.5, 6.0),
            time_to_trigger: SimDuration::from_millis(g.u64_in(40, 640)),
        };
        // Serving starts above the neighbor and the curves cross once.
        let s0 = g.f64_in(-70.0, -60.0);
        let n0 = s0 - g.f64_in(3.0, 15.0);
        let fall = g.f64_in(0.5, 4.0) / 1_000.0; // dB per ms
        let rise = g.f64_in(0.5, 4.0) / 1_000.0;
        let mut st = A3State::default();
        let mut serving = CellId(0);
        let mut handovers = 0u64;
        // Worst case: a 15 dB gap closing at 1 dB/s crosses at 15 s,
        // then needs up to 6 more seconds to clear hysteresis, plus TTT.
        for ms in 0..25_000u64 {
            let t = ms as f64;
            let (cell0, cell1) = (s0 - fall * t, n0 + rise * t);
            let (s_rsrp, n_rsrp, other) = if serving == CellId(0) {
                (cell0, cell1, CellId(1))
            } else {
                (cell1, cell0, CellId(0))
            };
            // Keep the link in sync so RLF never preempts A3.
            match st.decide(&cfg, SimTime::from_millis(ms), s_rsrp, 20.0, Some((other, n_rsrp))) {
                HoDecision::Stay => {}
                HoDecision::Handover(t) => {
                    handovers += 1;
                    serving = t;
                    st.reset();
                }
                HoDecision::Rlf(_) => {
                    return Err(poi360_testkit::CaseError::fail("unexpected RLF"))
                }
            }
        }
        prop_assert!(handovers <= 1, "monotone crossing produced {handovers} handovers");
        // The crossing is steep and sustained, so the handover must
        // actually have happened.
        prop_assert_eq!(handovers, 1);
        prop_assert_eq!(serving, CellId(1));
        Ok(())
    });
}

/// Driving a straight line across the lattice with pure geometric path
/// loss (no shadowing), the number of handovers + RLFs is bounded by the
/// number of Voronoi boundary crossings along the trajectory.
#[test]
fn handover_count_bounded_by_boundary_crossings() {
    prop_check!(48, |g| {
        let grid = HexGrid::new(g.usize_in(1, 2), g.f64_in(150.0, 600.0));
        let cfg = A3Config::default();
        let extent = grid.extent_m();
        // A chord through the lattice at a random angle and offset.
        let angle = g.f64_in(0.0, std::f64::consts::TAU);
        let (dx, dy) = (angle.cos(), angle.sin());
        let (mut x, mut y) = (
            -extent * dx - dy * g.f64_in(-0.4, 0.4) * extent,
            -extent * dy + dx * g.f64_in(-0.4, 0.4) * extent,
        );
        let speed = g.f64_in(10.0, 40.0) / 1_000.0; // m per ms
        let steps = g.u64_in(5_000, 30_000);

        let mut serving = grid.serving_cell(x, y);
        let mut nearest = serving;
        let mut crossings = 0u64;
        let mut events = 0u64;
        let mut st = A3State::default();
        for ms in 0..steps {
            x += dx * speed;
            y += dy * speed;
            let now_nearest = grid.serving_cell(x, y);
            if now_nearest != nearest {
                crossings += 1;
                nearest = now_nearest;
            }
            // Geometric RSRP only: best other cell by mean path loss.
            let s_rsrp = mean_rsrp_dbm(grid.distance_m(serving, x, y));
            let best = grid
                .cells()
                .filter(|&c| c != serving)
                .map(|c| (c, mean_rsrp_dbm(grid.distance_m(c, x, y))))
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0 .0.cmp(&a.0 .0)));
            match st.decide(&cfg, SimTime::from_millis(ms), s_rsrp, 20.0, best) {
                HoDecision::Stay => {}
                HoDecision::Handover(t) | HoDecision::Rlf(t) => {
                    events += 1;
                    serving = t;
                    st.reset();
                }
            }
        }
        prop_assert!(
            events <= crossings,
            "{events} handovers but only {crossings} boundary crossings"
        );
        Ok(())
    });
}

/// Cell lookup round-trips: the serving cell at a cell's own center is
/// that cell, and for arbitrary points the lookup agrees with a brute
/// force nearest-center scan.
#[test]
fn cell_lookup_round_trip() {
    prop_check!(64, |g| {
        let grid = HexGrid::new(g.usize_in(1, 3), g.f64_in(100.0, 800.0));
        for c in (0..grid.len()).map(CellId) {
            let (x, y) = grid.center_of(c);
            prop_assert_eq!(grid.serving_cell(x, y), c);
        }
        // Random points inside and well outside the lattice.
        let extent = grid.extent_m();
        for _ in 0..32 {
            let x = g.f64_in(-2.0 * extent, 2.0 * extent);
            let y = g.f64_in(-2.0 * extent, 2.0 * extent);
            let got = grid.serving_cell(x, y);
            let best = (0..grid.len())
                .map(CellId)
                .min_by(|&a, &b| {
                    grid.distance_m(a, x, y)
                        .total_cmp(&grid.distance_m(b, x, y))
                        .then(a.0.cmp(&b.0))
                })
                .expect("non-empty grid");
            let (dg, db) = (grid.distance_m(got, x, y), grid.distance_m(best, x, y));
            // Ties on hex edges may resolve either way; distances must match.
            prop_assert!(
                (dg - db).abs() < 1e-9,
                "lookup {got:?} at {dg} vs nearest {best:?} at {db}"
            );
        }
        Ok(())
    });
}
