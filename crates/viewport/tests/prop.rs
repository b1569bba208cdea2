//! Property-based tests for the viewport substrate, on the in-repo
//! `poi360_testkit` harness (64+ seeded cases per property).

use poi360_sim::time::SimDuration;
use poi360_testkit::{prop_assert, prop_assert_eq, prop_check};
use poi360_video::frame::TileGrid;
use poi360_viewport::motion::{HeadMotion, MotionConfig, UserArchetype, PITCH_LIMIT};
use poi360_viewport::predictor::LinearPredictor;

fn archetype(idx: usize) -> UserArchetype {
    UserArchetype::all()[idx % 5]
}

/// Head state is always physical: yaw in [0,360), pitch within limits,
/// for any archetype, seed, and step pattern.
#[test]
fn head_state_always_physical() {
    prop_check!(64, |g| {
        let arch = g.usize_in(0, 4);
        let seed = g.any_u64();
        let steps = g.vec_u64(1, 200, 1, 99);
        let mut head = HeadMotion::new(archetype(arch), MotionConfig::default(), seed);
        for ms in steps {
            head.step(SimDuration::from_millis(ms));
            prop_assert!((0.0..360.0).contains(&head.yaw()), "yaw {}", head.yaw());
            prop_assert!(head.pitch().abs() <= PITCH_LIMIT + 1e-9, "pitch {}", head.pitch());
        }
        Ok(())
    });
}

/// The derived ROI always lies on the grid.
#[test]
fn roi_always_on_grid() {
    prop_check!(64, |g| {
        let arch = g.usize_in(0, 4);
        let seed = g.any_u64();
        let grid = TileGrid::POI360;
        let mut head = HeadMotion::new(archetype(arch), MotionConfig::default(), seed);
        for _ in 0..500 {
            head.step(SimDuration::from_millis(10));
            let roi = head.roi(&grid);
            prop_assert!(roi.center.i < grid.cols);
            prop_assert!(roi.center.j < grid.rows);
        }
        Ok(())
    });
}

/// The predictor's output is always a valid gaze direction.
#[test]
fn predictions_valid() {
    prop_check!(64, |g| {
        let observations = g.vec_of(2, 50, |g| (g.f64_in(-720.0, 720.0), g.f64_in(-90.0, 90.0)));
        let mut pred = LinearPredictor::default();
        for (yaw, pitch) in observations {
            pred.observe(yaw.rem_euclid(360.0), pitch, 0.01);
        }
        for horizon in [0.05, 0.12, 0.46, 2.0] {
            let (yaw, pitch) = pred.predict(horizon).expect("observed");
            prop_assert!((0.0..360.0).contains(&yaw));
            prop_assert!((-90.0..=90.0).contains(&pitch));
        }
        Ok(())
    });
}

/// Motion is exactly reproducible from a seed.
#[test]
fn motion_reproducible() {
    prop_check!(64, |g| {
        let arch = g.usize_in(0, 4);
        let seed = g.any_u64();
        let run = || {
            let mut h = HeadMotion::new(archetype(arch), MotionConfig::default(), seed);
            (0..100)
                .map(|_| {
                    h.step(SimDuration::from_millis(10));
                    (h.yaw(), h.pitch())
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
        Ok(())
    });
}
