//! Cross-crate integration tests: whole-session invariants that must hold
//! regardless of calibration.

use poi360::core::config::{CompressionScheme, NetworkKind, RateControlKind, SessionConfig};
use poi360::core::session::Session;
use poi360::lte::scenario::Scenario;
use poi360::sim::time::SimDuration;
use poi360::viewport::motion::UserArchetype;

fn cfg(
    scheme: CompressionScheme,
    rc: RateControlKind,
    network: NetworkKind,
    user: UserArchetype,
    seed: u64,
    secs: u64,
) -> SessionConfig {
    SessionConfig {
        scheme,
        rate_control: rc,
        network,
        user,
        duration: SimDuration::from_secs(secs),
        seed,
        ..Default::default()
    }
}

#[test]
fn session_accounting_is_conserved() {
    let report = Session::new(cfg(
        CompressionScheme::Poi360,
        RateControlKind::Fbcc,
        NetworkKind::Cellular(Scenario::baseline()),
        UserArchetype::Saccadic,
        1,
        20,
    ))
    .run();
    // Every frame is sent exactly once; delivered + lost never exceeds sent
    // (the remainder is in flight at session end).
    assert!(report.frames_delivered + report.frames_lost <= report.frames_sent);
    assert!(report.frames_delivered > report.frames_sent * 8 / 10);
    // One PSNR sample per delivered or lost frame.
    assert_eq!(report.roi_psnr_db.len() as u64, report.frames_delivered + report.frames_lost);
}

#[test]
fn delays_respect_physical_floor() {
    let report = Session::new(cfg(
        CompressionScheme::Poi360,
        RateControlKind::Fbcc,
        NetworkKind::Cellular(Scenario::baseline()),
        UserArchetype::Anchored,
        2,
        20,
    ))
    .run();
    let pipeline_ms = SessionConfig::default().pipeline_delay.as_millis() as f64;
    for &d in report.freeze.delays_ms() {
        assert!(d >= pipeline_ms, "delay {d} below the processing floor");
        assert!(d < 30_000.0, "delay {d} absurd");
    }
}

#[test]
fn psnr_samples_are_physical() {
    for scheme in CompressionScheme::all() {
        let report = Session::new(cfg(
            scheme,
            RateControlKind::Gcc,
            NetworkKind::Cellular(Scenario::baseline()),
            UserArchetype::SmoothPanner,
            3,
            15,
        ))
        .run();
        for &p in &report.roi_psnr_db {
            assert!((5.0..=55.0).contains(&p), "{scheme:?}: PSNR {p}");
        }
    }
}

#[test]
fn full_stack_is_deterministic() {
    let make = || {
        Session::new(cfg(
            CompressionScheme::Poi360,
            RateControlKind::Fbcc,
            NetworkKind::Cellular(Scenario::baseline()),
            UserArchetype::EventDriven,
            99,
            15,
        ))
        .run()
    };
    let a = make();
    let b = make();
    assert_eq!(a.roi_psnr_db, b.roi_psnr_db);
    assert_eq!(a.frames_delivered, b.frames_delivered);
    assert_eq!(a.uplink_detections, b.uplink_detections);
    assert_eq!(a.freeze.delays_ms(), b.freeze.delays_ms());
}

#[test]
fn wireline_beats_cellular_on_delay() {
    let wl = Session::new(cfg(
        CompressionScheme::Poi360,
        RateControlKind::Gcc,
        NetworkKind::Wireline,
        UserArchetype::EventDriven,
        5,
        20,
    ))
    .run();
    let cell = Session::new(cfg(
        CompressionScheme::Poi360,
        RateControlKind::Gcc,
        NetworkKind::Cellular(Scenario::baseline()),
        UserArchetype::EventDriven,
        5,
        20,
    ))
    .run();
    assert!(
        wl.freeze.median_delay_ms() < cell.freeze.median_delay_ms(),
        "wireline {:?} vs cellular {:?}",
        wl.freeze.median_delay_ms(),
        cell.freeze.median_delay_ms()
    );
    assert!(wl.freeze_ratio() <= cell.freeze_ratio());
}

#[test]
fn diag_plane_only_exists_on_cellular() {
    let wl = Session::new(cfg(
        CompressionScheme::Poi360,
        RateControlKind::Fbcc,
        NetworkKind::Wireline,
        UserArchetype::Anchored,
        6,
        10,
    ))
    .run();
    assert!(wl.fw_buffer.is_empty());
    assert_eq!(wl.uplink_detections, 0);

    let cell = Session::new(cfg(
        CompressionScheme::Poi360,
        RateControlKind::Fbcc,
        NetworkKind::Cellular(Scenario::baseline()),
        UserArchetype::Anchored,
        6,
        10,
    ))
    .run();
    // 25 diag epochs per second.
    assert!(cell.fw_buffer.len() as u64 >= 10 * 20);
}

#[test]
fn displayed_roi_levels_are_valid_compression_levels() {
    let report = Session::new(cfg(
        CompressionScheme::Conduit,
        RateControlKind::Gcc,
        NetworkKind::Cellular(Scenario::baseline()),
        UserArchetype::Saccadic,
        7,
        15,
    ))
    .run();
    for (_, level) in report.roi_level.iter() {
        assert!(level >= 1.0, "compression level {level} below identity");
        assert!(level <= 48.0 + 1e-9, "level {level} beyond Conduit's floor");
    }
}

#[test]
fn mismatch_time_never_below_frame_delay_floor() {
    let report = Session::new(cfg(
        CompressionScheme::Poi360,
        RateControlKind::Fbcc,
        NetworkKind::Cellular(Scenario::baseline()),
        UserArchetype::EventDriven,
        8,
        15,
    ))
    .run();
    // Eq. 2: M >= d_v >= the processing pipeline floor.
    let floor = SessionConfig::default().pipeline_delay.as_millis() as f64;
    for (_, m) in report.mismatch_ms.iter() {
        assert!(m >= floor, "M {m} below delay floor {floor}");
    }
}

#[test]
fn all_users_complete_sessions() {
    for (k, user) in UserArchetype::all().iter().enumerate() {
        let report = Session::new(cfg(
            CompressionScheme::Poi360,
            RateControlKind::Fbcc,
            NetworkKind::Cellular(Scenario::baseline()),
            *user,
            100 + k as u64,
            10,
        ))
        .run();
        assert!(report.frames_delivered > 300, "{user:?}: {}", report.frames_delivered);
    }
}

#[test]
fn traced_predictive_session_records_its_mode_switches() {
    use poi360::sim::trace::capture;
    use poi360::sim::Recorder;
    // A 1.5 s browser pipeline is part of every frame delay d_v, and
    // M >= d_v (Eq. 2): M stays high for the whole run, so the selector
    // leaves its starting mode, and the traced run must say so for the
    // predictive variant as for plain POI360.
    for scheme in [CompressionScheme::Poi360, CompressionScheme::Poi360Predictive] {
        let c = SessionConfig {
            pipeline_delay: SimDuration::from_millis(1_500),
            ..cfg(
                scheme,
                RateControlKind::Fbcc,
                NetworkKind::Cellular(Scenario::baseline()),
                UserArchetype::Saccadic,
                5,
                10,
            )
        };
        let ((), jsonl) = capture(None, |sink| {
            Session::traced(c, Recorder::to_sink(sink.clone(), "session")).run();
        });
        let text = String::from_utf8(jsonl).unwrap();
        for probe in ["\"video.mode_switch\"", "\"video.mode_index\""] {
            assert!(text.contains(probe), "{}: no {probe} in the trace", scheme.label());
        }
    }
}
