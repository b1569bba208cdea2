//! Integration tests asserting the paper's qualitative claims — the
//! *shape* of the evaluation results: who wins, and in which direction
//! each condition moves the metrics. Absolute values live in
//! EXPERIMENTS.md; these tests only pin orderings that must survive any
//! reasonable recalibration.

use poi360::core::config::{CompressionScheme, NetworkKind, RateControlKind, SessionConfig};
use poi360::core::report::Aggregate;
use poi360::core::session::Session;
use poi360::lte::scenario::Scenario;
use poi360::sim::time::SimDuration;
use poi360::viewport::motion::UserArchetype;

const SECS: u64 = 45;

/// Pool a few users × seeds for one configuration.
fn pooled(scheme: CompressionScheme, rc: RateControlKind, network: NetworkKind) -> Aggregate {
    let mut agg = Aggregate::new("pool");
    for (k, user) in
        [UserArchetype::Anchored, UserArchetype::SmoothPanner, UserArchetype::EventDriven]
            .iter()
            .enumerate()
    {
        for seed in 0..2u64 {
            let cfg = SessionConfig {
                scheme,
                rate_control: rc,
                network,
                user: *user,
                duration: SimDuration::from_secs(SECS),
                seed: 1000 + k as u64 * 10 + seed,
                ..Default::default()
            };
            agg.add(&Session::new(cfg).run());
        }
    }
    agg
}

fn cellular() -> NetworkKind {
    NetworkKind::Cellular(Scenario::baseline())
}

#[test]
fn poi360_beats_baselines_on_cellular_quality() {
    // Paper Fig. 11b: POI360's ROI PSNR clearly above Conduit and Pyramid
    // over cellular.
    let poi = pooled(CompressionScheme::Poi360, RateControlKind::Gcc, cellular());
    let conduit = pooled(CompressionScheme::Conduit, RateControlKind::Gcc, cellular());
    let pyramid = pooled(CompressionScheme::Pyramid, RateControlKind::Gcc, cellular());
    assert!(
        poi.mean_psnr_db() > conduit.mean_psnr_db() + 2.0,
        "poi {} conduit {}",
        poi.mean_psnr_db(),
        conduit.mean_psnr_db()
    );
    assert!(
        poi.mean_psnr_db() > pyramid.mean_psnr_db(),
        "poi {} pyramid {}",
        poi.mean_psnr_db(),
        pyramid.mean_psnr_db()
    );
}

#[test]
fn poi360_is_most_stable_on_cellular() {
    // Paper Fig. 12b: the baselines' displayed ROI compression level
    // fluctuates several times more than POI360's.
    let poi = pooled(CompressionScheme::Poi360, RateControlKind::Gcc, cellular());
    let conduit = pooled(CompressionScheme::Conduit, RateControlKind::Gcc, cellular());
    assert!(
        conduit.mean_level_std() > poi.mean_level_std() * 2.0,
        "conduit {} poi {}",
        conduit.mean_level_std(),
        poi.mean_level_std()
    );
}

#[test]
fn conduit_quality_is_bimodal() {
    // Conduit's two-level design: when it misses, the fovea sees the floor.
    // Its PSNR std must dwarf POI360's.
    let poi = pooled(CompressionScheme::Poi360, RateControlKind::Gcc, cellular());
    let conduit = pooled(CompressionScheme::Conduit, RateControlKind::Gcc, cellular());
    assert!(
        conduit.psnr_std_db() > poi.psnr_std_db() * 1.5,
        "conduit std {} poi std {}",
        conduit.psnr_std_db(),
        poi.psnr_std_db()
    );
}

#[test]
fn wireline_is_gentler_than_cellular_for_everyone() {
    // Paper Figs. 11–14 (a) vs (b): every scheme does better on wireline.
    for scheme in CompressionScheme::all() {
        let wl = pooled(scheme, RateControlKind::Gcc, NetworkKind::Wireline);
        let cell = pooled(scheme, RateControlKind::Gcc, cellular());
        assert!(
            wl.mean_psnr_db() >= cell.mean_psnr_db() - 0.5,
            "{scheme:?}: wl {} cell {}",
            wl.mean_psnr_db(),
            cell.mean_psnr_db()
        );
        assert!(
            wl.freeze_ratio() <= cell.freeze_ratio() + 0.005,
            "{scheme:?}: wl {} cell {}",
            wl.freeze_ratio(),
            cell.freeze_ratio()
        );
    }
}

#[test]
fn fbcc_beats_gcc_on_freezes() {
    // Paper Fig. 16a: FBCC's freeze ratio well below stock GCC's. Short
    // pooled sessions carry sampling noise, so allow a small absolute
    // tolerance; the full-scale comparison lives in `reproduce fig16`.
    let fbcc = pooled(CompressionScheme::Poi360, RateControlKind::Fbcc, cellular());
    let gcc = pooled(CompressionScheme::Poi360, RateControlKind::Gcc, cellular());
    assert!(
        fbcc.freeze_ratio() < gcc.freeze_ratio() + 0.02,
        "fbcc {} gcc {}",
        fbcc.freeze_ratio(),
        gcc.freeze_ratio()
    );
}

#[test]
fn weak_signal_costs_quality_not_stability() {
    // Paper Fig. 17c/d: weak RSS lowers quality but POI360 keeps streaming.
    let strong = pooled(
        CompressionScheme::Poi360,
        RateControlKind::Fbcc,
        NetworkKind::Cellular(Scenario::signal_sweep()[2]),
    );
    let weak = pooled(
        CompressionScheme::Poi360,
        RateControlKind::Fbcc,
        NetworkKind::Cellular(Scenario::signal_sweep()[0]),
    );
    assert!(
        weak.mean_psnr_db() < strong.mean_psnr_db(),
        "weak {} strong {}",
        weak.mean_psnr_db(),
        strong.mean_psnr_db()
    );
    // The weak link still delivers a usable stream.
    assert!(!weak.freeze.delays_ms().is_empty());
    assert!(weak.mean_psnr_db() > 15.0, "weak signal unusable: {}", weak.mean_psnr_db());
}

#[test]
fn busy_cell_degrades_gracefully() {
    // Paper Fig. 17a/b: heavy competing load costs a couple of dB and some
    // freezes, not collapse.
    let idle = pooled(
        CompressionScheme::Poi360,
        RateControlKind::Fbcc,
        NetworkKind::Cellular(Scenario::load_sweep()[0]),
    );
    let busy = pooled(
        CompressionScheme::Poi360,
        RateControlKind::Fbcc,
        NetworkKind::Cellular(Scenario::load_sweep()[1]),
    );
    assert!(busy.mean_psnr_db() <= idle.mean_psnr_db());
    assert!(busy.mean_psnr_db() > idle.mean_psnr_db() - 8.0, "collapse under load");
}
