//! The paper's qualitative claims — who wins, and in which direction each
//! condition moves the metrics — as predicates over the pools the figures
//! print: `FigCtx::pool` at `ExpConfig::default()`, exactly the sessions
//! `reproduce fig11` … `fig17` render. Absolute values live in
//! EXPERIMENTS.md, whose "What Tier-1 checks" table gives the seeds these
//! orderings were checked over. The only additive margins are the paper's
//! own.

use poi360::core::config::{CompressionScheme, NetworkKind, RateControlKind};
use poi360::lte::scenario::Scenario;
use poi360_bench::experiments::{Condition, FigCtx, Pools};
use poi360_bench::runner::ExpConfig;
use std::rc::Rc;
use std::sync::OnceLock;

type Claim = fn(&FigCtx) -> Result<(), String>;

/// Each claim is its own `#[test]`, but every claim is judged in one pass
/// over one `FigCtx`: the first test to ask runs them all, so the ten
/// distinct conditions are simulated once.
macro_rules! claims {
    ($($name:ident),* $(,)?) => {
        const CLAIMS: &[(&str, Claim)] = &[$((stringify!($name), claim::$name)),*];
        $(#[test] fn $name() { holds(stringify!($name)) })*
    };
}

claims!(
    poi360_beats_baselines_on_cellular_quality,
    poi360_is_most_stable_on_cellular,
    conduit_quality_is_bimodal,
    wireline_is_gentler_than_cellular_for_everyone,
    fbcc_beats_gcc_on_freezes,
    weak_signal_costs_quality_not_stability,
    busy_cell_degrades_gracefully,
);

/// Panics unless the claim called `name` held.
fn holds(name: &str) {
    static VERDICTS: OnceLock<Vec<(&str, Result<(), String>)>> = OnceLock::new();
    let verdicts = VERDICTS.get_or_init(|| {
        let ctx = FigCtx::new(ExpConfig::default());
        CLAIMS.iter().map(|&(name, claim)| (name, claim(&ctx))).collect()
    });
    let (_, verdict) = verdicts.iter().find(|v| v.0 == name).expect("a listed claim");
    if let Err(why) = verdict {
        panic!("claim {name} does not hold: {why}");
    }
}

fn ensure(held: bool, why: String) -> Result<(), String> {
    if held {
        Ok(())
    } else {
        Err(why)
    }
}

/// The pooled sessions of `scheme` over GCC on `network`, as §6.1.1's
/// panels print them.
fn gcc(ctx: &FigCtx, scheme: CompressionScheme, network: NetworkKind) -> Rc<Pools> {
    ctx.pool(Condition { scheme, rate_control: RateControlKind::Gcc, network })
}

fn cellular() -> NetworkKind {
    NetworkKind::Cellular(Scenario::baseline())
}

/// The full system (adaptive compression over FBCC) in one field scenario.
fn field(ctx: &FigCtx, scenario: Scenario) -> Rc<Pools> {
    let network = NetworkKind::Cellular(scenario);
    ctx.pool(Condition { network, ..Condition::poi360() })
}

mod claim {
    use super::*;

    // Fig. 11b: adaptive compression spends the bits where the viewer looks,
    // so POI360's ROI PSNR over cellular clears Conduit's by the paper's 2 dB
    // and Pyramid's outright.
    pub fn poi360_beats_baselines_on_cellular_quality(ctx: &FigCtx) -> Result<(), String> {
        let [poi, conduit, pyramid] =
            CompressionScheme::all().map(|s| gcc(ctx, s, cellular()).all.mean_psnr_db());
        ensure(
            poi > conduit + 2.0 && poi > pyramid,
            format!("ROI PSNR poi {poi:.2} conduit {conduit:.2} pyramid {pyramid:.2} dB"),
        )
    }

    // Fig. 12b: mode selection with dwell keeps POI360's displayed ROI level
    // steady, while Conduit's floor↔full jumps fluctuate several times more.
    pub fn poi360_is_most_stable_on_cellular(ctx: &FigCtx) -> Result<(), String> {
        let [poi, conduit, _] =
            CompressionScheme::all().map(|s| gcc(ctx, s, cellular()).all.mean_level_std());
        ensure(conduit > poi * 2.0, format!("level std conduit {conduit:.3} poi {poi:.3}"))
    }

    // Conduit's two-level design: when it misses the ROI, the fovea sees the
    // floor, so its PSNR spread dwarfs POI360's.
    pub fn conduit_quality_is_bimodal(ctx: &FigCtx) -> Result<(), String> {
        let [poi, conduit, _] =
            CompressionScheme::all().map(|s| gcc(ctx, s, cellular()).all.psnr_std_db());
        ensure(conduit > poi * 1.5, format!("PSNR std conduit {conduit:.2} poi {poi:.2} dB"))
    }

    // Figs. 11–14 (a) vs (b): a wired uplink has no radio to fade or share,
    // so every scheme sees at least its cellular quality and at most its
    // cellular freeze.
    pub fn wireline_is_gentler_than_cellular_for_everyone(ctx: &FigCtx) -> Result<(), String> {
        let worse: Vec<String> = CompressionScheme::all()
            .into_iter()
            .filter_map(|scheme| {
                let wl = &gcc(ctx, scheme, NetworkKind::Wireline).all;
                let cell = &gcc(ctx, scheme, cellular()).all;
                let gentler = wl.mean_psnr_db() >= cell.mean_psnr_db()
                    && wl.freeze_ratio() <= cell.freeze_ratio();
                (!gentler).then(|| {
                    format!(
                        "{scheme:?}: PSNR wl {:.2} cell {:.2} dB, freeze wl {:.4} cell {:.4}",
                        wl.mean_psnr_db(),
                        cell.mean_psnr_db(),
                        wl.freeze_ratio(),
                        cell.freeze_ratio()
                    )
                })
            })
            .collect();
        ensure(worse.is_empty(), worse.join("; "))
    }

    // Fig. 16a: FBCC reads the firmware buffer and pins R_v to the live PHY
    // rate before the queue builds, so it freezes less than stock GCC.
    pub fn fbcc_beats_gcc_on_freezes(ctx: &FigCtx) -> Result<(), String> {
        let fbcc = ctx.pool(Condition::poi360()).all.freeze_ratio();
        let gcc = gcc(ctx, CompressionScheme::Poi360, cellular()).all.freeze_ratio();
        ensure(fbcc < gcc, format!("freeze fbcc {fbcc:.4} gcc {gcc:.4}"))
    }

    // Fig. 17c/d: a weak signal means a low MCS, which costs quality. The
    // paper's freeze stays under 3 %; this model's does not (deviation D6),
    // and the claim asserts D6 as the register states it, so a change that
    // closes it fails here until the register says so.
    pub fn weak_signal_costs_quality_not_stability(ctx: &FigCtx) -> Result<(), String> {
        let [weak, _, strong] = Scenario::signal_sweep();
        let (weak, strong) = (&field(ctx, weak).all, field(ctx, strong).all.mean_psnr_db());
        let (psnr, freeze) = (weak.mean_psnr_db(), weak.freeze_ratio());
        ensure(
            psnr < strong && freeze > 0.03,
            format!(
                "PSNR weak {psnr:.2} strong {strong:.2} dB, weak freeze {freeze:.4} (D6: > 0.03)"
            ),
        )
    }

    // Fig. 17a/b: competing load takes PRBs, which costs a couple of dB (the
    // paper measures 2), but FBCC follows the shrunken share instead of
    // collapsing: busy stays within 8 dB of idle.
    pub fn busy_cell_degrades_gracefully(ctx: &FigCtx) -> Result<(), String> {
        let [idle, busy] = Scenario::load_sweep().map(|s| field(ctx, s).all.mean_psnr_db());
        ensure(busy <= idle && busy > idle - 8.0, format!("PSNR idle {idle:.2} busy {busy:.2} dB"))
    }
}
