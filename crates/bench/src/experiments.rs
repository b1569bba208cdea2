//! One generator per paper table/figure.
//!
//! Each `figN` function runs the experiment behind that figure and renders
//! the same rows/series the paper reports, returning the rendered text
//! (and, where useful for tests, structured results). The mapping to paper
//! figures is the experiment index in DESIGN.md §3.

use crate::runner::{run_multicells, run_parallel, run_sessions, ExpConfig};
use poi360_core::config::{CompressionScheme, NetworkKind, RateControlKind, SessionConfig};
use poi360_core::multicell::{FlowSpec, MultiCellConfig, MultiCellReport};
use poi360_core::report::Aggregate;
use poi360_lte::buffer::PacketLike;
use poi360_lte::cell::background_population_for;
use poi360_lte::scenario::{BackgroundLoad, Scenario};
use poi360_lte::uplink::CellUplink;
use poi360_metrics::dist::{percentile, Cdf};
use poi360_metrics::mos::Mos;
use poi360_metrics::table::{fnum, mbps, pct, Table};
use poi360_sim::time::SimTime;
use poi360_viewport::motion::UserArchetype;

struct Filler(u32);
impl PacketLike for Filler {
    fn wire_bytes(&self) -> u32 {
        self.0
    }
}

fn session_base(exp: &ExpConfig, user: UserArchetype, seed: u64) -> SessionConfig {
    SessionConfig { user, seed, duration: exp.duration(), ..Default::default() }
}

// ---------------------------------------------------------------------
// Fig. 5 — firmware-buffer occupancy vs. uplink TBS throughput
// ---------------------------------------------------------------------

/// The relation between firmware buffer occupancy and per-second TBS
/// (paper Fig. 5): hold the buffer at a fixed level and measure throughput.
pub fn fig5_series(exp: &ExpConfig) -> Vec<(f64, f64)> {
    let levels_kb = [0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0, 25.0];
    levels_kb
        .iter()
        .map(|&kb| {
            let mut ul = CellUplink::new(Scenario::quiet().uplink_config(), exp.base_seed);
            let level = (kb * 1_000.0) as u64;
            let mut now = SimTime::ZERO;
            let mut bits = 0u64;
            let secs = exp.duration_secs.clamp(5, 30);
            for _ in 0..secs * 1_000 {
                while ul.buffer_level() < level {
                    ul.enqueue(Filler(1_200), now);
                }
                bits += ul.subframe(now).tbs_bits as u64;
                now += poi360_sim::SUBFRAME;
            }
            (kb, bits as f64 / secs as f64 / 1e6)
        })
        .collect()
}

/// Render Fig. 5.
pub fn fig5(exp: &ExpConfig) -> String {
    let mut t = Table::new(
        "Fig. 5 — Sum UL TBS/s vs firmware buffer occupancy (paper: linear rise, saturation ~4.5-5.5 Mbps by ~15-25 KB)",
        &["Buffer (KB)", "UL TBS/s (Mbps)"],
    );
    for (kb, mbps_v) in fig5_series(exp) {
        t.row(vec![fnum(kb, 1), fnum(mbps_v, 2)]);
    }
    t.render()
}

// ---------------------------------------------------------------------
// Fig. 6 — firmware-buffer CDF under stock WebRTC (GCC) rate control
// ---------------------------------------------------------------------

/// Pool firmware-buffer samples from POI360-compressed sessions under GCC.
pub fn fig6_aggregate(exp: &ExpConfig) -> Aggregate {
    run_sessions(exp, "fig6: GCC buffer occupancy", |user, seed| SessionConfig {
        scheme: CompressionScheme::Poi360,
        rate_control: RateControlKind::Gcc,
        network: NetworkKind::Cellular(Scenario::baseline()),
        ..session_base(exp, user, seed)
    })
}

/// Render Fig. 6.
pub fn fig6(exp: &ExpConfig) -> String {
    let agg = fig6_aggregate(exp);
    let kb: Vec<f64> = agg.fw_buffer.iter().map(|b| b / 1e3).collect();
    let cdf = Cdf::new(kb);
    let mut t = Table::new(
        "Fig. 6 — CDF of uplink firmware buffer level under WebRTC/GCC (paper: ~40% of time empty)",
        &["Buffer (KB)", "CDF"],
    );
    for x in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0] {
        t.row(vec![fnum(x, 1), fnum(cdf.at(x), 3)]);
    }
    let mut out = t.render();
    out.push_str(&format!("near-empty (<0.5 KB) fraction: {}\n", pct(cdf.at(0.5))));
    out
}

// ---------------------------------------------------------------------
// Table 1 — PSNR → MOS mapping
// ---------------------------------------------------------------------

/// Render Table 1 (the mapping is implemented in `poi360-metrics::mos`).
pub fn table1() -> String {
    let mut t =
        Table::new("Table 1 — PSNR to Mean Opinion Score mapping", &["MOS", "PSNR range (dB)"]);
    t.row(vec!["Excellent".into(), "> 37".into()]);
    t.row(vec!["Good".into(), "31 - 37".into()]);
    t.row(vec!["Fair".into(), "25 - 31".into()]);
    t.row(vec!["Poor".into(), "20 - 25".into()]);
    t.row(vec!["Bad".into(), "< 20".into()]);
    let mut out = t.render();
    // Self-check the implementation against the table.
    for (psnr, expect) in [
        (40.0, Mos::Excellent),
        (34.0, Mos::Good),
        (28.0, Mos::Fair),
        (22.0, Mos::Poor),
        (15.0, Mos::Bad),
    ] {
        assert_eq!(Mos::from_psnr(psnr), expect);
    }
    out.push_str("implementation check: OK\n");
    out
}

// ---------------------------------------------------------------------
// §6.1.1 micro-benchmark sessions (shared by Figs. 11–14)
// ---------------------------------------------------------------------

/// The §6.1.1 compression micro-benchmark: three schemes × two networks,
/// all on GCC transport (the paper isolates compression by fixing the
/// transport to WebRTC's default).
pub struct CompressionBench {
    /// Per-scheme aggregates over the wireline control condition.
    pub wireline: Vec<(CompressionScheme, Aggregate)>,
    /// Per-scheme aggregates over the cellular condition.
    pub cellular: Vec<(CompressionScheme, Aggregate)>,
}

/// Run the §6.1.1 sessions.
pub fn compression_bench(exp: &ExpConfig) -> CompressionBench {
    let run = |scheme: CompressionScheme, network: NetworkKind, tag: &str| {
        run_sessions(exp, tag, |user, seed| SessionConfig {
            scheme,
            rate_control: RateControlKind::Gcc,
            network,
            ..session_base(exp, user, seed)
        })
    };
    let schemes = CompressionScheme::all();
    CompressionBench {
        wireline: schemes
            .iter()
            .map(|&s| (s, run(s, NetworkKind::Wireline, &format!("{}/wireline", s.label()))))
            .collect(),
        cellular: schemes
            .iter()
            .map(|&s| {
                (
                    s,
                    run(
                        s,
                        NetworkKind::Cellular(Scenario::baseline()),
                        &format!("{}/cellular", s.label()),
                    ),
                )
            })
            .collect(),
    }
}

/// Render Fig. 11 (a–d): ROI PSNR and MOS PDFs per scheme and network.
pub fn fig11(bench: &CompressionBench) -> String {
    let mut out = String::new();
    for (net, rows) in [("wireline", &bench.wireline), ("cellular", &bench.cellular)] {
        let mut t = Table::new(
            format!("Fig. 11 — user-perceived ROI quality over {net} (paper cellular: POI360 11-13 dB above baselines)"),
            &["Scheme", "PSNR mean (dB)", "PSNR std", "Bad", "Poor", "Fair", "Good", "EXC"],
        );
        for (scheme, agg) in rows {
            let mos = agg.mos();
            let pdf = mos.pdf();
            t.row(vec![
                scheme.label().into(),
                fnum(agg.mean_psnr_db(), 1),
                fnum(agg.psnr_std_db(), 1),
                pct(pdf[0]),
                pct(pdf[1]),
                pct(pdf[2]),
                pct(pdf[3]),
                pct(pdf[4]),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Render Fig. 12 (a/b): short-term ROI compression-level variation.
pub fn fig12(bench: &CompressionBench) -> String {
    let mut out = String::new();
    for (net, rows) in [("wireline", &bench.wireline), ("cellular", &bench.cellular)] {
        let mut t = Table::new(
            format!("Fig. 12 — ROI compression-level std in 2 s windows over {net} (paper cellular: baselines 5-14x POI360)"),
            &["Scheme", "mean std", "p50", "p90", "p99"],
        );
        for (scheme, agg) in rows {
            t.row(vec![
                scheme.label().into(),
                fnum(agg.mean_level_std(), 2),
                fnum(percentile(&agg.level_stds, 0.5).unwrap_or(0.0), 2),
                fnum(percentile(&agg.level_stds, 0.9).unwrap_or(0.0), 2),
                fnum(percentile(&agg.level_stds, 0.99).unwrap_or(0.0), 2),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Render Fig. 13 (a/b): frame-delay CDFs.
pub fn fig13(bench: &CompressionBench) -> String {
    let mut out = String::new();
    for (net, rows) in [("wireline", &bench.wireline), ("cellular", &bench.cellular)] {
        let mut t = Table::new(
            format!("Fig. 13 — video frame delay over {net} (paper cellular: POI360 median 460 ms, 15% below Conduit)"),
            &["Scheme", "p10 (ms)", "median", "p90", "p99"],
        );
        for (scheme, agg) in rows {
            let d = agg.freeze.delays_ms();
            t.row(vec![
                scheme.label().into(),
                fnum(percentile(d, 0.1).unwrap_or(0.0), 0),
                fnum(percentile(d, 0.5).unwrap_or(0.0), 0),
                fnum(percentile(d, 0.9).unwrap_or(0.0), 0),
                fnum(percentile(d, 0.99).unwrap_or(0.0), 0),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Render Fig. 14 (a/b): freeze ratios.
pub fn fig14(bench: &CompressionBench) -> String {
    let mut out = String::new();
    for (net, rows) in [("wireline", &bench.wireline), ("cellular", &bench.cellular)] {
        let mut t = Table::new(
            format!("Fig. 14 — video freeze ratio over {net} (paper: wireline all <2%; cellular POI360 <3%, baselines 8-17%)"),
            &["Scheme", "Freeze ratio"],
        );
        for (scheme, agg) in rows {
            t.row(vec![scheme.label().into(), pct(agg.freeze_ratio())]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// §6.1.2 FBCC vs GCC (Figs. 15 & 16)
// ---------------------------------------------------------------------

/// The §6.1.2 rate-control micro-benchmark: POI360 compression over FBCC
/// vs. over stock GCC, on the cellular baseline.
pub fn rate_control_bench(exp: &ExpConfig) -> Vec<(RateControlKind, Aggregate)> {
    [RateControlKind::Fbcc, RateControlKind::Gcc]
        .iter()
        .map(|&rc| {
            let agg = run_sessions(exp, rc.label(), |user, seed| SessionConfig {
                scheme: CompressionScheme::Poi360,
                rate_control: rc,
                network: NetworkKind::Cellular(Scenario::baseline()),
                ..session_base(exp, user, seed)
            });
            (rc, agg)
        })
        .collect()
}

/// Render Fig. 15: the (buffer level, UL TBS/s) operating points.
pub fn fig15(rows: &[(RateControlKind, Aggregate)]) -> String {
    let mut out = String::new();
    for (rc, agg) in rows {
        let mut t = Table::new(
            format!("Fig. 15 — operating region of {} (paper: FBCC at the sweet spot, GCC in the low-usage region)", rc.label()),
            &["Buffer (KB)", "p25 TBS (Mbps)", "median TBS", "p75 TBS", "samples"],
        );
        // Bucket the (buffer, rate) scatter like the paper's regions.
        for (lo, hi) in
            [(0.0, 2.0), (2.0, 5.0), (5.0, 10.0), (10.0, 15.0), (15.0, 25.0), (25.0, 1e9)]
        {
            let rates: Vec<f64> = agg
                .buffer_rate_pairs
                .iter()
                .filter(|&&(b, _)| b / 1e3 >= lo && b / 1e3 < hi)
                .map(|&(_, r)| r / 1e6)
                .collect();
            if rates.is_empty() {
                continue;
            }
            let label = if hi > 1e8 { format!(">{lo:.0}") } else { format!("{lo:.0}-{hi:.0}") };
            t.row(vec![
                label,
                fnum(percentile(&rates, 0.25).unwrap_or(0.0), 2),
                fnum(percentile(&rates, 0.5).unwrap_or(0.0), 2),
                fnum(percentile(&rates, 0.75).unwrap_or(0.0), 2),
                rates.len().to_string(),
            ]);
        }
        out.push_str(&t.render());
        let buf_kb: Vec<f64> = agg.fw_buffer.iter().map(|b| b / 1e3).collect();
        out.push_str(&format!(
            "{}: median buffer {} KB, near-empty fraction {}\n\n",
            rc.label(),
            fnum(percentile(&buf_kb, 0.5).unwrap_or(0.0), 1),
            pct(agg.buffer_empty_fraction()),
        ));
    }
    out
}

/// Render Fig. 16 (a/b): throughput/freeze and MOS, FBCC vs GCC.
pub fn fig16(rows: &[(RateControlKind, Aggregate)]) -> String {
    let mut t = Table::new(
        "Fig. 16a — throughput & freeze ratio (paper: both ~3 Mbps; GCC std 57% higher; freeze FBCC 1.6% vs GCC 4.7%)",
        &["Rate control", "Mean tput (Mbps)", "Tput std (Mbps)", "Freeze ratio"],
    );
    for (rc, agg) in rows {
        t.row(vec![
            rc.label().into(),
            mbps(agg.mean_throughput_bps()),
            mbps(agg.throughput_std_bps()),
            pct(agg.freeze_ratio()),
        ]);
    }
    let mut out = t.render();
    out.push('\n');
    let mut t2 = Table::new(
        "Fig. 16b — video quality MOS PDF (paper: FBCC 69% good + 23% excellent; GCC >40% fair)",
        &["Rate control", "Bad", "Poor", "Fair", "Good", "EXC"],
    );
    for (rc, agg) in rows {
        let pdf = agg.mos().pdf();
        t2.row(vec![
            rc.label().into(),
            pct(pdf[0]),
            pct(pdf[1]),
            pct(pdf[2]),
            pct(pdf[3]),
            pct(pdf[4]),
        ]);
    }
    out.push_str(&t2.render());
    out
}

// ---------------------------------------------------------------------
// §6.2 system-level evaluation (Fig. 17)
// ---------------------------------------------------------------------

/// Which §6.2 sweep to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig17Axis {
    /// Fig. 17a/b: background load.
    Load,
    /// Fig. 17c/d: signal strength.
    Signal,
    /// Fig. 17e/f: mobility.
    Speed,
}

/// Run one Fig. 17 sweep of the full POI360 system (adaptive compression +
/// FBCC).
pub fn fig17_bench(exp: &ExpConfig, axis: Fig17Axis) -> Vec<(String, Aggregate)> {
    let scenarios: Vec<Scenario> = match axis {
        Fig17Axis::Load => Scenario::load_sweep().to_vec(),
        Fig17Axis::Signal => Scenario::signal_sweep().to_vec(),
        Fig17Axis::Speed => Scenario::mobility_sweep().to_vec(),
    };
    scenarios
        .into_iter()
        .map(|scenario| {
            let label = scenario.label();
            let agg = run_sessions(exp, &label, |user, seed| SessionConfig {
                scheme: CompressionScheme::Poi360,
                rate_control: RateControlKind::Fbcc,
                network: NetworkKind::Cellular(scenario),
                ..session_base(exp, user, seed)
            });
            (label, agg)
        })
        .collect()
}

/// Render one Fig. 17 panel pair.
pub fn fig17(exp: &ExpConfig, axis: Fig17Axis) -> String {
    let rows = fig17_bench(exp, axis);
    let (title, expect) = match axis {
        Fig17Axis::Load => (
            "Fig. 17a/b — background traffic load",
            "paper: idle ~1% freeze; busy ~4% freeze, -2 dB PSNR",
        ),
        Fig17Axis::Signal => (
            "Fig. 17c/d — signal strength",
            "paper: freeze <3% everywhere; weak signal loses quality (no excellent frames)",
        ),
        Fig17Axis::Speed => (
            "Fig. 17e/f — mobility",
            "paper: 15 mph ~static; 7% freeze at 30 mph, 9% at 50 mph; quality stays good/exc",
        ),
    };
    let mut t = Table::new(
        format!("{title} ({expect})"),
        &["Condition", "PSNR (dB)", "Freeze", "Bad", "Poor", "Fair", "Good", "EXC"],
    );
    for (label, agg) in &rows {
        let pdf = agg.mos().pdf();
        t.row(vec![
            label.clone(),
            fnum(agg.mean_psnr_db(), 1),
            pct(agg.freeze_ratio()),
            pct(pdf[0]),
            pct(pdf[1]),
            pct(pdf[2]),
            pct(pdf[3]),
            pct(pdf[4]),
        ]);
    }
    t.render()
}

// ---------------------------------------------------------------------
// Ablation (beyond the paper's figures, motivated by §8): ROI prediction
// ---------------------------------------------------------------------

/// §8 ablation: tile-level hit rate of the linear ROI predictor vs.
/// horizon, per user archetype — quantifies "the head position after
/// 120 ms is unpredictable".
pub fn roi_prediction_ablation() -> String {
    use poi360_video::frame::TileGrid;
    use poi360_viewport::motion::{HeadMotion, MotionConfig};
    use poi360_viewport::predictor::LinearPredictor;

    let grid = TileGrid::POI360;
    let horizons_ms = [40u64, 80, 120, 240, 460, 900];
    let mut t = Table::new(
        "Ablation (§8) — linear ROI prediction hit rate vs horizon (paper: unpredictable beyond ~120 ms)",
        &["User", "40ms", "80ms", "120ms", "240ms", "460ms", "900ms"],
    );
    for (k, archetype) in UserArchetype::all().iter().enumerate() {
        let dt = poi360_sim::SimDuration::from_millis(10);
        let mut user = HeadMotion::new(*archetype, MotionConfig::default(), 77 + k as u64);
        let mut pred = LinearPredictor::default();
        let total = 20_000usize;
        let mut rois = Vec::with_capacity(total);
        let mut preds: Vec<Vec<Option<poi360_video::roi::Roi>>> =
            vec![Vec::with_capacity(total); horizons_ms.len()];
        for _ in 0..total {
            user.step(dt);
            pred.observe(user.yaw(), user.pitch(), dt.as_secs_f64());
            rois.push(user.roi(&grid));
            for (h, &ms) in horizons_ms.iter().enumerate() {
                preds[h].push(pred.predict_roi(&grid, ms as f64 / 1e3));
            }
        }
        let mut cells = vec![archetype.label().to_string()];
        for (h, &ms) in horizons_ms.iter().enumerate() {
            let steps = (ms / 10) as usize;
            let mut hit = 0usize;
            let mut n = 0usize;
            for i in 0..total - steps {
                if let Some(p) = &preds[h][i] {
                    n += 1;
                    if p.center == rois[i + steps].center {
                        hit += 1;
                    }
                }
            }
            cells.push(pct(hit as f64 / n.max(1) as f64));
        }
        t.row(cells);
    }
    t.render()
}

// ---------------------------------------------------------------------
// Ablation: fixed modes vs adaptive selection (the §4.2 design choice)
// ---------------------------------------------------------------------

/// Pin POI360 to each of its eight modes and compare against the adaptive
/// selector on the cellular baseline — the ablation justifying adaptive
/// mode switching: no single fixed mode wins on both quality and delay.
pub fn mode_ablation(exp: &ExpConfig) -> String {
    let mut rows: Vec<(CompressionScheme, Aggregate)> = Vec::new();
    for k in [1u8, 3, 5, 8] {
        let scheme = CompressionScheme::FixedMode(k);
        rows.push((
            scheme,
            run_sessions(exp, scheme.label(), |user, seed| SessionConfig {
                scheme,
                rate_control: RateControlKind::Fbcc,
                network: NetworkKind::Cellular(Scenario::baseline()),
                ..session_base(exp, user, seed)
            }),
        ));
    }
    rows.push((
        CompressionScheme::Poi360,
        run_sessions(exp, "adaptive", |user, seed| SessionConfig {
            scheme: CompressionScheme::Poi360,
            rate_control: RateControlKind::Fbcc,
            network: NetworkKind::Cellular(Scenario::baseline()),
            ..session_base(exp, user, seed)
        }),
    ));
    let mut t = Table::new(
        "Ablation (§4.2) — fixed compression modes vs adaptive selection",
        &["Mode", "PSNR (dB)", "PSNR std", "Freeze", "Level std"],
    );
    for (scheme, agg) in &rows {
        t.row(vec![
            scheme.label().into(),
            fnum(agg.mean_psnr_db(), 1),
            fnum(agg.psnr_std_db(), 1),
            pct(agg.freeze_ratio()),
            fnum(agg.mean_level_std(), 2),
        ]);
    }
    t.render()
}

// ---------------------------------------------------------------------
// Ablation: §8 extensions — predictive compression and edge relaying
// ---------------------------------------------------------------------

/// POI360 vs POI360+linear-ROI-prediction per user archetype: measures the
/// §8 claim that prediction only helps extrapolable motion.
pub fn prediction_policy_ablation(exp: &ExpConfig) -> String {
    let mut t = Table::new(
        "Ablation (§8) — sender-side ROI prediction per user archetype",
        &["User", "POI360 PSNR", "POI360+pred PSNR", "POI360 M (ms)", "+pred M (ms)"],
    );
    for (k, user) in UserArchetype::all().iter().enumerate() {
        let mut vals = Vec::new();
        for scheme in [CompressionScheme::Poi360, CompressionScheme::Poi360Predictive] {
            let mut agg = Aggregate::new(scheme.label());
            for rep in 0..exp.repeats {
                let seed = crate::runner::session_seed(exp.base_seed, k, rep);
                let cfg = SessionConfig {
                    scheme,
                    rate_control: RateControlKind::Fbcc,
                    network: NetworkKind::Cellular(Scenario::baseline()),
                    ..session_base(exp, *user, seed)
                };
                agg.add(&poi360_core::session::Session::new(cfg).run());
            }
            vals.push(agg);
        }
        t.row(vec![
            user.label().into(),
            fnum(vals[0].mean_psnr_db(), 1),
            fnum(vals[1].mean_psnr_db(), 1),
            fnum(poi360_metrics::dist::Summary::of(&vals[0].mismatch_ms).mean, 0),
            fnum(poi360_metrics::dist::Summary::of(&vals[1].mismatch_ms).mean, 0),
        ]);
    }
    t.render()
}

/// Standard cellular path vs mobile-edge relaying (§8's "improving the ROI
/// update responsiveness"): the shortened path should cut the mismatch
/// time M and let the adaptive selector run more aggressive modes.
pub fn edge_relay_ablation(exp: &ExpConfig) -> String {
    let mut t = Table::new(
        "Ablation (§8) — mobile-edge relaying vs Internet path",
        &["Path", "PSNR (dB)", "Median delay (ms)", "Freeze", "Mean M (ms)"],
    );
    for (label, network) in [
        ("internet", NetworkKind::Cellular(Scenario::baseline())),
        ("edge-relay", NetworkKind::CellularEdge(Scenario::baseline())),
    ] {
        let agg = run_sessions(exp, label, |user, seed| SessionConfig {
            scheme: CompressionScheme::Poi360,
            rate_control: RateControlKind::Fbcc,
            network,
            ..session_base(exp, user, seed)
        });
        t.row(vec![
            label.into(),
            fnum(agg.mean_psnr_db(), 1),
            fnum(agg.median_delay_ms(), 0),
            pct(agg.freeze_ratio()),
            fnum(poi360_metrics::dist::Summary::of(&agg.mismatch_ms).mean, 0),
        ]);
    }
    t.render()
}

// ---------------------------------------------------------------------
// Coexist — N telephony sessions sharing one eNodeB cell (beyond the
// paper: its §3.3 multi-user mechanism run with every UE under control)
// ---------------------------------------------------------------------

fn coexist_flow(rate_control: RateControlKind, idx: usize) -> FlowSpec {
    let users = UserArchetype::all();
    FlowSpec { scheme: CompressionScheme::Poi360, rate_control, user: users[idx % users.len()] }
}

/// The cell compositions the coexist experiment compares.
pub fn coexist_mixes() -> Vec<(&'static str, Vec<FlowSpec>)> {
    let fbcc = |i| coexist_flow(RateControlKind::Fbcc, i);
    let gcc = |i| coexist_flow(RateControlKind::Gcc, i);
    vec![
        ("FBCC x4", (0..4).map(fbcc).collect()),
        ("GCC x4", (0..4).map(gcc).collect()),
        ("mixed 2+2", vec![fbcc(0), fbcc(1), gcc(2), gcc(3)]),
    ]
}

/// Deterministic per-ensemble seed from base seed, mix, and repeat.
fn coexist_seed(base: u64, mix_idx: usize, repeat: u64) -> u64 {
    base ^ ((mix_idx as u64 + 1) << 32) ^ repeat.wrapping_mul(0x9E37_79B9)
}

/// The `exp.repeats` ensemble configs for one mix (seeds depend only on
/// `mix_idx` and the repeat, so batching mixes together cannot move them).
fn coexist_configs(
    exp: &ExpConfig,
    mix_idx: usize,
    flows: Vec<FlowSpec>,
    background_ues: usize,
) -> Vec<MultiCellConfig> {
    (0..exp.repeats)
        .map(|rep| MultiCellConfig {
            flows: flows.clone(),
            background_ues,
            duration: exp.duration(),
            seed: coexist_seed(exp.base_seed, mix_idx, rep),
            ..Default::default()
        })
        .collect()
}

/// Pool the i-th flow across repeats.
fn pool_flow(reports: &[MultiCellReport], i: usize) -> Aggregate {
    let mut agg = Aggregate::new("flow");
    for r in reports {
        agg.add(&r.flows[i]);
    }
    agg
}

fn mean<'a>(
    xs: impl Iterator<Item = &'a MultiCellReport>,
    f: impl Fn(&MultiCellReport) -> f64,
) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in xs {
        sum += f(x);
        n += 1;
    }
    sum / n.max(1) as f64
}

/// Render the coexistence experiment: per-flow outcomes and fairness for
/// FBCC-only / GCC-only / mixed cells, an FBCC-only cell-size sweep, and
/// the emergent-vs-scalar load validation.
pub fn coexist(exp: &ExpConfig) -> String {
    let bg_typical = background_population_for(BackgroundLoad::Typical);

    // Batch every mix AND every sweep size into one fan-out: the worker
    // pool sees (mixes + sizes) x repeats jobs at once instead of
    // `repeats` at a time, so wall-clock tracks the slowest job rather
    // than the slowest serial group. Seeds depend only on (mix_idx,
    // repeat), so the reports are byte-identical to per-group runs; the
    // flat result vector is sliced back into groups of `repeats`.
    let mixes = coexist_mixes();
    let sweep_sizes = [2usize, 4, 8];
    let mut configs = Vec::new();
    for (mix_idx, (_, flows)) in mixes.iter().enumerate() {
        configs.extend(coexist_configs(exp, mix_idx, flows.clone(), bg_typical));
    }
    for (k, n) in sweep_sizes.into_iter().enumerate() {
        let flows: Vec<FlowSpec> = (0..n).map(|i| coexist_flow(RateControlKind::Fbcc, i)).collect();
        configs.extend(coexist_configs(exp, 10 + k, flows, bg_typical));
    }
    let all = run_multicells(configs);
    let repeats = exp.repeats.max(1) as usize;
    let mut groups = all.chunks(repeats);

    let mut flows_t = Table::new(
        "Coexist — per-flow outcomes, 4 sessions sharing one cell (typical background population)",
        &["Cell", "Flow", "Tput", "Delay (ms)", "PSNR (dB)", "Freeze"],
    );
    let mut fair_t = Table::new(
        "Coexist — fairness and cell utilization",
        &["Cell", "Jain(tput)", "PRB utilization"],
    );
    for (label, flows) in &mixes {
        let reports = groups.next().expect("one group per mix");
        for (i, flow) in flows.iter().enumerate() {
            let agg = pool_flow(reports, i);
            flows_t.row(vec![
                label.to_string(),
                format!("{i} {}", flow.rate_control.label()),
                mbps(agg.mean_throughput_bps()),
                fnum(agg.median_delay_ms(), 0),
                fnum(agg.mean_psnr_db(), 1),
                pct(agg.freeze_ratio()),
            ]);
        }
        fair_t.row(vec![
            label.to_string(),
            fnum(mean(reports.iter(), MultiCellReport::jain_throughput), 3),
            pct(mean(reports.iter(), |r| r.mean_utilization)),
        ]);
    }

    let mut sweep_t = Table::new(
        "Coexist — FBCC-only cell size sweep (per-flow fair share shrinks, fairness holds)",
        &["N flows", "Per-flow tput", "Jain(tput)", "PRB utilization"],
    );
    for n in sweep_sizes {
        let reports = groups.next().expect("one group per sweep size");
        let mut agg = Aggregate::new("sweep");
        for r in reports {
            for f in &r.flows {
                agg.add(f);
            }
        }
        sweep_t.row(vec![
            n.to_string(),
            mbps(agg.mean_throughput_bps()),
            fnum(mean(reports.iter(), MultiCellReport::jain_throughput), 3),
            pct(mean(reports.iter(), |r| r.mean_utilization)),
        ]);
    }

    let mut out = flows_t.render();
    out.push('\n');
    out.push_str(&fair_t.render());
    out.push('\n');
    out.push_str(&sweep_t.render());
    out.push('\n');
    out.push_str(&coexist_validation(exp));
    out
}

/// Emergent-vs-scalar load validation: one POI360+FBCC session on a cell
/// whose load comes from real background queues must reproduce the same
/// Fig. 17a/b shape (busy clearly worse than idle) as the standalone
/// uplink's calibrated `LoadConfig` scalars.
pub fn coexist_validation(exp: &ExpConfig) -> String {
    let loads = [
        (BackgroundLoad::Idle, Scenario::quiet()),
        (BackgroundLoad::Busy, Scenario::load_sweep()[1]),
    ];
    // Both loads' emergent ensembles go through one fan-out, and both
    // loads' scalar control sessions through another (the old per-load
    // serial loop left the pool idle); seeds depend only on (load,
    // repeat), so outputs match the serial order exactly.
    let mut configs = Vec::new();
    for (load, _) in loads {
        configs.extend(coexist_configs(
            exp,
            20 + load as usize,
            vec![coexist_flow(RateControlKind::Fbcc, 0)],
            background_population_for(load),
        ));
    }
    let emergent = run_multicells(configs);
    let mut session_cfgs = Vec::new();
    for (load, scenario) in loads {
        for rep in 0..exp.repeats {
            session_cfgs.push(SessionConfig {
                scheme: CompressionScheme::Poi360,
                rate_control: RateControlKind::Fbcc,
                network: NetworkKind::Cellular(scenario),
                user: UserArchetype::all()[0],
                duration: exp.duration(),
                seed: coexist_seed(exp.base_seed, 30 + load as usize, rep),
                ..Default::default()
            });
        }
    }
    let scalar = run_parallel(session_cfgs);

    let mut t = Table::new(
        "Coexist — emergent background load vs calibrated scalar (Fig. 17a/b shape)",
        &["Load", "Model", "PSNR (dB)", "Freeze", "Delay (ms)"],
    );
    let repeats = exp.repeats.max(1) as usize;
    for (k, (load, _)) in loads.iter().enumerate() {
        let label = match load {
            BackgroundLoad::Idle => "idle",
            BackgroundLoad::Typical => "typical",
            BackgroundLoad::Busy => "busy",
        };
        // Emergent: a populated shared cell.
        let agg = pool_flow(&emergent[k * repeats..(k + 1) * repeats], 0);
        t.row(vec![
            label.to_string(),
            "emergent cell".into(),
            fnum(agg.mean_psnr_db(), 1),
            pct(agg.freeze_ratio()),
            fnum(agg.median_delay_ms(), 0),
        ]);
        // Scalar: the standalone uplink's calibrated LoadConfig.
        let mut agg = Aggregate::new("scalar");
        for report in &scalar[k * repeats..(k + 1) * repeats] {
            agg.add(report);
        }
        t.row(vec![
            label.to_string(),
            "scalar LoadConfig".into(),
            fnum(agg.mean_psnr_db(), 1),
            pct(agg.freeze_ratio()),
            fnum(agg.median_delay_ms(), 0),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig { duration_secs: 8, repeats: 1, base_seed: 2 }
    }

    #[test]
    fn mode_ablation_renders() {
        let s = mode_ablation(&tiny());
        assert!(s.contains("F1(C=1.8)"));
        assert!(s.contains("POI360"));
    }

    #[test]
    fn edge_ablation_renders_both_paths() {
        let s = edge_relay_ablation(&tiny());
        assert!(s.contains("internet"));
        assert!(s.contains("edge-relay"));
    }

    #[test]
    fn fig5_is_monotone_then_flat() {
        let series = fig5_series(&tiny());
        assert_eq!(series.len(), 12);
        // Rising front.
        assert!(series[2].1 > series[0].1);
        assert!(series[6].1 > series[2].1);
        // Saturation: last two levels within 20%.
        let (a, b) = (series[10].1, series[11].1);
        assert!((b - a).abs() / a < 0.2, "{a} {b}");
    }

    #[test]
    fn table1_renders_and_checks() {
        let s = table1();
        assert!(s.contains("Excellent"));
        assert!(s.contains("OK"));
    }

    #[test]
    fn fig17_axes_render() {
        let exp = tiny();
        let s = fig17(&exp, Fig17Axis::Load);
        assert!(s.contains("idle"));
        assert!(s.contains("busy"));
    }

    #[test]
    fn prediction_ablation_renders_all_users() {
        let s = roi_prediction_ablation();
        for u in UserArchetype::all() {
            assert!(s.contains(u.label()), "{s}");
        }
    }

    #[test]
    fn coexist_renders_mixes_sweep_and_validation() {
        let s = coexist(&tiny());
        assert!(s.contains("FBCC x4"));
        assert!(s.contains("GCC x4"));
        assert!(s.contains("mixed 2+2"));
        assert!(s.contains("Jain"));
        assert!(s.contains("emergent cell"));
        assert!(s.contains("scalar LoadConfig"));
    }

    #[test]
    fn coexist_is_deterministic() {
        let exp = ExpConfig { duration_secs: 5, repeats: 1, base_seed: 3 };
        assert_eq!(coexist(&exp), coexist(&exp));
    }
}
