//! The paper's evaluation as one condition grid.
//!
//! Every session figure — Fig. 6, §6.1.1 Figs. 11–14, §6.1.2 Figs. 15–16,
//! §6.2 Fig. 17 and the session ablations — is a list of labelled
//! [`Condition`]s (compression scheme × rate control × network) printed
//! through a list of [`Column`]s. A [`FigCtx`] pools a condition's
//! `users × repeats` sessions the first time any figure asks for it and
//! never again, so `reproduce all` simulates each distinct condition once
//! however many figures slice it. [`FIGURES`] is the index: artifact stem,
//! caption, rows, renderer (DESIGN.md §3 is written from it).

use crate::runner::{run_jobs, session_seed, ExpConfig};
use poi360_core::config::{CompressionScheme, NetworkKind, RateControlKind, SessionConfig};
use poi360_core::multicell::{FlowSpec, MultiCell, MultiCellConfig, MultiCellReport};
use poi360_core::report::Aggregate;
use poi360_core::session::Session;
use poi360_lte::buffer::PacketLike;
use poi360_lte::cell::background_population_for;
use poi360_lte::scenario::{BackgroundLoad, Scenario};
use poi360_lte::uplink::CellUplink;
use poi360_metrics::dist::{percentile, Cdf, Summary};
use poi360_metrics::mos::Mos;
use poi360_metrics::table::{self, fnum, mbps, pct, Table};
use poi360_sim::time::SimTime;
use poi360_viewport::motion::UserArchetype;
use std::cell::RefCell;
use std::rc::Rc;

// ---------------------------------------------------------------------
// The grid: conditions, the once-per-context pool, columns
// ---------------------------------------------------------------------

/// One cell of the evaluation grid. Its sessions are the five user
/// archetypes × `ExpConfig::repeats`, seeded by [`session_seed`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Condition {
    /// Spatial compression scheme.
    pub scheme: CompressionScheme,
    /// Rate control.
    pub rate_control: RateControlKind,
    /// Access network.
    pub network: NetworkKind,
}

impl Condition {
    /// The full system — adaptive compression over FBCC on the cellular
    /// baseline — which every other condition departs from on one axis.
    pub fn poi360() -> Self {
        Condition {
            scheme: CompressionScheme::Poi360,
            rate_control: RateControlKind::Fbcc,
            network: NetworkKind::Cellular(Scenario::baseline()),
        }
    }
}

/// A figure row: its label and the condition it reduces.
pub type Row = (String, Condition);

/// A figure column: header and cell formatter over a pooled condition.
pub type Column = table::Column<Aggregate>;

/// What the figure renderers share: the scale, and every condition pooled
/// so far.
pub struct FigCtx {
    /// Session length, repeats per user and base seed.
    pub cfg: ExpConfig,
    pools: RefCell<Vec<(Condition, Rc<[Aggregate]>)>>,
}

impl FigCtx {
    /// A context that has simulated nothing yet.
    pub fn new(cfg: ExpConfig) -> Self {
        FigCtx { cfg, pools: RefCell::new(Vec::new()) }
    }

    /// The condition's sessions pooled per user, in `UserArchetype::all()`
    /// order — simulated on the first request, remembered after.
    pub fn users(&self, condition: Condition) -> Rc<[Aggregate]> {
        if let Some((_, pools)) = self.pools.borrow().iter().find(|(c, _)| *c == condition) {
            return pools.clone();
        }
        let Condition { scheme, rate_control, network } = condition;
        let mut jobs = Vec::new();
        for (user_idx, &user) in UserArchetype::all().iter().enumerate() {
            for repeat in 0..self.cfg.repeats {
                jobs.push(SessionConfig {
                    scheme,
                    rate_control,
                    network,
                    user,
                    seed: session_seed(self.cfg.base_seed, user_idx, repeat),
                    duration: self.cfg.duration(),
                    ..Default::default()
                });
            }
        }
        let reports = run_jobs(jobs, |cfg| Session::new(cfg).run());
        let mut reports = reports.iter();
        let pools: Rc<[Aggregate]> = UserArchetype::all()
            .iter()
            .map(|user| {
                let mut pool = Aggregate::new(user.label());
                reports.by_ref().take(self.cfg.repeats as usize).for_each(|r| pool.add(r));
                pool
            })
            .collect();
        self.pools.borrow_mut().push((condition, pools.clone()));
        pools
    }

    /// The condition's sessions pooled over all users, user-major.
    pub fn pool(&self, condition: Condition) -> Aggregate {
        let mut all = Aggregate::new("all users");
        self.users(condition).iter().for_each(|user| all.merge(user));
        all
    }

    /// How many conditions this context has simulated.
    pub fn simulated(&self) -> usize {
        self.pools.borrow().len()
    }

    /// One table: a `key` column of row labels, then `columns` of each
    /// row's pooled condition.
    pub fn table(&self, title: &str, key: &str, columns: &[Column], rows: &[Row]) -> String {
        let mut t = Table::keyed(title, &[key], columns);
        for (label, condition) in rows {
            t.keyed_row(&[label], columns, &self.pool(*condition));
        }
        t.render()
    }

    /// The text of one [`FIGURES`] artifact.
    pub fn render(&self, figure: &Figure) -> String {
        let &(.., rows, render) = figure;
        render(self, &rows())
    }
}

fn pctl(samples: &[f64], q: f64, decimals: usize) -> String {
    fnum(percentile(samples, q).unwrap_or(0.0), decimals)
}

// The column vocabulary. A figure that words a header differently pairs
// its own header with the column's reducer: `("Freeze ratio", FREEZE.1)`.
const PSNR: Column = ("PSNR (dB)", |a| fnum(a.mean_psnr_db(), 1));
const PSNR_STD: Column = ("PSNR std", |a| fnum(a.psnr_std_db(), 1));
const FREEZE: Column = ("Freeze", |a| pct(a.freeze_ratio()));
const LEVEL_STD: Column = ("Level std", |a| fnum(a.mean_level_std(), 2));
const MEDIAN_DELAY: Column = ("Median delay (ms)", |a| fnum(a.median_delay_ms(), 0));
const MEAN_M: Column = ("Mean M (ms)", |a| fnum(Summary::of(&a.mismatch_ms).mean, 0));
const TPUT: Column = ("Mean tput (Mbps)", |a| mbps(a.mean_throughput_bps()));
const TPUT_STD: Column = ("Tput std (Mbps)", |a| mbps(a.throughput_std_bps()));
/// The MOS PDF, worst band first (Figs. 11c/d, 16b, 17b/d/f).
const MOS_PDF: [Column; 5] = [
    ("Bad", |a| pct(a.mos().pdf()[0])),
    ("Poor", |a| pct(a.mos().pdf()[1])),
    ("Fair", |a| pct(a.mos().pdf()[2])),
    ("Good", |a| pct(a.mos().pdf()[3])),
    ("EXC", |a| pct(a.mos().pdf()[4])),
];
/// Fig. 12: the 2 s sliding-window level stds.
const LEVEL_STD_WINDOWS: [Column; 4] = [
    ("mean std", LEVEL_STD.1),
    ("p50", |a| pctl(&a.level_stds, 0.5, 2)),
    ("p90", |a| pctl(&a.level_stds, 0.9, 2)),
    ("p99", |a| pctl(&a.level_stds, 0.99, 2)),
];
/// Fig. 13: the frame-delay distribution.
const DELAY_PCTLS: [Column; 4] = [
    ("p10 (ms)", |a| pctl(a.freeze.delays_ms(), 0.1, 0)),
    ("median", |a| pctl(a.freeze.delays_ms(), 0.5, 0)),
    ("p90", |a| pctl(a.freeze.delays_ms(), 0.9, 0)),
    ("p99", |a| pctl(a.freeze.delays_ms(), 0.99, 0)),
];

// ---------------------------------------------------------------------
// The index
// ---------------------------------------------------------------------

/// One figure artifact: `(subcommand, artifact stem, caption, rows,
/// renderer)`. The caption is what `--list` shows, and it is how the
/// `== … ==` header the renderer emits starts — a test holds every
/// checked-in artifact to that. `rows` are the conditions the renderer is
/// handed; a figure that runs no standalone sessions has none.
pub type Figure =
    (&'static str, &'static str, &'static str, fn() -> Vec<Row>, fn(&FigCtx, &[Row]) -> String);

/// Every figure artifact, in the order `reproduce all` emits them.
pub const FIGURES: &[Figure] = &[
    ("table1", "table1", "Table 1 — PSNR to Mean Opinion Score mapping", Vec::new, table1),
    ("fig5", "fig5", "Fig. 5 — Sum UL TBS/s vs firmware buffer occupancy", Vec::new, fig5),
    (
        "fig6",
        "fig6",
        "Fig. 6 — CDF of uplink firmware buffer level under WebRTC/GCC",
        // POI360 over stock GCC — §6.1.2's second row.
        || rate_control_rows().split_off(1),
        fig6,
    ),
    ("fig11", "fig11", "Fig. 11 — user-perceived ROI quality", compression_rows, |c, rows| {
        let columns = [&[("PSNR mean (dB)", PSNR.1), PSNR_STD][..], &MOS_PDF].concat();
        per_network(c, rows, "Fig. 11 — user-perceived ROI quality over {net} (paper cellular: POI360 11-13 dB above baselines)", &columns)
    }),
    (
        "fig12",
        "fig12",
        "Fig. 12 — ROI compression-level std in 2 s windows",
        compression_rows,
        |c, rows| {
            per_network(c, rows, "Fig. 12 — ROI compression-level std in 2 s windows over {net} (paper cellular: baselines 5-14x POI360)", &LEVEL_STD_WINDOWS)
        },
    ),
    ("fig13", "fig13", "Fig. 13 — video frame delay", compression_rows, |c, rows| {
        per_network(c, rows, "Fig. 13 — video frame delay over {net} (paper cellular: POI360 median 460 ms, 15% below Conduit)", &DELAY_PCTLS)
    }),
    ("fig14", "fig14", "Fig. 14 — video freeze ratio", compression_rows, |c, rows| {
        per_network(c, rows, "Fig. 14 — video freeze ratio over {net} (paper: wireline all <2%; cellular POI360 <3%, baselines 8-17%)", &[("Freeze ratio", FREEZE.1)])
    }),
    ("fig15", "fig15", "Fig. 15 — operating region of FBCC", rate_control_rows, fig15),
    ("fig16", "fig16", "Fig. 16a — throughput & freeze ratio", rate_control_rows, |c, rows| {
        let a = c.table("Fig. 16a — throughput & freeze ratio (paper: both ~3 Mbps; GCC std 57% higher; freeze FBCC 1.6% vs GCC 4.7%)", "Rate control", &[TPUT, TPUT_STD, ("Freeze ratio", FREEZE.1)], rows);
        let b = c.table("Fig. 16b — video quality MOS PDF (paper: FBCC 69% good + 23% excellent; GCC >40% fair)", "Rate control", &MOS_PDF, rows);
        format!("{a}\n{b}")
    }),
    (
        "fig17",
        "fig17_load",
        "Fig. 17a/b — background traffic load",
        || scenario_rows(&Scenario::load_sweep()),
        |c, rows| {
            fig17(c, rows, "Fig. 17a/b — background traffic load (paper: idle ~1% freeze; busy ~4% freeze, -2 dB PSNR)")
        },
    ),
    (
        "fig17",
        "fig17_signal",
        "Fig. 17c/d — signal strength",
        || scenario_rows(&Scenario::signal_sweep()),
        |c, rows| {
            fig17(c, rows, "Fig. 17c/d — signal strength (paper: freeze <3% everywhere; weak signal loses quality (no excellent frames))")
        },
    ),
    (
        "fig17",
        "fig17_speed",
        "Fig. 17e/f — mobility",
        || scenario_rows(&Scenario::mobility_sweep()),
        |c, rows| {
            fig17(c, rows, "Fig. 17e/f — mobility (paper: 15 mph ~static; 7% freeze at 30 mph, 9% at 50 mph; quality stays good/exc)")
        },
    ),
    (
        "coexist",
        "coexist",
        "Coexist — per-flow outcomes, 4 sessions sharing one cell",
        Vec::new,
        coexist,
    ),
    (
        "ablation",
        "ablation_prediction",
        "Ablation (§8) — linear ROI prediction hit rate vs horizon",
        Vec::new,
        roi_prediction_ablation,
    ),
    (
        "ablation",
        "ablation_modes",
        "Ablation (§4.2) — fixed compression modes vs adaptive selection",
        // Pin POI360 to four of its eight modes, then the adaptive selector:
        // no single fixed mode wins on both quality and delay.
        || {
            use CompressionScheme::{FixedMode, Poi360};
            scheme_rows(&[FixedMode(1), FixedMode(3), FixedMode(5), FixedMode(8), Poi360])
        },
        |c, rows| {
            c.table(
                "Ablation (§4.2) — fixed compression modes vs adaptive selection",
                "Mode",
                &[PSNR, PSNR_STD, FREEZE, LEVEL_STD],
                rows,
            )
        },
    ),
    (
        "ablation",
        "ablation_prediction_policy",
        "Ablation (§8) — sender-side ROI prediction per user archetype",
        || scheme_rows(&[CompressionScheme::Poi360, CompressionScheme::Poi360Predictive]),
        prediction_policy_ablation,
    ),
    (
        "ablation",
        "ablation_edge",
        "Ablation (§8) — mobile-edge relaying vs Internet path",
        // §8's "improving the ROI update responsiveness": the shortened path
        // should cut M and let the selector run bolder modes.
        || {
            let edge = NetworkKind::CellularEdge(Scenario::baseline());
            vec![
                ("internet".into(), Condition::poi360()),
                ("edge-relay".into(), Condition { network: edge, ..Condition::poi360() }),
            ]
        },
        |c, rows| {
            c.table(
                "Ablation (§8) — mobile-edge relaying vs Internet path",
                "Path",
                &[PSNR, MEDIAN_DELAY, FREEZE, MEAN_M],
                rows,
            )
        },
    ),
];

/// The two access networks §6.1 compares, as its panels name them.
fn networks() -> [(&'static str, NetworkKind); 2] {
    [("wireline", NetworkKind::Wireline), ("cellular", NetworkKind::Cellular(Scenario::baseline()))]
}

/// §6.1.1: three schemes × two networks, all on GCC (the paper isolates
/// compression by fixing the transport to WebRTC's default).
fn compression_rows() -> Vec<Row> {
    let rate_control = RateControlKind::Gcc;
    let schemes = CompressionScheme::all();
    let panel = |(_, network)| {
        schemes.map(|scheme| (scheme.label().into(), Condition { scheme, rate_control, network }))
    };
    networks().into_iter().flat_map(panel).collect()
}

/// §6.1.2: POI360 compression over FBCC vs over stock GCC.
fn rate_control_rows() -> Vec<Row> {
    let row = |rate_control: RateControlKind| {
        (rate_control.label().into(), Condition { rate_control, ..Condition::poi360() })
    };
    [RateControlKind::Fbcc, RateControlKind::Gcc].map(row).to_vec()
}

/// §6.2: the full system under each field scenario of one sweep.
fn scenario_rows(scenarios: &[Scenario]) -> Vec<Row> {
    let row = |&s: &Scenario| {
        (s.label(), Condition { network: NetworkKind::Cellular(s), ..Condition::poi360() })
    };
    scenarios.iter().map(row).collect()
}

/// The full system with its compression scheme swapped.
fn scheme_rows(schemes: &[CompressionScheme]) -> Vec<Row> {
    let row = |&scheme: &CompressionScheme| {
        (scheme.label().into(), Condition { scheme, ..Condition::poi360() })
    };
    schemes.iter().map(row).collect()
}

/// Figs. 11–14 print one panel per network: `title` with `{net}` named.
fn per_network(ctx: &FigCtx, rows: &[Row], title: &str, columns: &[Column]) -> String {
    let mut out = String::new();
    for (net, network) in networks() {
        let panel: Vec<Row> = rows.iter().filter(|r| r.1.network == network).cloned().collect();
        out.push_str(&ctx.table(&title.replace("{net}", net), "Scheme", columns, &panel));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Fig. 5 — firmware-buffer occupancy vs. uplink TBS throughput
// ---------------------------------------------------------------------

struct Filler(u32);
impl PacketLike for Filler {
    fn wire_bytes(&self) -> u32 {
        self.0
    }
}

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

fn fig5(ctx: &FigCtx, _: &[Row]) -> String {
    let mut t = Table::new(
        "Fig. 5 — Sum UL TBS/s vs firmware buffer occupancy (paper: linear rise, saturation ~4.5-5.5 Mbps by ~15-25 KB)",
        &["Buffer (KB)", "UL TBS/s (Mbps)"],
    );
    for (kb, mbps_v) in fig5_series(&ctx.cfg) {
        t.row(vec![fnum(kb, 1), fnum(mbps_v, 2)]);
    }
    t.render()
}

// ---------------------------------------------------------------------
// Fig. 6 — firmware-buffer CDF under stock WebRTC (GCC) rate control
// ---------------------------------------------------------------------

fn fig6(ctx: &FigCtx, rows: &[Row]) -> String {
    let agg = ctx.pool(rows[0].1);
    let cdf = Cdf::new(agg.fw_buffer.iter().map(|b| b / 1e3).collect());
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

fn table1(_: &FigCtx, _: &[Row]) -> String {
    let mut t =
        Table::new("Table 1 — PSNR to Mean Opinion Score mapping", &["MOS", "PSNR range (dB)"]);
    t.row(vec!["Excellent".into(), "> 37".into()]);
    t.row(vec!["Good".into(), "31 - 37".into()]);
    t.row(vec!["Fair".into(), "25 - 31".into()]);
    t.row(vec!["Poor".into(), "20 - 25".into()]);
    t.row(vec!["Bad".into(), "< 20".into()]);
    let mut out = t.render();
    // Self-check the implementation (`poi360-metrics::mos`) against the table.
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
// Figs. 15 & 17 — the renderers that are more than a column list
// ---------------------------------------------------------------------

/// Fig. 15: the (buffer level, UL TBS/s) operating points per controller,
/// bucketed like the paper's regions.
fn fig15(ctx: &FigCtx, rows: &[Row]) -> String {
    let mut out = String::new();
    for (rc, condition) in rows {
        let agg = ctx.pool(*condition);
        let mut t = Table::new(
            format!("Fig. 15 — operating region of {rc} (paper: FBCC at the sweet spot, GCC in the low-usage region)"),
            &["Buffer (KB)", "p25 TBS (Mbps)", "median TBS", "p75 TBS", "samples"],
        );
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
            let [p25, median, p75] = [0.25, 0.5, 0.75].map(|q| pctl(&rates, q, 2));
            t.row(vec![label, p25, median, p75, rates.len().to_string()]);
        }
        out.push_str(&t.render());
        let buf_kb: Vec<f64> = agg.fw_buffer.iter().map(|b| b / 1e3).collect();
        out.push_str(&format!(
            "{rc}: median buffer {} KB, near-empty fraction {}\n\n",
            pctl(&buf_kb, 0.5, 1),
            pct(agg.buffer_empty_fraction()),
        ));
    }
    out
}

/// One Fig. 17 panel pair: PSNR, freeze and the MOS PDF per scenario.
fn fig17(ctx: &FigCtx, rows: &[Row], title: &str) -> String {
    ctx.table(title, "Condition", &[&[PSNR, FREEZE][..], &MOS_PDF].concat(), rows)
}

// ---------------------------------------------------------------------
// Ablations (beyond the paper's figures, motivated by §8)
// ---------------------------------------------------------------------

/// §8 ablation: tile-level hit rate of the linear ROI predictor vs.
/// horizon, per user archetype — quantifies "the head position after
/// 120 ms is unpredictable".
fn roi_prediction_ablation(_: &FigCtx, _: &[Row]) -> String {
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

/// POI360 vs POI360+linear-ROI-prediction per user archetype: the two
/// conditions' per-user pools side by side — measures the §8 claim that
/// prediction only helps extrapolable motion.
fn prediction_policy_ablation(ctx: &FigCtx, rows: &[Row]) -> String {
    let pools: Vec<_> = rows.iter().map(|r| ctx.users(r.1)).collect();
    let mut t = Table::new(
        "Ablation (§8) — sender-side ROI prediction per user archetype",
        &["User", "POI360 PSNR", "POI360+pred PSNR", "POI360 M (ms)", "+pred M (ms)"],
    );
    for (k, user) in UserArchetype::all().iter().enumerate() {
        let cells = |column: Column| pools.iter().map(move |p| (column.1)(&p[k]));
        t.row(
            [user.label().to_string()]
                .into_iter()
                .chain(cells(PSNR))
                .chain(cells(MEAN_M))
                .collect(),
        );
    }
    t.render()
}

// ---------------------------------------------------------------------
// Coexist — N telephony sessions sharing one eNodeB cell (beyond the
// paper: its §3.3 multi-user mechanism run with every UE under control)
// ---------------------------------------------------------------------

const FLOW_COLUMNS: &[Column] = &[("Tput", TPUT.1), ("Delay (ms)", MEDIAN_DELAY.1), PSNR, FREEZE];
const LOAD_COLUMNS: &[Column] = &[PSNR, FREEZE, ("Delay (ms)", MEDIAN_DELAY.1)];

fn coexist_flow(rate_control: RateControlKind, idx: usize) -> FlowSpec {
    let users = UserArchetype::all();
    FlowSpec { scheme: CompressionScheme::Poi360, rate_control, user: users[idx % users.len()] }
}

/// The cell compositions the coexist experiment compares.
fn coexist_mixes() -> Vec<(&'static str, Vec<FlowSpec>)> {
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

fn mean(reports: &[MultiCellReport], f: impl Fn(&MultiCellReport) -> f64) -> f64 {
    reports.iter().map(f).sum::<f64>() / reports.len().max(1) as f64
}

/// Render the coexistence experiment: per-flow outcomes and fairness for
/// FBCC-only / GCC-only / mixed cells, an FBCC-only cell-size sweep, and
/// the emergent-vs-scalar load validation.
fn coexist(ctx: &FigCtx, _: &[Row]) -> String {
    let exp = &ctx.cfg;
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
    let all = run_jobs(configs, |cfg| MultiCell::new(cfg).run());
    let repeats = exp.repeats.max(1) as usize;
    let mut groups = all.chunks(repeats);

    let mut flows_t = Table::keyed(
        "Coexist — per-flow outcomes, 4 sessions sharing one cell (typical background population)",
        &["Cell", "Flow"],
        FLOW_COLUMNS,
    );
    let mut fair_t = Table::new(
        "Coexist — fairness and cell utilization",
        &["Cell", "Jain(tput)", "PRB utilization"],
    );
    for (label, flows) in &mixes {
        let reports = groups.next().expect("one group per mix");
        for (i, flow) in flows.iter().enumerate() {
            let key = format!("{i} {}", flow.rate_control.label());
            flows_t.keyed_row(&[label, &key], FLOW_COLUMNS, &pool_flow(reports, i));
        }
        fair_t.row(vec![
            label.to_string(),
            fnum(mean(reports, MultiCellReport::jain_throughput), 3),
            pct(mean(reports, |r| r.mean_utilization)),
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
            (TPUT.1)(&agg),
            fnum(mean(reports, MultiCellReport::jain_throughput), 3),
            pct(mean(reports, |r| r.mean_utilization)),
        ]);
    }

    let tables = [flows_t.render(), fair_t.render(), sweep_t.render(), coexist_validation(exp)];
    tables.join("\n")
}

/// Emergent-vs-scalar load validation: one POI360+FBCC session on a cell
/// whose load comes from real background queues must reproduce the same
/// Fig. 17a/b shape (busy clearly worse than idle) as the standalone
/// uplink's calibrated `LoadConfig` scalars.
fn coexist_validation(exp: &ExpConfig) -> String {
    let loads = [
        ("idle", BackgroundLoad::Idle, Scenario::quiet()),
        ("busy", BackgroundLoad::Busy, Scenario::load_sweep()[1]),
    ];
    // Both loads' emergent ensembles go through one fan-out, and both
    // loads' scalar control sessions through another; seeds depend only
    // on (load, repeat), so outputs match a per-load serial order exactly.
    let mut configs = Vec::new();
    let mut session_cfgs = Vec::new();
    for (_, load, scenario) in loads {
        configs.extend(coexist_configs(
            exp,
            20 + load as usize,
            vec![coexist_flow(RateControlKind::Fbcc, 0)],
            background_population_for(load),
        ));
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
    let emergent = run_jobs(configs, |cfg| MultiCell::new(cfg).run());
    let scalar = run_jobs(session_cfgs, |cfg| Session::new(cfg).run());

    let mut t = Table::keyed(
        "Coexist — emergent background load vs calibrated scalar (Fig. 17a/b shape)",
        &["Load", "Model"],
        LOAD_COLUMNS,
    );
    let repeats = exp.repeats.max(1) as usize;
    for (k, (label, ..)) in loads.iter().enumerate() {
        let group = k * repeats..(k + 1) * repeats;
        // Emergent: a populated shared cell.
        t.keyed_row(
            &[label, "emergent cell"],
            LOAD_COLUMNS,
            &pool_flow(&emergent[group.clone()], 0),
        );
        // Scalar: the standalone uplink's calibrated LoadConfig.
        let mut agg = Aggregate::new("scalar");
        scalar[group].iter().for_each(|report| agg.add(report));
        t.keyed_row(&[label, "scalar LoadConfig"], LOAD_COLUMNS, &agg);
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
    fn all_figures_simulate_each_distinct_condition_once() {
        let ctx = FigCtx::new(ExpConfig { duration_secs: 4, repeats: 2, base_seed: 2 });
        for figure in FIGURES {
            let text = ctx.render(figure);
            assert!(text.starts_with(&format!("== {}", figure.2)), "{}: {text}", figure.1);
        }
        // Figures slicing one sweep (11–14, 15–16) declare the same rows.
        let mut sweeps: Vec<Vec<Row>> = FIGURES.iter().map(|f| (f.3)()).collect();
        sweeps.dedup();
        let requested = sweeps.concat();
        let (mut distinct, mut shared) = (Vec::new(), Vec::new());
        for (label, condition) in &requested {
            match distinct.contains(condition) {
                true => shared.push(format!("{label}: {condition:?}")),
                false => distinct.push(*condition),
            }
        }
        assert_eq!(
            (requested.len(), distinct.len(), ctx.simulated()),
            (26, 20, 20),
            "(rows requested, distinct conditions, conditions simulated); rows sharing an \
             earlier row's condition:\n{}",
            shared.join("\n")
        );
        // The per-user pools are the pooled condition, grouped.
        let users = ctx.users(Condition::poi360());
        assert_eq!(users.iter().map(|u| u.sessions).collect::<Vec<_>>(), [2; 5]);
        let all = ctx.pool(Condition::poi360());
        assert_eq!(all.sessions, 10);
        assert_eq!(all.roi_psnr_db.len(), users.iter().map(|u| u.roi_psnr_db.len()).sum());
        assert_eq!(ctx.simulated(), 20);
    }

    #[test]
    fn fig6_alone_simulates_one_condition() {
        let ctx = FigCtx::new(tiny());
        let fig6 = FIGURES.iter().find(|f| f.1 == "fig6").expect("fig6 is a figure");
        assert!(ctx.render(fig6).contains("near-empty"));
        assert_eq!(ctx.simulated(), 1);
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
    fn prediction_ablation_renders_all_users() {
        let s = roi_prediction_ablation(&FigCtx::new(tiny()), &[]);
        for u in UserArchetype::all() {
            assert!(s.contains(u.label()), "{s}");
        }
    }

    #[test]
    fn coexist_renders_mixes_sweep_and_validation() {
        let s = coexist(&FigCtx::new(tiny()), &[]);
        assert!(s.contains("FBCC x4"));
        assert!(s.contains("GCC x4"));
        assert!(s.contains("mixed 2+2"));
        assert!(s.contains("Jain"));
        assert!(s.contains("emergent cell"));
        assert!(s.contains("scalar LoadConfig"));
    }

    #[test]
    fn coexist_is_deterministic() {
        let ctx = FigCtx::new(ExpConfig { duration_secs: 5, repeats: 1, base_seed: 3 });
        assert_eq!(coexist(&ctx, &[]), coexist(&ctx, &[]));
    }
}
