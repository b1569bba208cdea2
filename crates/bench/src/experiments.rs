//! The paper's evaluation as one condition grid.
//!
//! Every session figure — Fig. 6, §6.1.1 Figs. 11–14, §6.1.2 Figs. 15–16,
//! §6.2 Fig. 17 and the session ablations — is a list of labelled
//! [`Condition`]s (compression scheme × rate control × network) printed
//! through a list of [`Column`]s. A [`FigCtx`] pools a condition's
//! `users × repeats` sessions the first time any figure asks for it and
//! never again, so `reproduce all` simulates each distinct condition once
//! however many figures slice it. [`FIGURES`] is the index: artifact stem,
//! caption, paper note, [`Layout`] (DESIGN.md §3 is written from it).

use crate::runner::{run_jobs, session_seed, ExpConfig};
use poi360_core::config::{CompressionScheme, NetworkKind, RateControlKind, SessionConfig};
use poi360_core::multicell::{FlowSpec, MultiCell, MultiCellConfig, MultiCellReport};
use poi360_core::report::{Aggregate, SessionReport};
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
use CompressionScheme::{FixedMode, Poi360, Poi360Predictive};
use Layout::{Custom, Panels, Text};
use RateControlKind::{Fbcc, Gcc};

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
            scheme: Poi360,
            rate_control: Fbcc,
            network: NetworkKind::Cellular(Scenario::baseline()),
        }
    }
}

/// A figure row: its label and the condition it reduces.
pub type Row = (String, Condition);

/// A figure column: header and cell formatter over a pooled condition.
pub type Column = table::Column<Aggregate>;

/// One condition's sessions, pooled.
pub struct Pools {
    /// Every session, user-major.
    pub all: Aggregate,
    /// Each user's repeats, in `UserArchetype::all()` order.
    pub users: Vec<Aggregate>,
}

/// What the figure renderers share: the scale, and every condition pooled
/// so far.
pub struct FigCtx {
    /// Session length, repeats per user and base seed.
    pub cfg: ExpConfig,
    pools: RefCell<Vec<(Condition, Rc<Pools>)>>,
}

impl FigCtx {
    /// A context that has simulated nothing yet.
    pub fn new(cfg: ExpConfig) -> Self {
        FigCtx { cfg, pools: RefCell::new(Vec::new()) }
    }

    /// The condition's pooled sessions — simulated on the first request,
    /// remembered after.
    pub fn pool(&self, condition: Condition) -> Rc<Pools> {
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
        let mut all = Aggregate::new("all users");
        let users = UserArchetype::all().map(|user| {
            let mut pool = Aggregate::new(user.label());
            reports.by_ref().take(self.cfg.repeats as usize).for_each(|r| pool.add(r));
            all.merge(&pool);
            pool
        });
        let pools = Rc::new(Pools { users: users.into(), all });
        self.pools.borrow_mut().push((condition, pools.clone()));
        pools
    }

    /// How many conditions this context has simulated.
    pub fn simulated(&self) -> usize {
        self.pools.borrow().len()
    }

    /// One table: a `key` column of row labels, then `columns` of each
    /// row's pooled condition.
    fn table(&self, title: &str, key: &str, columns: &[Column], rows: &[Row]) -> String {
        let mut t = Table::keyed(title, &[key], columns);
        for (label, condition) in rows {
            t.keyed_row(&[label], columns, &self.pool(*condition).all);
        }
        t.render()
    }

    /// The text of one [`FIGURES`] artifact.
    pub fn render(&self, figure: &Figure) -> String {
        let rows = rows(figure);
        match figure.4 {
            Layout::Text(text) => text(&self.cfg, &title(figure, "")),
            Layout::Table(key, columns, _) => {
                self.table(&title(figure, ""), key, &columns.concat(), &rows)
            }
            Layout::Panels(columns) => {
                let panel = |(net, network)| {
                    let rows: Vec<Row> =
                        rows.iter().filter(|r| r.1.network == network).cloned().collect();
                    let title = title(figure, &format!(" over {net}"));
                    self.table(&title, "Scheme", &columns.concat(), &rows) + "\n"
                };
                networks().map(panel).concat()
            }
            Layout::Custom(_, render) => render(self, figure, &rows),
        }
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
/// Fig. 17: one panel pair per sweep.
const SCENARIO_COLUMNS: &[&[Column]] = &[&[PSNR, FREEZE], &MOS_PDF];

// ---------------------------------------------------------------------
// The index
// ---------------------------------------------------------------------

/// One figure artifact: `(subcommand, artifact stem, caption, paper note,
/// layout)`. The caption is what `--list` shows; caption and note make the
/// `== … ==` title ([`title`]), so every checked-in artifact opens with its
/// caption — a test holds them to that.
pub type Figure = (&'static str, &'static str, &'static str, &'static str, Layout);

/// How a figure turns into text.
#[derive(Clone, Copy)]
pub enum Layout {
    /// No condition rows (a static table, a link-level sweep, shared-cell
    /// ensembles): the scale and the title in, the artifact out.
    Text(fn(&ExpConfig, &str) -> String),
    /// One table: the key header, the column groups, the rows.
    Table(&'static str, &'static [&'static [Column]], fn() -> Vec<Row>),
    /// §6.1.1's [`compression_rows`], one `Scheme` table per access network.
    Panels(&'static [&'static [Column]]),
    /// Rows through a renderer that is more than a column list.
    Custom(fn() -> Vec<Row>, fn(&FigCtx, &Figure, &[Row]) -> String),
}

/// Every figure artifact, in the order `reproduce all` emits them — a
/// table, so two lines a row rather than rustfmt's one line a field.
#[rustfmt::skip]
pub const FIGURES: &[Figure] = &[
    ("table1", "table1", "Table 1 — PSNR to Mean Opinion Score mapping",
        "", Text(table1)),
    ("fig5", "fig5", "Fig. 5 — Sum UL TBS/s vs firmware buffer occupancy",
        "paper: linear rise, saturation ~4.5-5.5 Mbps by ~15-25 KB", Text(fig5)),
    ("fig6", "fig6", "Fig. 6 — CDF of uplink firmware buffer level under WebRTC/GCC",
        "paper: ~40% of time empty", Custom(|| vec![rate_control_row(Gcc)], fig6)),
    ("fig11", "fig11", "Fig. 11 — user-perceived ROI quality",
        "paper cellular: POI360 11-13 dB above baselines",
        Panels(&[&[("PSNR mean (dB)", PSNR.1), PSNR_STD], &MOS_PDF])),
    ("fig12", "fig12", "Fig. 12 — ROI compression-level std in 2 s windows",
        "paper cellular: baselines 5-14x POI360", Panels(&[&LEVEL_STD_WINDOWS])),
    ("fig13", "fig13", "Fig. 13 — video frame delay",
        "paper cellular: POI360 median 460 ms, 15% below Conduit", Panels(&[&DELAY_PCTLS])),
    ("fig14", "fig14", "Fig. 14 — video freeze ratio",
        "paper: wireline all <2%; cellular POI360 <3%, baselines 8-17%",
        Panels(&[&[("Freeze ratio", FREEZE.1)]])),
    ("fig15", "fig15", "Fig. 15 — operating region",
        "paper: FBCC at the sweet spot, GCC in the low-usage region",
        Custom(|| [Fbcc, Gcc].map(rate_control_row).into(), fig15)),
    ("fig16", "fig16", "Fig. 16a — throughput & freeze ratio",
        "paper: both ~3 Mbps; GCC std 57% higher; freeze FBCC 1.6% vs GCC 4.7%",
        Custom(|| [Fbcc, Gcc].map(rate_control_row).into(), fig16)),
    ("fig17", "fig17_load", "Fig. 17a/b — background traffic load",
        "paper: idle ~1% freeze; busy ~4% freeze, -2 dB PSNR",
        Layout::Table("Condition", SCENARIO_COLUMNS, || Scenario::load_sweep().map(scenario_row).into())),
    ("fig17", "fig17_signal", "Fig. 17c/d — signal strength",
        "paper: freeze <3% everywhere; weak signal loses quality (no excellent frames)",
        Layout::Table("Condition", SCENARIO_COLUMNS, || Scenario::signal_sweep().map(scenario_row).into())),
    ("fig17", "fig17_speed", "Fig. 17e/f — mobility",
        "paper: 15 mph ~static; 7% freeze at 30 mph, 9% at 50 mph; quality stays good/exc",
        Layout::Table("Condition", SCENARIO_COLUMNS, || Scenario::mobility_sweep().map(scenario_row).into())),
    ("coexist", "coexist", "Coexist — per-flow outcomes, 4 sessions sharing one cell",
        "typical background population", Text(coexist)),
    ("ablation", "ablation_prediction", "Ablation (§8) — linear ROI prediction hit rate vs horizon",
        "paper: unpredictable beyond ~120 ms", Text(roi_prediction_ablation)),
    // Pin POI360 to four of its eight modes, then the adaptive selector:
    // no single fixed mode wins on both quality and delay.
    ("ablation", "ablation_modes", "Ablation (§4.2) — fixed compression modes vs adaptive selection",
        "", Layout::Table("Mode", &[&[PSNR, PSNR_STD, FREEZE, LEVEL_STD]],
            || [FixedMode(1), FixedMode(3), FixedMode(5), FixedMode(8), Poi360].map(scheme_row).into())),
    ("ablation", "ablation_prediction_policy", "Ablation (§8) — sender-side ROI prediction per user archetype",
        "", Custom(|| [Poi360, Poi360Predictive].map(scheme_row).into(), prediction_policy_ablation)),
    // §8's "improving the ROI update responsiveness": the shortened path
    // should cut M and let the selector run bolder modes.
    ("ablation", "ablation_edge", "Ablation (§8) — mobile-edge relaying vs Internet path",
        "", Layout::Table("Path", &[&[PSNR, MEDIAN_DELAY, FREEZE, MEAN_M]], edge_rows)),
];

/// A figure's `== … ==` title: its caption, what this table of it adds
/// (`" over cellular"`), and the paper's number it is read against.
fn title(figure: &Figure, panel: &str) -> String {
    let &(_, _, caption, note, _) = figure;
    match note {
        "" => format!("{caption}{panel}"),
        _ => format!("{caption}{panel} ({note})"),
    }
}

/// The conditions a figure pools, in the order it prints them.
pub fn rows(figure: &Figure) -> Vec<Row> {
    match figure.4 {
        Text(_) => Vec::new(),
        Panels(_) => compression_rows(),
        Layout::Table(_, _, rows) | Custom(rows, _) => rows(),
    }
}

/// The two access networks §6.1 compares, as its panels name them.
fn networks() -> [(&'static str, NetworkKind); 2] {
    [("wireline", NetworkKind::Wireline), ("cellular", NetworkKind::Cellular(Scenario::baseline()))]
}

/// §6.1.1: three schemes × two networks, all on GCC (the paper isolates
/// compression by fixing the transport to WebRTC's default).
fn compression_rows() -> Vec<Row> {
    let row = |scheme: CompressionScheme, network| {
        (scheme.label().into(), Condition { scheme, rate_control: Gcc, network })
    };
    let panel = |(_, network)| CompressionScheme::all().map(|scheme| row(scheme, network));
    networks().into_iter().flat_map(panel).collect()
}

/// §6.1.2: POI360 compression over one rate control.
fn rate_control_row(rate_control: RateControlKind) -> Row {
    (rate_control.label().into(), Condition { rate_control, ..Condition::poi360() })
}

/// §6.2: the full system under one field scenario.
fn scenario_row(scenario: Scenario) -> Row {
    let network = NetworkKind::Cellular(scenario);
    (scenario.label(), Condition { network, ..Condition::poi360() })
}

/// The full system with its compression scheme swapped.
fn scheme_row(scheme: CompressionScheme) -> Row {
    (scheme.label().into(), Condition { scheme, ..Condition::poi360() })
}

/// §8: the Internet path against a relay at the mobile edge.
fn edge_rows() -> Vec<Row> {
    let network = NetworkKind::CellularEdge(Scenario::baseline());
    vec![
        ("internet".into(), Condition::poi360()),
        ("edge-relay".into(), Condition { network, ..Condition::poi360() }),
    ]
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

fn fig5(exp: &ExpConfig, title: &str) -> String {
    let mut t = Table::new(title, &["Buffer (KB)", "UL TBS/s (Mbps)"]);
    for (kb, mbps_v) in fig5_series(exp) {
        t.row(vec![fnum(kb, 1), fnum(mbps_v, 2)]);
    }
    t.render()
}

// ---------------------------------------------------------------------
// Fig. 6 — firmware-buffer CDF under stock WebRTC (GCC) rate control
// ---------------------------------------------------------------------

fn fig6(ctx: &FigCtx, figure: &Figure, rows: &[Row]) -> String {
    let cdf = Cdf::new(ctx.pool(rows[0].1).all.fw_buffer.iter().map(|b| b / 1e3).collect());
    let mut t = Table::new(title(figure, ""), &["Buffer (KB)", "CDF"]);
    for x in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0] {
        t.row(vec![fnum(x, 1), fnum(cdf.at(x), 3)]);
    }
    t.render() + &format!("near-empty (<0.5 KB) fraction: {}\n", pct(cdf.at(0.5)))
}

// ---------------------------------------------------------------------
// Table 1 — PSNR → MOS mapping
// ---------------------------------------------------------------------

fn table1(_: &ExpConfig, title: &str) -> String {
    let mut t = Table::new(title, &["MOS", "PSNR range (dB)"]);
    // Each band with a PSNR inside it, to self-check the implementation
    // (`poi360-metrics::mos`) against the table.
    for (band, range, psnr, mos) in [
        ("Excellent", "> 37", 40.0, Mos::Excellent),
        ("Good", "31 - 37", 34.0, Mos::Good),
        ("Fair", "25 - 31", 28.0, Mos::Fair),
        ("Poor", "20 - 25", 22.0, Mos::Poor),
        ("Bad", "< 20", 15.0, Mos::Bad),
    ] {
        t.row(vec![band.into(), range.into()]);
        assert_eq!(Mos::from_psnr(psnr), mos);
    }
    t.render() + "implementation check: OK\n"
}

// ---------------------------------------------------------------------
// Figs. 15 & 16 — the renderers that are more than one column list
// ---------------------------------------------------------------------

/// Fig. 15: the (buffer level, UL TBS/s) operating points per controller,
/// bucketed like the paper's regions.
fn fig15(ctx: &FigCtx, figure: &Figure, rows: &[Row]) -> String {
    let mut out = String::new();
    for (rc, condition) in rows {
        let agg = &ctx.pool(*condition).all;
        let mut t = Table::new(
            title(figure, &format!(" of {rc}")),
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

/// Fig. 16: two tables over the same two rows.
fn fig16(ctx: &FigCtx, figure: &Figure, rows: &[Row]) -> String {
    let a = [TPUT, TPUT_STD, ("Freeze ratio", FREEZE.1)];
    let b =
        "Fig. 16b — video quality MOS PDF (paper: FBCC 69% good + 23% excellent; GCC >40% fair)";
    let a = ctx.table(&title(figure, ""), "Rate control", &a, rows);
    format!("{a}\n{}", ctx.table(b, "Rate control", &MOS_PDF, rows))
}

// ---------------------------------------------------------------------
// Ablations (beyond the paper's figures, motivated by §8)
// ---------------------------------------------------------------------

/// §8 ablation: tile-level hit rate of the linear ROI predictor vs.
/// horizon, per user archetype — quantifies "the head position after
/// 120 ms is unpredictable".
fn roi_prediction_ablation(_: &ExpConfig, title: &str) -> String {
    use poi360_video::frame::TileGrid;
    use poi360_viewport::motion::{HeadMotion, MotionConfig};
    use poi360_viewport::predictor::LinearPredictor;

    let grid = TileGrid::POI360;
    let horizons_ms = [40u64, 80, 120, 240, 460, 900];
    let mut t = Table::new(title, &["User", "40ms", "80ms", "120ms", "240ms", "460ms", "900ms"]);
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
            let hits: Vec<bool> = (0..total - steps)
                .filter_map(|i| Some(preds[h][i].as_ref()?.center == rois[i + steps].center))
                .collect();
            let hit = hits.iter().filter(|&&hit| hit).count();
            cells.push(pct(hit as f64 / hits.len().max(1) as f64));
        }
        t.row(cells);
    }
    t.render()
}

/// POI360 vs POI360+linear-ROI-prediction per user archetype: the two
/// conditions' per-user pools side by side — measures the §8 claim that
/// prediction only helps extrapolable motion.
fn prediction_policy_ablation(ctx: &FigCtx, figure: &Figure, rows: &[Row]) -> String {
    let pools: Vec<_> = rows.iter().map(|r| ctx.pool(r.1)).collect();
    let mut t = Table::new(
        title(figure, ""),
        &["User", "POI360 PSNR", "POI360+pred PSNR", "POI360 M (ms)", "+pred M (ms)"],
    );
    for (k, user) in UserArchetype::all().iter().enumerate() {
        let cells = |column: Column| pools.iter().map(move |p| (column.1)(&p.users[k]));
        let mut row = vec![user.label().to_string()];
        row.extend(cells(PSNR).chain(cells(MEAN_M)));
        t.row(row);
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
    FlowSpec { scheme: Poi360, rate_control, user: users[idx % users.len()] }
}

/// The cell compositions the coexist experiment compares.
fn coexist_mixes() -> Vec<(&'static str, Vec<FlowSpec>)> {
    let fbcc = |i| coexist_flow(Fbcc, i);
    let gcc = |i| coexist_flow(Gcc, i);
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

fn pooled<'a>(reports: impl IntoIterator<Item = &'a SessionReport>) -> Aggregate {
    let mut agg = Aggregate::new("pool");
    reports.into_iter().for_each(|r| agg.add(r));
    agg
}

/// The i-th flow pooled across repeats.
fn pool_flow(reports: &[MultiCellReport], i: usize) -> Aggregate {
    pooled(reports.iter().map(|r| &r.flows[i]))
}

/// The cells every cell-level table ends with: Jain index, PRB utilization.
fn fairness(reports: &[MultiCellReport]) -> [String; 2] {
    let mean = |f: fn(&MultiCellReport) -> f64| {
        reports.iter().map(f).sum::<f64>() / reports.len().max(1) as f64
    };
    [fnum(mean(MultiCellReport::jain_throughput), 3), pct(mean(|r| r.mean_utilization))]
}

/// Render the coexistence experiment: per-flow outcomes and fairness for
/// FBCC-only / GCC-only / mixed cells, an FBCC-only cell-size sweep, and
/// the emergent-vs-scalar load validation.
fn coexist(exp: &ExpConfig, title: &str) -> String {
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
        let flows: Vec<FlowSpec> = (0..n).map(|i| coexist_flow(Fbcc, i)).collect();
        configs.extend(coexist_configs(exp, 10 + k, flows, bg_typical));
    }
    let all = run_jobs(configs, |cfg| MultiCell::new(cfg).run());
    let repeats = exp.repeats.max(1) as usize;
    let mut groups = all.chunks(repeats);

    let mut flows_t = Table::keyed(title, &["Cell", "Flow"], FLOW_COLUMNS);
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
        fair_t.row([label.to_string()].into_iter().chain(fairness(reports)).collect());
    }

    let mut sweep_t = Table::new(
        "Coexist — FBCC-only cell size sweep (per-flow fair share shrinks, fairness holds)",
        &["N flows", "Per-flow tput", "Jain(tput)", "PRB utilization"],
    );
    for n in sweep_sizes {
        let reports = groups.next().expect("one group per sweep size");
        let flows = pooled(reports.iter().flat_map(|r| &r.flows));
        sweep_t
            .row([n.to_string(), (TPUT.1)(&flows)].into_iter().chain(fairness(reports)).collect());
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
            vec![coexist_flow(Fbcc, 0)],
            background_population_for(load),
        ));
        for rep in 0..exp.repeats {
            session_cfgs.push(SessionConfig {
                scheme: Poi360,
                rate_control: Fbcc,
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
        t.keyed_row(&[label, "scalar LoadConfig"], LOAD_COLUMNS, &pooled(&scalar[group]));
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig { duration_secs: 8, repeats: 1, base_seed: 2 }
    }

    fn figure(stem: &str) -> &'static Figure {
        FIGURES.iter().find(|f| f.1 == stem).expect("a FIGURES stem")
    }

    #[test]
    fn all_figures_simulate_each_distinct_condition_once() {
        // What each figure must print besides its caption: its row labels.
        let needles: &[(&str, &[&str])] = &[
            ("fig11", &["over wireline", "over cellular", "POI360", "Conduit", "Pyramid"]),
            ("fig15", &["of FBCC", "of GCC"]),
            ("fig16", &["Fig. 16b", "FBCC", "GCC"]),
            ("fig17_load", &["idle", "busy"]),
            ("fig17_signal", &["-115dBm", "-82dBm", "-73dBm"]),
            ("fig17_speed", &["15mph", "30mph", "50mph"]),
            ("ablation_modes", &["F1(C=1.8)", "F8", "POI360"]),
            ("ablation_edge", &["internet", "edge-relay"]),
        ];
        let ctx = FigCtx::new(ExpConfig { duration_secs: 4, repeats: 2, base_seed: 2 });
        for figure in FIGURES {
            let text = ctx.render(figure);
            assert!(text.starts_with(&format!("== {}", figure.2)), "{}: {text}", figure.1);
            for needle in needles.iter().filter(|n| n.0 == figure.1).flat_map(|n| n.1) {
                assert!(text.contains(needle), "{} lacks {needle:?}: {text}", figure.1);
            }
        }
        let requested: Vec<Row> = FIGURES.iter().flat_map(rows).collect();
        let (mut distinct, mut shared) = (Vec::new(), Vec::new());
        for (label, condition) in &requested {
            match distinct.contains(condition) {
                true => shared.push(format!("{label}: {condition:?}")),
                false => distinct.push(*condition),
            }
        }
        assert_eq!(
            (requested.len(), distinct.len(), ctx.simulated()),
            (46, 20, 20),
            "(figure rows, distinct conditions, conditions simulated); rows sharing an \
             earlier row's condition:\n{}",
            shared.join("\n")
        );
        // The per-user pools are the pooled condition, grouped.
        let pool = ctx.pool(Condition::poi360());
        assert_eq!(pool.users.iter().map(|u| u.sessions).collect::<Vec<_>>(), [2; 5]);
        assert_eq!(pool.all.sessions, 10);
        let per_user: Vec<f64> = pool.users.iter().flat_map(|u| u.roi_psnr_db.clone()).collect();
        assert_eq!(pool.all.roi_psnr_db, per_user);
        assert_eq!(ctx.simulated(), 20);
    }

    #[test]
    fn fig6_alone_simulates_one_condition() {
        let ctx = FigCtx::new(tiny());
        assert!(ctx.render(figure("fig6")).contains("near-empty"));
        assert_eq!(ctx.simulated(), 1);
    }

    #[test]
    fn parallel_order_is_stable() {
        let pool = || FigCtx::new(tiny()).pool(Condition::poi360());
        assert_eq!(pool().all.roi_psnr_db, pool().all.roi_psnr_db, "fan-out must be deterministic");
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
        let s = FigCtx::new(tiny()).render(figure("ablation_prediction"));
        for u in UserArchetype::all() {
            assert!(s.contains(u.label()), "{s}");
        }
    }

    #[test]
    fn coexist_renders_mixes_sweep_and_validation() {
        let s = FigCtx::new(tiny()).render(figure("coexist"));
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
        assert_eq!(coexist(&exp, ""), coexist(&exp, ""));
    }
}
