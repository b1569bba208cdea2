//! The per-layer metric table: every name the span pass prints, its unit,
//! which way is better, and the end-to-end metric and workloads it should
//! move. `BENCHMARK.json` lists the same rows (a test keeps them equal).

use crate::harness::{Better, PEAK_HEAP_MIB, SETUP_S, SIM_S_PER_REF_S};
use std::collections::BTreeMap;

pub const PAPER_GRID: &str = "paper_grid";
pub const CELL_CROWDED: &str = "cell_crowded";
pub const GRID_MOBILITY: &str = "grid_mobility";
pub const TRACE_WRITE: &str = "trace_write";
pub const TRACE_READ: &str = "trace_read";

/// Parts of each workload's timed section that `attr.<workload>.<part>`
/// estimates; `unattributed` is the remainder, so each row sums to 1.
pub const ATTR_PARTS: [(&str, &[&str]); 5] = [
    (PAPER_GRID, &["lte", "transport", "net", "video", "viewport", "core_rate", "unattributed"]),
    (CELL_CROWDED, &["lte_cell", "sessions", "unattributed"]),
    (GRID_MOBILITY, &["cells", "mobile_prologue", "sessions", "dispatch", "unattributed"]),
    (TRACE_WRITE, &["simulate", "emit", "file_write", "unattributed"]),
    (TRACE_READ, &["parse", "aggregate_report", "chrome", "unattributed"]),
];

/// One row of the table.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this one should move ...
    pub moves: &'static str,
    /// ... on these workloads. Elsewhere the prediction is no change.
    pub on: Vec<&'static str>,
}

fn row(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &[&'static str],
) -> LayerMetric {
    LayerMetric { name: name.into(), unit, better, moves, on: on.to_vec() }
}

/// Every per-layer metric, in print order (layer = crate::module).
pub fn layer_metrics() -> Vec<LayerMetric> {
    use Better::{Higher, Lower};
    const SPEED: &str = SIM_S_PER_REF_S;
    const SESSION: &[&str] = &[PAPER_GRID, TRACE_WRITE];
    let mut t = vec![
        // ---- sim ----
        row("sim.trace.emit_ns_per_record", "ns", Lower, SPEED, &[TRACE_WRITE]),
        row("sim.trace.drain_ns_per_record", "ns", Lower, SPEED, &[TRACE_WRITE]),
        row("sim.trace.bytes_per_record", "B", Lower, PEAK_HEAP_MIB, &[TRACE_WRITE, TRACE_READ]),
        row("sim.trace.records_per_sim_s", "1/sim-s", Lower, SPEED, &[TRACE_WRITE]),
        row("sim.trace.null_probe_ns", "ns", Lower, SPEED, &[PAPER_GRID, CELL_CROWDED]),
        row("sim.workers.dispatch_ns.serial", "ns", Lower, SPEED, &[GRID_MOBILITY]),
        row("sim.workers.dispatch_ns.wide", "ns", Lower, SPEED, &[GRID_MOBILITY]),
        row("sim.workers.fanout_efficiency.paper_grid", "ratio", Higher, SPEED, &[PAPER_GRID]),
        row("sim.workers.fanout_efficiency.trace_write", "ratio", Higher, SPEED, &[TRACE_WRITE]),
        row("sim.json.parse_mib_per_s", "MiB/s", Higher, SPEED, &[TRACE_READ]),
        row("sim.rng.normal_ns", "ns", Lower, SPEED, &[GRID_MOBILITY]),
        // ---- lte ----
        row("lte.cell.subframe_us.ue500", "us", Lower, SPEED, &[CELL_CROWDED]),
        row("lte.cell.subframe_allocs.ue500", "count", Lower, SPEED, &[CELL_CROWDED]),
        row("lte.cell.subframe_us.ue16", "us", Lower, SPEED, &[GRID_MOBILITY]),
        row("lte.cell.attach_us_per_ue", "us", Lower, SETUP_S, &[CELL_CROWDED]),
        row("lte.uplink.subframe_ns", "ns", Lower, SPEED, SESSION),
        row("lte.channel.subframe_ns", "ns", Lower, SPEED, SESSION),
        row("lte.scheduler.grant_ns", "ns", Lower, SPEED, SESSION),
        row("lte.diag.record_ns", "ns", Lower, SPEED, SESSION),
        row("lte.buffer.enqueue_serve_ns_per_packet", "ns", Lower, SPEED, SESSION),
        row("lte.grid.observe_ns_per_ue.c7", "ns", Lower, SPEED, &[GRID_MOBILITY]),
        row("lte.grid.observe_ns_per_ue.c61", "ns", Lower, SPEED, &[GRID_MOBILITY]),
        row("lte.grid.a3_decide_ns", "ns", Lower, SPEED, &[GRID_MOBILITY]),
        row("lte.grid.motion_step_ns", "ns", Lower, SPEED, &[GRID_MOBILITY]),
        row("lte.grid.register_ue_us.c61", "us", Lower, SETUP_S, &[GRID_MOBILITY]),
        // ---- net ----
        row("net.pipe.send_poll_ns", "ns", Lower, SPEED, &[PAPER_GRID]),
        row("net.wireline.enqueue_poll_ns", "ns", Lower, SPEED, &[PAPER_GRID]),
        // ---- transport ----
        row("transport.pacer.tick_ns", "ns", Lower, SPEED, SESSION),
        row("transport.rtp.packetize_ns_per_frame", "ns", Lower, SPEED, SESSION),
        row("transport.rtp.reassemble_ns_per_packet", "ns", Lower, SPEED, SESSION),
        row("transport.gcc.on_packet_ns", "ns", Lower, SPEED, SESSION),
        row("transport.rtcp.on_packet_ns", "ns", Lower, SPEED, SESSION),
        // ---- video ----
        row("video.encoder.encode_us_per_frame", "us", Lower, SPEED, &[PAPER_GRID]),
        row("video.encoder.encode_allocs_per_frame", "count", Lower, SPEED, &[PAPER_GRID]),
        row("video.compression.matrix_ns", "ns", Lower, SPEED, &[PAPER_GRID]),
        row("video.perceptual.pano_matrix_ns", "ns", Lower, SPEED, &[PAPER_GRID]),
        row("video.encoder.region_psnr_ns", "ns", Lower, SPEED, &[PAPER_GRID]),
        // ---- viewport ----
        row("viewport.motion.step_ns", "ns", Lower, SPEED, &[PAPER_GRID]),
        // ---- metrics ----
        row("metrics.dist.percentile_us_per_10k", "us", Lower, SPEED, &[TRACE_READ]),
        // ---- core ----
        row("core.session.step_ns.fbcc", "ns", Lower, SPEED, &[PAPER_GRID]),
        row("core.session.step_ns.gcc", "ns", Lower, SPEED, &[PAPER_GRID]),
        row("core.session.step_ns.occ", "ns", Lower, SPEED, &[PAPER_GRID]),
        row("core.session.step_ns.wireline", "ns", Lower, SPEED, &[PAPER_GRID]),
        row("core.session.step_allocs", "count", Lower, SPEED, &[PAPER_GRID]),
        row("core.fbcc.on_diag_ns", "ns", Lower, SPEED, &[PAPER_GRID]),
        row("core.occ.on_diag_ns", "ns", Lower, SPEED, &[PAPER_GRID]),
        row("core.adaptive.matrix_ns", "ns", Lower, SPEED, &[PAPER_GRID]),
        row("core.session.new_us", "us", Lower, SETUP_S, &[PAPER_GRID]),
        row("core.session.heap_bytes_per_sim_s", "B/sim-s", Lower, PEAK_HEAP_MIB, &[PAPER_GRID]),
        row("core.multicell.cell_step_us", "us", Lower, SPEED, &[CELL_CROWDED]),
        row("core.multicell.cell_step_p99_us", "us", Lower, SPEED, &[CELL_CROWDED]),
        row("core.multicell.grid_step_us.serial", "us", Lower, SPEED, &[GRID_MOBILITY]),
        row("core.multicell.grid_step_us.wide", "us", Lower, SPEED, &[GRID_MOBILITY]),
        row("core.multicell.grid_step_p99_us.serial", "us", Lower, SPEED, &[GRID_MOBILITY]),
        row("core.multicell.grid_step_p99_us.wide", "us", Lower, SPEED, &[GRID_MOBILITY]),
        row("core.multicell.grid_ns_per_cell", "ns", Lower, SPEED, &[GRID_MOBILITY]),
        row("core.multicell.grid_ns_per_mobile_ue", "ns", Lower, SPEED, &[GRID_MOBILITY]),
        row("core.multicell.grid_allocs_per_step", "count", Lower, SPEED, &[GRID_MOBILITY]),
        row("core.multicell.handovers_per_sim_s", "1/sim-s", Lower, SPEED, &[GRID_MOBILITY]),
        row("core.multicell.grid_new_ms", "ms", Lower, SETUP_S, &[GRID_MOBILITY]),
        // ---- analyse ----
        row("analyse.ingest.parse_mib_per_s", "MiB/s", Higher, SPEED, &[TRACE_READ]),
        row("analyse.aggregate.add_ns_per_record", "ns", Lower, SPEED, &[TRACE_READ]),
        row("analyse.report.study_report_ms", "ms", Lower, SPEED, &[TRACE_READ]),
        row("analyse.chrome.export_mib_per_s", "MiB/s", Higher, SPEED, &[TRACE_READ]),
        row("analyse.ingest.heap_bytes_per_input_byte", "B/B", Lower, PEAK_HEAP_MIB, &[TRACE_READ]),
        // ---- bench ----
        row("bench.runner.run_jobs_overhead_us", "us", Lower, SPEED, &[PAPER_GRID]),
        row("bench.runner.job_wall_ms_max.paper_grid", "ms", Lower, SPEED, &[PAPER_GRID]),
        row("bench.study.run_cases_s", "s", Lower, SPEED, &[TRACE_WRITE]),
    ];
    // ---- host: what each workload costs the machine; never gating ----
    for (w, _) in ATTR_PARTS {
        t.push(row(format!("host.cpu_s_per_sim_s.{w}"), "s/sim-s", Lower, SPEED, &[w]));
        t.push(row(format!("host.sys_share.{w}"), "ratio", Lower, SPEED, &[w]));
        t.push(row(format!("host.allocs_per_sim_s.{w}"), "1/sim-s", Lower, SPEED, &[w]));
        t.push(row(format!("host.span_overhead.{w}"), "ratio", Lower, SPEED, &[w]));
    }
    // ---- attr: estimated share of each workload's timed section ----
    for (w, parts) in ATTR_PARTS {
        for part in parts {
            t.push(row(format!("attr.{w}.{part}"), "ratio", Lower, SPEED, &[w]));
        }
    }
    // ---- model: exact simulated statistics beside the paper's; never gating ----
    t.push(row("model.freeze_ratio.fbcc", "ratio", Lower, SPEED, &[]));
    t.push(row("model.freeze_ratio.gcc", "ratio", Lower, SPEED, &[]));
    t.push(row("model.roi_psnr_db.poi360", "dB", Higher, SPEED, &[]));
    t.push(row("model.prb_utilization.cell_crowded", "ratio", Higher, SPEED, &[]));
    t.push(row("model.jain.cell_crowded", "ratio", Higher, SPEED, &[]));
    t
}

/// The values of one span pass, keyed by table name.
#[derive(Debug)]
pub struct Layers {
    table: Vec<LayerMetric>,
    values: BTreeMap<String, f64>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers { table: layer_metrics(), values: BTreeMap::new() }
    }

    /// Record a metric. Panics on a name the table does not list or a
    /// second value for one name: both are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(self.table.iter().any(|m| m.name == name), "{name} is not in the table");
        assert!(self.values.insert(name.to_string(), value).is_none(), "{name} set twice");
    }

    pub fn get(&self, name: &str) -> f64 {
        *self.values.get(name).unwrap_or_else(|| panic!("{name} was not measured yet"))
    }

    /// Every table row with its value, in table order; `None` if unmeasured.
    pub fn rows(&self) -> impl Iterator<Item = (&LayerMetric, Option<f64>)> {
        self.table.iter().map(|m| (m, self.values.get(&m.name).copied()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_fits_the_contract() {
        let table = layer_metrics();
        assert!(table.len() <= 128, "{} per-layer metrics", table.len());
        let mut names: Vec<&str> = table.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), table.len(), "names are unique");
        for m in &table {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(m.name.len() <= 64 && m.name.chars().all(ok), "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{}", m.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(m.unit.len() <= 16 && m.unit.chars().all(unit_ok), "{}", m.unit);
        }
    }

    #[test]
    fn layers_accept_each_table_name_once() {
        let mut layers = Layers::new();
        assert!(layers.rows().all(|(_, value)| value.is_none()));
        layers.set("sim.rng.normal_ns", 4.5);
        assert_eq!(layers.get("sim.rng.normal_ns"), 4.5);
        assert_eq!(layers.rows().filter(|(_, value)| value.is_some()).count(), 1);
        let twice = std::panic::catch_unwind(move || layers.set("sim.rng.normal_ns", 1.0));
        assert!(twice.is_err());
        let unknown = std::panic::catch_unwind(|| Layers::new().set("no.such_metric", 1.0));
        assert!(unknown.is_err());
    }
}
