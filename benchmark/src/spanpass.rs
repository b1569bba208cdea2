//! The traced run: every workload once with spans off and once with spans
//! on, then the micro-drivers, then the per-layer table derived from both.
//!
//! End-to-end numbers never come from here; the spans-off repetition only
//! gives `host.span_overhead.*` its base.

use crate::adapter::{self, Scale, STEP_BATCH, WORKLOADS};
use crate::harness::{run_rep, RepSample};
use crate::layers::{
    Layers, ATTR_PARTS, CELL_CROWDED, GRID_MOBILITY, PAPER_GRID, TRACE_READ, TRACE_WRITE,
};
use crate::span::{self_time_ns, Span, Spans};
use crate::stats::{median, percentile};

/// Room for every span of a pass without growing: the serial workloads
/// open one span per 100 steps, the fan-outs one per job.
const SPAN_CAPACITY: usize = 4_096;

/// One workload's pair of repetitions.
pub struct Traced {
    pub name: &'static str,
    pub off: RepSample,
    pub on: RepSample,
}

pub struct SpanPass {
    pub layers: Layers,
    pub spans: Vec<Span>,
    pub workloads: Vec<Traced>,
}

impl SpanPass {
    pub fn ops_attempted(&self) -> u64 {
        self.workloads.iter().map(|t| t.off.out.ops_attempted + t.on.out.ops_attempted).sum()
    }

    /// Failed operations; a spans-on repetition whose output differs from
    /// the spans-off one counts as one.
    pub fn ops_failed(&self) -> u64 {
        self.workloads
            .iter()
            .map(|t| {
                t.off.out.ops_failed
                    + t.on.out.ops_failed
                    + u64::from(t.off.out.digest != t.on.out.digest)
            })
            .sum()
    }
}

pub fn run(seed: u64, width: usize, scale: Scale) -> SpanPass {
    let (spans, off) = (Spans::enabled(SPAN_CAPACITY), Spans::disabled());
    let mut workloads = Vec::new();
    for name in WORKLOADS {
        let mut w = adapter::workload(name, seed, width, scale).expect("listed workload");
        // A first repetition grows the heap to the workload's size and pays
        // the page faults; without it the pair below is not comparable.
        run_rep(w.as_mut(), &off, 0);
        let unspanned = run_rep(w.as_mut(), &off, 1);
        let spanned = run_rep(w.as_mut(), &spans, 2);
        workloads.push(Traced { name, off: unspanned, on: spanned });
    }
    let mut layers = Layers::new();
    adapter::micro_drivers(&mut layers, seed, width);
    let spans = spans.snapshot();
    derive(&mut layers, &spans, &workloads, width);
    SpanPass { layers, spans, workloads }
}

/// Total and self time of one span name within one workload.
pub struct SpanTotal {
    pub workload: &'static str,
    pub name: &'static str,
    pub spans: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Spans folded by (workload, name), in first-completion order.
pub fn span_totals(spans: &[Span]) -> Vec<SpanTotal> {
    let mut totals: Vec<SpanTotal> = Vec::new();
    for s in spans {
        let at = totals.iter().position(|t| t.workload == s.workload && t.name == s.name);
        let at = at.unwrap_or_else(|| {
            let (workload, name) = (s.workload, s.name);
            totals.push(SpanTotal { workload, name, spans: 0, total_ns: 0, self_ns: 0 });
            totals.len() - 1
        });
        totals[at].spans += 1;
        totals[at].total_ns += s.dur_ns();
        totals[at].self_ns += self_time_ns(s, spans);
    }
    totals
}

fn count(t: &Traced, name: &str) -> f64 {
    let found = t.on.out.counts.iter().find(|(n, _)| *n == name);
    found.unwrap_or_else(|| panic!("{} reports no count named {name}", t.name)).1
}

/// Durations in ns of the spans called `name` in `workload`'s spans-on rep.
fn durations(spans: &[Span], workload: &str, name: &str) -> Vec<f64> {
    let of = spans.iter().filter(|s| s.workload == workload && s.name == name);
    of.map(|s| s.dur_ns() as f64).collect()
}

/// Summed self time in ns of the spans called `name` in `workload`.
fn self_ns(spans: &[Span], workload: &str, name: &str) -> f64 {
    let of = spans.iter().filter(|s| s.workload == workload && s.name == name);
    of.map(|s| self_time_ns(s, spans) as f64).sum()
}

/// Fill in every metric that comes from spans, counts and host counters,
/// then the `attr.*` estimates that combine them with the micro-drivers.
fn derive(layers: &mut Layers, spans: &[Span], workloads: &[Traced], width: usize) {
    let of = |name: &str| workloads.iter().find(|t| t.name == name).expect("every workload ran");
    let total = |workload: &str, name: &str| durations(spans, workload, name).iter().sum::<f64>();

    for t in workloads {
        let (w, sim_s, cpu) = (t.name, t.on.out.sim_s, t.on.cpu);
        layers.set(&format!("host.cpu_s_per_sim_s.{w}"), cpu.total_s() / sim_s);
        layers.set(&format!("host.sys_share.{w}"), cpu.sys_s / cpu.total_s().max(1e-9));
        layers.set(&format!("host.allocs_per_sim_s.{w}"), t.on.allocs as f64 / sim_s);
        layers.set(&format!("host.span_overhead.{w}"), t.on.wall_s / t.off.wall_s);
    }

    let (paper, crowded, grid) = (of(PAPER_GRID), of(CELL_CROWDED), of(GRID_MOBILITY));
    let written = of(TRACE_WRITE);

    // Fan-outs. `run_cases` fans out inside the simulator where no job span
    // reaches, so its efficiency is the timed section's CPU utilisation.
    let jobs = durations(spans, PAPER_GRID, "job");
    let fan_out_ns = total(PAPER_GRID, "run") * width as f64;
    layers.set("sim.workers.fanout_efficiency.paper_grid", jobs.iter().sum::<f64>() / fan_out_ns);
    layers.set(
        "sim.workers.fanout_efficiency.trace_write",
        written.on.cpu.total_s() / (written.on.wall_s * width as f64),
    );
    layers.set(
        "bench.runner.job_wall_ms_max.paper_grid",
        jobs.iter().copied().fold(0.0, f64::max) / 1e6,
    );
    layers.set("bench.study.run_cases_s", total(TRACE_WRITE, "run_cases") / 1e9);

    let batch_us: Vec<f64> = durations(spans, CELL_CROWDED, "step_batch")
        .iter()
        .map(|ns| ns / f64::from(STEP_BATCH) / 1e3)
        .collect();
    layers.set("core.multicell.cell_step_us", median(&batch_us));
    layers.set("core.multicell.cell_step_p99_us", percentile(&batch_us, 0.99));
    layers.set("core.multicell.handovers_per_sim_s", count(grid, "handovers") / grid.on.out.sim_s);

    let records = count(written, "records");
    layers.set("sim.trace.bytes_per_record", count(written, "artifact_bytes") / records);
    layers.set("sim.trace.records_per_sim_s", records / written.on.out.sim_s);

    layers.set("model.freeze_ratio.fbcc", count(paper, "freeze_ratio.fbcc"));
    layers.set("model.freeze_ratio.gcc", count(paper, "freeze_ratio.gcc"));
    layers.set("model.roi_psnr_db.poi360", count(paper, "roi_psnr_db.poi360"));
    layers.set("model.prb_utilization.cell_crowded", count(crowded, "prb_utilization"));
    layers.set("model.jain.cell_crowded", count(crowded, "jain"));

    // Attribution: estimated CPU ns of each part (ns per call from the
    // micro-drivers x exact calls, or a span where the boundary is visible)
    // over the CPU ns of the spans-on timed section.
    let l = |name: &str| layers.get(name);
    let steps = |t: &Traced| t.on.out.sim_s * 1e3;
    let session_glue_ns = l("core.session.step_ns.fbcc") - l("lte.uplink.subframe_ns");
    let estimates: [(&str, Vec<f64>); 5] = [
        (PAPER_GRID, {
            let frames = count(paper, "frames_sent");
            let packets = count(paper, "packets_est");
            let epochs = count(paper, "fw_epochs");
            let cellular_steps = steps(paper) * count(paper, "cellular_share");
            vec![
                l("lte.uplink.subframe_ns") * cellular_steps,
                l("transport.pacer.tick_ns") * steps(paper)
                    + l("transport.rtp.packetize_ns_per_frame") * frames
                    + (l("transport.rtp.reassemble_ns_per_packet")
                        + l("transport.gcc.on_packet_ns")
                        + l("transport.rtcp.on_packet_ns"))
                        * packets,
                // A pipe costs little until something is sent: one send per
                // media packet, one per frame of feedback.
                l("net.pipe.send_poll_ns") * (packets + frames)
                    + l("net.wireline.enqueue_poll_ns")
                        * packets
                        * (1.0 - count(paper, "cellular_share")),
                (l("video.encoder.encode_us_per_frame") * 1e3 + l("video.encoder.region_psnr_ns"))
                    * frames,
                l("viewport.motion.step_ns") * steps(paper),
                l("core.fbcc.on_diag_ns") * epochs + l("core.adaptive.matrix_ns") * frames,
            ]
        }),
        (CELL_CROWDED, {
            vec![
                l("lte.cell.subframe_us.ue500") * 1e3 * steps(crowded),
                session_glue_ns * count(crowded, "flows") * steps(crowded),
            ]
        }),
        (GRID_MOBILITY, {
            let per_mobile = l("lte.grid.observe_ns_per_ue.c61")
                + l("lte.grid.a3_decide_ns")
                + l("lte.grid.motion_step_ns");
            vec![
                l("lte.cell.subframe_us.ue16") * 1e3 * count(grid, "cells") * steps(grid),
                per_mobile * count(grid, "mobiles") * steps(grid),
                session_glue_ns * count(grid, "flows") * steps(grid),
                l("sim.workers.dispatch_ns.wide") * steps(grid),
            ]
        }),
        (TRACE_WRITE, {
            vec![
                l("core.session.step_ns.fbcc") * steps(written),
                l("sim.trace.emit_ns_per_record") * records,
                self_ns(spans, TRACE_WRITE, "artifact_write"),
            ]
        }),
        (TRACE_READ, {
            vec![
                total(TRACE_READ, "parse"),
                total(TRACE_READ, "report"),
                total(TRACE_READ, "chrome"),
            ]
        }),
    ];
    for ((workload, parts), (estimated_for, part_ns)) in ATTR_PARTS.iter().zip(&estimates) {
        assert_eq!(workload, estimated_for, "estimates follow the table's order");
        let cpu_ns = of(workload).on.cpu.total_s() * 1e9;
        let mut attributed = 0.0;
        for (part, ns) in parts.iter().zip(part_ns) {
            layers.set(&format!("attr.{workload}.{part}"), ns / cpu_ns);
            attributed += ns / cpu_ns;
        }
        layers.set(&format!("attr.{workload}.unattributed"), 1.0 - attributed);
    }
}
