//! What one repeat of a workload measured, and how the repeats of a run
//! become the metrics it prints.

use crate::stats::{median, tail, Outcomes};
use crate::trace::{Span, Tracer};
use std::collections::BTreeMap;

/// Executor counters summed over one repeat's submissions.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecTotals {
    /// `WorkloadNode::compute_time` of vertices produced by `ops::data`
    /// operations (and any operation outside `ops::train`).
    pub df_s: f64,
    /// `WorkloadNode::compute_time` of vertices produced by `ops::train`.
    pub ml_s: f64,
    /// `ExecutionReport::ops_executed`.
    pub ops: u64,
    /// `ExecutionReport::artifacts_loaded`.
    pub loaded: u64,
    /// `ExecutionReport::nodes_skipped`.
    pub skipped: u64,
    /// `ExecutionReport::warmstarts`.
    pub warmstarts: u64,
    /// `ExecutionReport::load_seconds`: charged by the `CostModel`, not
    /// measured.
    pub load_charged_s: f64,
}

/// One repeat: a fresh data directory, a fixed job count, and what the
/// client and the server reported about it.
#[derive(Debug, Default)]
pub struct Repeat {
    /// Whether spans were recorded in this repeat.
    pub traced: bool,
    /// Share of CPU time the hypervisor stole during the repeat.
    pub steal: f64,
    /// Left out of the metrics: the host withheld too much CPU time.
    pub disturbed: bool,
    /// Building the inputs and opening the server, up to the first submit.
    pub setup_s: f64,
    /// First submit to last durable ack.
    pub wall_s: f64,
    /// Submission outcomes.
    pub outcomes: Outcomes,
    /// Submit-to-ack latency of submissions that add new work.
    pub new_ms: Vec<f64>,
    /// Submit-to-ack latency of resubmissions of already-served specs.
    pub replay_ms: Vec<f64>,
    /// `ServerStats::run_seconds` at the end of the repeat.
    pub run_s: f64,
    /// `ServerStats::baseline_seconds` at the end of the repeat.
    pub baseline_s: f64,
    /// Mean model quality of the repeat (see the workload for which).
    pub mean_score: f64,
    /// `OptimizerServer::open` on the directory the repeat left: the
    /// mean of [`crate::inproc::REOPENS`] opens.
    pub reopen_s: f64,
    /// Journal records that reopen replayed.
    pub reopen_records: u64,
    /// Bytes in the data directory after the repeat.
    pub disk_bytes: u64,
    /// Bytes of journal files (`*.wal`) in it.
    pub journal_bytes: u64,
    /// Bytes of snapshot files (`*.egsnap`) in it.
    pub snapshot_bytes: u64,
    /// `ServerStats::snapshots_compacted`.
    pub compactions: u64,
    /// Experiment Graph vertices at the end.
    pub eg_vertices: u64,
    /// `storage_stats`: materialized artifacts.
    pub store_artifacts: u64,
    /// `storage_stats`: unique bytes held.
    pub store_unique: u64,
    /// `storage_stats`: logical bytes materialized.
    pub store_logical: u64,
    /// Executor counters.
    pub exec: ExecTotals,
    /// `PlannedWorkload::optimizer_seconds` per submission, in ms.
    pub planner_ms: Vec<f64>,
    /// Growth of `lock_wait_ns` (summed over shards) during the repeat.
    pub lock_wait_ns: u64,
    /// `WorkloadSummary::queue_ms` per co-serve reply.
    pub queue_ms: Vec<f64>,
    /// Client latency minus `queue_ms` minus `run_seconds`, per reply.
    pub outside_exec_ms: Vec<f64>,
    /// co-serve `Stats` deltas: overload and drain rejections.
    pub serve_rejected: u64,
    /// co-serve `Stats` delta: timed-out submissions.
    pub serve_timed_out: u64,
    /// co-serve `Stats` delta: protocol errors.
    pub serve_protocol_errors: u64,
}

impl Repeat {
    /// Acknowledged workloads per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.outcomes.acked as f64 / self.wall_s
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Percentile picks recorded beside the result, so a reader knows which
/// tail each `*_p99_ms` metric reports and from how many samples per
/// repeat.
#[derive(Debug, Default)]
pub struct TailNotes(pub Vec<(&'static str, f64, usize)>);

impl TailNotes {
    /// The median over repeats of each repeat's tail (see
    /// [`tail`]): one disturbed repeat cannot move it.
    fn pick(&mut self, name: &'static str, per_repeat: &[&[f64]]) -> f64 {
        let tails: Vec<(f64, f64)> = per_repeat.iter().filter_map(|s| tail(s)).collect();
        let p = tails.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
        let n = per_repeat.iter().map(|s| s.len()).min().unwrap_or(0);
        self.0.push((name, if p.is_finite() { p } else { 0.0 }, n));
        median(&tails.iter().map(|t| t.1).collect::<Vec<_>>())
    }
}

/// The median over repeats of each repeat's median.
fn median_of_repeats(per_repeat: &[&[f64]]) -> f64 {
    median(&per_repeat.iter().map(|s| median(s)).collect::<Vec<_>>())
}

fn per_repeat(reps: &[&Repeat], f: impl Fn(&Repeat) -> f64) -> f64 {
    median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn pooled(reps: &[&Repeat], f: impl Fn(&Repeat) -> &[f64]) -> Vec<f64> {
    reps.iter().flat_map(|r| f(r).iter().copied()).collect()
}

/// End-to-end metrics, from the undisturbed untraced repeats.
pub fn end_to_end(repeats: &[Repeat], notes: &mut TailNotes) -> Vec<Metric> {
    let reps: Vec<&Repeat> = repeats
        .iter()
        .filter(|r| !r.traced && !r.disturbed)
        .collect();
    let new_ms: Vec<&[f64]> = reps.iter().map(|r| r.new_ms.as_slice()).collect();
    let replay_ms: Vec<&[f64]> = reps.iter().map(|r| r.replay_ms.as_slice()).collect();
    vec![
        m("setup_s", per_repeat(&reps, |r| r.setup_s), "s"),
        m("wall_s", per_repeat(&reps, |r| r.wall_s), "s"),
        m(
            "throughput_wps",
            per_repeat(&reps, Repeat::throughput),
            "1/s",
        ),
        m("latency_p50_ms", median_of_repeats(&new_ms), "ms"),
        m(
            "latency_p99_ms",
            notes.pick("latency_p99_ms", &new_ms),
            "ms",
        ),
        m("replay_p50_ms", median_of_repeats(&replay_ms), "ms"),
        m(
            "replay_p99_ms",
            notes.pick("replay_p99_ms", &replay_ms),
            "ms",
        ),
        m(
            "run_over_baseline",
            per_repeat(&reps, |r| r.run_s / r.baseline_s),
            "ratio",
        ),
        m("mean_score", per_repeat(&reps, |r| r.mean_score), "auc"),
        m("reopen_s", per_repeat(&reps, |r| r.reopen_s), "s"),
        m(
            "disk_bytes_per_wl",
            per_repeat(&reps, |r| r.disk_bytes as f64 / r.outcomes.acked as f64),
            "B",
        ),
    ]
}

/// Spans of one repeat, grouped by name, in the order they were opened.
type ByName<'a> = BTreeMap<&'static str, Vec<&'a Span>>;

fn spans_by_name(spans: &[Span], repeat: usize) -> ByName<'_> {
    let mut out = ByName::new();
    for s in spans.iter().filter(|s| s.repeat == repeat) {
        out.entry(s.name).or_default().push(s);
    }
    out
}

/// Mean publish time of the last tenth of a repeat's submissions over
/// that of the first tenth.
fn tail_over_head(publish: &[&Span]) -> f64 {
    let n = publish.len();
    if n == 0 {
        return 0.0;
    }
    let k = (n / 10).max(1);
    let mean_ms = |s: &[&Span]| s.iter().map(|s| s.ms()).sum::<f64>() / s.len() as f64;
    let head = mean_ms(&publish[..k]);
    if head > 0.0 {
        mean_ms(&publish[n - k..]) / head
    } else {
        0.0
    }
}

/// Per-layer metrics, from the undisturbed traced repeats (and the
/// tracing overhead against the undisturbed untraced ones).
pub fn per_layer(repeats: &[Repeat], tracer: &Tracer, notes: &mut TailNotes) -> Vec<Metric> {
    let traced: Vec<(usize, &Repeat)> = repeats
        .iter()
        .enumerate()
        .filter(|(_, r)| r.traced && !r.disturbed)
        .collect();
    let reps: Vec<&Repeat> = traced.iter().map(|(_, r)| *r).collect();
    let untraced: Vec<f64> = repeats
        .iter()
        .filter(|r| !r.traced && !r.disturbed)
        .map(|r| r.wall_s)
        .collect();

    // Stage self times (ns), pooled over the traced repeats reported.
    let self_ns = tracer.self_times(|repeat| traced.iter().any(|(i, _)| *i == repeat));
    let stage_ms = |name: &str| -> Vec<f64> {
        self_ns
            .get(name)
            .map(|v| v.iter().map(|ns| *ns as f64 / 1e6).collect())
            .unwrap_or_default()
    };
    let mean_ms = |name: &str| crate::stats::mean(&stage_ms(name));
    let publish_ms = stage_ms("publish");
    let by_repeat: Vec<ByName<'_>> = traced
        .iter()
        .map(|(i, _)| spans_by_name(tracer.spans(), *i))
        .collect();
    let per_traced = |f: &dyn Fn(&ByName<'_>) -> f64| -> f64 {
        median(&by_repeat.iter().map(f).collect::<Vec<_>>())
    };
    let exec_s = per_traced(&|b| {
        b.get("exec")
            .map_or(0.0, |v| v.iter().map(|s| s.ms()).sum::<f64>() / 1e3)
    });
    let tail_ratio = per_traced(&|b| b.get("publish").map_or(0.0, |v| tail_over_head(v)));
    let queue_ms: Vec<&[f64]> = reps.iter().map(|r| r.queue_ms.as_slice()).collect();
    let publish_by_repeat: Vec<Vec<f64>> = by_repeat
        .iter()
        .map(|b| {
            b.get("publish")
                .map_or_else(Vec::new, |v| v.iter().map(|s| s.ms()).collect())
        })
        .collect();
    let publish_sets: Vec<&[f64]> = publish_by_repeat.iter().map(Vec::as_slice).collect();
    let mut all = Outcomes::default();
    for r in repeats {
        all.absorb(&r.outcomes);
    }
    let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
    vec![
        m("prune.ms", mean_ms("prune"), "ms"),
        m("plan.ms", mean_ms("plan"), "ms"),
        m(
            "plan.planner_ms",
            crate::stats::mean(&pooled(&reps, |r| &r.planner_ms)),
            "ms",
        ),
        m("exec.s", exec_s, "s"),
        m("exec.df_s", per_repeat(&reps, |r| r.exec.df_s), "s"),
        m("exec.ml_s", per_repeat(&reps, |r| r.exec.ml_s), "s"),
        m(
            "exec.ops",
            per_repeat(&reps, |r| r.exec.ops as f64),
            "count",
        ),
        m(
            "exec.loaded",
            per_repeat(&reps, |r| r.exec.loaded as f64),
            "count",
        ),
        m(
            "exec.skipped",
            per_repeat(&reps, |r| r.exec.skipped as f64),
            "count",
        ),
        m(
            "exec.warmstarts",
            per_repeat(&reps, |r| r.exec.warmstarts as f64),
            "count",
        ),
        m(
            "exec.load_charged_s",
            per_repeat(&reps, |r| r.exec.load_charged_s),
            "s",
        ),
        m("publish.ms", crate::stats::mean(&publish_ms), "ms"),
        m(
            "publish.p99_ms",
            notes.pick("publish.p99_ms", &publish_sets),
            "ms",
        ),
        m("publish.tail_over_head", tail_ratio, "ratio"),
        m(
            "publish.lock_wait_ms",
            per_repeat(&reps, |r| r.lock_wait_ns as f64 / 1e6),
            "ms",
        ),
        m("submit.self_ms", mean_ms("submit"), "ms"),
        m(
            "store.artifacts",
            per_repeat(&reps, |r| r.store_artifacts as f64),
            "count",
        ),
        m(
            "store.unique_mb",
            per_repeat(&reps, |r| mb(r.store_unique)),
            "MiB",
        ),
        m(
            "store.logical_mb",
            per_repeat(&reps, |r| mb(r.store_logical)),
            "MiB",
        ),
        m(
            "store.dedup_ratio",
            per_repeat(&reps, |r| {
                if r.store_unique == 0 {
                    0.0
                } else {
                    r.store_logical as f64 / r.store_unique as f64
                }
            }),
            "ratio",
        ),
        m(
            "eg.vertices",
            per_repeat(&reps, |r| r.eg_vertices as f64),
            "count",
        ),
        m(
            "journal.bytes",
            per_repeat(&reps, |r| r.journal_bytes as f64),
            "B",
        ),
        m(
            "snapshot.bytes",
            per_repeat(&reps, |r| r.snapshot_bytes as f64),
            "B",
        ),
        m(
            "durable.compactions",
            per_repeat(&reps, |r| r.compactions as f64),
            "count",
        ),
        m(
            "reopen.records",
            per_repeat(&reps, |r| r.reopen_records as f64),
            "count",
        ),
        m("serve.queue_p50_ms", median_of_repeats(&queue_ms), "ms"),
        m(
            "serve.queue_p99_ms",
            notes.pick("serve.queue_p99_ms", &queue_ms),
            "ms",
        ),
        m(
            "serve.outside_exec_ms",
            crate::stats::mean(&pooled(&reps, |r| &r.outside_exec_ms)),
            "ms",
        ),
        m(
            "serve.rejected",
            per_repeat(&reps, |r| r.serve_rejected as f64),
            "count",
        ),
        m(
            "serve.timed_out",
            per_repeat(&reps, |r| r.serve_timed_out as f64),
            "count",
        ),
        m(
            "serve.protocol_errors",
            per_repeat(&reps, |r| r.serve_protocol_errors as f64),
            "count",
        ),
        m("error_frac", all.error_frac(), "ratio"),
        m(
            "trace.overhead_s",
            per_repeat(&reps, |r| r.wall_s) - median(&untraced),
            "s",
        ),
    ]
}
