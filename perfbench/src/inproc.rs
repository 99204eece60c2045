//! The in-process workloads, `kaggle-seq` and `openml-stream`: one
//! client submits a fixed list of workloads, in order, to a durable
//! `OptimizerServer` in the same process.
//!
//! Untraced repeats submit through `OptimizerServer::run_workload`, the
//! one-call path users take. Traced repeats make the same four calls
//! that `run_workload` makes (`PrunedWorkload::new`,
//! `OptimizerServer::plan_workload`, `PlannedWorkload::execute`,
//! `OptimizerServer::publish_workload`) and record a span around each.

use crate::report::Repeat;
use crate::stats::{bytes_with_suffix, dir_bytes};
use crate::trace::Tracer;
use co_core::server::MaterializerKind;
use co_core::{
    DurabilityConfig, ExecutionReport, OptimizerServer, PrunedWorkload, ServerConfig, WorkloadError,
};
use co_graph::{NodeKind, WorkloadDag};
use std::path::Path;
use std::time::Instant;

/// Operation names of `co_core::ops::train`; every other operation
/// counts as dataframe work in `exec.df_s`.
const TRAIN_OPS: [&str; 8] = [
    "train_logistic",
    "train_svm",
    "train_ridge",
    "train_tree",
    "train_forest",
    "train_gbt",
    "evaluate",
    "predict",
];

/// Fresh processes that reopen the directory a repeat leaves, as a
/// restarted server does. The open time differs from process to process
/// by up to a third, so `reopen_s` is the mean over several.
pub const REOPEN_PROCESSES: usize = 3;

/// Opens each of those processes times. Opening replays the journal
/// read-only and leaves the directory as it found it, so every open does
/// the same work.
pub const REOPENS: usize = 5;

/// One submission of an in-process workload.
pub struct Submission {
    /// The workload.
    pub dag: WorkloadDag,
    /// `Some(i)` when this resubmits the `i`-th new submission.
    pub replay_of: Option<usize>,
}

/// The terminal values of an executed workload, rendered exactly
/// (`f64` debug output round-trips), in terminal order.
pub fn terminal_values(dag: &WorkloadDag) -> Vec<String> {
    dag.terminals()
        .iter()
        .filter_map(|t| dag.node(*t).ok()?.computed.as_ref())
        .filter_map(|v| v.as_aggregate().map(|s| format!("{s:?}")))
        .collect()
}

/// Terminal values of every submission of one repeat: new ones first,
/// in order, then replays as `(index of the replayed one, values)`.
#[derive(Debug, Default, PartialEq)]
pub struct Outputs {
    /// Per new submission.
    pub new: Vec<Vec<String>>,
    /// Per replay.
    pub replay: Vec<(usize, Vec<String>)>,
}

fn split_compute_time(dag: &WorkloadDag) -> (f64, f64) {
    let mut df = 0.0;
    let mut ml = 0.0;
    for edge in dag.edges().iter().filter(|e| e.active) {
        let Some(t) = dag.nodes()[edge.output.0].compute_time else {
            continue;
        };
        if TRAIN_OPS.contains(&edge.op.name()) {
            ml += t;
        } else {
            df += t;
        }
    }
    (df, ml)
}

fn submit_traced(
    server: &OptimizerServer,
    dag: WorkloadDag,
    tracer: &mut Tracer,
    kind: &'static str,
    id: u64,
) -> Result<(WorkloadDag, ExecutionReport), WorkloadError> {
    let root = tracer.begin("submit", kind, id, None);
    let span = tracer.begin("prune", kind, id, Some(root));
    let pruned = PrunedWorkload::new(dag);
    tracer.end(span);
    let span = tracer.begin("plan", kind, id, Some(root));
    let planned = server.plan_workload(pruned?);
    tracer.end(span);
    let span = tracer.begin("exec", kind, id, Some(root));
    let executed = planned?.execute(&server.executor_config());
    tracer.end(span);
    let span = tracer.begin("publish", kind, id, Some(root));
    let published = server.publish_workload(executed);
    tracer.end(span);
    tracer.end(root);
    published
}

/// Run one repeat: build the submissions, open a fresh durable server in
/// `dir`, submit everything in order, then check and reopen the
/// directory. `score` picks a workload's quality for `mean_score`.
pub fn run_repeat(
    dir: &Path,
    workload: &str,
    config: ServerConfig,
    build: &dyn Fn() -> Vec<Submission>,
    score: &dyn Fn(&WorkloadDag) -> Option<f64>,
    tracer: Option<&mut Tracer>,
) -> Result<(Repeat, Outputs), String> {
    let mut rep = Repeat {
        traced: tracer.is_some(),
        ..Repeat::default()
    };
    let setup = Instant::now();
    let subs = build();
    let (server, _) = OptimizerServer::open(config, DurabilityConfig::new(dir))
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    rep.setup_s = setup.elapsed().as_secs_f64();

    let lock_wait_before: u64 = server.lock_wait_ns().iter().sum();
    let mut outputs = Outputs::default();
    let mut scores = Vec::new();
    let mut errors = Vec::new();
    let mut tracer = tracer;
    let first = Instant::now();
    for (id, sub) in subs.into_iter().enumerate() {
        let kind = if sub.replay_of.is_some() {
            "replay"
        } else {
            "new"
        };
        rep.outcomes.attempted += 1;
        let start = Instant::now();
        let result = match tracer.as_deref_mut() {
            Some(t) => submit_traced(&server, sub.dag, t, kind, id as u64),
            None => server.run_workload(sub.dag),
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let (dag, report) = match result {
            Ok(done) => done,
            Err(e) => {
                rep.outcomes.failed += 1;
                errors.push(format!("submission {id}: {}", e.error));
                continue;
            }
        };
        rep.outcomes.acked += 1;
        let (df, ml) = split_compute_time(&dag);
        let exec = &mut rep.exec;
        exec.df_s += df;
        exec.ml_s += ml;
        exec.ops += report.ops_executed as u64;
        exec.loaded += report.artifacts_loaded as u64;
        exec.skipped += report.nodes_skipped as u64;
        exec.warmstarts += report.warmstarts as u64;
        exec.load_charged_s += report.load_seconds;
        rep.planner_ms.push(report.optimizer_seconds * 1e3);
        rep.outside_exec_ms.push(ms - report.run_seconds() * 1e3);
        let values = terminal_values(&dag);
        match sub.replay_of {
            Some(of) => {
                rep.replay_ms.push(ms);
                outputs.replay.push((of, values));
            }
            None => {
                rep.new_ms.push(ms);
                scores.extend(score(&dag));
                outputs.new.push(values);
            }
        }
    }
    rep.wall_s = first.elapsed().as_secs_f64();
    if !errors.is_empty() {
        return Err(format!(
            "{} submissions failed: {}",
            errors.len(),
            errors.join("; ")
        ));
    }

    rep.lock_wait_ns = server.lock_wait_ns().iter().sum::<u64>() - lock_wait_before;
    rep.mean_score = crate::stats::mean(&scores);
    record_server(&server, &mut rep);
    drop(server);
    close_out(dir, workload, config, &mut rep)?;
    Ok((rep, outputs))
}

/// Fill the counters read from the live server at the end of a repeat.
pub fn record_server(server: &OptimizerServer, rep: &mut Repeat) {
    let stats = server.stats();
    rep.run_s = stats.run_seconds;
    rep.baseline_s = stats.baseline_seconds;
    rep.compactions = stats.snapshots_compacted as u64;
    let (n, unique, logical) = server.storage_stats();
    rep.store_artifacts = n as u64;
    rep.store_unique = unique;
    rep.store_logical = logical;
    rep.eg_vertices = server
        .shards()
        .read_all()
        .iter()
        .map(|g| g.n_vertices() as u64)
        .sum();
}

/// Mean quality the Experiment Graph recorded for its model vertices.
pub fn mean_model_quality(server: &OptimizerServer) -> f64 {
    let quality: Vec<f64> = server
        .shards()
        .read_all()
        .iter()
        .flat_map(|g| {
            g.vertices()
                .filter(|v| v.kind == NodeKind::Model)
                .map(|v| v.quality)
                .collect::<Vec<_>>()
        })
        .collect();
    crate::stats::mean(&quality)
}

/// Time [`REOPENS`] opens of `dir` in this process: the mean seconds per
/// open and the journal records an open replays.
pub fn time_reopens(dir: &Path, config: ServerConfig) -> Result<(f64, u64), String> {
    let mut opens = Vec::with_capacity(REOPENS);
    let mut records = 0;
    for _ in 0..REOPENS {
        let start = Instant::now();
        let (server, recovery) = OptimizerServer::open(config, DurabilityConfig::new(dir))
            .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
        opens.push(start.elapsed().as_secs_f64());
        records = recovery.journal_records_replayed as u64;
        drop(server);
    }
    Ok((crate::stats::mean(&opens), records))
}

/// Run `perfbench reopen` on `dir` in a child process and wait for it.
fn reopen_in_child(dir: &Path, workload: &str) -> Result<(f64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("reopen process: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["reopen", "--workload", workload, "--dir"])
        .arg(dir)
        .output()
        .map_err(|e| format!("reopen process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut fields = stdout.split_whitespace();
    match (out.status.success(), fields.next(), fields.next()) {
        (true, Some(mean), Some(records)) => Ok((
            mean.parse().map_err(|e| format!("reopen process: {e}"))?,
            records
                .parse()
                .map_err(|e| format!("reopen process: {e}"))?,
        )),
        _ => Err(format!(
            "reopen process: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// After the server is gone: measure the data directory, check it with
/// egfsck, time the reopens of [`REOPEN_PROCESSES`] fresh processes, and
/// remove it.
pub fn close_out(
    dir: &Path,
    workload: &str,
    config: ServerConfig,
    rep: &mut Repeat,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    rep.disk_bytes = dir_bytes(dir).map_err(io)?;
    rep.journal_bytes = bytes_with_suffix(dir, ".wal").map_err(io)?;
    rep.snapshot_bytes = bytes_with_suffix(dir, ".egsnap").map_err(io)?;
    let dedup = config.materializer == MaterializerKind::StorageAware;
    let fsck = co_graph::fsck::check_data_dir(dir, dedup)
        .map_err(|e| format!("egfsck {}: {e}", dir.display()))?;
    if !fsck.is_clean() {
        return Err(format!("egfsck {}: {fsck}", dir.display()));
    }
    let mut means = Vec::with_capacity(REOPEN_PROCESSES);
    for _ in 0..REOPEN_PROCESSES {
        let (mean, records) = reopen_in_child(dir, workload)?;
        means.push(mean);
        rep.reopen_records = records;
    }
    rep.reopen_s = crate::stats::mean(&means);
    std::fs::remove_dir_all(dir).map_err(io)
}
