//! `serve-mixed`: a self-hosted co-serve front-end with `co_serve`'s own
//! configuration and two closed-loop TCP clients in this process.
//!
//! The **explore** client submits specs that share a load → filter →
//! map prefix and train a logistic regression with a learning rate no
//! earlier submission used, so every submission adds a vertex and a
//! journal record. The **replay** client cycles through a fixed set of
//! specs it served during set-up, so its publishes only bump
//! frequencies. Stage spans are not reachable here (the stages run in
//! co-serve's workers); the per-layer split comes from a span per
//! `Client::submit` plus the `WorkloadSummary` and `Stats` replies.

use crate::inproc::{close_out, mean_model_quality, record_server};
use crate::report::Repeat;
use crate::stats::Outcomes;
use crate::trace::Tracer;
use crate::workloads::Workload;
use co_core::{DurabilityConfig, OptimizerServer, ServerConfig};
use co_dataframe::ColumnData;
use co_serve::{start, AggSpec, Client, MapFnSpec, Response, ServeConfig, SpecStep, WorkloadSpec};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Rows of the dataset both clients register.
pub const SERVE_ROWS: usize = 2000;
/// Submissions of the explore client per repeat.
pub const EXPLORE_SUBMITS: usize = 1500;
/// Submissions of the replay client per repeat.
pub const REPLAY_SUBMITS: usize = 1500;
/// Specs in the replay client's cycle.
pub const REPLAY_SET: usize = 16;
/// `co_serve`'s default materialization budget (`--budget-mb 256`).
pub const SERVE_BUDGET_BYTES: u64 = 256 << 20;

/// A seeded xorshift stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next_unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Two features and a label that depends on them, from `seed`.
fn columns(seed: u64) -> Vec<(String, ColumnData)> {
    let mut rng = Rng::new(seed);
    let f0: Vec<f64> = (0..SERVE_ROWS).map(|_| rng.next_unit()).collect();
    let f1: Vec<f64> = (0..SERVE_ROWS)
        .map(|_| rng.next_unit() * 2.0 - 1.0)
        .collect();
    let label = f0
        .iter()
        .zip(&f1)
        .map(|(a, b)| f64::from(a + 0.5 * b + 0.3 * (rng.next_unit() - 0.5) > 0.5))
        .collect();
    vec![
        ("f0".to_owned(), ColumnData::Float(f0)),
        ("f1".to_owned(), ColumnData::Float(f1)),
        ("label".to_owned(), ColumnData::Float(label)),
    ]
}

fn prefix(threshold: f64) -> Vec<SpecStep> {
    vec![
        SpecStep::Load {
            dataset: "mixed".to_owned(),
        },
        SpecStep::FilterGt {
            input: 0,
            column: "f0".to_owned(),
            value: threshold,
        },
        SpecStep::Map {
            input: 1,
            column: "f1".to_owned(),
            f: MapFnSpec::Abs,
            out: "abs_f1".to_owned(),
        },
    ]
}

/// The `i`-th explore spec: the shared prefix and a fresh learning rate.
fn explore_spec(i: usize, base_lr: f64) -> WorkloadSpec {
    let mut steps = prefix(0.2);
    steps.push(SpecStep::TrainLogistic {
        input: 2,
        label: "label".to_owned(),
        lr: base_lr + i as f64 * 1e-6,
        max_iter: 20,
    });
    WorkloadSpec {
        steps,
        outputs: vec![3],
    }
}

/// The `k`-th spec of the replay cycle.
fn replay_spec(k: usize) -> WorkloadSpec {
    let mut steps = prefix(0.1 + 0.05 * (k % 8) as f64);
    steps.push(SpecStep::Agg {
        input: 2,
        column: "abs_f1".to_owned(),
        f: AggSpec::Mean,
    });
    steps.push(SpecStep::TrainLogistic {
        input: 2,
        label: "label".to_owned(),
        lr: [0.1, 0.3][k / 8 % 2],
        max_iter: 20,
    });
    WorkloadSpec {
        steps,
        outputs: vec![3, 4],
    }
}

/// What one client saw.
struct Observed {
    outcomes: Outcomes,
    latency_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    outside_exec_ms: Vec<f64>,
    first: Option<Instant>,
    last: Option<Instant>,
    problems: Vec<String>,
    tracer: Option<Tracer>,
}

fn drive(
    client: &mut Client,
    specs: &[WorkloadSpec],
    n: usize,
    kind: &'static str,
    barrier: &Barrier,
    mut tracer: Option<Tracer>,
) -> Observed {
    let mut seen = Observed {
        outcomes: Outcomes::default(),
        latency_ms: Vec::with_capacity(n),
        queue_ms: Vec::with_capacity(n),
        outside_exec_ms: Vec::with_capacity(n),
        first: None,
        last: None,
        problems: Vec::new(),
        tracer: None,
    };
    barrier.wait();
    for i in 0..n {
        let spec = &specs[i % specs.len()];
        seen.outcomes.attempted += 1;
        let start = Instant::now();
        seen.first.get_or_insert(start);
        let span = tracer
            .as_mut()
            .map(|t| t.begin("submit", kind, i as u64, None));
        let reply = client.submit(spec, None);
        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
            t.end(span);
        }
        let end = Instant::now();
        seen.last = Some(end);
        let ms = (end - start).as_secs_f64() * 1e3;
        match reply {
            Ok(Response::Done(summary)) => {
                seen.outcomes.acked += 1;
                seen.latency_ms.push(ms);
                seen.queue_ms.push(summary.queue_ms);
                seen.outside_exec_ms
                    .push(ms - summary.queue_ms - summary.run_seconds * 1e3);
            }
            Ok(Response::Overloaded { .. } | Response::ReadOnly { .. } | Response::Draining) => {
                seen.outcomes.refused += 1;
                seen.problems.push(format!("{kind} {i}: refused"));
            }
            Ok(Response::TimedOut { .. }) => {
                seen.outcomes.timed_out += 1;
                seen.problems.push(format!("{kind} {i}: timed out"));
            }
            Ok(other) => {
                seen.outcomes.failed += 1;
                seen.problems.push(format!("{kind} {i}: {other:?}"));
            }
            Err(e) => {
                seen.outcomes.failed += 1;
                seen.problems.push(format!("{kind} {i}: {e}"));
                break;
            }
        }
    }
    seen.tracer = tracer;
    seen
}

/// `serve-mixed`; see the module docs.
pub struct ServeMixed {
    seed: u64,
    config: ServerConfig,
}

impl ServeMixed {
    /// The workload for `seed`, served with `config`.
    pub fn new(seed: u64, config: ServerConfig) -> Self {
        ServeMixed { seed, config }
    }
}

fn connect(addr: std::net::SocketAddr, name: &str, seed: u64) -> Result<Client, String> {
    let mut client = Client::connect(addr, name).map_err(|e| format!("{name}: {e}"))?;
    client
        .register_dataset("mixed", columns(seed))
        .map_err(|e| format!("{name}: {e}"))?;
    Ok(client)
}

impl Workload for ServeMixed {
    fn describe(&self) -> String {
        format!(
            "{{\"explore\":{EXPLORE_SUBMITS},\"replay\":{REPLAY_SUBMITS},\"replay_set\":{REPLAY_SET},\"rows\":{SERVE_ROWS},\"budget_bytes\":{SERVE_BUDGET_BYTES},\"clients\":2}}"
        )
    }

    fn repeat(&mut self, dir: &Path, tracer: Option<&mut Tracer>) -> Result<Repeat, String> {
        let mut rep = Repeat {
            traced: tracer.is_some(),
            ..Repeat::default()
        };
        let setup = Instant::now();
        let base_lr = 0.05 + Rng::new(self.seed ^ 0x5eed).next_unit() * 0.05;
        let explore: Vec<WorkloadSpec> = (0..EXPLORE_SUBMITS)
            .map(|i| explore_spec(i, base_lr))
            .collect();
        let replay: Vec<WorkloadSpec> = (0..REPLAY_SET).map(replay_spec).collect();
        let (server, _) = OptimizerServer::open(self.config, DurabilityConfig::new(dir))
            .map_err(|e| format!("open {}: {e}", dir.display()))?;
        let server = Arc::new(server);
        let mut handle = start(Arc::clone(&server), ServeConfig::new("127.0.0.1:0"))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = handle.local_addr();
        let mut explorer = connect(addr, "explore", self.seed)?;
        let mut replayer = connect(addr, "replay", self.seed)?;
        for (k, spec) in replay.iter().enumerate() {
            match replayer.submit(spec, None) {
                Ok(Response::Done(_)) => {}
                other => return Err(format!("serving replay spec {k}: {other:?}")),
            }
        }
        rep.setup_s = setup.elapsed().as_secs_f64();

        let before = handle.stats();
        let lock_wait_before: u64 = server.lock_wait_ns().iter().sum();
        let barrier = Barrier::new(2);
        let (origin, repeat) = match &tracer {
            Some(t) => (Some(t.origin()), t.repeat()),
            None => (None, 0),
        };
        let fork = |origin: Option<Instant>| {
            origin.map(|o| {
                let mut t = Tracer::new(o);
                t.set_repeat(repeat);
                t
            })
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| {
                drive(
                    &mut explorer,
                    &explore,
                    EXPLORE_SUBMITS,
                    "explore",
                    &barrier,
                    fork(origin),
                )
            });
            let b = s.spawn(|| {
                drive(
                    &mut replayer,
                    &replay,
                    REPLAY_SUBMITS,
                    "replay",
                    &barrier,
                    fork(origin),
                )
            });
            (a.join(), b.join())
        });
        let a = a.map_err(|_| "explore client panicked".to_owned())?;
        let b = b.map_err(|_| "replay client panicked".to_owned())?;
        let after = handle.stats();

        let first = a.first.into_iter().chain(b.first).min();
        let last = a.last.into_iter().chain(b.last).max();
        rep.wall_s = match (first, last) {
            (Some(f), Some(l)) => (l - f).as_secs_f64(),
            _ => 0.0,
        };
        rep.outcomes = a.outcomes;
        rep.outcomes.absorb(&b.outcomes);
        rep.new_ms = a.latency_ms;
        rep.replay_ms = b.latency_ms;
        rep.queue_ms = a.queue_ms;
        rep.queue_ms.extend(b.queue_ms);
        rep.outside_exec_ms = a.outside_exec_ms;
        rep.outside_exec_ms.extend(b.outside_exec_ms);
        rep.serve_rejected = (after.rejected_overload + after.rejected_draining)
            - (before.rejected_overload + before.rejected_draining);
        rep.serve_timed_out = after.timed_out - before.timed_out;
        rep.serve_protocol_errors = after.protocol_errors - before.protocol_errors;
        rep.exec.ops = after.ops_executed - before.ops_executed;
        rep.exec.loaded = after.artifacts_loaded - before.artifacts_loaded;
        rep.exec.warmstarts = after.warmstarts - before.warmstarts;
        rep.lock_wait_ns = server.lock_wait_ns().iter().sum::<u64>() - lock_wait_before;
        rep.mean_score = mean_model_quality(&server);
        record_server(&server, &mut rep);
        if let Some(t) = tracer {
            for t2 in [a.tracer, b.tracer].into_iter().flatten() {
                t.merge(t2);
            }
        }

        drop(explorer);
        drop(replayer);
        let drained = handle.join();
        drop(handle);
        drop(server);
        drained.map_err(|e| format!("drain: {e}"))?;
        let mut problems = a.problems;
        problems.extend(b.problems);
        if !problems.is_empty() {
            return Err(format!(
                "{} replies were not Done: {}",
                problems.len(),
                problems.join("; ")
            ));
        }
        close_out(dir, "serve-mixed", self.config, &mut rep)?;
        Ok(rep)
    }

    fn check(&self) -> Result<(), String> {
        // Every reply of every repeat was `Done`: `repeat` fails otherwise.
        Ok(())
    }
}
