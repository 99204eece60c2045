//! Decision regression at every shard count: a fixed sequence of
//! workloads with well-separated costs and sizes, driven through a
//! durable server at `shards = 1` and at `shards = 8`, must produce
//! exactly the recorded optimizer decisions — the vertex set with its
//! frequencies, the materialized set, and every workload's reuse plan.
//! The expected values were recorded from the server's former dedicated
//! one-shard publish path. Each publish runs the paper's materializer
//! over the whole graph at any shard count, so the shard count changes
//! only which files hold the journal and whether publishes need commit
//! records.

use co_core::{DurabilityConfig, OptimizerServer, ServerConfig};
use co_dataframe::{Column, ColumnData, ColumnId, DataFrame};
use co_graph::{ArtifactId, NodeKind, Operation, Value, WorkloadDag};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A dataset operation with a fixed cost (a sleep) and a fixed output
/// size (`rows` floats in one column whose id is unique to the op, so
/// the deduplicating store never shares bytes between artifacts).
struct Work {
    name: &'static str,
    millis: u64,
    rows: usize,
}

impl Operation for Work {
    fn name(&self) -> &str {
        self.name
    }
    fn params_digest(&self) -> String {
        String::new()
    }
    fn output_kind(&self) -> NodeKind {
        NodeKind::Dataset
    }
    fn run(&self, _inputs: &[&Value]) -> co_graph::Result<Value> {
        std::thread::sleep(Duration::from_millis(self.millis));
        let column = Column::derived(
            "v",
            ColumnId::source(self.name, "v"),
            ColumnData::Float(vec![1.0; self.rows]),
        );
        Ok(Value::dataset(
            DataFrame::new(vec![column]).expect("one column"),
        ))
    }
}

/// Operation table: name → (cost in ms, output rows). Costs differ by
/// at least 2× between any two ops whose order matters to the
/// materializer, so scheduler jitter cannot flip a decision.
fn op(name: &'static str) -> Arc<Work> {
    let (millis, rows) = match name {
        "a" => (40, 1000),
        "b" => (2, 4000),
        "c" => (60, 500),
        "d" => (15, 2000),
        "e" => (80, 250),
        other => panic!("unknown op {other}"),
    };
    Arc::new(Work { name, millis, rows })
}

/// One chain `src → ops[0] → ops[1] → …`, the last op terminal.
fn chain(ops: &[&'static str]) -> WorkloadDag {
    let mut dag = WorkloadDag::new();
    let src = Column::source("src", "x", ColumnData::Float(vec![0.5; 1000]));
    let mut prev = dag.add_source(
        "src",
        Value::dataset(DataFrame::new(vec![src]).expect("one column")),
    );
    for name in ops {
        prev = dag.add_op(op(name), &[prev]).unwrap();
    }
    dag.mark_terminal(prev).unwrap();
    dag
}

/// The workload sequence: shared prefixes, a diverging branch, and
/// repeats that exercise loading.
fn sequence() -> Vec<Vec<&'static str>> {
    vec![
        vec!["a", "c"],
        vec!["a", "b"],
        vec!["a", "c", "d"],
        vec!["a", "c"],
        vec!["a", "c", "e"],
        vec!["a", "c", "d"],
        vec!["a", "b"],
        vec!["a", "c", "e"],
    ]
}

/// Human-readable label of every artifact the sequence can produce:
/// the chain's op names joined by `/` (`src` for the source).
fn labels() -> BTreeMap<ArtifactId, String> {
    let mut out = BTreeMap::new();
    for ops in sequence() {
        let dag = chain(&ops);
        for (i, node) in dag.nodes().iter().enumerate() {
            let label = if i == 0 {
                "src".to_owned()
            } else {
                ops[..i].join("/")
            };
            out.insert(node.artifact, label);
        }
    }
    out
}

/// The plan `explain` renders, reduced to `label=decision` per row.
fn plan(server: &OptimizerServer, ops: &[&'static str]) -> String {
    let text = server.explain(chain(ops)).unwrap();
    let mut rows = Vec::new();
    for line in text.lines().skip(2) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(i) = fields.first().and_then(|f| f.parse::<usize>().ok()) else {
            continue;
        };
        let label = if i == 0 {
            "src".to_owned()
        } else {
            ops[..i].join("/")
        };
        rows.push(format!("{label}={}", fields[1]));
    }
    rows.join(" ")
}

/// `label:frequency` for every vertex, then the materialized labels.
fn graph_state(server: &OptimizerServer) -> (String, String) {
    let labels = labels();
    let guards = server.shards().read_all();
    let mut vertices = Vec::new();
    let mut mat = Vec::new();
    for eg in &guards {
        for v in eg.vertices() {
            let label = labels[&v.id].clone();
            vertices.push(format!("{label}:{}", v.frequency));
            if eg.was_materialized(v.id) {
                mat.push(label);
            }
        }
    }
    vertices.sort();
    mat.sort();
    (vertices.join(" "), mat.join(" "))
}

/// Drive the sequence through a durable `shards`-way server and check
/// the recorded decisions, the data directory, and a restart.
fn run_recorded_sequence(shards: usize) {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("decision_regression_s{shards}"));
    let _ = std::fs::remove_dir_all(&dir);
    // Room for the source (8 000 B) plus 13 000 B of derived artifacts:
    // the storage-aware materializer must choose, and evicts `a` once
    // the `a/c` prefix has earned its bytes.
    let mut config = ServerConfig::collaborative(21_000);
    config.shards = shards;
    let (server, _) = OptimizerServer::open(config, DurabilityConfig::new(&dir)).unwrap();

    let plans: Vec<String> = sequence()
        .iter()
        .map(|ops| {
            let plan = plan(&server, ops);
            server.run_workload(chain(ops)).unwrap();
            plan
        })
        .collect();
    let expected_plans = [
        "src=have a=compute a/c=compute",
        "a=LOAD a/b=compute",
        "a/c=LOAD a/c/d=compute",
        "a/c=LOAD",
        "a/c=LOAD a/c/e=compute",
        "a/c=LOAD a/c/d=compute",
        "src=have a=compute a/b=compute",
        "a/c/e=LOAD",
    ];
    for (i, (got, want)) in plans.iter().zip(expected_plans).enumerate() {
        assert_eq!(
            got,
            want,
            "workload {} reuse plan at {shards} shard(s)",
            i + 1
        );
    }

    let (vertices, mat) = graph_state(&server);
    assert_eq!(
        vertices, "a/b:2 a/c/d:2 a/c/e:2 a/c:6 a:8 src:8",
        "vertex set and frequencies"
    );
    assert_eq!(mat, "a/c a/c/e src", "materialized set");

    // The directory holds nothing but the layout's files: one journal
    // per shard and the commit log. At one shard every publish is
    // committed by its own journal record, so the commit log is still
    // just its magic; at eight, publishes spanning shards appended
    // commit records.
    drop(server);
    let commit_log = std::fs::metadata(dir.join("eg.commit")).unwrap().len();
    let magic = co_graph::journal::COMMIT_MAGIC.len() as u64;
    if shards == 1 {
        assert_eq!(commit_log, magic);
    } else {
        assert!(commit_log > magic, "no cross-shard publish was committed");
    }
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let mut expected: Vec<String> = (0..shards).map(|k| format!("eg-{k}.wal")).collect();
    expected.push("eg.commit".to_owned());
    expected.sort();
    assert_eq!(files, expected);

    // The same decisions survive a restart from the data directory.
    let (reopened, _) = OptimizerServer::open(config, DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(graph_state(&reopened), (vertices, mat));
}

#[test]
fn single_shard_durable_server_makes_the_recorded_decisions() {
    run_recorded_sequence(1);
}

#[test]
fn eight_shard_durable_server_makes_the_recorded_decisions() {
    run_recorded_sequence(8);
}
