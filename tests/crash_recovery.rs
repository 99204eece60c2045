//! Crash matrix: kill persistence at every injected crash point and
//! assert a restarted server recovers exactly the committed-workload
//! prefix — same vertex ids, frequencies, materialization flags, and
//! quarantine set. Every scenario runs at one shard and at eight: the
//! same durable layout (per-shard journals, self-committing single-shard
//! records, a commit record for cross-shard publishes, DESIGN.md §14)
//! at its trivial and its sharded size.

use co_core::{DurabilityConfig, OptimizerServer, ServerConfig};
use co_dataframe::Scalar;
use co_graph::journal::QuarantineEntry;
use co_graph::{shard_of, ArtifactId, WorkloadDag};
use co_graph::{CrashPoint, FaultInjector, FaultKind, GraphError, NodeKind, Operation, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

struct Step(String);
impl Operation for Step {
    fn name(&self) -> &str {
        &self.0
    }
    fn params_digest(&self) -> String {
        String::new()
    }
    fn output_kind(&self) -> NodeKind {
        NodeKind::Dataset
    }
    fn run(&self, _inputs: &[&Value]) -> co_graph::Result<Value> {
        // Real compute cost, so artifacts are worth materializing.
        std::thread::sleep(std::time::Duration::from_millis(2));
        Ok(Value::Aggregate(Scalar::Float(1.0)))
    }
}

fn step(name: impl Into<String>) -> Arc<Step> {
    Arc::new(Step(name.into()))
}

/// src → prep_step → <tail> (terminal).
fn workload(tail: &'static str) -> WorkloadDag {
    let mut dag = WorkloadDag::new();
    let s = dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
    let prep = dag.add_op(step("prep_step"), &[s]).unwrap();
    let t = dag.add_op(step(tail), &[prep]).unwrap();
    dag.mark_terminal(t).unwrap();
    dag
}

/// The shard counts every scenario runs at (the crash-point matrices as
/// one test per count).
const SHARD_COUNTS: [usize; 2] = [1, 8];

/// The shards a workload's artifacts land on.
fn shards_of(dag: &WorkloadDag, n: usize) -> BTreeSet<usize> {
    dag.nodes()
        .iter()
        .map(|node| shard_of(node.artifact, n))
        .collect()
}

/// A three-op chain over `src` whose artifacts land on exactly `span`
/// shards of an `n`-way partition (op names are salted until the
/// hash-based routing agrees). With `span >= 2` a crash injected
/// *between* two per-shard journal appends is reachable; with `span ==
/// 1` the publish is committed by its own record.
fn chain_over(n: usize, salt: u64, span: usize) -> WorkloadDag {
    for attempt in 0.. {
        let mut dag = WorkloadDag::new();
        let s = dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
        let mut prev = s;
        for i in 0..3 {
            prev = dag
                .add_op(step(format!("x{salt}_{attempt}_{i}")), &[prev])
                .unwrap();
        }
        dag.mark_terminal(prev).unwrap();
        let spread = shards_of(&dag, n).len();
        if spread == span || (span >= 2 && spread >= 2) {
            return dag;
        }
    }
    unreachable!()
}

/// A workload spanning as many shards as the partition allows (at
/// least two when `n > 1`).
fn cross_shard_workload(n: usize, salt: u64) -> WorkloadDag {
    chain_over(n, salt, n.min(2))
}

/// The journal crash points reachable by a publish spanning `span`
/// shards: the commit record and the gap between two shards' appends
/// exist only for cross-shard publishes.
fn crash_points(span: usize) -> Vec<CrashPoint> {
    let mut points = vec![CrashPoint::JournalMidAppend, CrashPoint::JournalPreFsync];
    if span > 1 {
        points.extend([CrashPoint::ShardGapAppend, CrashPoint::CommitPreAppend]);
    }
    points
}

fn config_at(shards: usize) -> ServerConfig {
    let mut config = ServerConfig::collaborative(u64::MAX);
    config.shards = shards;
    config
}

/// Everything durability must preserve across a restart.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    /// id → (frequency, compute_time bits, size, quality bits).
    vertices: BTreeMap<u64, (u64, u64, u64, u64)>,
    /// Artifacts whose mat flag is set (content or restored flag).
    mat: BTreeSet<u64>,
    /// Quarantined operations as (op_hash, failures).
    quarantine: BTreeSet<(u64, usize)>,
}

fn fingerprint(server: &OptimizerServer) -> Fingerprint {
    // read_all works at every shard count (one guard at shards = 1).
    let guards = server.shards().read_all();
    let vertices = guards
        .iter()
        .flat_map(|eg| {
            eg.vertices().map(|v| {
                (
                    v.id.0,
                    (
                        v.frequency,
                        v.compute_time.to_bits(),
                        v.size,
                        v.quality.to_bits(),
                    ),
                )
            })
        })
        .collect();
    let mat = guards
        .iter()
        .flat_map(|eg| {
            eg.vertices()
                .filter(|v| eg.was_materialized(v.id))
                .map(|v| v.id.0)
        })
        .collect();
    let quarantine = server
        .quarantine()
        .map(|q| {
            q.entries()
                .into_iter()
                .map(|(op, _, failures)| (op, failures))
                .collect()
        })
        .unwrap_or_default();
    Fingerprint {
        vertices,
        mat,
        quarantine,
    }
}

/// A fresh per-test data directory under `target/tmp` (covered by the
/// CI stray-tmp-file leak check).
fn data_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(config: ServerConfig, dir: &PathBuf) -> (OptimizerServer, co_core::RecoveryReport) {
    OptimizerServer::open(config, DurabilityConfig::new(dir)).unwrap()
}

/// After any crash-and-recover sequence, the live graph and an offline
/// replay of the data directory must both satisfy every egfsck
/// invariant — cross-shard invariants included — and the directory
/// must hold nothing but the one layout's files.
fn assert_fsck_clean(server: &OptimizerServer, dir: &std::path::Path) {
    let guards = server.shards().read_all();
    let refs: Vec<&co_graph::ExperimentGraph> = guards.iter().map(|g| &**g).collect();
    let quarantine: Vec<QuarantineEntry> = server
        .quarantine()
        .map(|q| {
            q.entries()
                .into_iter()
                .map(|(op_hash, name, failures)| QuarantineEntry {
                    op_hash,
                    name,
                    failures,
                })
                .collect()
        })
        .unwrap_or_default();
    let live = co_graph::fsck::check_shards(&refs, &quarantine);
    assert!(live.is_clean(), "live graph: {live}");
    let n = guards.len();
    drop(guards);
    let offline = co_graph::fsck::check_data_dir(dir, true).unwrap();
    assert!(offline.is_clean(), "data dir: {offline}");
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let known = name == "eg.commit"
            || (0..n).any(|k| name == format!("eg-{k}.wal") || name == format!("eg-{k}.egsnap"));
        assert!(
            known,
            "unexpected file {name} in a {n}-shard data directory"
        );
    }
}

#[test]
fn journal_crash_points_recover_the_committed_prefix() {
    journal_crash_matrix(1);
}

#[test]
fn sharded_crash_matrix_recovers_the_committed_prefix() {
    journal_crash_matrix(8);
}

/// The journal crash-point matrix at `n` shards: a crash at every reachable
/// point of a publish spanning every shard it can reopens to exactly the
/// committed prefix.
fn journal_crash_matrix(n: usize) {
    for point in crash_points(n) {
        let dir = data_dir(&format!("crash_s{n}_{}", point.name()));
        let config = config_at(n);
        let (server, recovery) = open(config, &dir);
        assert!(!recovery.snapshot_loaded);
        let faults = Arc::new(FaultInjector::new());
        server.set_fault_injector(Arc::clone(&faults));

        server.run_workload(cross_shard_workload(n, 1)).unwrap();
        let committed = fingerprint(&server);

        // The crash fires while the second publish is being
        // journaled: the run is reported failed (its effects would
        // not survive a restart) …
        faults.arm_crash(point);
        let err = server
            .run_workload(cross_shard_workload(n, 100))
            .unwrap_err();
        assert!(err.to_string().contains(point.name()), "{point:?}: {err}");
        assert_eq!(faults.crashes_fired(), 1, "{point:?}");
        assert_eq!(server.stats().failed_workloads, 1);

        // … and the durability layer wedges: later publishes refuse
        // rather than journal records recovery could never replay.
        let wedged = server
            .run_workload(cross_shard_workload(n, 200))
            .unwrap_err();
        assert!(wedged.to_string().contains("wedged"), "{wedged}");
        assert!(server.is_wedged());

        // "Reboot": a server opened from the same directory holds
        // exactly the committed prefix.
        drop(server);
        let (reopened, recovery) = open(config, &dir);
        assert_eq!(fingerprint(&reopened), committed, "n={n} {point:?}");
        assert_eq!(
            recovery.torn_tail_truncated,
            point == CrashPoint::JournalMidAppend,
            "mid-append leaves a torn record, the others none"
        );
        if matches!(
            point,
            CrashPoint::ShardGapAppend | CrashPoint::CommitPreAppend
        ) {
            // Some shard journals hold fully written records for the
            // crashed publish; without its commit record they are
            // uncommitted and recovery must skip them.
            assert!(
                recovery.journal_records_skipped > 0,
                "{point:?} leaves uncommitted records to skip: {recovery:?}"
            );
            assert!(recovery.render().contains("skipped"));
        }

        // The reopened server serves and persists workloads normally.
        reopened.run_workload(cross_shard_workload(n, 100)).unwrap();
        let after = fingerprint(&reopened);
        drop(reopened);
        let (third, _) = open(config, &dir);
        assert_eq!(fingerprint(&third), after, "n={n} {point:?}");
        assert_fsck_clean(&third, &dir);
    }
}

/// Single-shard publishes (committed by their own journal record) and
/// cross-shard publishes (sealed by a commit record) interleave on one
/// 8-shard directory. A crash at every reachable point of every publish
/// must reopen to exactly the committed prefix, egfsck-clean — and the
/// single-shard publishes must never touch the commit log.
#[test]
fn interleaved_single_and_cross_shard_publishes_recover_at_every_crash_point() {
    let n = 8;
    let sequence: Vec<(usize, WorkloadDag)> = (0..4u64)
        .map(|i| {
            let span = if i % 2 == 0 { 1 } else { 2 };
            let dag = chain_over(n, 1000 + i, span);
            (shards_of(&dag, n).len(), dag)
        })
        .collect();
    assert_eq!(sequence[0].0, 1);
    assert!(sequence[1].0 >= 2);
    let commit_len = |dir: &PathBuf| std::fs::metadata(dir.join("eg.commit")).unwrap().len();
    for (victim, (span, _)) in sequence.iter().enumerate() {
        for point in crash_points(*span) {
            let dir = data_dir(&format!("interleaved_{victim}_{}", point.name()));
            let config = config_at(n);
            let (server, _) = open(config, &dir);
            let faults = Arc::new(FaultInjector::new());
            server.set_fault_injector(Arc::clone(&faults));
            for (span, dag) in &sequence[..victim] {
                let before = commit_len(&dir);
                server.run_workload(dag.clone()).unwrap();
                assert_eq!(
                    commit_len(&dir) > before,
                    *span > 1,
                    "only a cross-shard publish appends a commit record"
                );
            }
            let committed = fingerprint(&server);

            faults.arm_crash(point);
            let err = server.run_workload(sequence[victim].1.clone()).unwrap_err();
            assert!(err.to_string().contains(point.name()), "{point:?}: {err}");
            assert!(server.is_wedged());
            drop(server);

            let (reopened, _) = open(config, &dir);
            assert_eq!(
                fingerprint(&reopened),
                committed,
                "crash at {point:?} in publish {victim}"
            );
            assert_fsck_clean(&reopened, &dir);

            // The rest of the sequence publishes normally after the
            // restart and survives another one.
            for (_, dag) in &sequence[victim..] {
                reopened.run_workload(dag.clone()).unwrap();
            }
            let after = fingerprint(&reopened);
            drop(reopened);
            let (third, _) = open(config, &dir);
            assert_eq!(fingerprint(&third), after);
            assert_fsck_clean(&third, &dir);
        }
    }
}

/// A dataset operation with a fixed cost (a sleep) and a fixed output
/// size (`rows` floats in one column whose id is unique to the op), so
/// that under a tight budget the storage-aware materializer stores and
/// evicts by these numbers.
struct Work {
    name: String,
    millis: u64,
    rows: usize,
}

impl Operation for Work {
    fn name(&self) -> &str {
        &self.name
    }
    fn params_digest(&self) -> String {
        String::new()
    }
    fn output_kind(&self) -> NodeKind {
        NodeKind::Dataset
    }
    fn run(&self, _inputs: &[&Value]) -> co_graph::Result<Value> {
        std::thread::sleep(std::time::Duration::from_millis(self.millis));
        let column = co_dataframe::Column::derived(
            "v",
            co_dataframe::ColumnId::source(&self.name, "v"),
            co_dataframe::ColumnData::Float(vec![1.0; self.rows]),
        );
        Ok(Value::dataset(
            co_dataframe::DataFrame::new(vec![column]).expect("one column"),
        ))
    }
}

/// One chain `src → ops[0] → ops[1] → …` over a fixed op table (cost in
/// ms, output rows of 8 B); `salt` renames the ops — re-routing their
/// artifacts to other shards — without changing costs or sizes.
fn budget_chain(ops: &[&str], salt: u64) -> WorkloadDag {
    let mut dag = WorkloadDag::new();
    let src =
        co_dataframe::Column::source("src", "x", co_dataframe::ColumnData::Float(vec![0.5; 1000]));
    let mut prev = dag.add_source(
        "src",
        Value::dataset(co_dataframe::DataFrame::new(vec![src]).expect("one column")),
    );
    for name in ops {
        let (millis, rows) = match *name {
            "p" => (20, 1000),
            "q" => (40, 500),
            "r" => (100, 500),
            other => panic!("unknown op {other}"),
        };
        let op = Arc::new(Work {
            name: format!("{name}{salt}"),
            millis,
            rows,
        });
        prev = dag.add_op(op, &[prev]).unwrap();
    }
    dag.mark_terminal(prev).unwrap();
    dag
}

/// A budgeted sequence in which the storage-aware materializer evicts.
/// At 13 000 B the source (8 000 B) leaves room for one 4 000 B
/// artifact: the first workload stores `p/q` (`f·Cr/s` = 60/4000, far
/// above `p`'s 20/8000), and the second stores `r` (100/4000) in its
/// place, evicting `p/q` although the second workload never uses it.
const BUDGET: u64 = 13_000;
const BUDGET_SEQUENCE: [&[&str]; 2] = [&["p", "q"], &["r"]];

/// The op-name salt for [`BUDGET_SEQUENCE`] at eight shards: chosen so
/// that `r` shares the source's shard while `p/q` lives elsewhere, which
/// makes the second publish's merge a one-shard change that its
/// eviction turns cross-shard (asserted by the test, so a routing
/// change cannot silently drop the coverage).
const BUDGET_SALT: u64 = 9;

/// Each publish's per-shard journal records, by sequence number.
fn journaled_publishes(dir: &std::path::Path, n: usize) -> BTreeMap<u64, Vec<co_graph::EgDelta>> {
    let mut publishes: BTreeMap<u64, Vec<co_graph::EgDelta>> = BTreeMap::new();
    for k in 0..n {
        let replay = co_graph::journal::replay(&dir.join(format!("eg-{k}.wal"))).unwrap();
        for delta in replay.deltas {
            publishes.entry(delta.seq).or_default().push(delta);
        }
    }
    publishes
}

/// The journal crash matrix over a budgeted sequence in which the
/// paper's materializer evicts, at eight shards: a crash at every
/// reachable point of every publish reopens to exactly the committed
/// prefix, egfsck-clean. The sequence's journal holds a shard record
/// carrying only an eviction, in a publish that became cross-shard
/// through that eviction.
#[test]
fn budgeted_evictions_recover_at_every_crash_point() {
    let n = 8;
    let mut config = config_at(n);
    config.budget = BUDGET;
    let sequence: Vec<WorkloadDag> = BUDGET_SEQUENCE
        .iter()
        .map(|ops| budget_chain(ops, BUDGET_SALT))
        .collect();

    // A fault-free run records each publish's shard span.
    let dry = data_dir("budgeted_evictions_dry");
    let (server, _) = open(config, &dry);
    for dag in &sequence {
        server.run_workload(dag.clone()).unwrap();
    }
    drop(server);
    let publishes = journaled_publishes(&dry, n);
    assert_eq!(
        publishes.len(),
        sequence.len(),
        "one journaled publish per workload"
    );
    let mat_only = |d: &co_graph::EgDelta| d.new_vertices.is_empty() && d.touched.is_empty();
    assert!(
        publishes.values().flatten().any(mat_only),
        "no shard record holds only mat changes"
    );
    assert!(
        publishes.values().any(|deltas| {
            deltas.len() > 1
                && deltas.iter().filter(|d| !mat_only(d)).count() == 1
                && deltas
                    .iter()
                    .any(|d| mat_only(d) && !d.mat_removed.is_empty())
        }),
        "no publish became cross-shard through its evictions"
    );
    let spans: Vec<usize> = publishes.values().map(Vec::len).collect();

    for (victim, span) in spans.iter().enumerate() {
        for point in crash_points(*span) {
            let dir = data_dir(&format!("budgeted_evictions_{victim}_{}", point.name()));
            let (server, _) = open(config, &dir);
            let faults = Arc::new(FaultInjector::new());
            server.set_fault_injector(Arc::clone(&faults));
            for dag in &sequence[..victim] {
                server.run_workload(dag.clone()).unwrap();
            }
            let committed = fingerprint(&server);

            faults.arm_crash(point);
            let err = server.run_workload(sequence[victim].clone()).unwrap_err();
            assert!(err.to_string().contains(point.name()), "{point:?}: {err}");
            assert!(server.is_wedged());
            drop(server);

            let (reopened, _) = open(config, &dir);
            assert_eq!(
                fingerprint(&reopened),
                committed,
                "crash at {point:?} in publish {victim}"
            );
            assert_fsck_clean(&reopened, &dir);
        }
    }
}

#[test]
fn snapshot_crash_points_never_damage_the_live_snapshot() {
    snapshot_crash_matrix(1);
}

#[test]
fn sharded_compaction_crash_points_never_damage_live_snapshots() {
    snapshot_crash_matrix(8);
}

/// The snapshot crash-point matrix at `n` shards: a compaction interrupted at
/// any point leaves the live snapshots and journals recovering everything
/// committed.
fn snapshot_crash_matrix(n: usize) {
    for point in [
        CrashPoint::SnapshotMidWrite,
        CrashPoint::SnapshotPreFsync,
        CrashPoint::SnapshotPreRename,
    ] {
        let dir = data_dir(&format!("crash_s{n}_{}", point.name()));
        let config = config_at(n);
        let (server, _) = open(config, &dir);
        let faults = Arc::new(FaultInjector::new());
        server.set_fault_injector(Arc::clone(&faults));

        // One compacted publish (lives in the snapshots) plus one
        // journaled publish, so recovery must stitch both sources.
        server.run_workload(cross_shard_workload(n, 1)).unwrap();
        server.compact().unwrap();
        server.run_workload(cross_shard_workload(n, 50)).unwrap();
        let committed = fingerprint(&server);

        faults.arm_crash(point);
        let err = server.compact().unwrap_err();
        assert!(err.to_string().contains(point.name()), "{err}");
        assert_eq!(faults.crashes_fired(), 1);

        // The interrupted save left (at most) a temp file behind; the
        // live snapshots + journals still recover everything
        // committed.
        drop(server);
        let (reopened, recovery) = open(config, &dir);
        assert_eq!(fingerprint(&reopened), committed, "n={n} {point:?}");
        assert_eq!(recovery.stray_tmp_removed, 1, "{point:?}");
        assert!(recovery.snapshot_loaded);

        // Compaction itself still works after the "crash";
        // afterwards the journals replay nothing.
        reopened.compact().unwrap();
        assert_eq!(reopened.stats().snapshots_compacted, 1);
        drop(reopened);
        let (third, recovery) = open(config, &dir);
        assert_eq!(fingerprint(&third), committed, "n={n} {point:?}");
        assert_eq!(recovery.journal_records_replayed, 0, "journals compacted");
        assert_fsck_clean(&third, &dir);
    }
}

#[test]
fn torn_tail_is_truncated_and_reported() {
    for n in SHARD_COUNTS {
        let dir = data_dir(&format!("torn_tail_s{n}"));
        let config = config_at(n);
        let (server, _) = open(config, &dir);
        let faults = Arc::new(FaultInjector::new());
        server.set_fault_injector(Arc::clone(&faults));
        server.run_workload(workload("tail_one")).unwrap();
        faults.arm_crash(CrashPoint::JournalMidAppend);
        server.run_workload(workload("tail_two")).unwrap_err();
        drop(server);

        // One record per shard each publish touched.
        let records = |tail| shards_of(&workload(tail), n).len();
        let (reopened, recovery) = open(config, &dir);
        assert!(recovery.torn_tail_truncated);
        assert!(recovery.torn_bytes_discarded > 0);
        assert_eq!(recovery.journal_records_replayed, records("tail_one"));
        let stats = reopened.stats();
        assert_eq!(stats.journal_records_replayed, records("tail_one"));
        assert_eq!(stats.torn_tail_truncated, 1);
        assert!(
            recovery.render().contains("torn tail"),
            "{}",
            recovery.render()
        );

        // The truncated journal accepts appends again; a third open sees
        // clean files with both workloads.
        reopened.run_workload(workload("tail_two")).unwrap();
        drop(reopened);
        let (third, recovery) = open(config, &dir);
        assert!(!recovery.torn_tail_truncated);
        assert_eq!(
            recovery.journal_records_replayed,
            records("tail_one") + records("tail_two")
        );
        assert_eq!(third.stats().torn_tail_truncated, 0);
        assert_fsck_clean(&third, &dir);
    }
}

#[test]
fn quarantine_survives_restart() {
    quarantine_restart_at(1);
}

#[test]
fn sharded_quarantine_survives_restart() {
    quarantine_restart_at(8);
}

/// A tripped quarantine at `n` shards is restored on reopen, and its release
/// is durable.
fn quarantine_restart_at(n: usize) {
    let dir = data_dir(&format!("quarantine_restart_s{n}"));
    let mut config = config_at(n);
    config.quarantine_after = Some(2);
    let (server, _) = open(config, &dir);
    let faults = Arc::new(FaultInjector::new());
    faults.fail_op_forever("tail_one", FaultKind::Permanent);
    server.set_fault_injector(Arc::clone(&faults));

    // Two consecutive permanent failures trip the quarantine; the
    // second run's delta journals the Q+ entry (in shard 0's
    // journal).
    server.run_workload(workload("tail_one")).unwrap_err();
    server.run_workload(workload("tail_one")).unwrap_err();
    let committed = fingerprint(&server);
    assert_eq!(committed.quarantine.len(), 1);

    // Restart WITHOUT the fault injector: the operation would
    // succeed if re-run, but the restored quarantine fast-fails it
    // instead of letting the poisoned op at the server again.
    drop(server);
    let (reopened, recovery) = open(config, &dir);
    assert_eq!(recovery.quarantine_restored, 1);
    assert_eq!(fingerprint(&reopened), committed);
    let err = reopened.run_workload(workload("tail_one")).unwrap_err();
    assert!(
        matches!(err.error, GraphError::Quarantined { failures: 2, .. }),
        "{err}"
    );

    // Releasing and succeeding clears the entry durably (Q-
    // journaled).
    {
        let quarantine = reopened.quarantine().unwrap();
        let (op, ..) = quarantine.entries()[0];
        quarantine.release(op);
    }
    reopened.run_workload(workload("tail_one")).unwrap();
    drop(reopened);
    let (third, recovery) = open(config, &dir);
    assert_eq!(recovery.quarantine_restored, 0);
    assert!(fingerprint(&third).quarantine.is_empty());
    third.run_workload(workload("tail_one")).unwrap();
    assert_fsck_clean(&third, &dir);
}

#[test]
fn journal_threshold_triggers_auto_compaction() {
    for n in SHARD_COUNTS {
        let dir = data_dir(&format!("auto_compact_s{n}"));
        let config = config_at(n);
        let mut durability = DurabilityConfig::new(&dir);
        durability.compact_journal_bytes = 1; // every publish crosses it
        let (server, _) = OptimizerServer::open(config, durability).unwrap();
        server.run_workload(workload("tail_one")).unwrap();
        server.run_workload(workload("tail_two")).unwrap();
        assert!(server.stats().snapshots_compacted >= 2);
        let committed = fingerprint(&server);
        drop(server);

        // Everything lives in the snapshots; the journals replay nothing.
        let (reopened, recovery) = open(config, &dir);
        assert!(recovery.snapshot_loaded);
        assert_eq!(recovery.journal_records_replayed, 0);
        assert_eq!(fingerprint(&reopened), committed);
        assert_fsck_clean(&reopened, &dir);
    }
}

#[test]
fn eviction_is_durable() {
    for n in SHARD_COUNTS {
        let dir = data_dir(&format!("evict_durable_s{n}"));
        let config = config_at(n);
        let (server, _) = open(config, &dir);
        server.run_workload(workload("tail_one")).unwrap();
        let evict: Vec<ArtifactId> = server
            .shards()
            .read_all()
            .iter()
            .flat_map(|eg| eg.storage().materialized_ids())
            .collect();
        assert!(!evict.is_empty());
        for id in &evict {
            server.evict_artifact(*id);
        }
        let committed = fingerprint(&server);
        for id in &evict {
            assert!(!committed.mat.contains(&id.0));
        }
        drop(server);

        let (reopened, _) = open(config, &dir);
        assert_eq!(
            fingerprint(&reopened),
            committed,
            "eviction survives restart"
        );
        assert_fsck_clean(&reopened, &dir);
    }
}

/// A data directory refuses to open under a different shard count than
/// it was written with, in both directions.
#[test]
fn shard_count_mismatch_is_rejected_at_open() {
    let dir = data_dir("shard_mismatch");
    let config = config_at(8);
    let (server, _) = open(config, &dir);
    server.run_workload(workload("tail_one")).unwrap();
    drop(server);

    for wrong in [4, 1] {
        let err = OptimizerServer::open(config_at(wrong), DurabilityConfig::new(&dir))
            .err()
            .unwrap();
        assert!(err.to_string().contains("sharded 8 way"), "{err}");
    }

    // And the reverse: a one-shard directory opened with shards > 1.
    let one_dir = data_dir("shard_mismatch_one");
    let (server, _) = open(config_at(1), &one_dir);
    server.run_workload(workload("tail_one")).unwrap();
    drop(server);
    let err = OptimizerServer::open(config, DurabilityConfig::new(&one_dir))
        .err()
        .unwrap();
    assert!(err.to_string().contains("sharded 1 way"), "{err}");
}

/// Directories in an earlier on-disk format are refused with a format
/// error, never served (or fsck'd) as an empty graph: a single-graph
/// `eg.wal`/`eg.egsnap` pair at every shard count, and per-shard
/// journals still carrying the `EGWAL 1` magic.
#[test]
fn older_layouts_are_rejected_not_read_as_empty() {
    let listing = |dir: &PathBuf| -> BTreeSet<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect()
    };

    let single = data_dir("older_single_graph_layout");
    std::fs::create_dir_all(&single).unwrap();
    std::fs::write(single.join("eg.wal"), b"EGWAL 1\n").unwrap();
    std::fs::write(single.join("eg.egsnap"), b"EGSNAP 2\n").unwrap();
    let before = listing(&single);
    for n in SHARD_COUNTS {
        let err = OptimizerServer::open(config_at(n), DurabilityConfig::new(&single))
            .err()
            .unwrap();
        assert!(matches!(err, GraphError::InvalidStructure(_)), "{err}");
        assert!(err.to_string().contains("single-graph layout"), "{err}");
    }
    assert_eq!(listing(&single), before, "a refused open must not write");
    let err = co_graph::fsck::check_data_dir(&single, true).unwrap_err();
    assert!(err.to_string().contains("single-graph layout"), "{err}");

    let old_journals = data_dir("older_journal_magic");
    let (server, _) = open(config_at(8), &old_journals);
    for salt in 0..3 {
        server.run_workload(cross_shard_workload(8, salt)).unwrap();
    }
    drop(server);
    for k in 0..8 {
        let path = old_journals.join(format!("eg-{k}.wal"));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(b"EGWAL 1\n");
        std::fs::write(&path, bytes).unwrap();
    }
    let err = OptimizerServer::open(config_at(8), DurabilityConfig::new(&old_journals))
        .err()
        .unwrap();
    assert!(matches!(err, GraphError::InvalidStructure(_)), "{err}");
    assert!(err.to_string().contains("EGWAL 1"), "{err}");
    let err = co_graph::fsck::check_data_dir(&old_journals, true).unwrap_err();
    assert!(err.to_string().contains("EGWAL 1"), "{err}");

    // Both directories are unreadable by design: remove them, so the
    // egfsck sweep over the directories tests leave checks only ones
    // that must be clean.
    std::fs::remove_dir_all(&single).unwrap();
    std::fs::remove_dir_all(&old_journals).unwrap();
}
