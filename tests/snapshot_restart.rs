//! Server-restart behavior: the Experiment Graph's meta-data survives
//! through a snapshot; contents repopulate as workloads execute.

use co_core::{DurabilityConfig, OptimizerServer, ServerConfig};
use co_graph::snapshot;
use co_workloads::data::{home_credit, HomeCreditScale};
use co_workloads::kaggle;
use std::path::PathBuf;

#[test]
fn restart_keeps_meta_and_regains_reuse() {
    let data = home_credit(&HomeCreditScale::tiny());
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("snapshot_restart");
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig::collaborative(u64::MAX);

    // Session 1: run two workloads, compact them into the snapshot.
    let (first, _) = OptimizerServer::open(config, DurabilityConfig::new(&dir)).unwrap();
    first.run_workload(kaggle::w1(&data).unwrap()).unwrap();
    first.run_workload(kaggle::w2(&data).unwrap()).unwrap();
    first.compact().unwrap();
    let n_before = first.shards().read(0).n_vertices();
    drop(first);

    // Session 2 (after a restart): the meta-data comes back from the
    // snapshot alone.
    let (second, recovery) = OptimizerServer::open(config, DurabilityConfig::new(&dir)).unwrap();
    assert!(recovery.snapshot_loaded);
    assert_eq!(recovery.journal_records_replayed, 0);
    assert_eq!(second.shards().read(0).n_vertices(), n_before);

    // The graph knows every artifact of W1 (frequencies, costs) but holds
    // no content beyond what restored mat flags promise, so the first
    // resubmission recomputes —
    let (_, rerun) = second.run_workload(kaggle::w1(&data).unwrap()).unwrap();
    assert_eq!(rerun.artifacts_loaded, 0, "no content right after restart");
    assert!(rerun.ops_executed > 0);
    // — and frequencies carried over: W1's artifacts now have f >= 2.
    {
        let eg = second.shards().read(0);
        let w1 = kaggle::w1(&data).unwrap();
        let some_artifact = w1.nodes().last().unwrap().artifact;
        assert!(eg.vertex(some_artifact).unwrap().frequency >= 2);
    }

    // The updater re-materialized during that run: the *next* repeat
    // reuses again, as before the restart.
    let (_, repeat) = second.run_workload(kaggle::w1(&data).unwrap()).unwrap();
    assert!(
        repeat.artifacts_loaded > 0,
        "reuse regained after repopulation"
    );
    assert!(repeat.run_seconds() < rerun.run_seconds() / 2.0);
}

#[test]
fn reopen_derives_the_dedup_mode_from_the_config() {
    // The data directory does not fix the store's dedup mode: `open`
    // builds the store in the mode the configured materializer budgets
    // in, so the two cannot disagree. A directory written under SA (column
    // dedup) reopens under Helix (plain store) and back, keeping its
    // meta-data each time.
    let data = home_credit(&HomeCreditScale::tiny());
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("dedup_reopen");
    let _ = std::fs::remove_dir_all(&dir);
    let sa = ServerConfig::collaborative(u64::MAX);
    let helix = ServerConfig::helix(u64::MAX);
    let terminal = kaggle::w1(&data).unwrap().nodes().last().unwrap().artifact;

    let (first, _) = OptimizerServer::open(sa, DurabilityConfig::new(&dir)).unwrap();
    first.run_workload(kaggle::w1(&data).unwrap()).unwrap();
    assert!(first.shards().read(0).storage().dedup_enabled());
    let n_before = first.shards().read(0).n_vertices();
    drop(first);

    let (second, _) = OptimizerServer::open(helix, DurabilityConfig::new(&dir)).unwrap();
    assert!(!second.shards().read(0).storage().dedup_enabled());
    assert_eq!(second.shards().read(0).n_vertices(), n_before);
    second.run_workload(kaggle::w1(&data).unwrap()).unwrap();
    assert_eq!(
        second.shards().read(0).vertex(terminal).unwrap().frequency,
        2
    );
    drop(second);

    let (third, _) = OptimizerServer::open(sa, DurabilityConfig::new(&dir)).unwrap();
    assert!(third.shards().read(0).storage().dedup_enabled());
    assert_eq!(third.shards().read(0).n_vertices(), n_before);
    assert_eq!(
        third.shards().read(0).vertex(terminal).unwrap().frequency,
        2
    );
}

#[test]
fn snapshot_is_stable_across_round_trips() {
    let data = home_credit(&HomeCreditScale::tiny());
    let server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
    server.run_workload(kaggle::w4(&data).unwrap()).unwrap();
    let once = snapshot::to_shard_snapshot(&server.shards().read(0), &[], 1).unwrap();
    let restored = snapshot::from_shard_snapshot(&once, true, "<memory>").unwrap();
    let twice = snapshot::to_shard_snapshot(&restored.graph, &[], 1).unwrap();
    assert_eq!(once, twice, "snapshot must be a fixpoint");
}
