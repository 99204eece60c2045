//! Property tests for the materialization algorithms over randomly
//! generated Experiment Graphs with real (deduplicable) dataframe
//! content — on one graph, and on the same graphs split into 1, 2 and 8
//! shards, where every materializer but Helix must decide identically.

use co_core::materialize::{
    materialize, AllMaterializer, GreedyMaterializer, HelixMaterializer, Materializer,
    NoneMaterializer, StorageAwareMaterializer,
};
use co_core::CostModel;
use co_dataframe::ops::{self, MapFn};
use co_dataframe::{Column, ColumnData, DataFrame};
use co_graph::{
    shard, ArtifactId, EgView, ExperimentGraph, NodeKind, Operation, ShardedEg, Value, WorkloadDag,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// A map op over the base column, producing one extra derived column.
/// A `Model`-kind op stands in for a trained model (its content is a
/// dataset all the same; the materializers only read the kind).
struct Derive(String, NodeKind);
impl Operation for Derive {
    fn name(&self) -> &str {
        &self.0
    }
    fn params_digest(&self) -> String {
        String::new()
    }
    fn output_kind(&self) -> NodeKind {
        self.1
    }
    fn run(&self, inputs: &[&Value]) -> co_graph::Result<Value> {
        let df = inputs[0].as_dataset().expect("dataset input");
        Ok(Value::dataset(
            ops::map_column(df, "base", &MapFn::AddConst(1.0), &self.0)
                .expect("base column exists"),
        ))
    }
}

/// Build and execute a DAG from chains of deriving ops; `branch` seeds
/// where chains restart from the source (fresh content = no dedup
/// sharing) and, with `models`, which ops are models. Op names follow
/// the position, so two specs sharing a prefix share its artifacts.
fn build_dag(
    spec: &[(u8, u16)], // (branch seed, compute time)
    rows: usize,
    models: bool,
) -> (WorkloadDag, HashMap<ArtifactId, Value>) {
    let base = DataFrame::new(vec![Column::source(
        "src",
        "base",
        ColumnData::Float((0..rows).map(|i| i as f64).collect()),
    )])
    .expect("one column");
    let mut dag = WorkloadDag::new();
    let src = dag.add_source("src", Value::dataset(base));
    let mut prev = src;
    let mut nodes = Vec::new();
    for (i, (branch, _)) in spec.iter().enumerate() {
        let from = if branch % 4 == 0 { src } else { prev };
        let kind = if models && branch % 3 == 2 {
            NodeKind::Model
        } else {
            NodeKind::Dataset
        };
        let node = dag
            .add_op(Arc::new(Derive(format!("d{i}"), kind)), &[from])
            .unwrap();
        nodes.push(node);
        prev = node;
    }
    dag.mark_terminal(prev).unwrap();

    // Execute by hand.
    for n in &nodes {
        let parents = dag.parents(*n);
        let input = dag.nodes()[parents[0].0]
            .computed
            .clone()
            .expect("parent executed");
        let op = Arc::clone(&dag.producer(*n).unwrap().op);
        let out = op.run(&[&input]).unwrap();
        let size = out.nbytes() as u64;
        dag.set_computed(*n, out).unwrap();
        dag.annotate(*n, 1.0, size).unwrap();
    }
    // Re-apply compute times (and model qualities) from the spec.
    for (n, (branch, t)) in nodes.iter().zip(spec) {
        let node = dag.node_mut(*n).unwrap();
        node.compute_time = Some(f64::from(*t) / 8.0 + 0.1);
        if node.kind == NodeKind::Model {
            node.quality = f64::from(*branch) / 8.0 + f64::from(*t) / 64.0;
        }
    }
    let available: HashMap<ArtifactId, Value> = dag
        .nodes()
        .iter()
        .filter_map(|n| n.computed.as_ref().map(|v| (n.artifact, v.clone())))
        .collect();
    (dag, available)
}

/// Build an EG from one executed DAG (see [`build_dag`]).
fn build_eg(
    spec: &[(u8, u16)],
    rows: usize,
    dedup: bool,
) -> (ExperimentGraph, HashMap<ArtifactId, Value>) {
    let (dag, available) = build_dag(spec, rows, false);
    let mut eg = ExperimentGraph::new(dedup);
    eg.update_with_workload(&dag).unwrap();
    (eg, available)
}

/// Run a materializer over one plain graph.
fn run(
    m: &dyn Materializer,
    eg: &mut ExperimentGraph,
    available: &HashMap<ArtifactId, Value>,
    cost: &CostModel,
) {
    materialize(m, &mut [eg], available, cost);
}

/// One materializer decision, as sorted id lists: (stores, evictions).
type Decided = (Vec<ArtifactId>, Vec<ArtifactId>);

/// Merge each workload into a fresh `n`-shard graph and materialize
/// after each one, as the server's updater does. Returns every step's
/// decision and the final graph's logical bytes.
fn decide_per_workload(
    n: usize,
    dedup: bool,
    m: &dyn Materializer,
    workloads: &[(WorkloadDag, HashMap<ArtifactId, Value>)],
    cost: &CostModel,
) -> (Vec<Decided>, u64) {
    let eg = ShardedEg::new(n, dedup);
    let mut guards = eg.write_all();
    let mut steps = Vec::new();
    for (dag, available) in workloads {
        shard::merge_workload(&mut guards, dag, &vec![true; dag.n_nodes()]).unwrap();
        let decision = m.decide(&EgView::of(&guards), available, cost);
        let mut stored: Vec<ArtifactId> = decision.store.iter().map(|(id, _)| *id).collect();
        let mut evicted = decision.evict.clone();
        stored.sort_unstable();
        evicted.sort_unstable();
        steps.push((stored, evicted));
        decision.apply(&mut guards);
    }
    let logical = EgView::of(&guards).logical_bytes();
    (steps, logical)
}

/// Cost model where loads are always cheaper than recomputation, so
/// every vertex is a materialization candidate.
fn cheap_loads() -> CostModel {
    CostModel {
        latency_s: 0.0,
        bandwidth_bytes_per_s: 1e12,
    }
}

fn source_bytes(eg: &ExperimentGraph) -> u64 {
    eg.sources()
        .iter()
        .filter_map(|id| eg.vertex(*id).ok().map(|v| v.size))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn budgets_are_hard_caps(
        spec in proptest::collection::vec((0u8..8, 0u16..32), 1..20),
        budget_kb in 1u64..200,
    ) {
        let budget = budget_kb * 1024;
        let cost = cheap_loads();
        // SA: unique bytes capped (sources exempt as the floor).
        let (mut eg, available) = build_eg(&spec, 500, true);
        let floor = eg.storage().unique_bytes();
        run(&StorageAwareMaterializer::new(budget), &mut eg, &available, &cost);
        prop_assert!(eg.storage().unique_bytes() <= budget.max(floor));

        // HM: logical bytes capped.
        let (mut eg, available) = build_eg(&spec, 500, false);
        let floor = eg.storage().logical_bytes();
        run(&GreedyMaterializer::new(budget), &mut eg, &available, &cost);
        prop_assert!(eg.storage().logical_bytes() <= budget.max(floor));

        // HL: logical bytes capped modulo late-arriving sources (none
        // here: single workload).
        let (mut eg, available) = build_eg(&spec, 500, false);
        let floor = eg.storage().logical_bytes();
        run(&HelixMaterializer { budget }, &mut eg, &available, &cost);
        prop_assert!(eg.storage().logical_bytes() <= budget.max(floor));
    }

    #[test]
    fn sa_stores_at_least_as_many_artifacts_as_hm(
        spec in proptest::collection::vec((0u8..8, 0u16..32), 1..20),
        budget_kb in 4u64..100,
    ) {
        // With identical budgets, deduplication can only help: SA
        // materializes at least as many artifacts as HM.
        let budget = budget_kb * 1024;
        let cost = cheap_loads();
        let (mut eg_sa, available) = build_eg(&spec, 500, true);
        run(&StorageAwareMaterializer::new(budget), &mut eg_sa, &available, &cost);
        let (mut eg_hm, available) = build_eg(&spec, 500, false);
        run(&GreedyMaterializer::new(budget), &mut eg_hm, &available, &cost);
        prop_assert!(
            eg_sa.storage().n_artifacts() >= eg_hm.storage().n_artifacts(),
            "SA {} < HM {}", eg_sa.storage().n_artifacts(), eg_hm.storage().n_artifacts()
        );
    }

    #[test]
    fn sa_without_dedup_degrades_to_hm(
        spec in proptest::collection::vec((0u8..8, 0u16..32), 1..20),
        budget_kb in 4u64..100,
    ) {
        // The DESIGN.md ablation: on a plain (non-deduplicating) store,
        // marginal bytes equal nominal bytes, so the storage-aware
        // selection coincides with the greedy one.
        let budget = budget_kb * 1024;
        let cost = cheap_loads();
        let (mut eg_sa, available) = build_eg(&spec, 500, false);
        run(&StorageAwareMaterializer::new(budget), &mut eg_sa, &available, &cost);
        let (mut eg_hm, available) = build_eg(&spec, 500, false);
        run(&GreedyMaterializer::new(budget), &mut eg_hm, &available, &cost);
        let mut sa_set = eg_sa.storage().materialized_ids();
        let mut hm_set = eg_hm.storage().materialized_ids();
        sa_set.sort();
        hm_set.sort();
        prop_assert_eq!(sa_set, hm_set);
    }

    #[test]
    fn all_and_none_are_the_extremes(
        spec in proptest::collection::vec((0u8..8, 0u16..32), 1..15),
    ) {
        let cost = cheap_loads();
        let (mut eg, available) = build_eg(&spec, 200, true);
        let n_sources = eg.sources().len();
        run(&NoneMaterializer, &mut eg, &available, &cost);
        prop_assert_eq!(eg.storage().n_artifacts(), n_sources);
        run(&AllMaterializer, &mut eg, &available, &cost);
        prop_assert_eq!(eg.storage().n_artifacts(), eg.n_vertices());
        // Every stored artifact round-trips.
        for id in eg.storage().materialized_ids() {
            prop_assert!(eg.storage().get(id).is_some());
        }
    }

    #[test]
    fn materializers_are_idempotent(
        spec in proptest::collection::vec((0u8..8, 0u16..32), 1..15),
        budget_kb in 4u64..100,
    ) {
        // Running the same materializer twice on an unchanged graph must
        // not change the stored set.
        let budget = budget_kb * 1024;
        let cost = cheap_loads();
        let (mut eg, available) = build_eg(&spec, 300, true);
        let sa = StorageAwareMaterializer::new(budget);
        run(&sa, &mut eg, &available, &cost);
        let mut first: Vec<_> = eg.storage().materialized_ids();
        first.sort();
        let first_bytes = eg.storage().unique_bytes();
        run(&sa, &mut eg, &available, &cost);
        let mut second: Vec<_> = eg.storage().materialized_ids();
        second.sort();
        prop_assert_eq!(first, second);
        prop_assert_eq!(first_bytes, eg.storage().unique_bytes());
    }

    #[test]
    fn sources_always_survive(
        spec in proptest::collection::vec((0u8..8, 0u16..32), 1..15),
        budget_kb in 0u64..50,
    ) {
        let cost = cheap_loads();
        for dedup in [true, false] {
            let (mut eg, available) = build_eg(&spec, 300, dedup);
            let mats: Vec<Box<dyn Materializer>> = vec![
                Box::new(StorageAwareMaterializer::new(budget_kb * 1024)),
                Box::new(GreedyMaterializer::new(budget_kb * 1024)),
                Box::new(HelixMaterializer { budget: budget_kb * 1024 }),
                Box::new(NoneMaterializer),
            ];
            for m in mats {
                run(&*m, &mut eg, &available, &cost);
                for src in eg.sources() {
                    prop_assert!(eg.is_materialized(*src), "{} evicted a source", m.name());
                }
            }
            prop_assert!(source_bytes(&eg) > 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decisions_are_the_same_at_every_shard_count(
        specs in proptest::collection::vec(
            proptest::collection::vec((0u8..8, 0u16..32), 1..10),
            1..4,
        ),
        budget_kb in 2u64..40,
    ) {
        let budget = budget_kb * 1024;
        let cost = cheap_loads();
        let workloads: Vec<_> = specs.iter().map(|s| build_dag(s, 300, true)).collect();
        let capped = GreedyMaterializer {
            budget,
            alpha: 0.5,
            max_artifacts: Some(2),
        };
        let cases: [(&dyn Materializer, bool); 5] = [
            (&StorageAwareMaterializer::new(budget), true),
            (&GreedyMaterializer::new(budget), false),
            (&capped, false),
            (&AllMaterializer, true),
            (&NoneMaterializer, true),
        ];
        for (m, dedup) in cases {
            let (one, _) = decide_per_workload(1, dedup, m, &workloads, &cost);
            for n in [2, 8] {
                let (many, _) = decide_per_workload(n, dedup, m, &workloads, &cost);
                prop_assert_eq!(&one, &many, "{} at {} shards", m.name(), n);
            }
        }

        // Helix walks a merge of the shards' arrival orders, so its
        // picks may differ from one shard's; it still never evicts and
        // never overruns the budget (sources are the floor).
        let helix = HelixMaterializer { budget };
        let (steps, logical) = decide_per_workload(8, false, &helix, &workloads, &cost);
        prop_assert!(steps.iter().all(|(_, evicted)| evicted.is_empty()));
        let source = workloads[0].0.nodes()[0].artifact;
        let floor = workloads[0].1.get(&source).map_or(0, |v| v.nbytes() as u64);
        prop_assert!(logical <= budget.max(floor), "Helix holds {} of {}", logical, budget);
    }
}
