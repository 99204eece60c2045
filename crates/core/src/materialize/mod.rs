//! Artifact materialization under a storage budget (paper §5).
//!
//! Materializers run inside the server's updater after each workload: they
//! look at the whole Experiment Graph — every shard, through one
//! [`EgView`] — decide which artifact contents to keep, evict what no
//! longer earns its bytes, and store what does (when the content is at
//! hand — either in the just-executed workload or already in the store).
//! Deciding is read-only; [`materialize`] applies the decision, sending
//! each store and eviction to the shard owning the artifact.

mod greedy;
mod helix;
mod simple;
mod storage_aware;

pub use greedy::GreedyMaterializer;
pub use helix::HelixMaterializer;
pub use simple::{AllMaterializer, NoneMaterializer};
pub use storage_aware::StorageAwareMaterializer;

use crate::cost::CostModel;
use co_graph::{shard_of, ArtifactId, EgView, ExperimentGraph, GraphQuery, Value};
use std::collections::{HashMap, HashSet};
use std::ops::DerefMut;

/// A materialization strategy.
pub trait Materializer: Send + Sync {
    /// Short name used in reports ("HM", "SA", "HL", "ALL", "NONE").
    fn name(&self) -> &'static str;

    /// Decide materialization over the whole graph. `available` maps
    /// artifact ids to contents produced by the workload that just
    /// executed.
    fn decide(
        &self,
        eg: &EgView<'_>,
        available: &HashMap<ArtifactId, Value>,
        cost: &CostModel,
    ) -> MatDecision;
}

/// What a materializer decided: the artifacts to evict, and the
/// artifacts to store with their content.
#[derive(Debug, Default)]
pub struct MatDecision {
    /// Artifacts to store, in decision order.
    pub store: Vec<(ArtifactId, Value)>,
    /// Stored artifacts to evict.
    pub evict: Vec<ArtifactId>,
}

impl MatDecision {
    /// Apply the decision to a shard array (one shard for a plain
    /// graph): evictions first, then stores, each on the shard owning
    /// the artifact. Already-stored artifacts are left as they are.
    pub fn apply<G: DerefMut<Target = ExperimentGraph>>(self, shards: &mut [G]) {
        let n = shards.len();
        for id in self.evict {
            shards[shard_of(id, n)].storage_mut().evict(id);
        }
        for (id, value) in self.store {
            let shard = &mut shards[shard_of(id, n)];
            if !shard.is_materialized(id) {
                shard.storage_mut().store(id, &value);
            }
        }
    }
}

/// Run a materializer over a shard array: decide over a view of every
/// shard, then apply.
pub fn materialize<G: DerefMut<Target = ExperimentGraph>>(
    materializer: &dyn Materializer,
    shards: &mut [G],
    available: &HashMap<ArtifactId, Value>,
    cost: &CostModel,
) {
    let decision = {
        let view = EgView::of(shards);
        materializer.decide(&view, available, cost)
    };
    decision.apply(shards);
}

/// A scored materialization candidate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub id: ArtifactId,
    /// Nominal (un-deduplicated) content size.
    pub size: u64,
    /// Utility `U(v)` from Equation 2.
    pub utility: f64,
    /// Normalized cost-size ratio (tie-breaker for equal utilities:
    /// among the ancestors of the best model — which all share its
    /// potential — the cheapest-to-store, costliest-to-recreate vertex,
    /// i.e. the model itself, wins).
    pub rcs_norm: f64,
}

/// Compute the utility of every non-source vertex (paper §5.2,
/// Equation 2):
///
/// `U(v) = 0` when `Cl(v) >= Cr(v)` (recomputing beats loading — never
/// materialize), otherwise `α·p'(v) + (1-α)·r'cs(v)` with `p` the model
/// potential, `rcs = f·Cr/s` the weighted cost-size ratio, both normalized
/// by their totals. The totals are summed in ascending-id order, so the
/// same graph scores bitwise the same at any shard count. Zero-utility
/// vertices are omitted. The result is sorted by descending utility (ties
/// broken by id for determinism).
pub(crate) fn utilities(eg: &EgView<'_>, cost: &CostModel, alpha: f64) -> Vec<Candidate> {
    let recreation = eg.recreation_costs();
    let potential = eg.potentials();
    let sources: HashSet<ArtifactId> = eg.sources().collect();

    struct Raw {
        id: ArtifactId,
        size: u64,
        p: f64,
        rcs: f64,
    }
    let mut raw: Vec<Raw> = Vec::new();
    for v in eg.vertices() {
        if sources.contains(&v.id) || v.size == 0 {
            continue;
        }
        // Scalar aggregates are excluded: an 8-byte score whose
        // recreation cost is the whole pipeline has an unbounded
        // cost-size ratio and would degenerate the utility ranking; the
        // paper's materialization targets are datasets and models
        // (§5.1's metrics are column overlap and model quality).
        if v.kind == co_graph::NodeKind::Aggregate {
            continue;
        }
        let cr = recreation[&v.id];
        let cl = cost.load_cost(v.size);
        if cl >= cr {
            continue; // Equation 2: utility 0, never materialize
        }
        raw.push(Raw {
            id: v.id,
            size: v.size,
            p: potential[&v.id],
            rcs: v.frequency as f64 * cr / v.size as f64,
        });
    }
    raw.sort_unstable_by_key(|r| r.id);
    let p_sum: f64 = raw.iter().map(|r| r.p).sum();
    let rcs_sum: f64 = raw.iter().map(|r| r.rcs).sum();
    let mut out: Vec<Candidate> = raw
        .into_iter()
        .map(|r| {
            let p_norm = if p_sum > 0.0 { r.p / p_sum } else { 0.0 };
            let rcs_norm = if rcs_sum > 0.0 { r.rcs / rcs_sum } else { 0.0 };
            Candidate {
                id: r.id,
                size: r.size,
                utility: alpha * p_norm + (1.0 - alpha) * rcs_norm,
                rcs_norm,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.utility
            .partial_cmp(&a.utility)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                b.rcs_norm
                    .partial_cmp(&a.rcs_norm)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| a.id.cmp(&b.id))
    });
    out
}

/// Retrieve content for an artifact: from the just-executed workload, or
/// from the store itself (for re-evaluation of already-stored artifacts).
pub(crate) fn content_of(
    eg: &EgView<'_>,
    available: &HashMap<ArtifactId, Value>,
    id: ArtifactId,
) -> Option<Value> {
    available.get(&id).cloned().or_else(|| eg.load_content(id))
}

/// Bytes the always-stored source artifacts occupy, by vertex size.
/// Sources are stored unconditionally by the updater (paper §3.2) and are
/// never evicted; they count against the budget like every other
/// materialized vertex (`Σ mat·s <= B`).
pub(crate) fn source_store_bytes(eg: &EgView<'_>) -> u64 {
    eg.sources()
        .filter(|id| eg.has_content(*id))
        .filter_map(|id| eg.lookup(id).map(|v| v.size))
        .sum()
}

/// Every stored non-source artifact outside `desired` — the evictions
/// that make room for the desired set.
pub(crate) fn evictions_except(eg: &EgView<'_>, desired: &HashSet<ArtifactId>) -> Vec<ArtifactId> {
    let sources: HashSet<ArtifactId> = eg.sources().collect();
    eg.materialized_ids()
        .into_iter()
        .filter(|id| !desired.contains(id) && !sources.contains(id))
        .collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for materializer tests: a small Experiment Graph
    //! with controllable sizes, costs, frequencies, and model qualities.

    use super::{materialize, Materializer};
    use crate::cost::CostModel;
    use co_dataframe::Scalar;
    use co_graph::{ArtifactId, ExperimentGraph, NodeKind, Operation, Value, WorkloadDag};
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Run a materializer over one plain graph.
    pub fn run(
        m: &dyn Materializer,
        eg: &mut ExperimentGraph,
        available: &HashMap<ArtifactId, Value>,
        cost: &CostModel,
    ) {
        materialize(m, &mut [eg], available, cost);
    }

    pub struct Tag(pub &'static str, pub NodeKind);
    impl Operation for Tag {
        fn name(&self) -> &str {
            self.0
        }
        fn params_digest(&self) -> String {
            String::new()
        }
        fn output_kind(&self) -> NodeKind {
            self.1
        }
        fn run(&self, _inputs: &[&Value]) -> co_graph::Result<Value> {
            Ok(Value::Aggregate(Scalar::Float(0.0)))
        }
    }

    /// Specification of one derived vertex: (label, compute seconds,
    /// size bytes, model quality or 0).
    pub type Spec = (&'static str, f64, u64, f64);

    /// Build an EG with one source feeding a chain of vertices per spec,
    /// returning the EG (dedup per flag), the artifact ids in spec order,
    /// and an `available` map holding content for every artifact.
    pub fn chain_eg(
        specs: &[Spec],
        dedup: bool,
    ) -> (ExperimentGraph, Vec<ArtifactId>, HashMap<ArtifactId, Value>) {
        let mut dag = WorkloadDag::new();
        let mut prev = dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
        let mut nodes = Vec::new();
        for (label, _, _, q) in specs {
            let kind = if *q > 0.0 {
                NodeKind::Model
            } else {
                NodeKind::Dataset
            };
            let n = dag.add_op(Arc::new(Tag(label, kind)), &[prev]).unwrap();
            nodes.push(n);
            prev = n;
        }
        dag.mark_terminal(prev).unwrap();
        for (n, (_, t, s, q)) in nodes.iter().zip(specs) {
            dag.annotate(*n, *t, *s).unwrap();
            dag.node_mut(*n).unwrap().quality = *q;
            // Give every node a content value (size is tracked by the
            // vertex attribute, not the content, in these tests).
            dag.set_computed(*n, Value::Aggregate(Scalar::Float(0.0)))
                .unwrap();
            // set_computed overwrote the size annotation; restore it.
            dag.node_mut(*n).unwrap().size = Some(*s);
        }
        let mut eg = ExperimentGraph::new(dedup);
        eg.update_with_workload(&dag).unwrap();
        let ids: Vec<ArtifactId> = nodes.iter().map(|n| dag.nodes()[n.0].artifact).collect();
        let available: HashMap<ArtifactId, Value> = ids
            .iter()
            .map(|id| (*id, Value::Aggregate(Scalar::Float(0.0))))
            .collect();
        (eg, ids, available)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_graph::{NodeKind, Operation, ShardedEg, WorkloadDag};
    use std::sync::Arc;
    use testutil::chain_eg;

    fn view(eg: &ExperimentGraph) -> EgView<'_> {
        EgView::new(vec![eg])
    }

    /// Unit cost model where Cl(v) = size in seconds-per-byte 1.
    fn unit() -> CostModel {
        CostModel {
            latency_s: 0.0,
            bandwidth_bytes_per_s: 1.0,
        }
    }

    #[test]
    fn utility_zero_when_load_beats_recompute() {
        // b is huge relative to its recreation cost -> excluded.
        let (eg, ids, _) = chain_eg(&[("a", 10.0, 2, 0.0), ("b", 0.5, 1000, 0.0)], false);
        let cands = utilities(&view(&eg), &unit(), 0.5);
        assert!(cands.iter().any(|c| c.id == ids[0]));
        assert!(!cands.iter().any(|c| c.id == ids[1]));
    }

    #[test]
    fn quality_raises_utility_with_alpha() {
        // Same cost/size, but m is a model with quality 0.9.
        let (eg, ids, _) = chain_eg(&[("a", 10.0, 2, 0.0), ("m", 10.0, 2, 0.9)], false);
        // alpha = 1: only potential matters. The ancestor `a` also carries
        // the model's potential, so both are tied; `m` itself must be
        // strictly ahead of nothing. With alpha = 0 they tie on rcs by
        // construction? a has Cr = 10, m has Cr = 20 -> different.
        let by_quality = utilities(&view(&eg), &unit(), 1.0);
        assert_eq!(
            by_quality.first().map(|c| c.utility),
            Some(by_quality[1].utility)
        );
        let by_cost = utilities(&view(&eg), &unit(), 0.0);
        // With alpha = 0 the deeper vertex (larger Cr) wins.
        assert_eq!(by_cost[0].id, ids[1]);
        assert!(by_cost[0].utility > by_cost[1].utility);
    }

    #[test]
    fn frequencies_weight_the_cost_ratio() {
        let (mut eg, ids, _) = chain_eg(&[("a", 10.0, 2, 0.0), ("b", 10.0, 2, 0.0)], false);
        // Artificially bump a's frequency.
        eg.vertex_mut(ids[0]).unwrap().frequency = 10;
        let cands = utilities(&view(&eg), &unit(), 0.0);
        assert_eq!(cands[0].id, ids[0]);
    }

    #[test]
    fn eviction_spares_sources_and_desired() {
        let (mut eg, ids, available) = chain_eg(&[("a", 10.0, 2, 0.0), ("b", 10.0, 2, 0.0)], false);
        for id in &ids {
            let v = content_of(&view(&eg), &available, *id).unwrap();
            eg.storage_mut().store(*id, &v);
        }
        let keep: HashSet<ArtifactId> = [ids[1]].into_iter().collect();
        // The source is stored, but only `a` is an eviction.
        assert_eq!(evictions_except(&view(&eg), &keep), vec![ids[0]]);
    }

    struct Step(String, NodeKind);
    impl Operation for Step {
        fn name(&self) -> &str {
            &self.0
        }
        fn params_digest(&self) -> String {
            String::new()
        }
        fn output_kind(&self) -> NodeKind {
            self.1
        }
        fn run(&self, _inputs: &[&Value]) -> co_graph::Result<Value> {
            Ok(Value::Aggregate(co_dataframe::Scalar::Float(0.0)))
        }
    }

    #[test]
    fn utilities_are_bitwise_equal_at_one_and_eight_shards() {
        // A branching DAG of 40 vertices with irregular costs, sizes and
        // model qualities, so the Equation 2 totals carry rounding.
        let mut dag = WorkloadDag::new();
        let src = dag.add_source("src", Value::Aggregate(co_dataframe::Scalar::Float(0.0)));
        let mut nodes = vec![src];
        for i in 1..40usize {
            let kind = if i % 6 == 0 {
                NodeKind::Model
            } else {
                NodeKind::Dataset
            };
            let parent = nodes[(i * 7) % nodes.len()];
            let n = dag
                .add_op(Arc::new(Step(format!("op{i}"), kind)), &[parent])
                .unwrap();
            dag.annotate(n, 0.1 + (i as f64).sqrt() / 3.0, 10 + (i as u64 * 37) % 101)
                .unwrap();
            if kind == NodeKind::Model {
                dag.node_mut(n).unwrap().quality = 1.0 / (1.0 + i as f64 / 7.0);
            }
            nodes.push(n);
        }
        let cost = CostModel {
            latency_s: 0.0,
            bandwidth_bytes_per_s: 1e3,
        };
        let keep = vec![true; dag.n_nodes()];
        let scores = |n: usize| {
            let eg = ShardedEg::new(n, true);
            let mut guards = eg.write_all();
            co_graph::shard::merge_workload(&mut guards, &dag, &keep).unwrap();
            let view = EgView::of(&guards);
            utilities(&view, &cost, 0.5)
                .into_iter()
                .map(|c| (c.id, c.size, c.utility.to_bits(), c.rcs_norm.to_bits()))
                .collect::<Vec<_>>()
        };
        let one = scores(1);
        assert!(one.len() > 20, "{} candidates", one.len());
        assert_eq!(one, scores(8));
    }
}
