//! The Helix materializer baseline (paper §7.1): "Helix materializes an
//! artifact when its recreation cost is greater than twice its load cost
//! ... starts materializing the artifacts from the root node until the
//! budget is exhausted." No utility ranking, no deduplication, no
//! eviction — which is why it wastes its budget on early artifacts and
//! misses the high-utility ones at the end of large workloads
//! (Figure 6/7 of the paper).

use super::{content_of, MatDecision, Materializer};
use crate::cost::CostModel;
use co_graph::{ArtifactId, EgView, GraphQuery, Value};
use std::collections::{HashMap, HashSet};

/// Root-first threshold materializer.
#[derive(Debug, Clone, Copy)]
pub struct HelixMaterializer {
    /// Storage budget in bytes (nominal accounting).
    pub budget: u64,
}

impl Materializer for HelixMaterializer {
    fn name(&self) -> &'static str {
        "HL"
    }

    fn decide(
        &self,
        eg: &EgView<'_>,
        available: &HashMap<ArtifactId, Value>,
        cost: &CostModel,
    ) -> MatDecision {
        let recreation = eg.recreation_costs();
        let sources: HashSet<ArtifactId> = eg.sources().collect();
        // Bytes already committed (including the always-stored sources).
        let mut used: u64 = eg
            .materialized_ids()
            .into_iter()
            .filter_map(|id| eg.lookup(id).map(|v| v.size))
            .sum();

        // Root-first means arrival order, which one shard keeps and
        // several shards do not: there the walk follows `topo_order`'s
        // deterministic merge of the shards' orders.
        let mut store = Vec::new();
        for &id in eg.topo_order().iter() {
            if sources.contains(&id) || eg.has_content(id) {
                continue;
            }
            let Some(size) = eg.lookup(id).map(|v| v.size) else {
                continue;
            };
            if size == 0 {
                continue;
            }
            let cl = cost.load_cost(size);
            if recreation[&id] > 2.0 * cl && used + size <= self.budget {
                // Root-first, first-fit: the high-utility artifacts at the
                // end of large workloads find the budget already spent on
                // early artifacts (paper §7.2/§7.3).
                if let Some(value) = content_of(eg, available, id) {
                    store.push((id, value));
                    used += size;
                }
            }
        }
        MatDecision {
            store,
            evict: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize::testutil::{chain_eg, run};

    fn unit() -> CostModel {
        CostModel {
            latency_s: 0.0,
            bandwidth_bytes_per_s: 1.0,
        }
    }

    #[test]
    fn materializes_root_first_until_budget() {
        // All vertices qualify (Cr > 2 Cl); budget fits only two.
        let (mut eg, ids, available) = chain_eg(
            &[
                ("a", 100.0, 4, 0.0),
                ("b", 100.0, 4, 0.0),
                ("c", 100.0, 4, 0.0),
            ],
            false,
        );
        // Source (8 bytes) + two 4-byte artifacts fill the budget.
        let m = HelixMaterializer { budget: 16 };
        run(&m, &mut eg, &available, &unit());
        assert!(eg.is_materialized(ids[0]));
        assert!(eg.is_materialized(ids[1]));
        assert!(!eg.is_materialized(ids[2])); // ran out of budget
    }

    #[test]
    fn threshold_rule_skips_cheap_artifacts() {
        // a: Cr = 1 vs 2*Cl = 8 -> skip; b: Cr = 101 vs 8 -> store.
        let (mut eg, ids, available) = chain_eg(&[("a", 1.0, 4, 0.0), ("b", 100.0, 4, 0.0)], false);
        let m = HelixMaterializer { budget: 100 };
        run(&m, &mut eg, &available, &unit());
        assert!(!eg.is_materialized(ids[0]));
        assert!(eg.is_materialized(ids[1]));
    }

    #[test]
    fn never_evicts() {
        let (mut eg, ids, available) =
            chain_eg(&[("a", 100.0, 4, 0.0), ("b", 1000.0, 4, 0.0)], false);
        let m = HelixMaterializer { budget: 12 };
        run(&m, &mut eg, &available, &unit());
        assert!(eg.is_materialized(ids[0])); // root-first wins the slot
        run(&m, &mut eg, &available, &unit());
        assert!(eg.is_materialized(ids[0])); // still there
        assert!(!eg.is_materialized(ids[1]));
    }
}
