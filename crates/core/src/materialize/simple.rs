//! Trivial materializers: `ALL` stores every artifact it can (the
//! paper's unbounded upper bound in Figures 6/7), `NONE` stores nothing
//! beyond the sources (the `KG` baseline).

use super::{MatDecision, Materializer};
use crate::cost::CostModel;
use co_graph::{ArtifactId, EgView, GraphQuery, Value};
use std::collections::HashMap;

/// Materialize everything whose content is available.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllMaterializer;

impl Materializer for AllMaterializer {
    fn name(&self) -> &'static str {
        "ALL"
    }

    fn decide(
        &self,
        eg: &EgView<'_>,
        available: &HashMap<ArtifactId, Value>,
        _cost: &CostModel,
    ) -> MatDecision {
        MatDecision {
            store: available
                .iter()
                .filter(|(id, _)| !eg.has_content(**id))
                .map(|(id, value)| (*id, value.clone()))
                .collect(),
            evict: Vec::new(),
        }
    }
}

/// Materialize nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoneMaterializer;

impl Materializer for NoneMaterializer {
    fn name(&self) -> &'static str {
        "NONE"
    }

    fn decide(
        &self,
        _eg: &EgView<'_>,
        _available: &HashMap<ArtifactId, Value>,
        _cost: &CostModel,
    ) -> MatDecision {
        MatDecision::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize::testutil::{chain_eg, run};

    #[test]
    fn all_stores_everything_none_stores_nothing() {
        let (mut eg, ids, available) = chain_eg(&[("a", 1.0, 4, 0.0), ("b", 1.0, 4, 0.0)], false);
        run(
            &NoneMaterializer,
            &mut eg,
            &available,
            &CostModel::default(),
        );
        assert!(ids.iter().all(|id| !eg.is_materialized(*id)));
        run(&AllMaterializer, &mut eg, &available, &CostModel::default());
        assert!(ids.iter().all(|id| eg.is_materialized(*id)));
    }
}
