//! Graphviz (DOT) export and summary statistics — the introspection
//! surface a collaborative platform's UI would build on (the paper's
//! Figure 1 is exactly such a rendering of a workload DAG).

use crate::artifact::NodeKind;
use crate::shard::EgView;
use crate::workload::{NodeId, WorkloadDag};
use std::fmt::Write as _;

fn kind_style(kind: NodeKind) -> &'static str {
    match kind {
        NodeKind::Dataset => "shape=box",
        NodeKind::Aggregate => "shape=ellipse",
        NodeKind::Model => "shape=diamond",
    }
}

/// Render a workload DAG as Graphviz DOT. Terminal vertices are drawn
/// bold; inactive (pruned) edges dashed.
#[must_use]
pub fn workload_to_dot(dag: &WorkloadDag) -> String {
    let mut out = String::from("digraph workload {\n  rankdir=LR;\n");
    for (i, node) in dag.nodes().iter().enumerate() {
        let label = node
            .name
            .clone()
            .or_else(|| dag.producer(NodeId(i)).map(|e| e.op.name().to_owned()))
            .unwrap_or_else(|| format!("n{i}"));
        let mut attrs = vec![
            kind_style(node.kind).to_owned(),
            format!("label=\"{label}\""),
        ];
        if node.terminal {
            attrs.push("penwidth=2".to_owned());
        }
        if node.computed.is_some() && node.producer.is_some() {
            attrs.push("style=filled, fillcolor=lightgrey".to_owned());
        }
        let _ = writeln!(out, "  n{i} [{}];", attrs.join(", "));
    }
    for edge in dag.edges() {
        for input in &edge.inputs {
            let style = if edge.active { "" } else { " [style=dashed]" };
            let _ = writeln!(out, "  n{} -> n{}{};", input.0, edge.output.0, style);
        }
    }
    out.push_str("}\n");
    out
}

/// Summary statistics of an Experiment Graph — what a dashboard would
/// show about the store.
#[derive(Debug, Clone, PartialEq)]
pub struct EgStats {
    /// Total vertices.
    pub n_vertices: usize,
    /// Source vertices.
    pub n_sources: usize,
    /// Dataset / aggregate / model vertex counts.
    pub n_datasets: usize,
    /// Aggregate vertices.
    pub n_aggregates: usize,
    /// Model vertices.
    pub n_models: usize,
    /// Materialized vertices.
    pub n_materialized: usize,
    /// Sum of all vertices' nominal sizes, bytes.
    pub total_bytes: u64,
    /// Bytes physically held by the store (after dedup).
    pub stored_unique_bytes: u64,
    /// Nominal bytes of the materialized artifacts.
    pub stored_logical_bytes: u64,
    /// Best model quality seen.
    pub best_model_quality: f64,
    /// Highest vertex frequency.
    pub max_frequency: u64,
}

/// Compute [`EgStats`] over every shard of the graph. Stored unique
/// bytes include the shared column vault of a sharded store.
#[must_use]
pub fn eg_stats(eg: &EgView<'_>) -> EgStats {
    let mut stats = EgStats {
        n_vertices: eg.n_vertices(),
        n_sources: eg.sources().count(),
        n_datasets: 0,
        n_aggregates: 0,
        n_models: 0,
        n_materialized: eg.materialized_ids().len(),
        total_bytes: 0,
        stored_unique_bytes: eg.unique_bytes(),
        stored_logical_bytes: eg.logical_bytes(),
        best_model_quality: 0.0,
        max_frequency: 0,
    };
    for v in eg.vertices() {
        match v.kind {
            NodeKind::Dataset => stats.n_datasets += 1,
            NodeKind::Aggregate => stats.n_aggregates += 1,
            NodeKind::Model => stats.n_models += 1,
        }
        stats.total_bytes += v.size;
        stats.best_model_quality = stats.best_model_quality.max(v.quality);
        stats.max_frequency = stats.max_frequency.max(v.frequency);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentGraph;
    use crate::operation::Operation;
    use crate::value::Value;
    use co_dataframe::Scalar;
    use std::sync::Arc;

    struct Step(&'static str, NodeKind);
    impl Operation for Step {
        fn name(&self) -> &str {
            self.0
        }
        fn params_digest(&self) -> String {
            String::new()
        }
        fn output_kind(&self) -> NodeKind {
            self.1
        }
        fn run(&self, _inputs: &[&Value]) -> crate::error::Result<Value> {
            Ok(Value::Aggregate(Scalar::Float(0.0)))
        }
    }

    fn dag() -> WorkloadDag {
        let mut dag = WorkloadDag::new();
        let s = dag.add_source("train.csv", Value::Aggregate(Scalar::Float(0.0)));
        let a = dag
            .add_op(Arc::new(Step("clean", NodeKind::Dataset)), &[s])
            .unwrap();
        let m = dag
            .add_op(Arc::new(Step("train_model", NodeKind::Model)), &[a])
            .unwrap();
        dag.mark_terminal(m).unwrap();
        dag.annotate(a, 1.0, 100).unwrap();
        dag.annotate(m, 2.0, 50).unwrap();
        dag.node_mut(m).unwrap().quality = 0.9;
        dag
    }

    #[test]
    fn dot_contains_nodes_edges_and_styles() {
        let mut d = dag();
        d.prune().unwrap();
        let dot = workload_to_dot(&d);
        assert!(dot.starts_with("digraph workload {"));
        assert!(dot.contains("label=\"train.csv\""));
        assert!(dot.contains("label=\"train_model\""));
        assert!(dot.contains("shape=diamond")); // model styling
        assert!(dot.contains("penwidth=2")); // terminal styling
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("n1 -> n2"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn pruned_edges_are_dashed() {
        let mut d = dag();
        // Mark the model computed: its producing edge gets pruned.
        d.set_computed(NodeId(2), Value::Aggregate(Scalar::Float(0.0)))
            .unwrap();
        d.prune().unwrap();
        let dot = workload_to_dot(&d);
        assert!(dot.contains("n1 -> n2 [style=dashed]"));
    }

    #[test]
    fn stats_count_kinds_and_storage() {
        let mut eg = ExperimentGraph::new(true);
        eg.update_with_workload(&dag()).unwrap();
        let stats = eg_stats(&EgView::new(vec![&eg]));
        assert_eq!(stats.n_vertices, 3);
        assert_eq!(stats.n_sources, 1);
        assert_eq!(stats.n_models, 1);
        assert_eq!(stats.n_datasets, 1);
        assert_eq!(stats.n_aggregates, 1); // the source aggregate
        assert_eq!(stats.n_materialized, 1); // the source content
        assert_eq!(stats.total_bytes, 100 + 50 + 8);
        assert_eq!(stats.best_model_quality, 0.9);
        assert_eq!(stats.max_frequency, 1);
    }
}
