//! Pipeline and hyperparameter advice from Experiment Graph meta-data —
//! the paper's stated future work (§9: "EG contains valuable information
//! about the meta-data and hyperparameters of the feature engineering and
//! model training operations. In future work, we plan to utilize this
//! information to automatically construct ML pipelines and tune
//! hyperparameters").
//!
//! The advisor is read-only over the graph: it ranks the models the
//! community has already trained — globally, or on one specific feature
//! artifact — exposing each model's type + hyperparameter digest, its
//! evaluation score, how often its pipeline recurred, and whether its
//! content is on hand (materialized ⇒ instantly reusable or
//! warmstartable).

use co_graph::{ArtifactId, EgView, GraphQuery, NodeKind};

/// One ranked model suggestion.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRecommendation {
    /// The model artifact.
    pub artifact: ArtifactId,
    /// Meta-data digest: `"<kind>:<hyperparameters>"` (e.g.
    /// `"gbt:n=8,lr=0.25,depth=3,..."`).
    pub description: String,
    /// Evaluation score `q` of the model.
    pub quality: f64,
    /// How many workloads produced this exact model.
    pub frequency: u64,
    /// Whether the model content is materialized (reusable now).
    pub materialized: bool,
    /// Length of the longest operation chain from a source to this model
    /// — a proxy for pipeline complexity.
    pub pipeline_depth: usize,
}

fn depth_of(eg: &EgView<'_>, id: ArtifactId) -> usize {
    // Longest path from any source; graphs are modest, recompute per call.
    let mut depth = std::collections::HashMap::new();
    for v in eg.topo_order().iter() {
        let Some(vertex) = eg.lookup(*v) else {
            continue;
        };
        let d = vertex
            .parents
            .iter()
            .map(|p| depth.get(p).copied().unwrap_or(0) + 1)
            .max()
            .unwrap_or(0);
        depth.insert(*v, d);
    }
    depth.get(&id).copied().unwrap_or(0)
}

fn rank(mut out: Vec<ModelRecommendation>, top_k: usize) -> Vec<ModelRecommendation> {
    out.sort_by(|a, b| {
        b.quality
            .partial_cmp(&a.quality)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.frequency.cmp(&a.frequency))
            .then_with(|| a.artifact.cmp(&b.artifact))
    });
    out.truncate(top_k);
    out
}

/// The community leaderboard: the best models anywhere in the graph,
/// ranked by quality (ties by recurrence).
#[must_use]
pub fn leaderboard(eg: &EgView<'_>, top_k: usize) -> Vec<ModelRecommendation> {
    let out = eg
        .vertices()
        .filter(|v| v.kind == NodeKind::Model)
        .map(|v| ModelRecommendation {
            artifact: v.id,
            description: v.description.clone(),
            quality: v.quality,
            frequency: v.frequency,
            materialized: eg.has_content(v.id),
            pipeline_depth: depth_of(eg, v.id),
        })
        .collect();
    rank(out, top_k)
}

/// Hyperparameter advice for a training operation on `train_input`: the
/// models already trained *on that artifact*, best first. The top entry's
/// description carries the hyperparameters to copy; if it is
/// materialized it is also the warmstart candidate the executor would
/// pick (§6.2).
#[must_use]
pub fn recommend_for_input(
    eg: &EgView<'_>,
    train_input: ArtifactId,
    top_k: usize,
) -> Vec<ModelRecommendation> {
    let Some(input) = eg.lookup(train_input) else {
        return Vec::new();
    };
    let out = input
        .children
        .iter()
        .filter_map(|c| eg.lookup(*c))
        .filter(|v| v.kind == NodeKind::Model)
        .map(|v| ModelRecommendation {
            artifact: v.id,
            description: v.description.clone(),
            quality: v.quality,
            frequency: v.frequency,
            materialized: eg.has_content(v.id),
            pipeline_depth: depth_of(eg, v.id),
        })
        .collect();
    rank(out, top_k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::Script;
    use crate::ops::EvalMetric;
    use crate::{OptimizerServer, ServerConfig};
    use co_dataframe::{Column, ColumnData, DataFrame};
    use co_ml::linear::LogisticParams;
    use co_ml::tree::GbtParams;

    fn frame() -> DataFrame {
        let n = 200;
        DataFrame::new(vec![
            Column::source(
                "t",
                "x",
                ColumnData::Float((0..n).map(|i| f64::from(i) / 100.0).collect()),
            ),
            Column::source(
                "t",
                "y",
                ColumnData::Int((0..n).map(|i| i64::from(i >= n / 2)).collect()),
            ),
        ])
        .unwrap()
    }

    fn submit(server: &OptimizerServer, lr: f64, max_iter: usize) {
        let mut s = Script::new();
        let d = s.load("t", frame());
        let m = s
            .train_logistic(
                d,
                "y",
                LogisticParams {
                    lr,
                    max_iter,
                    ..LogisticParams::default()
                },
            )
            .unwrap();
        let e = s.evaluate(m, d, "y", EvalMetric::RocAuc).unwrap();
        s.output(e).unwrap();
        server.run_workload(s.into_dag()).unwrap();
    }

    #[test]
    fn leaderboard_ranks_by_quality() {
        let server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
        submit(&server, 0.1, 0); // zero epochs: constant scores, AUC 0.5
        submit(&server, 0.5, 300); // a strong model
                                   // A GBT on the same data, different family.
        let mut s = Script::new();
        let d = s.load("t", frame());
        let m = s.train_gbt(d, "y", GbtParams::default()).unwrap();
        s.output(m).unwrap();
        server.run_workload(s.into_dag()).unwrap();

        let guards = server.shards().read_all();
        let eg = EgView::of(&guards);
        let board = leaderboard(&eg, 10);
        assert_eq!(board.len(), 3);
        assert!(board[0].quality >= board[1].quality);
        assert!(board[1].quality >= board[2].quality);
        assert!(board[0].quality > 0.9);
        assert!(
            board.last().unwrap().quality < 0.6,
            "the zero-epoch run scores at chance: {}",
            board.last().unwrap().quality
        );
        assert!(board[0].materialized);
        assert!(board[0].pipeline_depth >= 1);
        // top_k truncates.
        assert_eq!(leaderboard(&eg, 2).len(), 2);
    }

    #[test]
    fn input_specific_advice_surfaces_hyperparameters() {
        let server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
        submit(&server, 0.1, 0); // chance-level model
        submit(&server, 0.5, 300);
        let guards = server.shards().read_all();
        let eg = EgView::of(&guards);
        let input = ArtifactId::source("t");
        let advice = recommend_for_input(&eg, input, 10);
        assert_eq!(advice.len(), 2, "two logistic models trained on the source");
        assert!(advice[0].quality > advice[1].quality);
        // The description carries copyable hyperparameters.
        assert!(advice[0].description.starts_with("logistic:"));
        assert!(advice[0].description.contains("lr=0.5"));
        // Unknown artifacts give empty advice.
        assert!(recommend_for_input(&eg, ArtifactId(42), 5).is_empty());
    }

    #[test]
    fn frequency_breaks_quality_ties() {
        let server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
        submit(&server, 0.5, 300);
        submit(&server, 0.5, 300); // exact repeat: frequency 2
        submit(&server, 0.5, 301); // same quality in practice, frequency 1
        let guards = server.shards().read_all();
        let eg = EgView::of(&guards);
        let advice = recommend_for_input(&eg, ArtifactId::source("t"), 10);
        assert_eq!(advice.len(), 2);
        if (advice[0].quality - advice[1].quality).abs() < 1e-12 {
            assert!(advice[0].frequency >= advice[1].frequency);
        }
    }

    #[test]
    fn advice_and_graph_stats_match_at_one_and_eight_shards() {
        let run = |shards: usize| {
            let mut config = ServerConfig::collaborative(8 << 10);
            config.shards = shards;
            let server = OptimizerServer::new(config);
            for (lr, max_iter) in [(0.1, 0), (0.5, 300), (0.5, 300), (0.2, 50)] {
                submit(&server, lr, max_iter);
            }
            let mut s = Script::new();
            let d = s.load("t", frame());
            let m = s.train_gbt(d, "y", GbtParams::default()).unwrap();
            s.output(m).unwrap();
            server.run_workload(s.into_dag()).unwrap();
            let guards = server.shards().read_all();
            let eg = EgView::of(&guards);
            (
                leaderboard(&eg, 10),
                recommend_for_input(&eg, ArtifactId::source("t"), 10),
                co_graph::export::eg_stats(&eg),
            )
        };
        let one = run(1);
        assert_eq!(one.0.len(), 4);
        // The budget binds: some models are stored, not all.
        let stored = one.2.n_materialized;
        assert!(stored > 1 && stored < one.2.n_vertices, "{:?}", one.2);
        assert_eq!(one, run(8));
    }
}
