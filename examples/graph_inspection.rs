//! Inspecting a live collaborative environment: the EXPLAIN view of an
//! incoming workload, the Experiment Graph dashboard statistics, the
//! model leaderboard / hyperparameter advisor (the paper's §9 future
//! work), and a Graphviz rendering of a workload DAG (paper Figure 1).
//!
//! ```sh
//! cargo run --release -p co-workloads --example graph_inspection
//! ```

use co_core::advisor;
use co_core::{OptimizerServer, ServerConfig};
use co_graph::export::{eg_stats, workload_to_dot};
use co_graph::EgView;
use co_workloads::data::creditg;
use co_workloads::openml::pipeline;

fn main() {
    let data = creditg(1000, 0);
    let server = OptimizerServer::new(ServerConfig::collaborative(64 << 20));

    println!("simulating 40 community submissions...");
    for i in 0..40 {
        server
            .run_workload(pipeline(&data, i, 11).expect("builds"))
            .expect("runs");
    }

    // 1. EXPLAIN an incoming workload before running it.
    println!("\n== EXPLAIN: what would running pipeline #3 again cost? ==");
    let plan = server
        .explain(pipeline(&data, 3, 11).expect("builds"))
        .expect("plans");
    println!("{plan}");

    // 2. Graph dashboard, over a consistent view of every shard.
    let guards = server.shards().read_all();
    let eg = EgView::of(&guards);
    let stats = eg_stats(&eg);
    println!("== Experiment Graph ==");
    println!(
        "{} vertices ({} datasets, {} models, {} aggregates), {} materialized",
        stats.n_vertices,
        stats.n_datasets,
        stats.n_models,
        stats.n_aggregates,
        stats.n_materialized
    );
    println!(
        "store: {:.2} MiB unique / {:.2} MiB logical; best model quality {:.3}; max frequency {}",
        stats.stored_unique_bytes as f64 / (1 << 20) as f64,
        stats.stored_logical_bytes as f64 / (1 << 20) as f64,
        stats.best_model_quality,
        stats.max_frequency
    );
    let lifetime = server.stats();
    println!(
        "lifetime: {} workloads, {} ops executed, {} artifacts served, ~{:.3}s saved",
        lifetime.workloads,
        lifetime.ops_executed,
        lifetime.artifacts_loaded,
        lifetime.seconds_saved()
    );

    // 3. The community leaderboard and hyperparameter advice (paper §9).
    println!("\n== model leaderboard (top 5) ==");
    for (i, entry) in advisor::leaderboard(&eg, 5).iter().enumerate() {
        println!(
            "{}. q={:.3}  f={}  depth={}  {}{}",
            i + 1,
            entry.quality,
            entry.frequency,
            entry.pipeline_depth,
            entry.description,
            if entry.materialized {
                "  [materialized]"
            } else {
                ""
            }
        );
    }

    drop(guards);

    // 4. Render a workload DAG for the paper's Figure-1-style view.
    let mut dag = pipeline(&data, 3, 11).expect("builds");
    dag.prune().expect("has terminals");
    let dot = workload_to_dot(&dag);
    let path = std::env::temp_dir().join("co_workload.dot");
    std::fs::write(&path, &dot).expect("writable temp dir");
    println!(
        "\nworkload DAG rendered to {} ({} bytes; `dot -Tpng` to view)",
        path.display(),
        dot.len()
    );
}
