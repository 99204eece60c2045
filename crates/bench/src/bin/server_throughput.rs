//! Multi-client server throughput: workloads/sec at 1–64 submitter
//! threads against one shared, warm `OptimizerServer` partitioned into
//! lock shards (DESIGN.md §14).
//!
//! Every submission shares a warm feature prefix (loaded from the
//! Experiment Graph) but trains with a unique learning rate, so each run
//! carries real work. The training operation is additionally stalled for
//! several milliseconds by the deterministic fault injector, modeling
//! operations that wait on I/O rather than CPU. Because the staged
//! pipeline (DESIGN.md §9) holds no Experiment Graph lock during
//! execution, those stalls overlap across submitters. Publishes do not
//! overlap: each one takes every shard's write lock and runs the
//! configured materializer over the whole graph, as the paper's single
//! updater does, so the publish section bounds throughput once it
//! outweighs the stall. Per-shard lock-wait nanoseconds are sampled
//! around every run: they quantify how much publish-side contention
//! builds up at each thread count. The emitted
//! `BENCH_server_throughput.json` lets successive revisions track the
//! trajectory.

use co_bench::{full_scale, write_json};
use co_core::{OptimizerServer, Script, ServerConfig};
use co_dataframe::ops::MapFn;
use co_graph::{FaultInjector, WorkloadDag};
use co_ml::linear::LogisticParams;
use co_workloads::data::{creditg, CreditG};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Injected per-training-op stall (simulated I/O wait).
const OP_STALL: Duration = Duration::from_millis(5);

/// Experiment Graph lock shards for the bench server.
const SHARDS: usize = 8;

/// Warm shared prefix, unique training op per `serial`.
fn workload(data: &CreditG, serial: usize) -> WorkloadDag {
    #[allow(clippy::cast_precision_loss)] // lint:reason serials stay far below 2^52
    let lr = 0.05 + 1e-4 * (serial as f64);
    let mut s = Script::new();
    let train = s.load("creditg_train", data.train.clone());
    let m = s.map(train, "a0", MapFn::Abs, "a0_abs").unwrap();
    // A short, fixed iteration budget: the training op's cost is the
    // injected stall plus a small slice of CPU, so throughput is
    // stall-overlap-bound (what the pipeline and shards optimize), not
    // bound by raw single-core compute.
    let model = s
        .train_logistic(
            m,
            "class",
            LogisticParams {
                lr,
                tol: 0.0,
                max_iter: 10,
                ..Default::default()
            },
        )
        .unwrap();
    s.output(model).unwrap();
    s.into_dag()
}

/// Run `per_thread` submissions on each of `threads` submitters; returns
/// (total workloads, elapsed seconds, and the summed per-report compute /
/// plan / publish seconds for the stage breakdown).
fn drive(
    server: &Arc<OptimizerServer>,
    data: &CreditG,
    threads: usize,
    per_thread: usize,
    serial: &AtomicUsize,
) -> (usize, f64, f64, f64, f64) {
    let split = std::sync::Mutex::new((0.0f64, 0.0f64, 0.0f64));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let server = Arc::clone(server);
            let split = &split;
            scope.spawn(move || {
                for _ in 0..per_thread {
                    let id = serial.fetch_add(1, Ordering::Relaxed);
                    let (_, report) = server
                        .run_workload(workload(data, id))
                        .expect("bench workload runs");
                    let mut s = split.lock().unwrap();
                    s.0 += report.compute_seconds;
                    s.1 += report.optimizer_seconds;
                    s.2 += report.materializer_seconds;
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let (compute, plan, publish) = split.into_inner().unwrap();
    (threads * per_thread, elapsed, compute, plan, publish)
}

fn main() {
    let rows = if full_scale() { 2000 } else { 400 };
    let per_thread = if full_scale() { 100 } else { 25 };
    let data = creditg(rows, 0);
    let mut config = ServerConfig::collaborative(u64::MAX);
    config.shards = SHARDS;
    let server = Arc::new(OptimizerServer::new(config));
    let faults = Arc::new(FaultInjector::new());
    faults.inject_latency("train_logistic", OP_STALL);
    server.set_fault_injector(faults);
    let serial = AtomicUsize::new(0);

    // Warm the graph: the shared prefix is materialized once up front.
    let id = serial.fetch_add(1, Ordering::Relaxed);
    server
        .run_workload(workload(&data, id))
        .expect("warmup runs");

    println!("server throughput ({rows} rows, {per_thread} workloads/thread, {SHARDS} shards)");
    println!(
        "  threads  workloads  seconds  workloads/sec  compute(s)  plan(s)  publish(s)  lock-wait(ms)"
    );
    let mut results = Vec::new();
    for threads in [1usize, 4, 8, 16, 32, 64] {
        let wait_before = server.lock_wait_ns();
        let (total, seconds, compute, plan, publish) =
            drive(&server, &data, threads, per_thread, &serial);
        let wait_after = server.lock_wait_ns();
        // Nanoseconds publishers spent blocked on contended shard write
        // locks during THIS run, per shard.
        let lock_wait_ns: Vec<u64> = wait_after
            .iter()
            .zip(&wait_before)
            .map(|(a, b)| a - b)
            .collect();
        let wait_total_ms = lock_wait_ns.iter().sum::<u64>() as f64 / 1e6;
        let throughput = total as f64 / seconds;
        println!(
            "  {threads:>7}  {total:>9}  {seconds:>7.3}  {throughput:>13.1}  \
             {compute:>10.3}  {plan:>7.3}  {publish:>10.3}  {wait_total_ms:>13.3}"
        );
        let waits = lock_wait_ns
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        results.push(format!(
            "    {{\"threads\": {threads}, \"workloads\": {total}, \
             \"seconds\": {seconds:.6}, \"workloads_per_sec\": {throughput:.3}, \
             \"shards\": {SHARDS}, \"lock_wait_ns_per_shard\": [{waits}]}}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"server_throughput\",\n  \"rows\": {rows},\n  \
         \"workloads_per_thread\": {per_thread},\n  \"op_stall_ms\": {},\n  \
         \"shards\": {SHARDS},\n  \"results\": [\n{}\n  ]\n}}\n",
        OP_STALL.as_millis(),
        results.join(",\n")
    );
    write_json("BENCH_server_throughput.json", &json);
}
