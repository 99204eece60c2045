//! The three workloads: what each submits, its server configuration,
//! and the output checks that make a run fail.

use crate::inproc::{self, terminal_values, Outputs, Submission};
use crate::report::Repeat;
use crate::serve;
use crate::trace::Tracer;
use co_core::{OptimizerServer, ServerConfig};
use co_workloads::data::{creditg, home_credit, HomeCreditScale};
use co_workloads::runner::terminal_eval_score;
use co_workloads::{kaggle, openml};
use std::path::Path;

/// `kaggle-seq` storage budget: 1/8 of the footprint that materializing
/// every W1–W8 artifact occupies at the default Home Credit scale
/// (Figure 5's budget): `perfbench footprint --seed 42` measured
/// 456 950 221 B, seed 42 being `HomeCreditScale::default`'s (other
/// seeds differ by under 0.1%). Fixed here so the budget does not move
/// with the program.
pub const KAGGLE_BUDGET_BYTES: u64 = 57_118_777;

/// `openml-stream`: new pipeline runs per repeat.
pub const OPENML_RUNS: usize = 2000;
/// `openml-stream`: rows of the credit-g stand-in (OpenML Task 31's size).
pub const OPENML_ROWS: usize = 1000;
/// `openml-stream`: storage budget (Figure 10's).
pub const OPENML_BUDGET_BYTES: u64 = 100 << 20;
/// `openml-stream`: replays cycle through the first this many runs.
pub const OPENML_REPLAY_SET: usize = 32;
/// `openml-stream`: one replay after every this many new runs.
pub const OPENML_REPLAY_EVERY: usize = 4;

/// The workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["kaggle-seq", "openml-stream", "serve-mixed"];

/// One benchmark workload.
pub trait Workload {
    /// Job counts and budgets, recorded with every result.
    fn describe(&self) -> String;
    /// Run one repeat in `dir` (which must not exist yet).
    fn repeat(&mut self, dir: &Path, tracer: Option<&mut Tracer>) -> Result<Repeat, String>;
    /// Checks over every repeat of the run.
    fn check(&self) -> Result<(), String>;
}

/// Build the named workload for `seed`. Reference runs a workload's
/// checks need happen here, before anything is timed.
pub fn build(name: &str, seed: u64, df_threads: usize) -> Result<Box<dyn Workload>, String> {
    let server = config(name, df_threads)?;
    Ok(match name {
        "kaggle-seq" => Box::new(KaggleSeq::new(seed, server, df_threads)?),
        "openml-stream" => Box::new(OpenmlStream::new(seed, server)),
        _ => Box::new(serve::ServeMixed::new(seed, server)),
    })
}

/// The server configuration of the named workload, with the dataframe
/// kernels on `df_threads` threads.
pub fn config(name: &str, df_threads: usize) -> Result<ServerConfig, String> {
    let mut config = match name {
        "kaggle-seq" => ServerConfig::collaborative(KAGGLE_BUDGET_BYTES),
        "openml-stream" => ServerConfig {
            warmstart: true,
            ..ServerConfig::collaborative(OPENML_BUDGET_BYTES)
        },
        "serve-mixed" => ServerConfig::collaborative(serve::SERVE_BUDGET_BYTES),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {NAMES:?} or all)"
            ))
        }
    };
    config.df_threads = Some(df_threads);
    Ok(config)
}

fn scale(seed: u64) -> HomeCreditScale {
    HomeCreditScale {
        seed,
        ..HomeCreditScale::default()
    }
}

/// The ALL-materialized footprint of W1–W8 at `seed`: logical bytes an
/// in-memory server with the ALL materializer holds after the sequence.
pub fn kaggle_footprint(seed: u64) -> Result<u64, String> {
    let mut config = ServerConfig::collaborative(u64::MAX);
    config.materializer = co_core::server::MaterializerKind::All;
    let server = OptimizerServer::new(config);
    let data = home_credit(&scale(seed));
    for dag in kaggle::all_workloads(&data).map_err(|e| e.to_string())? {
        server.run_workload(dag).map_err(|e| e.error.to_string())?;
    }
    Ok(server.storage_stats().2)
}

/// `kaggle-seq`: W1–W8 once in order, then each again (the paper's
/// repeated execution, Figure 4), from one in-process client.
pub struct KaggleSeq {
    seed: u64,
    config: ServerConfig,
    reference: Vec<Vec<String>>,
    outputs: Vec<Outputs>,
}

impl KaggleSeq {
    fn new(seed: u64, config: ServerConfig, df_threads: usize) -> Result<Self, String> {
        // The no-reuse reference, outside the timed region.
        let mut reference_config = ServerConfig::baseline();
        reference_config.df_threads = Some(df_threads);
        let reference_server = OptimizerServer::new(reference_config);
        let data = home_credit(&scale(seed));
        let mut reference = Vec::new();
        for dag in kaggle::all_workloads(&data).map_err(|e| e.to_string())? {
            let (dag, _) = reference_server
                .run_workload(dag)
                .map_err(|e| format!("reference run: {}", e.error))?;
            reference.push(terminal_values(&dag));
        }
        Ok(KaggleSeq {
            seed,
            config,
            reference,
            outputs: Vec::new(),
        })
    }
}

impl Workload for KaggleSeq {
    fn describe(&self) -> String {
        format!(
            "{{\"submissions\":16,\"new\":8,\"replays\":8,\"budget_bytes\":{KAGGLE_BUDGET_BYTES}}}"
        )
    }

    fn repeat(&mut self, dir: &Path, tracer: Option<&mut Tracer>) -> Result<Repeat, String> {
        let seed = self.seed;
        let build = move || -> Vec<Submission> {
            let data = home_credit(&scale(seed));
            let mut subs = Vec::new();
            for round in 0..2 {
                let dags = kaggle::all_workloads(&data).expect("W1-W8 build");
                subs.extend(dags.into_iter().enumerate().map(|(i, dag)| Submission {
                    dag,
                    replay_of: (round == 1).then_some(i),
                }));
            }
            subs
        };
        let (rep, outputs) = inproc::run_repeat(
            dir,
            "kaggle-seq",
            self.config,
            &build,
            &terminal_eval_score,
            tracer,
        )?;
        self.outputs.push(outputs);
        Ok(rep)
    }

    fn check(&self) -> Result<(), String> {
        for (k, out) in self.outputs.iter().enumerate() {
            for (i, values) in out.new.iter().enumerate() {
                if *values != self.reference[i] {
                    return Err(format!(
                        "repeat {k}: W{} terminals {values:?} differ from the no-reuse reference {:?}",
                        i + 1,
                        self.reference[i]
                    ));
                }
            }
            for (of, values) in &out.replay {
                if *values != self.reference[*of] {
                    return Err(format!(
                        "repeat {k}: replayed W{} terminals {values:?} differ from the no-reuse reference {:?}",
                        of + 1,
                        self.reference[*of]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// `openml-stream`: a fixed count of sampled credit-g pipelines, in
/// order, from one in-process client with warm-start on; every
/// [`OPENML_REPLAY_EVERY`]th run is followed by a replay of one of the
/// first [`OPENML_REPLAY_SET`] runs.
pub struct OpenmlStream {
    seed: u64,
    config: ServerConfig,
    outputs: Vec<Outputs>,
}

impl OpenmlStream {
    fn new(seed: u64, config: ServerConfig) -> Self {
        OpenmlStream {
            seed,
            config,
            outputs: Vec::new(),
        }
    }
}

/// The `openml-stream` submission order: run `i`, then, from run
/// [`OPENML_REPLAY_SET`] on and after every [`OPENML_REPLAY_EVERY`]th
/// run, a replay cycling through the first [`OPENML_REPLAY_SET`] runs.
pub fn openml_order() -> Vec<(usize, Option<usize>)> {
    let mut order = Vec::new();
    let mut replays = 0;
    for i in 0..OPENML_RUNS {
        order.push((i, None));
        if i >= OPENML_REPLAY_SET && i % OPENML_REPLAY_EVERY == 0 {
            order.push((
                replays % OPENML_REPLAY_SET,
                Some(replays % OPENML_REPLAY_SET),
            ));
            replays += 1;
        }
    }
    order
}

impl Workload for OpenmlStream {
    fn describe(&self) -> String {
        let order = openml_order();
        let replays = order.iter().filter(|(_, r)| r.is_some()).count();
        format!(
            "{{\"submissions\":{},\"new\":{OPENML_RUNS},\"replays\":{replays},\"rows\":{OPENML_ROWS},\"budget_bytes\":{OPENML_BUDGET_BYTES}}}",
            order.len()
        )
    }

    fn repeat(&mut self, dir: &Path, tracer: Option<&mut Tracer>) -> Result<Repeat, String> {
        let seed = self.seed;
        let build = move || -> Vec<Submission> {
            let data = creditg(OPENML_ROWS, seed);
            openml_order()
                .into_iter()
                .map(|(i, replay_of)| Submission {
                    dag: openml::pipeline(&data, i as u64, seed).expect("pipeline builds"),
                    replay_of,
                })
                .collect()
        };
        let (rep, outputs) = inproc::run_repeat(
            dir,
            "openml-stream",
            self.config,
            &build,
            &terminal_eval_score,
            tracer,
        )?;
        self.outputs.push(outputs);
        Ok(rep)
    }

    fn check(&self) -> Result<(), String> {
        let Some(first) = self.outputs.first() else {
            return Ok(());
        };
        for (k, out) in self.outputs.iter().enumerate() {
            if let Some(i) = (0..first.new.len()).find(|&i| out.new.get(i) != first.new.get(i)) {
                return Err(format!(
                    "repeat {k}: run {i} scored {:?}, repeat 0 scored {:?}",
                    out.new.get(i),
                    first.new.get(i)
                ));
            }
            if out.new.len() != first.new.len() {
                return Err(format!(
                    "repeat {k}: {} runs, repeat 0 had {}",
                    out.new.len(),
                    first.new.len()
                ));
            }
            for (of, values) in &out.replay {
                if Some(values) != out.new.get(*of) {
                    return Err(format!(
                        "repeat {k}: replay of run {of} scored {values:?}, the run scored {:?}",
                        out.new.get(*of)
                    ));
                }
            }
        }
        Ok(())
    }
}
