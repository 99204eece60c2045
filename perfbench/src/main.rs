//! The repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <kaggle-seq|openml-stream|serve-mixed|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench footprint --seed <n>
//! perfbench reopen --workload <name> --dir <data dir>
//! ```
//!
//! `reopen` is the child process a run starts to time reopening a data
//! directory the way a restarted server does; it prints the mean seconds
//! per open and the journal records an open replays.
//!
//! Each run repeats a fixed job count on a fresh durable data directory
//! until `--seconds` is used up (at least [`MIN_REPEATS`] measured
//! repeats after one warm-up repeat; longer while the host disturbs
//! them), checks every output, and prints
//! one JSON result as its last line: end-to-end metrics with
//! `--trace 0`, per-layer metrics and the tracing overhead with
//! `--trace 1`. A failed check prints `"correct": false` and exits 1.

mod inproc;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use report::{Metric, Repeat, TailNotes};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Measured repeats a run makes however short `--seconds` is, and the
/// fewest it reports per traced/untraced group.
const MIN_REPEATS: usize = 3;

/// A repeat in which the hypervisor withheld more than this share of the
/// machine's CPU time is left out of the metrics (see
/// [`stats::undisturbed`]).
const STEAL_LIMIT: f64 = 0.02;

/// While fewer than [`MIN_REPEATS`] untraced repeats stayed under
/// [`STEAL_LIMIT`], a run keeps measuring up to this multiple of
/// `--seconds`, in the hope that the host calms down.
const DISTURBED_EXTENSION: f64 = 1.25;

/// Where runs keep their data directories and span files, relative to
/// the working directory (the checkout root).
const RUN_DIR: &str = ".bench_run";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let workload = value(args, "--workload")
        .ok_or("--workload is required")?
        .to_owned();
    let seed = value(args, "--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value(args, "--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_owned());
    }
    let trace = match value(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The git revision of the working directory's checkout, read from
/// `.git` without running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(&Path::new(".git").join(reference)) {
        return rev.trim().to_owned();
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

fn json_number(name: &str, v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("metric {name} is not a finite number ({v})"))
    }
}

/// The result of one workload run; it is correct iff it has no problems.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    problems: Vec<String>,
}

impl Outcome {
    fn result_line(&mut self) -> String {
        let mut fields = Vec::new();
        for m in &self.metrics {
            match json_number(m.name, m.value) {
                Ok(v) => fields.push(format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )),
                Err(e) => self.problems.push(e),
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

fn run_workload(name: &str, args: &Args, nproc: usize) -> Outcome {
    let run_dir = PathBuf::from(RUN_DIR).join(format!("{name}-{}", std::process::id()));
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        problems: Vec::new(),
    };
    let mut workload = match workloads::build(name, args.seed, nproc) {
        Ok(w) => w,
        Err(e) => {
            outcome.problems.push(e);
            return outcome;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        outcome.problems.push(format!("{}: {e}", run_dir.display()));
        return outcome;
    }

    let start = Instant::now();
    let mut tracer = Tracer::new(start);
    // Repeat 0 warms caches and the allocator; it is checked, not reported.
    let mut warmup: Option<Repeat> = None;
    let mut repeats: Vec<Repeat> = Vec::new();
    let mut measuring = Instant::now();
    loop {
        let done = repeats.len();
        if warmup.is_some() && done >= MIN_REPEATS {
            let clean = repeats
                .iter()
                .filter(|r| !r.traced && r.steal <= STEAL_LIMIT)
                .count();
            let budget = if clean >= MIN_REPEATS {
                args.seconds
            } else {
                args.seconds * DISTURBED_EXTENSION
            };
            let elapsed = measuring.elapsed().as_secs_f64();
            if elapsed + elapsed / done as f64 > budget {
                break;
            }
        }
        // With tracing on, traced and untraced repeats alternate so the
        // overhead is measured under the same conditions.
        let traced = args.trace && warmup.is_some() && done % 2 == 1;
        tracer.set_repeat(done);
        let dir = run_dir.join(format!("repeat-{}", done + usize::from(warmup.is_some())));
        let before = cpu_ticks();
        let result = workload.repeat(&dir, traced.then_some(&mut tracer));
        let steal_share = steal_share(before, cpu_ticks());
        match result.map(|mut r| {
            r.steal = steal_share;
            r
        }) {
            Ok(rep) if warmup.is_none() => {
                warmup = Some(rep);
                measuring = Instant::now();
            }
            Ok(rep) => repeats.push(rep),
            Err(e) => {
                outcome.problems.push(e);
                break;
            }
        }
    }
    for traced in [false, true] {
        let group: Vec<usize> = (0..repeats.len())
            .filter(|&i| repeats[i].traced == traced)
            .collect();
        let steal: Vec<f64> = group.iter().map(|&i| repeats[i].steal).collect();
        for (&i, keep) in group
            .iter()
            .zip(stats::undisturbed(&steal, STEAL_LIMIT, MIN_REPEATS))
        {
            repeats[i].disturbed = !keep;
        }
    }
    for r in warmup.iter().chain(&repeats) {
        outcome.attempted += r.outcomes.attempted;
        outcome.failed += r.outcomes.errors();
    }
    if let Err(e) = workload.check() {
        outcome.problems.push(e);
    }

    let mut notes = TailNotes::default();
    if outcome.problems.is_empty() {
        outcome.metrics = if args.trace {
            report::per_layer(&repeats, &tracer, &mut notes)
        } else {
            report::end_to_end(&repeats, &mut notes)
        };
    }
    let trace_file = PathBuf::from(RUN_DIR).join(format!("trace-{name}-seed{}.jsonl", args.seed));
    if args.trace {
        if let Err(e) = tracer.write_jsonl(&trace_file) {
            outcome
                .problems
                .push(format!("{}: {e}", trace_file.display()));
        }
    }
    if let Err(e) = std::fs::remove_dir_all(&run_dir) {
        outcome.problems.push(format!("{}: {e}", run_dir.display()));
    }

    let tails: Vec<String> = notes
        .0
        .iter()
        .map(|(metric, p, n)| format!("\"{metric}\":{{\"percentile\":{p},\"samples\":{n}}}"))
        .collect();
    let eg_vertices = repeats.last().map_or(0, |r| r.eg_vertices);
    println!(
        "{{\"info\":{{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"git_rev\":\"{}\",\"df_threads\":{nproc},\"fsync\":\"Always\",\"shards\":1,\"eg_vertices\":{eg_vertices},\"warmup_repeats\":1,\"repeats\":{},\"traced_repeats\":{},\"jobs\":{},\"walls_s\":[{}],\"ops\":[{}],\"steal\":[{}],\"disturbed\":[{}],\"tails\":{{{}}}{}}}}}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision(),
        repeats.len(),
        repeats.iter().filter(|r| r.traced).count(),
        workload.describe(),
        repeats
            .iter()
            .map(|r| format!("{:.4}", r.wall_s))
            .collect::<Vec<_>>()
            .join(","),
        repeats
            .iter()
            .map(|r| r.exec.ops.to_string())
            .collect::<Vec<_>>()
            .join(","),
        repeats
            .iter()
            .map(|r| format!("{:.3}", r.steal))
            .collect::<Vec<_>>()
            .join(","),
        repeats
            .iter()
            .map(|r| u8::from(r.disturbed).to_string())
            .collect::<Vec<_>>()
            .join(","),
        tails.join(","),
        if args.trace {
            format!(",\"trace_file\":\"{}\"", trace_file.display())
        } else {
            String::new()
        }
    );
    outcome
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("footprint") {
        let seed = value(&args, "--seed")
            .and_then(|s| s.parse().ok())
            .unwrap_or(1);
        match workloads::kaggle_footprint(seed) {
            Ok(bytes) => println!("ALL footprint {bytes} B; 1/8 = {} B", bytes / 8),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if args.first().map(String::as_str) == Some("reopen") {
        let timed = match (value(&args, "--workload"), value(&args, "--dir")) {
            (Some(name), Some(dir)) => workloads::config(name, nproc)
                .and_then(|config| inproc::time_reopens(Path::new(dir), config)),
            _ => Err("reopen needs --workload and --dir".to_owned()),
        };
        match timed {
            Ok((mean, records)) => println!("{mean} {records}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for name in names {
        let mut outcome = run_workload(name, &args, nproc);
        let line = outcome.result_line();
        for p in &outcome.problems {
            eprintln!("perfbench: {name}: {p}");
        }
        for m in &outcome.metrics {
            eprintln!("{name:>14}  {:<24} {:>14.6} {}", m.name, m.value, m.unit);
        }
        all_correct &= outcome.problems.is_empty();
        println!("{line}");
    }
    if !all_correct {
        std::process::exit(1);
    }
}
