//! The benchmark's own arithmetic: medians, the tail-percentile pick,
//! failure fractions, span self time and the data-directory byte walk.
//! Each has a self-test below (`cargo test --manifest-path
//! perfbench/Cargo.toml`).

use std::path::Path;

/// Candidate tail percentiles in tenths of a percent, highest first.
const TAIL_CANDIDATES: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples a percentile needs beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `values`; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile of `values` at `permille` tenths of a percent
/// (990 is p99), with the number of samples strictly beyond its rank.
/// `None` for an empty slice.
pub fn percentile(values: &[f64], permille: u64) -> Option<(f64, usize)> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // 1-based nearest rank ceil(permille * n / 1000), in integers so
    // p99.9 of 10 000 samples is exactly rank 9 990.
    let rank = (permille.min(1000) as usize * n).div_ceil(1000).max(1);
    Some((v[rank - 1], n - rank))
}

/// The tail a timing is reported at: the highest of 99.9, 99, 95, 90, 75
/// and 50 that has at least ten samples beyond it. With fewer than 20
/// samples no percentile qualifies and the maximum (100) is reported.
/// Returns `(percentile, value)`; `None` for no samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    for permille in TAIL_CANDIDATES {
        let (value, beyond) = percentile(values, permille)?;
        if beyond >= MIN_BEYOND {
            return Some((permille as f64 / 10.0, value));
        }
    }
    percentile(values, 1000).map(|(value, _)| (100.0, value))
}

/// Which repeats the host left undisturbed: those whose hypervisor steal
/// share is at most `limit`, or, when fewer than `at_least` are, the
/// `at_least` least-stolen ones. Steal is CPU time the host withheld from
/// this machine, so it marks host contention, never the program's work.
pub fn undisturbed(steal: &[f64], limit: f64, at_least: usize) -> Vec<bool> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let clean = steal.iter().filter(|&&s| s <= limit).count();
    let keep = clean.max(at_least.min(steal.len()));
    let mut kept = vec![false; steal.len()];
    for &i in &order[..keep] {
        kept[i] = true;
    }
    kept
}

/// Submission outcomes of one run, as the client saw them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcomes {
    /// Submissions sent.
    pub attempted: u64,
    /// Submissions acknowledged as durably done.
    pub acked: u64,
    /// Refused by the server: overload, read-only or draining.
    pub refused: u64,
    /// Shed or cut off by a deadline.
    pub timed_out: u64,
    /// Ran and failed, or lost to a transport error.
    pub failed: u64,
}

impl Outcomes {
    /// Every submission that did not end in a durable ack.
    pub fn errors(&self) -> u64 {
        self.refused + self.timed_out + self.failed
    }

    /// `error_frac`: failed + refused + timed-out over attempted.
    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.errors() as f64 / self.attempted as f64
        }
    }

    /// Add another run's counts.
    pub fn absorb(&mut self, other: &Outcomes) {
        self.attempted += other.attempted;
        self.acked += other.acked;
        self.refused += other.refused;
        self.timed_out += other.timed_out;
        self.failed += other.failed;
    }
}

/// One closed interval on the trace clock, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start.
    pub start: u64,
    /// End (not before `start`).
    pub end: u64,
}

/// Self time of a span: its duration minus the part of it that its
/// children cover. Children may overlap each other and may stick out of
/// the parent; only their union inside the parent is subtracted.
pub fn self_time(span: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    (span.end - span.start) - covered
}

/// Total bytes of the regular files under `dir`, recursively. Symbolic
/// links are not followed. A missing directory holds zero bytes.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut total = 0;
    for entry in entries {
        let entry = entry?;
        let kind = entry.file_type()?;
        if kind.is_dir() {
            total += dir_bytes(&entry.path())?;
        } else if kind.is_file() {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// Total bytes of the files directly in `dir` whose names end in `suffix`.
pub fn bytes_with_suffix(dir: &Path, suffix: &str) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() && entry.file_name().to_string_lossy().ends_with(suffix) {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 990), Some((99.0, 1)));
        assert_eq!(percentile(&v, 500), Some((50.0, 50)));
        assert_eq!(percentile(&v, 1000), Some((100.0, 0)));
        assert_eq!(percentile(&v, 0), Some((1.0, 99)));
        assert_eq!(percentile(&[7.0], 990), Some((7.0, 0)));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        // 999 samples: p99 has 9 beyond, so the pick drops to p95.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v), Some((95.0, 950.0)));
        // 10 000 samples: p99.9 has 10 beyond.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.9, 9990.0)));
        // 40 samples: p90 has 4 beyond, p75 has 10.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Some((75.0, 30.0)));
        // 20 samples: only the median has 10 beyond it.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        // Too few for any percentile: report the maximum.
        assert_eq!(tail(&[5.0, 1.0, 3.0]), Some((100.0, 5.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn undisturbed_keeps_low_steal_repeats_and_a_minimum() {
        let steal = [0.01, 0.09, 0.0, 0.02, 0.05];
        assert_eq!(
            undisturbed(&steal, 0.02, 3),
            vec![true, false, true, true, false]
        );
        // Only one repeat is clean: the three least-stolen are kept.
        let steal = [0.04, 0.09, 0.0, 0.03, 0.05];
        assert_eq!(
            undisturbed(&steal, 0.02, 3),
            vec![true, false, true, true, false]
        );
        // Fewer repeats than the minimum: all are kept.
        assert_eq!(undisturbed(&[0.5, 0.4], 0.02, 3), vec![true, true]);
        assert!(undisturbed(&[], 0.02, 3).is_empty());
    }

    #[test]
    fn error_frac_counts_refusals_and_timeouts() {
        let o = Outcomes {
            attempted: 20,
            acked: 14,
            refused: 3,
            timed_out: 2,
            failed: 1,
        };
        assert_eq!(o.errors(), 6);
        assert!((o.error_frac() - 0.3).abs() < 1e-12);
        let only_refusals = Outcomes {
            attempted: 4,
            acked: 3,
            refused: 1,
            ..Outcomes::default()
        };
        assert!((only_refusals.error_frac() - 0.25).abs() < 1e-12);
        let only_timeouts = Outcomes {
            attempted: 5,
            acked: 4,
            timed_out: 1,
            ..Outcomes::default()
        };
        assert!((only_timeouts.error_frac() - 0.2).abs() < 1e-12);
        assert_eq!(Outcomes::default().error_frac(), 0.0);
    }

    fn iv(start: u64, end: u64) -> Interval {
        Interval { start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(iv(0, 100), &[]), 100);
        assert_eq!(self_time(iv(0, 100), &[iv(10, 20), iv(30, 50)]), 70);
        // Overlapping children are not subtracted twice.
        assert_eq!(self_time(iv(0, 100), &[iv(10, 40), iv(30, 50)]), 60);
        // A child reaching outside the parent only counts inside it.
        assert_eq!(self_time(iv(10, 100), &[iv(0, 30), iv(90, 120)]), 60);
        // A child covering the whole span leaves no self time.
        assert_eq!(self_time(iv(10, 20), &[iv(0, 50)]), 0);
        // Touching children merge; a disjoint outside child is ignored.
        assert_eq!(
            self_time(iv(0, 100), &[iv(20, 30), iv(10, 20), iv(200, 300)]),
            80
        );
    }

    #[test]
    fn dir_bytes_walks_nested_files() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(".bench_run")
            .join(format!("selftest-dir-bytes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("a").join("b")).unwrap();
        std::fs::write(root.join("x.wal"), vec![0u8; 100]).unwrap();
        std::fs::write(root.join("a").join("y.egsnap"), vec![0u8; 250]).unwrap();
        std::fs::write(root.join("a").join("b").join("z"), vec![0u8; 7]).unwrap();
        std::fs::create_dir_all(root.join("empty")).unwrap();
        assert_eq!(dir_bytes(&root).unwrap(), 357);
        assert_eq!(bytes_with_suffix(&root, ".wal").unwrap(), 100);
        assert_eq!(bytes_with_suffix(&root.join("a"), ".egsnap").unwrap(), 250);
        assert_eq!(dir_bytes(&root.join("missing")).unwrap(), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
