//! Runtime lock-order witness for [`ShardedEg`](crate::shard::ShardedEg).
//!
//! The static analyzer (`co-lint`, rule `shard-lock-order`) proves
//! what it can from source: multi-shard write acquisitions it can see
//! must be provably ascending. This module checks the rest — the
//! *actual* acquisition order of every shard lock — at runtime, under
//! the stress and chaos suites where interleavings are real.
//!
//! Every read/write acquisition on a sharded graph is reported here
//! before the thread blocks on the lock. The witness keeps:
//!
//! * a thread-local list of locks the current thread holds, and
//! * a global happens-before edge map: `(graph, j, k)` records that
//!   some thread once acquired shard `k` while holding shard `j` of
//!   the same sharded graph, together with the two source locations.
//!
//! Three hazards fail **loudly and immediately** (a panic naming both
//! offending acquisition sites) instead of deadlocking silently:
//!
//! 1. **Descending write** — write-locking shard `k` while holding
//!    any lock on shard `j > k` of the same graph. The engine's
//!    protocol (see `ShardedEg::write_all`) is ascending-only, so
//!    this is a violation even if no cycle has materialised yet.
//! 2. **Re-entrant acquisition** — locking a shard this thread
//!    already holds, where either side is a write: guaranteed
//!    self-deadlock on a non-reentrant lock.
//! 3. **Order cycle** — acquiring shard `k` while holding `j` when
//!    some earlier acquisition (any thread, any time) took `j` while
//!    holding `k`. This catches read-side inversions the ascending
//!    write rule alone cannot, without ever needing the deadlock to
//!    actually fire in the observed run.
//!
//! The witness is compiled in always but **active** only in debug
//! builds or under the `lock-witness` feature (CI runs shard_stress,
//! chaos and the crash matrix with `--features lock-witness` in
//! release). When inactive, [`acquire`] is a branch on a `const
//! false` and returns a no-op token.
//!
//! Acquisition sites are captured with `#[track_caller]` — a
//! [`Location`] is a `&'static` copy, far cheaper and more
//! deterministic than a backtrace, and it names exactly the line that
//! took the lock.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Whether the witness is active in this build.
pub const ENABLED: bool = cfg!(any(debug_assertions, feature = "lock-witness"));

/// How a shard lock is being taken.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    Read,
    Write,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Read => "read",
            Mode::Write => "write",
        }
    }
}

/// One lock this thread currently holds.
#[derive(Clone, Copy)]
struct HeldEntry {
    graph: u64,
    shard: usize,
    mode: Mode,
    site: &'static Location<'static>,
}

thread_local! {
    static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
}

/// The first observation of "`to` acquired while `from` held".
struct Edge {
    from_site: String,
    to_site: String,
}

/// Global order graph, keyed `(graph id, from shard, to shard)`.
type EdgeMap = HashMap<(u64, usize, usize), Edge>;

static EDGES: std::sync::OnceLock<Mutex<EdgeMap>> = std::sync::OnceLock::new();

fn edges() -> &'static Mutex<EdgeMap> {
    EDGES.get_or_init(|| Mutex::new(HashMap::new()))
}

static NEXT_GRAPH_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh witness identity for one sharded graph. Orders are only
/// compared within a graph: holding locks of two *different*
/// `ShardedEg`s never constitutes an ordering edge.
#[must_use]
pub fn next_graph_id() -> u64 {
    NEXT_GRAPH_ID.fetch_add(1, Ordering::Relaxed)
}

/// Token proving an acquisition was reported; dropping it reports the
/// release. Held inside the shard guard wrappers.
pub struct Held {
    /// `None` when the witness is disabled (nothing to undo on drop).
    key: Option<(u64, usize, Mode)>,
}

impl Drop for Held {
    fn drop(&mut self) {
        let Some((graph, shard, mode)) = self.key else {
            return;
        };
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held
                .iter()
                .rposition(|e| e.graph == graph && e.shard == shard && e.mode == mode)
            {
                held.remove(pos);
            }
        });
    }
}

/// Report an acquisition *about to happen*. Panics (before the thread
/// can block) on a descending write, a write-involved re-entrant
/// acquisition, or an order cycle against the global edge map.
#[track_caller]
#[must_use]
pub fn acquire(graph: u64, shard: usize, mode: Mode) -> Held {
    if !ENABLED {
        return Held { key: None };
    }
    let site = Location::caller();
    // Phase 1: check against this thread's held set, collecting any
    // violation message so the panic happens outside the borrows.
    let violation = HELD.with(|h| {
        let held = h.borrow();
        for e in held.iter() {
            if e.graph != graph {
                continue;
            }
            if e.shard == shard {
                if mode == Mode::Write || e.mode == Mode::Write {
                    return Some(format!(
                        "lock-order witness: re-entrant acquisition: shard {shard} \
                         {}-locked at {site} while this thread already holds its \
                         {} lock taken at {} — guaranteed self-deadlock",
                        mode.name(),
                        e.mode.name(),
                        e.site,
                    ));
                }
                continue;
            }
            if mode == Mode::Write && e.shard > shard {
                return Some(format!(
                    "lock-order witness: descending write acquisition: shard {shard} \
                     write-locked at {site} while shard {} ({}) is held, taken at {} \
                     — cross-shard acquisitions must ascend (see ShardedEg::write_all)",
                    e.shard,
                    e.mode.name(),
                    e.site,
                ));
            }
        }
        // Phase 2: consult/extend the global order graph.
        let mut map = edges().lock();
        for e in held.iter() {
            if e.graph != graph || e.shard == shard {
                continue;
            }
            if let Some(rev) = map.get(&(graph, shard, e.shard)) {
                return Some(format!(
                    "lock-order witness: lock-order cycle: acquiring shard {shard} \
                     ({}) at {site} while shard {} is held (taken at {}), but shard {} \
                     was previously acquired at {} while shard {shard} was held \
                     (taken at {}) — these two orders can deadlock",
                    mode.name(),
                    e.shard,
                    e.site,
                    e.shard,
                    rev.to_site,
                    rev.from_site,
                ));
            }
            map.entry((graph, e.shard, shard)).or_insert_with(|| Edge {
                from_site: e.site.to_string(),
                to_site: site.to_string(),
            });
        }
        None
    });
    if let Some(msg) = violation {
        // co-lint:allow(no-panic) the witness's whole purpose is to fail loudly before a silent deadlock
        panic!("{msg}");
    }
    HELD.with(|h| {
        h.borrow_mut().push(HeldEntry {
            graph,
            shard,
            mode,
            site,
        });
    });
    Held {
        key: Some((graph, shard, mode)),
    }
}

/// Number of distinct ordering edges recorded for `graph` so far
/// (test/diagnostic hook).
#[must_use]
pub fn edge_count(graph: u64) -> usize {
    edges()
        .lock()
        .keys()
        .filter(|(g, _, _)| *g == graph)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Witness-off builds (release without `lock-witness`) make every
    /// acquisition a no-op; the hazard tests have nothing to observe.
    fn witness_off() -> bool {
        !ENABLED
    }

    fn expect_panic(f: impl FnOnce(), needle: &str) {
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a witness panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        assert!(
            msg.contains(needle),
            "panic message {msg:?} missing {needle:?}"
        );
        assert!(
            msg.contains("lockorder.rs") || msg.contains(':'),
            "panic message should carry acquisition sites: {msg:?}"
        );
    }

    #[test]
    fn ascending_writes_pass_and_release() {
        if witness_off() {
            return;
        }
        let g = next_graph_id();
        {
            let _a = acquire(g, 0, Mode::Write);
            let _b = acquire(g, 1, Mode::Write);
            let _c = acquire(g, 3, Mode::Write);
        }
        // Everything released: re-acquiring from scratch is fine.
        let _a = acquire(g, 0, Mode::Write);
        assert!(edge_count(g) >= 2);
    }

    #[test]
    fn descending_write_is_caught() {
        if witness_off() {
            return;
        }
        let g = next_graph_id();
        expect_panic(
            || {
                let _hi = acquire(g, 2, Mode::Write);
                let _lo = acquire(g, 0, Mode::Write);
            },
            "descending write",
        );
    }

    #[test]
    fn descending_write_under_read_is_caught() {
        if witness_off() {
            return;
        }
        let g = next_graph_id();
        expect_panic(
            || {
                let _r = acquire(g, 5, Mode::Read);
                let _w = acquire(g, 1, Mode::Write);
            },
            "descending write",
        );
    }

    #[test]
    fn reentrant_write_is_caught() {
        if witness_off() {
            return;
        }
        let g = next_graph_id();
        expect_panic(
            || {
                let _a = acquire(g, 1, Mode::Write);
                let _b = acquire(g, 1, Mode::Read);
            },
            "re-entrant",
        );
    }

    #[test]
    fn read_order_cycle_is_caught_without_deadlocking() {
        if witness_off() {
            return;
        }
        let g = next_graph_id();
        // Episode 1 records the edge 0 -> 1.
        {
            let _a = acquire(g, 0, Mode::Read);
            let _b = acquire(g, 1, Mode::Read);
        }
        // Episode 2 inverts it: 1 -> 0 closes a cycle.
        expect_panic(
            || {
                let _b = acquire(g, 1, Mode::Read);
                let _a = acquire(g, 0, Mode::Read);
            },
            "cycle",
        );
    }

    #[test]
    fn graphs_are_independent() {
        let g1 = next_graph_id();
        let g2 = next_graph_id();
        let _hi = acquire(g1, 7, Mode::Write);
        // A "descending" acquisition relative to g1's held lock is
        // fine — it belongs to a different graph.
        let _lo = acquire(g2, 0, Mode::Write);
    }

    #[test]
    fn reentrant_reads_are_tolerated() {
        let g = next_graph_id();
        let _a = acquire(g, 2, Mode::Read);
        let _b = acquire(g, 2, Mode::Read);
    }
}
