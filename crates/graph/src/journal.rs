//! Write-ahead journal for the Experiment Graph.
//!
//! The EG is the shared asset a collaborative environment accumulates
//! over weeks (paper §3.2); a crash must not lose workloads committed
//! since the last snapshot. Each committed workload's EG delta — new
//! vertices, frequency bumps, materialization changes, quarantine
//! changes — is appended to the journal as one length-prefixed,
//! CRC-checksummed record inside the server's publish critical section.
//! Recovery loads the newest valid snapshot (`crate::snapshot`), then
//! [`replay`]s the journal on top of it, stopping at — and truncating —
//! the first torn record instead of failing.
//!
//! ## File format (`EGWAL 2`)
//!
//! An 8-byte magic (`b"EGWAL 2\n"`) followed by records:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! The payload is UTF-8 text, one line per delta entry, using the same
//! field escaping as the snapshot format:
//!
//! | line | meaning |
//! |------|---------|
//! | `S\t<seq>\t<shards>` | publish sequence number and how many shards the publish touched |
//! | `V\t<10 vertex fields>` | a vertex new to the graph |
//! | `F\t<id>\t<freq>\t<t>\t<s>\t<q>` | refreshed absolute attributes of an existing vertex |
//! | `M+\t<id>` / `M-\t<id>` | artifact content materialized / evicted |
//! | `Q+\t<hash>\t<failures>\t<name>` / `Q-\t<hash>` | operation quarantined / released |
//!
//! `F` records carry *absolute* values (not increments), so replaying a
//! record whose effects are already contained in a newer snapshot — the
//! window between snapshot rename and journal truncation during
//! compaction — is idempotent.
//!
//! ## Commit rule and the cross-shard commit log (`EGCMT 1`)
//!
//! The Experiment Graph is split into N ≥ 1 lock shards, each owning
//! one journal (`eg-<k>.wal`). Every record opens with its `S` line: the
//! publish sequence number and the number of shards the publish
//! touched. A publish touching **one** shard — every publish at N = 1 —
//! is committed by its own CRC-framed record: one append, one fsync.
//! A publish spanning several shards appends one record per touched
//! shard under the same sequence number, and atomicity across those
//! appends is decided by a separate *commit log* (`eg.commit`): after
//! the last per-shard append, one [`CommitRecord`] naming the sequence
//! number and the touched shards is appended. Recovery applies a record
//! iff it touched one shard or its sequence number is in the commit
//! log — a crash between per-shard appends (or before the commit
//! record) therefore rolls the whole publish back, exactly.

use crate::artifact::ArtifactId;
use crate::error::{GraphError, Result};
use crate::experiment::{EgVertex, ExperimentGraph};
use crate::faults::{CrashPoint, FaultInjector};
use crate::snapshot::{escape, parse_vertex_fields, unescape, vertex_fields, ParseCtx};
use crate::vfs::{self, VfsFile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Magic bytes opening every journal file.
pub const WAL_MAGIC: &[u8; 8] = b"EGWAL 2\n";

/// Magic of the earlier journal format, whose `S` line carried no shard
/// count. It is recognised only to reject it with a clear message.
const OLD_WAL_MAGIC: &[u8; 8] = b"EGWAL 1\n";

/// Magic bytes opening every cross-shard commit log.
pub const COMMIT_MAGIC: &[u8; 8] = b"EGCMT 1\n";

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3, the polynomial used by zip/png). Detects every
/// single-byte corruption and every error burst up to 32 bits.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFF_u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// When journal appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append: a committed workload survives any crash.
    Always,
    /// fsync after every N appends: bounded loss window, higher throughput.
    EveryN(u32),
    /// Never fsync explicitly; the OS decides (fastest, weakest).
    Never,
}

/// A persisted quarantine entry: the op hash (the cross-session identity
/// the quarantine is keyed by), its display name, and the consecutive
/// permanent-failure count at persistence time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// `Operation::op_hash()` of the quarantined operation.
    pub op_hash: u64,
    /// Operation display name (for diagnostics).
    pub name: String,
    /// Consecutive permanent failures recorded when persisted.
    pub failures: usize,
}

/// Refreshed absolute attributes of a vertex that an already-known
/// workload touched (frequency bump + measurement refresh).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VertexTouch {
    /// The touched vertex.
    pub id: ArtifactId,
    /// Absolute frequency after the touch.
    pub frequency: u64,
    /// Absolute compute time after the touch.
    pub compute_time: f64,
    /// Absolute size after the touch.
    pub size: u64,
    /// Absolute quality after the touch.
    pub quality: f64,
}

/// One committed workload's effect on the Experiment Graph — the unit
/// of journaling and replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EgDelta {
    /// Publish sequence number, shared by every per-shard record of one
    /// publish.
    pub seq: u64,
    /// How many shards the publish wrote a record to. A record with
    /// `shards_touched == 1` commits itself; any other needs its
    /// sequence number in the commit log.
    pub shards_touched: u32,
    /// Vertices this workload added, in parents-first order.
    pub new_vertices: Vec<EgVertex>,
    /// Existing vertices it touched (absolute values, replay-idempotent).
    pub touched: Vec<VertexTouch>,
    /// Artifacts whose content the updater/materializer stored.
    pub mat_added: Vec<ArtifactId>,
    /// Artifacts whose content was evicted.
    pub mat_removed: Vec<ArtifactId>,
    /// Quarantine entries added or updated.
    pub quarantine_set: Vec<QuarantineEntry>,
    /// Op hashes released from quarantine.
    pub quarantine_cleared: Vec<u64>,
}

impl EgDelta {
    /// Whether the delta records no change at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.new_vertices.is_empty()
            && self.touched.is_empty()
            && self.mat_added.is_empty()
            && self.mat_removed.is_empty()
            && self.quarantine_set.is_empty()
            && self.quarantine_cleared.is_empty()
    }

    /// Whether this record is committed by itself (its publish touched
    /// exactly one shard) rather than by a commit-log record.
    #[must_use]
    pub fn commits_itself(&self) -> bool {
        self.shards_touched == 1
    }

    /// Serialise the delta to its journal-payload text.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "S\t{:x}\t{:x}", self.seq, self.shards_touched);
        for v in &self.new_vertices {
            let _ = writeln!(out, "V\t{}", vertex_fields(v));
        }
        for t in &self.touched {
            let _ = writeln!(
                out,
                "F\t{:x}\t{}\t{}\t{}\t{}",
                t.id.0, t.frequency, t.compute_time, t.size, t.quality
            );
        }
        for id in &self.mat_added {
            let _ = writeln!(out, "M+\t{:x}", id.0);
        }
        for id in &self.mat_removed {
            let _ = writeln!(out, "M-\t{:x}", id.0);
        }
        for q in &self.quarantine_set {
            let _ = writeln!(
                out,
                "Q+\t{:x}\t{}\t{}",
                q.op_hash,
                q.failures,
                escape(&q.name)
            );
        }
        for h in &self.quarantine_cleared {
            let _ = writeln!(out, "Q-\t{h:x}");
        }
        out
    }

    /// Parse a journal payload. `origin` and `record` (1-based) name the
    /// file and record in any error; a payload without its `S` line is
    /// malformed.
    pub fn decode(payload: &str, origin: &str, record: usize) -> Result<EgDelta> {
        let ctx = ParseCtx { origin, record };
        let mut delta = EgDelta::default();
        let mut has_seq = false;
        for line in payload.lines() {
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            match fields[0] {
                "S" if fields.len() == 3 && !has_seq => {
                    has_seq = true;
                    delta.seq = u64::from_str_radix(fields[1], 16)
                        .map_err(|_| ctx.err("bad sequence number in S entry"))?;
                    delta.shards_touched = u32::from_str_radix(fields[2], 16)
                        .map_err(|_| ctx.err("bad shard count in S entry"))?;
                }
                "V" if fields.len() == 11 => {
                    delta
                        .new_vertices
                        .push(parse_vertex_fields(&fields[1..], &ctx)?);
                }
                "F" if fields.len() == 6 => {
                    delta.touched.push(VertexTouch {
                        id: parse_id(fields[1], &ctx)?,
                        frequency: fields[2]
                            .parse()
                            .map_err(|_| ctx.err("bad frequency in F entry"))?,
                        compute_time: fields[3]
                            .parse()
                            .map_err(|_| ctx.err("bad compute time in F entry"))?,
                        size: fields[4]
                            .parse()
                            .map_err(|_| ctx.err("bad size in F entry"))?,
                        quality: fields[5]
                            .parse()
                            .map_err(|_| ctx.err("bad quality in F entry"))?,
                    });
                }
                "M+" if fields.len() == 2 => delta.mat_added.push(parse_id(fields[1], &ctx)?),
                "M-" if fields.len() == 2 => delta.mat_removed.push(parse_id(fields[1], &ctx)?),
                "Q+" if fields.len() == 4 => {
                    delta.quarantine_set.push(QuarantineEntry {
                        op_hash: u64::from_str_radix(fields[1], 16)
                            .map_err(|_| ctx.err("bad op hash in Q+ entry"))?,
                        failures: fields[2]
                            .parse()
                            .map_err(|_| ctx.err("bad failure count in Q+ entry"))?,
                        name: unescape(fields[3]).map_err(|m| ctx.err(m))?,
                    });
                }
                "Q-" if fields.len() == 2 => delta.quarantine_cleared.push(
                    u64::from_str_radix(fields[1], 16)
                        .map_err(|_| ctx.err("bad op hash in Q- entry"))?,
                ),
                tag => {
                    return Err(ctx.err(format!(
                        "unknown or malformed journal entry {tag:?} ({} fields)",
                        fields.len()
                    )))
                }
            }
        }
        if !has_seq {
            return Err(ctx.err("journal record has no S entry"));
        }
        Ok(delta)
    }

    /// Apply the delta to its shard during recovery. New vertices are
    /// inserted without lineage resolution — their parents may live in
    /// other shards, and children links are rebuilt by the recovery
    /// rewire pass afterwards; vertices that already exist — replay over
    /// a snapshot taken after this record — have their absolute
    /// attributes overwritten, so application is idempotent.
    /// Materialization changes land in the graph's
    /// restored-materialization set (content itself is never persisted;
    /// see `crate::snapshot`).
    pub fn apply_to_shard(&self, eg: &mut ExperimentGraph) -> Result<()> {
        for v in &self.new_vertices {
            if eg.contains(v.id) {
                let dst = eg.vertex_mut(v.id)?;
                dst.frequency = v.frequency;
                dst.compute_time = v.compute_time;
                dst.size = v.size;
                dst.quality = v.quality;
            } else {
                eg.restore_vertex_unlinked(v.clone())?;
            }
        }
        for t in &self.touched {
            let dst = eg.vertex_mut(t.id)?;
            dst.frequency = t.frequency;
            dst.compute_time = t.compute_time;
            dst.size = t.size;
            dst.quality = t.quality;
        }
        for id in &self.mat_added {
            eg.mark_restored_materialized(*id);
        }
        for id in &self.mat_removed {
            eg.unmark_restored_materialized(*id);
        }
        Ok(())
    }
}

fn parse_id(field: &str, ctx: &ParseCtx<'_>) -> Result<ArtifactId> {
    u64::from_str_radix(field, 16)
        .map(ArtifactId)
        .map_err(|_| ctx.err(format!("bad artifact id {field:?}")))
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> GraphError {
    GraphError::Io(format!("cannot {what} journal {}: {e}", path.display()))
}

/// Accept only the current journal magic. An `EGWAL 1` journal is a
/// format error, not corruption: its records lack the shard count the
/// commit rule needs, so it cannot be replayed.
fn check_magic(path: &Path, magic: &[u8]) -> Result<()> {
    if magic == WAL_MAGIC {
        Ok(())
    } else if magic == OLD_WAL_MAGIC {
        Err(GraphError::InvalidStructure(format!(
            "journal {} uses the EGWAL 1 format, which is no longer supported \
             (its records carry no shard count)",
            path.display()
        )))
    } else {
        Err(GraphError::corrupt(
            path.display().to_string(),
            0,
            format!("bad journal magic {magic:?}"),
        ))
    }
}

fn crash_err(point: CrashPoint) -> GraphError {
    GraphError::Io(format!("injected crash at {}", point.name()))
}

fn should_crash(faults: Option<&FaultInjector>, point: CrashPoint) -> bool {
    faults.is_some_and(|f| f.take_crash(point))
}

/// An open, append-only journal file. All I/O flows through
/// [`crate::vfs`], so injected [`crate::faults::IoFault`]s surface here
/// as ordinary errors — after any failed append the journal marks
/// itself *damaged* and refuses further appends until reopened (the
/// file may hold a torn record, and appending past it would orphan
/// every later record behind the tear).
#[derive(Debug)]
pub struct Journal {
    file: VfsFile,
    path: PathBuf,
    policy: FsyncPolicy,
    unsynced: u32,
    len: u64,
    damaged: bool,
}

impl Journal {
    /// Open (or create) a journal for appending. A fresh or empty file
    /// gets the magic written and synced; an existing file must open
    /// with a valid magic — run [`replay`] (which truncates torn tails,
    /// including a torn magic) before opening.
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<Journal> {
        Journal::open_with(path, policy, None)
    }

    /// [`Journal::open`] with a fault injector consulted by the
    /// open-time magic write/validation (repair paths reopen journals
    /// while faults may still be armed).
    pub fn open_with(
        path: &Path,
        policy: FsyncPolicy,
        faults: Option<&FaultInjector>,
    ) -> Result<Journal> {
        let mut file = VfsFile::open_append(path, faults).map_err(|e| io_err("open", path, &e))?;
        let mut len = file.len().map_err(|e| io_err("stat", path, &e))?;
        if len == 0 {
            file.write_all(WAL_MAGIC, faults)
                .map_err(|e| io_err("initialise", path, &e))?;
            file.sync(faults).map_err(|e| io_err("sync", path, &e))?;
            len = WAL_MAGIC.len() as u64;
        } else {
            if len < WAL_MAGIC.len() as u64 {
                return Err(GraphError::corrupt(
                    path.display().to_string(),
                    0,
                    "file shorter than the journal magic",
                ));
            }
            let mut magic = [0u8; 8];
            file.read_exact(&mut magic, faults)
                .map_err(|e| io_err("read", path, &e))?;
            check_magic(path, &magic)?;
        }
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            policy,
            unsynced: 0,
            len,
            damaged: false,
        })
    }

    /// Current file length in bytes (magic + records).
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The journal's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether a failed append or sync has left this journal in an
    /// unknown on-disk state (possible torn record, poisoned handle).
    /// A damaged journal refuses appends until reopened by repair.
    #[must_use]
    pub fn is_damaged(&self) -> bool {
        self.damaged || self.file.is_poisoned()
    }

    /// Append one delta as a length-prefixed, CRC-checksummed record,
    /// honouring the fsync policy. With a fault injector armed, the
    /// journal crash points fire here: `JournalMidAppend` leaves a torn
    /// record on disk (for recovery to detect and truncate);
    /// `JournalPreFsync` models the worst case of an unsynced write —
    /// the record never reaches the disk at all. Injected
    /// [`crate::faults::IoFault`]s fire inside the vfs write/sync calls;
    /// any failure marks the journal damaged.
    pub fn append(&mut self, delta: &EgDelta, faults: Option<&FaultInjector>) -> Result<()> {
        if self.is_damaged() {
            return Err(GraphError::Io(format!(
                "journal {} is damaged by an earlier failed append; reopen it before appending",
                self.path.display()
            )));
        }
        let payload = delta.encode();
        let bytes = payload.as_bytes();
        if should_crash(faults, CrashPoint::JournalPreFsync) {
            return Err(crash_err(CrashPoint::JournalPreFsync));
        }
        let mut frame = Vec::with_capacity(8 + bytes.len());
        frame.extend_from_slice(
            &u32::try_from(bytes.len())
                .map_err(|_| {
                    GraphError::Io(format!("journal record too large: {} bytes", bytes.len()))
                })?
                .to_le_bytes(),
        );
        frame.extend_from_slice(&crc32(bytes).to_le_bytes());
        frame.extend_from_slice(bytes);
        if should_crash(faults, CrashPoint::JournalMidAppend) {
            let torn = &frame[..8 + bytes.len() / 2];
            let _ = self.file.write_all(torn, None);
            let _ = self.file.sync(None);
            self.len += torn.len() as u64;
            self.damaged = true;
            return Err(crash_err(CrashPoint::JournalMidAppend));
        }
        if let Err(e) = self.file.write_all(&frame, faults) {
            self.damaged = true;
            return Err(io_err("append to", &self.path, &e));
        }
        self.len += frame.len() as u64;
        match self.policy {
            FsyncPolicy::Always => self.sync(faults)?,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n {
                    self.sync(faults)?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Flush appended records to disk. A failed fsync poisons the
    /// underlying handle (fsyncgate — see [`crate::vfs`]): the journal
    /// is damaged and must be reopened, never retried in place.
    pub fn sync(&mut self, faults: Option<&FaultInjector>) -> Result<()> {
        if let Err(e) = self.file.sync(faults) {
            self.damaged = true;
            return Err(io_err("sync", &self.path, &e));
        }
        self.unsynced = 0;
        Ok(())
    }

    /// Truncate the journal back to just its magic — called after a
    /// snapshot has durably captured everything the journal held
    /// (compaction).
    pub fn reset(&mut self, faults: Option<&FaultInjector>) -> Result<()> {
        if let Err(e) = self.file.set_len(WAL_MAGIC.len() as u64, faults) {
            self.damaged = true;
            return Err(io_err("truncate", &self.path, &e));
        }
        if let Err(e) = self.file.sync(faults) {
            self.damaged = true;
            return Err(io_err("sync", &self.path, &e));
        }
        self.len = WAL_MAGIC.len() as u64;
        self.unsynced = 0;
        Ok(())
    }
}

/// The result of scanning a journal at startup.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Fully verified records, in append order.
    pub deltas: Vec<EgDelta>,
    /// Byte offset where a torn tail begins (the file should be
    /// truncated to this length), if one was detected.
    pub torn_at: Option<u64>,
    /// Bytes past `torn_at` that will be discarded.
    pub bytes_discarded: u64,
}

/// Scan a journal file, verifying each record's length and CRC. A
/// missing or empty file yields an empty outcome. A *torn tail* — a
/// record whose frame is incomplete or whose CRC does not match, the
/// signature of a crash mid-append — ends the scan; everything before
/// it is returned and `torn_at` tells the caller where to truncate.
/// Decode the 8-byte `(len, crc)` record header at `off`, or `None`
/// when fewer than 8 bytes remain — the torn-tail case every replay
/// loop handles, so header decoding itself can never panic.
fn header_at(bytes: &[u8], off: usize) -> Option<(usize, u32)> {
    let len: [u8; 4] = bytes.get(off..off + 4)?.try_into().ok()?;
    let crc: [u8; 4] = bytes.get(off + 4..off + 8)?.try_into().ok()?;
    Some((u32::from_le_bytes(len) as usize, u32::from_le_bytes(crc)))
}

/// A record that passes its CRC but does not parse is real corruption
/// and is reported as an error naming the file and record number.
pub fn replay(path: &Path) -> Result<ReplayOutcome> {
    replay_with(path, None)
}

/// [`replay`] with a fault injector consulted by the file read
/// ([`crate::faults::IoFault::ReadErr`] makes the scan itself fail, as
/// an unreadable sector would).
pub fn replay_with(path: &Path, faults: Option<&FaultInjector>) -> Result<ReplayOutcome> {
    let bytes = match vfs::read(path, faults) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ReplayOutcome::default()),
        Err(e) => return Err(io_err("read", path, &e)),
    };
    let mut outcome = ReplayOutcome::default();
    if bytes.is_empty() {
        return Ok(outcome);
    }
    if bytes.len() < WAL_MAGIC.len() {
        // A crash while initialising the file: everything is a torn tail.
        outcome.torn_at = Some(0);
        outcome.bytes_discarded = bytes.len() as u64;
        return Ok(outcome);
    }
    check_magic(path, &bytes[..WAL_MAGIC.len()])?;
    let origin = path.display().to_string();
    let mut off = WAL_MAGIC.len();
    let mut record = 0usize;
    while off < bytes.len() {
        record += 1;
        let torn = |outcome: &mut ReplayOutcome| {
            outcome.torn_at = Some(off as u64);
            outcome.bytes_discarded = (bytes.len() - off) as u64;
        };
        let Some((len, crc)) = header_at(&bytes, off) else {
            torn(&mut outcome);
            break;
        };
        let start = off + 8;
        if bytes.len() - start < len {
            torn(&mut outcome);
            break;
        }
        let payload = &bytes[start..start + len];
        if crc32(payload) != crc {
            torn(&mut outcome);
            break;
        }
        let text = std::str::from_utf8(payload)
            .map_err(|_| GraphError::corrupt(&origin, record, "payload is not UTF-8"))?;
        outcome.deltas.push(EgDelta::decode(text, &origin, record)?);
        off = start + len;
    }
    Ok(outcome)
}

/// One committed cross-shard publish: its sequence number and the
/// shards whose journals hold its per-shard records. Appending this
/// record to the commit log is the *commit point* of a sharded publish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// The publish sequence number (matches the `S` line of every
    /// per-shard journal record the publish wrote).
    pub seq: u64,
    /// Indices of the shards the publish touched, ascending.
    pub shards: Vec<u32>,
}

impl CommitRecord {
    /// Serialise the record to its commit-log payload text.
    #[must_use]
    pub fn encode(&self) -> String {
        let shards: Vec<String> = self.shards.iter().map(|s| format!("{s:x}")).collect();
        format!("C\t{:x}\t{}\n", self.seq, shards.join(","))
    }

    /// Parse a commit-log payload. `origin` and `record` (1-based) name
    /// the file and record in any error.
    pub fn decode(payload: &str, origin: &str, record: usize) -> Result<CommitRecord> {
        let ctx = ParseCtx { origin, record };
        let line = payload
            .lines()
            .next()
            .ok_or_else(|| ctx.err("empty commit record"))?;
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 3 || fields[0] != "C" {
            return Err(ctx.err(format!("malformed commit record {line:?}")));
        }
        let seq = u64::from_str_radix(fields[1], 16)
            .map_err(|_| ctx.err("bad sequence number in commit record"))?;
        let mut shards = Vec::new();
        if !fields[2].is_empty() {
            for part in fields[2].split(',') {
                shards.push(
                    u32::from_str_radix(part, 16)
                        .map_err(|_| ctx.err(format!("bad shard index {part:?}")))?,
                );
            }
        }
        if shards.is_empty() {
            return Err(ctx.err("commit record names no shards"));
        }
        if shards.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ctx.err("commit record shards are not strictly ascending"));
        }
        if payload.lines().count() > 1 {
            return Err(ctx.err("trailing lines after commit record"));
        }
        Ok(CommitRecord { seq, shards })
    }
}

/// The open, append-only cross-shard commit log (`eg.commit`). Framing
/// is identical to the journal (`[len][crc32][payload]`) under its own
/// magic, so torn tails are detected and truncated the same way.
#[derive(Debug)]
pub struct CommitLog {
    file: VfsFile,
    path: PathBuf,
    len: u64,
    damaged: bool,
}

impl CommitLog {
    /// Open (or create) a commit log for appending. Run
    /// [`replay_commits`] first so torn tails are truncated.
    pub fn open(path: &Path) -> Result<CommitLog> {
        CommitLog::open_with(path, None)
    }

    /// [`CommitLog::open`] with a fault injector consulted by the
    /// open-time magic write/validation.
    pub fn open_with(path: &Path, faults: Option<&FaultInjector>) -> Result<CommitLog> {
        let mut file = VfsFile::open_append(path, faults).map_err(|e| io_err("open", path, &e))?;
        let mut len = file.len().map_err(|e| io_err("stat", path, &e))?;
        if len == 0 {
            file.write_all(COMMIT_MAGIC, faults)
                .map_err(|e| io_err("initialise", path, &e))?;
            file.sync(faults).map_err(|e| io_err("sync", path, &e))?;
            len = COMMIT_MAGIC.len() as u64;
        } else {
            if len < COMMIT_MAGIC.len() as u64 {
                return Err(GraphError::corrupt(
                    path.display().to_string(),
                    0,
                    "file shorter than the commit-log magic",
                ));
            }
            let mut magic = [0u8; 8];
            file.read_exact(&mut magic, faults)
                .map_err(|e| io_err("read", path, &e))?;
            if &magic != COMMIT_MAGIC {
                return Err(GraphError::corrupt(
                    path.display().to_string(),
                    0,
                    format!("bad commit-log magic {magic:?}"),
                ));
            }
        }
        Ok(CommitLog {
            file,
            path: path.to_path_buf(),
            len,
            damaged: false,
        })
    }

    /// Current file length in bytes (magic + records).
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Whether a failed append or sync has left this log in an unknown
    /// on-disk state. A damaged log refuses appends until reopened.
    #[must_use]
    pub fn is_damaged(&self) -> bool {
        self.damaged || self.file.is_poisoned()
    }

    /// Append one commit record and fsync it — the commit point of a
    /// cross-shard publish. With [`CrashPoint::CommitPreAppend`] armed
    /// the record is never written (the publish stays uncommitted).
    pub fn append(&mut self, record: &CommitRecord, faults: Option<&FaultInjector>) -> Result<()> {
        if self.is_damaged() {
            return Err(GraphError::Io(format!(
                "commit log {} is damaged by an earlier failed append; reopen it before appending",
                self.path.display()
            )));
        }
        if should_crash(faults, CrashPoint::CommitPreAppend) {
            return Err(crash_err(CrashPoint::CommitPreAppend));
        }
        let payload = record.encode();
        let bytes = payload.as_bytes();
        let mut frame = Vec::with_capacity(8 + bytes.len());
        frame.extend_from_slice(
            &u32::try_from(bytes.len())
                .map_err(|_| {
                    GraphError::Io(format!("commit record too large: {} bytes", bytes.len()))
                })?
                .to_le_bytes(),
        );
        frame.extend_from_slice(&crc32(bytes).to_le_bytes());
        frame.extend_from_slice(bytes);
        if let Err(e) = self.file.write_all(&frame, faults) {
            self.damaged = true;
            return Err(io_err("append to", &self.path, &e));
        }
        self.len += frame.len() as u64;
        if let Err(e) = self.file.sync(faults) {
            self.damaged = true;
            return Err(io_err("sync", &self.path, &e));
        }
        Ok(())
    }

    /// Truncate the commit log back to just its magic (compaction: the
    /// shard snapshots now durably hold everything it decided).
    pub fn reset(&mut self, faults: Option<&FaultInjector>) -> Result<()> {
        if let Err(e) = self.file.set_len(COMMIT_MAGIC.len() as u64, faults) {
            self.damaged = true;
            return Err(io_err("truncate", &self.path, &e));
        }
        if let Err(e) = self.file.sync(faults) {
            self.damaged = true;
            return Err(io_err("sync", &self.path, &e));
        }
        self.len = COMMIT_MAGIC.len() as u64;
        Ok(())
    }
}

/// The result of scanning a commit log at startup.
#[derive(Debug, Default)]
pub struct CommitReplay {
    /// Fully verified commit records, in append order.
    pub records: Vec<CommitRecord>,
    /// Byte offset where a torn tail begins, if one was detected.
    pub torn_at: Option<u64>,
    /// Bytes past `torn_at` that will be discarded.
    pub bytes_discarded: u64,
}

/// Scan a commit log, verifying each record's length and CRC — same
/// torn-tail semantics as [`replay`]: a torn record ends the scan (a
/// publish whose commit record is torn was never committed); a record
/// that passes its CRC but does not parse is real corruption.
pub fn replay_commits(path: &Path) -> Result<CommitReplay> {
    replay_commits_with(path, None)
}

/// [`replay_commits`] with a fault injector consulted by the file read.
pub fn replay_commits_with(path: &Path, faults: Option<&FaultInjector>) -> Result<CommitReplay> {
    let bytes = match vfs::read(path, faults) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(CommitReplay::default()),
        Err(e) => return Err(io_err("read", path, &e)),
    };
    let mut outcome = CommitReplay::default();
    if bytes.is_empty() {
        return Ok(outcome);
    }
    if bytes.len() < COMMIT_MAGIC.len() {
        outcome.torn_at = Some(0);
        outcome.bytes_discarded = bytes.len() as u64;
        return Ok(outcome);
    }
    if &bytes[..COMMIT_MAGIC.len()] != COMMIT_MAGIC {
        return Err(GraphError::corrupt(
            path.display().to_string(),
            0,
            format!("bad commit-log magic {:?}", &bytes[..COMMIT_MAGIC.len()]),
        ));
    }
    let origin = path.display().to_string();
    let mut off = COMMIT_MAGIC.len();
    let mut record = 0usize;
    while off < bytes.len() {
        record += 1;
        let torn = |outcome: &mut CommitReplay| {
            outcome.torn_at = Some(off as u64);
            outcome.bytes_discarded = (bytes.len() - off) as u64;
        };
        let Some((len, crc)) = header_at(&bytes, off) else {
            torn(&mut outcome);
            break;
        };
        let start = off + 8;
        if bytes.len() - start < len {
            torn(&mut outcome);
            break;
        }
        let payload = &bytes[start..start + len];
        if crc32(payload) != crc {
            torn(&mut outcome);
            break;
        }
        let text = std::str::from_utf8(payload)
            .map_err(|_| GraphError::corrupt(&origin, record, "payload is not UTF-8"))?;
        outcome
            .records
            .push(CommitRecord::decode(text, &origin, record)?);
        off = start + len;
    }
    Ok(outcome)
}

/// Truncate a journal to `valid_len` bytes, discarding a torn tail
/// found by [`replay`]. Lengths shorter than the magic truncate to
/// empty (the next [`Journal::open`] re-initialises the file).
pub fn truncate(path: &Path, valid_len: u64) -> Result<()> {
    truncate_with(path, valid_len, None)
}

/// [`truncate`] with a fault injector consulted by the write (repair
/// paths truncate torn tails while faults may still be armed).
pub fn truncate_with(path: &Path, valid_len: u64, faults: Option<&FaultInjector>) -> Result<()> {
    let keep = if valid_len < WAL_MAGIC.len() as u64 {
        0
    } else {
        valid_len
    };
    vfs::truncate(path, keep, faults).map_err(|e| io_err("truncate", path, &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::NodeKind;
    use std::fs;

    fn vertex(id: u64, parents: &[u64]) -> EgVertex {
        EgVertex {
            id: ArtifactId(id),
            kind: NodeKind::Dataset,
            frequency: 1,
            compute_time: 0.5,
            size: 64,
            quality: 0.0,
            description: "tab\there".to_owned(),
            source_name: if parents.is_empty() {
                Some("src".to_owned())
            } else {
                None
            },
            op_hash: if parents.is_empty() {
                None
            } else {
                Some(id ^ 7)
            },
            parents: parents.iter().copied().map(ArtifactId).collect(),
            children: Vec::new(),
        }
    }

    fn sample_delta() -> EgDelta {
        EgDelta {
            seq: 0x1f,
            shards_touched: 1,
            new_vertices: vec![vertex(1, &[]), vertex(2, &[1])],
            touched: vec![VertexTouch {
                id: ArtifactId(9),
                frequency: 4,
                compute_time: 1.25,
                size: 100,
                quality: 0.875,
            }],
            mat_added: vec![ArtifactId(2)],
            mat_removed: vec![ArtifactId(9)],
            quarantine_set: vec![QuarantineEntry {
                op_hash: 0xdead,
                name: "train\tmodel".to_owned(),
                failures: 3,
            }],
            quarantine_cleared: vec![0xbeef],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("co_graph_journal_{name}.wal"));
        let _ = fs::remove_file(&path);
        path
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn delta_round_trips_through_text() {
        let delta = sample_delta();
        let decoded = EgDelta::decode(&delta.encode(), "<memory>", 1).unwrap();
        assert_eq!(decoded, delta);
    }

    #[test]
    fn decode_rejects_garbage_with_record_context() {
        let err = EgDelta::decode("S\t1\t1\nX\t1", "w.wal", 7).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("w.wal"), "{msg}");
        assert!(msg.contains('7'), "{msg}");
        // Every record carries exactly one S line.
        for bad in ["M+\t1", "S\t1", "S\t1\t1\nS\t2\t1", "S\tzz\t1"] {
            assert!(
                EgDelta::decode(bad, "w.wal", 1).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn append_replay_round_trip() {
        let path = tmp("round_trip");
        let mut journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
        let delta = sample_delta();
        journal.append(&delta, None).unwrap();
        journal.append(&EgDelta::default(), None).unwrap();
        let outcome = replay(&path).unwrap();
        assert_eq!(outcome.deltas.len(), 2);
        assert_eq!(outcome.deltas[0], delta);
        assert!(outcome.torn_at.is_none());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let path = tmp("torn");
        let mut journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
        journal.append(&sample_delta(), None).unwrap();
        let good_len = journal.len_bytes();
        drop(journal);
        // Simulate a crash mid-append: half a record of garbage.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[42, 0, 0, 0, 1]);
        fs::write(&path, &bytes).unwrap();

        let outcome = replay(&path).unwrap();
        assert_eq!(outcome.deltas.len(), 1);
        assert_eq!(outcome.torn_at, Some(good_len));
        assert_eq!(outcome.bytes_discarded, 5);
        truncate(&path, good_len).unwrap();
        // After truncation the journal is clean and appendable again.
        let outcome = replay(&path).unwrap();
        assert_eq!(outcome.deltas.len(), 1);
        assert!(outcome.torn_at.is_none());
        let mut journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
        journal.append(&EgDelta::default(), None).unwrap();
        assert_eq!(replay(&path).unwrap().deltas.len(), 2);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_stops_replay_at_prefix() {
        let path = tmp("corrupt");
        let mut journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
        journal.append(&sample_delta(), None).unwrap();
        let first_len = journal.len_bytes();
        journal.append(&sample_delta(), None).unwrap();
        drop(journal);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // flip a byte inside record 2's payload
        fs::write(&path, &bytes).unwrap();

        let outcome = replay(&path).unwrap();
        assert_eq!(outcome.deltas.len(), 1);
        assert_eq!(outcome.torn_at, Some(first_len));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty_and_reset_clears() {
        let path = tmp("reset");
        assert!(replay(&path).unwrap().deltas.is_empty());
        let mut journal = Journal::open(&path, FsyncPolicy::EveryN(2)).unwrap();
        journal.append(&sample_delta(), None).unwrap();
        journal.reset(None).unwrap();
        assert_eq!(journal.len_bytes(), WAL_MAGIC.len() as u64);
        assert!(replay(&path).unwrap().deltas.is_empty());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_reported_with_path() {
        let path = tmp("magic");
        fs::write(&path, b"NOTAWAL!record").unwrap();
        let err = replay(&path).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("magic"), "{err}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn seq_line_round_trips() {
        let mut delta = sample_delta();
        let encoded = delta.encode();
        assert!(encoded.starts_with("S\t1f\t1\n"), "{encoded}");
        assert!(delta.commits_itself());
        delta.shards_touched = 3;
        let encoded = delta.encode();
        assert!(encoded.starts_with("S\t1f\t3\n"), "{encoded}");
        let decoded = EgDelta::decode(&encoded, "<memory>", 1).unwrap();
        assert_eq!(decoded, delta);
        assert!(
            !decoded.commits_itself(),
            "a cross-shard record needs the commit log"
        );
    }

    #[test]
    fn commit_log_round_trips_and_detects_torn_tail() {
        let path = std::env::temp_dir().join("co_graph_journal_commit.commit");
        let _ = fs::remove_file(&path);
        let mut log = CommitLog::open(&path).unwrap();
        let a = CommitRecord {
            seq: 1,
            shards: vec![0, 3, 7],
        };
        let b = CommitRecord {
            seq: 2,
            shards: vec![2],
        };
        log.append(&a, None).unwrap();
        let good_len = log.len_bytes();
        log.append(&b, None).unwrap();
        drop(log);
        let replayed = replay_commits(&path).unwrap();
        assert_eq!(replayed.records, vec![a.clone(), b]);
        assert!(replayed.torn_at.is_none());
        // Tear the second record: replay keeps exactly the prefix.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let replayed = replay_commits(&path).unwrap();
        assert_eq!(replayed.records, vec![a]);
        assert_eq!(replayed.torn_at, Some(good_len));
        truncate(&path, good_len).unwrap();
        assert!(replay_commits(&path).unwrap().torn_at.is_none());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn commit_pre_append_crash_leaves_log_untouched() {
        let path = std::env::temp_dir().join("co_graph_journal_commit_crash.commit");
        let _ = fs::remove_file(&path);
        let mut log = CommitLog::open(&path).unwrap();
        let faults = FaultInjector::new();
        faults.arm_crash(CrashPoint::CommitPreAppend);
        let rec = CommitRecord {
            seq: 9,
            shards: vec![1],
        };
        assert!(log.append(&rec, Some(&faults)).is_err());
        assert!(replay_commits(&path).unwrap().records.is_empty());
        log.append(&rec, Some(&faults)).unwrap(); // one-shot
        assert_eq!(replay_commits(&path).unwrap().records.len(), 1);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn commit_record_rejects_malformed_payloads() {
        for bad in [
            "",
            "X\t1\t0",
            "C\t1\t",
            "C\tzz\t0",
            "C\t1\t3,1",
            "C\t1\t1,1",
            "C\t1\t0\nC\t2\t0",
        ] {
            assert!(
                CommitRecord::decode(bad, "<memory>", 1).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn failed_append_damages_journal_until_reopen() {
        use crate::faults::IoFault;
        let path = tmp("io_damage");
        let mut journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
        journal.append(&sample_delta(), None).unwrap();
        let good_len = journal.len_bytes();
        let faults = FaultInjector::new();
        faults.arm_io_fault(IoFault::Enospc, 1);
        assert!(journal.append(&sample_delta(), Some(&faults)).is_err());
        assert!(journal.is_damaged());
        // Fault budget is spent, but the journal still refuses appends:
        // the on-disk state is unknown until reopened.
        assert!(journal.append(&sample_delta(), Some(&faults)).is_err());
        drop(journal);
        // ENOSPC landed no bytes, so the committed prefix is intact.
        let outcome = replay(&path).unwrap();
        assert_eq!(outcome.deltas.len(), 1);
        assert!(outcome.torn_at.is_none());
        let mut reopened = Journal::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(reopened.len_bytes(), good_len);
        reopened.append(&sample_delta(), None).unwrap();
        assert_eq!(replay(&path).unwrap().deltas.len(), 2);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn short_write_leaves_truncatable_torn_tail() {
        use crate::faults::IoFault;
        let path = tmp("io_short");
        let mut journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
        journal.append(&sample_delta(), None).unwrap();
        let good_len = journal.len_bytes();
        let faults = FaultInjector::new();
        faults.arm_io_fault(IoFault::ShortWrite, 1);
        assert!(journal.append(&sample_delta(), Some(&faults)).is_err());
        drop(journal);
        let outcome = replay(&path).unwrap();
        assert_eq!(outcome.deltas.len(), 1);
        assert_eq!(outcome.torn_at, Some(good_len));
        truncate(&path, good_len).unwrap();
        assert!(replay(&path).unwrap().torn_at.is_none());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn apply_is_idempotent_over_absolute_values() {
        let mut eg = ExperimentGraph::new(true);
        let delta = EgDelta {
            new_vertices: vec![vertex(1, &[]), vertex(2, &[1])],
            mat_added: vec![ArtifactId(2)],
            ..EgDelta::default()
        };
        delta.apply_to_shard(&mut eg).unwrap();
        delta.apply_to_shard(&mut eg).unwrap(); // replay over an already-applied state
        assert_eq!(eg.n_vertices(), 2);
        assert_eq!(eg.vertex(ArtifactId(1)).unwrap().frequency, 1);
        assert!(eg.was_materialized(ArtifactId(2)));
        let touch = EgDelta {
            touched: vec![VertexTouch {
                id: ArtifactId(1),
                frequency: 5,
                compute_time: 2.0,
                size: 10,
                quality: 0.5,
            }],
            mat_removed: vec![ArtifactId(2)],
            ..EgDelta::default()
        };
        touch.apply_to_shard(&mut eg).unwrap();
        touch.apply_to_shard(&mut eg).unwrap();
        assert_eq!(eg.vertex(ArtifactId(1)).unwrap().frequency, 5);
        assert!(!eg.was_materialized(ArtifactId(2)));
    }
}
