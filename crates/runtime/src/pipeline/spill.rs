//! Memory-budgeted spilling for pipeline breakers.
//!
//! The pipeline breakers that buffer an unbounded number of rows are the
//! hash-join *build* table, the `distinct` seen-set and the re-scanned
//! inner of a nested-loop or merge join (aggregates fold with O(1) state
//! and never buffer; the pending-source spools of streamed resolution are
//! not bounded, since finalization holds every answer whole anyway).
//! This module gives those breakers a
//! shared, byte-accounting [`MemoryBudget`] plus the disk-run plumbing
//! they partition their state into when the budget trips:
//!
//! * [`MemoryBudget`] — a racy-but-monotone byte counter shared by every
//!   cursor of one pipeline evaluation.
//!   `charge` adds bytes and reports whether the total is still inside
//!   the limit; the *caller* reacts to an overrun by spilling and
//!   uncharging.  The default is unbounded, in which case `charge` is a
//!   no-op returning `true` and nothing in this module ever runs.
//! * `RunFile` / `RunFileReader` — a delete-on-drop temp file holding
//!   one *run* of length-prefixed [`Value`] records in the `disco-value`
//!   spill format ([`disco_value::spill`]).  Runs are written once,
//!   sequentially, then rewound and read back once.
//! * `Grace` — the one Grace partitioner both spilling breakers run on.
//!   A partition is *(resident run, streamed run, level)*: the hash join
//!   keeps build rows in the resident run and probe rows in the streamed
//!   one; distinct keeps the values it already emitted and the candidates
//!   still to check.  Records route by `spill_partition` — 8 partitions
//!   per level, 3 fresh bits of the routing hash per recursion level —
//!   and a partition whose resident run still overflows the budget on
//!   read-back is re-split into 8 children rather than loaded whole.
//!
//! Spill files live in `DISCO_SPILL_DIR` (read per file creation so tests
//! can redirect it) or `std::env::temp_dir()`, are named
//! `disco-spill-<pid>-<seq>.run`, and are removed on drop — on success
//! *and* on error/unwind paths, since cleanup rides on `Drop`.
//!
//! The budget itself comes from
//! [`PipelineOptions::mem_budget`](super::PipelineOptions::mem_budget)
//! ([`MemBudget`]) or, when that is `Auto`, the `DISCO_MEM_BUDGET`
//! environment variable (a byte count; unset means unbounded).
//!
//! Outside tests this module denies `unwrap`, `expect`, `panic!` and
//! `unreachable!`: a record that cannot be read back is a typed
//! [`RuntimeError::Spill`].
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::collections::VecDeque;
use std::fs::File;
use std::hash::{BuildHasher, RandomState};
use std::io::{BufReader, BufWriter, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use disco_value::{RunReader, RunWriter, Value};

use crate::{Result, RuntimeError};

/// How much memory the pipeline breakers of one evaluation may hold
/// before spilling to disk.
///
/// This is the type of the `mem_budget` field of
/// [`PipelineOptions`](super::PipelineOptions); the default `Auto` defers
/// to the `DISCO_MEM_BUDGET` environment variable so existing callers and
/// deployments are unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MemBudget {
    /// Use `DISCO_MEM_BUDGET` if set (a positive byte count), otherwise
    /// run unbounded.  This is the default.
    #[default]
    Auto,
    /// Never spill, regardless of the environment.  Used by differential
    /// tests to pin the in-memory baseline while `DISCO_MEM_BUDGET` is
    /// exported process-wide.
    Unbounded,
    /// Spill once the breakers of one evaluation track more than this
    /// many bytes.
    Bytes(usize),
}

impl MemBudget {
    /// Resolve to a concrete byte limit (`None` = unbounded).
    pub fn resolve(self) -> Option<usize> {
        match self {
            MemBudget::Auto => env_mem_budget(),
            MemBudget::Unbounded => None,
            MemBudget::Bytes(n) => Some(n.max(1)),
        }
    }
}

/// Parse `DISCO_MEM_BUDGET` once.  Unset (or empty) means unbounded;
/// `0` or garbage is rejected with a warning.
pub(crate) fn env_mem_budget() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        let raw = std::env::var("DISCO_MEM_BUDGET").ok()?;
        if raw.trim().is_empty() {
            return None;
        }
        match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                eprintln!(
                    "disco: invalid DISCO_MEM_BUDGET {raw:?} (want a positive byte count); \
                     running unbounded"
                );
                None
            }
        }
    })
}

/// Shared byte accounting for the pipeline breakers of one evaluation.
///
/// Counters are relaxed atomics: the budget is a *trigger*, not a hard
/// allocator, and a few racy bytes of overshoot around the trip point are
/// acceptable (each breaker spills as soon as it observes a failed
/// charge, so the peak stays within one row of the limit per breaker).
#[derive(Debug)]
pub struct MemoryBudget {
    limit: Option<usize>,
    used: AtomicUsize,
    peak: AtomicUsize,
}

impl MemoryBudget {
    /// A budget that never trips and never counts (the default path).
    pub const fn unbounded() -> Self {
        MemoryBudget {
            limit: None,
            used: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// A budget tripping above `limit` bytes.
    pub fn bounded(limit: usize) -> Self {
        MemoryBudget {
            limit: Some(limit.max(1)),
            used: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Build from resolved pipeline options.
    pub fn from_limit(limit: Option<usize>) -> Self {
        match limit {
            Some(n) => MemoryBudget::bounded(n),
            None => MemoryBudget::unbounded(),
        }
    }

    /// Account `bytes` of newly buffered breaker state.  Returns `true`
    /// while the total stays within the limit; a `false` return means the
    /// caller should spill (and [`uncharge`](Self::uncharge) what it
    /// releases).  The bytes are counted even on a `false` return — the
    /// caller keeps them resident until it actually spills.
    pub fn charge(&self, bytes: usize) -> bool {
        let Some(limit) = self.limit else { return true };
        let now = self.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
        now <= limit
    }

    /// [`charge`](Self::charge)s `bytes()` and adds it to `charged`, the
    /// caller's tally of what it holds, computing it only when the budget
    /// counts: an unbounded budget charges nothing and returns `true`.
    pub fn charge_with(&self, charged: &mut usize, bytes: impl FnOnce() -> usize) -> bool {
        let Some(_) = self.limit else { return true };
        let bytes = bytes();
        *charged += bytes;
        self.charge(bytes)
    }

    /// Release bytes previously [`charge`](Self::charge)d.
    pub fn uncharge(&self, bytes: usize) {
        if self.limit.is_some() {
            self.used.fetch_sub(bytes, Ordering::Relaxed);
        }
    }

    /// [`uncharge`](Self::uncharge)s `bytes()`, taking it off `charged`;
    /// the reverse of [`charge_with`](Self::charge_with).
    pub fn uncharge_with(&self, charged: &mut usize, bytes: impl FnOnce() -> usize) {
        if self.limit.is_some() {
            let bytes = bytes();
            *charged -= bytes;
            self.uncharge(bytes);
        }
    }

    /// Currently tracked bytes.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of tracked bytes over the evaluation.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Grace-style partition fan-out: every spill splits state 8 ways.
const SPILL_FANOUT: usize = 8;

/// Bits of the key hash consumed per recursion level.
const SPILL_LEVEL_BITS: u32 = 3;

/// Deepest re-split level.  `64 / 3` levels exhaust the hash; past this a
/// partition (necessarily dominated by duplicate keys) is loaded whole,
/// overcommitting the budget rather than looping forever.
const MAX_SPILL_LEVEL: u32 = 20;

/// Whether a partition routed at `level` can still be re-split.
pub(crate) fn can_split(level: u32) -> bool {
    level < MAX_SPILL_LEVEL
}

/// Which of the 8 partitions a key hash routes to at `level`.
fn spill_partition(hash: u64, level: u32) -> usize {
    let shift = SPILL_LEVEL_BITS * level.min(MAX_SPILL_LEVEL);
    ((hash >> shift) & (SPILL_FANOUT as u64 - 1)) as usize
}

/// The directory spill files are created in: `DISCO_SPILL_DIR` when set
/// and non-empty (read per call, *not* cached, so tests can redirect per
/// test case), otherwise the system temp directory.
pub(crate) fn spill_dir() -> PathBuf {
    match std::env::var_os("DISCO_SPILL_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => std::env::temp_dir(),
    }
}

/// Map a spill I/O failure onto the runtime error space.
pub(crate) fn spill_err(context: &str, err: std::io::Error) -> RuntimeError {
    RuntimeError::Spill(format!("{context}: {err}"))
}

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A delete-on-drop temporary file.  Dropping the handle removes the
/// file, which is what guarantees cleanup on error and panic paths.
#[derive(Debug)]
pub(crate) struct SpillFile {
    path: PathBuf,
}

impl SpillFile {
    /// Create a fresh, empty spill file and return its handle plus the
    /// open [`File`].
    pub(crate) fn create() -> Result<(SpillFile, File)> {
        let dir = spill_dir();
        std::fs::create_dir_all(&dir).map_err(|e| spill_err("creating spill directory", e))?;
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("disco-spill-{}-{}.run", std::process::id(), seq));
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| spill_err("creating spill file", e))?;
        Ok((SpillFile { path }, file))
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One spill *run* being written: records of `Value`s appended
/// sequentially through a buffered writer.  Finish with
/// [`into_reader`](Self::into_reader) (rewinds the same file — no
/// reopen) or just drop it to discard the run.
pub(crate) struct RunFile {
    file: SpillFile,
    writer: RunWriter<BufWriter<File>>,
}

impl RunFile {
    /// Create an empty run in the spill directory.
    pub(crate) fn create() -> Result<RunFile> {
        let (file, handle) = SpillFile::create()?;
        Ok(RunFile {
            file,
            writer: RunWriter::new(BufWriter::new(handle)),
        })
    }

    /// Append one record (a row: key + frames, or a single value).
    pub(crate) fn push(&mut self, record: &[Value]) -> Result<()> {
        self.writer
            .push(record)
            .map_err(|e| spill_err("writing spill run", e))
    }

    /// Records written so far.
    pub(crate) fn rows(&self) -> u64 {
        self.writer.rows()
    }

    /// Serialized bytes written so far.
    pub(crate) fn bytes(&self) -> u64 {
        self.writer.bytes()
    }

    /// Flush, rewind and turn the run into a reader over the same file.
    pub(crate) fn into_reader(self) -> Result<RunFileReader> {
        let buf = self
            .writer
            .finish()
            .map_err(|e| spill_err("flushing spill run", e))?;
        let mut handle = buf
            .into_inner()
            .map_err(|e| spill_err("flushing spill run", e.into_error()))?;
        handle
            .seek(SeekFrom::Start(0))
            .map_err(|e| spill_err("rewinding spill run", e))?;
        Ok(RunFileReader {
            _file: self.file,
            reader: RunReader::new(BufReader::new(handle)),
        })
    }
}

/// A finished spill run supporting repeated sequential passes — the
/// nested-loop / merge-tuples inner buffer re-scans its spilled tail once
/// per outer row.  Unlike [`RunFileReader`], which is forward-only and
/// read once, every [`pass`](Self::pass) rewinds the same delete-on-drop
/// file and reads it from the start.
pub(crate) struct RewindableRun {
    _file: SpillFile,
    handle: File,
}

impl RewindableRun {
    /// Flush a written run into its rewindable form.
    pub(crate) fn from_run(run: RunFile) -> Result<RewindableRun> {
        let buf = run
            .writer
            .finish()
            .map_err(|e| spill_err("flushing spill run", e))?;
        let handle = buf
            .into_inner()
            .map_err(|e| spill_err("flushing spill run", e.into_error()))?;
        Ok(RewindableRun {
            _file: run.file,
            handle,
        })
    }

    /// Start a fresh sequential pass over the whole run.  Only one pass
    /// should be active at a time — passes share the underlying file
    /// cursor.
    pub(crate) fn pass(&mut self) -> Result<RunPass> {
        self.handle
            .seek(SeekFrom::Start(0))
            .map_err(|e| spill_err("rewinding spill run", e))?;
        let clone = self
            .handle
            .try_clone()
            .map_err(|e| spill_err("reopening spill run", e))?;
        Ok(RunPass {
            reader: RunReader::new(BufReader::new(clone)),
        })
    }
}

/// One sequential pass over a [`RewindableRun`].
pub(crate) struct RunPass {
    reader: RunReader<BufReader<File>>,
}

impl RunPass {
    /// Next record, or `None` at the end of the run.
    pub(crate) fn next_record(&mut self) -> Result<Option<Vec<Value>>> {
        self.reader
            .next_record()
            .map_err(|e| spill_err("reading spill run", e))
    }
}

/// A finished spill run being read back.  Holds the delete-on-drop file
/// handle, so the run disappears from disk as soon as the reader does.
pub(crate) struct RunFileReader {
    _file: SpillFile,
    reader: RunReader<BufReader<File>>,
}

impl RunFileReader {
    /// Next record, or `None` at the end of the run.
    pub(crate) fn next_record(&mut self) -> Result<Option<Vec<Value>>> {
        self.reader
            .next_record()
            .map_err(|e| spill_err("reading spill run", e))
    }
}

/// Breaker state a Grace partition reloads from its resident run: the
/// hash join's build table, distinct's seen-set.
pub(crate) trait Resident {
    /// Inserts one record read back from a resident run and returns the
    /// bytes to charge for it.  Reloads never touch `rows_materialized` —
    /// every record was counted when first consumed.
    fn load(&mut self, record: Vec<Value>) -> Result<usize>;

    /// Moves every entry out as spill records (routing key first),
    /// leaving the state empty.
    fn unload(&mut self, sink: &mut dyn FnMut(&[Value]) -> Result<()>) -> Result<()>;
}

/// One pending Grace partition and the hash level it was routed at.
struct Partition {
    /// `None` for an empty run (no file is kept open for it).
    resident: Option<RunFileReader>,
    streamed: RunFileReader,
    level: u32,
}

/// A partition whose resident run is back in memory (charged against the
/// budget) with its streamed run still to consume.
pub(crate) struct Loaded<R> {
    pub(crate) state: R,
    pub(crate) streamed: RunFileReader,
    pub(crate) charged: usize,
    pub(crate) level: u32,
}

/// One fan-out being written: 8 resident and 8 streamed runs at one hash
/// level.  Every record leads with its routing key.
pub(crate) struct Fanout {
    route: RandomState,
    resident_required: bool,
    level: u32,
    resident: Vec<RunFile>,
    streamed: Vec<RunFile>,
}

impl Fanout {
    fn slot(&self, record: &[Value]) -> usize {
        spill_partition(self.route.hash_one(&record[0]), self.level)
    }

    pub(crate) fn push_resident(&mut self, record: &[Value]) -> Result<()> {
        let slot = self.slot(record);
        self.resident[slot].push(record)
    }

    /// Routes a streamed record.  When the operator needs resident rows
    /// to produce anything (a join probe row without build rows matches
    /// nothing) a record landing on an empty resident run is dropped —
    /// which is why all resident records are pushed first.
    pub(crate) fn push_streamed(&mut self, record: &[Value]) -> Result<()> {
        let slot = self.slot(record);
        if self.resident_required && self.resident[slot].rows() == 0 {
            return Ok(());
        }
        self.streamed[slot].push(record)
    }
}

/// The Grace partitioner: the queue of pending partitions of one spilled
/// breaker, the router that assigns records to them, and the re-split of
/// a partition that alone exceeds the budget.
pub(crate) struct Grace {
    /// The partition router.  Independent of the reloaded state's own
    /// hashing: it only decides which run a key lands in, at every level.
    route: RandomState,
    queue: VecDeque<Partition>,
    resident_required: bool,
}

impl Grace {
    /// `resident_required`: partitions (and streamed records) without any
    /// resident row can produce nothing and are dropped — true for the
    /// join, false for distinct, whose candidates are new exactly when no
    /// resident value suppresses them.
    pub(crate) fn new(resident_required: bool) -> Self {
        Grace {
            route: RandomState::new(),
            queue: VecDeque::new(),
            resident_required,
        }
    }

    /// Opens the 16 runs of one fan-out at `level`.
    pub(crate) fn fanout(&self, level: u32) -> Result<Fanout> {
        let runs = || {
            (0..SPILL_FANOUT)
                .map(|_| RunFile::create())
                .collect::<Result<Vec<_>>>()
        };
        Ok(Fanout {
            route: self.route.clone(),
            resident_required: self.resident_required,
            level,
            resident: runs()?,
            streamed: runs()?,
        })
    }

    /// Seals a fan-out: accounts its bytes and partitions and queues the
    /// partitions that can still produce output.  Children go to the
    /// *front*: depth-first keeps the open-file count proportional to the
    /// recursion depth, not the partition count.
    pub(crate) fn finish(&mut self, fan: Fanout, metrics: &super::PipelineMetrics) -> Result<()> {
        let bytes = fan.resident.iter().chain(&fan.streamed).map(RunFile::bytes);
        metrics.add_bytes_spilled(bytes.sum());
        metrics.add_spill_partitions(SPILL_FANOUT);
        let mut children = Vec::new();
        for (resident, streamed) in fan.resident.into_iter().zip(fan.streamed) {
            // Nothing streamed means nothing left to emit.
            if streamed.rows() == 0 || (self.resident_required && resident.rows() == 0) {
                continue;
            }
            children.push(Partition {
                resident: (resident.rows() > 0)
                    .then(|| resident.into_reader())
                    .transpose()?,
                streamed: streamed.into_reader()?,
                level: fan.level,
            });
        }
        for child in children.into_iter().rev() {
            self.queue.push_front(child);
        }
        Ok(())
    }

    /// Reloads the next pending partition's resident run into `fresh()`
    /// state, charging per record.  A partition that alone exceeds the
    /// budget is re-split at the next hash level — unless it is already at
    /// the deepest one (necessarily dominated by one key, a split could
    /// not separate it), where it loads whole and the budget overcommits
    /// for its duration.  `None` once every partition has been handed out.
    pub(crate) fn load_next<R: Resident>(
        &mut self,
        fresh: impl Fn() -> R,
        ctx: super::PipelineCtx<'_>,
    ) -> Result<Option<Loaded<R>>> {
        'partitions: while let Some(part) = self.queue.pop_front() {
            let mut loaded = Loaded {
                state: fresh(),
                streamed: part.streamed,
                charged: 0,
                level: part.level,
            };
            let mut resident = part.resident;
            while let Some(run) = resident.as_mut() {
                let Some(record) = run.next_record()? else {
                    break;
                };
                let cost = loaded.state.load(record)?;
                loaded.charged += cost;
                if !ctx.budget.charge(cost) && can_split(loaded.level) {
                    self.resplit(loaded, resident, ctx)?;
                    continue 'partitions;
                }
            }
            return Ok(Some(loaded));
        }
        Ok(None)
    }

    /// Re-splits an over-budget partition a level deeper: the loaded
    /// state, the unread rest of its resident run (when the trip hit
    /// during reload) and its whole streamed run are re-routed on 3 fresh
    /// hash bits, and the children replace the parent in the queue.
    pub(crate) fn resplit<R: Resident>(
        &mut self,
        mut loaded: Loaded<R>,
        resident_rest: Option<RunFileReader>,
        ctx: super::PipelineCtx<'_>,
    ) -> Result<()> {
        let mut fan = self.fanout(loaded.level + 1)?;
        loaded
            .state
            .unload(&mut |record| fan.push_resident(record))?;
        ctx.budget.uncharge(loaded.charged);
        if let Some(mut rest) = resident_rest {
            while let Some(record) = rest.next_record()? {
                fan.push_resident(&record)?;
            }
        }
        while let Some(record) = loaded.streamed.next_record()? {
            fan.push_streamed(&record)?;
        }
        self.finish(fan, ctx.metrics)
    }
}

/// Rough resident size of a pipeline row buffered by a breaker: the row
/// header plus the deep (heap) size of each frame value.  Borrowed frames
/// are costed like owned ones — a spilled-and-reloaded row comes back
/// owned, so the conservative (over)estimate keeps the peak honest.
pub(crate) fn approx_row_bytes(row: &super::Row<'_>) -> usize {
    std::mem::size_of::<super::Row<'static>>()
        + row
            .frames()
            .iter()
            .map(|f| disco_value::approx_value_bytes(f.value()))
            .sum::<usize>()
}

/// Serialize a build/probe row as a spill record: the join key first,
/// then the row's frame values in order (the frame count is implicit in
/// the record length).
pub(crate) fn row_record(key: &Value, row: super::Row<'_>) -> Vec<Value> {
    let mut rec = Vec::with_capacity(1 + row.frames().len());
    rec.push(key.clone());
    rec.extend(
        row.into_frame_vec()
            .into_iter()
            .map(super::Frame::into_value),
    );
    rec
}

/// Rebuild a row from the frame values of a spill record (minus the key).
/// Everything read back from disk is owned; a record with no value is a
/// [`RuntimeError::Spill`], since a row has at least one frame.
pub(crate) fn record_row<'a>(values: Vec<Value>) -> Result<super::Row<'a>> {
    use super::{Frame, Row};
    let mut values = values.into_iter();
    Ok(match (values.next(), values.next()) {
        (None, _) => {
            return Err(RuntimeError::Spill(
                "a spilled row record holds no frame".into(),
            ))
        }
        (Some(a), None) => Row::One(Frame::Owned(a)),
        (Some(a), Some(b)) if values.len() == 0 => Row::Two([Frame::Owned(a), Frame::Owned(b)]),
        (Some(a), Some(b)) => {
            Row::Many([a, b].into_iter().chain(values).map(Frame::Owned).collect())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_budget_is_a_no_op() {
        let b = MemoryBudget::unbounded();
        let mut charged = 0;
        assert!(b.charge_with(&mut charged, || unreachable!(
            "an unbounded budget sizes nothing"
        )));
        assert_eq!(charged, 0);
        assert!(b.charge(usize::MAX / 2));
        assert!(b.charge(usize::MAX / 2));
        assert_eq!(b.used(), 0);
        assert_eq!(b.peak(), 0);
    }

    #[test]
    fn bounded_budget_trips_and_tracks_peak() {
        let b = MemoryBudget::bounded(100);
        assert!(b.charge(60));
        assert!(!b.charge(60));
        assert_eq!(b.used(), 120);
        assert_eq!(b.peak(), 120);
        b.uncharge(120);
        assert_eq!(b.used(), 0);
        assert_eq!(b.peak(), 120);
        assert!(b.charge(40));
    }

    #[test]
    fn mem_budget_resolution() {
        assert_eq!(MemBudget::Unbounded.resolve(), None);
        assert_eq!(MemBudget::Bytes(0).resolve(), Some(1));
        assert_eq!(MemBudget::Bytes(4096).resolve(), Some(4096));
    }

    #[test]
    fn partition_router_uses_fresh_bits_per_level() {
        let h = 0b101_110_011u64;
        assert_eq!(spill_partition(h, 0), 0b011);
        assert_eq!(spill_partition(h, 1), 0b110);
        assert_eq!(spill_partition(h, 2), 0b101);
        // Past the deepest level the router stops shifting (stable).
        assert_eq!(
            spill_partition(u64::MAX, MAX_SPILL_LEVEL + 5),
            spill_partition(u64::MAX, MAX_SPILL_LEVEL)
        );
    }

    #[test]
    fn run_round_trip_and_cleanup() {
        let mut run = RunFile::create().expect("create run");
        let path = run.file.path.clone();
        run.push(&[Value::from(1i64), Value::from("a")]).unwrap();
        run.push(&[Value::Null]).unwrap();
        assert_eq!(run.rows(), 2);
        assert!(run.bytes() > 0);
        let mut reader = run.into_reader().expect("reader");
        assert!(path.exists());
        let rec = reader.next_record().unwrap().unwrap();
        assert_eq!(rec, vec![Value::from(1i64), Value::from("a")]);
        let rec = reader.next_record().unwrap().unwrap();
        assert_eq!(rec, vec![Value::Null]);
        assert!(reader.next_record().unwrap().is_none());
        drop(reader);
        assert!(!path.exists(), "spill file must be removed on drop");
    }

    #[test]
    fn rewindable_run_supports_multiple_passes_and_cleanup() {
        let mut run = RunFile::create().expect("create run");
        let path = run.file.path.clone();
        run.push(&[Value::from(1i64)]).unwrap();
        run.push(&[Value::from(2i64)]).unwrap();
        let mut rewind = RewindableRun::from_run(run).expect("rewindable");
        for pass_no in 0..3 {
            let mut pass = rewind.pass().expect("pass");
            assert_eq!(
                pass.next_record().unwrap().unwrap(),
                vec![Value::from(1i64)],
                "pass {pass_no}"
            );
            assert_eq!(
                pass.next_record().unwrap().unwrap(),
                vec![Value::from(2i64)],
                "pass {pass_no}"
            );
            assert!(pass.next_record().unwrap().is_none(), "pass {pass_no}");
        }
        drop(rewind);
        assert!(!path.exists(), "spill file must be removed on drop");
    }

    #[test]
    fn discarded_run_is_cleaned_up() {
        let mut run = RunFile::create().expect("create run");
        run.push(&[Value::from(7i64)]).unwrap();
        let path = run.file.path.clone();
        drop(run);
        assert!(!path.exists());
    }
}
