//! Hierarchical span tracing with Chrome Trace Event export and a
//! self-profile aggregation.
//!
//! A [`Tracer`] hands out RAII [`SpanGuard`]s; each guard records one
//! `(name, thread, start, end)` tuple into a per-thread lock-free ring
//! buffer when it drops. Span names are interned up front
//! ([`Tracer::span_id`]) so the hot path touches no locks, no allocation,
//! and no string hashing — just two `Instant` reads and three relaxed
//! atomic stores. Nesting needs no explicit parent bookkeeping: spans on
//! one thread follow RAII stack discipline, so any two recorded spans of
//! a thread are either disjoint in time or properly nested, and the tree
//! is rebuilt from the timestamps alone at export time.
//!
//! Exports:
//! - [`Trace::to_chrome_json`] — Chrome Trace Event Format (`ph: "B"/"E"`
//!   pairs, microsecond timestamps), loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev).
//! - [`Trace::self_profile`] — per-span-name count / total / mean /
//!   p50 / p95 / p99 wall time plus child-exclusive time, as CSV or a
//!   pretty console table.
//!
//! Trace files carry real wall-clock durations, so unlike journals they
//! are *not* byte-reproducible across runs; `telemetry_lint` validates
//! their structure (balanced begin/end, monotone timestamps per thread)
//! instead of their bytes.
//!
//! ```
//! use rayfade_telemetry::trace::Tracer;
//!
//! let tracer = Tracer::new();
//! let outer = tracer.span_id("demo/outer");
//! let inner = tracer.span_id("demo/inner");
//! {
//!     let _o = tracer.span(outer);
//!     let _i = tracer.span(inner);
//! }
//! let trace = tracer.snapshot();
//! assert_eq!(trace.records.len(), 2);
//! let json = trace.to_chrome_json();
//! let back = rayfade_telemetry::trace::parse_chrome_trace(&json).unwrap();
//! assert_eq!(back.len(), 2);
//! ```

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

use crate::json::{Json, JsonNum, JsonStr};
use crate::metrics::Histogram;

/// Default per-thread ring capacity, in spans. At 24 bytes per slot a
/// full ring is 1.5 MiB per thread — big enough that sampled
/// instrumentation of a full experiment never wraps. A ring allocates its
/// slots in chunks of 1 024 as its thread first reaches them, so a
/// short-lived pool worker that records a few spans pays 24 KiB.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// Slots per lazily allocated chunk of a thread's ring.
const CHUNK_SLOTS: usize = 1_024;

/// Schema version stamped into exported trace files (in `otherData`).
pub const TRACE_SCHEMA_VERSION: u64 = 1;

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// One cached ring-buffer binding: (tracer id, liveness probe, buffer).
type BufferEntry = (u64, Weak<TracerInner>, Arc<ThreadBuffer>);

thread_local! {
    /// Our own dense thread ids: `std::thread::ThreadId` has no stable
    /// integer form, and trace viewers want small `tid` values.
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);

    /// Per-thread cache of this thread's ring buffer for each live
    /// tracer, keyed by tracer id. Entries whose tracer has been dropped
    /// are pruned on the next miss.
    static BUFFERS: RefCell<Vec<BufferEntry>> = const { RefCell::new(Vec::new()) };
}

/// One recorded-span slot: name id, start, end (nanoseconds since the
/// tracer's epoch). Written with relaxed stores by exactly one thread;
/// read only after writers quiesce (see [`Tracer::snapshot`]).
#[derive(Default)]
struct Slot {
    name: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
}

/// A single thread's span ring. Single-writer: only the owning thread
/// allocates chunks and stores; snapshotting threads only load.
struct ThreadBuffer {
    tid: u64,
    /// Total spans ever pushed; `head % capacity` is the next write slot.
    head: AtomicU64,
    capacity: usize,
    /// The ring's `capacity` slots, [`CHUNK_SLOTS`] to a chunk, each
    /// allocated by the owning thread when it first writes there.
    chunks: Box<[OnceLock<Box<[Slot]>>]>,
}

impl ThreadBuffer {
    fn new(tid: u64, capacity: usize) -> ThreadBuffer {
        ThreadBuffer {
            tid,
            head: AtomicU64::new(0),
            capacity,
            chunks: (0..capacity.div_ceil(CHUNK_SLOTS))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    #[inline]
    fn push(&self, name: u64, start_ns: u64, end_ns: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let k = (head % self.capacity as u64) as usize;
        let c = k / CHUNK_SLOTS;
        let chunk = self.chunks[c].get_or_init(|| {
            let len = CHUNK_SLOTS.min(self.capacity - c * CHUNK_SLOTS);
            (0..len).map(|_| Slot::default()).collect()
        });
        let slot = &chunk[k % CHUNK_SLOTS];
        slot.name.store(name, Ordering::Relaxed);
        slot.start.store(start_ns, Ordering::Relaxed);
        slot.end.store(end_ns, Ordering::Relaxed);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Ring slot `k`, which a push has written: its chunk exists.
    fn slot(&self, k: usize) -> &Slot {
        let chunk = self.chunks[k / CHUNK_SLOTS]
            .get()
            .expect("a written slot's chunk is allocated");
        &chunk[k % CHUNK_SLOTS]
    }
}

struct TracerInner {
    id: u64,
    epoch: Instant,
    capacity: usize,
    names: Mutex<Vec<String>>,
    buffers: Mutex<Vec<Arc<ThreadBuffer>>>,
}

/// An interned span name, resolved once via [`Tracer::span_id`] outside
/// the hot loop; starting a span with it costs no lock and no lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

/// Collects spans from RAII guards into per-thread ring buffers.
///
/// Cloning is cheap (`Arc`); all methods take `&self`, so one tracer can
/// be shared across rayon workers by reference.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("id", &self.inner.id)
            .field("capacity", &self.inner.capacity)
            .finish_non_exhaustive()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with the default per-thread capacity
    /// ([`DEFAULT_SPAN_CAPACITY`]).
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A tracer whose per-thread rings hold `capacity` spans; once a
    /// thread exceeds it, its oldest spans are overwritten (and counted
    /// in [`Trace::dropped`]).
    pub fn with_capacity(capacity: usize) -> Tracer {
        assert!(capacity > 0, "tracer capacity must be positive");
        Tracer {
            inner: Arc::new(TracerInner {
                id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                capacity,
                names: Mutex::new(Vec::new()),
                buffers: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Interns `name` and returns its [`SpanId`]. Takes a brief mutex —
    /// resolve ids once outside hot loops, like registry metric handles.
    pub fn span_id(&self, name: &str) -> SpanId {
        let mut names = self.inner.names.lock().expect("tracer name table poisoned");
        if let Some(k) = names.iter().position(|n| n == name) {
            return SpanId(k as u64);
        }
        names.push(name.to_string());
        SpanId((names.len() - 1) as u64)
    }

    /// Starts a span; it is recorded when the returned guard drops.
    #[inline]
    pub fn span(&self, id: SpanId) -> SpanGuard {
        SpanGuard {
            buffer: self.thread_buffer(),
            epoch: self.inner.epoch,
            name: id.0,
            start: Instant::now(),
        }
    }

    /// This thread's ring for this tracer, creating and registering it on
    /// first use (and pruning cache entries of dropped tracers).
    fn thread_buffer(&self) -> Arc<ThreadBuffer> {
        BUFFERS.with(|cell| {
            let mut cache = cell.borrow_mut();
            if let Some((_, _, buf)) = cache.iter().find(|(id, _, _)| *id == self.inner.id) {
                return Arc::clone(buf);
            }
            cache.retain(|(_, weak, _)| weak.strong_count() > 0);
            let tid = THREAD_ID.with(|t| *t);
            let buf = Arc::new(ThreadBuffer::new(tid, self.inner.capacity));
            self.inner
                .buffers
                .lock()
                .expect("tracer buffer list poisoned")
                .push(Arc::clone(&buf));
            cache.push((self.inner.id, Arc::downgrade(&self.inner), Arc::clone(&buf)));
            buf
        })
    }

    /// Drains a snapshot of every recorded span. Exact once span-emitting
    /// threads have quiesced (which is when experiments export traces);
    /// spans still open at snapshot time are absent — they have not been
    /// recorded yet.
    pub fn snapshot(&self) -> Trace {
        let names = self
            .inner
            .names
            .lock()
            .expect("tracer name table poisoned")
            .clone();
        let buffers = self
            .inner
            .buffers
            .lock()
            .expect("tracer buffer list poisoned")
            .clone();
        let mut records = Vec::new();
        let mut dropped = 0u64;
        for buf in &buffers {
            let head = buf.head.load(Ordering::Acquire);
            let cap = buf.capacity as u64;
            let kept = head.min(cap);
            dropped += head - kept;
            // Oldest retained span first (record order == end order).
            for k in 0..kept {
                let slot = buf.slot(((head - kept + k) % cap) as usize);
                let name_id = slot.name.load(Ordering::Relaxed) as usize;
                records.push(SpanRecord {
                    name: names
                        .get(name_id)
                        .cloned()
                        .unwrap_or_else(|| format!("<span {name_id}>")),
                    tid: buf.tid,
                    start_ns: slot.start.load(Ordering::Relaxed),
                    end_ns: slot.end.load(Ordering::Relaxed),
                });
            }
        }
        Trace { records, dropped }
    }
}

/// RAII guard for one span; records into the owning thread's ring when
/// dropped.
pub struct SpanGuard {
    buffer: Arc<ThreadBuffer>,
    epoch: Instant,
    name: u64,
    start: Instant,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let start_ns = self.start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.buffer.push(self.name, start_ns, end_ns.max(start_ns));
    }
}

/// Starts a span when both the tracer and the pre-resolved id are
/// present — the hot-path companion to hoisting
/// `tracer.map(|t| t.span_id(...))` outside a loop.
#[inline]
pub fn guard(tracer: Option<&Tracer>, id: Option<SpanId>) -> Option<SpanGuard> {
    match (tracer, id) {
        (Some(t), Some(id)) => Some(t.span(id)),
        _ => None,
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The interned span name.
    pub name: String,
    /// Dense thread id of the recording thread.
    pub tid: u64,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer epoch (`end_ns >= start_ns`).
    pub end_ns: u64,
}

impl SpanRecord {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A drained set of spans (see [`Tracer::snapshot`]).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The retained spans, per thread in end order.
    pub records: Vec<SpanRecord>,
    /// Spans lost to ring wrap-around (oldest-first per thread).
    pub dropped: u64,
}

impl Trace {
    /// Renders the trace as Chrome Trace Event Format JSON: one `"B"` /
    /// `"E"` event pair per span, microsecond timestamps, grouped by
    /// `tid`. Loadable in `chrome://tracing` and Perfetto. The same
    /// renderer as [`write_chrome_json`](Self::write_chrome_json).
    pub fn to_chrome_json(&self) -> String {
        let mut out = Vec::new();
        self.write_chrome(&mut out)
            .expect("writing into a Vec cannot fail");
        String::from_utf8(out).expect("the renderer writes UTF-8")
    }

    /// Writes [`Trace::to_chrome_json`] to `path` (creating parent
    /// directories), streaming one event at a time through a buffered
    /// writer: the export holds no rendering of the whole trace.
    pub fn write_chrome_json<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_chrome(&mut out)?;
        out.flush()
    }

    /// Renders the Chrome trace into `out` event by event, with the bytes
    /// of the `Json` tree of the same document (keys in insertion order,
    /// numbers and strings as [`Json`] prints them).
    fn write_chrome(&self, out: &mut impl io::Write) -> io::Result<()> {
        out.write_all(b"{\"traceEvents\":[")?;
        let mut first = true;
        for tid_records in group_by_tid(&self.records) {
            let tid = JsonNum(tid_records[0].tid as f64);
            for_each_thread_event(tid_records, |name, ph, ts_ns| {
                if !first {
                    out.write_all(b",")?;
                }
                first = false;
                write!(
                    out,
                    "{{\"name\":{},\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\"tid\":{tid}}}",
                    JsonStr(name),
                    JsonNum(ts_ns as f64 / 1e3),
                )
            })?;
        }
        write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema_version\":{},\"dropped_spans\":{}}}}}",
            JsonNum(TRACE_SCHEMA_VERSION as f64),
            JsonNum(self.dropped as f64),
        )
    }

    /// Aggregates the trace into a per-span-name [`SelfProfile`].
    pub fn self_profile(&self) -> SelfProfile {
        use std::collections::BTreeMap;
        struct Agg {
            count: u64,
            total_ns: u64,
            exclusive_ns: u64,
            hist: Histogram,
        }
        let mut by_name: BTreeMap<String, Agg> = BTreeMap::new();
        for tid_records in group_by_tid(&self.records) {
            for (span, child_ns) in spans_with_child_time(tid_records) {
                let agg = by_name.entry(span.name.clone()).or_insert_with(|| Agg {
                    count: 0,
                    total_ns: 0,
                    exclusive_ns: 0,
                    hist: Histogram::new(),
                });
                let d = span.duration_ns();
                agg.count += 1;
                agg.total_ns += d;
                agg.exclusive_ns += d.saturating_sub(child_ns);
                agg.hist.observe(d as f64 * 1e-9);
            }
        }
        let mut rows: Vec<ProfileRow> = by_name
            .into_iter()
            .map(|(name, agg)| ProfileRow {
                name,
                count: agg.count,
                total_ns: agg.total_ns,
                mean_ns: agg.total_ns as f64 / agg.count as f64,
                p50_ns: agg.hist.percentile(0.50) * 1e9,
                p95_ns: agg.hist.percentile(0.95) * 1e9,
                p99_ns: agg.hist.percentile(0.99) * 1e9,
                exclusive_ns: agg.exclusive_ns,
            })
            .collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.exclusive_ns));
        SelfProfile { rows }
    }
}

/// Splits records into per-tid runs (records are contiguous by tid in
/// snapshot order; a sort makes this hold for parsed traces too).
fn group_by_tid(records: &[SpanRecord]) -> Vec<Vec<&SpanRecord>> {
    use std::collections::BTreeMap;
    let mut by_tid: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for r in records {
        by_tid.entry(r.tid).or_default().push(r);
    }
    by_tid.into_values().collect()
}

/// Sorts one thread's spans into tree order: start ascending, ties broken
/// by end descending so a parent precedes children it shares a start
/// with. RAII stack discipline guarantees any two spans of one thread are
/// disjoint or nested, so this order walks the forest depth-first.
fn tree_order<'a>(records: &[&'a SpanRecord]) -> Vec<&'a SpanRecord> {
    let mut sorted: Vec<&SpanRecord> = records.to_vec();
    sorted.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(b.end_ns.cmp(&a.end_ns))
            .then(a.name.cmp(&b.name))
    });
    sorted
}

/// Calls `emit(name, ph, ts_ns)` for each of one thread's balanced
/// `B`/`E` Chrome trace events, in tree order.
fn for_each_thread_event(
    records: Vec<&SpanRecord>,
    mut emit: impl FnMut(&str, char, u64) -> io::Result<()>,
) -> io::Result<()> {
    let mut stack: Vec<&SpanRecord> = Vec::new();
    for span in tree_order(&records) {
        while let Some(top) = stack.last() {
            if top.end_ns <= span.start_ns {
                emit(&top.name, 'E', top.end_ns)?;
                stack.pop();
            } else {
                break;
            }
        }
        emit(&span.name, 'B', span.start_ns)?;
        stack.push(span);
    }
    while let Some(top) = stack.pop() {
        emit(&top.name, 'E', top.end_ns)?;
    }
    Ok(())
}

/// Walks one thread's span forest and pairs every span with the summed
/// duration of its *direct* children (for exclusive-time accounting).
fn spans_with_child_time(records: Vec<&SpanRecord>) -> Vec<(&SpanRecord, u64)> {
    let sorted = tree_order(&records);
    let mut out: Vec<(&SpanRecord, u64)> = Vec::with_capacity(sorted.len());
    // Stack of indices into `out`; out[i].1 accumulates direct-child time.
    let mut stack: Vec<usize> = Vec::new();
    for span in sorted {
        while let Some(&top) = stack.last() {
            if out[top].0.end_ns <= span.start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            out[parent].1 += span.duration_ns();
        }
        out.push((span, 0));
        stack.push(out.len() - 1);
    }
    out
}

/// One aggregated row of a [`SelfProfile`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Span name.
    pub name: String,
    /// Number of recorded spans with this name.
    pub count: u64,
    /// Summed wall time, nanoseconds.
    pub total_ns: u64,
    /// Mean wall time, nanoseconds.
    pub mean_ns: f64,
    /// Median wall time, nanoseconds (histogram-interpolated).
    pub p50_ns: f64,
    /// 95th-percentile wall time, nanoseconds.
    pub p95_ns: f64,
    /// 99th-percentile wall time, nanoseconds.
    pub p99_ns: f64,
    /// Wall time not covered by direct child spans, nanoseconds.
    pub exclusive_ns: u64,
}

/// Per-span-name aggregation of a [`Trace`], sorted by exclusive time
/// descending (the profiler's "where does time actually go" order).
#[derive(Debug, Clone, Default)]
pub struct SelfProfile {
    /// Aggregated rows, hottest (by exclusive time) first.
    pub rows: Vec<ProfileRow>,
}

impl SelfProfile {
    /// Renders the profile as CSV.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("span,count,total_ns,mean_ns,p50_ns,p95_ns,p99_ns,exclusive_ns\n");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{:.0},{:.0},{:.0},{:.0},{}",
                r.name,
                r.count,
                r.total_ns,
                r.mean_ns,
                r.p50_ns,
                r.p95_ns,
                r.p99_ns,
                r.exclusive_ns
            );
        }
        out
    }

    /// Writes [`SelfProfile::to_csv`] to `path` (creating parent
    /// directories).
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_csv())
    }

    /// Renders the profile as an aligned console table (times in ms).
    pub fn to_console(&self) -> String {
        let ms = |ns: f64| format!("{:.3}", ns / 1e6);
        let mut rows: Vec<[String; 8]> = vec![[
            "span".to_string(),
            "count".to_string(),
            "total_ms".to_string(),
            "mean_ms".to_string(),
            "p50_ms".to_string(),
            "p95_ms".to_string(),
            "p99_ms".to_string(),
            "excl_ms".to_string(),
        ]];
        for r in &self.rows {
            rows.push([
                r.name.clone(),
                r.count.to_string(),
                ms(r.total_ns as f64),
                ms(r.mean_ns),
                ms(r.p50_ns),
                ms(r.p95_ns),
                ms(r.p99_ns),
                ms(r.exclusive_ns as f64),
            ]);
        }
        let widths: Vec<usize> = (0..8)
            .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for r in &rows {
            for (c, cell) in r.iter().enumerate() {
                if c == 0 {
                    let _ = write!(out, "{cell:<width$}", width = widths[0]);
                } else {
                    let _ = write!(out, "  {cell:>width$}", width = widths[c]);
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Structural statistics of a validated Chrome trace (what
/// `telemetry_lint` reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of complete `B`/`E` span pairs.
    pub spans: usize,
    /// Number of distinct `tid`s.
    pub threads: usize,
}

/// Parses Chrome Trace Event Format JSON back into [`SpanRecord`]s,
/// validating structure along the way: every event needs `name` / `ph` /
/// `ts` / `tid`, per-`tid` timestamps must be monotone non-decreasing,
/// and `B`/`E` events must balance with matching names (stack
/// discipline). Non-duration events (`ph` other than `B`/`E`) are
/// ignored.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<SpanRecord>, String> {
    use std::collections::BTreeMap;
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        _ => return Err("top-level object lacks a traceEvents array".to_string()),
    };
    let mut records = Vec::new();
    // Per-tid: (last ts seen, open-span stack of (name, start_ns)).
    let mut threads: BTreeMap<i64, (f64, Vec<(String, u64)>)> = BTreeMap::new();
    for (k, ev) in events.iter().enumerate() {
        let field = |key: &str| ev.get(key).ok_or(format!("event {k} lacks {key:?}"));
        let name = field("name")?
            .as_str()
            .ok_or(format!("event {k}: name is not a string"))?;
        let ph = field("ph")?
            .as_str()
            .ok_or(format!("event {k}: ph is not a string"))?;
        let ts = field("ts")?
            .as_f64()
            .ok_or(format!("event {k}: ts is not a number"))?;
        let tid = field("tid")?
            .as_i64()
            .ok_or(format!("event {k}: tid is not an integer"))?;
        let (last_ts, stack) = threads
            .entry(tid)
            .or_insert((f64::NEG_INFINITY, Vec::new()));
        if ts < *last_ts {
            return Err(format!(
                "event {k}: ts {ts} goes backwards on tid {tid} (previous {last_ts})"
            ));
        }
        *last_ts = ts;
        let ts_ns = (ts * 1e3).round() as u64;
        match ph {
            "B" => stack.push((name.to_string(), ts_ns)),
            "E" => {
                let (open_name, start_ns) = stack
                    .pop()
                    .ok_or(format!("event {k}: E with no open span on tid {tid}"))?;
                if open_name != name {
                    return Err(format!(
                        "event {k}: E for {name:?} but innermost open span on tid {tid} \
                         is {open_name:?}"
                    ));
                }
                records.push(SpanRecord {
                    name: open_name,
                    tid: tid as u64,
                    start_ns,
                    end_ns: ts_ns,
                });
            }
            _ => {}
        }
    }
    for (tid, (_, stack)) in &threads {
        if let Some((name, _)) = stack.last() {
            return Err(format!("tid {tid}: span {name:?} is never closed"));
        }
    }
    Ok(records)
}

/// Validates a Chrome trace document (see [`parse_chrome_trace`] for the
/// rules) and returns its [`TraceStats`].
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let records = parse_chrome_trace(text)?;
    let mut tids: Vec<u64> = records.iter().map(|r| r.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    Ok(TraceStats {
        spans: records.len(),
        threads: tids.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, tid: u64, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            tid,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn guards_record_nested_spans() {
        let tracer = Tracer::new();
        let outer = tracer.span_id("outer");
        let inner = tracer.span_id("inner");
        assert_eq!(tracer.span_id("outer"), outer, "names intern to one id");
        {
            let _o = tracer.span(outer);
            for _ in 0..3 {
                let _i = tracer.span(inner);
            }
        }
        let trace = tracer.snapshot();
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.records.len(), 4);
        let o = trace.records.iter().find(|r| r.name == "outer").unwrap();
        for i in trace.records.iter().filter(|r| r.name == "inner") {
            assert!(i.start_ns >= o.start_ns && i.end_ns <= o.end_ns);
        }
    }

    #[test]
    fn ring_wrap_drops_oldest_and_counts() {
        let tracer = Tracer::with_capacity(4);
        let id = tracer.span_id("s");
        for _ in 0..10 {
            let _g = tracer.span(id);
        }
        let trace = tracer.snapshot();
        assert_eq!(trace.records.len(), 4);
        assert_eq!(trace.dropped, 6);
    }

    /// A ring bigger than one chunk wraps across chunk boundaries, and
    /// keeps the newest `capacity` spans, oldest first.
    #[test]
    fn chunked_ring_wraps_across_chunks_in_order() {
        let capacity = 2 * CHUNK_SLOTS + 100;
        let tracer = Tracer::with_capacity(capacity);
        let ids: Vec<SpanId> = (0..7).map(|k| tracer.span_id(&format!("s{k}"))).collect();
        let total = 2 * capacity + 37;
        for k in 0..total {
            let _g = tracer.span(ids[k % ids.len()]);
        }
        let trace = tracer.snapshot();
        assert_eq!(trace.records.len(), capacity);
        assert_eq!(trace.dropped as usize, total - capacity);
        for (r, k) in trace.records.iter().zip(total - capacity..) {
            assert_eq!(r.name, format!("s{}", k % ids.len()));
        }
        assert!(trace.records.windows(2).all(|w| w[0].end_ns <= w[1].end_ns));
    }

    #[test]
    fn snapshot_sees_spans_from_every_thread() {
        let tracer = Tracer::new();
        let id = tracer.span_id("worker");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    let _g = tracer.span(id);
                });
            }
        });
        let trace = tracer.snapshot();
        assert_eq!(trace.records.len(), 4);
        let mut tids: Vec<u64> = trace.records.iter().map(|r| r.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4, "each thread has its own tid");
        assert!(validate_chrome_trace(&trace.to_chrome_json()).is_ok());
    }

    #[test]
    fn chrome_json_round_trips_and_balances() {
        let trace = Trace {
            records: vec![
                rec("a", 1, 0, 10_000),
                rec("b", 1, 1_000, 4_000),
                rec("b", 1, 5_000, 9_000),
                rec("c", 2, 2_000, 3_000),
            ],
            dropped: 0,
        };
        let json = trace.to_chrome_json();
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(
            stats,
            TraceStats {
                spans: 4,
                threads: 2
            }
        );
        let mut back = parse_chrome_trace(&json).unwrap();
        back.sort_by_key(|r| (r.tid, r.start_ns));
        let mut want = trace.records.clone();
        want.sort_by_key(|r| (r.tid, r.start_ns));
        assert_eq!(back, want);
    }

    /// The Chrome trace as a `Json` tree of owned strings, rendered
    /// whole: the reference the streamed export must equal byte for byte.
    fn tree_rendering(trace: &Trace) -> String {
        let mut events = Vec::new();
        for records in group_by_tid(&trace.records) {
            let tid = records[0].tid;
            let event = |name: &str, ph: &str, ts_ns: u64| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(name.to_string())),
                    ("ph".to_string(), Json::Str(ph.to_string())),
                    ("ts".to_string(), Json::Num(ts_ns as f64 / 1e3)),
                    ("pid".to_string(), Json::Num(1.0)),
                    ("tid".to_string(), Json::Num(tid as f64)),
                ])
            };
            let mut stack: Vec<&SpanRecord> = Vec::new();
            for span in tree_order(&records) {
                while let Some(top) = stack.last() {
                    if top.end_ns <= span.start_ns {
                        events.push(event(&top.name, "E", top.end_ns));
                        stack.pop();
                    } else {
                        break;
                    }
                }
                events.push(event(&span.name, "B", span.start_ns));
                stack.push(span);
            }
            while let Some(top) = stack.pop() {
                events.push(event(&top.name, "E", top.end_ns));
            }
        }
        Json::Obj(vec![
            ("traceEvents".to_string(), Json::Arr(events)),
            ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
            (
                "otherData".to_string(),
                Json::Obj(vec![
                    (
                        "schema_version".to_string(),
                        Json::Num(TRACE_SCHEMA_VERSION as f64),
                    ),
                    ("dropped_spans".to_string(), Json::Num(trace.dropped as f64)),
                ]),
            ),
        ])
        .to_string()
    }

    #[test]
    fn streamed_export_matches_the_tree_rendering() {
        let trace = Trace {
            records: vec![
                rec("outer \"quoted\"", 3, 1_500, 90_001),
                rec("back\\slash/tab\there", 3, 1_500, 20_000),
                rec("line\nbreak\r\u{1}", 3, 20_000, 20_000),
                rec("ünïcødé → µs", 0, 7, 12_345_678_901),
                rec("a", 0, 9, 10),
                rec("b", 0, 9, 10),
                rec("late", 11, 9_007_199_254_740_993, 9_007_199_254_740_999),
            ],
            dropped: 4_242,
        };
        let want = tree_rendering(&trace);
        assert_eq!(trace.to_chrome_json(), want);
        assert!(validate_chrome_trace(&want).is_ok());
        let empty = Trace::default();
        assert_eq!(empty.to_chrome_json(), tree_rendering(&empty));

        let dir = std::env::temp_dir().join("rayfade-telemetry-tests");
        let path = dir.join(format!("streamed-{}.trace.json", std::process::id()));
        trace.write_chrome_json(&path).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(written, want);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("nonsense").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        let unbalanced = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(unbalanced)
            .unwrap_err()
            .contains("never closed"));
        let mismatched = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
            {"name":"b","ph":"E","ts":2,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(mismatched)
            .unwrap_err()
            .contains("innermost open span"));
        let backwards = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":5,"pid":1,"tid":1},
            {"name":"a","ph":"E","ts":4,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(backwards)
            .unwrap_err()
            .contains("goes backwards"));
        let orphan_end = r#"{"traceEvents":[
            {"name":"a","ph":"E","ts":1,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(orphan_end)
            .unwrap_err()
            .contains("no open span"));
    }

    #[test]
    fn self_profile_computes_exclusive_time() {
        let trace = Trace {
            // outer [0,10µs] with two direct children b [1,4] and b [5,9]
            // (the second b has its own child c [6,7], which must not
            // count against outer).
            records: vec![
                rec("outer", 1, 0, 10_000),
                rec("b", 1, 1_000, 4_000),
                rec("b", 1, 5_000, 9_000),
                rec("c", 1, 6_000, 7_000),
            ],
            dropped: 0,
        };
        let profile = trace.self_profile();
        let row = |name: &str| profile.rows.iter().find(|r| r.name == name).unwrap();
        assert_eq!(row("outer").count, 1);
        assert_eq!(row("outer").total_ns, 10_000);
        assert_eq!(row("outer").exclusive_ns, 10_000 - 3_000 - 4_000);
        assert_eq!(row("b").count, 2);
        assert_eq!(row("b").total_ns, 7_000);
        assert_eq!(row("b").exclusive_ns, 7_000 - 1_000);
        assert_eq!(row("c").exclusive_ns, 1_000);
        assert!((row("b").mean_ns - 3_500.0).abs() < 1e-9);
        let csv = profile.to_csv();
        assert!(csv.starts_with("span,count,total_ns,"));
        assert!(csv.contains("outer,1,10000,"));
        let console = profile.to_console();
        assert!(console.contains("span"));
        assert!(console.contains("outer"));
    }

    #[test]
    fn guard_helper_requires_both_halves() {
        let tracer = Tracer::new();
        let id = tracer.span_id("g");
        assert!(guard(None, Some(id)).is_none());
        assert!(guard(Some(&tracer), None).is_none());
        drop(guard(Some(&tracer), Some(id)));
        assert_eq!(tracer.snapshot().records.len(), 1);
    }

    #[test]
    fn identical_start_times_nest_by_end() {
        let trace = Trace {
            records: vec![rec("parent", 1, 100, 500), rec("child", 1, 100, 300)],
            dropped: 0,
        };
        let json = trace.to_chrome_json();
        assert!(validate_chrome_trace(&json).is_ok());
        let profile = trace.self_profile();
        let parent = profile.rows.iter().find(|r| r.name == "parent").unwrap();
        assert_eq!(parent.exclusive_ns, 200);
    }
}
