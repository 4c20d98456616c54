//! Spans: the one event vocabulary of the stack.
//!
//! A [`Span`] is one recorded hop: its stage, parent id, start/end on the
//! ring's real clock, the request-count virtual clock, and two
//! stage-specific arguments. Two kinds share the vocabulary and the ring:
//!
//! - **Request spans** (`req != 0`). A request id is minted once per
//!   client command — at NBD decode in the serving plane, or at
//!   `SharedVolume` entry for direct callers — and carried through every
//!   hop the request touches: scheduler dispatch, read-plane
//!   single-flight, wlog append, flush, trim. They are recorded only
//!   while tracing is enabled, into lock-sharded buffers, so hot paths on
//!   different threads never contend on one mutex.
//! - **Lifecycle edges** ([`SpanRing::edge`]): batch seal, PUT start /
//!   done / retry / abort, frontier advance, checkpoint, GC pass and
//!   relocation, degraded enter / exit, trim, connection open / close.
//!   They are recorded whether or not tracing is on, into one ordered
//!   buffer with its own counters, and each gets a 0-based ordinal: the
//!   volume's edge hook (the model checker's crash controller) sees every
//!   edge with it. Edges are pipeline-scoped (`req == 0`), except a traced
//!   trim, whose request span is also its edge.
//!
//! Requests and the pipeline are joined by data, not by parent pointers:
//! a wlog-append span records the cache sequence it appended (`arg_a`),
//! and a seal edge records the object sequence (`arg_a`) plus the last
//! cache sequence it covers (`arg_b`), so `wlog.arg_a <= seal.arg_b` finds
//! the object that made a write durable; the object sequence then links
//! seal → PUT → frontier advance.
//!
//! [`SpanRing::to_chrome_trace`] renders the ring as Chrome
//! `trace_event` JSON (`ph: "X"` complete events) loadable in
//! `about:tracing` or Perfetto: request spans share `pid 1` with
//! `tid = req` (one connected track per request), edges share `pid 2`
//! with `tid = arg_a` (the object sequence for pipeline edges).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Capacity of a ring's lifecycle-edge buffer: a full chaos sweep's
/// seal/PUT/frontier history fits without drops.
pub const EDGE_CAPACITY: usize = 4096;

/// The hop a [`Span`] measures. Request stages carry a request id;
/// lifecycle edges (from [`Stage::BatchSeal`] on, plus a traced
/// [`Stage::Trim`]) are recorded by [`SpanRing::edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// NBD command decode (header + payload off the socket).
    /// `arg_a` = NBD command code, `arg_b` = payload/range length.
    Decode,
    /// Scheduler dispatch: dequeue from a lane through volume completion.
    /// `arg_a` = NBD error, `arg_b` = connection id.
    Dispatch,
    /// A read served by the read plane. `arg_a` = first LBA,
    /// `arg_b` = bytes.
    Read,
    /// Single-flight miss fetch, leader side. `arg_a` = object seq.
    FetchLead,
    /// Single-flight miss fetch, waiter side. `arg_a` = object seq,
    /// `arg_b` = the leader's span id (which fetch this waiter joined).
    FetchJoin,
    /// Write-log append. `arg_a` = cache sequence appended,
    /// `arg_b` = bytes.
    WlogAppend,
    /// Client flush (write-log commit barrier).
    Flush,
    /// Edge: a discard punched the map. `arg_a` = first LBA,
    /// `arg_b` = sectors.
    Trim,
    /// Edge: a write-log batch was sealed into an immutable object image.
    /// `arg_a` = object seq, `arg_b` = last cache sequence covered.
    BatchSeal,
    /// Edge: a PUT was handed to the writeback pool. `arg_a` = object seq.
    PutStart,
    /// Edge: a PUT completed successfully. `arg_a` = object seq.
    PutDone,
    /// Edge: a PUT failed transiently and was requeued.
    /// `arg_a` = object seq.
    PutRetry,
    /// Edge: a PUT failed permanently. `arg_a` = object seq.
    PutAbort,
    /// Edge: the durable frontier advanced through an object (every
    /// object at or below it is durable). `arg_a` = object seq.
    FrontierAdvance,
    /// Edge: a checkpoint was written. `arg_a` = last object seq covered,
    /// `arg_b` = objects sealed but not yet applied (queued, in flight or
    /// landed behind a gap), which it does not cover.
    Checkpoint,
    /// Edge: a garbage-collection pass completed.
    /// `arg_a` = backend objects collected.
    GcPass,
    /// Edge: the cleaner sealed a relocation carrier, mid-pass (the
    /// frontier has not passed it yet). `arg_a` = object seq,
    /// `arg_b` = object bytes.
    GcRelocate,
    /// Edge: the volume entered degraded (backpressure) mode.
    DegradedEnter,
    /// Edge: the volume left degraded mode.
    DegradedExit,
    /// Edge: a serving-plane connection finished its handshake.
    /// `arg_a` = connection id.
    ConnOpen,
    /// Edge: a serving-plane connection closed. `arg_a` = connection id.
    ConnClose,
}

impl Stage {
    /// Every stage, in declaration order.
    pub const ALL: [Stage; 21] = [
        Stage::Decode,
        Stage::Dispatch,
        Stage::Read,
        Stage::FetchLead,
        Stage::FetchJoin,
        Stage::WlogAppend,
        Stage::Flush,
        Stage::Trim,
        Stage::BatchSeal,
        Stage::PutStart,
        Stage::PutDone,
        Stage::PutRetry,
        Stage::PutAbort,
        Stage::FrontierAdvance,
        Stage::Checkpoint,
        Stage::GcPass,
        Stage::GcRelocate,
        Stage::DegradedEnter,
        Stage::DegradedExit,
        Stage::ConnOpen,
        Stage::ConnClose,
    ];

    /// Stable lower-case name used in exports and the blackbox format.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Dispatch => "dispatch",
            Stage::Read => "read",
            Stage::FetchLead => "fetch_lead",
            Stage::FetchJoin => "fetch_join",
            Stage::WlogAppend => "wlog_append",
            Stage::Flush => "flush",
            Stage::Trim => "trim",
            Stage::BatchSeal => "batch_seal",
            Stage::PutStart => "put_start",
            Stage::PutDone => "put_done",
            Stage::PutRetry => "put_retry",
            Stage::PutAbort => "put_abort",
            Stage::FrontierAdvance => "frontier_advance",
            Stage::Checkpoint => "checkpoint",
            Stage::GcPass => "gc_pass",
            Stage::GcRelocate => "gc_relocate",
            Stage::DegradedEnter => "degraded_enter",
            Stage::DegradedExit => "degraded_exit",
            Stage::ConnOpen => "conn_open",
            Stage::ConnClose => "conn_close",
        }
    }

    /// Parses the name emitted by [`Stage::name`].
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|stage| stage.name() == s)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded hop of one request, or one lifecycle edge when
/// `req == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Ring-unique span id (never 0).
    pub id: u64,
    /// Parent span id within the same request, or 0 for a root span.
    pub parent: u64,
    /// The request this span serves, or 0 for pipeline-scoped edges.
    pub req: u64,
    /// Which hop this is.
    pub stage: Stage,
    /// Microseconds since the ring was created, at span start.
    pub t_start_us: u64,
    /// Microseconds since the ring was created, at span end.
    pub t_end_us: u64,
    /// Virtual clock (requests minted so far) when the span *began* —
    /// begin-time, so the clock is monotone along a parent/child chain
    /// (a parent ends after its children; it never begins after them).
    pub virt: u64,
    /// Stage-specific argument (see [`Stage`] docs).
    pub arg_a: u64,
    /// Stage-specific argument (see [`Stage`] docs).
    pub arg_b: u64,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "span#{:06} req={:<5} parent={:<6} {:>16} [{:>10}us..{:>10}us] v={:<6} a={} b={}",
            self.id,
            self.req,
            self.parent,
            self.stage.name(),
            self.t_start_us,
            self.t_end_us,
            self.virt,
            self.arg_a,
            self.arg_b,
        )
    }
}

/// An open span: the start-side half captured by [`SpanRing::begin`],
/// closed (and recorded) by [`SpanRing::finish`] or, for a traced trim,
/// by [`SpanRing::edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenSpan {
    /// The span id the finished record will carry.
    pub id: u64,
    /// Parent span id.
    pub parent: u64,
    /// Owning request id.
    pub req: u64,
    /// Which hop this is.
    pub stage: Stage,
    /// Microseconds since the ring was created, at [`SpanRing::begin`].
    pub t_start_us: u64,
    /// Virtual clock at [`SpanRing::begin`].
    pub virt: u64,
}

impl OpenSpan {
    fn close(self, t_end_us: u64, arg_a: u64, arg_b: u64) -> Span {
        Span {
            id: self.id,
            parent: self.parent,
            req: self.req,
            stage: self.stage,
            t_start_us: self.t_start_us,
            t_end_us,
            virt: self.virt,
            arg_a,
            arg_b,
        }
    }
}

/// The lifecycle-edge buffer and its counters.
#[derive(Default)]
struct Edges {
    buf: VecDeque<Span>,
    recorded: u64,
    dropped: u64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("span ring lock poisoned")
}

/// Appends `span`, evicting the oldest entry when `buf` holds `cap`;
/// returns whether one was evicted.
fn push_bounded(buf: &mut VecDeque<Span>, cap: usize, span: Span) -> bool {
    let evict = buf.len() == cap;
    if evict {
        buf.pop_front();
    }
    buf.push_back(span);
    evict
}

/// A volume's one span ring: lock-sharded request spans plus the
/// lifecycle-edge buffer.
///
/// Recording a request span takes exactly one shard mutex (chosen by span
/// id), so concurrent NBD workers, the dispatcher and the read plane never
/// serialize on the ring. Recording an edge takes the edge buffer's
/// mutex. When a buffer is full its oldest span is dropped and counted.
pub struct SpanRing {
    shards: Vec<Mutex<VecDeque<Span>>>,
    shard_cap: usize,
    edges: Mutex<Edges>,
    start: Instant,
    next_id: AtomicU64,
    next_req: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
    enabled: AtomicBool,
}

impl fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanRing")
            .field("shards", &self.shards.len())
            .field("shard_cap", &self.shard_cap)
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .field("edges", &self.edges_recorded())
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl SpanRing {
    /// Creates a ring of `shards` shards holding at most `capacity`
    /// request spans in total (each shard gets `capacity / shards`,
    /// minimum 1), plus [`EDGE_CAPACITY`] lifecycle edges.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let shard_cap = (capacity / shards).max(1);
        SpanRing {
            shards: (0..shards)
                .map(|_| Mutex::new(VecDeque::with_capacity(shard_cap)))
                .collect(),
            shard_cap,
            edges: Mutex::default(),
            start: Instant::now(),
            next_id: AtomicU64::new(1),
            next_req: AtomicU64::new(1),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            // Off by default: request tracing is opt-in (CLI flags, tests,
            // benches), and a disabled ring costs one relaxed load per
            // instrumentation site.
            enabled: AtomicBool::new(false),
        }
    }

    /// Whether request spans are being recorded. Checked (one relaxed
    /// load) at the top of every instrumentation site, so disabling
    /// tracing reduces it to a branch. Edges ignore it.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns request tracing on or off. Already-buffered spans are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Mints a fresh request id (never 0) and advances the virtual
    /// clock. Returns 0 when tracing is disabled, which every downstream
    /// site treats as "don't record".
    pub fn mint_request(&self) -> u64 {
        if !self.enabled() {
            return 0;
        }
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    /// Current virtual clock: requests minted so far.
    pub fn virt(&self) -> u64 {
        self.next_req.load(Ordering::Relaxed).saturating_sub(1)
    }

    /// Microseconds of wall-clock time since the ring was created.
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Opens a request span at the current clock. Returns `None` when
    /// tracing is disabled.
    pub fn begin(&self, req: u64, parent: u64, stage: Stage) -> Option<OpenSpan> {
        if !self.enabled() {
            return None;
        }
        Some(OpenSpan {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            req,
            stage,
            t_start_us: self.now_us(),
            virt: self.virt(),
        })
    }

    /// Closes `open` at the current clock and records it into its shard.
    /// Returns the span id (usable as a parent for child hops).
    pub fn finish(&self, open: OpenSpan, arg_a: u64, arg_b: u64) -> u64 {
        let span = open.close(self.now_us(), arg_a, arg_b);
        let shard = &self.shards[(span.id as usize) % self.shards.len()];
        if push_bounded(&mut lock(shard), self.shard_cap, span) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        open.id
    }

    /// Records a lifecycle edge, whether or not tracing is on, and
    /// returns its 0-based ordinal with the recorded span. A traced hop
    /// that is itself an edge (a trim) passes its open span, so one
    /// record is both; otherwise the edge is instantaneous and
    /// pipeline-scoped. Ordinals count edges only; span ids are shared
    /// with request spans.
    pub fn edge(
        &self,
        open: Option<OpenSpan>,
        stage: Stage,
        arg_a: u64,
        arg_b: u64,
    ) -> (u64, Span) {
        let mut edges = lock(&self.edges);
        let now = self.now_us();
        let span = match open {
            Some(open) => Span {
                stage,
                ..open.close(now, arg_a, arg_b)
            },
            None => Span {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent: 0,
                req: 0,
                stage,
                t_start_us: now,
                t_end_us: now,
                virt: self.virt(),
                arg_a,
                arg_b,
            },
        };
        let ordinal = edges.recorded;
        edges.recorded += 1;
        if push_bounded(&mut edges.buf, EDGE_CAPACITY, span) {
            edges.dropped += 1;
        }
        (ordinal, span)
    }

    /// All buffered spans, edges included, ordered by start time (ties
    /// broken by id). Does not consume the ring.
    pub fn snapshot(&self) -> Vec<Span> {
        self.gather(|buf, out| out.extend(buf.iter().copied()))
    }

    /// Removes and returns all buffered spans, ordered as
    /// [`SpanRing::snapshot`]. Counters and ordinals keep counting.
    pub fn drain(&self) -> Vec<Span> {
        self.gather(|buf, out| out.extend(buf.drain(..)))
    }

    fn gather(&self, take: impl Fn(&mut VecDeque<Span>, &mut Vec<Span>)) -> Vec<Span> {
        let mut out = Vec::new();
        take(&mut lock(&self.edges).buf, &mut out);
        for shard in &self.shards {
            take(&mut lock(shard), &mut out);
        }
        out.sort_by_key(|s| (s.t_start_us, s.id));
        out
    }

    /// Total request spans ever recorded (buffered + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Request spans evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Request-span capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shard_cap * self.shards.len()
    }

    /// Total lifecycle edges ever recorded (buffered + dropped): the
    /// next edge's ordinal.
    pub fn edges_recorded(&self) -> u64 {
        lock(&self.edges).recorded
    }

    /// Lifecycle edges evicted to make room.
    pub fn edges_dropped(&self) -> u64 {
        lock(&self.edges).dropped
    }

    /// Renders the newest `limit` spans (0 = all buffered) as Chrome
    /// `trace_event` JSON: one `ph: "X"` complete event per span, request
    /// tracks on pid 1 (`tid = req`), edges on pid 2 (`tid = arg_a`).
    /// Loadable in `about:tracing` and Perfetto.
    pub fn to_chrome_trace(&self, limit: usize) -> String {
        let mut spans = self.snapshot();
        if limit > 0 && spans.len() > limit {
            let cut = spans.len() - limit;
            spans.drain(..cut);
        }
        let mut out = String::with_capacity(256 + spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
             \"args\":{\"name\":\"requests\"}},",
        );
        out.push_str(
            "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\
             \"args\":{\"name\":\"writeback pipeline\"}}",
        );
        for s in &spans {
            let (pid, tid) = if s.req != 0 { (1, s.req) } else { (2, s.arg_a) };
            // Perfetto rejects zero-duration complete events from some
            // importers; clamp to 1us so instants stay visible.
            let dur = (s.t_end_us - s.t_start_us).max(1);
            use std::fmt::Write as _;
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"lsvd\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"req\":{},\
                 \"virt\":{},\"a\":{},\"b\":{}}}}}",
                s.stage.name(),
                s.t_start_us,
                dur,
                pid,
                tid,
                s.id,
                s.parent,
                s.req,
                s.virt,
                s.arg_a,
                s.arg_b,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn begin_finish_records_ordered_spans() {
        let ring = SpanRing::new(64, 4);
        ring.set_enabled(true);
        let req = ring.mint_request();
        assert_ne!(req, 0);
        let root = ring.begin(req, 0, Stage::Decode).unwrap();
        let root_id = ring.finish(root, 1, 4096);
        let child = ring.begin(req, root_id, Stage::Dispatch).unwrap();
        ring.finish(child, 0, 7);
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, Stage::Decode);
        assert_eq!(spans[1].parent, root_id);
        assert!(spans.iter().all(|s| s.t_end_us >= s.t_start_us));
        assert_eq!(ring.recorded(), 2);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn disabled_ring_records_nothing_and_mints_zero() {
        let ring = SpanRing::new(64, 4);
        assert!(!ring.enabled(), "rings start disabled");
        assert_eq!(ring.mint_request(), 0);
        assert!(ring.begin(1, 0, Stage::Read).is_none());
        assert!(ring.snapshot().is_empty());
        ring.set_enabled(true);
        assert_ne!(ring.mint_request(), 0);
    }

    #[test]
    fn full_shards_drop_oldest_and_count() {
        let ring = SpanRing::new(8, 2); // 4 per shard
        ring.set_enabled(true);
        for _ in 0..20 {
            let open = ring.begin(1, 0, Stage::Read).unwrap();
            ring.finish(open, 1, 0);
        }
        assert_eq!(ring.snapshot().len(), 8);
        assert_eq!(ring.dropped(), 12);
        assert_eq!(ring.recorded(), 20);
        assert_eq!(ring.capacity(), 8);
    }

    #[test]
    fn edge_ordinals_are_monotonic_and_order_preserved() {
        // Tracing stays off: edges record regardless, and are not
        // request spans.
        let ring = SpanRing::new(64, 4);
        for seq in 0..5u64 {
            let (ordinal, span) = ring.edge(None, Stage::PutStart, seq, 0);
            assert_eq!(ordinal, seq);
            assert_eq!((span.req, span.t_start_us), (0, span.t_end_us));
        }
        let spans = ring.drain();
        assert_eq!(spans.len(), 5);
        for (i, s) in spans.iter().enumerate() {
            assert_eq!((s.stage, s.arg_a), (Stage::PutStart, i as u64));
        }
        assert!(spans.windows(2).all(|w| w[0].id < w[1].id));
        assert!(ring.snapshot().is_empty());
        assert_eq!((ring.edges_recorded(), ring.recorded()), (5, 0));
        assert_eq!(ring.edge(None, Stage::DegradedEnter, 0, 0).0, 5);
    }

    #[test]
    fn full_edge_buffer_drops_oldest_and_counts_every_ordinal() {
        let ring = SpanRing::new(64, 4);
        let total = EDGE_CAPACITY as u64 + 7;
        let ordinals: Vec<u64> = (0..total)
            .map(|seq| ring.edge(None, Stage::PutDone, seq, 0).0)
            .collect();
        // Every edge got its ordinal, even those the buffer dropped.
        assert_eq!(ordinals, (0..total).collect::<Vec<_>>());
        assert_eq!(ring.edges_recorded(), total);
        assert_eq!(ring.edges_dropped(), 7);
        let spans = ring.snapshot();
        assert_eq!(spans.len(), EDGE_CAPACITY);
        assert_eq!(spans[0].arg_a, 7);
        assert_eq!(spans[EDGE_CAPACITY - 1].arg_a, total - 1);
    }

    #[test]
    fn a_traced_edge_is_its_request_span() {
        let ring = SpanRing::new(64, 4);
        ring.set_enabled(true);
        let req = ring.mint_request();
        let open = ring.begin(req, 9, Stage::Trim).unwrap();
        let (ordinal, span) = ring.edge(Some(open), Stage::Trim, 16, 8);
        assert_eq!(ordinal, 0);
        assert_eq!((span.id, span.req, span.parent), (open.id, req, 9));
        assert_eq!(ring.snapshot(), vec![span]);
        assert_eq!(ring.recorded(), 0, "edges are not request spans");
    }

    #[test]
    fn concurrent_recorders_do_not_lose_spans_under_capacity() {
        let ring = Arc::new(SpanRing::new(4096, 8));
        ring.set_enabled(true);
        let mut joins = Vec::new();
        for _ in 0..8 {
            let r = ring.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..64 {
                    let req = r.mint_request();
                    let open = r.begin(req, 0, Stage::Read).unwrap();
                    r.finish(open, 0, 4096);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(ring.recorded(), 8 * 64);
        assert_eq!(ring.dropped(), 0);
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 8 * 64);
        // Ids are unique even under contention.
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8 * 64);
    }

    #[test]
    fn chrome_trace_is_well_formed_and_respects_limit() {
        let ring = SpanRing::new(64, 4);
        ring.set_enabled(true);
        let req = ring.mint_request();
        let open = ring.begin(req, 0, Stage::Decode).unwrap();
        let id = ring.finish(open, 1, 512);
        let open = ring.begin(req, id, Stage::WlogAppend).unwrap();
        ring.finish(open, 7, 512);
        ring.edge(None, Stage::BatchSeal, 3, 7);
        let json = crate::json::Json::parse(&ring.to_chrome_trace(0)).expect("parse");
        let events = json.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        // 2 metadata + 3 spans.
        assert_eq!(events.len(), 5);
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 3);
        for e in &xs {
            assert!(e.get("ts").is_some() && e.get("dur").is_some());
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
        }
        // Pipeline edge rides pid 2 with tid = object seq.
        let seal = xs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("batch_seal"))
            .unwrap();
        assert_eq!(seal.get("pid").and_then(|p| p.as_u64()), Some(2));
        assert_eq!(seal.get("tid").and_then(|t| t.as_u64()), Some(3));

        let limited = ring.to_chrome_trace(1);
        let json = crate::json::Json::parse(&limited).expect("parse");
        let events = json.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 3, "2 metadata + 1 span");
    }

    #[test]
    fn stage_names_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::parse(stage.name()), Some(stage));
        }
        assert_eq!(Stage::parse("nope"), None);
    }
}
