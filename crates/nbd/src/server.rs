//! The NBD server: a shared poll-based reactor, a worker pool and fetch
//! threads, serving every export in an [`ExportRegistry`].
//!
//! ## Threading model
//!
//! One **reactor** thread ([`crate::reactor`]) owns the listener, every
//! connection socket (nonblocking), the fixed-newstyle handshake state
//! machines and request framing — a thousand connections cost a
//! thousand small buffers, not three thousand threads. Decoded requests
//! become jobs for the [`FleetScheduler`](crate::sched): per-export
//! two-lane queues (ordered mutations / concurrent reads) drained by a
//! fixed pool of 4 + 1 **workers** under deficit-round-robin fairness.
//!
//! **The thread that reads a request finishes it** whenever finishing
//! needs only memory and the cache device, and the scheduler would
//! dispatch it right now (its lane free and empty, its deficit charged
//! exactly as a worker's pick charges it). That covers a READ's local
//! phase and a WRITE without FUA that the volume confirms stays in the
//! cache log ([`SharedVolume::write_if_local`]): no seal, no cleaning
//! step, no PUT — each of at most 1 MiB. FLUSH, TRIM, FUA
//! writes, the rare write that would seal, clean or ship, larger
//! requests, and jobs behind a busy lane go to the workers, so the
//! reactor never waits on the backend or on a device flush.
//!
//! A read runs in two phases. Its *local* phase (cache hits, holes) runs
//! on the reactor or a worker; when pieces remain on the backend, the
//! [`PendingRead`] goes to a **fetch thread**, which waits for the GETs.
//! So a miss never holds the reactor or a worker: hits, writes and other
//! tenants keep flowing while GETs are outstanding. Fetch threads are
//! parked and reused, up to `FETCH_THREADS` of them; past that, misses
//! queue for the next free one.
//!
//! A FLUSH takes the cache log's position (one atomic load) in lane
//! order — a FUA write or trim right after its volume call — and frees
//! the ordered lane. Its worker then waits until a device flush that
//! started after that position was published completes
//! ([`SharedVolume::flush_to`]), and replies. So writes behind a FLUSH
//! keep appending while it waits, and concurrent FLUSHes share device
//! flushes. A flush never queues behind a GET.
//!
//! **Whichever thread finishes a request writes its reply** — header and
//! payload in one `writev` on the connection's shared
//! `ConnIo` — and wakes the reactor only when
//! the socket would block, the reply frees a full window, or a draining
//! connection's last reply is out. A job is closed (export in-flight
//! count, queue wait, service latency, dispatch span, EIO black-box dump)
//! when its reply is written, not when its worker returns.
//!
//! Ordering: each export's mutations are dispatched one at a time in
//! arrival order (the `ordered_active` latch), on the reactor or on a
//! worker, so per-export acknowledgement order equals cache-log order —
//! the exported disk stays prefix-consistent through a crash. The lane
//! is released as soon as the volume call returns, before the reply is
//! written; for a FLUSH, as soon as it has its position, so the lane
//! never covers a device flush. Reads overlap freely with each other and
//! with the ordered stream via the volume's lock-split read plane.
//! Backpressure is the per-connection in-flight window (`CONN_WINDOW`),
//! enforced by the reactor simply not reading a connection at its
//! window.
//!
//! [`serve`] keeps the classic single-volume API (it builds a one-entry
//! registry); [`serve_fleet`] serves a whole registry, with named-export
//! negotiation (`NBD_OPT_GO` with a name, `NBD_OPT_LIST`) routing each
//! connection to its tenant.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::Bytes;
use lsvd::fleet::{Export, ExportRegistry};
use lsvd::read_plane::{PendingRead, ReadStart};
use lsvd::shared::SharedVolume;
use lsvd::LsvdError;
use telemetry::{FlightRecorder, OpenSpan, ServingRecorders, SpanRing, Stage};

use crate::proto::*;
use crate::reactor::{ConnIo, Reactor, ReactorShared};
use crate::sched::{FleetScheduler, Job};

/// Largest READ/WRITE/TRIM a single request may carry (32 MiB, matching
/// common client defaults). Larger requests are answered with `EINVAL`.
pub const MAX_IO_BYTES: u32 = 32 << 20;

/// Worker threads servicing scheduled jobs: four, plus one so a long
/// ordered stream cannot starve reads. Do not grow it to buy read
/// concurrency — hits run on the reactor, misses wait on fetch threads,
/// and each extra idle worker is one more thread for the scheduler to
/// wake.
const WORKERS: usize = 4 + 1;

/// Requests one connection may have in flight. At this many unanswered
/// requests the reactor stops reading the connection, so TCP flow
/// control holds a pipelining client back and no queue grows without
/// bound. 32 is well above perfbench's deepest workload (QD8); a client
/// that pipelines deeper is slowed, never refused.
pub(crate) const CONN_WINDOW: usize = 32;

/// Most fetch threads one server runs. Each connection's window bounds
/// only its own reads waiting on the backend, so without a cap a node
/// could start `CONN_WINDOW` threads per connection. 64 is ample:
/// perfbench's `read-miss` keeps at most 8 misses in flight. Past the
/// cap a miss queues for the next free thread. That cannot deadlock: a
/// single-flight follower waits only on a leader that is already
/// fetching on another thread, since a read registers its fetch only
/// once a thread runs it.
const FETCH_THREADS: usize = 64;

/// Server tunables.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Serve exactly one connection, then stop (CI smoke / tests).
    pub oneshot: bool,
    /// Flight recorder to dump on terminal I/O errors and connection
    /// aborts (the serving plane's black-box triggers). `None` disables.
    pub recorder: Option<Arc<FlightRecorder>>,
}

/// A running NBD server. Dropping the handle does *not* stop it; call
/// [`ServerHandle::stop`] (or let `join` return after a oneshot run).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ReactorShared>,
    registry: Arc<ExportRegistry>,
    sched: Arc<FleetScheduler>,
    fetchers: Arc<Fetchers>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The export registry this server routes connections through.
    pub fn registry(&self) -> &Arc<ExportRegistry> {
        &self.registry
    }

    /// The sole export's serving recorders (single-volume servers); a
    /// fresh unrecorded set when the fleet has zero or many exports —
    /// per-tenant counters live on each export then.
    pub fn recorders(&self) -> ServingRecorders {
        self.registry
            .sole_export()
            .map(|e| e.recorders().clone())
            .unwrap_or_default()
    }

    /// Blocks until the server stops on its own (oneshot mode) and joins
    /// every thread. For long-running servers, call [`ServerHandle::stop`]
    /// from another thread instead.
    pub fn join(mut self) {
        self.finish();
    }

    /// Stops the server: no new connections, live connections drained
    /// (in-flight jobs finish and their replies flush), all threads —
    /// fetch threads included — joined. Volumes stay attached — the
    /// registry owner detaches them.
    pub fn stop(mut self) {
        self.shared.request_stop();
        self.finish();
    }

    fn finish(&mut self) {
        if let Some(r) = self.reactor.take() {
            let _ = r.join();
        }
        // The reactor's epilogue already stopped the scheduler; repeat
        // defensively so workers can never outlive a torn reactor.
        self.sched.set_stop();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        // The reactor and the workers were the only sources of fetches;
        // with both gone, every fetch thread can finish its read and exit.
        self.fetchers.stop();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A leaked handle must not leave detached threads wedged on a
        // scheduler that will never stop.
        if self.reactor.is_some() {
            self.shared.request_stop();
            self.finish();
        }
    }
}

/// Binds `addr` and starts serving `volume` as the sole export `export`
/// (single-volume compatibility wrapper over [`serve_fleet`]).
///
/// The export's recorders (via [`ServerHandle::recorders`]) are attached
/// to the volume, so `Volume::telemetry()` exports the serving section
/// while the server runs.
pub fn serve(
    addr: &str,
    export: &str,
    volume: SharedVolume,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let registry = Arc::new(ExportRegistry::new());
    registry
        .attach(export, volume)
        .map_err(|e| io::Error::other(e.to_string()))?;
    serve_fleet(addr, registry, cfg)
}

/// Binds `addr` and serves every export in `registry`, now and as the
/// registry changes: exports attached later become routable on the next
/// `NBD_OPT_GO`, and detaching an export drains and closes its
/// connections.
pub fn serve_fleet(
    addr: &str,
    registry: Arc<ExportRegistry>,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let (waker_tx, waker_rx) = UnixStream::pair()?;
    waker_tx.set_nonblocking(true)?;
    waker_rx.set_nonblocking(true)?;
    let shared = Arc::new(ReactorShared::new(waker_tx));
    let sched = Arc::new(FleetScheduler::new());
    {
        // Registry changes nudge the reactor so fenced exports' conns
        // drain promptly.
        let sh = shared.clone();
        registry.set_notify(Box::new(move || {
            sh.sweep.store(true, std::sync::atomic::Ordering::Release);
            sh.wake();
        }));
    }

    let fetchers = Fetchers::start()?;
    let ctx = Ctx {
        shared: shared.clone(),
        sched: sched.clone(),
        recorder: cfg.recorder.clone(),
        fetchers: fetchers.clone(),
    };
    let mut workers = Vec::new();
    for i in 0..WORKERS {
        let ctx = ctx.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("nbd-worker-{i}"))
                .spawn(move || worker_loop(&ctx))?,
        );
    }
    let reactor = {
        let r = Reactor::new(listener, waker_rx, ctx, registry.clone(), cfg.oneshot);
        std::thread::Builder::new()
            .name("nbd-reactor".into())
            .spawn(move || r.run())?
    };
    Ok(ServerHandle {
        addr: bound,
        shared,
        registry,
        sched,
        fetchers,
        reactor: Some(reactor),
        workers,
    })
}

/// What a thread finishing jobs needs beyond the job: the reactor to
/// wake, the scheduler whose ordered lane it releases, the black box to
/// dump on EIO, and the fetch threads for read misses.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) shared: Arc<ReactorShared>,
    pub(crate) sched: Arc<FleetScheduler>,
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
    fetchers: Arc<Fetchers>,
}

/// The thread running a job. Only a worker may wait on the backend or on
/// a device flush.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Runner {
    Reactor,
    Worker,
}

fn worker_loop(ctx: &Ctx) {
    while let Some(picked) = ctx.sched.pop() {
        execute(picked.job, picked.ordered, ctx, Runner::Worker);
    }
}

fn errno_of(e: &LsvdError) -> u32 {
    match e {
        LsvdError::InvalidAccess { .. } => EINVAL,
        LsvdError::CacheFull | LsvdError::Backpressure { .. } => ENOSPC,
        _ => EIO,
    }
}

/// Services one job against its export's volume, releases its ordered
/// lane (`ordered`) once the volume call returns, and writes the reply —
/// except for a read miss, whose backend phase a fetch thread finishes
/// and replies to. A FLUSH, or the flush half of a FUA write or trim,
/// takes its cache-log position in lane order and waits for a device
/// flush that covers it after the lane is released. On the reactor, a
/// write that would seal, clean or ship is not attempted: the job comes
/// back untouched, for the caller to hand to a worker.
pub(crate) fn execute(job: Job, ordered: bool, ctx: &Ctx, runner: Runner) -> Option<Job> {
    let rec = job.export.recorders();
    let volume = job.export.volume();
    let fua = job.req.flags & CMD_FLAG_FUA != 0;
    // Dispatch span: queue wait is behind us, so this covers lane pickup
    // until the reply is written. Its id is the parent every volume-side
    // hop (read / wlog append / flush / trim) hangs off.
    let req = job.req_id;
    let dispatch = if req != 0 {
        job.spans.begin(req, job.parent_span, Stage::Dispatch)
    } else {
        None
    };
    let parent = dispatch.map_or(0, |open| open.id);
    let t0 = Instant::now();
    let (error, data) = match job.req.cmd {
        CMD_READ => {
            rec.count_read();
            if job.req.length > MAX_IO_BYTES {
                (EINVAL, Bytes::new())
            } else {
                // Lock-free lane into the volume's read plane: cache hits
                // run under its shared lock, concurrently across threads,
                // and the payload reaches the socket as-is.
                match volume.start_read(job.req.offset, job.req.length as usize, req, parent) {
                    Ok(ReadStart::Done(data)) => read_outcome(rec, Ok(data)),
                    Ok(ReadStart::Pending(read)) => {
                        // A miss: the GETs wait on a fetch thread, which
                        // replies; this thread moves on.
                        let reply = Reply::new(job, dispatch, t0);
                        let owned = ctx.clone();
                        ctx.fetchers
                            .run(Box::new(move || reply.finish_read(read, &owned)));
                        return None;
                    }
                    Err(e) => read_outcome(rec, Err(e)),
                }
            }
        }
        CMD_WRITE => {
            let res = if job.req.length > MAX_IO_BYTES {
                Err(LsvdError::InvalidAccess {
                    offset: job.req.offset,
                    len: u64::from(job.req.length),
                    reason: "request exceeds MAX_IO_BYTES",
                })
            } else if runner == Runner::Reactor {
                match volume.write_if_local(job.req.offset, &job.data, req, parent) {
                    Some(res) => res,
                    // Unfinished, the dispatch span records nothing; the
                    // worker that takes the job opens its own.
                    None => return Some(job),
                }
            } else {
                volume.write_traced(job.req.offset, &job.data, req, parent)
            };
            rec.count_write();
            if res.is_ok() {
                rec.add_bytes_written(job.data.len() as u64);
            }
            (res.err().map(|e| errno_of(&e)).unwrap_or(0), Bytes::new())
        }
        CMD_FLUSH => (0, Bytes::new()),
        CMD_TRIM => {
            rec.count_trim();
            let res = if job.req.length > MAX_IO_BYTES {
                Err(LsvdError::InvalidAccess {
                    offset: job.req.offset,
                    len: u64::from(job.req.length),
                    reason: "request exceeds MAX_IO_BYTES",
                })
            } else {
                volume.discard_traced(job.req.offset, u64::from(job.req.length), req, parent)
            };
            (res.err().map(|e| errno_of(&e)).unwrap_or(0), Bytes::new())
        }
        _ => {
            rec.count_error();
            (EINVAL, Bytes::new())
        }
    };
    // A FLUSH, and a FUA write or trim that succeeded, end in a flush of
    // the cache log up to the position taken here, in lane order. Only
    // workers run them (see `runs_on_reactor`).
    let flush = job.req.cmd == CMD_FLUSH
        || (fua && error == 0 && matches!(job.req.cmd, CMD_WRITE | CMD_TRIM));
    let flush_pos = flush.then(|| {
        rec.count_flush();
        volume.flush_position()
    });
    if ordered {
        // Free the lane before the reply, and before any device flush:
        // a QD1 client's next write, sent the moment it reads this reply,
        // must find it idle, and writes keep appending while a flush
        // waits.
        ctx.sched.ordered_done(job.export.name());
    }
    let error = match flush_pos.map(|pos| volume.flush_to(pos, req, parent)) {
        Some(Err(e)) => errno_of(&e),
        _ => error,
    };
    if runner == Runner::Reactor {
        rec.count_reactor_run();
    }
    Reply::new(job, dispatch, t0).post(error, data, ctx, runner);
    None
}

/// A READ's outcome as `(error, payload)`, counting the bytes served.
fn read_outcome(rec: &ServingRecorders, res: lsvd::Result<Bytes>) -> (u32, Bytes) {
    match res {
        Ok(data) => {
            rec.add_bytes_read(data.len() as u64);
            (0, data)
        }
        Err(e) => (errno_of(&e), Bytes::new()),
    }
}

/// Everything needed to close a job once its outcome is known, detached
/// from the job so a fetch thread can close a read miss.
struct Reply {
    export: Arc<Export>,
    spans: Arc<SpanRing>,
    dispatch: Option<OpenSpan>,
    conn: Arc<ConnIo>,
    cookie: u64,
    enqueued: Instant,
    /// Service start: the job's pickup.
    t0: Instant,
}

impl Reply {
    fn new(job: Job, dispatch: Option<OpenSpan>, t0: Instant) -> Reply {
        Reply {
            export: job.export,
            spans: job.spans,
            dispatch,
            conn: job.conn,
            cookie: job.req.cookie,
            enqueued: job.enqueued,
            t0,
        }
    }

    /// The backend phase of a read miss, on a fetch thread.
    fn finish_read(self, read: PendingRead, ctx: &Ctx) {
        let (error, data) = read_outcome(self.export.recorders(), read.finish());
        self.post(error, data, ctx, Runner::Worker);
    }

    /// Closes the job: queue wait, service latency, dispatch span, error
    /// count and EIO black-box dump, then the reply and the export's
    /// in-flight count — last, so a detach drains every accepted
    /// request. Off the reactor, wakes it when the reply needs it.
    fn post(self, error: u32, data: Bytes, ctx: &Ctx, runner: Runner) {
        let rec = self.export.recorders();
        rec.queue_wait
            .record_ns(self.t0.saturating_duration_since(self.enqueued).as_nanos() as u64);
        rec.service.record_ns(self.t0.elapsed().as_nanos() as u64);
        if let Some(open) = self.dispatch {
            self.spans.finish(open, u64::from(error), self.conn.id);
        }
        if error != 0 {
            rec.count_error();
        }
        if error == EIO {
            // EIO is the serving plane's "terminal volume error" mapping
            // (backend gave up, state torn): dump the black box.
            if let Some(rec) = &ctx.recorder {
                let _ = rec.dump("terminal-error");
            }
        }
        // The reactor looks at its own connection right after a run.
        if self.conn.reply(self.cookie, error, &data, rec) && runner == Runner::Worker {
            ctx.shared.wake_conn(self.conn.id);
        }
        self.export.job_done();
    }
}

/// A fetch thread's unit of work.
type Task = Box<dyn FnOnce() + Send>;

/// The fetch threads, which finish read misses so neither the reactor nor
/// a worker waits on a GET. A parked thread is reused and a new one
/// starts only when none is free and fewer than [`FETCH_THREADS`] run;
/// each task wakes at most one thread.
#[derive(Default)]
struct Fetchers {
    state: Mutex<FetchState>,
    cv: Condvar,
}

/// Tasks run with the pool unlocked, so only a bug in the pool itself can
/// poison its lock.
const POISONED: &str = "fetch pool lock poisoned";

#[derive(Default)]
struct FetchState {
    tasks: VecDeque<Task>,
    /// Threads waiting on `cv` for a task.
    parked: usize,
    threads: Vec<JoinHandle<()>>,
    stop: bool,
}

impl Fetchers {
    /// A pool with its first thread running, so a task always has a
    /// thread to finish it even when no new one can be started.
    fn start() -> io::Result<Arc<Fetchers>> {
        let fetchers = Arc::new(Fetchers::default());
        let first = fetchers.spawn(0)?;
        fetchers.state.lock().expect(POISONED).threads.push(first);
        Ok(fetchers)
    }

    fn spawn(self: &Arc<Self>, n: usize) -> io::Result<JoinHandle<()>> {
        let fetchers = self.clone();
        std::thread::Builder::new()
            .name(format!("nbd-fetch-{n}"))
            .spawn(move || fetchers.serve())
    }

    /// Runs `task` on a parked fetch thread, or on a new one when every
    /// parked thread already has a task to take. Never on the caller,
    /// which may be the reactor: at the cap, or when no thread can be
    /// started, the task waits for a busy one — late rather than lost.
    fn run(self: &Arc<Self>, task: Task) {
        let mut s = self.state.lock().expect(POISONED);
        s.tasks.push_back(task);
        if s.tasks.len() <= s.parked {
            self.cv.notify_one();
        } else if s.threads.len() < FETCH_THREADS {
            if let Ok(t) = self.spawn(s.threads.len()) {
                s.threads.push(t);
            }
        }
    }

    /// A fetch thread: take tasks until stopped, parking when idle.
    fn serve(&self) {
        let mut s = self.state.lock().expect(POISONED);
        loop {
            if let Some(task) = s.tasks.pop_front() {
                drop(s);
                task();
                s = self.state.lock().expect(POISONED);
            } else if s.stop {
                return;
            } else {
                s.parked += 1;
                s = self
                    .cv
                    .wait_while(s, |s| s.tasks.is_empty() && !s.stop)
                    .expect(POISONED);
                s.parked -= 1;
            }
        }
    }

    /// Joins every fetch thread once it has drained the queue. Call once
    /// nothing can submit work any more.
    fn stop(&self) {
        let threads = {
            let mut s = self.state.lock().expect(POISONED);
            s.stop = true;
            std::mem::take(&mut s.threads)
        };
        self.cv.notify_all();
        for t in threads {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use blkdev::RamDisk;
    use lsvd::config::VolumeConfig;
    use lsvd::volume::Volume;
    use objstore::MemStore;

    fn shared_volume(size_mb: u64) -> SharedVolume {
        let store = Arc::new(MemStore::new());
        let dev = Arc::new(RamDisk::new(16 << 20));
        let vol = Volume::create(
            store,
            dev,
            "vol",
            size_mb << 20,
            VolumeConfig::small_for_tests(),
        )
        .unwrap();
        SharedVolume::new(vol)
    }

    #[test]
    fn loopback_negotiate_and_full_command_set() {
        let sv = shared_volume(32);
        let handle = serve("127.0.0.1:0", "vol", sv.clone(), ServerConfig::default()).unwrap();
        let addr = handle.addr();

        let mut c = Client::connect(addr, "vol").unwrap();
        assert_eq!(c.size(), 32 << 20);
        assert_ne!(c.transmission_flags() & TFLAG_SEND_TRIM, 0);

        c.write(4096, &[7u8; 8192]).unwrap();
        c.flush().unwrap();
        let mut buf = [0u8; 8192];
        c.read(4096, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 8192]);

        c.trim(4096, 4096).unwrap();
        c.read(4096, &mut buf).unwrap();
        assert!(
            buf[..4096].iter().all(|&b| b == 0),
            "trimmed half reads zero"
        );
        assert!(buf[4096..].iter().all(|&b| b == 7), "other half intact");

        c.write_fua(0, &[3u8; 4096]).unwrap();
        // Unaligned and out-of-bounds requests error without killing the
        // connection.
        assert!(c.write(100, &[0u8; 512]).is_err());
        assert!(c.read((32 << 20) - 512, &mut [0u8; 4096]).is_err());
        assert!(c.write(u64::MAX - 4095, &[0u8; 4096]).is_err());
        let mut ok = [0u8; 4096];
        c.read(0, &mut ok).unwrap();
        assert_eq!(ok, [3u8; 4096]);

        c.disconnect().unwrap();
        handle.stop();
        // Server stop leaves the volume attached and consistent.
        let mut back = [0u8; 4096];
        sv.read(0, &mut back).unwrap();
        assert_eq!(back, [3u8; 4096]);
        sv.shutdown().unwrap();
    }

    #[test]
    fn reads_and_writes_on_an_idle_export_run_on_the_reactor() {
        let sv = shared_volume(16);
        let handle = serve("127.0.0.1:0", "vol", sv.clone(), ServerConfig::default()).unwrap();
        let runs = || handle.recorders().snapshot().reactor_runs;
        let mut c = Client::connect(handle.addr(), "vol").unwrap();
        c.write(0, &[5u8; 4096]).unwrap();
        assert_eq!(runs(), 1, "a QD1 write on an idle export");
        let mut buf = [0u8; 4096];
        c.read(0, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 4096]);
        assert_eq!(runs(), 2, "a QD1 read hit");
        c.flush().unwrap();
        c.write_fua(4096, &[6u8; 4096]).unwrap();
        assert_eq!(runs(), 2, "a FLUSH or FUA write ran on the reactor");
        c.disconnect().unwrap();
        handle.stop();
        sv.shutdown().unwrap();
    }

    #[test]
    fn oneshot_serves_one_connection_then_stops() {
        let sv = shared_volume(16);
        let cfg = ServerConfig {
            oneshot: true,
            ..ServerConfig::default()
        };
        let handle = serve("127.0.0.1:0", "vol", sv.clone(), cfg).unwrap();
        let addr = handle.addr();
        let mut c = Client::connect(addr, "").unwrap(); // empty name = default export
        c.write(0, &[1u8; 4096]).unwrap();
        c.disconnect().unwrap();
        handle.join();
        sv.shutdown().unwrap();
    }

    #[test]
    fn unknown_export_is_rejected() {
        let sv = shared_volume(16);
        let handle = serve("127.0.0.1:0", "vol", sv, ServerConfig::default()).unwrap();
        let addr = handle.addr();
        assert!(Client::connect(addr, "nope").is_err());
        // The connection stays in negotiation; a correct retry succeeds.
        let c = Client::connect(addr, "vol").unwrap();
        c.disconnect().unwrap();
        handle.stop();
    }

    #[test]
    fn fleet_routes_by_export_name_and_lists() {
        let registry = Arc::new(ExportRegistry::new());
        registry.attach("alpha", shared_volume(16)).unwrap();
        registry.attach("beta", shared_volume(32)).unwrap();
        let handle = serve_fleet("127.0.0.1:0", registry.clone(), ServerConfig::default()).unwrap();
        let addr = handle.addr();

        assert_eq!(
            Client::list_exports(addr).unwrap(),
            vec!["alpha".to_string(), "beta".to_string()]
        );

        let mut a = Client::connect(addr, "alpha").unwrap();
        let mut b = Client::connect(addr, "beta").unwrap();
        assert_eq!(a.size(), 16 << 20);
        assert_eq!(b.size(), 32 << 20);
        // Tenant isolation: each export sees only its own bytes.
        a.write(0, &[0xA5; 4096]).unwrap();
        b.write(0, &[0x5B; 4096]).unwrap();
        let mut buf = [0u8; 4096];
        a.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0xA5; 4096]);
        b.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0x5B; 4096]);

        // With two exports there is no default: empty-name GO fails but a
        // named retry on the same connection still works server-side.
        assert!(Client::connect(addr, "").is_err());
        assert!(Client::connect(addr, "gamma").is_err());

        // Per-tenant counters landed on each export's recorders.
        let alpha = registry.get("alpha").unwrap();
        let snap = alpha.recorders().snapshot();
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.bytes_written, 4096);
        assert_eq!(snap.bytes_read, 4096);

        a.disconnect().unwrap();
        b.disconnect().unwrap();
        handle.stop();
        for name in registry.list() {
            registry.detach(&name).unwrap();
        }
    }

    #[test]
    fn detach_drains_connected_clients() {
        let registry = Arc::new(ExportRegistry::new());
        registry.attach("going", shared_volume(16)).unwrap();
        registry.attach("staying", shared_volume(16)).unwrap();
        let handle = serve_fleet("127.0.0.1:0", registry.clone(), ServerConfig::default()).unwrap();
        let addr = handle.addr();

        let mut going = Client::connect(addr, "going").unwrap();
        let mut staying = Client::connect(addr, "staying").unwrap();
        // An acknowledged write must survive the detach (drained, then
        // flushed + checkpointed by shutdown inside detach).
        going.write(0, &[9u8; 4096]).unwrap();
        registry.detach("going").unwrap();
        // The reactor closed the connection; the next request fails.
        let mut buf = [0u8; 4096];
        assert!(going.read(0, &mut buf).is_err());
        // Other tenants are untouched.
        staying.write(0, &[4u8; 4096]).unwrap();
        staying.read(0, &mut buf).unwrap();
        assert_eq!(buf, [4u8; 4096]);
        // A re-connect to the detached name is now unknown.
        assert!(Client::connect(addr, "going").is_err());

        staying.disconnect().unwrap();
        handle.stop();
        registry.detach("staying").unwrap();
    }

    #[test]
    fn fetch_threads_are_reused_and_grow_only_when_none_is_parked() {
        let fetchers = Arc::new(Fetchers::default());
        let threads = || fetchers.state.lock().unwrap().threads.len();
        let parked = || fetchers.state.lock().unwrap().parked;
        let (tx, rx) = std::sync::mpsc::channel();
        // Two tasks at once: the first is still running, so the second
        // needs a thread of its own.
        let hold = Arc::new(std::sync::Barrier::new(3));
        for _ in 0..2 {
            let (hold, tx) = (hold.clone(), tx.clone());
            fetchers.run(Box::new(move || {
                hold.wait();
                tx.send(()).unwrap();
            }));
        }
        assert_eq!(threads(), 2);
        hold.wait();
        rx.recv().unwrap();
        rx.recv().unwrap();
        // One at a time from here on: each lands on a parked thread.
        for _ in 0..10 {
            while parked() < 2 {
                std::thread::yield_now();
            }
            let tx = tx.clone();
            fetchers.run(Box::new(move || tx.send(()).unwrap()));
            rx.recv().unwrap();
        }
        assert_eq!(threads(), 2, "a parked thread was not reused");
        fetchers.stop();
        assert_eq!(threads(), 0);
        assert_eq!(
            Arc::strong_count(&fetchers),
            1,
            "a fetch thread outlived stop"
        );
    }

    /// A backend whose ranged GETs park while its gate is closed. A parked
    /// GET passes on its own after 30 s, so a regression fails the test
    /// instead of hanging it, with no watchdog thread.
    #[derive(Default)]
    struct GatedStore {
        inner: MemStore,
        /// `(closed, GETs parked right now)`.
        gate: Mutex<(bool, usize)>,
        cv: Condvar,
    }

    impl GatedStore {
        fn set_closed(&self, closed: bool) {
            self.gate.lock().unwrap().0 = closed;
            self.cv.notify_all();
        }

        fn parked(&self) -> usize {
            self.gate.lock().unwrap().1
        }
    }

    impl objstore::ObjectStore for GatedStore {
        fn put(&self, name: &str, data: Bytes) -> objstore::Result<()> {
            self.inner.put(name, data)
        }
        fn get(&self, name: &str) -> objstore::Result<Bytes> {
            self.inner.get(name)
        }
        fn get_range(&self, name: &str, offset: u64, len: u64) -> objstore::Result<Bytes> {
            let mut g = self.gate.lock().unwrap();
            g.1 += 1;
            g = self
                .cv
                .wait_timeout_while(g, std::time::Duration::from_secs(30), |g| g.0)
                .unwrap()
                .0;
            g.1 -= 1;
            drop(g);
            self.inner.get_range(name, offset, len)
        }
        fn head(&self, name: &str) -> objstore::Result<u64> {
            self.inner.head(name)
        }
        fn delete(&self, name: &str) -> objstore::Result<()> {
            self.inner.delete(name)
        }
        fn list(&self, prefix: &str) -> objstore::Result<Vec<String>> {
            self.inner.list(prefix)
        }
    }

    /// A served export "vol" over a [`GatedStore`], with more read misses
    /// sent to it than the fetch pool has threads.
    struct MissesAtTheCap {
        store: Arc<GatedStore>,
        sv: SharedVolume,
        handle: ServerHandle,
        conns: Vec<std::net::TcpStream>,
    }

    /// Serves `registry` plus "vol", parks every GET, and sends misses on
    /// as many connections as their windows need until the pool is at its
    /// cap: `FETCH_THREADS` threads, each parked on a GET, and the rest
    /// of the misses queued.
    fn misses_at_the_cap(registry: Arc<ExportRegistry>) -> MissesAtTheCap {
        const CONNS: usize = FETCH_THREADS / CONN_WINDOW + 1;
        const MISSES: usize = CONNS * CONN_WINDOW;
        let store = Arc::new(GatedStore::default());
        let cfg = VolumeConfig {
            gc_enabled: false,
            ..VolumeConfig::small_for_tests()
        };
        let block = |i: usize| (i as u64) << 20;
        let mut vol = Volume::create(
            store.clone(),
            Arc::new(RamDisk::new(16 << 20)),
            "vol",
            block(MISSES),
            cfg,
        )
        .unwrap();
        // Each block drained into its own object.
        for i in 0..MISSES {
            vol.write(block(i), &[i as u8 + 1; 4096]).unwrap();
            vol.drain().unwrap();
        }
        let sv = SharedVolume::new(vol);
        registry.attach("vol", sv.clone()).unwrap();
        let handle = serve_fleet("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
        let mut conns: Vec<_> = (0..CONNS)
            .map(|_| Client::connect(handle.addr(), "vol").unwrap().into_raw())
            .collect();

        store.set_closed(true);
        for i in 0..MISSES {
            let req = Request {
                flags: 0,
                cmd: CMD_READ,
                cookie: i as u64 + 1,
                offset: block(i),
                length: 4096,
            };
            std::io::Write::write_all(&mut conns[i % CONNS], &encode_request(&req)).unwrap();
        }
        let t0 = Instant::now();
        loop {
            let (threads, queued) = {
                let s = handle.fetchers.state.lock().unwrap();
                (s.threads.len(), s.tasks.len())
            };
            assert!(threads <= FETCH_THREADS, "{threads} fetch threads");
            if threads == FETCH_THREADS
                && store.parked() == FETCH_THREADS
                && queued == MISSES - FETCH_THREADS
            {
                break;
            }
            assert!(
                t0.elapsed().as_secs() < 20,
                "{threads} threads, {} parked GETs, {queued} queued misses",
                store.parked()
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        MissesAtTheCap {
            store,
            sv,
            handle,
            conns,
        }
    }

    impl MissesAtTheCap {
        /// Opens the gate, checks every miss's reply, and stops serving.
        fn release(mut self) {
            self.store.set_closed(false);
            for conn in &mut self.conns {
                for _ in 0..CONN_WINDOW {
                    let mut hdr = [0u8; SIMPLE_REPLY_LEN];
                    std::io::Read::read_exact(conn, &mut hdr).unwrap();
                    let reply = decode_simple_reply(&hdr).unwrap();
                    assert_eq!(reply.error, 0, "miss {} failed", reply.cookie);
                    let mut data = [0u8; 4096];
                    std::io::Read::read_exact(conn, &mut data).unwrap();
                    assert_eq!(data, [reply.cookie as u8; 4096], "miss {}", reply.cookie);
                }
            }
            let threads = self.handle.fetchers.state.lock().unwrap().threads.len();
            assert_eq!(threads, FETCH_THREADS);
            drop(self.conns);
            self.handle.stop();
            self.sv.shutdown().unwrap();
        }
    }

    #[test]
    fn fetch_threads_stop_at_the_cap_and_queued_misses_still_finish() {
        misses_at_the_cap(Arc::new(ExportRegistry::new())).release();
    }

    #[test]
    fn a_flush_does_not_queue_behind_parked_gets() {
        let registry = Arc::new(ExportRegistry::new());
        let other = shared_volume(16);
        registry.attach("other", other.clone()).unwrap();
        let cap = misses_at_the_cap(registry);
        // Every fetch thread is parked on a GET and misses queue behind
        // them; another export's WRITE + FLUSH still completes.
        let mut c = Client::connect(cap.handle.addr(), "other").unwrap();
        c.write(0, &[8u8; 4096]).unwrap();
        c.flush().unwrap();
        assert_eq!(
            cap.store.parked(),
            FETCH_THREADS,
            "the FLUSH waited for a parked GET"
        );
        c.disconnect().unwrap();
        cap.release();
        other.shutdown().unwrap();
    }

    #[test]
    fn stop_joins_every_fetch_thread() {
        let store = Arc::new(MemStore::new());
        let mut vol = Volume::create(
            store,
            Arc::new(RamDisk::new(16 << 20)),
            "vol",
            16 << 20,
            VolumeConfig::small_for_tests(),
        )
        .unwrap();
        // Drained to the backend, so reading it back is a miss.
        vol.write(0, &[6u8; 4096]).unwrap();
        vol.drain().unwrap();
        let sv = SharedVolume::new(vol);
        let handle = serve("127.0.0.1:0", "vol", sv.clone(), ServerConfig::default()).unwrap();
        let fetchers = handle.fetchers.clone();
        let mut c = Client::connect(handle.addr(), "vol").unwrap();
        let mut buf = [0u8; 4096];
        c.read(0, &mut buf).unwrap();
        assert_eq!(buf, [6u8; 4096]);
        assert!(
            !fetchers.state.lock().unwrap().threads.is_empty(),
            "the miss was not finished on a fetch thread"
        );
        c.disconnect().unwrap();
        handle.stop();
        assert!(fetchers.state.lock().unwrap().threads.is_empty());
        assert_eq!(
            Arc::strong_count(&fetchers),
            1,
            "a fetch thread outlived stop"
        );
        sv.shutdown().unwrap();
    }

    #[test]
    fn deep_pipeline_against_window_round_trips() {
        // A client that pipelines far past the server window exercises
        // the reactor's read-gating backpressure rather than any queue.
        let sv = shared_volume(32);
        let handle = serve("127.0.0.1:0", "vol", sv.clone(), ServerConfig::default()).unwrap();
        let c = Client::connect(handle.addr(), "vol").unwrap();
        let n = 4 * CONN_WINDOW;
        let mut raw = c.into_raw();
        // Fire n writes back-to-back without reading replies.
        crate::client::pipeline_writes(&mut raw, 0, 4096, n).unwrap();
        // Then collect all n replies and verify the data landed.
        crate::client::collect_replies(&mut raw, n).unwrap();
        for i in 0..n {
            let mut buf = [0u8; 4096];
            let off = (i as u64) * 4096;
            sv.read(off, &mut buf).unwrap();
            assert_eq!(buf, [i as u8; 4096], "block {i}");
        }
        drop(raw);
        handle.stop();
        sv.shutdown().unwrap();
    }
}
