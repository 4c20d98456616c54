//! The NBD server: a shared poll-based reactor fronting a worker pool,
//! serving every export in an [`ExportRegistry`].
//!
//! ## Threading model
//!
//! One **reactor** thread ([`crate::reactor`]) owns the listener, every
//! connection socket (nonblocking), the fixed-newstyle handshake state
//! machines, request framing, and reply serialization — a thousand
//! connections cost a thousand small buffers, not three thousand
//! threads. Decoded requests become jobs on the
//! [`FleetScheduler`](crate::sched): per-export two-lane queues (ordered
//! mutations / concurrent reads) drained by a small **worker** pool
//! under deficit-round-robin fairness and per-export QoS token buckets.
//! Workers execute against the export's
//! [`SharedVolume`](lsvd::shared::SharedVolume) and post completions
//! back to the reactor through a self-pipe waker.
//!
//! Ordering: each export's mutations are dispatched one at a time in
//! arrival order (the `ordered_active` latch), so per-export
//! acknowledgement order equals cache-log order — the exported disk
//! stays prefix-consistent through a crash. Reads overlap freely with
//! each other and with the ordered stream via the volume's lock-split
//! read plane. Backpressure is the per-connection in-flight window,
//! enforced by the reactor simply not reading a connection at its
//! window.
//!
//! [`serve`] keeps the classic single-volume API (it builds a one-entry
//! registry); [`serve_fleet`] serves a whole registry, with named-export
//! negotiation (`NBD_OPT_GO` with a name, `NBD_OPT_LIST`) routing each
//! connection to its tenant.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::Bytes;
use lsvd::fleet::{ExportRegistry, QosLimits};
use lsvd::shared::SharedVolume;
use lsvd::LsvdError;
use telemetry::{FlightRecorder, ServingRecorders, Stage};

use crate::proto::*;
use crate::reactor::{Completion, Reactor, ReactorShared};
use crate::sched::{FleetScheduler, Job};

/// Largest READ/WRITE/TRIM a single request may carry (32 MiB, matching
/// common client defaults). Larger requests are answered with `EINVAL`.
pub const MAX_IO_BYTES: u32 = 32 << 20;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads servicing scheduled jobs (reads run concurrently
    /// across all of them; one more is always added so a long ordered
    /// stream cannot starve reads).
    pub read_workers: usize,
    /// Per-connection in-flight request window.
    pub window: usize,
    /// Serve exactly one connection, then stop (CI smoke / tests).
    pub oneshot: bool,
    /// Flight recorder to dump on terminal I/O errors and connection
    /// aborts (the serving plane's black-box triggers). `None` disables.
    pub recorder: Option<Arc<FlightRecorder>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_workers: 4,
            window: 32,
            oneshot: false,
            recorder: None,
        }
    }
}

/// A running NBD server. Dropping the handle does *not* stop it; call
/// [`ServerHandle::stop`] (or let `join` return after a oneshot run).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ReactorShared>,
    registry: Arc<ExportRegistry>,
    sched: Arc<FleetScheduler>,
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
    /// (in-flight jobs finish and their replies flush), all threads
    /// joined. Volumes stay attached — the registry owner detaches them.
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
        .attach(export, volume, QosLimits::default())
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

    let mut workers = Vec::new();
    // +1: even with read_workers == 1 there are two workers, so one
    // export's slow ordered job cannot stall every other tenant.
    for i in 0..cfg.read_workers.max(1) + 1 {
        let sched = sched.clone();
        let shared = shared.clone();
        let recorder = cfg.recorder.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("nbd-worker-{i}"))
                .spawn(move || worker_loop(&sched, &shared, recorder))?,
        );
    }
    let reactor = {
        let r = Reactor::new(
            listener,
            waker_rx,
            shared.clone(),
            registry.clone(),
            sched.clone(),
            cfg.recorder.clone(),
            cfg.window.max(1),
            cfg.oneshot,
        );
        std::thread::Builder::new()
            .name("nbd-reactor".into())
            .spawn(move || r.run())?
    };
    Ok(ServerHandle {
        addr: bound,
        shared,
        registry,
        sched,
        reactor: Some(reactor),
        workers,
    })
}

fn worker_loop(
    sched: &Arc<FleetScheduler>,
    shared: &Arc<ReactorShared>,
    recorder: Option<Arc<FlightRecorder>>,
) {
    while let Some(picked) = sched.pop() {
        let export = picked.job.export.clone();
        execute(picked.job, shared, recorder.as_ref());
        export.job_done();
        if picked.ordered {
            sched.ordered_done(export.name());
        }
    }
}

fn errno_of(e: &LsvdError) -> u32 {
    match e {
        LsvdError::InvalidAccess { .. } => EINVAL,
        LsvdError::CacheFull | LsvdError::Backpressure { .. } => ENOSPC,
        _ => EIO,
    }
}

/// Services one job against its export's volume and posts the completion
/// back to the reactor.
fn execute(job: Job, shared: &Arc<ReactorShared>, recorder: Option<&Arc<FlightRecorder>>) {
    let rec = job.export.recorders();
    let volume = job.export.volume();
    rec.queue_wait
        .record_ns(job.enqueued.elapsed().as_nanos() as u64);
    let fua = job.req.flags & CMD_FLAG_FUA != 0;
    // Dispatch span: queue wait is behind us, so this covers lane pickup
    // through volume completion. Its id is the parent every volume-side
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
                // run under its shared lock, concurrently across workers,
                // and the payload reaches the socket as-is.
                match volume.read_bytes_traced(job.req.offset, job.req.length as usize, req, parent)
                {
                    Ok(data) => {
                        rec.add_bytes_read(data.len() as u64);
                        (0, data)
                    }
                    Err(e) => (errno_of(&e), Bytes::new()),
                }
            }
        }
        CMD_WRITE => {
            rec.count_write();
            let res = if job.req.length > MAX_IO_BYTES {
                Err(LsvdError::InvalidAccess {
                    offset: job.req.offset,
                    len: u64::from(job.req.length),
                    reason: "request exceeds MAX_IO_BYTES",
                })
            } else {
                volume
                    .write_traced(job.req.offset, &job.data, req, parent)
                    .and_then(|()| {
                        if fua {
                            rec.count_flush();
                            volume.flush_traced(req, parent)
                        } else {
                            Ok(())
                        }
                    })
            };
            if res.is_ok() {
                rec.add_bytes_written(job.data.len() as u64);
            }
            (res.err().map(|e| errno_of(&e)).unwrap_or(0), Bytes::new())
        }
        CMD_FLUSH => {
            rec.count_flush();
            let res = volume.flush_traced(req, parent);
            (res.err().map(|e| errno_of(&e)).unwrap_or(0), Bytes::new())
        }
        CMD_TRIM => {
            rec.count_trim();
            let res = if job.req.length > MAX_IO_BYTES {
                Err(LsvdError::InvalidAccess {
                    offset: job.req.offset,
                    len: u64::from(job.req.length),
                    reason: "request exceeds MAX_IO_BYTES",
                })
            } else {
                volume
                    .discard_traced(job.req.offset, u64::from(job.req.length), req, parent)
                    .and_then(|()| {
                        if fua {
                            rec.count_flush();
                            volume.flush_traced(req, parent)
                        } else {
                            Ok(())
                        }
                    })
            };
            (res.err().map(|e| errno_of(&e)).unwrap_or(0), Bytes::new())
        }
        _ => {
            rec.count_error();
            (EINVAL, Bytes::new())
        }
    };
    rec.service.record_ns(t0.elapsed().as_nanos() as u64);
    if let Some(open) = dispatch {
        job.spans.finish(open, u64::from(error), job.conn);
    }
    if error != 0 {
        rec.count_error();
    }
    if error == EIO {
        // EIO is the serving plane's "terminal volume error" mapping
        // (backend gave up, state torn): dump the black box.
        if let Some(rec) = recorder {
            let _ = rec.dump("terminal-error");
        }
    }
    shared.complete(Completion {
        conn: job.conn,
        cookie: job.req.cookie,
        error,
        data,
    });
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
        registry
            .attach("alpha", shared_volume(16), QosLimits::default())
            .unwrap();
        registry
            .attach("beta", shared_volume(32), QosLimits::default())
            .unwrap();
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
        registry
            .attach("going", shared_volume(16), QosLimits::default())
            .unwrap();
        registry
            .attach("staying", shared_volume(16), QosLimits::default())
            .unwrap();
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
    fn deep_pipeline_against_window_round_trips() {
        // A client that pipelines far past the server window exercises
        // the reactor's read-gating backpressure rather than any queue.
        let sv = shared_volume(32);
        let cfg = ServerConfig {
            window: 4,
            ..ServerConfig::default()
        };
        let handle = serve("127.0.0.1:0", "vol", sv.clone(), cfg).unwrap();
        let c = Client::connect(handle.addr(), "vol").unwrap();
        let n = 64usize;
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
