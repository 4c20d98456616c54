//! The event-driven serving reactor: one thread multiplexing every
//! client connection over `poll(2)`, and running to completion every
//! request that needs only memory and the cache device.
//!
//! The previous serving plane spent three threads per connection
//! (reader, writer, and a share of the dispatcher); at fleet scale —
//! hundreds of volumes, a thousand connections — that is thousands of
//! stacks and a scheduler fight. The reactor replaces all of it with:
//!
//! - **one reactor thread** owning the accept loop, the handshake state
//!   machines and request framing for every socket (nonblocking). It
//!   runs a decoded request itself when the
//!   [`FleetScheduler`](crate::sched::FleetScheduler) would dispatch it
//!   right away and finishing it cannot wait on the backend or on a
//!   device flush: a READ's local phase (a hit or a hole replies at
//!   once, a miss goes straight to a fetch thread) and a WRITE the
//!   volume confirms stays in the cache log. So a read hit or a
//!   log-only write crosses no thread but the client's and the
//!   reactor's;
//! - **a small worker pool** (see `server.rs`) for everything else —
//!   FLUSH, TRIM, FUA writes, writes that seal, clean or ship, and jobs
//!   queued behind a busy lane — and **fetch threads** that finish read
//!   misses, so a GET never holds a worker. A FLUSH frees its export's
//!   ordered lane before its worker waits on the device flush;
//! - **direct replies**: each connection's socket, output queue and
//!   in-flight window live in a shared [`ConnIo`], and whichever thread
//!   finishes a request writes its reply with one `writev`;
//! - **a self-pipe waker** (`UnixStream::pair`): a finisher nudges the
//!   reactor out of `poll` only when the socket would block, a reply
//!   frees a full window, a draining connection's last reply is out, or
//!   the socket failed; the export registry nudges it when exports are
//!   detached.
//!
//! Each connection is a little state machine
//! (`Flags → Options → Transmission → Draining`). Negotiation routes
//! `NBD_OPT_GO` names through the shared
//! [`ExportRegistry`](lsvd::fleet::ExportRegistry) (empty name = sole
//! export), answers `NBD_OPT_LIST` from the same registry, and rejects
//! unknown names with `NBD_REP_ERR_UNKNOWN` while keeping the
//! negotiation alive. Backpressure is the in-flight window
//! (`CONN_WINDOW`): a connection at its window simply loses `POLLIN`
//! until replies drain, so a pipelining client is throttled by not being
//! read — no queue can grow without bound. Detached (fenced) exports get
//! their connections moved to `Draining`: already-accepted jobs finish
//! and their replies flush, then the socket closes, which is exactly the
//! detach contract (every acknowledged write completes).

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_ulong};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use lsvd::fleet::{Export, ExportRegistry};
use telemetry::{OpenSpan, ServingRecorders, SpanRing, Stage};

use crate::proto::*;
use crate::sched::Job;
use crate::server::{execute, Ctx, Runner, CONN_WINDOW, MAX_IO_BYTES};

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Ceiling on buffered unparsed input per connection: the largest legal
/// frame (header + one max WRITE payload) plus slack. A WRITE declaring
/// more than this cannot be framed and aborts the connection.
const IN_CAP: usize = REQUEST_LEN + 2 * MAX_IO_BYTES as usize;

/// A connection's output half: the socket, the output not yet on it and
/// the in-flight window. The reactor reads requests from the socket and
/// flushes leftover output on `POLLOUT`; whichever thread finishes a
/// request — the reactor, a worker or a fetch thread — writes its reply
/// here itself.
pub(crate) struct ConnIo {
    pub(crate) id: u64,
    stream: TcpStream,
    out: Mutex<Out>,
}

#[derive(Default)]
struct Out {
    /// Serialized output not yet on the socket; `pos` is the sent prefix
    /// of the front chunk.
    queue: VecDeque<Bytes>,
    pos: usize,
    /// Requests accepted and not yet answered: the in-flight window.
    inflight: usize,
    /// The reactor reads no more requests here, so the last reply must
    /// wake it to close the socket.
    draining: bool,
    /// The socket failed or was closed: replies are dropped.
    dead: bool,
}

impl Out {
    /// Queues `bytes` unless empty: an empty chunk would never drain.
    fn push(&mut self, bytes: Bytes) {
        if !bytes.is_empty() {
            self.queue.push_back(bytes);
        }
    }

    /// Drops the first `n` queued bytes, which are on the socket now.
    fn advance(&mut self, mut n: usize) {
        while n > 0 {
            let left = self.queue[0].len() - self.pos;
            if n < left {
                self.pos += n;
                return;
            }
            n -= left;
            self.queue.pop_front();
            self.pos = 0;
        }
    }
}

impl ConnIo {
    pub(crate) fn new(id: u64, stream: TcpStream) -> ConnIo {
        ConnIo {
            id,
            stream,
            out: Mutex::new(Out::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Out> {
        self.out.lock().expect("connection output lock poisoned")
    }

    /// Queues negotiation output; the reactor flushes it.
    fn push(&self, bytes: impl Into<Bytes>) {
        self.lock().push(bytes.into());
    }

    /// Counts one accepted request into the window.
    fn begin(&self) {
        self.lock().inflight += 1;
    }

    /// Writes one request's reply. With nothing queued ahead of it, the
    /// caller writes header and payload at once, in one `writev`; behind
    /// queued output, the reply waits for the reactor's `POLLOUT` flush.
    /// Returns whether the reactor must look at the connection: the
    /// socket would block, the reply freed a full window, it was a
    /// draining connection's last, or the socket failed.
    pub(crate) fn reply(
        &self,
        cookie: u64,
        error: u32,
        data: &Bytes,
        rec: &ServingRecorders,
    ) -> bool {
        let hdr = encode_simple_reply(&SimpleReply { error, cookie });
        let mut out = self.lock();
        let freed = out.inflight == CONN_WINDOW;
        out.inflight -= 1;
        if out.dead {
            return false;
        }
        let idle = out.queue.is_empty();
        out.push(Bytes::copy_from_slice(&hdr));
        out.push(data.clone());
        if idle && self.write_out(&mut out, Some(rec)).is_err() {
            return true;
        }
        let blocked = idle && !out.queue.is_empty();
        let last = out.draining && out.inflight == 0 && out.queue.is_empty();
        freed || blocked || last
    }

    /// Writes queued output until the socket would block: the reactor's
    /// `POLLOUT` path. Fails once the socket has.
    fn flush(&self, rec: Option<&ServingRecorders>) -> io::Result<()> {
        let mut out = self.lock();
        if out.dead {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        self.write_out(&mut out, rec)
    }

    fn write_out(&self, out: &mut Out, rec: Option<&ServingRecorders>) -> io::Result<()> {
        let t0 = Instant::now();
        let mut wrote = false;
        while !out.queue.is_empty() {
            let mut parts = [IoSlice::new(&[]); 16];
            let n = out.queue.len().min(parts.len());
            for (i, b) in out.queue.iter().take(n).enumerate() {
                parts[i] = IoSlice::new(if i == 0 { &b[out.pos..] } else { b });
            }
            match (&self.stream).write_vectored(&parts[..n]) {
                Ok(0) => {
                    out.dead = true;
                    return Err(io::ErrorKind::WriteZero.into());
                }
                Ok(k) => {
                    wrote = true;
                    out.advance(k);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    out.dead = true;
                    return Err(e);
                }
            }
        }
        if let (true, Some(rec)) = (wrote, rec) {
            rec.socket_wait.record_ns(t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Marks the connection as reading no more requests.
    fn set_draining(&self) {
        self.lock().draining = true;
    }

    /// `(in-flight requests, output queued)`, read under one lock.
    fn status(&self) -> (usize, bool) {
        let out = self.lock();
        (out.inflight, !out.queue.is_empty())
    }
}

/// Finishers only push ids onto the ready list and the reactor only takes
/// it, so a poisoned lock is a bug in this module.
const READY_POISONED: &str = "ready list lock poisoned";

/// State shared between the reactor thread, every thread that finishes a
/// request, and the registry notify hook.
pub(crate) struct ReactorShared {
    waker_tx: UnixStream,
    /// Connections a finisher asked the reactor to look at.
    ready: Mutex<Vec<u64>>,
    pub(crate) stop: AtomicBool,
    /// Registry changed (attach/detach): re-examine conns for fenced
    /// exports.
    pub(crate) sweep: AtomicBool,
}

impl ReactorShared {
    pub(crate) fn new(waker_tx: UnixStream) -> ReactorShared {
        ReactorShared {
            waker_tx,
            ready: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            sweep: AtomicBool::new(false),
        }
    }

    /// Nudges the reactor out of `poll`.
    pub(crate) fn wake(&self) {
        let _ = (&self.waker_tx).write(&[1u8]);
    }

    /// Asks the reactor to service connection `id` (see
    /// [`ConnIo::reply`] for when a finisher must).
    pub(crate) fn wake_conn(&self, id: u64) {
        self.ready.lock().expect(READY_POISONED).push(id);
        self.wake();
    }

    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.wake();
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

enum Phase {
    /// Hello sent; awaiting the 4-byte client flags.
    Flags,
    /// Option haggling (`GO` / `LIST` / `ABORT` / unknown).
    Options,
    /// Transmission: framing requests.
    Transmission,
    /// No more reads; close once in-flight jobs and output drain.
    Draining,
}

struct Conn {
    io: Arc<ConnIo>,
    phase: Phase,
    /// Unparsed input; `inpos` is the consumed prefix (compacted lazily).
    inbuf: Vec<u8>,
    inpos: usize,
    /// Set at a successful `GO`; `None` while negotiating.
    export: Option<Arc<Export>>,
    spans: Option<Arc<SpanRing>>,
    /// Request id + open decode span for a WRITE whose payload is still
    /// arriving across polls (the decode span covers payload intake).
    pending_decode: Option<(u64, Option<OpenSpan>)>,
    /// Peer closed its write side; parse what is buffered, then drain.
    eof: bool,
}

impl Conn {
    fn new(io: Arc<ConnIo>) -> Conn {
        Conn {
            io,
            phase: Phase::Flags,
            inbuf: Vec::new(),
            inpos: 0,
            export: None,
            spans: None,
            pending_decode: None,
            eof: false,
        }
    }

    fn avail(&self) -> usize {
        self.inbuf.len() - self.inpos
    }

    fn peek(&self, n: usize) -> &[u8] {
        &self.inbuf[self.inpos..self.inpos + n]
    }

    fn consume(&mut self, n: usize) {
        self.inpos += n;
        // Compact once the dead prefix dominates, so the buffer cannot
        // grow without bound across a long-lived connection.
        if self.inpos == self.inbuf.len() {
            self.inbuf.clear();
            self.inpos = 0;
        } else if self.inpos > 1 << 20 {
            self.inbuf.drain(..self.inpos);
            self.inpos = 0;
        }
    }

    fn take_vec(&mut self, n: usize) -> Vec<u8> {
        let v = self.peek(n).to_vec();
        self.consume(n);
        v
    }

    fn wants_read(&self, inflight: usize) -> bool {
        if self.eof {
            return false;
        }
        match self.phase {
            Phase::Flags | Phase::Options => {
                self.avail() < OPTION_HDR_LEN + MAX_OPTION_LEN as usize + 64
            }
            Phase::Transmission => inflight < CONN_WINDOW && self.avail() < IN_CAP,
            Phase::Draining => false,
        }
    }

    fn draining(&self) -> bool {
        self.eof || matches!(self.phase, Phase::Draining)
    }
}

/// The reactor: owns the listener, the waker, and every connection.
pub(crate) struct Reactor {
    listener: TcpListener,
    waker_rx: UnixStream,
    ctx: Ctx,
    registry: Arc<ExportRegistry>,
    oneshot: bool,
    accepted: bool,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Socket read buffer, reused across every readable event.
    rbuf: Vec<u8>,
}

impl Reactor {
    pub(crate) fn new(
        listener: TcpListener,
        waker_rx: UnixStream,
        ctx: Ctx,
        registry: Arc<ExportRegistry>,
        oneshot: bool,
    ) -> Reactor {
        Reactor {
            listener,
            waker_rx,
            ctx,
            registry,
            oneshot,
            accepted: false,
            conns: HashMap::new(),
            next_conn: 1,
            rbuf: vec![0u8; 64 << 10],
        }
    }

    /// The reactor loop; returns once stopped and every connection has
    /// drained (or the stop deadline expires). The scheduler is stopped
    /// on the way out so workers exit after draining their queues.
    pub(crate) fn run(mut self) {
        let mut stop_seen: Option<Instant> = None;
        loop {
            if self.ctx.shared.sweep.swap(false, Ordering::AcqRel) {
                self.sweep_fenced();
            }
            let stopping = self.ctx.shared.stopping();
            if stopping {
                stop_seen.get_or_insert_with(Instant::now);
                self.close_for_stop();
                if self.conns.is_empty() || stop_seen.unwrap().elapsed() > Duration::from_secs(30) {
                    break;
                }
            } else if self.oneshot && self.accepted && self.conns.is_empty() {
                // Oneshot: the one connection came and went.
                self.ctx.shared.stop.store(true, Ordering::Release);
                continue;
            }

            let accepting = !(stopping || (self.oneshot && self.accepted));
            let mut fds = Vec::with_capacity(self.conns.len() + 2);
            fds.push(PollFd {
                fd: self.waker_rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            if accepting {
                fds.push(PollFd {
                    fd: self.listener.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                });
            }
            // Only poll connections with actual interest; a drained-but-
            // waiting conn (e.g. EOF with jobs in flight) would otherwise
            // spin on level-triggered POLLHUP.
            let mut polled: Vec<u64> = Vec::with_capacity(self.conns.len());
            for (id, c) in &self.conns {
                let (inflight, output) = c.io.status();
                let mut ev = 0i16;
                if !stopping && c.wants_read(inflight) {
                    ev |= POLLIN;
                }
                if output {
                    ev |= POLLOUT;
                }
                if ev != 0 {
                    fds.push(PollFd {
                        fd: c.io.stream.as_raw_fd(),
                        events: ev,
                        revents: 0,
                    });
                    polled.push(*id);
                }
            }
            let _ = poll_fds(&mut fds, 100);

            if fds[0].revents != 0 {
                let mut sink = [0u8; 256];
                while matches!((&self.waker_rx).read(&mut sink), Ok(n) if n > 0) {}
            }
            if accepting && fds[1].revents != 0 {
                self.accept_ready();
            }
            let base = if accepting { 2 } else { 1 };
            for (k, id) in polled.iter().enumerate() {
                if fds[base + k].revents != 0 {
                    let readable = fds[base + k].revents & POLLIN != 0;
                    self.service_conn(*id, readable);
                }
            }
            // Connections a finisher flagged: a freed window may unblock
            // parsing, leftover output wants flushing, a drained
            // connection closes.
            let ready = std::mem::take(&mut *self.ctx.shared.ready.lock().expect(READY_POISONED));
            for id in ready {
                self.service_conn(id, false);
            }
        }
        // Close leftovers first, then release the workers to drain
        // everything.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(c) = self.conns.remove(&id) {
                self.close_conn(c);
            }
        }
        self.ctx.sched.set_stop();
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accepted = true;
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let id = self.next_conn;
                    self.next_conn += 1;
                    let c = Conn::new(Arc::new(ConnIo::new(id, stream)));
                    let mut hello = Vec::with_capacity(18);
                    hello.extend_from_slice(&MAGIC_NBD.to_be_bytes());
                    hello.extend_from_slice(&MAGIC_IHAVEOPT.to_be_bytes());
                    hello.extend_from_slice(&(FLAG_FIXED_NEWSTYLE | FLAG_NO_ZEROES).to_be_bytes());
                    c.io.push(hello);
                    self.conns.insert(id, c);
                    if self.oneshot {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Moves every connection of a fenced (detaching) export to
    /// `Draining`: in-flight jobs finish and their replies flush, then
    /// the socket closes.
    fn sweep_fenced(&mut self) {
        let fenced: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.export.as_ref().is_some_and(|e| e.is_fenced())
                    && !matches!(c.phase, Phase::Draining)
            })
            .map(|(id, _)| *id)
            .collect();
        for id in fenced {
            if let Some(c) = self.conns.get_mut(&id) {
                c.phase = Phase::Draining;
            }
            self.service_conn(id, false);
        }
    }

    /// On stop: close handshake connections immediately, and negotiated
    /// ones once their in-flight jobs and output have drained.
    fn close_for_stop(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let done = {
                let c = &self.conns[&id];
                // The last reply of a connection still busy wakes us.
                c.io.set_draining();
                let (inflight, output) = c.io.status();
                match c.phase {
                    Phase::Flags | Phase::Options => true,
                    _ => inflight == 0 && !output,
                }
            };
            if done {
                if let Some(c) = self.conns.remove(&id) {
                    self.close_conn(c);
                }
            }
        }
    }

    /// Drives one connection: read if `readable`, parse, flush. Removes
    /// and closes it when it dies or drains.
    fn service_conn(&mut self, id: u64, readable: bool) {
        let Some(mut c) = self.conns.remove(&id) else {
            return;
        };
        let mut alive = self.drive(&mut c, readable);
        if alive && c.draining() {
            // Flag first, then look: a finisher either sees the flag and
            // wakes us for its last reply, or its reply is already out.
            c.io.set_draining();
            let (inflight, output) = c.io.status();
            alive = inflight > 0 || output;
        }
        if alive {
            self.conns.insert(id, c);
        } else {
            self.close_conn(c);
        }
    }

    fn drive(&mut self, c: &mut Conn, readable: bool) -> bool {
        if readable && !c.eof {
            match self.fill_in(c) {
                Ok(eof) => c.eof = eof,
                Err(_) => {
                    // Socket error outside server stop: evidence worth a
                    // black-box snapshot, like the old reader thread's
                    // non-EOF error path.
                    self.dump("conn-abort");
                    return false;
                }
            }
        }
        if !self.advance(c) {
            return false;
        }
        if c.eof && matches!(c.phase, Phase::Transmission) {
            // EOF mid-frame is an abrupt kill with a torn request.
            if c.avail() > 0 || c.pending_decode.is_some() {
                self.dump("conn-abort");
                return false;
            }
        }
        c.io.flush(c.export.as_ref().map(|e| e.recorders())).is_ok()
    }

    fn fill_in(&mut self, c: &mut Conn) -> io::Result<bool> {
        loop {
            if !c.wants_read(c.io.status().0) {
                return Ok(false);
            }
            match (&c.io.stream).read(&mut self.rbuf) {
                Ok(0) => return Ok(true),
                Ok(n) => c.inbuf.extend_from_slice(&self.rbuf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Runs the connection state machine over the buffered input.
    /// Returns `false` on a protocol violation (close immediately).
    fn advance(&mut self, c: &mut Conn) -> bool {
        // Requests run here in this pass. At most one window's worth, then
        // the rest queue for workers: a client that pipelines faster than
        // the reactor runs must not hold it from the other connections.
        let mut runs = 0;
        loop {
            match c.phase {
                Phase::Flags => {
                    if c.avail() < 4 {
                        return true;
                    }
                    let flags = u32::from_be_bytes(c.peek(4).try_into().unwrap());
                    c.consume(4);
                    if flags & CLIENT_FIXED_NEWSTYLE == 0 {
                        // Old-style client: close silently, like the
                        // thread-per-conn handshake did.
                        return false;
                    }
                    c.phase = Phase::Options;
                }
                Phase::Options => {
                    if c.avail() < OPTION_HDR_LEN {
                        return true;
                    }
                    let hdr: [u8; OPTION_HDR_LEN] = c.peek(OPTION_HDR_LEN).try_into().unwrap();
                    let Some((option, len)) = decode_option_header(&hdr) else {
                        return false;
                    };
                    if len > MAX_OPTION_LEN {
                        return false;
                    }
                    if c.avail() < OPTION_HDR_LEN + len as usize {
                        return true;
                    }
                    c.consume(OPTION_HDR_LEN);
                    let payload = c.take_vec(len as usize);
                    if !self.handle_option(c, option, &payload) {
                        return false;
                    }
                }
                Phase::Transmission => {
                    if self.ctx.shared.stopping() {
                        return true;
                    }
                    if c.io.status().0 >= CONN_WINDOW {
                        return true;
                    }
                    if c.avail() < REQUEST_LEN {
                        return true;
                    }
                    let hdr: [u8; REQUEST_LEN] = c.peek(REQUEST_LEN).try_into().unwrap();
                    let Some(req) = decode_request(&hdr) else {
                        if let Some(e) = &c.export {
                            e.recorders().count_error();
                        }
                        self.dump("conn-abort");
                        return false;
                    };
                    let spans = c.spans.clone().expect("transmission without spans");
                    if req.cmd == CMD_WRITE {
                        if req.length as usize > IN_CAP - REQUEST_LEN {
                            // Cannot frame a payload this size; the
                            // stream is unrecoverable.
                            if let Some(e) = &c.export {
                                e.recorders().count_error();
                            }
                            self.dump("conn-abort");
                            return false;
                        }
                        if c.avail() < REQUEST_LEN + req.length as usize {
                            // Begin the decode span now: it covers
                            // payload intake across polls.
                            if c.pending_decode.is_none() {
                                let req_id = spans.mint_request();
                                let open = if req_id != 0 {
                                    spans.begin(req_id, 0, Stage::Decode)
                                } else {
                                    None
                                };
                                c.pending_decode = Some((req_id, open));
                            }
                            return true;
                        }
                    }
                    c.consume(REQUEST_LEN);
                    let data = if req.cmd == CMD_WRITE {
                        c.take_vec(req.length as usize)
                    } else {
                        Vec::new()
                    };
                    let (req_id, open) = c.pending_decode.take().unwrap_or_else(|| {
                        let req_id = spans.mint_request();
                        let open = if req_id != 0 {
                            spans.begin(req_id, 0, Stage::Decode)
                        } else {
                            None
                        };
                        (req_id, open)
                    });
                    let decode_id = open.map_or(0, |o| {
                        spans.finish(o, u64::from(req.cmd), u64::from(req.length))
                    });
                    if req.cmd == CMD_DISC {
                        c.phase = Phase::Draining;
                        continue;
                    }
                    let export = c.export.clone().expect("transmission without export");
                    c.io.begin();
                    if !export.job_begin() {
                        // Fenced mid-flight: fail the request without
                        // touching the (detaching) volume.
                        export.recorders().count_error();
                        c.io.reply(req.cookie, EIO, &Bytes::new(), export.recorders());
                        continue;
                    }
                    let job = Job::new(c.io.clone(), req, data, export, spans, req_id, decode_id);
                    if self.run_or_queue(job, runs < CONN_WINDOW) {
                        runs += 1;
                    }
                }
                Phase::Draining => return true,
            }
        }
    }

    /// Runs `job` to completion on this thread, when `may_run`, finishing
    /// it needs only memory and the cache device, and a worker would
    /// dispatch it right now; queues it for a worker otherwise. A write
    /// the volume finds would seal, clean or ship goes back to the head
    /// of its lane. Returns whether the reactor ran it.
    fn run_or_queue(&self, job: Job, may_run: bool) -> bool {
        let sched = &self.ctx.sched;
        if !may_run || !runs_on_reactor(&job.req) {
            sched.push(job);
            return false;
        }
        let Some(job) = sched.claim(job) else {
            return false;
        };
        let ordered = job.is_mutation();
        match execute(job, ordered, &self.ctx, Runner::Reactor) {
            Some(job) => {
                sched.hand_back(job);
                false
            }
            None => true,
        }
    }

    /// Handles one negotiation option. Returns `false` to close.
    fn handle_option(&self, c: &mut Conn, option: u32, payload: &[u8]) -> bool {
        match option {
            OPT_GO => {
                let export = decode_go_payload(payload).and_then(|name| self.resolve(&name));
                match export {
                    Some(export) => {
                        let tflags =
                            TFLAG_HAS_FLAGS | TFLAG_SEND_FLUSH | TFLAG_SEND_FUA | TFLAG_SEND_TRIM;
                        let info = encode_info_export(export.volume().size_bytes(), tflags);
                        c.io.push(encode_option_reply(OPT_GO, REP_INFO, &info));
                        c.io.push(encode_option_reply(OPT_GO, REP_ACK, b"".as_slice()));
                        export.recorders().conn_opened();
                        // Edges take the ring's short edge lock, never
                        // the volume mutex, so the reactor records them.
                        let spans = export.volume().span_ring();
                        spans.edge(None, Stage::ConnOpen, c.io.id, 0);
                        c.spans = Some(spans);
                        c.export = Some(export);
                        c.phase = Phase::Transmission;
                    }
                    None => {
                        c.io.push(encode_option_reply(OPT_GO, REP_ERR_UNKNOWN, b"".as_slice()));
                    }
                }
                true
            }
            OPT_LIST => {
                for e in self.registry.exports() {
                    c.io.push(encode_option_reply(
                        OPT_LIST,
                        REP_SERVER,
                        &encode_server_entry(e.name()),
                    ));
                }
                c.io.push(encode_option_reply(OPT_LIST, REP_ACK, b"".as_slice()));
                true
            }
            OPT_ABORT => {
                c.io.push(encode_option_reply(OPT_ABORT, REP_ACK, b"".as_slice()));
                c.phase = Phase::Draining;
                true
            }
            _ => {
                c.io.push(encode_option_reply(option, REP_ERR_UNSUP, b"".as_slice()));
                true
            }
        }
    }

    /// Export lookup for `GO`: empty name selects the sole export (the
    /// NBD "default export" convention); fenced exports are not offered.
    fn resolve(&self, name: &str) -> Option<Arc<Export>> {
        let e = if name.is_empty() {
            self.registry.sole_export()
        } else {
            self.registry.get(name)
        }?;
        if e.is_fenced() {
            None
        } else {
            Some(e)
        }
    }

    fn close_conn(&self, c: Conn) {
        // Best-effort final flush (an ABORT ack, a last reply); replies
        // finished after this are dropped.
        let _ = c.io.flush(None);
        c.io.lock().dead = true;
        let _ = c.io.stream.shutdown(Shutdown::Both);
        if let Some(e) = &c.export {
            e.recorders().conn_closed();
        }
        if let Some(spans) = &c.spans {
            spans.edge(None, Stage::ConnClose, c.io.id, 0);
        }
    }

    /// Dumps the flight recorder unless the server is stopping (stop
    /// tears down sockets on purpose; that is not evidence).
    fn dump(&self, reason: &str) {
        if self.ctx.shared.stopping() {
            return;
        }
        if let Some(rec) = &self.ctx.recorder {
            let _ = rec.dump(reason);
        }
    }
}

/// Largest request the reactor runs itself: one cache-log record. Bigger
/// ones copy more than the other connections should wait behind.
const REACTOR_MAX_BYTES: u32 = 1 << 20;

/// Whether the reactor may run `req`: a READ, whose local phase touches
/// only memory and the cache device, or a WRITE without FUA, which
/// [`lsvd::shared::SharedVolume::write_if_local`] runs only when it stays
/// in the cache log. FLUSH, TRIM and FUA writes wait on a device flush
/// or may wait on the backend, so they go to workers.
fn runs_on_reactor(req: &Request) -> bool {
    match req.cmd {
        CMD_READ => req.length <= REACTOR_MAX_BYTES,
        CMD_WRITE => req.flags & CMD_FLAG_FUA == 0 && req.length <= REACTOR_MAX_BYTES,
        _ => false,
    }
}
