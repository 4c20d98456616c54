//! The event-driven serving reactor: one thread multiplexing every
//! client connection over `poll(2)`.
//!
//! The previous serving plane spent three threads per connection
//! (reader, writer, and a share of the dispatcher); at fleet scale —
//! hundreds of volumes, a thousand connections — that is thousands of
//! stacks and a scheduler fight. The reactor replaces all of it with:
//!
//! - **one reactor thread** owning every socket (nonblocking), the
//!   accept loop, the handshake state machines, request framing, and
//!   reply serialization;
//! - **a small worker pool** (see `server.rs`) pulling decoded jobs from
//!   the [`FleetScheduler`](crate::sched::FleetScheduler) and posting
//!   [`Completion`]s back — except for read misses, whose backend phase
//!   a **fetch thread** finishes and posts, so a GET never holds a
//!   worker;
//! - **a self-pipe waker** (`UnixStream::pair`): workers, fetch threads
//!   and the export registry nudge the reactor out of `poll` when
//!   completions land or exports are detached.
//!
//! Each connection is a little state machine
//! (`Flags → Options → Transmission → Draining`). Negotiation routes
//! `NBD_OPT_GO` names through the shared
//! [`ExportRegistry`](lsvd::fleet::ExportRegistry) (empty name = sole
//! export), answers `NBD_OPT_LIST` from the same registry, and rejects
//! unknown names with `NBD_REP_ERR_UNKNOWN` while keeping the
//! negotiation alive. Backpressure is the in-flight window: a connection
//! at its window simply loses `POLLIN` until replies drain, so a
//! pipelining client is throttled by not being read — no queue can grow
//! without bound. Detached (fenced) exports get their connections moved
//! to `Draining`: already-accepted jobs finish and their replies flush,
//! then the socket closes, which is exactly the detach contract (every
//! acknowledged write completes).

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_ulong};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use lsvd::fleet::{Export, ExportRegistry};
use telemetry::{FlightRecorder, OpenSpan, SpanRing, Stage};

use crate::proto::*;
use crate::sched::{FleetScheduler, Job};
use crate::server::MAX_IO_BYTES;

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

/// A finished job's reply, posted by a worker or a fetch thread, routed
/// by the reactor.
pub(crate) struct Completion {
    pub conn: u64,
    pub cookie: u64,
    pub error: u32,
    /// READ payload (empty otherwise), handed to the socket as-is.
    pub data: Bytes,
}

/// State shared between the reactor thread, the workers and fetch
/// threads, and the registry notify hook.
pub(crate) struct ReactorShared {
    completions: Mutex<Vec<Completion>>,
    waker_tx: UnixStream,
    pub(crate) stop: AtomicBool,
    /// Registry changed (attach/detach): re-examine conns for fenced
    /// exports.
    pub(crate) sweep: AtomicBool,
}

impl ReactorShared {
    pub(crate) fn new(waker_tx: UnixStream) -> ReactorShared {
        ReactorShared {
            completions: Mutex::new(Vec::new()),
            waker_tx,
            stop: AtomicBool::new(false),
            sweep: AtomicBool::new(false),
        }
    }

    /// Nudges the reactor out of `poll`.
    pub(crate) fn wake(&self) {
        let _ = (&self.waker_tx).write(&[1u8]);
    }

    /// Posts a finished job's reply and wakes the reactor to route it.
    pub(crate) fn complete(&self, c: Completion) {
        self.completions.lock().unwrap().push(c);
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
    /// Transmission: framing requests, routing replies.
    Transmission,
    /// No more reads; close once in-flight jobs and output drain.
    Draining,
}

struct Conn {
    stream: TcpStream,
    id: u64,
    phase: Phase,
    /// Unparsed input; `inpos` is the consumed prefix (compacted lazily).
    inbuf: Vec<u8>,
    inpos: usize,
    /// Serialized output chunks; `outpos` is the sent prefix of the front.
    out: VecDeque<Bytes>,
    outpos: usize,
    /// Set at a successful `GO`; `None` while negotiating.
    export: Option<Arc<Export>>,
    spans: Option<Arc<SpanRing>>,
    /// Jobs handed to the scheduler whose completions have not routed
    /// back yet — the in-flight window.
    inflight: usize,
    /// Request id + open decode span for a WRITE whose payload is still
    /// arriving across polls (the decode span covers payload intake).
    pending_decode: Option<(u64, Option<OpenSpan>)>,
    /// Peer closed its write side; parse what is buffered, then drain.
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream, id: u64) -> Conn {
        Conn {
            stream,
            id,
            phase: Phase::Flags,
            inbuf: Vec::new(),
            inpos: 0,
            out: VecDeque::new(),
            outpos: 0,
            export: None,
            spans: None,
            inflight: 0,
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

    fn push_out(&mut self, bytes: impl Into<Bytes>) {
        self.out.push_back(bytes.into());
    }

    fn push_reply(&mut self, cookie: u64, error: u32, data: Bytes) {
        let hdr = encode_simple_reply(&SimpleReply { error, cookie });
        self.push_out(Bytes::copy_from_slice(&hdr));
        if !data.is_empty() {
            self.push_out(data);
        }
    }

    fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    fn wants_read(&self, window: usize) -> bool {
        if self.eof {
            return false;
        }
        match self.phase {
            Phase::Flags | Phase::Options => {
                self.avail() < OPTION_HDR_LEN + MAX_OPTION_LEN as usize + 64
            }
            Phase::Transmission => self.inflight < window && self.avail() < IN_CAP,
            Phase::Draining => false,
        }
    }

    /// Whether the connection has nothing left to do and should close.
    fn drained(&self) -> bool {
        let draining = self.eof || matches!(self.phase, Phase::Draining);
        draining && self.inflight == 0 && !self.has_output()
    }
}

/// The reactor: owns the listener, the waker, and every connection.
pub(crate) struct Reactor {
    listener: TcpListener,
    waker_rx: UnixStream,
    shared: Arc<ReactorShared>,
    registry: Arc<ExportRegistry>,
    sched: Arc<FleetScheduler>,
    recorder: Option<Arc<FlightRecorder>>,
    window: usize,
    oneshot: bool,
    accepted: bool,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
}

impl Reactor {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        listener: TcpListener,
        waker_rx: UnixStream,
        shared: Arc<ReactorShared>,
        registry: Arc<ExportRegistry>,
        sched: Arc<FleetScheduler>,
        recorder: Option<Arc<FlightRecorder>>,
        window: usize,
        oneshot: bool,
    ) -> Reactor {
        Reactor {
            listener,
            waker_rx,
            shared,
            registry,
            sched,
            recorder,
            window,
            oneshot,
            accepted: false,
            conns: HashMap::new(),
            next_conn: 1,
        }
    }

    /// The reactor loop; returns once stopped and every connection has
    /// drained (or the stop deadline expires). The scheduler is stopped
    /// on the way out so workers exit after draining their queues.
    pub(crate) fn run(mut self) {
        let mut stop_seen: Option<Instant> = None;
        loop {
            if self.shared.sweep.swap(false, Ordering::AcqRel) {
                self.sweep_fenced();
            }
            let stopping = self.shared.stopping();
            if stopping {
                stop_seen.get_or_insert_with(Instant::now);
                self.close_for_stop();
                if self.conns.is_empty() || stop_seen.unwrap().elapsed() > Duration::from_secs(30) {
                    break;
                }
            } else if self.oneshot && self.accepted && self.conns.is_empty() {
                // Oneshot: the one connection came and went.
                self.shared.stop.store(true, Ordering::Release);
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
                let mut ev = 0i16;
                if !stopping && c.wants_read(self.window) {
                    ev |= POLLIN;
                }
                if c.has_output() {
                    ev |= POLLOUT;
                }
                if ev != 0 {
                    fds.push(PollFd {
                        fd: c.stream.as_raw_fd(),
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
            self.route_completions();
        }
        // Close leftovers first, then release the workers to drain
        // everything.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(c) = self.conns.remove(&id) {
                self.close_conn(c);
            }
        }
        self.sched.set_stop();
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
                    let mut c = Conn::new(stream, id);
                    let mut hello = Vec::with_capacity(18);
                    hello.extend_from_slice(&MAGIC_NBD.to_be_bytes());
                    hello.extend_from_slice(&MAGIC_IHAVEOPT.to_be_bytes());
                    hello.extend_from_slice(&(FLAG_FIXED_NEWSTYLE | FLAG_NO_ZEROES).to_be_bytes());
                    c.push_out(hello);
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
        let mut closed = Vec::new();
        for (id, c) in &mut self.conns {
            if let Some(e) = &c.export {
                if e.is_fenced() && !matches!(c.phase, Phase::Draining) {
                    c.phase = Phase::Draining;
                    if c.drained() {
                        closed.push(*id);
                    }
                }
            }
        }
        for id in closed {
            if let Some(c) = self.conns.remove(&id) {
                self.close_conn(c);
            }
        }
    }

    /// On stop: close handshake connections immediately, and negotiated
    /// ones once their in-flight jobs and output have drained.
    fn close_for_stop(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let done = {
                let c = &self.conns[&id];
                match c.phase {
                    Phase::Flags | Phase::Options => true,
                    _ => c.inflight == 0 && !c.has_output(),
                }
            };
            if done {
                if let Some(c) = self.conns.remove(&id) {
                    self.close_conn(c);
                }
            }
        }
    }

    fn route_completions(&mut self) {
        let comps: Vec<Completion> = {
            let mut guard = self.shared.completions.lock().unwrap();
            std::mem::take(&mut *guard)
        };
        if comps.is_empty() {
            return;
        }
        let mut touched = BTreeSet::new();
        for comp in comps {
            // A completion for a closed connection is dropped: its poster
            // already balanced the export's job accounting.
            if let Some(c) = self.conns.get_mut(&comp.conn) {
                c.inflight -= 1;
                c.push_reply(comp.cookie, comp.error, comp.data);
                touched.insert(comp.conn);
            }
        }
        for id in touched {
            // A freed window slot may unblock parsing; flush the reply.
            self.service_conn(id, false);
        }
    }

    /// Drives one connection: read if `readable`, parse, flush. Removes
    /// and closes it when it dies or drains.
    fn service_conn(&mut self, id: u64, readable: bool) {
        let Some(mut c) = self.conns.remove(&id) else {
            return;
        };
        let alive = self.drive(&mut c, readable);
        if alive && !c.drained() {
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
        if self.flush_out(c).is_err() {
            return false;
        }
        true
    }

    fn fill_in(&self, c: &mut Conn) -> io::Result<bool> {
        let mut tmp = [0u8; 64 << 10];
        loop {
            if !c.wants_read(self.window) {
                return Ok(false);
            }
            match (&c.stream).read(&mut tmp) {
                Ok(0) => return Ok(true),
                Ok(n) => c.inbuf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Runs the connection state machine over the buffered input.
    /// Returns `false` on a protocol violation (close immediately).
    fn advance(&mut self, c: &mut Conn) -> bool {
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
                    if self.shared.stopping() {
                        return true;
                    }
                    if c.inflight >= self.window {
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
                    if !export.job_begin() {
                        // Fenced mid-flight: fail the request without
                        // touching the (detaching) volume.
                        export.recorders().count_error();
                        c.push_reply(req.cookie, EIO, Bytes::new());
                        continue;
                    }
                    c.inflight += 1;
                    self.sched
                        .push(Job::new(c.id, req, data, export, spans, req_id, decode_id));
                }
                Phase::Draining => return true,
            }
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
                        c.push_out(encode_option_reply(OPT_GO, REP_INFO, &info));
                        c.push_out(encode_option_reply(OPT_GO, REP_ACK, b"".as_slice()));
                        export.recorders().conn_opened();
                        // Edges take the ring's short edge lock, never
                        // the volume mutex, so the reactor records them.
                        let spans = export.volume().span_ring();
                        spans.edge(None, Stage::ConnOpen, c.id, 0);
                        c.spans = Some(spans);
                        c.export = Some(export);
                        c.phase = Phase::Transmission;
                    }
                    None => {
                        c.push_out(encode_option_reply(OPT_GO, REP_ERR_UNKNOWN, b"".as_slice()));
                    }
                }
                true
            }
            OPT_LIST => {
                for e in self.registry.exports() {
                    c.push_out(encode_option_reply(
                        OPT_LIST,
                        REP_SERVER,
                        &encode_server_entry(e.name()),
                    ));
                }
                c.push_out(encode_option_reply(OPT_LIST, REP_ACK, b"".as_slice()));
                true
            }
            OPT_ABORT => {
                c.push_out(encode_option_reply(OPT_ABORT, REP_ACK, b"".as_slice()));
                c.phase = Phase::Draining;
                true
            }
            _ => {
                c.push_out(encode_option_reply(option, REP_ERR_UNSUP, b"".as_slice()));
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

    fn flush_out(&self, c: &mut Conn) -> io::Result<()> {
        let t0 = Instant::now();
        let mut wrote = false;
        while let Some(front) = c.out.front() {
            match (&c.stream).write(&front[c.outpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    wrote = true;
                    c.outpos += n;
                    if c.outpos == front.len() {
                        c.out.pop_front();
                        c.outpos = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if wrote {
            if let Some(e) = &c.export {
                e.recorders()
                    .socket_wait
                    .record_ns(t0.elapsed().as_nanos() as u64);
            }
        }
        Ok(())
    }

    fn close_conn(&self, mut c: Conn) {
        // Best-effort final flush (an ABORT ack, a last reply).
        let _ = self.flush_out(&mut c);
        let _ = c.stream.shutdown(Shutdown::Both);
        if let Some(e) = &c.export {
            e.recorders().conn_closed();
        }
        if let Some(spans) = &c.spans {
            spans.edge(None, Stage::ConnClose, c.id, 0);
        }
    }

    /// Dumps the flight recorder unless the server is stopping (stop
    /// tears down sockets on purpose; that is not evidence).
    fn dump(&self, reason: &str) {
        if self.shared.stopping() {
            return;
        }
        if let Some(rec) = &self.recorder {
            let _ = rec.dump(reason);
        }
    }
}
