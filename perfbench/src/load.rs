//! The load generator: seeded op streams, self-describing block contents
//! and a pipelined NBD client connection over the public `nbd::proto`
//! codecs.
//!
//! Every 4 KiB block written holds bytes derived from `(block, version,
//! seed)`, so any read can be checked against the generator's own model of
//! the disk. Each connection owns a disjoint LBA range for writes and never
//! has two requests on one block in flight, so the model is exact even
//! with replies arriving out of order.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use nbd::proto::{
    decode_simple_reply, encode_request, Request, CMD_DISC, CMD_FLUSH, CMD_READ, CMD_WRITE,
    REQUEST_LEN, SIMPLE_REPLY_LEN,
};
use sim::rng::derive_seed;

/// Bytes per modelled block.
pub const BLOCK: u64 = 4096;

/// A seeded bijection on `[0, n)` for a power-of-two `n`: scatters zipf
/// ranks over the address space so that hot blocks are not neighbours.
pub fn scatter(rank: u64, n: u64, seed: u64) -> u64 {
    debug_assert!(n.is_power_of_two());
    let mask = n - 1;
    let half = n.trailing_zeros().div_ceil(2);
    let mut x = (rank ^ seed) & mask;
    x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15) & mask;
    x ^= x >> half;
    x.wrapping_mul(0xd6e8_feb8_6659_fd93) & mask
}

/// Fills one block with the contents of `(block, version)` under `seed`.
/// Version 0 is the prefill.
pub fn fill(buf: &mut [u8], block: u64, version: u32, seed: u64) {
    debug_assert_eq!(buf.len() as u64, BLOCK);
    let mut s = derive_seed(seed ^ (u64::from(version) << 40), block);
    buf[..8].copy_from_slice(&block.to_le_bytes());
    buf[8..12].copy_from_slice(&version.to_le_bytes());
    buf[12..16].copy_from_slice(&(seed as u32).to_le_bytes());
    for w in buf[16..].chunks_exact_mut(8) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        w.copy_from_slice(&s.to_le_bytes());
    }
}

/// Client operation kinds, in the order latency arrays are indexed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Write = 0,
    Read = 1,
    Flush = 2,
}

/// One client operation over `blocks` blocks starting at `block`.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: Kind,
    pub block: u64,
    pub blocks: u64,
}

impl Op {
    pub fn flush() -> Op {
        Op {
            kind: Kind::Flush,
            block: 0,
            blocks: 0,
        }
    }
}

/// The generator's model of the disk as one connection sees it.
pub struct Model {
    pub seed: u64,
    /// Blocks this connection writes; `versions` is indexed from its start.
    pub owned: Range<u64>,
    pub versions: Vec<u32>,
    /// Blocks holding version-0 data from set-up.
    pub prefilled: Range<u64>,
    /// The most recently written blocks, newest last.
    pub recent: VecDeque<u64>,
}

const RECENT: usize = 256;

impl Model {
    pub fn new(seed: u64, owned: Range<u64>, prefilled: Range<u64>) -> Model {
        let n = (owned.end - owned.start) as usize;
        Model {
            seed,
            owned,
            versions: vec![0; n],
            prefilled,
            recent: VecDeque::with_capacity(RECENT),
        }
    }

    fn version(&self, block: u64) -> u32 {
        if self.owned.contains(&block) {
            self.versions[(block - self.owned.start) as usize]
        } else {
            0
        }
    }

    /// The bytes `block` must read back as.
    pub fn expected(&self, block: u64, buf: &mut [u8]) {
        let v = self.version(block);
        if v == 0 && !self.prefilled.contains(&block) {
            buf.fill(0);
        } else {
            fill(buf, block, v, self.seed);
        }
    }

    /// Bumps the version of every block of a write and returns its payload.
    pub fn next_write(&mut self, block: u64, blocks: u64) -> Vec<u8> {
        let mut data = vec![0u8; (blocks * BLOCK) as usize];
        for (i, chunk) in data.chunks_exact_mut(BLOCK as usize).enumerate() {
            let b = block + i as u64;
            assert!(
                self.owned.contains(&b),
                "write outside the connection's range"
            );
            let v = &mut self.versions[(b - self.owned.start) as usize];
            *v += 1;
            fill(chunk, b, *v, self.seed);
            if self.recent.len() == RECENT {
                self.recent.pop_front();
            }
            self.recent.push_back(b);
        }
        data
    }

    /// Blocks that hold data (written or prefilled) in this connection's
    /// write range.
    pub fn written(&self) -> impl Iterator<Item = u64> + '_ {
        self.owned
            .clone()
            .filter(|&b| self.version(b) > 0 || self.prefilled.contains(&b))
    }

    /// Distinct blocks holding data, in this connection's write range.
    pub fn live_blocks(&self) -> u64 {
        self.written().count() as u64
    }
}

/// Per-connection results of the timed phase.
#[derive(Default)]
pub struct ConnStats {
    /// Round-trip latencies in ns, indexed by [`Kind`].
    pub lat: [Vec<u64>; 3],
    pub attempted: u64,
    pub failed: u64,
    pub user_bytes_written: u64,
}

struct Pending {
    op: Op,
    sent: Instant,
}

/// One pipelined NBD connection driving a seeded op stream.
pub struct Conn {
    tx: TcpStream,
    rx: BufReader<TcpStream>,
    qd: usize,
    next_cookie: u64,
    pending: HashMap<u64, Pending>,
    busy: HashMap<u64, u32>,
    pub model: Model,
    pub stats: ConnStats,
    /// Reads, in any phase, that did not match the model.
    pub mismatches: u64,
    /// While set (the timed phase), requests and error replies are
    /// counted, and latencies of replies that arrive by this instant are
    /// recorded. While unset, an error reply fails the connection.
    pub window: Option<Instant>,
    scratch: Vec<u8>,
    expect: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr, export: &str, qd: usize, model: Model) -> io::Result<Conn> {
        let tx = nbd::Client::connect(addr, export)?.into_raw();
        let rx = BufReader::with_capacity(1 << 20, tx.try_clone()?);
        Ok(Conn {
            tx,
            rx,
            qd,
            next_cookie: 1,
            pending: HashMap::new(),
            busy: HashMap::new(),
            model,
            stats: ConnStats::default(),
            mismatches: 0,
            window: None,
            scratch: vec![0; BLOCK as usize],
            expect: vec![0; BLOCK as usize],
        })
    }

    fn conflicts(&self, op: &Op) -> bool {
        if op.kind == Kind::Flush {
            // A flush is a barrier over acknowledged writes only; keep it
            // simple and let it wait for everything before it.
            return !self.pending.is_empty();
        }
        (op.block..op.block + op.blocks).any(|b| self.busy.contains_key(&b))
    }

    /// Sends `op` once it fits the queue depth and touches no block with a
    /// request in flight, receiving replies as needed.
    pub fn submit(&mut self, op: Op, done: &AtomicU64) -> io::Result<()> {
        while self.pending.len() >= self.qd || self.conflicts(&op) {
            self.receive(done)?;
        }
        let cookie = self.next_cookie;
        self.next_cookie += 1;
        let (cmd, payload) = match op.kind {
            Kind::Write => (CMD_WRITE, self.model.next_write(op.block, op.blocks)),
            Kind::Read => (CMD_READ, Vec::new()),
            Kind::Flush => (CMD_FLUSH, Vec::new()),
        };
        let req = Request {
            flags: 0,
            cmd,
            cookie,
            offset: op.block * BLOCK,
            length: (op.blocks * BLOCK) as u32,
        };
        let mut frame = Vec::with_capacity(REQUEST_LEN + payload.len());
        frame.extend_from_slice(&encode_request(&req));
        frame.extend_from_slice(&payload);
        for b in op.block..op.block + op.blocks {
            *self.busy.entry(b).or_insert(0) += 1;
        }
        if self.window.is_some() {
            self.stats.attempted += 1;
            if op.kind == Kind::Write {
                self.stats.user_bytes_written += payload.len() as u64;
            }
        }
        self.pending.insert(
            cookie,
            Pending {
                op,
                sent: Instant::now(),
            },
        );
        self.tx.write_all(&frame)
    }

    /// Receives one reply, checking read data against the model.
    fn receive(&mut self, done: &AtomicU64) -> io::Result<()> {
        let mut hdr = [0u8; SIMPLE_REPLY_LEN];
        self.rx.read_exact(&mut hdr)?;
        let reply = decode_simple_reply(&hdr)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad reply magic"))?;
        let p = self
            .pending
            .remove(&reply.cookie)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown reply cookie"))?;
        let now = Instant::now();
        let rtt = (now - p.sent).as_nanos() as u64;
        let op = p.op;
        if reply.error == 0 && op.kind == Kind::Read {
            for b in op.block..op.block + op.blocks {
                self.rx.read_exact(&mut self.scratch)?;
                self.model.expected(b, &mut self.expect);
                if self.scratch != self.expect {
                    self.mismatches += 1;
                    eprintln!("readback mismatch at block {b}");
                }
            }
        }
        for b in op.block..op.block + op.blocks {
            let n = self.busy.get_mut(&b).expect("in-flight block");
            *n -= 1;
            if *n == 0 {
                self.busy.remove(&b);
            }
        }
        done.fetch_add(1, Relaxed);
        if reply.error != 0 {
            if self.window.is_none() {
                return Err(io::Error::other(format!(
                    "{:?} at block {} failed with error {}",
                    op.kind, op.block, reply.error
                )));
            }
            self.stats.failed += 1;
        } else if self.window.is_some_and(|end| now <= end) {
            self.stats.lat[op.kind as usize].push(rtt);
        }
        Ok(())
    }

    /// Receives every outstanding reply.
    pub fn drain(&mut self, done: &AtomicU64) -> io::Result<()> {
        while !self.pending.is_empty() {
            self.receive(done)?;
        }
        Ok(())
    }

    /// One operation at queue depth 1; returns its round trip in ns.
    pub fn sync_op(&mut self, op: Op) -> io::Result<u64> {
        let done = AtomicU64::new(0);
        self.drain(&done)?;
        let t0 = Instant::now();
        self.submit(op, &done)?;
        self.drain(&done)?;
        Ok(t0.elapsed().as_nanos() as u64)
    }

    /// Sends an orderly disconnect and hands back the disk model.
    pub fn disconnect(mut self) -> io::Result<Model> {
        let req = Request {
            flags: 0,
            cmd: CMD_DISC,
            cookie: self.next_cookie,
            offset: 0,
            length: 0,
        };
        self.tx.write_all(&encode_request(&req))?;
        Ok(self.model)
    }
}

/// A seeded op stream for one connection.
pub trait OpStream: Send {
    fn next_op(&mut self) -> Op;
}

/// Drives `conn` from `ops` until `stop` says so, then collects every
/// outstanding reply. `done` counts completed requests.
pub fn drive(
    conn: &mut Conn,
    ops: &mut dyn OpStream,
    done: &AtomicU64,
    mut stop: impl FnMut(u64) -> bool,
) -> io::Result<()> {
    let mut issued = 0u64;
    while !stop(issued) {
        let op = ops.next_op();
        conn.submit(op, done)?;
        issued += 1;
    }
    conn.drain(done)
}
