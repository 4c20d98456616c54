//! Metric arithmetic, the measured Table 6 and the result line.

use std::thread::sleep;
use std::time::Duration;

use lsvd::shared::SharedVolume;
use rand::Rng;
use sim::rng::{derive_seed, rng_from_seed};
use telemetry::{LatencySnapshot, TelemetrySnapshot};

use crate::load::{Conn, Kind, Op};
use crate::probe::{Probe, C};

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Nearest-rank percentile of `sorted` ns samples, in µs.
pub fn pct_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
}

pub fn mean_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1e3
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Total recorded time of a sketch, in ns (count × mean).
fn total_ns(s: &LatencySnapshot) -> f64 {
    s.count as f64 * s.mean_ns
}

/// Mean of the samples a sketch took between two snapshots, in µs.
pub fn delta_mean_us(before: &LatencySnapshot, after: &LatencySnapshot) -> f64 {
    ratio(
        total_ns(after) - total_ns(before),
        (after.count - before.count) as f64,
    ) / 1e3
}

/// The result line: one JSON object.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, x.name, x.unit)
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

// ---------------------------------------------------------------------
// Measured Table 6
// ---------------------------------------------------------------------

/// Running sums for one Table 6 row, in ns.
#[derive(Default, Clone, Copy)]
pub struct Row {
    pub n: u64,
    client: f64,
    queue: f64,
    socket: f64,
    service: f64,
    volume: f64,
    blkdev: f64,
    objstore: f64,
}

impl Row {
    fn mean(&self, total: f64) -> f64 {
        ratio(total, self.n as f64) / 1e3
    }

    /// Share of the client mean not covered by the serving plane's own
    /// disjoint intervals (socket write, scheduler queue, service).
    pub fn gap_ratio(&self) -> f64 {
        ratio(
            self.client - self.queue - self.socket - self.service,
            self.client,
        )
    }
}

/// Rows for a 4 KiB write, a FLUSH, a read hit and a read miss.
#[derive(Default)]
pub struct Table6 {
    pub write: Row,
    pub flush: Row,
    pub hit: Row,
    pub miss: Row,
}

/// What the independently measured parts add up to at one instant.
struct Parts {
    queue: f64,
    socket: f64,
    service: f64,
    volume: [f64; 3],
    blkdev: f64,
    objstore: f64,
    misses: u64,
}

fn parts(sv: &SharedVolume, probe: &Probe) -> Result<Parts, String> {
    let t: TelemetrySnapshot = sv.telemetry().map_err(|e| format!("telemetry: {e}"))?;
    let tally = probe.tally();
    Ok(Parts {
        queue: total_ns(&t.serving.queue_wait),
        socket: total_ns(&t.serving.socket_wait),
        service: total_ns(&t.serving.service),
        volume: [
            total_ns(&t.ops.write),
            total_ns(&t.ops.read),
            total_ns(&t.ops.flush),
        ],
        blkdev: tally.get(C::DevBusyNs) as f64,
        objstore: tally.get(C::StoreBusyNs) as f64,
        misses: t.read_plane.miss_reads,
    })
}

const PROBE_OPS: u64 = 40;

/// Isolated QD1 operations on an otherwise idle server, each bracketed by
/// snapshots of every independently measured part, so that each part's
/// share of one operation is exact. Calls are timed throughout.
pub fn table6(
    sv: &SharedVolume,
    conn: &mut Conn,
    probe: &Probe,
    seed: u64,
) -> Result<Table6, String> {
    let io = |e: std::io::Error| format!("table 6 probe: {e}");
    let mut rng = rng_from_seed(derive_seed(seed, 0x7ab1e6));
    let mut t = Table6::default();
    let one = |conn: &mut Conn, op: Op| -> Result<(Row, bool), String> {
        let a = parts(sv, probe)?;
        let client = conn.sync_op(op).map_err(io)? as f64;
        // The reply's socket write is recorded just after the client may
        // already have it; let the recorder catch up.
        sleep(Duration::from_millis(1));
        let b = parts(sv, probe)?;
        let k = op.kind as usize;
        let row = Row {
            n: 1,
            client,
            queue: b.queue - a.queue,
            socket: b.socket - a.socket,
            service: b.service - a.service,
            volume: b.volume[k] - a.volume[k],
            blkdev: b.blkdev - a.blkdev,
            objstore: b.objstore - a.objstore,
        };
        Ok((row, b.misses > a.misses))
    };
    let owned = conn.model.owned.clone();
    for _ in 0..PROBE_OPS {
        let block = rng.gen_range(owned.clone());
        let write = Op {
            kind: Kind::Write,
            block,
            blocks: 1,
        };
        add(&mut t.write, one(conn, write)?.0);
        add(&mut t.flush, one(conn, Op::flush())?.0);
    }
    // Read blocks holding data until enough of them missed; a second read
    // of each is then a read-cache hit.
    let candidates: Vec<u64> = conn.model.written().collect();
    for _ in 0..PROBE_OPS * 5 {
        if t.miss.n >= PROBE_OPS || candidates.is_empty() {
            break;
        }
        let block = candidates[rng.gen_range(0..candidates.len())];
        let read = Op {
            kind: Kind::Read,
            block,
            blocks: 1,
        };
        for _ in 0..2 {
            let (row, missed) = one(conn, read)?;
            add(if missed { &mut t.miss } else { &mut t.hit }, row);
        }
    }
    Ok(t)
}

fn add(acc: &mut Row, r: Row) {
    acc.n += r.n;
    acc.client += r.client;
    acc.queue += r.queue;
    acc.socket += r.socket;
    acc.service += r.service;
    acc.volume += r.volume;
    acc.blkdev += r.blkdev;
    acc.objstore += r.objstore;
}

impl Table6 {
    pub fn print(&self, workload: &str) {
        println!("Table 6 (measured): mean cost per isolated QD1 op on {workload}, in us");
        println!(
            "{:<10} {:>4} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "op",
            "n",
            "client",
            "nbd.queue",
            "nbd.sock",
            "service",
            "volume",
            "blkdev",
            "objstore",
            "gap",
            "gap_ratio"
        );
        for (name, r) in [
            ("write 4K", &self.write),
            ("flush", &self.flush),
            ("read hit", &self.hit),
            ("read miss", &self.miss),
        ] {
            let gap = r.client - r.queue - r.socket - r.service;
            println!(
                "{name:<10} {:>4} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.3}",
                r.n,
                r.mean(r.client),
                r.mean(r.queue),
                r.mean(r.socket),
                r.mean(r.service),
                r.mean(r.volume),
                r.mean(r.blkdev),
                r.mean(r.objstore),
                r.mean(gap),
                r.gap_ratio()
            );
        }
        println!(
            "(service encloses volume; volume encloses blkdev and objstore; gap = client - \
             nbd.queue - nbd.sock - service: loopback transit and reactor hand-offs)"
        );
    }
}
