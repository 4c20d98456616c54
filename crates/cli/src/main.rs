//! `lsvdctl` — manage log-structured virtual disks from the command line.
//!
//! The "bucket" is a host directory (one file per backend object, via
//! [`objstore::DirStore`]) and the cache SSD is a flat file, so every LSVD
//! mechanism — log records, object stream, checkpoints, snapshots, clones,
//! replication, recovery — runs against real persistent state you can
//! inspect with `ls`.
//!
//! ```text
//! lsvdctl create    <bucket> <image> <size>          # e.g. size 256M, 4G
//! lsvdctl info      <bucket> <image>
//! lsvdctl ls        <bucket>
//! lsvdctl write     <bucket> <image> <offset>        # data from stdin
//! lsvdctl read      <bucket> <image> <offset> <len>  # raw data to stdout
//! lsvdctl fill      <bucket> <image> <offset> <len> <byte>
//! lsvdctl trim      <bucket> <image> <offset> <len>  # discard a range
//! lsvdctl check     <bucket> <image>                 # offline integrity verify (read-only)
//! lsvdctl snapshot  <bucket> <image> <name>
//! lsvdctl snapshots <bucket> <image>
//! lsvdctl clone     <bucket> <base> <new> [snapshot]
//! lsvdctl gc        <bucket> <image>
//! lsvdctl stats     <bucket> <image> [json|prom]     # live telemetry snapshot
//! lsvdctl replicate <src-bucket> <dst-bucket> <image>
//! lsvdctl gen-trace <kind> <out.trace> <ops>    # kind: randwrite|randread|varmail|oltp|fileserver
//! lsvdctl replay    <bucket> <image> <trace>    # apply a trace to a volume
//!
//! # network serving plane (crates/nbd)
//! lsvdctl serve         <bucket> <image> [<image> ...] [--addr 127.0.0.1:10809]
//!                       [--oneshot] [--metrics-addr 127.0.0.1:9090]
//!                       [--blackbox-dir <dir>] [--control-addr 127.0.0.1:10810]
//!                       # every image becomes a named NBD export on one
//!                       # shared reactor (a fleet node)
//! lsvdctl export list                      --control-addr <host:port>
//! lsvdctl export create <name> <size>      --control-addr <host:port>
//! lsvdctl export attach <name>             --control-addr <host:port>
//! lsvdctl export detach <name>             --control-addr <host:port>
//! lsvdctl nbd-roundtrip <bucket> <image>   # loopback smoke: serve + client
//! lsvdctl blackbox      <file>             # render a flight-recorder dump
//!
//! # one cache SSD shared by many volumes (§3.1)
//! lsvdctl host format <cache.img> <size>
//! lsvdctl host ls     <bucket> <cache.img>
//! lsvdctl host create <bucket> <cache.img> <image> <size> <cache-size>
//! lsvdctl host attach <bucket> <cache.img> <image> <cache-size>
//! lsvdctl host detach <bucket> <cache.img> <image>
//!
//! options: --cache <path>     cache file (default <image>.cache; single image only)
//!          --cache-size <n>   cache file size (default 256M)
//!          --addr <a>         serve listen address (default 127.0.0.1:10809)
//!          --oneshot          serve one connection, then shut down cleanly
//!          --metrics-addr <a> serve /metrics, /snapshot and
//!                             /trace?export=NAME over HTTP; also enables
//!                             request-span tracing
//!          --blackbox-dir <d> arm the flight recorder: dump every export's
//!                             span ring into <d> on terminal errors,
//!                             connection aborts and panics
//!          --control-addr <a> serve: bind the fleet control socket there;
//!                             export commands: the node to talk to
//! ```
//!
//! Every command exits 0 on success and nonzero with a message on stderr
//! otherwise, so scripts and CI can gate on `lsvdctl`: 1 for runtime
//! failures, 2 for rejected command lines (bad listen address, duplicate
//! export names).

use std::io::{Read, Write};
use std::process::exit;
use std::sync::Arc;

use blkdev::FileDisk;
use lsvd::config::VolumeConfig;
use lsvd::host::Host;
use lsvd::replication::Replicator;
use lsvd::shared::SharedVolume;
use lsvd::volume::Volume;
use nbd::server::ServerConfig;
use objstore::{DirStore, ObjectStore};
use workloads::filebench::{FilebenchSpec, Personality};
use workloads::fio::FioSpec;
use workloads::replay::{TraceRecord, TraceWorkload, TraceWriter};
use workloads::{IoOp, Workload};

type CmdResult = Result<(), CliError>;

/// Typed command failures, so scripts can distinguish a rejected command
/// line (exit 2) from a runtime failure (exit 1).
#[derive(Debug)]
enum CliError {
    /// A listen/control address that does not resolve — rejected before
    /// any volume is opened.
    BadAddr(String),
    /// Two images on a `serve` command line share an export name.
    DuplicateExport(String),
    /// Everything else (I/O, corrupt state, protocol errors).
    Msg(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::BadAddr(a) => write!(f, "{a} (want host:port)"),
            CliError::DuplicateExport(n) => write!(f, "duplicate export name {n:?}"),
            CliError::Msg(m) => f.write_str(m),
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> CliError {
        CliError::Msg(m)
    }
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::BadAddr(_) | CliError::DuplicateExport(_) => 2,
            CliError::Msg(_) => 1,
        }
    }
}

/// Rejects an address that cannot resolve to a socket address, before any
/// state is touched (a fleet node with a typo'd `--addr` must not open —
/// and implicitly lock — its images first).
fn validate_addr(addr: &str, flag: &str) -> Result<(), CliError> {
    use std::net::ToSocketAddrs;
    match addr.to_socket_addrs() {
        Ok(mut it) => match it.next() {
            Some(_) => Ok(()),
            None => Err(CliError::BadAddr(format!("{flag}: bad address {addr:?}"))),
        },
        Err(_) => Err(CliError::BadAddr(format!("{flag}: bad address {addr:?}"))),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("lsvdctl: {msg}");
    exit(1)
}

fn parse_size(s: &str) -> Result<u64, String> {
    let (num, mult) = match s.as_bytes().last() {
        Some(b'K' | b'k') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'M' | b'm') => (&s[..s.len() - 1], 1 << 20),
        Some(b'G' | b'g') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>()
        .map(|n| n * mult)
        .map_err(|_| format!("bad size {s}"))
}

struct Opts {
    args: Vec<String>,
    cache: Option<String>,
    cache_size: u64,
    addr: String,
    oneshot: bool,
    metrics_addr: Option<String>,
    blackbox_dir: Option<String>,
    control_addr: Option<String>,
}

fn parse_opts() -> Opts {
    let mut args = Vec::new();
    let mut cache = None;
    let mut cache_size = 256 << 20;
    let mut addr = "127.0.0.1:10809".to_string();
    let mut oneshot = false;
    let mut metrics_addr = None;
    let mut blackbox_dir = None;
    let mut control_addr = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cache" => cache = Some(it.next().unwrap_or_else(|| die("--cache needs a path"))),
            "--cache-size" => {
                cache_size = parse_size(
                    &it.next()
                        .unwrap_or_else(|| die("--cache-size needs a size")),
                )
                .unwrap_or_else(|e| die(&e))
            }
            "--addr" => addr = it.next().unwrap_or_else(|| die("--addr needs an address")),
            "--oneshot" => oneshot = true,
            "--metrics-addr" => {
                metrics_addr = Some(it.next().unwrap_or_else(|| {
                    die("--metrics-addr needs an address (e.g. 127.0.0.1:9090)")
                }))
            }
            "--blackbox-dir" => {
                blackbox_dir = Some(
                    it.next()
                        .unwrap_or_else(|| die("--blackbox-dir needs a directory")),
                )
            }
            "--control-addr" => {
                control_addr = Some(it.next().unwrap_or_else(|| {
                    die("--control-addr needs an address (e.g. 127.0.0.1:10810)")
                }))
            }
            "--help" | "-h" => {
                eprintln!(
                    "see `lsvdctl` module docs; commands: create info ls write read fill trim \
                     check snapshot snapshots clone gc stats replicate gen-trace replay serve \
                     nbd-roundtrip blackbox host"
                );
                exit(0);
            }
            other => args.push(other.to_string()),
        }
    }
    Opts {
        args,
        cache,
        cache_size,
        addr,
        oneshot,
        metrics_addr,
        blackbox_dir,
        control_addr,
    }
}

fn open_store(bucket: &str) -> Result<Arc<dyn ObjectStore>, String> {
    Ok(Arc::new(
        DirStore::open(bucket).map_err(|e| format!("open bucket {bucket}: {e}"))?,
    ))
}

fn open_cache(opts: &Opts, image: &str) -> Result<Arc<FileDisk>, String> {
    let path = opts
        .cache
        .clone()
        .unwrap_or_else(|| format!("{image}.cache"));
    Ok(Arc::new(
        FileDisk::create(&path, opts.cache_size).map_err(|e| format!("cache file {path}: {e}"))?,
    ))
}

fn open_volume(opts: &Opts, bucket: &str, image: &str) -> Result<Volume, String> {
    let store = open_store(bucket)?;
    let cache = open_cache(opts, image)?;
    Volume::open(store, cache, image, VolumeConfig::default())
        .map_err(|e| format!("open {image}: {e}"))
}

fn open_host(bucket: &str, cache_path: &str) -> Result<Host, String> {
    let store = open_store(bucket)?;
    let dev = Arc::new(FileDisk::open(cache_path).map_err(|e| format!("cache {cache_path}: {e}"))?);
    Host::open(dev, store).map_err(|e| format!("open host: {e}"))
}

fn shutdown(vol: Volume) -> CmdResult {
    Ok(vol.shutdown().map_err(|e| format!("shutdown: {e}"))?)
}

fn main() {
    let opts = parse_opts();
    if let Err(err) = run(&opts) {
        eprintln!("lsvdctl: {err}");
        exit(err.exit_code());
    }
}

fn run(opts: &Opts) -> CmdResult {
    let a: Vec<&str> = opts.args.iter().map(|s| s.as_str()).collect();
    match a.as_slice() {
        ["create", bucket, image, size] => {
            let store = open_store(bucket)?;
            let cache = open_cache(opts, image)?;
            let vol = Volume::create(
                store,
                cache,
                image,
                parse_size(size)?,
                VolumeConfig::default(),
            )
            .map_err(|e| format!("create: {e}"))?;
            println!(
                "created {image}: {} bytes, uuid {:#018x}",
                vol.size(),
                vol.uuid()
            );
            shutdown(vol)
        }
        ["info", bucket, image] => {
            let vol = open_volume(opts, bucket, image)?;
            let (live, total) = vol.backend_totals();
            println!("image:        {}", vol.image());
            println!("uuid:         {:#018x}", vol.uuid());
            println!("size:         {} bytes", vol.size());
            println!("last object:  {}", vol.last_object_seq());
            println!("map extents:  {}", vol.map_extent_count());
            println!(
                "backend:      {} live / {} total sectors ({:.0}% utilization)",
                live,
                total,
                if total > 0 {
                    live as f64 / total as f64 * 100.0
                } else {
                    100.0
                }
            );
            println!("snapshots:    {:?}", vol.snapshots());
            shutdown(vol)
        }
        ["ls", bucket] => {
            let store = open_store(bucket)?;
            for name in store.list("").map_err(|e| format!("list: {e}"))? {
                let size = store.head(&name).map_err(|e| format!("head {name}: {e}"))?;
                println!("{size:>12}  {name}");
            }
            Ok(())
        }
        ["write", bucket, image, offset] => {
            let mut vol = open_volume(opts, bucket, image)?;
            let mut data = Vec::new();
            std::io::stdin()
                .read_to_end(&mut data)
                .map_err(|e| format!("stdin: {e}"))?;
            // Pad to sector alignment (tools pipe arbitrary bytes).
            let pad = (512 - data.len() % 512) % 512;
            data.resize(data.len() + pad, 0);
            vol.write(parse_size(offset)?, &data)
                .map_err(|e| format!("write: {e}"))?;
            vol.flush().map_err(|e| format!("flush: {e}"))?;
            println!("wrote {} bytes (padded {pad})", data.len());
            shutdown(vol)
        }
        ["read", bucket, image, offset, len] => {
            let mut vol = open_volume(opts, bucket, image)?;
            let mut buf = vec![0u8; parse_size(len)? as usize];
            vol.read(parse_size(offset)?, &mut buf)
                .map_err(|e| format!("read: {e}"))?;
            std::io::stdout()
                .write_all(&buf)
                .map_err(|e| format!("stdout: {e}"))?;
            shutdown(vol)
        }
        ["fill", bucket, image, offset, len, byte] => {
            let mut vol = open_volume(opts, bucket, image)?;
            let b: u8 = byte.parse().map_err(|_| "bad byte".to_string())?;
            vol.write(parse_size(offset)?, &vec![b; parse_size(len)? as usize])
                .map_err(|e| format!("write: {e}"))?;
            shutdown(vol)?;
            println!("filled");
            Ok(())
        }
        ["trim", bucket, image, offset, len] => {
            let mut vol = open_volume(opts, bucket, image)?;
            vol.discard(parse_size(offset)?, parse_size(len)?)
                .map_err(|e| format!("trim: {e}"))?;
            vol.flush().map_err(|e| format!("flush: {e}"))?;
            println!("trimmed");
            shutdown(vol)
        }
        ["check", bucket, image] => Ok(cmd_check(bucket, image)?),
        ["snapshot", bucket, image, name] => {
            let mut vol = open_volume(opts, bucket, image)?;
            let seq = vol.snapshot(name).map_err(|e| format!("snapshot: {e}"))?;
            println!("snapshot {name} at object {seq}");
            shutdown(vol)
        }
        ["snapshots", bucket, image] => {
            let vol = open_volume(opts, bucket, image)?;
            for (name, seq) in vol.snapshots() {
                println!("{seq:>10}  {name}");
            }
            shutdown(vol)
        }
        ["clone", bucket, base, new] => {
            let store = open_store(bucket)?;
            Volume::clone_image(&store, base, None, new).map_err(|e| format!("clone: {e}"))?;
            println!("cloned {base} -> {new}");
            Ok(())
        }
        ["clone", bucket, base, new, snapshot] => {
            let store = open_store(bucket)?;
            Volume::clone_image(&store, base, Some(snapshot), new)
                .map_err(|e| format!("clone: {e}"))?;
            println!("cloned {base}@{snapshot} -> {new}");
            Ok(())
        }
        ["gc", bucket, image] => {
            let mut vol = open_volume(opts, bucket, image)?;
            let collected = vol.run_gc().map_err(|e| format!("gc: {e}"))?;
            let (live, total) = vol.backend_totals();
            println!(
                "collected {collected} objects; utilization now {:.0}%",
                if total > 0 {
                    live as f64 / total as f64 * 100.0
                } else {
                    100.0
                }
            );
            shutdown(vol)
        }
        ["stats", bucket, image] | ["stats", bucket, image, "report"] => {
            let vol = open_volume(opts, bucket, image)?;
            print!("{}", vol.telemetry().report());
            shutdown(vol)
        }
        ["stats", bucket, image, "json"] => {
            let vol = open_volume(opts, bucket, image)?;
            println!("{}", vol.telemetry().to_json().render());
            shutdown(vol)
        }
        ["stats", bucket, image, "prom"] => {
            let vol = open_volume(opts, bucket, image)?;
            print!("{}", vol.telemetry().to_prometheus());
            shutdown(vol)
        }
        ["serve", bucket, images @ ..] if !images.is_empty() => cmd_serve(opts, bucket, images),
        ["export", rest @ ..] => cmd_export(opts, rest),
        ["blackbox", file] => {
            let text = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
            let rendered =
                telemetry::render_blackbox(&text).map_err(|e| format!("render {file}: {e}"))?;
            print!("{rendered}");
            Ok(())
        }
        ["nbd-roundtrip", bucket, image] => Ok(nbd_roundtrip(opts, bucket, image)?),
        ["gen-trace", kind, out, ops] => {
            let n: u64 = ops.parse().map_err(|_| "bad op count".to_string())?;
            let mut w: Box<dyn Workload> = match *kind {
                "randwrite" => Box::new(FioSpec::randwrite(16 << 10, 42).thread(0, 1)),
                "randread" => Box::new(FioSpec::randread(16 << 10, 42).thread(0, 1)),
                "varmail" => Box::new(FilebenchSpec::paper(Personality::Varmail, 42).thread(0, 1)),
                "oltp" => Box::new(FilebenchSpec::paper(Personality::Oltp, 42).thread(0, 1)),
                "fileserver" => {
                    Box::new(FilebenchSpec::paper(Personality::Fileserver, 42).thread(0, 1))
                }
                other => return Err(format!("unknown workload kind {other}").into()),
            };
            let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
            let mut tw = TraceWriter::new(std::io::BufWriter::new(file))
                .map_err(|e| format!("trace: {e}"))?;
            for _ in 0..n {
                tw.push(TraceRecord {
                    dt_us: 0,
                    op: w.next_op(),
                })
                .map_err(|e| format!("trace push: {e}"))?;
            }
            let count = tw.finish().map_err(|e| format!("trace finish: {e}"))?;
            println!("wrote {count} records to {out}");
            Ok(())
        }
        ["replay", bucket, image, trace] => {
            let mut vol = open_volume(opts, bucket, image)?;
            let file = std::fs::File::open(trace).map_err(|e| format!("open {trace}: {e}"))?;
            let mut tw = TraceWorkload::load(std::io::BufReader::new(file))
                .map_err(|e| format!("load trace: {e}"))?;
            let span = vol.size();
            let (mut reads, mut writes, mut flushes) = (0u64, 0u64, 0u64);
            for _ in 0..tw.len() {
                match tw.next_op() {
                    IoOp::Write { lba, sectors } => {
                        let off = (lba * 512) % span;
                        let len = (sectors as u64 * 512).min(span - off);
                        vol.write(off, &vec![0xABu8; len as usize])
                            .map_err(|e| format!("replay write: {e}"))?;
                        writes += 1;
                    }
                    IoOp::Read { lba, sectors } => {
                        let off = (lba * 512) % span;
                        let len = (sectors as u64 * 512).min(span - off);
                        let mut buf = vec![0u8; len as usize];
                        vol.read(off, &mut buf)
                            .map_err(|e| format!("replay read: {e}"))?;
                        reads += 1;
                    }
                    IoOp::Flush => {
                        vol.flush().map_err(|e| format!("replay flush: {e}"))?;
                        flushes += 1;
                    }
                    IoOp::Sleep { .. } => {}
                }
            }
            let s = vol.stats();
            println!(
                "replayed {writes} writes / {reads} reads / {flushes} flushes;                  WAF {:.2}, {} backend GETs",
                s.write_amplification(),
                s.backend_gets
            );
            print!("{}", vol.telemetry().report());
            shutdown(vol)
        }
        ["host", "format", cache_path, size] => {
            let dev = Arc::new(
                FileDisk::create(cache_path, parse_size(size)?)
                    .map_err(|e| format!("cache file {cache_path}: {e}"))?,
            );
            // The store is only needed for volume operations; formatting a
            // host cache just writes the empty partition table.
            let store: Arc<dyn ObjectStore> = Arc::new(objstore::MemStore::new());
            Host::format(dev, store).map_err(|e| format!("host format: {e}"))?;
            println!("formatted {cache_path} as a host cache ({size})");
            Ok(())
        }
        ["host", "ls", bucket, cache_path] => {
            let host = open_host(bucket, cache_path)?;
            println!("{:>12} {:>12}  image", "offset", "bytes");
            for p in host.partitions() {
                println!("{:>12} {:>12}  {}", p.offset_bytes, p.len_bytes, p.image);
            }
            println!("free: {} bytes", host.free_bytes());
            Ok(())
        }
        ["host", "create", bucket, cache_path, image, size, cache_size] => {
            let mut host = open_host(bucket, cache_path)?;
            let vol = host
                .create_volume(
                    image,
                    parse_size(size)?,
                    parse_size(cache_size)?,
                    VolumeConfig::default(),
                )
                .map_err(|e| format!("host create: {e}"))?;
            println!("created {image} ({} bytes) on {cache_path}", vol.size());
            shutdown(vol)
        }
        ["host", "attach", bucket, cache_path, image, cache_size] => {
            let mut host = open_host(bucket, cache_path)?;
            let vol = host
                .attach_volume(image, parse_size(cache_size)?, VolumeConfig::default())
                .map_err(|e| format!("host attach: {e}"))?;
            println!("attached {image} ({} bytes) on {cache_path}", vol.size());
            shutdown(vol)
        }
        ["host", "detach", bucket, cache_path, image] => {
            let mut host = open_host(bucket, cache_path)?;
            host.detach(image)
                .map_err(|e| format!("host detach: {e}"))?;
            println!("detached {image} (backend volume untouched)");
            Ok(())
        }
        ["replicate", src, dst, image] => {
            let primary = open_store(src)?;
            let replica = open_store(dst)?;
            let mut r = Replicator::new(primary, replica, image);
            let copied = r.step(u32::MAX).map_err(|e| format!("replicate: {e}"))?;
            let s = r.stats();
            println!(
                "copied {copied} objects ({} bytes); {} skipped as GC'd",
                s.bytes_copied, s.objects_skipped_deleted
            );
            Ok(())
        }
        _ => Err(CliError::Msg(
            "usage: lsvdctl <create|info|ls|write|read|fill|trim|check|snapshot|snapshots|clone|\
             gc|stats|replicate|gen-trace|replay|serve|export|nbd-roundtrip|blackbox|host> \
             ... (--help)"
                .to_string(),
        )),
    }
}

/// `lsvdctl serve <bucket> <image> [<image> ...]`: a fleet node. Every
/// image is opened and attached to one [`lsvd::fleet::ExportRegistry`] as
/// a named NBD export, all of them served by a single poll reactor and a
/// shared worker pool ([`nbd::serve_fleet`]). `--control-addr` adds the
/// line-oriented control socket so `lsvdctl export ...` can create,
/// attach and detach exports while the node runs.
fn cmd_serve(opts: &Opts, bucket: &str, images: &[&str]) -> CmdResult {
    use lsvd::fleet::{ControlServer, ExportRegistry, Provisioner};

    // Reject a bad command line before opening (and mutating) any image.
    validate_addr(&opts.addr, "--addr")?;
    if let Some(caddr) = &opts.control_addr {
        validate_addr(caddr, "--control-addr")?;
    }
    let mut seen = std::collections::BTreeSet::new();
    for image in images {
        if !seen.insert(*image) {
            return Err(CliError::DuplicateExport((*image).to_string()));
        }
    }
    if opts.cache.is_some() && images.len() > 1 {
        return Err("--cache names one file; it cannot back multiple images"
            .to_string()
            .into());
    }

    let registry = Arc::new(ExportRegistry::new());
    for image in images {
        let vol = open_volume(opts, bucket, image)?;
        registry
            .attach(image, SharedVolume::new(vol))
            .map_err(|e| format!("attach {image}: {e}"))?;
    }
    let exports = registry.exports();

    // Observability riders: either flag turns span tracing on for every
    // export, those the control socket adds later included — the rings
    // are sized for a sustained burst and cost nothing when idle, and
    // both exporters are useless without spans.
    let tracing = opts.metrics_addr.is_some() || opts.blackbox_dir.is_some();
    if tracing {
        for e in &exports {
            e.volume().span_ring().set_enabled(true);
        }
    }
    // The flight recorder dumps the span ring of every export attached
    // at dump time, edges included, so exports the control socket adds
    // later are dumped too; the fingerprint names the first export.
    let recorder = match &opts.blackbox_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("blackbox dir {dir}: {e}"))?;
            let sv = exports[0].volume();
            let fingerprint = sv
                .with_volume(|v| {
                    format!(
                        "image={} uuid={:#018x} size={} cfg={:?} exports={}",
                        v.image(),
                        v.uuid(),
                        v.size(),
                        v.config(),
                        images.len()
                    )
                })
                .map_err(|e| format!("fingerprint: {e}"))?;
            let rreg = registry.clone();
            let rings: telemetry::RingsFn = Box::new(move || {
                rreg.exports()
                    .iter()
                    .map(|e| (e.name().to_string(), e.volume().span_ring()))
                    .collect()
            });
            let rec = telemetry::FlightRecorder::new(rings, fingerprint, dir.clone(), 1024);
            // Catch panics anywhere in the process.
            rec.install_panic_hook();
            println!("flight recorder armed, dumping to {dir}");
            Some(rec)
        }
        None => None,
    };
    let _metrics = match &opts.metrics_addr {
        Some(maddr) => {
            // The registry snapshot aggregates every export and carries
            // the per-tenant breakdown, so /metrics grows one labeled
            // family per export.
            let mreg = registry.clone();
            // `/trace?export=NAME` reads that export's ring, looked up per
            // request so exports attached later are traced too; without
            // a name only a single-export node has a default.
            let treg = registry.clone();
            let trace: telemetry::TraceFn = Box::new(move |name| {
                let export = if name.is_empty() {
                    treg.sole_export()
                } else {
                    treg.get(name)
                };
                export.map(|e| e.volume().span_ring()).ok_or_else(|| {
                    let code = if name.is_empty() { 400 } else { 404 };
                    let names = treg.list().join(" ");
                    (
                        code,
                        format!("name an export, /trace?export=NAME: {names}\n"),
                    )
                })
            });
            let server = telemetry::MetricsServer::start(
                maddr.as_str(),
                Box::new(move || Some(mreg.telemetry())),
                trace,
            )
            .map_err(|e| format!("metrics {maddr}: {e}"))?;
            println!(
                "metrics at http://{0}/metrics, http://{0}/snapshot, http://{0}/trace",
                server.addr()
            );
            Some(server)
        }
        None => None,
    };
    drop(exports);

    let cfg = ServerConfig {
        oneshot: opts.oneshot,
        recorder,
    };
    let handle = nbd::serve_fleet(&opts.addr, registry.clone(), cfg)
        .map_err(|e| format!("serve {}: {e}", opts.addr))?;
    for image in images {
        println!(
            "serving {image} at nbd://{}/{image}{}",
            handle.addr(),
            if opts.oneshot { " (oneshot)" } else { "" }
        );
    }
    let control = match &opts.control_addr {
        Some(caddr) => {
            // CREATE/ATTACH provision volumes in this node's bucket, each
            // with its own `<name>.cache` file of the configured size.
            let bucket = bucket.to_string();
            let cache_size = opts.cache_size;
            let prov: Provisioner = Box::new(move |name, size| {
                let store: Arc<dyn ObjectStore> =
                    Arc::new(DirStore::open(&bucket).map_err(|e| {
                        lsvd::LsvdError::BadVolume(format!("open bucket {bucket}: {e}"))
                    })?);
                let cache = Arc::new(
                    FileDisk::create(format!("{name}.cache"), cache_size).map_err(|e| {
                        lsvd::LsvdError::BadVolume(format!("cache {name}.cache: {e}"))
                    })?,
                );
                let vol = match size {
                    Some(bytes) => {
                        Volume::create(store, cache, name, bytes, VolumeConfig::default())?
                    }
                    None => Volume::open(store, cache, name, VolumeConfig::default())?,
                };
                let sv = SharedVolume::new(vol);
                sv.span_ring().set_enabled(tracing);
                Ok(sv)
            });
            let ctl = ControlServer::serve(caddr.as_str(), registry.clone(), Some(prov))
                .map_err(|e| format!("control {caddr}: {e}"))?;
            println!("control socket at {}", ctl.addr());
            Some(ctl)
        }
        None => None,
    };
    // Oneshot returns after the first connection closes; otherwise this
    // serves until the process is killed (recovery replays the cache tail
    // on the next open).
    handle.join();
    if let Some(ctl) = control {
        ctl.stop();
    }
    // Detach drains in-flight jobs, then flushes and checkpoints each
    // volume.
    for name in registry.list() {
        registry
            .detach(&name)
            .map_err(|e| format!("shutdown {name}: {e}"))?;
    }
    println!("drained and checkpointed; clean shutdown");
    Ok(())
}

/// `lsvdctl export <list|create|attach|detach> ... --control-addr <a>`:
/// drive a running fleet node's control socket. Replies are printed
/// verbatim; an `ERR` reply exits nonzero.
fn cmd_export(opts: &Opts, rest: &[&str]) -> CmdResult {
    let line = match rest {
        ["list"] => "LIST".to_string(),
        ["create", name, size] => format!("CREATE {name} {}", parse_size(size)?),
        ["attach", name] => format!("ATTACH {name}"),
        ["detach", name] => format!("DETACH {name}"),
        _ => {
            return Err(
                "usage: lsvdctl export <list|create <name> <size>|attach <name>|\
                 detach <name>> --control-addr <host:port>"
                    .to_string()
                    .into(),
            )
        }
    };
    let addr = opts
        .control_addr
        .as_deref()
        .ok_or_else(|| CliError::Msg("export commands need --control-addr <host:port>".into()))?;
    validate_addr(addr, "--control-addr")?;
    let reply =
        lsvd::fleet::control_request(addr, &line).map_err(|e| format!("control {addr}: {e}"))?;
    if let Some(err) = reply.strip_prefix("ERR ") {
        return Err(format!("control: {}", err.trim_end()).into());
    }
    print!("{reply}");
    Ok(())
}

/// Offline, read-only integrity check of an image's backend state: parses
/// the superblock and every checkpoint, verifies every data object's
/// header and per-extent CRC32C, and cross-checks the recovered map's
/// references against the objects they point into. Stranded objects
/// beyond the prefix cut are *reported*, never deleted — unlike
/// `Volume::open`, a verifier must not mutate the bucket. Exits nonzero
/// with a per-object report if anything fails.
fn cmd_check(bucket: &str, image: &str) -> Result<(), String> {
    use lsvd::checkpoint::CheckpointData;
    use lsvd::crc::crc32c;
    use lsvd::types::{object_name, parse_object_seq, ObjSeq, SECTOR};
    use std::collections::HashMap;

    let store = open_store(bucket)?;
    let store = store.as_ref();
    // `upto = Some(MAX)` walks the same consecutive prefix a read-write
    // open would recover, but keeps recovery side-effect free.
    let rb = lsvd::recovery::recover_backend(store, image, Some(ObjSeq::MAX))
        .map_err(|e| format!("recover {image}: {e}"))?;
    let uuid = rb.superblock.uuid;
    let mut problems = 0usize;
    let mut stranded = 0usize;

    // One listing names the image's own data objects and its checkpoints.
    let mut names = store
        .list(&format!("{image}."))
        .map_err(|e| format!("list: {e}"))?;
    names.sort();

    // Per-object verification of the image's own stream.
    let mut seqs: Vec<ObjSeq> = names
        .iter()
        .filter_map(|n| parse_object_seq(image, n))
        .collect();
    seqs.sort_unstable();
    for &seq in &seqs {
        let name = object_name(image, seq);
        let mut flaws: Vec<String> = Vec::new();
        let mut desc = String::new();
        match store.get(&name) {
            Err(e) => flaws.push(format!("GET failed: {e}")),
            Ok(obj) => match lsvd::objfmt::parse_data_header(&obj) {
                Err(e) => flaws.push(format!("corrupt header: {e}")),
                Ok(h) => {
                    desc = format!(
                        "seq={} cseq={} gc={} extents={} trims={} {} bytes",
                        h.seq,
                        h.last_cache_seq,
                        h.gc,
                        h.extents.len(),
                        h.trims.len(),
                        obj.len()
                    );
                    if h.uuid != uuid && seq >= rb.superblock.own_first_seq() {
                        flaws.push(format!("foreign uuid {:#018x}", h.uuid));
                    }
                    if h.seq != seq {
                        flaws.push(format!("header seq {} != name seq {seq}", h.seq));
                    }
                    let mut off = h.data_offset as usize;
                    for (i, &(lba, sectors)) in h.extents.iter().enumerate() {
                        let len = sectors as usize * SECTOR as usize;
                        if off + len > obj.len() {
                            flaws.push(format!("extent {i} (vLBA {lba}) runs past the object end"));
                            break;
                        }
                        if crc32c(&obj[off..off + len]) != h.extent_crcs[i] {
                            flaws.push(format!(
                                "extent {i} (vLBA {lba}, {sectors} sectors) payload CRC mismatch"
                            ));
                        }
                        off += len;
                    }
                }
            },
        }
        let tail = if seq > rb.last_seq {
            stranded += 1;
            "  [stranded beyond the prefix cut]"
        } else {
            ""
        };
        if flaws.is_empty() {
            println!(" ok {name}: {desc}{tail}");
        } else {
            problems += flaws.len();
            for f in &flaws {
                println!("BAD {name}: {f}{tail}");
            }
        }
    }

    // Every checkpoint must parse against the volume UUID.
    let ckpt_prefix = format!("{image}.ckpt.");
    let ckpts: Vec<&String> = names
        .iter()
        .filter(|n| n.starts_with(&ckpt_prefix))
        .collect();
    for name in &ckpts {
        match store
            .get(name)
            .map_err(|e| format!("GET failed: {e}"))
            .and_then(|o| CheckpointData::parse(&o, uuid).map_err(|e| format!("corrupt: {e}")))
        {
            Ok(ck) => println!(
                " ok {name}: covers seq {}, frontier {}, {} snapshot(s)",
                ck.covers_seq,
                ck.frontier,
                ck.snapshots.len()
            ),
            Err(e) => {
                println!("BAD {name}: {e}");
                problems += 1;
            }
        }
    }

    // Map cross-check: every recovered extent must point inside the data
    // region of an object that still exists (clone ancestors included).
    let mut data_sectors: HashMap<ObjSeq, Option<u64>> = HashMap::new();
    let mut map_extents = 0usize;
    for (lba, len, loc) in rb.objmap.map_extents() {
        map_extents += 1;
        let span = data_sectors.entry(loc.seq).or_insert_with(|| {
            let name = object_name(rb.superblock.stream_for(loc.seq), loc.seq);
            match lsvd::recovery::fetch_header(store, &name) {
                Ok(Some(h)) => Some(h.data_sectors()),
                _ => None,
            }
        });
        match *span {
            None => {
                println!(
                    "BAD map: vLBA {lba}+{len} points at missing object seq {}",
                    loc.seq
                );
                problems += 1;
            }
            Some(sectors) => {
                if loc.off as u64 + len > sectors {
                    println!(
                        "BAD map: vLBA {lba}+{len} points past the end of object seq {} \
                         (offset {} of {} data sectors)",
                        loc.seq, loc.off, sectors
                    );
                    problems += 1;
                }
            }
        }
    }

    println!(
        "checked {} data object(s), {} checkpoint(s), {map_extents} map extent(s); \
         prefix cut at seq {}",
        seqs.len(),
        ckpts.len(),
        rb.last_seq
    );
    if stranded > 0 {
        println!(
            "note: {stranded} stranded object(s) beyond the cut \
             (a read-write open would delete them; check leaves them in place)"
        );
    }
    if problems > 0 {
        return Err(format!("check failed: {problems} problem(s) found"));
    }
    println!("check ok: {image} is consistent");
    Ok(())
}

/// Loopback smoke: serve the image oneshot on an ephemeral port, drive the
/// in-tree NBD client through the full command set, and verify readback.
/// Exits nonzero on any mismatch, so CI can gate on it.
fn nbd_roundtrip(opts: &Opts, bucket: &str, image: &str) -> Result<(), String> {
    let vol = open_volume(opts, bucket, image)?;
    let sv = SharedVolume::new(vol);
    let cfg = ServerConfig {
        oneshot: true,
        ..ServerConfig::default()
    };
    let handle =
        nbd::serve("127.0.0.1:0", image, sv.clone(), cfg).map_err(|e| format!("serve: {e}"))?;
    let addr = handle.addr();

    let mut c = nbd::Client::connect(addr, image).map_err(|e| format!("connect: {e}"))?;
    if c.size() != sv.size_bytes() {
        return Err(format!(
            "negotiated size {} != volume size {}",
            c.size(),
            sv.size_bytes()
        ));
    }
    let pattern: Vec<u8> = (0..16384u32).map(|i| (i % 251) as u8).collect();
    c.write(65536, &pattern)
        .map_err(|e| format!("write: {e}"))?;
    c.flush().map_err(|e| format!("flush: {e}"))?;
    let mut back = vec![0u8; pattern.len()];
    c.read(65536, &mut back).map_err(|e| format!("read: {e}"))?;
    if back != pattern {
        return Err("readback mismatch after write+flush".to_string());
    }
    c.trim(65536, 4096).map_err(|e| format!("trim: {e}"))?;
    c.read(65536, &mut back[..4096])
        .map_err(|e| format!("read after trim: {e}"))?;
    if back[..4096].iter().any(|&b| b != 0) {
        return Err("trimmed range did not read back as zeros".to_string());
    }
    c.disconnect().map_err(|e| format!("disconnect: {e}"))?;
    handle.join();

    let snap = sv.telemetry().map_err(|e| format!("telemetry: {e}"))?;
    let s = &snap.serving;
    println!(
        "nbd roundtrip ok: {} reads / {} writes / {} flushes / {} trims over {} connection(s)",
        s.reads, s.writes, s.flushes, s.trims, s.conns_total
    );
    println!(
        "latency split: socket-wait p99 {}ns, queue-wait p99 {}ns, service p99 {}ns",
        s.socket_wait.p99_ns, s.queue_wait.p99_ns, s.service.p99_ns
    );
    if s.queue_wait.count == 0 || s.service.count == 0 {
        return Err("serving latency split missing from telemetry".to_string());
    }
    sv.shutdown().map_err(|e| format!("shutdown: {e}"))
}
