//! Fleet node: a registry of named live volumes served by one process.
//!
//! The paper's deployment model (§3.1) has one cache SSD and one backend
//! shared by *many* virtual disks per host. This module provides the
//! control plane for that node: an [`ExportRegistry`] maps export names to
//! live [`SharedVolume`]s. Each volume keeps its own writeback executor
//! (per its `writeback_threads`) and its own read cache.
//!
//! Lifecycle: exports are **attached** (existing image opened or wrapped)
//! or **created**, then served until **detached**. Detach is a fenced
//! drain: the export stops admitting new jobs ([`Export::job_begin`]
//! returns `false`), the registry waits for in-flight jobs to finish —
//! every already-acknowledged write completes — then shuts the volume
//! down (final flush + checkpoint) and notifies the serving plane so it
//! can close the export's connections.
//!
//! A small line-oriented TCP control socket ([`ControlServer`]) exposes
//! LIST/CREATE/ATTACH/DETACH to `lsvdctl export ...` while the node
//! serves traffic.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use telemetry::{ServingRecorders, TelemetrySnapshot, TenantTelemetry};

use crate::shared::SharedVolume;
use crate::types::{LsvdError, Result};

/// Per-tenant QoS ceilings enforced by the serving plane's token buckets.
/// `0` means unlimited on that axis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QosLimits {
    /// Requests per second (all NBD commands count).
    pub iops: u64,
    /// Payload bytes per second (READ reply + WRITE request bytes).
    pub bytes_per_sec: u64,
}

/// One named live volume on a fleet node.
pub struct Export {
    name: String,
    volume: SharedVolume,
    recorders: ServingRecorders,
    qos: Mutex<QosLimits>,
    /// Set by detach: no new jobs may begin, existing ones drain.
    fenced: AtomicBool,
    /// Jobs between [`Export::job_begin`] and [`Export::job_done`].
    inflight: AtomicU64,
}

impl Export {
    /// The export's registry name (the NBD export name clients request).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The served volume.
    pub fn volume(&self) -> &SharedVolume {
        &self.volume
    }

    /// The export's serving-plane recorders (per-tenant counters).
    pub fn recorders(&self) -> &ServingRecorders {
        &self.recorders
    }

    /// Current QoS ceilings.
    pub fn qos(&self) -> QosLimits {
        *self.qos.lock()
    }

    /// Replaces the QoS ceilings (takes effect on the next refill).
    pub fn set_qos(&self, limits: QosLimits) {
        *self.qos.lock() = limits;
    }

    /// Marks one serving job as started. Returns `false` when the export
    /// is fenced (detaching) — the caller must fail the request instead
    /// of touching the volume.
    pub fn job_begin(&self) -> bool {
        if self.fenced.load(Ordering::Acquire) {
            return false;
        }
        self.inflight.fetch_add(1, Ordering::AcqRel);
        // Re-check under the count so a concurrent fence either sees our
        // increment (and waits for us) or we see its flag (and back out).
        if self.fenced.load(Ordering::Acquire) {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            return false;
        }
        true
    }

    /// Marks one serving job as finished.
    pub fn job_done(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Whether the export has been fenced by a detach.
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::Acquire)
    }

    /// Jobs currently between begin and done.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Acquire)
    }

    fn fence(&self) {
        self.fenced.store(true, Ordering::Release);
    }

    fn quiesce(&self, timeout: Duration) -> bool {
        let start = Instant::now();
        while self.inflight.load(Ordering::Acquire) > 0 {
            if start.elapsed() > timeout {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }
}

/// Callback that materializes a [`SharedVolume`] for a control-plane
/// CREATE (`size = Some(bytes)`) or ATTACH (`size = None`) request. The
/// node owner supplies it with the store/cache wiring baked in.
pub type Provisioner = Box<dyn Fn(&str, Option<u64>) -> Result<SharedVolume> + Send + Sync>;

/// Named-export registry shared by the serving reactor, the control
/// socket, and the metrics exporter.
pub struct ExportRegistry {
    exports: RwLock<HashMap<String, Arc<Export>>>,
    /// Serving-plane hook: called after attach/detach so the reactor can
    /// wake up and close fenced connections or refresh its view.
    notify: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl Default for ExportRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ExportRegistry {
    /// An empty registry.
    pub fn new() -> ExportRegistry {
        ExportRegistry {
            exports: RwLock::new(HashMap::new()),
            notify: Mutex::new(None),
        }
    }

    /// Installs the serving-plane notification hook (replaces any
    /// previous one).
    pub fn set_notify(&self, hook: Box<dyn Fn() + Send + Sync>) {
        *self.notify.lock() = Some(hook);
    }

    fn notify(&self) {
        if let Some(hook) = self.notify.lock().as_ref() {
            hook();
        }
    }

    /// Attaches `volume` under `name` with the given QoS ceilings. The
    /// volume's serving telemetry is wired to the export's recorders so
    /// per-tenant counters appear in its snapshots. Fails with
    /// [`LsvdError::BadVolume`] on a duplicate name.
    pub fn attach(&self, name: &str, volume: SharedVolume, qos: QosLimits) -> Result<Arc<Export>> {
        if name.is_empty() || name.len() > 255 || name.contains(['\n', ' ']) {
            return Err(LsvdError::BadVolume(format!("bad export name {name:?}")));
        }
        let export = Arc::new(Export {
            name: name.to_string(),
            volume,
            recorders: ServingRecorders::new(),
            qos: Mutex::new(qos),
            fenced: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
        });
        export
            .volume
            .with_volume(|v| v.attach_serving_telemetry(export.recorders.clone()))?;
        {
            let mut map = self.exports.write();
            if map.contains_key(name) {
                return Err(LsvdError::BadVolume(format!(
                    "export {name:?} already attached"
                )));
            }
            map.insert(name.to_string(), export.clone());
        }
        self.notify();
        Ok(export)
    }

    /// Fences `name`, drains its in-flight jobs (every acknowledged write
    /// completes), shuts the volume down (final flush + checkpoint), and
    /// removes it from the registry. The serving plane is notified so it
    /// closes the export's connections.
    pub fn detach(&self, name: &str) -> Result<()> {
        let export = {
            let map = self.exports.read();
            map.get(name)
                .cloned()
                .ok_or_else(|| LsvdError::BadVolume(format!("no export {name:?}")))?
        };
        export.fence();
        // Wake the serving plane first: parked requests on this export
        // must fail fast so the drain below terminates.
        self.notify();
        if !export.quiesce(Duration::from_secs(30)) {
            // Unfence so the export stays usable rather than wedged.
            export.fenced.store(false, Ordering::Release);
            return Err(LsvdError::BadVolume(format!(
                "export {name:?} did not quiesce"
            )));
        }
        export.volume.shutdown()?;
        self.exports.write().remove(name);
        self.notify();
        Ok(())
    }

    /// Looks up a live export by name.
    pub fn get(&self, name: &str) -> Option<Arc<Export>> {
        self.exports.read().get(name).cloned()
    }

    /// If exactly one export is attached, returns it (the NBD default
    /// export for clients that negotiate an empty name).
    pub fn sole_export(&self) -> Option<Arc<Export>> {
        let map = self.exports.read();
        if map.len() == 1 {
            map.values().next().cloned()
        } else {
            None
        }
    }

    /// Export names, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.exports.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Live exports, sorted by name.
    pub fn exports(&self) -> Vec<Arc<Export>> {
        let mut all: Vec<Arc<Export>> = self.exports.read().values().cloned().collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Number of live exports.
    pub fn len(&self) -> usize {
        self.exports.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.exports.read().is_empty()
    }

    /// Aggregate node telemetry: every export's volume snapshot absorbed
    /// into one, with per-tenant breakdowns attached.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let exports = self.exports();
        let mut agg: Option<TelemetrySnapshot> = None;
        let mut tenants = Vec::with_capacity(exports.len());
        for e in &exports {
            let Ok(snap) = e.volume.telemetry() else {
                // Mid-detach: the volume is gone but the export lingers.
                continue;
            };
            tenants.push(TenantTelemetry {
                export: e.name.clone(),
                serving: e.recorders.snapshot(),
                cache_resident_bytes: e.volume.cache_resident_bytes(),
            });
            agg = Some(match agg.take() {
                None => snap,
                Some(mut acc) => {
                    acc.absorb(&snap);
                    acc
                }
            });
        }
        let mut out = agg.unwrap_or_default();
        out.tenants = tenants;
        out
    }
}

/// Handle to a running control socket; dropping it does *not* stop the
/// listener — call [`ControlHandle::stop`].
pub struct ControlHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ControlHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops the listener and joins its thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        // Nudge the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Line-oriented TCP control plane for `lsvdctl export ...`.
///
/// Protocol (one request per connection line, `\n`-terminated ASCII):
///
/// | request                 | reply                                     |
/// |-------------------------|-------------------------------------------|
/// | `LIST`                  | `OK <n>` then `<name> <size> <conns>` × n |
/// | `CREATE <name> <bytes>` | `OK attached <name>`                      |
/// | `ATTACH <name>`         | `OK attached <name>`                      |
/// | `DETACH <name>`         | `OK detached <name>`                      |
///
/// Errors reply `ERR <message>`. CREATE/ATTACH go through the node's
/// [`Provisioner`]; without one they fail.
pub struct ControlServer;

impl ControlServer {
    /// Binds `addr` and serves control requests on a background thread
    /// until [`ControlHandle::stop`].
    pub fn serve<A: ToSocketAddrs>(
        addr: A,
        registry: Arc<ExportRegistry>,
        provisioner: Option<Provisioner>,
    ) -> std::io::Result<ControlHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let join = std::thread::Builder::new()
            .name("lsvd-control".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Control traffic is tiny and rare: serve inline so a
                    // stuck provisioner can't accumulate threads.
                    let _ = serve_control_conn(stream, &registry, provisioner.as_ref());
                }
            })?;
        Ok(ControlHandle {
            addr: local,
            stop,
            join: Some(join),
        })
    }
}

fn serve_control_conn(
    stream: TcpStream,
    registry: &ExportRegistry,
    provisioner: Option<&Provisioner>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(());
    }
    let reply = handle_control_line(line.trim_end(), registry, provisioner);
    let mut stream = stream;
    stream.write_all(reply.as_bytes())
}

fn handle_control_line(
    line: &str,
    registry: &ExportRegistry,
    provisioner: Option<&Provisioner>,
) -> String {
    let mut parts = line.split_whitespace();
    let verb = parts.next().unwrap_or("");
    match verb {
        "LIST" => {
            let exports = registry.exports();
            let mut out = format!("OK {}\n", exports.len());
            for e in &exports {
                out.push_str(&format!(
                    "{} {} {}\n",
                    e.name(),
                    e.volume().size_bytes(),
                    e.recorders().snapshot().conns_open,
                ));
            }
            out
        }
        "CREATE" | "ATTACH" => {
            let Some(name) = parts.next() else {
                return format!("ERR {verb} needs a name\n");
            };
            let size = if verb == "CREATE" {
                match parts.next().map(str::parse::<u64>) {
                    Some(Ok(n)) => Some(n),
                    _ => return "ERR CREATE needs a byte size\n".into(),
                }
            } else {
                None
            };
            let Some(prov) = provisioner else {
                return "ERR node has no provisioner\n".into();
            };
            if registry.get(name).is_some() {
                return format!("ERR export {name:?} already attached\n");
            }
            match prov(name, size) {
                Ok(volume) => match registry.attach(name, volume, QosLimits::default()) {
                    Ok(_) => format!("OK attached {name}\n"),
                    Err(e) => format!("ERR {e}\n"),
                },
                Err(e) => format!("ERR {e}\n"),
            }
        }
        "DETACH" => {
            let Some(name) = parts.next() else {
                return "ERR DETACH needs a name\n".into();
            };
            match registry.detach(name) {
                Ok(()) => format!("OK detached {name}\n"),
                Err(e) => format!("ERR {e}\n"),
            }
        }
        _ => format!("ERR unknown command {verb:?}\n"),
    }
}

/// One-connection control client used by `lsvdctl export ...`.
pub fn control_request<A: ToSocketAddrs>(addr: A, line: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut out = String::new();
    BufReader::new(stream).read_to_string(&mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VolumeConfig;
    use crate::volume::Volume;
    use blkdev::RamDisk;
    use objstore::MemStore;

    fn mkvol(name: &str) -> SharedVolume {
        let store = Arc::new(MemStore::new());
        let dev = Arc::new(RamDisk::new(16 << 20));
        SharedVolume::new(
            Volume::create(store, dev, name, 32 << 20, VolumeConfig::small_for_tests()).unwrap(),
        )
    }

    #[test]
    fn attach_detach_lifecycle() {
        let reg = ExportRegistry::new();
        assert!(reg.is_empty());
        reg.attach("a", mkvol("a"), QosLimits::default()).unwrap();
        reg.attach("b", mkvol("b"), QosLimits::default()).unwrap();
        assert_eq!(reg.list(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(reg.len(), 2);
        assert!(reg.sole_export().is_none());
        // Duplicate rejected.
        assert!(matches!(
            reg.attach("a", mkvol("a2"), QosLimits::default()),
            Err(LsvdError::BadVolume(_))
        ));
        // Bad names rejected.
        assert!(reg.attach("", mkvol("e"), QosLimits::default()).is_err());
        assert!(reg
            .attach("two words", mkvol("w"), QosLimits::default())
            .is_err());
        reg.detach("a").unwrap();
        assert!(reg.get("a").is_none());
        assert!(matches!(reg.detach("a"), Err(LsvdError::BadVolume(_))));
        let b = reg.sole_export().unwrap();
        assert_eq!(b.name(), "b");
    }

    #[test]
    fn detach_fences_jobs_and_shuts_volume_down() {
        let reg = Arc::new(ExportRegistry::new());
        let e = reg.attach("v", mkvol("v"), QosLimits::default()).unwrap();
        let vol = e.volume().clone();
        vol.write(0, &[7u8; 4096]).unwrap();

        // A job in flight: detach must wait for job_done.
        assert!(e.job_begin());
        let reg2 = reg.clone();
        let detacher = std::thread::spawn(move || reg2.detach("v"));
        std::thread::sleep(Duration::from_millis(20));
        assert!(e.is_fenced());
        assert!(!e.job_begin(), "fenced export admitted a job");
        // The acked write is still readable while draining.
        let mut buf = [0u8; 4096];
        vol.read(0, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 4096]);
        e.job_done();
        detacher.join().unwrap().unwrap();
        // Volume is now shut down.
        assert!(vol.read(0, &mut buf).is_err());
        assert!(reg.is_empty());
    }

    #[test]
    fn notify_hook_fires_on_attach_and_detach() {
        let reg = ExportRegistry::new();
        let fired = Arc::new(AtomicU64::new(0));
        let fired2 = fired.clone();
        reg.set_notify(Box::new(move || {
            fired2.fetch_add(1, Ordering::Relaxed);
        }));
        reg.attach("n", mkvol("n"), QosLimits::default()).unwrap();
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        reg.detach("n").unwrap();
        // Detach notifies twice: at fence and after removal.
        assert_eq!(fired.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn qos_limits_update_in_place() {
        let reg = ExportRegistry::new();
        let e = reg
            .attach(
                "q",
                mkvol("q"),
                QosLimits {
                    iops: 100,
                    bytes_per_sec: 0,
                },
            )
            .unwrap();
        assert_eq!(e.qos().iops, 100);
        e.set_qos(QosLimits {
            iops: 0,
            bytes_per_sec: 1 << 20,
        });
        assert_eq!(e.qos().bytes_per_sec, 1 << 20);
        assert_eq!(e.qos().iops, 0);
    }

    #[test]
    fn telemetry_aggregates_and_labels_tenants() {
        let reg = ExportRegistry::new();
        let a = reg.attach("a", mkvol("a"), QosLimits::default()).unwrap();
        let b = reg.attach("b", mkvol("b"), QosLimits::default()).unwrap();
        a.volume().write(0, &[1u8; 4096]).unwrap();
        b.volume().write(0, &[2u8; 4096]).unwrap();
        a.recorders().count_read();
        a.recorders().add_bytes_read(4096);
        b.recorders().count_write();
        let snap = reg.telemetry();
        assert_eq!(snap.tenants.len(), 2);
        assert_eq!(snap.tenants[0].export, "a");
        assert_eq!(snap.tenants[0].serving.reads, 1);
        assert_eq!(snap.tenants[0].serving.bytes_read, 4096);
        assert_eq!(snap.tenants[1].export, "b");
        assert_eq!(snap.tenants[1].serving.writes, 1);
        // The aggregate serving section sums both tenants.
        assert_eq!(snap.serving.reads, 1);
        assert_eq!(snap.serving.writes, 1);
        // Both volumes' client ops are absorbed.
        assert_eq!(snap.ops.write.count, 2);
    }

    #[test]
    fn control_socket_round_trip() {
        let reg = Arc::new(ExportRegistry::new());
        reg.attach("pre", mkvol("pre"), QosLimits::default())
            .unwrap();
        let prov: Provisioner = Box::new(|name, size| {
            let store = Arc::new(MemStore::new());
            let dev = Arc::new(RamDisk::new(16 << 20));
            let cfg = VolumeConfig::small_for_tests();
            let vol = match size {
                Some(bytes) => Volume::create(store, dev, name, bytes, cfg)?,
                None => Volume::create(store, dev, name, 32 << 20, cfg)?,
            };
            Ok(SharedVolume::new(vol))
        });
        let handle = ControlServer::serve("127.0.0.1:0", reg.clone(), Some(prov)).unwrap();
        let addr = handle.addr();

        let reply = control_request(addr, "LIST").unwrap();
        assert!(reply.starts_with("OK 1\n"), "{reply}");
        assert!(reply.contains("pre 33554432 0"), "{reply}");

        let reply = control_request(addr, "CREATE fresh 16777216").unwrap();
        assert_eq!(reply, "OK attached fresh\n");
        assert_eq!(reg.get("fresh").unwrap().volume().size_bytes(), 16 << 20);

        let reply = control_request(addr, "CREATE fresh 16777216").unwrap();
        assert!(reply.starts_with("ERR"), "{reply}");

        let reply = control_request(addr, "ATTACH other").unwrap();
        assert_eq!(reply, "OK attached other\n");

        let reply = control_request(addr, "DETACH other").unwrap();
        assert_eq!(reply, "OK detached other\n");
        assert!(reg.get("other").is_none());

        let reply = control_request(addr, "DETACH ghost").unwrap();
        assert!(reply.starts_with("ERR"), "{reply}");

        let reply = control_request(addr, "CREATE").unwrap();
        assert!(reply.starts_with("ERR"), "{reply}");

        let reply = control_request(addr, "FROB x").unwrap();
        assert!(reply.starts_with("ERR unknown command"), "{reply}");

        handle.stop();
    }
}
