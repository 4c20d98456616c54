//! Crash flight recorder: a fixed-size black box dumped on the way down.
//!
//! Aviation-style: the recorder holds every export's span ring and a
//! config fingerprint. Each ring already keeps its volume's newest
//! lifecycle edges and request spans, bounded and lock-cheap, so the
//! recorder mirrors nothing. When the process hits a terminal path — an
//! `LsvdError` that will error a client request, an NBD connection dying
//! mid-frame, or a panic (via [`FlightRecorder::install_panic_hook`]) —
//! [`FlightRecorder::dump`] writes the newest spans of every ring to a
//! timestamped JSON file that survives the process. `lsvdctl blackbox
//! <file>` ([`render_blackbox`]) pretty-prints it for the post-mortem.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::span::{Span, SpanRing, Stage};

/// Schema tag written into every blackbox file.
pub const BLACKBOX_SCHEMA: &str = "lsvd-blackbox-v2";

/// The black box. Shared (`Arc`) between the serving plane and the
/// process panic hook.
#[derive(Debug)]
pub struct FlightRecorder {
    rings: Vec<(String, Arc<SpanRing>)>,
    span_limit: usize,
    config: String,
    dir: PathBuf,
    dumps: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder over named span rings (one per export),
    /// dumping at most `span_limit` of each ring's newest spans into
    /// files in `dir`. `config` is an opaque fingerprint (volume config +
    /// identity) echoed verbatim into every dump.
    pub fn new(
        rings: Vec<(String, Arc<SpanRing>)>,
        config: String,
        dir: impl Into<PathBuf>,
        span_limit: usize,
    ) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder {
            rings,
            span_limit: span_limit.max(1),
            config,
            dir: dir.into(),
            dumps: AtomicU64::new(0),
        })
    }

    /// Number of dumps written so far.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Writes the box to `<dir>/lsvd-blackbox-<unix_ms>-<reason>.json`
    /// and returns the path. Every call writes a fresh file; the caller
    /// decides when a path is terminal enough to warrant one.
    pub fn dump(&self, reason: &str) -> std::io::Result<PathBuf> {
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        // A slug of the reason keeps filenames shell-safe.
        let slug: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .take(48)
            .collect();
        let n = self.dumps.fetch_add(1, Ordering::Relaxed);
        let path = self
            .dir
            .join(format!("lsvd-blackbox-{unix_ms}-{n}-{slug}.json"));

        let rings = self
            .rings
            .iter()
            .map(|(name, ring)| {
                let mut spans = ring.snapshot();
                spans.drain(..spans.len().saturating_sub(self.span_limit));
                let dropped = ring.dropped() + ring.edges_dropped();
                Json::Obj(vec![
                    ("name".into(), Json::Str(name.clone())),
                    ("dropped".into(), Json::Num(dropped as f64)),
                    (
                        "spans".into(),
                        Json::Arr(spans.iter().map(span_to_json).collect()),
                    ),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str(BLACKBOX_SCHEMA.into())),
            ("reason".into(), Json::Str(reason.into())),
            ("unix_ms".into(), Json::Num(unix_ms as f64)),
            ("config".into(), Json::Str(self.config.clone())),
            ("rings".into(), Json::Arr(rings)),
        ]);
        let tmp = path.with_extension("json.tmp");
        std::fs::create_dir_all(&self.dir)?;
        std::fs::write(&tmp, doc.render())?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Chains a panic hook that dumps the box (reason `panic: <msg>`)
    /// before delegating to the previous hook. Install once per process.
    pub fn install_panic_hook(self: &Arc<FlightRecorder>) {
        let rec = self.clone();
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            if let Ok(path) = rec.dump(&format!("panic: {msg}")) {
                eprintln!("lsvd: flight recorder dumped to {}", path.display());
            }
            previous(info);
        }));
    }
}

fn span_to_json(s: &Span) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::Num(s.id as f64)),
        ("parent".into(), Json::Num(s.parent as f64)),
        ("req".into(), Json::Num(s.req as f64)),
        ("stage".into(), Json::Str(s.stage.name().into())),
        ("t_start_us".into(), Json::Num(s.t_start_us as f64)),
        ("t_end_us".into(), Json::Num(s.t_end_us as f64)),
        ("virt".into(), Json::Num(s.virt as f64)),
        ("a".into(), Json::Num(s.arg_a as f64)),
        ("b".into(), Json::Num(s.arg_b as f64)),
    ])
}

fn span_from_json(s: &Json) -> Option<Span> {
    Some(Span {
        id: s.get("id")?.as_u64()?,
        parent: s.get("parent")?.as_u64()?,
        req: s.get("req")?.as_u64()?,
        stage: Stage::parse(s.get("stage")?.as_str()?)?,
        t_start_us: s.get("t_start_us")?.as_u64()?,
        t_end_us: s.get("t_end_us")?.as_u64()?,
        virt: s.get("virt")?.as_u64()?,
        arg_a: s.get("a")?.as_u64()?,
        arg_b: s.get("b")?.as_u64()?,
    })
}

/// Parses a blackbox file's text and renders the human post-mortem view:
/// header (reason, time, config), then each ring's final spans, the
/// lifecycle edges first and then each request's hops, in causal order.
pub fn render_blackbox(text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some(BLACKBOX_SCHEMA) => {}
        Some(other) => return Err(format!("unknown blackbox schema {other:?}")),
        None => return Err("missing schema tag".to_string()),
    }
    let mut out = String::new();
    let reason = doc.get("reason").and_then(|r| r.as_str()).unwrap_or("?");
    let unix_ms = doc.get("unix_ms").and_then(|v| v.as_u64()).unwrap_or(0);
    let config = doc.get("config").and_then(|c| c.as_str()).unwrap_or("");
    let _ = writeln!(out, "blackbox: {reason}");
    let _ = writeln!(out, "captured: unix_ms {unix_ms}");
    let _ = writeln!(out, "config:   {config}");

    for ring in doc.get("rings").and_then(|r| r.as_array()).unwrap_or(&[]) {
        let name = ring.get("name").and_then(|n| n.as_str()).unwrap_or("?");
        let spans = ring.get("spans").and_then(|s| s.as_array()).unwrap_or(&[]);
        let mut parsed: Vec<Span> = spans.iter().filter_map(span_from_json).collect();
        if parsed.len() != spans.len() {
            return Err(format!("ring {name}: malformed span entry"));
        }
        let _ = writeln!(out, "\n== ring {name}: final spans ({}) ==", spans.len());
        let dropped = ring.get("dropped").and_then(|v| v.as_u64()).unwrap_or(0);
        if dropped > 0 {
            let _ = writeln!(
                out,
                "warning:  {dropped} earlier spans were dropped on wrap"
            );
        }
        // Group per request (req 0 = lifecycle edges), causal order
        // within each group.
        parsed.sort_by_key(|s| (s.req, s.t_start_us, s.id));
        let mut cur_req = u64::MAX;
        for s in &parsed {
            if s.req != cur_req {
                cur_req = s.req;
                if s.req == 0 {
                    let _ = writeln!(out, "-- lifecycle edges --");
                } else {
                    let _ = writeln!(out, "-- request {} --", s.req);
                }
            }
            let _ = writeln!(
                out,
                "  {:>16} [{:>10}us..{:>10}us] span={} parent={} a={} b={}",
                s.stage.name(),
                s.t_start_us,
                s.t_end_us,
                s.id,
                s.parent,
                s.arg_a,
                s.arg_b,
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lsvd-bbox-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Two export rings: `disk0` with 12 PUT-done edges and then one
    /// traced write, `disk1` with a single seal edge.
    fn rig(dir: &Path) -> Arc<FlightRecorder> {
        let disk0 = Arc::new(SpanRing::new(64, 2));
        disk0.set_enabled(true);
        for seq in 0..12u64 {
            disk0.edge(None, Stage::PutDone, seq, 0);
        }
        let req = disk0.mint_request();
        let open = disk0.begin(req, 0, Stage::Decode).unwrap();
        let decode = disk0.finish(open, 1, 4096);
        let open = disk0.begin(req, decode, Stage::WlogAppend).unwrap();
        disk0.finish(open, 5, 4096);
        let disk1 = Arc::new(SpanRing::new(64, 2));
        disk1.edge(None, Stage::BatchSeal, 2, 5);
        let rings = vec![("disk0".to_string(), disk0), ("disk1".to_string(), disk1)];
        FlightRecorder::new(rings, "cfg: test".to_string(), dir, 8)
    }

    #[test]
    fn dump_and_render_round_trip() {
        let dir = temp_dir("roundtrip");
        let rec = rig(&dir);
        let path = rec.dump("conn abort").expect("dump");
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("conn-abort"));
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).expect("blackbox is JSON");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some(BLACKBOX_SCHEMA)
        );
        // Each ring is bounded at 8 spans: disk0 keeps its newest six
        // edges (seq 6..=11) and the two request spans.
        let rings = doc.get("rings").and_then(|r| r.as_array()).unwrap();
        assert_eq!(rings.len(), 2);
        let spans = rings[0].get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[0].get("a").and_then(|v| v.as_u64()), Some(6));

        let rendered = render_blackbox(&text).expect("render");
        assert!(rendered.contains("conn abort"), "{rendered}");
        assert!(rendered.contains("cfg: test"), "{rendered}");
        assert!(rendered.contains("== ring disk0"), "{rendered}");
        assert!(rendered.contains("== ring disk1"), "{rendered}");
        assert!(rendered.contains("put_done"), "{rendered}");
        assert!(rendered.contains("batch_seal"), "{rendered}");
        assert!(rendered.contains("wlog_append"), "{rendered}");
        assert!(rendered.contains("lifecycle edges"), "{rendered}");
        assert!(rendered.contains("-- request 1 --"), "{rendered}");
        assert_eq!(rec.dumps(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_rejects_foreign_documents() {
        assert!(render_blackbox("not json at all").is_err());
        assert!(render_blackbox("{\"schema\":\"something-else\"}").is_err());
        assert!(render_blackbox("{\"schema\":\"lsvd-blackbox-v1\"}").is_err());
        assert!(render_blackbox("{}").is_err());
    }

    #[test]
    fn each_dump_writes_a_distinct_file() {
        let dir = temp_dir("distinct");
        let rec = rig(&dir);
        let a = rec.dump("first").unwrap();
        let b = rec.dump("second").unwrap();
        assert_ne!(a, b);
        assert!(a.exists() && b.exists());
        assert_eq!(rec.dumps(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
