//! Backend recovery: checkpoint load, log roll-forward, prefix rule (§3.3).
//!
//! At startup LSVD locates the most recent map checkpoint, loads it, and
//! replays object headers from the checkpoint to the end of the log.
//! Because in-flight PUTs complete out of order, the log may end with a
//! gap — e.g. objects 99, 100 and 102 present but 101 lost with the
//! client. Recovery keeps only the consecutive prefix (99, 100) and
//! deletes the *stranded* objects beyond it (102), guaranteeing the
//! recovered image is a consistent prefix of committed writes.
//!
//! Recovery costs a LIST, then one round of concurrent backend requests,
//! not one round trip per object. The LIST of the image's namespace names
//! the checkpoints, the objects after the newest one up to the first
//! missing sequence number, and the stranded objects. The round GETs the
//! superblock, the newest checkpoint and the headers of those objects
//! together, at most [`FETCH_WORKERS`] requests at a time: an own-stream
//! object's name needs no superblock. The checkpoint is parsed, and the
//! headers' uuids checked, once the superblock is in. Headers are then
//! applied strictly in sequence order, as a serial walk would apply them,
//! and a fetch error fails recovery only if the walk reaches that object:
//! it never requests one past the cut. Ancestor-stream objects, which the
//! listing does not cover, are fetched by name once the superblock gives
//! the ancestry; only a clone with no usable checkpoint walks them.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use objstore::{ObjError, ObjectStore};

use crate::checkpoint::CheckpointData;
use crate::objfmt::{self, DataHeader, Superblock};
use crate::objmap::{ObjLoc, ObjectMap};
use crate::types::{
    object_name, parse_object_seq, superblock_name, LsvdError, ObjSeq, Result, SECTOR,
};

/// Most store requests recovery keeps in flight at once. A header fetch
/// holds two (its HEAD and the GET of its first sector), so half as many
/// headers are fetched at a time: one fewer in the round after the LIST,
/// where the superblock's and the checkpoint's GETs hold the other two.
pub const FETCH_WORKERS: usize = 64;

/// Header fetches in flight at once.
const HEADER_FETCHES: usize = FETCH_WORKERS / 2;

/// The outcome of backend recovery. The default is an empty backend, as
/// [`Volume::create`](crate::volume::Volume::create) leaves it.
#[derive(Debug, Default)]
pub struct RecoveredBackend {
    /// Volume identity.
    pub superblock: Superblock,
    /// The rebuilt object map and table.
    pub objmap: ObjectMap,
    /// Highest data-object sequence reflected in the map.
    pub last_seq: ObjSeq,
    /// Cache-log frontier: cache records with sequence `<=` this are
    /// durable in the backend, so the cache rewinds to here.
    pub frontier: u64,
    /// Snapshot list from the checkpoint.
    pub snapshots: Vec<(String, ObjSeq)>,
    /// Deferred-delete list from the checkpoint.
    pub deferred_deletes: Vec<(ObjSeq, ObjSeq)>,
    /// Sequence covered by the checkpoint recovery started from.
    pub ckpt_seq: ObjSeq,
    /// The sequences of every checkpoint the listing named, ascending:
    /// the volume prunes old checkpoints from this list, with no LIST.
    pub checkpoints: Vec<ObjSeq>,
    /// Stranded objects deleted by the prefix rule.
    pub stranded_deleted: Vec<String>,
}

/// Fetches and parses a data-object header, returning `Ok(None)` if the
/// object does not exist.
///
/// The HEAD and a GET of the object's first sector go out together; a
/// header of up to 29 entries (19 for a GC object) parses from that
/// sector alone. A longer one fails to parse there, as its data offset
/// lies past the sector, and the HEAD's size bounds a ranged GET of it.
/// NotFound from either request means the object is missing.
pub fn fetch_header(store: &dyn ObjectStore, name: &str) -> Result<Option<DataHeader>> {
    let (size, first) = join(|| store.head(name), || store.get_range(name, 0, SECTOR));
    let missing = |e: Option<&ObjError>| matches!(e, Some(ObjError::NotFound(_)));
    if missing(size.as_ref().err()) || missing(first.as_ref().err()) {
        return Ok(None);
    }
    if let Ok(h) = objfmt::parse_data_header(&first?) {
        return Ok(Some(h));
    }
    let size = size?;
    let take = size.min(objfmt::MAX_HEADER_BYTES);
    let prefix = store.get_range(name, 0, take)?;
    match objfmt::parse_data_header(&prefix) {
        Ok(h) => Ok(Some(h)),
        // Pathologically long extent list: retry with the whole object.
        Err(_) if take < size => {
            let whole = store.get(name)?;
            objfmt::parse_data_header(&whole).map(Some)
        }
        Err(e) => Err(e),
    }
}

/// Applies one recovered data object to the map, honouring GC source
/// conditions. Trims advertised by the object are punched *before* its
/// data extents, so a trim-then-rewrite that landed in one batch resolves
/// to the rewrite.
pub fn apply_header(objmap: &mut ObjectMap, h: &DataHeader) {
    let hdr_sectors = h.data_offset / SECTOR as u32;
    for &(lba, sectors) in &h.trims {
        objmap.discard(lba, sectors as u64);
    }
    if h.gc {
        let pieces: Vec<(u64, u32, ObjLoc)> = h
            .extents
            .iter()
            .zip(h.gc_src.iter())
            .map(|(&(lba, len), &(sseq, soff))| {
                (
                    lba,
                    len,
                    ObjLoc {
                        seq: sseq,
                        off: soff,
                    },
                )
            })
            .collect();
        objmap.apply_gc_object(h.seq, hdr_sectors, &pieces);
    } else {
        objmap.apply_object(h.seq, hdr_sectors, &h.extents);
    }
}

/// Runs `a` on a scoped thread while the caller runs `b`.
fn join<A: Send, B>(a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B) -> (A, B) {
    thread::scope(|s| {
        let a = s.spawn(a);
        let b = b();
        (a.join().unwrap_or_else(|p| resume_unwind(p)), b)
    })
}

/// Calls `f` on every item from up to `width` threads, the caller's
/// included, and returns the results in item order.
fn fan_out<T: Sync, R: Send>(items: &[T], width: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut done = thread::scope(|s| {
        let helpers: Vec<_> = (1..items.len().min(width)).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// What one LIST of `{image}.` says about the image's own namespace.
struct Listing {
    /// Checkpoints by name, each with the sequence its name says it
    /// covers, ascending.
    ckpts: Vec<(String, ObjSeq)>,
    /// Sequence numbers of the image's own data objects.
    objects: BTreeSet<ObjSeq>,
}

impl Listing {
    fn new(image: &str, mut names: Vec<String>) -> Listing {
        names.sort();
        let ckpt_prefix = format!("{image}.ckpt.");
        let mut listing = Listing {
            ckpts: Vec::new(),
            objects: BTreeSet::new(),
        };
        for name in names {
            if let Some(seq) = parse_object_seq(image, &name) {
                listing.objects.insert(seq);
            } else if let Some(seq) = name
                .strip_prefix(&ckpt_prefix)
                .and_then(|s| s.parse::<ObjSeq>().ok())
            {
                listing.ckpts.push((name, seq));
            }
        }
        listing
    }
}

/// The log past a checkpoint as a serial walk would see it, with headers
/// fetched ahead of the walk in concurrent batches. Without a superblock
/// (`sb` is `None`) it sees the image's own listed objects only.
struct Log<'a> {
    store: &'a dyn ObjectStore,
    image: &'a str,
    upto: Option<ObjSeq>,
    listed: &'a BTreeSet<ObjSeq>,
    fetched: BTreeMap<ObjSeq, Result<Option<DataHeader>>>,
}

impl Log<'_> {
    /// Whether the walk could find object `seq`: within `upto`, and listed
    /// or in an ancestor stream, which the image's listing does not cover.
    fn may_exist(&self, sb: Option<&Superblock>, seq: ObjSeq) -> bool {
        self.upto.is_none_or(|u| seq <= u)
            && (self.listed.contains(&seq) || sb.is_some_and(|sb| seq < sb.own_first_seq()))
    }

    /// Fetches the headers the walk would request after `from` that no
    /// earlier batch fetched, `width` at a time: own-stream objects up to
    /// the first gap in the listing, and ancestor-stream objects, resolved
    /// by name, [`HEADER_FETCHES`] at a time.
    fn prefetch(&mut self, sb: Option<&Superblock>, from: ObjSeq, width: usize) {
        let own_first = sb.map_or(1, Superblock::own_first_seq);
        let mut want = Vec::new();
        let mut seq = from;
        while let Some(next) = seq.checked_add(1).filter(|&s| self.may_exist(sb, s)) {
            if next < own_first && next - from > HEADER_FETCHES as ObjSeq {
                break;
            }
            seq = next;
            if !self.fetched.contains_key(&seq) {
                want.push(seq);
            }
        }
        let names: Vec<String> = want
            .iter()
            .map(|&s| object_name(sb.map_or(self.image, |sb| sb.stream_for(s)), s))
            .collect();
        let store = self.store;
        let headers = fan_out(&names, width, |name| fetch_header(store, name));
        self.fetched.extend(want.into_iter().zip(headers));
    }

    /// The header of object `seq`, or `None` where the walk stops at a gap.
    fn header(&mut self, sb: &Superblock, seq: ObjSeq) -> Result<Option<DataHeader>> {
        if !self.may_exist(Some(sb), seq) {
            return Ok(None);
        }
        if !self.fetched.contains_key(&seq) {
            self.prefetch(Some(sb), seq - 1, HEADER_FETCHES);
        }
        self.fetched
            .remove(&seq)
            .expect("prefetch fetches the object it starts from")
    }
}

/// Recovers the backend state of `image`.
///
/// With `upto = Some(seq)` (snapshot mounts), recovery stops at that
/// sequence and never deletes anything. With `upto = None` (a normal
/// read-write open), stranded objects beyond the recovered prefix are
/// deleted.
pub fn recover_backend(
    store: &dyn ObjectStore,
    image: &str,
    upto: Option<ObjSeq>,
) -> Result<RecoveredBackend> {
    let listing = Listing::new(image, store.list(&format!("{image}."))?);
    let mut log = Log {
        store,
        image,
        upto,
        listed: &listing.objects,
        fetched: BTreeMap::new(),
    };

    // One round: the superblock, the newest checkpoint and the headers of
    // the listed objects past the sequence its name gives, all named by
    // the listing. A corrupt checkpoint falls back to the previous one,
    // fetching the headers that one leaves out.
    let mut ckpts = listing
        .ckpts
        .iter()
        .rev()
        .filter(|(_, seq)| upto.is_none_or(|u| *seq <= u))
        .peekable();
    let newest = ckpts.peek().copied();
    let ((sb_obj, mut ckpt_obj), ()) = join(
        || {
            join(
                || store.get(&superblock_name(image)),
                || newest.map(|(name, _)| store.get(name)),
            )
        },
        || log.prefetch(None, newest.map_or(0, |&(_, seq)| seq), HEADER_FETCHES - 1),
    );
    let sb_obj = sb_obj.map_err(|e| match e {
        ObjError::NotFound(_) => LsvdError::BadVolume(format!("{image}: no superblock")),
        other => other.into(),
    })?;
    let superblock = Superblock::parse(&sb_obj)?;
    // An own-named object below the image's first sequence is not one the
    // walk reads: it resolves that sequence in an ancestor stream.
    log.fetched
        .retain(|&seq, _| seq >= superblock.own_first_seq());
    let mut ckpt = None;
    for (name, seq) in ckpts {
        let obj = match ckpt_obj.take() {
            Some(obj) => obj,
            None => {
                let (obj, ()) = join(
                    || store.get(name),
                    || log.prefetch(Some(&superblock), *seq, HEADER_FETCHES),
                );
                obj
            }
        };
        if let Ok(ck) = CheckpointData::parse(&obj?, superblock.uuid) {
            ckpt = Some(ck);
            break;
        }
    }
    let (mut objmap, mut frontier, ckpt_seq, snapshots, deferred_deletes) = match ckpt {
        Some(ck) => (
            ck.rebuild_map(),
            ck.frontier,
            ck.covers_seq,
            ck.snapshots,
            ck.deferred_deletes,
        ),
        None => (ObjectMap::new(), 0, 0, Vec::new(), Vec::new()),
    };

    // Roll the log forward from the parsed `covers_seq`, stopping at the
    // first gap. Where it differs from the name's sequence, `header`
    // fetches what the round left out; headers fetched past the cut are
    // never read, so their errors cannot fail recovery.
    let mut last_seq = ckpt_seq;
    loop {
        let seq = last_seq + 1;
        let Some(h) = log.header(&superblock, seq)? else {
            break;
        };
        if h.uuid != superblock.uuid && seq >= superblock.own_first_seq() {
            // A foreign object squatting on our name: treat as end of log.
            break;
        }
        apply_header(&mut objmap, &h);
        frontier = frontier.max(h.last_cache_seq);
        last_seq = seq;
    }

    // Prefix rule: delete stranded own-stream objects beyond the cut.
    let mut stranded_deleted = Vec::new();
    if upto.is_none() {
        for &seq in listing
            .objects
            .range((Bound::Excluded(last_seq), Bound::Unbounded))
        {
            let name = object_name(image, seq);
            store.delete(&name)?;
            stranded_deleted.push(name);
        }
    }

    Ok(RecoveredBackend {
        superblock,
        objmap,
        last_seq,
        frontier,
        snapshots,
        deferred_deletes,
        ckpt_seq,
        checkpoints: listing.ckpts.iter().map(|&(_, seq)| seq).collect(),
        stranded_deleted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    use bytes::Bytes;
    use objstore::MemStore;

    use crate::types::checkpoint_name;

    use crate::objfmt::build_data_object;
    use crate::types::SECTOR;

    const UUID: u64 = 0xFACE;

    fn put_super_with(store: &dyn ObjectStore, image: &str, ancestry: Vec<(String, ObjSeq)>) {
        let sb = Superblock {
            uuid: UUID,
            size_bytes: 1 << 30,
            image: image.into(),
            ancestry,
        };
        store.put(&superblock_name(image), sb.build()).unwrap();
    }

    fn put_super(store: &dyn ObjectStore, image: &str) {
        put_super_with(store, image, vec![]);
    }

    fn put_data(
        store: &dyn ObjectStore,
        image: &str,
        seq: ObjSeq,
        lba: u64,
        sectors: u32,
        cseq: u64,
    ) {
        let data = vec![seq as u8; (sectors as u64 * SECTOR) as usize];
        let obj = build_data_object(UUID, seq, cseq, None, &[(lba, sectors)], &data);
        store.put(&object_name(image, seq), obj).unwrap();
    }

    #[test]
    fn recovers_consecutive_prefix_and_deletes_stranded() {
        let store = MemStore::new();
        put_super(&store, "vol");
        for seq in 1..=5 {
            put_data(&store, "vol", seq, seq as u64 * 100, 8, seq as u64 * 10);
        }
        // Lose object 4 in flight: 5 is stranded.
        store.delete(&object_name("vol", 4)).unwrap();

        let rb = recover_backend(&store, "vol", None).unwrap();
        assert_eq!(rb.last_seq, 3);
        assert_eq!(rb.frontier, 30);
        assert_eq!(rb.objmap.object_count(), 3);
        assert!(rb.objmap.lookup(300).is_some());
        assert!(rb.objmap.lookup(500).is_none(), "stranded not applied");
        assert_eq!(rb.stranded_deleted, vec![object_name("vol", 5)]);
        assert!(!store.exists(&object_name("vol", 5)).unwrap());
    }

    #[test]
    fn recovery_from_checkpoint_skips_replayed_objects() {
        let store = MemStore::new();
        put_super(&store, "vol");
        for seq in 1..=4 {
            put_data(&store, "vol", seq, seq as u64 * 100, 8, seq as u64);
        }
        // Checkpoint covering objects 1..=2.
        let mut m = ObjectMap::new();
        m.apply_object(1, 1, &[(100, 8)]);
        m.apply_object(2, 1, &[(200, 8)]);
        let ck = CheckpointData::capture(&m, 2, 2, &[], &[]);
        store
            .put(&checkpoint_name("vol", 2), ck.build(UUID))
            .unwrap();
        // GC could have removed pre-checkpoint objects; holes below the
        // checkpoint must not stop recovery.
        store.delete(&object_name("vol", 1)).unwrap();

        let rb = recover_backend(&store, "vol", None).unwrap();
        assert_eq!(rb.ckpt_seq, 2);
        assert_eq!(rb.last_seq, 4);
        assert!(rb.objmap.lookup(100).is_some(), "from checkpoint");
        assert!(rb.objmap.lookup(400).is_some(), "rolled forward");
        assert_eq!(rb.frontier, 4);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_older() {
        let store = MemStore::new();
        put_super(&store, "vol");
        for seq in 1..=3 {
            put_data(&store, "vol", seq, seq as u64 * 100, 8, seq as u64);
        }
        let mut m1 = ObjectMap::new();
        m1.apply_object(1, 1, &[(100, 8)]);
        store
            .put(
                &checkpoint_name("vol", 1),
                CheckpointData::capture(&m1, 1, 1, &[], &[]).build(UUID),
            )
            .unwrap();
        store
            .put(&checkpoint_name("vol", 2), Bytes::from_static(b"garbage"))
            .unwrap();

        let rb = recover_backend(&store, "vol", None).unwrap();
        assert_eq!(rb.ckpt_seq, 1);
        assert_eq!(rb.last_seq, 3);
    }

    #[test]
    fn snapshot_mount_stops_at_upto_and_preserves_everything() {
        let store = MemStore::new();
        put_super(&store, "vol");
        for seq in 1..=5 {
            put_data(&store, "vol", seq, 0, 8, seq as u64); // all overwrite lba 0
        }
        let rb = recover_backend(&store, "vol", Some(3)).unwrap();
        assert_eq!(rb.last_seq, 3);
        let loc = rb.objmap.lookup(0).unwrap().2;
        assert_eq!(loc.seq, 3, "snapshot view sees object 3's data");
        assert!(rb.stranded_deleted.is_empty());
        assert!(store.exists(&object_name("vol", 5)).unwrap());
    }

    #[test]
    fn gc_object_replay_respects_sources() {
        let store = MemStore::new();
        put_super(&store, "vol");
        // Object 1 writes lba 0..16; object 2 overwrites lba 0..8.
        put_data(&store, "vol", 1, 0, 16, 1);
        put_data(&store, "vol", 2, 0, 8, 2);
        // GC object 3 copied lba 8..16 from object 1 (live at GC time) and
        // ALSO carries a stale copy of lba 0..8 (simulating a GC racing a
        // write): its source no longer matches after object 2.
        let data = vec![9u8; 16 * SECTOR as usize];
        let gc_obj = build_data_object(
            UUID,
            3,
            2,
            Some(&[(1, 0), (1, 8)]),
            &[(0, 8), (8, 8)],
            &data,
        );
        store.put(&object_name("vol", 3), gc_obj).unwrap();

        let rb = recover_backend(&store, "vol", None).unwrap();
        assert_eq!(rb.objmap.lookup(0).unwrap().2.seq, 2, "no resurrection");
        assert_eq!(rb.objmap.lookup(8).unwrap().2.seq, 3, "live piece moved");
    }

    #[test]
    fn trim_replay_punches_map_before_data() {
        let store = MemStore::new();
        put_super(&store, "vol");
        // Object 1 writes lba 0..16; object 2 trims 0..16 and rewrites 8..12
        // in the same batch.
        put_data(&store, "vol", 1, 0, 16, 1);
        let data = vec![7u8; 4 * SECTOR as usize];
        let mut obj = crate::objfmt::build_data_header_with_trims(
            UUID,
            2,
            2,
            &[(0, 16)],
            &[(8, 4)],
            &[crate::crc::crc32c(&data)],
            data.len(),
        );
        obj.extend_from_slice(&data);
        store.put(&object_name("vol", 2), Bytes::from(obj)).unwrap();

        let rb = recover_backend(&store, "vol", None).unwrap();
        assert!(rb.objmap.lookup(0).is_none(), "trimmed range punched");
        assert!(rb.objmap.lookup(15).is_none(), "tail of trim punched");
        assert_eq!(
            rb.objmap.lookup(8).unwrap().2.seq,
            2,
            "rewrite in the same object survives its own trim"
        );
        assert_eq!(rb.last_seq, 2);
        assert_eq!(rb.frontier, 2);
    }

    #[test]
    fn missing_superblock_is_bad_volume() {
        let store = MemStore::new();
        assert!(matches!(
            recover_backend(&store, "ghost", None),
            Err(LsvdError::BadVolume(_))
        ));
    }

    #[test]
    fn clone_without_a_checkpoint_walks_the_ancestor_stream_by_name() {
        // More ancestor objects than one fetch window, then the clone's own.
        let store = MemStore::new();
        let base_last = FETCH_WORKERS as ObjSeq + 8;
        put_super(&store, "base");
        for seq in 1..=base_last {
            put_data(&store, "base", seq, seq as u64 * 8, 8, seq as u64);
        }
        put_super_with(&store, "c", vec![("base".into(), base_last)]);
        for seq in base_last + 1..=base_last + 3 {
            put_data(&store, "c", seq, seq as u64 * 8, 8, seq as u64);
        }

        let rb = recover_backend(&store, "c", Some(ObjSeq::MAX)).unwrap();
        assert_eq!(rb.ckpt_seq, 0);
        assert_eq!(rb.last_seq, base_last + 3);
        assert_eq!(rb.objmap.lookup(8).unwrap().2.seq, 1, "ancestor data");

        // A gap in the ancestor stream cuts the log there; the clone's own
        // objects past it are stranded, and the base is never touched.
        store.delete(&object_name("base", 20)).unwrap();
        let base_objects = store.list("base.").unwrap();
        let rb = recover_backend(&store, "c", None).unwrap();
        assert_eq!(rb.last_seq, 19);
        assert_eq!(rb.stranded_deleted.len(), 3);
        assert_eq!(store.list("base.").unwrap(), base_objects);
    }

    /// A `MemStore` that counts LISTs and HEADs, records the peak number of
    /// header requests (HEAD or ranged GET) in flight, and fails ranged
    /// GETs of one chosen object.
    ///
    /// Each header request is held until [`FETCH_WORKERS`] are in flight,
    /// so that recovery's workers pile up to whatever limit it really
    /// keeps. A timeout releases requests that wait for company that never
    /// comes, at the tail of a run or under a serial walk.
    #[derive(Default)]
    struct CountingStore {
        inner: MemStore,
        lists: AtomicUsize,
        heads: AtomicUsize,
        inflight: Mutex<usize>,
        arrived: Condvar,
        peak: AtomicUsize,
        fail_get: Option<String>,
        failed: AtomicUsize,
    }

    impl CountingStore {
        fn header_request<T>(&self, f: impl FnOnce() -> T) -> T {
            let mut n = self.inflight.lock().unwrap();
            *n += 1;
            self.peak.fetch_max(*n, Ordering::SeqCst);
            self.arrived.notify_all();
            let wait = Duration::from_millis(50);
            let (n, _) = self
                .arrived
                .wait_timeout_while(n, wait, |n| *n < FETCH_WORKERS)
                .unwrap();
            drop(n);
            let out = f();
            *self.inflight.lock().unwrap() -= 1;
            out
        }
    }

    impl ObjectStore for CountingStore {
        fn put(&self, name: &str, data: Bytes) -> objstore::Result<()> {
            self.inner.put(name, data)
        }
        fn get(&self, name: &str) -> objstore::Result<Bytes> {
            self.inner.get(name)
        }
        fn get_range(&self, name: &str, offset: u64, len: u64) -> objstore::Result<Bytes> {
            if self.fail_get.as_deref() == Some(name) {
                self.failed.fetch_add(1, Ordering::SeqCst);
                return Err(ObjError::Timeout(name.to_string()));
            }
            self.header_request(|| self.inner.get_range(name, offset, len))
        }
        fn head(&self, name: &str) -> objstore::Result<u64> {
            self.heads.fetch_add(1, Ordering::SeqCst);
            self.header_request(|| self.inner.head(name))
        }
        fn delete(&self, name: &str) -> objstore::Result<()> {
            self.inner.delete(name)
        }
        fn list(&self, prefix: &str) -> objstore::Result<Vec<String>> {
            self.lists.fetch_add(1, Ordering::SeqCst);
            self.inner.list(prefix)
        }
    }

    #[test]
    fn roll_forward_overlaps_header_fetches_up_to_the_cap() {
        let store = CountingStore::default();
        put_super(&store, "vol");
        store
            .put(
                &checkpoint_name("vol", 0),
                CheckpointData::capture(&ObjectMap::new(), 0, 0, &[], &[]).build(UUID),
            )
            .unwrap();
        let objects = 3 * FETCH_WORKERS as ObjSeq;
        for seq in 1..=objects {
            put_data(&store, "vol", seq, seq as u64 * 8, 8, seq as u64);
        }

        let rb = recover_backend(&store, "vol", None).unwrap();
        assert_eq!(rb.last_seq, objects);
        let peak = store.peak.load(Ordering::SeqCst);
        assert!(
            peak > 1 && peak <= FETCH_WORKERS,
            "peak in-flight header fetches {peak}, cap {FETCH_WORKERS}"
        );
        assert_eq!(store.lists.load(Ordering::SeqCst), 1, "one listing");
        assert_eq!(
            store.heads.load(Ordering::SeqCst),
            objects as usize,
            "no HEAD probe past the end of the log"
        );
    }

    #[test]
    fn fetch_error_fails_recovery_only_before_the_cut() {
        // Two ways the walk stops at object 4 after fetching past it: a
        // gap in an ancestor stream (no listing covers it), and a foreign
        // object squatting on the image's own name.
        let ancestor_gap = |store: &CountingStore| {
            put_super(store, "base");
            for seq in 1..=6 {
                put_data(store, "base", seq, seq as u64 * 8, 8, seq as u64);
            }
            store.delete(&object_name("base", 4)).unwrap();
            put_super_with(store, "vol", vec![("base".into(), 6)]);
            "base"
        };
        let squatter = |store: &CountingStore| {
            put_super(store, "vol");
            for seq in 1..=6 {
                put_data(store, "vol", seq, seq as u64 * 8, 8, seq as u64);
            }
            let foreign = build_data_object(0xBAD, 4, 4, None, &[(0, 8)], &[4; 4096]);
            store.put(&object_name("vol", 4), foreign).unwrap();
            "vol"
        };
        for setup in [
            &ancestor_gap as &dyn Fn(&CountingStore) -> &'static str,
            &squatter,
        ] {
            for (fail, fails_recovery) in [(5, false), (2, true)] {
                let mut store = CountingStore::default();
                let stream = setup(&store);
                store.fail_get = Some(object_name(stream, fail));

                let result = recover_backend(&store, "vol", None);
                assert_eq!(store.failed.load(Ordering::SeqCst), 1, "GET was injected");
                match result {
                    Ok(rb) => {
                        assert!(!fails_recovery, "{stream}: error on {fail} was ignored");
                        assert_eq!(rb.last_seq, 3);
                    }
                    Err(e) => {
                        assert!(fails_recovery, "{stream}: {fail} is past the cut: {e}");
                        assert!(matches!(e, LsvdError::Backend(ObjError::Timeout(_))));
                    }
                }
            }
        }
    }

    /// A `MemStore` that holds every GET and HEAD until `gate` of them have
    /// been in flight together, or for at most 5 s, and records the peak in
    /// flight.
    /// It counts LISTs, the requests that started before a LIST returned,
    /// whole-object GETs, HEADs and ranged GETs by name.
    struct GatingStore {
        inner: MemStore,
        gate: usize,
        lists: AtomicUsize,
        listed: std::sync::atomic::AtomicBool,
        early: AtomicUsize,
        gets: AtomicUsize,
        heads: AtomicUsize,
        ranged: Mutex<BTreeMap<String, usize>>,
        inflight: Mutex<usize>,
        arrived: Condvar,
        peak: AtomicUsize,
    }

    impl GatingStore {
        fn new(gate: usize) -> GatingStore {
            GatingStore {
                inner: MemStore::new(),
                gate,
                lists: AtomicUsize::new(0),
                listed: Default::default(),
                early: AtomicUsize::new(0),
                gets: AtomicUsize::new(0),
                heads: AtomicUsize::new(0),
                ranged: Mutex::new(BTreeMap::new()),
                inflight: Mutex::new(0),
                arrived: Condvar::new(),
                peak: AtomicUsize::new(0),
            }
        }

        fn gated<T>(&self, f: impl FnOnce() -> T) -> T {
            if !self.listed.load(Ordering::SeqCst) {
                self.early.fetch_add(1, Ordering::SeqCst);
            }
            let mut n = self.inflight.lock().unwrap();
            *n += 1;
            self.peak.fetch_max(*n, Ordering::SeqCst);
            self.arrived.notify_all();
            // The peak, not the count: once the gate has opened, a waiter
            // woken after others finished must not wait again.
            let (n, _) = self
                .arrived
                .wait_timeout_while(n, Duration::from_secs(5), |_| {
                    self.peak.load(Ordering::SeqCst) < self.gate
                })
                .unwrap();
            drop(n);
            let out = f();
            *self.inflight.lock().unwrap() -= 1;
            out
        }
    }

    impl ObjectStore for GatingStore {
        fn put(&self, name: &str, data: Bytes) -> objstore::Result<()> {
            self.inner.put(name, data)
        }
        fn get(&self, name: &str) -> objstore::Result<Bytes> {
            self.gets.fetch_add(1, Ordering::SeqCst);
            self.gated(|| self.inner.get(name))
        }
        fn get_range(&self, name: &str, offset: u64, len: u64) -> objstore::Result<Bytes> {
            *self.ranged.lock().unwrap().entry(name.into()).or_default() += 1;
            self.gated(|| self.inner.get_range(name, offset, len))
        }
        fn head(&self, name: &str) -> objstore::Result<u64> {
            self.heads.fetch_add(1, Ordering::SeqCst);
            self.gated(|| self.inner.head(name))
        }
        fn delete(&self, name: &str) -> objstore::Result<()> {
            self.inner.delete(name)
        }
        fn list(&self, prefix: &str) -> objstore::Result<Vec<String>> {
            self.lists.fetch_add(1, Ordering::SeqCst);
            let names = self.inner.list(prefix);
            self.listed.store(true, Ordering::SeqCst);
            names
        }
    }

    #[test]
    fn recovery_is_a_list_then_one_round_of_gets() {
        const OBJECTS: ObjSeq = 16;
        // The superblock and checkpoint GETs, and a HEAD and a GET per
        // header.
        let store = GatingStore::new(2 + 2 * OBJECTS as usize);
        put_super(&store, "vol");
        store
            .put(
                &checkpoint_name("vol", 0),
                CheckpointData::capture(&ObjectMap::new(), 0, 0, &[], &[]).build(UUID),
            )
            .unwrap();
        for seq in 1..=OBJECTS {
            put_data(&store, "vol", seq, seq as u64 * 8, 8, seq as u64);
        }

        let rb = recover_backend(&store, "vol", None).unwrap();
        assert_eq!(rb.last_seq, OBJECTS);
        assert_eq!(rb.checkpoints, vec![0]);
        assert_eq!(store.lists.load(Ordering::SeqCst), 1, "one LIST");
        assert_eq!(
            store.early.load(Ordering::SeqCst),
            0,
            "no request starts before the LIST returns"
        );
        assert_eq!(
            store.peak.load(Ordering::SeqCst),
            store.gate,
            "the superblock GET, the checkpoint GET and every header request in flight together"
        );
        assert_eq!(
            store.gets.load(Ordering::SeqCst),
            2,
            "superblock, checkpoint"
        );
        assert_eq!(store.heads.load(Ordering::SeqCst), OBJECTS as usize);
        let ranged = store.ranged.lock().unwrap();
        assert_eq!(ranged.len(), OBJECTS as usize);
        assert!(
            ranged.values().all(|&n| n == 1),
            "one GET per header: {ranged:?}"
        );
    }
}
