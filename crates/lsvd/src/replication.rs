//! Asynchronous geographic replication (§4.8).
//!
//! Because the backend is an ordered stream of immutable objects, a volume
//! can be replicated by lazily copying objects to a second store. The
//! replicator copies objects older than an age threshold, skipping any the
//! garbage collector has already deleted; the standard prefix-rule
//! recovery then produces a consistent (if slightly stale) disk on the
//! replica side even when copies arrive out of order.

use std::sync::Arc;

use objstore::{retry_transient, ObjError, ObjectStore};

use crate::types::{object_name, parse_object_seq, superblock_name, ObjSeq, Result};

/// Statistics for one replication relationship.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicationStats {
    /// Objects copied to the replica.
    pub objects_copied: u64,
    /// Bytes copied to the replica.
    pub bytes_copied: u64,
    /// Bytes of *data* objects copied (excluding checkpoints/superblock).
    pub data_bytes_copied: u64,
    /// Objects that disappeared (GC'd) before they could be copied.
    pub objects_skipped_deleted: u64,
    /// Stale objects removed from the replica (deleted on the primary).
    pub objects_pruned: u64,
}

/// Copies a volume's object stream from `primary` to `replica`.
///
/// Transient failures on either side (timeouts, throttling, resets) are
/// retried a bounded number of times per operation; a step that still
/// fails aborts cleanly — replication is idempotent, so the next `step`
/// simply resumes where this one stopped. Permanent errors abort
/// immediately.
pub struct Replicator {
    primary: Arc<dyn ObjectStore>,
    replica: Arc<dyn ObjectStore>,
    image: String,
    stats: ReplicationStats,
}

/// Attempts per store call before a transient failure surfaces.
const RETRY_ATTEMPTS: u32 = 3;

impl Replicator {
    /// Creates a replicator for `image`.
    pub fn new(primary: Arc<dyn ObjectStore>, replica: Arc<dyn ObjectStore>, image: &str) -> Self {
        Replicator {
            primary,
            replica,
            image: image.to_string(),
            stats: ReplicationStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> ReplicationStats {
        self.stats
    }

    fn copy(&mut self, name: &str) -> Result<bool> {
        match retry_transient(RETRY_ATTEMPTS, || self.primary.get(name)) {
            Ok(data) => {
                self.stats.bytes_copied += data.len() as u64;
                if parse_object_seq(&self.image, name).is_some() {
                    self.stats.data_bytes_copied += data.len() as u64;
                }
                self.stats.objects_copied += 1;
                retry_transient(RETRY_ATTEMPTS, || self.replica.put(name, data.clone()))?;
                Ok(true)
            }
            Err(ObjError::NotFound(_)) => {
                self.stats.objects_skipped_deleted += 1;
                Ok(false)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Runs one replication step: copies the superblock (once), every data
    /// object not yet on the replica whose sequence is at most
    /// `copy_upto_seq` (the age-threshold boundary — the caller maps "older
    /// than 60 s" to a sequence), and the newest checkpoint. Returns the
    /// number of objects copied this step.
    pub fn step(&mut self, copy_upto_seq: ObjSeq) -> Result<u64> {
        let before = self.stats.objects_copied;
        let sb = superblock_name(&self.image);
        if !retry_transient(RETRY_ATTEMPTS, || self.replica.exists(&sb))? {
            self.copy(&sb)?;
        }

        // Data objects: primary listing minus replica listing, bounded.
        let prefix = format!("{}.", self.image);
        let on_primary = retry_transient(RETRY_ATTEMPTS, || self.primary.list(&prefix))?;
        let on_replica = retry_transient(RETRY_ATTEMPTS, || self.replica.list(&prefix))?;
        for name in &on_primary {
            let Some(seq) = parse_object_seq(&self.image, name) else {
                continue;
            };
            if seq > copy_upto_seq || on_replica.binary_search(name).is_ok() {
                continue;
            }
            self.copy(name)?;
        }

        // Newest checkpoint at or below the boundary, so the replica can
        // recover quickly.
        let ckpt_prefix = format!("{}.ckpt.", self.image);
        let mut ckpts = retry_transient(RETRY_ATTEMPTS, || self.primary.list(&ckpt_prefix))?;
        ckpts.sort();
        if let Some(newest) = ckpts.iter().rev().find(|n| {
            n.strip_prefix(&ckpt_prefix)
                .and_then(|s| s.parse::<ObjSeq>().ok())
                .is_some_and(|s| s <= copy_upto_seq)
        }) {
            if !retry_transient(RETRY_ATTEMPTS, || self.replica.exists(newest))? {
                self.copy(newest)?;
            }
        }
        Ok(self.stats.objects_copied - before)
    }

    /// Removes replica objects that no longer exist on the primary (GC'd
    /// after replication), keeping the replica recoverable and bounded.
    pub fn prune(&mut self) -> Result<u64> {
        let prefix = format!("{}.", self.image);
        let on_primary = retry_transient(RETRY_ATTEMPTS, || self.primary.list(&prefix))?;
        let on_replica = retry_transient(RETRY_ATTEMPTS, || self.replica.list(&prefix))?;
        let mut pruned = 0;
        for name in on_replica {
            if parse_object_seq(&self.image, &name).is_some()
                && on_primary.binary_search(&name).is_err()
            {
                retry_transient(RETRY_ATTEMPTS, || self.replica.delete(&name))?;
                pruned += 1;
            }
        }
        self.stats.objects_pruned += pruned;
        Ok(pruned)
    }
}

/// Repairs a replica so the standard recovery finds a clean prefix: the
/// replica may have gaps if the primary GC-deleted objects before they
/// were copied. Returns the highest consecutive sequence available on the
/// replica above the newest replicated checkpoint.
pub fn replica_prefix_seq(replica: &dyn ObjectStore, image: &str) -> Result<ObjSeq> {
    let ckpt_prefix = format!("{image}.ckpt.");
    let mut ckpts = replica.list(&ckpt_prefix)?;
    ckpts.sort();
    let base = ckpts
        .last()
        .and_then(|n| n.strip_prefix(&ckpt_prefix))
        .and_then(|s| s.parse::<ObjSeq>().ok())
        .unwrap_or(0);
    let mut seq = base;
    loop {
        let name = object_name(image, seq + 1);
        if !replica.exists(&name)? {
            return Ok(seq);
        }
        seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blkdev::RamDisk;
    use objstore::MemStore;

    use crate::config::VolumeConfig;
    use crate::volume::Volume;

    fn primary_with_data() -> (Arc<MemStore>, Arc<RamDisk>) {
        let store = Arc::new(MemStore::new());
        let dev = Arc::new(RamDisk::new(16 << 20));
        let mut vol = Volume::create(
            store.clone(),
            dev.clone(),
            "vol",
            64 << 20,
            VolumeConfig::small_for_tests(),
        )
        .unwrap();
        for i in 0..32u64 {
            vol.write(i * 65536, &vec![i as u8 + 1; 65536]).unwrap();
        }
        vol.shutdown().unwrap();
        (store, dev)
    }

    #[test]
    fn replica_catches_up_and_recovers() {
        let (primary, _) = primary_with_data();
        let replica = Arc::new(MemStore::new());
        let mut r = Replicator::new(primary.clone(), replica.clone(), "vol");
        let copied = r.step(ObjSeq::MAX).unwrap();
        assert!(copied > 0);
        assert!(r.stats().bytes_copied > 32 * 65536);

        // The replica is mountable with the standard open path.
        let dev = Arc::new(RamDisk::new(16 << 20));
        let mut vol = Volume::open(
            replica as Arc<dyn ObjectStore>,
            dev,
            "vol",
            VolumeConfig::small_for_tests(),
        )
        .unwrap();
        let mut buf = vec![0u8; 65536];
        vol.read(5 * 65536, &mut buf).unwrap();
        assert_eq!(buf, vec![6u8; 65536]);
    }

    #[test]
    fn age_boundary_limits_copies() {
        let (primary, _) = primary_with_data();
        let replica = Arc::new(MemStore::new());
        let mut r = Replicator::new(primary.clone(), replica.clone(), "vol");
        r.step(3).unwrap();
        let names = replica.list("vol.").unwrap();
        let max_seq = names
            .iter()
            .filter_map(|n| parse_object_seq("vol", n))
            .max()
            .unwrap();
        assert!(max_seq <= 3);
        // Later steps pick up the rest.
        r.step(ObjSeq::MAX).unwrap();
        let all: Vec<_> = primary
            .list("vol.")
            .unwrap()
            .into_iter()
            .filter(|n| parse_object_seq("vol", n).is_some())
            .collect();
        let repl: Vec<_> = replica
            .list("vol.")
            .unwrap()
            .into_iter()
            .filter(|n| parse_object_seq("vol", n).is_some())
            .collect();
        assert_eq!(all, repl);
    }

    #[test]
    fn step_is_idempotent() {
        let (primary, _) = primary_with_data();
        let replica = Arc::new(MemStore::new());
        let mut r = Replicator::new(primary, replica, "vol");
        let first = r.step(ObjSeq::MAX).unwrap();
        let second = r.step(ObjSeq::MAX).unwrap();
        assert!(first > 0);
        assert_eq!(second, 0, "nothing new to copy");
    }

    #[test]
    fn gc_deleted_objects_are_skipped_and_pruned() {
        let (primary, _) = primary_with_data();
        let replica = Arc::new(MemStore::new());
        let mut r = Replicator::new(primary.clone(), replica.clone(), "vol");
        r.step(ObjSeq::MAX).unwrap();
        // Simulate primary GC deleting an object after replication.
        primary.delete(&object_name("vol", 2)).unwrap();
        let pruned = r.prune().unwrap();
        assert_eq!(pruned, 1);
        assert!(!replica.exists(&object_name("vol", 2)).unwrap());
    }

    #[test]
    fn prefix_seq_reflects_gaps() {
        let (primary, _) = primary_with_data();
        let replica = Arc::new(MemStore::new());
        let mut r = Replicator::new(primary, replica.clone(), "vol");
        r.step(ObjSeq::MAX).unwrap();
        let full = replica_prefix_seq(replica.as_ref(), "vol").unwrap();
        assert!(full > 0);
        // Punch a hole above the newest checkpoint? The checkpoint may
        // cover everything; at minimum the function is monotone under
        // object deletion.
        replica.delete(&object_name("vol", full)).unwrap();
        let after = replica_prefix_seq(replica.as_ref(), "vol").unwrap();
        assert!(after <= full);
    }
}
