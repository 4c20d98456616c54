//! Map checkpoints (§3.3).
//!
//! To bound recovery time, LSVD periodically writes a full copy of the
//! object map — along with the object table, the snapshot list and the
//! deferred-delete list — to a numbered checkpoint object. At startup the
//! most recent valid checkpoint is loaded and the object log is replayed
//! from there to the end.

use bytes::Bytes;

use crate::objfmt;
use crate::objmap::{ObjLoc, ObjStat, ObjectMap};
use crate::types::{LsvdError, ObjSeq, Result, SECTOR};

/// Everything persisted in a checkpoint object.
#[derive(Debug, Clone, Default)]
pub struct CheckpointData {
    /// Data objects with sequence `<= covers_seq` are reflected in the map.
    pub covers_seq: ObjSeq,
    /// Cache-log frontier at checkpoint time: every cache record with
    /// sequence `<=` this is durable in the backend.
    pub frontier: u64,
    /// The object map extents: `(vLBA, sectors, location)`.
    pub map: Vec<(u64, u64, ObjLoc)>,
    /// The object table: `(seq, stat)`.
    pub table: Vec<(ObjSeq, ObjStat)>,
    /// Snapshots: `(name, object seq)`.
    pub snapshots: Vec<(String, ObjSeq)>,
    /// Deferred deletes: `(collected object, newest object at GC time)`
    /// pairs awaiting snapshot deletion (§3.6).
    pub deferred_deletes: Vec<(ObjSeq, ObjSeq)>,
}

impl CheckpointData {
    /// Captures the current volume state into checkpoint data.
    pub fn capture(
        objmap: &ObjectMap,
        covers_seq: ObjSeq,
        frontier: u64,
        snapshots: &[(String, ObjSeq)],
        deferred_deletes: &[(ObjSeq, ObjSeq)],
    ) -> Self {
        CheckpointData {
            covers_seq,
            frontier,
            map: objmap.map_extents().collect(),
            table: objmap.objects().collect(),
            snapshots: snapshots.to_vec(),
            deferred_deletes: deferred_deletes.to_vec(),
        }
    }

    /// Rebuilds the object map from this checkpoint.
    pub fn rebuild_map(&self) -> ObjectMap {
        ObjectMap::from_parts(self.map.iter().copied(), self.table.iter().copied())
    }

    /// Serializes into a checkpoint object for volume `uuid`.
    pub fn build(&self, uuid: u64) -> Bytes {
        let mut w = objfmt::checkpoint_envelope(uuid);
        // Presize for every field below plus the sector padding of
        // `seal_checkpoint`: the buffer never reallocates as it grows and
        // carries no doubling slack through its PUT.
        let names: usize = self.snapshots.iter().map(|(n, _)| 6 + n.len()).sum();
        let rows = 24 * self.map.len() + 21 * self.table.len() + 8 * self.deferred_deletes.len();
        w.reserve(32 + rows + names + SECTOR as usize);
        w.u32(self.covers_seq);
        w.u64(self.frontier);
        w.u64(self.map.len() as u64);
        for &(lba, len, loc) in &self.map {
            w.u64(lba);
            w.u64(len);
            w.u32(loc.seq);
            w.u32(loc.off);
        }
        w.u32(self.table.len() as u32);
        for &(seq, st) in &self.table {
            w.u32(seq);
            w.u32(st.total_sectors);
            w.u32(st.data_sectors);
            w.u32(st.live_sectors);
            w.u8(st.gc as u8);
            w.u32(st.write_stamp);
        }
        w.u32(self.snapshots.len() as u32);
        for (name, seq) in &self.snapshots {
            w.str16(name);
            w.u32(*seq);
        }
        w.u32(self.deferred_deletes.len() as u32);
        for &(n0, ngc) in &self.deferred_deletes {
            w.u32(n0);
            w.u32(ngc);
        }
        objfmt::seal_checkpoint(w)
    }

    /// Parses a checkpoint object, validating its CRC and that it belongs
    /// to volume `uuid`.
    pub fn parse(obj: &[u8], uuid: u64) -> Result<CheckpointData> {
        let (obj_uuid, mut r) = objfmt::open_checkpoint(obj)?;
        if obj_uuid != uuid {
            return Err(LsvdError::Corrupt(format!(
                "checkpoint belongs to volume {obj_uuid:#x}, expected {uuid:#x}"
            )));
        }
        let covers_seq = r.u32()?;
        let frontier = r.u64()?;
        let n_map = r.u64()? as usize;
        let mut map = Vec::with_capacity(n_map);
        for _ in 0..n_map {
            let lba = r.u64()?;
            let len = r.u64()?;
            let seq = r.u32()?;
            let off = r.u32()?;
            map.push((lba, len, ObjLoc { seq, off }));
        }
        let n_table = r.u32()? as usize;
        let mut table = Vec::with_capacity(n_table);
        for _ in 0..n_table {
            let seq = r.u32()?;
            let total_sectors = r.u32()?;
            let data_sectors = r.u32()?;
            let live_sectors = r.u32()?;
            let gc = r.u8()? != 0;
            let write_stamp = r.u32()?;
            table.push((
                seq,
                ObjStat {
                    total_sectors,
                    data_sectors,
                    live_sectors,
                    gc,
                    write_stamp,
                },
            ));
        }
        let n_snap = r.u32()? as usize;
        let mut snapshots = Vec::with_capacity(n_snap);
        for _ in 0..n_snap {
            let name = r.str16()?;
            let seq = r.u32()?;
            snapshots.push((name, seq));
        }
        let n_def = r.u32()? as usize;
        let mut deferred_deletes = Vec::with_capacity(n_def);
        for _ in 0..n_def {
            let n0 = r.u32()?;
            let ngc = r.u32()?;
            deferred_deletes.push((n0, ngc));
        }
        Ok(CheckpointData {
            covers_seq,
            frontier,
            map,
            table,
            snapshots,
            deferred_deletes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_map() -> ObjectMap {
        let mut m = ObjectMap::new();
        m.apply_object(1, 1, &[(0, 64), (1000, 8)]);
        m.apply_object(2, 1, &[(32, 16)]);
        m
    }

    #[test]
    fn checkpoint_round_trips() {
        let m = sample_map();
        let snaps = vec![("snap-a".to_string(), 2u32)];
        let defs = vec![(1u32, 2u32)];
        let ck = CheckpointData::capture(&m, 2, 77, &snaps, &defs);
        let obj = ck.build(0xBEEF);
        let parsed = CheckpointData::parse(&obj, 0xBEEF).unwrap();
        assert_eq!(parsed.covers_seq, 2);
        assert_eq!(parsed.frontier, 77);
        assert_eq!(parsed.snapshots, snaps);
        assert_eq!(parsed.deferred_deletes, defs);

        let rebuilt = parsed.rebuild_map();
        assert_eq!(rebuilt.extent_count(), m.extent_count());
        assert_eq!(rebuilt.lookup(32), m.lookup(32));
        assert_eq!(rebuilt.lookup(1000), m.lookup(1000));
        assert_eq!(rebuilt.object_stat(1), m.object_stat(1));
        assert_eq!(rebuilt.totals(), m.totals());
    }

    #[test]
    fn wrong_uuid_rejected() {
        let ck = CheckpointData::capture(&sample_map(), 2, 0, &[], &[]);
        let obj = ck.build(1);
        assert!(CheckpointData::parse(&obj, 2).is_err());
    }

    #[test]
    fn corruption_rejected() {
        let ck = CheckpointData::capture(&sample_map(), 2, 0, &[], &[]);
        let obj = ck.build(1);
        let mut bad = obj.to_vec();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        assert!(CheckpointData::parse(&bad, 1).is_err());
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let m = ObjectMap::new();
        let ck = CheckpointData::capture(&m, 0, 0, &[], &[]);
        let parsed = CheckpointData::parse(&ck.build(5), 5).unwrap();
        assert_eq!(parsed.map.len(), 0);
        assert_eq!(parsed.rebuild_map().extent_count(), 0);
    }
}
