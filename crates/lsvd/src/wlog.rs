//! The log-structured write-back cache (§3.1, Figure 2).
//!
//! Incoming writes are persisted as sequential log records on the cache
//! SSD: a one-sector header (magic, sequence number, extent list, CRC over
//! header and data) followed by the data sectors. Because the cache is a
//! log:
//!
//! 1. write ordering is maintained, which in turn lets the block store
//!    preserve ordering;
//! 2. small random writes become fast sequential writes;
//! 3. a commit barrier is a single device flush — no separate metadata
//!    write is needed, unlike B-tree-indexed caches such as bcache.
//!
//! After each append the log publishes the record's sequence number to
//! its [`GroupCommit`], so a commit barrier can wait for a device flush
//! that covers a position instead of issuing one of its own.
//!
//! The log is circular. Records are *released* once their data is durable
//! in a backend object; released space is reused by the head. A tiny
//! two-slot checkpoint (tail position and sequence) bounds the recovery
//! scan; the scan itself validates each record's CRC and requires strictly
//! consecutive sequence numbers, so recovery stops at the first torn or
//! stale record — only complete, in-order records are ever used (§3.3).

use std::collections::VecDeque;
use std::sync::Arc;

use blkdev::BlockDevice;

use crate::codec::{ByteReader, ByteWriter};
use crate::commit::GroupCommit;
use crate::crc::{crc32c, crc32c_append, crc32c_combine, crc32c_field_zeroed};
use crate::types::{bytes_to_sectors, Lba, LsvdError, Plba, Result, SECTOR};

const RECORD_MAGIC: u32 = 0x4C53_5644; // "LSVD"
const CKPT_MAGIC: u32 = 0x4C53_434B; // "LSCK"
const HDR_SECTORS: u64 = 1;
/// Two one-sector checkpoint slots at the start of the region.
const CKPT_SLOTS: u64 = 2;

/// Maximum extents encodable in a one-sector header:
/// (512 - 28 fixed bytes) / 12 bytes per extent.
pub const MAX_EXTENTS_PER_RECORD: usize = 40;

/// Record kind stored in the header's (previously reserved) u16: a data
/// record carries payload sectors; a trim record is header-only and its
/// extent list names the discarded ranges.
const KIND_DATA: u16 = 0;
const KIND_TRIM: u16 = 1;

/// A live (not yet released) record in the cache log.
#[derive(Debug, Clone)]
pub struct RecordInfo {
    /// The record's global write sequence number.
    pub seq: u64,
    /// Sector address of the header.
    pub hdr_plba: Plba,
    /// Sector address of the first data sector.
    pub data_plba: Plba,
    /// Total data sectors (always 0 for trim records).
    pub data_sectors: u64,
    /// The virtual extents contained, as `(vLBA, sectors)` in data order.
    /// For a trim record these are the discarded ranges — no data backs
    /// them.
    pub extents: Vec<(Lba, u32)>,
    /// True for a header-only trim record.
    pub trim: bool,
}

/// Result of appending one record.
#[derive(Debug)]
pub struct Appended {
    /// The record's sequence number.
    pub seq: u64,
    /// Placement of each extent: `(vLBA, data pLBA, sectors)`.
    pub placements: Vec<(Lba, Plba, u32)>,
    /// Finalized CRC32C of each extent's payload, in input order. This is
    /// the *only* checksum pass over the payload on the write path — the
    /// record CRC is assembled from these by [`crc32c_combine`], and the
    /// values flow downstream so the batch/object layers never re-read
    /// the data to checksum it.
    pub crcs: Vec<u32>,
}

/// The on-SSD write-back log.
pub struct WriteLog {
    dev: Arc<dyn BlockDevice>,
    /// First sector of the whole region (checkpoint slots live here).
    region_start: u64,
    /// First sector of the circular log area.
    log_start: u64,
    /// One past the last sector of the log area.
    log_end: u64,
    head: Plba,
    tail: Plba,
    next_seq: u64,
    tail_seq: u64,
    records: VecDeque<RecordInfo>,
    ckpt_slot: u64,
    ckpt_gen: u64,
    /// Reusable header-encode buffer: one allocation per log, not per
    /// append (the fixed per-append allocation cost was what made 4 KiB
    /// appends ~8× worse per byte than 16 KiB ones).
    scratch: ByteWriter,
    /// The commit barrier, to which each append publishes its record.
    commit: Arc<GroupCommit>,
}

/// Encodes a record header into `w` (cleared first) with the CRC field
/// zero; the caller patches offset 4 once the payload CRCs are folded in.
fn encode_header_into(w: &mut ByteWriter, seq: u64, extents: &[(Lba, u32)], kind: u16) {
    assert!(extents.len() <= MAX_EXTENTS_PER_RECORD, "too many extents");
    w.clear();
    let total: u64 = if kind == KIND_TRIM {
        0
    } else {
        extents.iter().map(|&(_, len)| len as u64).sum()
    };
    w.u32(RECORD_MAGIC);
    w.u32(0); // CRC placeholder (patched by the caller)
    w.u64(seq);
    w.u32(total as u32);
    w.u16(extents.len() as u16);
    w.u16(kind);
    for &(lba, len) in extents {
        w.u64(lba);
        w.u32(len);
    }
    w.pad_to(SECTOR as usize);
}

/// Reference encoder (tests): header with CRC patched in, one shot.
#[cfg(test)]
fn encode_header(seq: u64, extents: &[(Lba, u32)], data: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(SECTOR as usize);
    encode_header_into(&mut w, seq, extents, KIND_DATA);
    let mut hdr = w.into_vec();
    // CRC over header (with CRC field zeroed) plus data.
    let crc = crc32c_with(&hdr, data);
    hdr[4..8].copy_from_slice(&crc.to_le_bytes());
    hdr
}

/// Record CRC: header with its CRC field treated as zero, then the data.
fn crc32c_with(hdr: &[u8], data: &[u8]) -> u32 {
    crc32c_append(crc32c_field_zeroed(hdr, 4), data)
}

struct ParsedHeader {
    seq: u64,
    data_sectors: u64,
    extents: Vec<(Lba, u32)>,
    crc: u32,
    trim: bool,
}

fn parse_header(sector: &[u8]) -> Option<ParsedHeader> {
    let mut r = ByteReader::new(sector);
    if r.u32().ok()? != RECORD_MAGIC {
        return None;
    }
    let crc = r.u32().ok()?;
    let seq = r.u64().ok()?;
    let data_sectors = r.u32().ok()? as u64;
    let n = r.u16().ok()? as usize;
    let kind = r.u16().ok()?;
    if n > MAX_EXTENTS_PER_RECORD || kind > KIND_TRIM {
        return None;
    }
    let mut extents = Vec::with_capacity(n);
    let mut total = 0u64;
    for _ in 0..n {
        let lba = r.u64().ok()?;
        let len = r.u32().ok()?;
        extents.push((lba, len));
        total += len as u64;
    }
    // A data record's extents must account for its payload exactly; a trim
    // record carries no payload at all (its extent lengths name the
    // discarded ranges).
    if kind == KIND_TRIM {
        if data_sectors != 0 {
            return None;
        }
    } else if total != data_sectors {
        return None;
    }
    Some(ParsedHeader {
        seq,
        data_sectors,
        extents,
        crc,
        trim: kind == KIND_TRIM,
    })
}

impl WriteLog {
    /// Formats a fresh log over `[region_start, region_start+region_sectors)`
    /// of `dev`, destroying any previous contents.
    ///
    /// `first_seq` is the sequence number of the first future record. A
    /// brand-new volume starts at 1; a volume reformatting its cache after
    /// losing it must continue *above* the recovered backend frontier, or
    /// a later recovery would mistake fresh records for already-shipped
    /// ones.
    pub fn format(
        dev: Arc<dyn BlockDevice>,
        region_start: u64,
        region_sectors: u64,
        first_seq: u64,
    ) -> Result<Self> {
        assert!(
            region_sectors > CKPT_SLOTS + 8,
            "write cache region too small"
        );
        assert!(first_seq >= 1, "sequence numbers start at 1");
        let mut log = WriteLog {
            commit: Arc::new(GroupCommit::new(dev.clone(), first_seq - 1)),
            dev,
            region_start,
            log_start: region_start + CKPT_SLOTS,
            log_end: region_start + region_sectors,
            head: region_start + CKPT_SLOTS,
            tail: region_start + CKPT_SLOTS,
            next_seq: first_seq,
            tail_seq: first_seq - 1,
            records: VecDeque::new(),
            ckpt_slot: 0,
            ckpt_gen: 0,
            scratch: ByteWriter::with_capacity(SECTOR as usize),
        };
        // Invalidate any stale first record from a previous life.
        log.dev
            .write_at(log.log_start * SECTOR, &vec![0u8; SECTOR as usize])?;
        log.write_ckpt()?;
        log.write_ckpt()?; // both slots valid
        Ok(log)
    }

    /// Total sectors the circular log area can hold.
    pub fn capacity_sectors(&self) -> u64 {
        self.log_end - self.log_start
    }

    /// Sectors currently occupied by unreleased records (plus wrap slack).
    pub fn used_sectors(&self) -> u64 {
        // `head == tail` always means empty: appends keep one sector of
        // slack so a full log never aliases an empty one.
        if self.head >= self.tail {
            self.head - self.tail
        } else {
            self.capacity_sectors() - (self.tail - self.head)
        }
    }

    /// Free sectors available for new records (excluding the slack sector).
    pub fn free_sectors(&self) -> u64 {
        self.capacity_sectors() - self.used_sectors() - 1
    }

    /// Computes where a record of `need` sectors would start and how many
    /// sectors would be wasted at the end of the region by wrapping.
    fn placement(&self, need: u64) -> (Plba, u64) {
        if self.head + need > self.log_end {
            (self.log_start, self.log_end - self.head)
        } else {
            (self.head, 0)
        }
    }

    /// Whether a record with `data_bytes` of payload fits right now,
    /// including any wasted wrap fragment.
    pub fn has_room(&self, data_bytes: u64) -> bool {
        let need = HDR_SECTORS + bytes_to_sectors(data_bytes);
        let (_, waste) = self.placement(need);
        self.free_sectors() >= need + waste
    }

    /// Number of unreleased records.
    pub fn live_records(&self) -> usize {
        self.records.len()
    }

    /// The sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one record containing `extents` (vLBA plus data slices, in
    /// write order). Returns the sequence number and data placements.
    ///
    /// The caller must ensure room (see [`WriteLog::has_room`]); if the log
    /// is full, [`LsvdError::CacheFull`] is returned and the caller should
    /// write back and release records before retrying.
    pub fn append(&mut self, extents: &[(Lba, &[u8])]) -> Result<Appended> {
        assert!(!extents.is_empty() && extents.len() <= MAX_EXTENTS_PER_RECORD);
        let mut ext_hdr = Vec::with_capacity(extents.len());
        let mut data_sectors = 0u64;
        for (lba, d) in extents {
            assert!(!d.is_empty() && d.len() % SECTOR as usize == 0);
            let sectors = bytes_to_sectors(d.len() as u64);
            ext_hdr.push((*lba, sectors as u32));
            data_sectors += sectors;
        }
        let need = HDR_SECTORS + data_sectors;

        // Wrap if the record does not fit before the end of the region; the
        // skipped fragment stays dead until the tail passes it.
        let (head, waste) = self.placement(need);
        if self.free_sectors() < need + waste {
            return Err(LsvdError::CacheFull);
        }

        let seq = self.next_seq;
        // Data first, then the header that makes it reachable; either order
        // is safe (the CRC covers both), this order slightly narrows the
        // window where a torn header could point at missing data. Each
        // extent is written straight from the caller's buffer (no concat
        // copy) and checksummed in the same pass — the only CRC the write
        // path ever computes over this payload.
        let mut crcs = Vec::with_capacity(extents.len());
        let mut p = head + HDR_SECTORS;
        for (_, d) in extents {
            crcs.push(crc32c(d));
            self.dev.write_at(p * SECTOR, d)?;
            p += bytes_to_sectors(d.len() as u64);
        }
        // The header is encoded into the per-log scratch buffer, and the
        // record CRC is assembled from the per-extent CRCs by combine —
        // the payload is not read again.
        encode_header_into(&mut self.scratch, seq, &ext_hdr, KIND_DATA);
        let mut crc = crc32c(self.scratch.as_slice());
        for (c, (_, d)) in crcs.iter().zip(extents) {
            crc = crc32c_combine(crc, *c, d.len() as u64);
        }
        self.scratch.patch_u32(4, crc);
        self.dev.write_at(head * SECTOR, self.scratch.as_slice())?;

        let mut placements = Vec::with_capacity(ext_hdr.len());
        let mut p = head + HDR_SECTORS;
        for &(lba, len) in &ext_hdr {
            placements.push((lba, p, len));
            p += len as u64;
        }
        self.records.push_back(RecordInfo {
            seq,
            hdr_plba: head,
            data_plba: head + HDR_SECTORS,
            data_sectors,
            extents: ext_hdr,
            trim: false,
        });
        self.next_seq += 1;
        self.head = head + need;
        self.commit.publish(seq);
        Ok(Appended {
            seq,
            placements,
            crcs,
        })
    }

    /// Appends one header-only *trim* record naming discarded ranges. The
    /// record occupies a single sector; recovery replays it by punching the
    /// ranges from the object map, so a discard survives a crash exactly
    /// like a write does. Returns the record's sequence number.
    pub fn append_trim(&mut self, extents: &[(Lba, u32)]) -> Result<u64> {
        assert!(!extents.is_empty() && extents.len() <= MAX_EXTENTS_PER_RECORD);
        let need = HDR_SECTORS;
        let (head, waste) = self.placement(need);
        if self.free_sectors() < need + waste {
            return Err(LsvdError::CacheFull);
        }
        let seq = self.next_seq;
        encode_header_into(&mut self.scratch, seq, extents, KIND_TRIM);
        let crc = crc32c(self.scratch.as_slice());
        self.scratch.patch_u32(4, crc);
        self.dev.write_at(head * SECTOR, self.scratch.as_slice())?;
        self.records.push_back(RecordInfo {
            seq,
            hdr_plba: head,
            data_plba: head + HDR_SECTORS,
            data_sectors: 0,
            extents: extents.to_vec(),
            trim: true,
        });
        self.next_seq += 1;
        self.head = head + need;
        self.commit.publish(seq);
        Ok(seq)
    }

    /// The log's commit barrier: a flush waits on it for a device flush
    /// that covers the records appended before it.
    pub(crate) fn commit(&self) -> &Arc<GroupCommit> {
        &self.commit
    }

    /// Reads back record data (the writeback path reads outgoing data from
    /// the cache SSD, as the prototype's userspace daemon does, §3.7).
    pub fn read_data(&self, plba: Plba, sectors: u64) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; (sectors * SECTOR) as usize];
        self.dev.read_at(plba * SECTOR, &mut buf)?;
        Ok(buf)
    }

    /// Releases all records with sequence `<= seq` (their data is durable
    /// in the backend), advancing the tail. Returns the released records so
    /// the caller can invalidate its map entries.
    pub fn release_to(&mut self, seq: u64) -> Result<Vec<RecordInfo>> {
        let mut released = Vec::new();
        while let Some(front) = self.records.front() {
            if front.seq > seq {
                break;
            }
            let r = self.records.pop_front().expect("non-empty");
            self.tail_seq = r.seq;
            released.push(r);
        }
        if !released.is_empty() {
            self.tail = match self.records.front() {
                Some(next) => next.hdr_plba,
                None => self.head,
            };
            // Persist the new tail before any append can reuse the freed
            // space: a recovery scan must never start inside overwritten
            // sectors. Releases happen once per backend object, so this is
            // one small write and one full device flush per ~8 MiB of
            // data; the flush also carries every write still dirty in the
            // device's cache.
            self.write_ckpt()?;
        }
        Ok(released)
    }

    fn write_ckpt(&mut self) -> Result<()> {
        self.ckpt_gen += 1;
        let mut w = ByteWriter::with_capacity(SECTOR as usize);
        w.u32(CKPT_MAGIC);
        w.u32(0); // CRC placeholder
        w.u64(self.ckpt_gen);
        w.u64(self.tail);
        w.u64(self.tail_seq);
        w.pad_to(SECTOR as usize);
        let mut sector = w.into_vec();
        let crc = crc32c_with(&sector, &[]);
        sector[4..8].copy_from_slice(&crc.to_le_bytes());
        let slot = self.region_start + self.ckpt_slot;
        self.ckpt_slot = (self.ckpt_slot + 1) % CKPT_SLOTS;
        self.dev.write_at(slot * SECTOR, &sector)?;
        self.dev.flush()?;
        Ok(())
    }

    fn read_ckpt(
        dev: &Arc<dyn BlockDevice>,
        region_start: u64,
    ) -> Result<Option<(u64, Plba, u64)>> {
        let mut best: Option<(u64, Plba, u64)> = None;
        for slot in 0..CKPT_SLOTS {
            let mut sector = vec![0u8; SECTOR as usize];
            dev.read_at((region_start + slot) * SECTOR, &mut sector)?;
            let mut r = ByteReader::new(&sector);
            let Ok(magic) = r.u32() else { continue };
            if magic != CKPT_MAGIC {
                continue;
            }
            let Ok(crc) = r.u32() else { continue };
            if crc32c_with(&sector, &[]) != crc {
                continue;
            }
            let (Ok(gen), Ok(tail), Ok(tail_seq)) = (r.u64(), r.u64(), r.u64()) else {
                continue;
            };
            if best.is_none_or(|(g, _, _)| gen > g) {
                best = Some((gen, tail, tail_seq));
            }
        }
        Ok(best)
    }

    /// Recovers the log after a restart.
    ///
    /// Scans forward from the checkpointed tail, validating CRCs and
    /// requiring strictly consecutive sequence numbers; stops at the first
    /// invalid record (§3.3). Records with sequence `<= frontier_seq` are
    /// already durable in the backend and are dropped; newer records are
    /// returned for the caller to replay to the backend.
    pub fn recover(
        dev: Arc<dyn BlockDevice>,
        region_start: u64,
        region_sectors: u64,
        frontier_seq: u64,
    ) -> Result<(Self, Vec<RecordInfo>)> {
        let log_start = region_start + CKPT_SLOTS;
        let log_end = region_start + region_sectors;
        let (ckpt_gen, mut pos, tail_seq) = Self::read_ckpt(&dev, region_start)?
            .ok_or_else(|| LsvdError::Corrupt("no valid cache checkpoint".into()))?;

        let mut expected = tail_seq + 1;
        let mut found: Vec<RecordInfo> = Vec::new();
        let mut wrapped = false;
        loop {
            if pos + HDR_SECTORS > log_end {
                if wrapped {
                    break;
                }
                wrapped = true;
                pos = log_start;
            }
            let mut hdr = vec![0u8; SECTOR as usize];
            dev.read_at(pos * SECTOR, &mut hdr)?;
            let parsed = match parse_header(&hdr) {
                Some(p) if p.seq == expected => p,
                // A record that didn't fit at the end makes the writer
                // wrap; follow it once.
                _ if !wrapped && pos != log_start => {
                    wrapped = true;
                    pos = log_start;
                    continue;
                }
                _ => break,
            };
            if pos + HDR_SECTORS + parsed.data_sectors > log_end {
                break; // Truncated: cannot be a complete record.
            }
            let mut data = vec![0u8; (parsed.data_sectors * SECTOR) as usize];
            dev.read_at((pos + HDR_SECTORS) * SECTOR, &mut data)?;
            // crc32c_with treats the CRC field as zero, so the header can
            // be verified in place without a blanked clone.
            if crc32c_with(&hdr, &data) != parsed.crc {
                break;
            }
            found.push(RecordInfo {
                seq: parsed.seq,
                hdr_plba: pos,
                data_plba: pos + HDR_SECTORS,
                data_sectors: parsed.data_sectors,
                extents: parsed.extents,
                trim: parsed.trim,
            });
            pos += HDR_SECTORS + parsed.data_sectors;
            if pos == log_end {
                if wrapped {
                    break;
                }
                wrapped = true;
                pos = log_start;
            }
            expected += 1;
        }

        let next_seq = found.last().map(|r| r.seq + 1).max(Some(expected)).unwrap();
        // Drop records already reflected in the backend ("rewind").
        let pending: Vec<RecordInfo> = found
            .iter()
            .filter(|r| r.seq > frontier_seq)
            .cloned()
            .collect();
        let (tail, tail_seq) = match pending.first() {
            Some(r) => (r.hdr_plba, r.seq - 1),
            None => (pos, next_seq - 1),
        };
        let head = pos;
        let mut log = WriteLog {
            commit: Arc::new(GroupCommit::new(dev.clone(), next_seq - 1)),
            dev,
            region_start,
            log_start,
            log_end,
            head,
            tail,
            next_seq,
            tail_seq,
            records: pending.iter().cloned().collect(),
            ckpt_slot: ckpt_gen % CKPT_SLOTS,
            ckpt_gen,
            scratch: ByteWriter::with_capacity(SECTOR as usize),
        };
        // Re-anchor the checkpoint at the recovered tail so a second crash
        // cannot scan from space the new head is about to reuse.
        log.write_ckpt()?;
        Ok((log, pending))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blkdev::RamDisk;

    fn mkdev(sectors: u64) -> Arc<dyn BlockDevice> {
        Arc::new(RamDisk::new(sectors * SECTOR))
    }

    fn data(tag: u8, sectors: usize) -> Vec<u8> {
        vec![tag; sectors * SECTOR as usize]
    }

    #[test]
    fn append_and_read_back() {
        let dev = mkdev(1024);
        let mut log = WriteLog::format(dev, 0, 1024, 1).unwrap();
        let d = data(7, 8);
        let res = log.append(&[(100, &d)]).unwrap();
        assert_eq!(res.seq, 1);
        assert_eq!(res.placements.len(), 1);
        let (lba, plba, len) = res.placements[0];
        assert_eq!((lba, len), (100, 8));
        assert_eq!(log.read_data(plba, 8).unwrap(), d);
        assert_eq!(log.live_records(), 1);
    }

    #[test]
    fn multi_extent_record_placements() {
        let dev = mkdev(1024);
        let mut log = WriteLog::format(dev, 0, 1024, 1).unwrap();
        let a = data(1, 2);
        let b = data(2, 3);
        let res = log.append(&[(10, &a), (500, &b)]).unwrap();
        assert_eq!(res.placements[0].2, 2);
        assert_eq!(res.placements[1].2, 3);
        assert_eq!(res.placements[1].1, res.placements[0].1 + 2);
        assert_eq!(log.read_data(res.placements[1].1, 3).unwrap(), b);
    }

    #[test]
    fn append_returns_per_extent_payload_crcs() {
        let dev = mkdev(1024);
        let mut log = WriteLog::format(dev, 0, 1024, 1).unwrap();
        let a = data(1, 2);
        let b = data(2, 3);
        let res = log.append(&[(10, &a), (500, &b)]).unwrap();
        assert_eq!(res.crcs, vec![crc32c(&a), crc32c(&b)]);
        // The on-media record CRC assembled by combine matches the
        // recompute-from-scratch encoding.
        let mut hdr = vec![0u8; SECTOR as usize];
        log.dev
            .read_at(log.records[0].hdr_plba * SECTOR, &mut hdr)
            .unwrap();
        let mut whole = a.clone();
        whole.extend_from_slice(&b);
        let expect = encode_header(1, &[(10, 2), (500, 3)], &whole);
        assert_eq!(hdr, expect);
    }

    #[test]
    fn recovery_rebuilds_records() {
        let dev = mkdev(1024);
        {
            let mut log = WriteLog::format(dev.clone(), 0, 1024, 1).unwrap();
            for i in 0..5u8 {
                log.append(&[(i as u64 * 8, &data(i, 4))]).unwrap();
            }
            log.commit().wait(log.next_seq() - 1).unwrap();
        }
        let (log, pending) = WriteLog::recover(dev, 0, 1024, 0).unwrap();
        assert_eq!(pending.len(), 5);
        assert_eq!(pending[0].seq, 1);
        assert_eq!(pending[4].seq, 5);
        assert_eq!(log.next_seq(), 6);
        assert_eq!(pending[2].extents, vec![(16, 4)]);
    }

    #[test]
    fn recovery_respects_frontier() {
        let dev = mkdev(1024);
        {
            let mut log = WriteLog::format(dev.clone(), 0, 1024, 1).unwrap();
            for i in 0..5u8 {
                log.append(&[(i as u64 * 8, &data(i, 4))]).unwrap();
            }
        }
        let (_, pending) = WriteLog::recover(dev, 0, 1024, 3).unwrap();
        let seqs: Vec<u64> = pending.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![4, 5]);
    }

    #[test]
    fn recovery_stops_at_torn_record() {
        let dev = mkdev(1024);
        let plba3;
        {
            let mut log = WriteLog::format(dev.clone(), 0, 1024, 1).unwrap();
            for i in 0..5u8 {
                let r = log.append(&[(i as u64 * 8, &data(i, 4))]).unwrap();
                if i == 2 {
                    // remember record 3's data location
                }
                let _ = r;
            }
            plba3 = log.records[2].data_plba;
        }
        // Corrupt one data sector of record 3.
        dev.write_at(plba3 * SECTOR, &[0xEE; SECTOR as usize])
            .unwrap();
        let (_, pending) = WriteLog::recover(dev, 0, 1024, 0).unwrap();
        // Prefix rule: records 1 and 2 only.
        let seqs: Vec<u64> = pending.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn release_advances_tail_and_frees_space() {
        let dev = mkdev(128);
        let mut log = WriteLog::format(dev, 0, 128, 1).unwrap();
        let free0 = log.free_sectors();
        let mut last = 0;
        for i in 0..10u8 {
            last = log.append(&[(i as u64, &data(i, 4))]).unwrap().seq;
        }
        assert!(log.free_sectors() < free0);
        let released = log.release_to(last).unwrap();
        assert_eq!(released.len(), 10);
        assert_eq!(log.free_sectors(), free0);
        assert_eq!(log.live_records(), 0);
    }

    #[test]
    fn log_wraps_and_keeps_appending() {
        let dev = mkdev(64); // tiny: 62-sector log area
        let mut log = WriteLog::format(dev, 0, 64, 1).unwrap();
        // Each record: 1 hdr + 4 data = 5 sectors. Append and release to
        // force many wraps.
        for round in 0..50u64 {
            let d = data(round as u8, 4);
            let res = log.append(&[(round * 8, &d)]).unwrap();
            let (_, plba, _) = res.placements[0];
            assert_eq!(log.read_data(plba, 4).unwrap(), d);
            log.release_to(res.seq).unwrap();
        }
        assert_eq!(log.next_seq(), 51);
    }

    #[test]
    fn cache_full_when_not_released() {
        let dev = mkdev(64);
        let mut log = WriteLog::format(dev, 0, 64, 1).unwrap();
        let mut appended = 0;
        loop {
            if log.append(&[(appended * 8, &data(1, 4))]).is_err() {
                break;
            }
            appended += 1;
            assert!(appended < 100, "log never filled");
        }
        // 62-sector area, 5 sectors per record, one slack sector -> 12 fit.
        assert_eq!(appended, 12);
    }

    #[test]
    fn recovery_after_wrap_follows_sequence() {
        let dev = mkdev(64);
        let mut kept = Vec::new();
        {
            let mut log = WriteLog::format(dev.clone(), 0, 64, 1).unwrap();
            for round in 0..20u64 {
                let res = log.append(&[(round * 8, &data(round as u8, 4))]).unwrap();
                // Keep the last 3 unreleased.
                if round >= 17 {
                    kept.push(res.seq);
                } else {
                    log.release_to(res.seq).unwrap();
                }
            }
        }
        let (log, pending) = WriteLog::recover(dev, 0, 64, 0).unwrap();
        let seqs: Vec<u64> = pending.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, kept);
        assert_eq!(log.next_seq(), 21);
    }

    #[test]
    fn fresh_format_recovers_empty() {
        let dev = mkdev(256);
        WriteLog::format(dev.clone(), 0, 256, 1).unwrap();
        let (log, pending) = WriteLog::recover(dev, 0, 256, 0).unwrap();
        assert!(pending.is_empty());
        assert_eq!(log.next_seq(), 1);
    }

    #[test]
    fn header_encoding_round_trips() {
        let extents = vec![(42u64, 8u32), (1000, 16)];
        let payload = vec![5u8; 24 * SECTOR as usize];
        let hdr = encode_header(99, &extents, &payload);
        assert_eq!(hdr.len(), SECTOR as usize);
        let p = parse_header(&hdr).expect("valid header");
        assert_eq!(p.seq, 99);
        assert_eq!(p.data_sectors, 24);
        assert_eq!(p.extents, extents);
        let mut hdr_z = hdr.clone();
        hdr_z[4..8].fill(0);
        assert_eq!(crc32c_with(&hdr_z, &payload), p.crc);
    }

    #[test]
    fn header_rejects_garbage() {
        assert!(parse_header(&[0u8; SECTOR as usize]).is_none());
        let mut hdr = encode_header(1, &[(0, 8)], &vec![0u8; 8 * SECTOR as usize]);
        hdr[0] ^= 0xff;
        assert!(parse_header(&hdr).is_none());
    }

    #[test]
    fn trim_record_round_trips_through_recovery() {
        let dev = mkdev(1024);
        {
            let mut log = WriteLog::format(dev.clone(), 0, 1024, 1).unwrap();
            log.append(&[(0, &data(1, 4))]).unwrap();
            let seq = log.append_trim(&[(0, 2), (100, 8)]).unwrap();
            assert_eq!(seq, 2);
            log.append(&[(64, &data(2, 4))]).unwrap();
            log.commit().wait(log.next_seq() - 1).unwrap();
        }
        let (log, pending) = WriteLog::recover(dev, 0, 1024, 0).unwrap();
        assert_eq!(pending.len(), 3);
        assert!(!pending[0].trim);
        assert!(pending[1].trim);
        assert_eq!(pending[1].extents, vec![(0, 2), (100, 8)]);
        assert_eq!(pending[1].data_sectors, 0);
        assert!(!pending[2].trim);
        assert_eq!(log.next_seq(), 4);
    }

    #[test]
    fn trim_record_occupies_one_sector() {
        let dev = mkdev(1024);
        let mut log = WriteLog::format(dev, 0, 1024, 1).unwrap();
        let used0 = log.used_sectors();
        log.append_trim(&[(8, 8)]).unwrap();
        assert_eq!(log.used_sectors(), used0 + 1);
        assert_eq!(log.live_records(), 1);
    }

    #[test]
    fn trim_release_frees_space() {
        let dev = mkdev(64);
        let mut log = WriteLog::format(dev, 0, 64, 1).unwrap();
        let free0 = log.free_sectors();
        let seq = log.append_trim(&[(0, 4)]).unwrap();
        let released = log.release_to(seq).unwrap();
        assert_eq!(released.len(), 1);
        assert!(released[0].trim);
        assert_eq!(log.free_sectors(), free0);
    }

    #[test]
    fn header_rejects_bad_kind_and_trim_with_payload() {
        // Unknown kind.
        let mut w = ByteWriter::with_capacity(SECTOR as usize);
        encode_header_into(&mut w, 1, &[(0, 4)], 7);
        let mut hdr = w.into_vec();
        let crc = crc32c(&hdr);
        hdr[4..8].copy_from_slice(&crc.to_le_bytes());
        assert!(parse_header(&hdr).is_none());
        // Trim header claiming payload sectors.
        let mut w = ByteWriter::with_capacity(SECTOR as usize);
        encode_header_into(&mut w, 1, &[(0, 4)], KIND_TRIM);
        let mut hdr = w.into_vec();
        hdr[16..20].copy_from_slice(&4u32.to_le_bytes());
        let crc = crc32c_field_zeroed(&hdr, 4);
        hdr[4..8].copy_from_slice(&crc.to_le_bytes());
        assert!(parse_header(&hdr).is_none());
    }

    #[test]
    fn nonzero_region_start_respected() {
        let dev = mkdev(2048);
        let mut log = WriteLog::format(dev.clone(), 1024, 512, 1).unwrap();
        let res = log.append(&[(0, &data(9, 4))]).unwrap();
        assert!(res.placements[0].1 >= 1024 + CKPT_SLOTS);
        let (_, pending) = WriteLog::recover(dev, 1024, 512, 0).unwrap();
        assert_eq!(pending.len(), 1);
    }
}
