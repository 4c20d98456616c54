//! On-backend object formats (§3.1, Figure 4).
//!
//! Every LSVD backend object starts with a self-describing header carrying
//! the volume UUID, the object's sequence number, and — for data objects —
//! the list of virtual extents whose data follows. Headers make the object
//! stream self-recovering: the whole in-memory object map can be rebuilt
//! by reading headers in sequence order (§3.3), and the garbage collector
//! reads a candidate's header to learn which ranges might still be live
//! (§3.5).
//!
//! Three object types share the envelope:
//!
//! - **data** objects: header + concatenated extent data;
//! - **checkpoint** objects: a serialized object map, object table,
//!   deferred-delete list and snapshot list ([`crate::checkpoint`]);
//! - the **superblock**: immutable volume identity — size, clone ancestry —
//!   written once at create time.

use bytes::Bytes;

use crate::codec::{ByteReader, ByteWriter};
use crate::crc::{crc32c, crc32c_field_zeroed};
use crate::types::{Lba, LsvdError, ObjSeq, Result, SECTOR};

const OBJ_MAGIC: u32 = 0x4C53_564F; // "LSVO"
                                    // Version 2: data-object extent entries carry a per-extent payload CRC32C
                                    // so readers can verify fetched ranges without re-reading whole objects.
const FMT_VERSION: u16 = 2;

/// Object type tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjType {
    /// A data object in the volume's log stream.
    Data = 1,
    /// A map checkpoint.
    Checkpoint = 2,
    /// The volume superblock.
    Superblock = 3,
}

/// Flag bit: this data object was written by the garbage collector.
pub const FLAG_GC: u8 = 1;

/// High bit of an extent entry's length field: the entry is a *trim* (a
/// discarded range), carries no payload bytes, and its CRC field is zero.
/// Trim entries are written ahead of data entries; replay applies all of
/// an object's trims before its data extents, so a trim-then-rewrite in
/// the same batch resolves to the rewrite.
pub const TRIM_BIT: u32 = 0x8000_0000;

/// Parsed header of a data object.
#[derive(Debug, Clone)]
pub struct DataHeader {
    /// Volume UUID.
    pub uuid: u64,
    /// Sequence number in the log stream.
    pub seq: ObjSeq,
    /// Highest cache-log write sequence reflected in this object; recovery
    /// rewinds the cache to this frontier (§3.3).
    pub last_cache_seq: u64,
    /// Whether the object was written by GC (contains only relocated data).
    pub gc: bool,
    /// Byte offset where extent data begins (sector aligned).
    pub data_offset: u32,
    /// Discarded ranges advertised by this object: `(vLBA, sectors)`.
    /// Applied to the object map *before* `extents` during replay.
    pub trims: Vec<(Lba, u32)>,
    /// Contained extents in data order: `(vLBA, sectors)`.
    pub extents: Vec<(Lba, u32)>,
    /// CRC32C of each extent's payload, parallel to `extents`. Readers
    /// verify fetched ranges against these (whole extents directly; spans
    /// of extents by folding with [`crate::crc::crc32c_combine`]).
    pub extent_crcs: Vec<u32>,
    /// For GC objects only: the source location each extent was copied
    /// from, parallel to `extents`. Recovery replay redirects a mapping to
    /// the GC copy *only if* it still points at this source — the same rule
    /// the live garbage collector applies — so data overwritten between the
    /// copy and the crash is never resurrected.
    pub gc_src: Vec<(ObjSeq, u32)>,
}

impl DataHeader {
    /// Total data sectors described by the extent list.
    pub fn data_sectors(&self) -> u64 {
        self.extents.iter().map(|&(_, l)| l as u64).sum()
    }
}

fn header_envelope(obj_type: ObjType, flags: u8, uuid: u64) -> ByteWriter {
    let mut w = ByteWriter::with_capacity(4096);
    w.u32(OBJ_MAGIC);
    w.u32(0); // CRC placeholder, patched in `seal`
    w.u16(FMT_VERSION);
    w.u8(obj_type as u8);
    w.u8(flags);
    w.u64(uuid);
    w
}

/// Finalizes a header: pads to a sector boundary, computes the CRC over the
/// padded header with the CRC field treated as zero (in place, no copy), and
/// patches it in.
fn seal(mut w: ByteWriter) -> Vec<u8> {
    let len = w.len().div_ceil(SECTOR as usize) * SECTOR as usize;
    w.pad_to(len);
    let crc = crc32c_field_zeroed(w.as_slice(), 4);
    w.patch_u32(4, crc);
    w.into_vec()
}

struct Envelope<'a> {
    obj_type: u8,
    flags: u8,
    uuid: u64,
    rest: ByteReader<'a>,
}

fn open_envelope<'a>(hdr: &'a [u8], what: &str) -> Result<Envelope<'a>> {
    let mut r = ByteReader::new(hdr);
    if r.u32()? != OBJ_MAGIC {
        return Err(LsvdError::Corrupt(format!("{what}: bad magic")));
    }
    let crc = r.u32()?;
    if r.u16()? != FMT_VERSION {
        return Err(LsvdError::Corrupt(format!("{what}: bad version")));
    }
    let obj_type = r.u8()?;
    let flags = r.u8()?;
    let uuid = r.u64()?;
    // The CRC covers the whole header region; callers that hold the entire
    // header (everything before data_offset) verify it. `crc` is stashed in
    // the envelope for that check.
    let _ = crc;
    Ok(Envelope {
        obj_type,
        flags,
        uuid,
        rest: r,
    })
}

fn verify_crc(hdr: &[u8], what: &str) -> Result<()> {
    if hdr.len() < 8 || !hdr.len().is_multiple_of(SECTOR as usize) {
        return Err(LsvdError::Corrupt(format!("{what}: bad header length")));
    }
    let stored = u32::from_le_bytes(hdr[4..8].try_into().expect("4 bytes"));
    if crc32c_field_zeroed(hdr, 4) != stored {
        return Err(LsvdError::Corrupt(format!("{what}: CRC mismatch")));
    }
    Ok(())
}

/// Builds the sealed header of a data object, returning a buffer with
/// `data_capacity` spare bytes reserved so the caller can gather the extent
/// payloads directly behind the header without reallocating — the write
/// path's single payload copy (batch buffer → object bytes).
///
/// `extent_crcs[i]` is the CRC32C of extent `i`'s payload; callers on the
/// hot path derive these from already-computed chunk CRCs via
/// [`crate::crc::crc32c_combine`] rather than re-reading the data.
///
/// For GC objects, pass `gc_src`: the source location of each extent,
/// parallel to `extents`; normal objects pass `None`.
///
/// # Panics
///
/// Panics if `extent_crcs` (or a present `gc_src`) differs in length from
/// `extents`.
pub fn build_data_header(
    uuid: u64,
    seq: ObjSeq,
    last_cache_seq: u64,
    gc_src: Option<&[(ObjSeq, u32)]>,
    extents: &[(Lba, u32)],
    extent_crcs: &[u32],
    data_capacity: usize,
) -> Vec<u8> {
    build_data_header_inner(
        uuid,
        seq,
        last_cache_seq,
        gc_src,
        &[],
        extents,
        extent_crcs,
        data_capacity,
    )
}

/// [`build_data_header`] for the foreground seal path: additionally writes
/// `trims` — discarded ranges the object advertises — as [`TRIM_BIT`]
/// entries ahead of the data extents. Trims and GC sources never mix (GC
/// relocates only live data), so there is no `gc_src` parameter.
pub fn build_data_header_with_trims(
    uuid: u64,
    seq: ObjSeq,
    last_cache_seq: u64,
    trims: &[(Lba, u32)],
    extents: &[(Lba, u32)],
    extent_crcs: &[u32],
    data_capacity: usize,
) -> Vec<u8> {
    build_data_header_inner(
        uuid,
        seq,
        last_cache_seq,
        None,
        trims,
        extents,
        extent_crcs,
        data_capacity,
    )
}

#[allow(clippy::too_many_arguments)]
fn build_data_header_inner(
    uuid: u64,
    seq: ObjSeq,
    last_cache_seq: u64,
    gc_src: Option<&[(ObjSeq, u32)]>,
    trims: &[(Lba, u32)],
    extents: &[(Lba, u32)],
    extent_crcs: &[u32],
    data_capacity: usize,
) -> Vec<u8> {
    assert_eq!(
        extent_crcs.len(),
        extents.len(),
        "extent_crcs must parallel extents"
    );
    if let Some(src) = gc_src {
        assert_eq!(src.len(), extents.len(), "gc_src must parallel extents");
        assert!(trims.is_empty(), "GC objects never carry trims");
    }
    let flags = if gc_src.is_some() { FLAG_GC } else { 0 };
    let mut w = header_envelope(ObjType::Data, flags, uuid);
    w.u32(seq);
    w.u64(last_cache_seq);
    w.u32(0); // data_offset placeholder
    w.u32((trims.len() + extents.len()) as u32);
    for &(lba, len) in trims {
        assert!(len != 0 && len & TRIM_BIT == 0, "bad trim length");
        w.u64(lba);
        w.u32(len | TRIM_BIT);
        w.u32(0); // trims carry no payload, so no CRC
    }
    for (i, &(lba, len)) in extents.iter().enumerate() {
        w.u64(lba);
        w.u32(len);
        w.u32(extent_crcs[i]);
        if let Some(src) = gc_src {
            w.u32(src[i].0);
            w.u32(src[i].1);
        }
    }
    let data_offset = w.len().div_ceil(SECTOR as usize) * SECTOR as usize;
    // Envelope is 20 bytes (magic, crc, version, type, flags, uuid), then
    // seq (4) and last_cache_seq (8): the data_offset field sits at 32.
    w.patch_u32(32, data_offset as u32);
    w.reserve(data_offset - w.len() + data_capacity);
    seal(w)
}

/// Builds a complete data object: sealed header followed by `data`.
///
/// Convenience wrapper over [`build_data_header`] that computes each
/// extent's payload CRC itself; cold paths (GC rewrite, tests) use it, the
/// foreground seal path supplies precomputed CRCs instead.
///
/// For GC objects, pass `gc_src`: the source location of each extent,
/// parallel to `extents`; normal objects pass `None`.
///
/// # Panics
///
/// Panics if `gc_src` is present with a length different from `extents`.
pub fn build_data_object(
    uuid: u64,
    seq: ObjSeq,
    last_cache_seq: u64,
    gc_src: Option<&[(ObjSeq, u32)]>,
    extents: &[(Lba, u32)],
    data: &[u8],
) -> Bytes {
    debug_assert_eq!(
        extents.iter().map(|&(_, l)| l as u64 * SECTOR).sum::<u64>(),
        data.len() as u64
    );
    let mut crcs = Vec::with_capacity(extents.len());
    let mut off = 0usize;
    for &(_, len) in extents {
        let n = len as usize * SECTOR as usize;
        crcs.push(crc32c(&data[off..off + n]));
        off += n;
    }
    let mut obj = build_data_header(
        uuid,
        seq,
        last_cache_seq,
        gc_src,
        extents,
        &crcs,
        data.len(),
    );
    obj.extend_from_slice(data);
    Bytes::from(obj)
}

/// Parses and validates a data-object header from the front of `obj`
/// (which may be the full object or just its header sectors).
pub fn parse_data_header(obj: &[u8]) -> Result<DataHeader> {
    let env = open_envelope(obj, "data object")?;
    if env.obj_type != ObjType::Data as u8 {
        return Err(LsvdError::Corrupt("not a data object".into()));
    }
    let mut r = env.rest;
    let seq = r.u32()?;
    let last_cache_seq = r.u64()?;
    let data_offset = r.u32()?;
    let n = r.u32()? as usize;
    if data_offset as usize > obj.len() || data_offset % SECTOR as u32 != 0 {
        return Err(LsvdError::Corrupt("data object: bad data offset".into()));
    }
    let gc = env.flags & FLAG_GC != 0;
    let mut trims = Vec::new();
    let mut extents = Vec::with_capacity(n);
    let mut extent_crcs = Vec::with_capacity(n);
    let mut gc_src = Vec::new();
    for _ in 0..n {
        let lba = r.u64()?;
        let len = r.u32()?;
        if len & TRIM_BIT != 0 {
            let sectors = len & !TRIM_BIT;
            if sectors == 0 {
                return Err(LsvdError::Corrupt("data object: empty trim".into()));
            }
            if gc {
                return Err(LsvdError::Corrupt("data object: trim in GC object".into()));
            }
            r.u32()?; // unused CRC slot
            trims.push((lba, sectors));
            continue;
        }
        if len == 0 {
            return Err(LsvdError::Corrupt("data object: empty extent".into()));
        }
        extents.push((lba, len));
        extent_crcs.push(r.u32()?);
        if gc {
            let src_seq = r.u32()?;
            let src_off = r.u32()?;
            gc_src.push((src_seq, src_off));
        }
    }
    verify_crc(&obj[..data_offset as usize], "data object")?;
    Ok(DataHeader {
        uuid: env.uuid,
        seq,
        last_cache_seq,
        gc,
        data_offset,
        trims,
        extents,
        extent_crcs,
        gc_src,
    })
}

/// Number of header sectors to fetch when only the extent list is wanted
/// (the GC's liveness probe). Generous enough for any batch LSVD builds.
pub const MAX_HEADER_BYTES: u64 = 256 * 1024;

/// Volume identity, written once at create time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Superblock {
    /// Volume UUID (random at create).
    pub uuid: u64,
    /// Virtual disk size in bytes.
    pub size_bytes: u64,
    /// This volume's image name (its object-name prefix).
    pub image: String,
    /// Clone ancestry: `(image_name, last_seq)` pairs ordered oldest first;
    /// an object with `seq <= last_seq` of the first matching entry lives
    /// in that ancestor's stream (§3.6, Figure 5). Empty for a base image.
    pub ancestry: Vec<(String, ObjSeq)>,
}

impl Superblock {
    /// Resolves the image name owning object `seq`.
    pub fn stream_for(&self, seq: ObjSeq) -> &str {
        for (name, last) in &self.ancestry {
            if seq <= *last {
                return name;
            }
        }
        &self.image
    }

    /// First sequence number owned by this volume itself (not an ancestor).
    pub fn own_first_seq(&self) -> ObjSeq {
        self.ancestry.last().map_or(1, |&(_, last)| last + 1)
    }

    /// Serializes the superblock object.
    pub fn build(&self) -> Bytes {
        let mut w = header_envelope(ObjType::Superblock, 0, self.uuid);
        w.u64(self.size_bytes);
        w.str16(&self.image);
        w.u32(self.ancestry.len() as u32);
        for (name, last) in &self.ancestry {
            w.str16(name);
            w.u32(*last);
        }
        Bytes::from(seal(w))
    }

    /// Parses and validates a superblock object.
    pub fn parse(obj: &[u8]) -> Result<Superblock> {
        verify_crc(obj, "superblock")?;
        let env = open_envelope(obj, "superblock")?;
        if env.obj_type != ObjType::Superblock as u8 {
            return Err(LsvdError::Corrupt("not a superblock".into()));
        }
        let mut r = env.rest;
        let size_bytes = r.u64()?;
        let image = r.str16()?;
        let n = r.u32()? as usize;
        let mut ancestry = Vec::with_capacity(n);
        let mut prev = 0;
        for _ in 0..n {
            let name = r.str16()?;
            let last = r.u32()?;
            if last < prev {
                return Err(LsvdError::Corrupt("superblock: unordered ancestry".into()));
            }
            prev = last;
            ancestry.push((name, last));
        }
        Ok(Superblock {
            uuid: env.uuid,
            size_bytes,
            image,
            ancestry,
        })
    }
}

/// Envelope helpers shared with [`crate::checkpoint`].
pub(crate) fn checkpoint_envelope(uuid: u64) -> ByteWriter {
    header_envelope(ObjType::Checkpoint, 0, uuid)
}

pub(crate) fn open_checkpoint<'a>(obj: &'a [u8]) -> Result<(u64, ByteReader<'a>)> {
    verify_crc(obj, "checkpoint")?;
    let env = open_envelope(obj, "checkpoint")?;
    if env.obj_type != ObjType::Checkpoint as u8 {
        return Err(LsvdError::Corrupt("not a checkpoint".into()));
    }
    Ok((env.uuid, env.rest))
}

pub(crate) fn seal_checkpoint(w: ByteWriter) -> Bytes {
    Bytes::from(seal(w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_object_round_trips() {
        let extents = vec![(100u64, 8u32), (5000, 16)];
        let mut data = vec![0xAB; 24 * SECTOR as usize];
        data[9000] = 3; // make the two extents' CRCs differ
        let obj = build_data_object(0xDEAD, 7, 999, None, &extents, &data);
        let h = parse_data_header(&obj).unwrap();
        assert_eq!(h.uuid, 0xDEAD);
        assert_eq!(h.seq, 7);
        assert_eq!(h.last_cache_seq, 999);
        assert!(!h.gc);
        assert_eq!(h.extents, extents);
        assert_eq!(h.data_sectors(), 24);
        assert_eq!(h.data_offset as usize % SECTOR as usize, 0);
        assert_eq!(
            &obj[h.data_offset as usize..],
            &data[..],
            "data follows header"
        );
        let split = 8 * SECTOR as usize;
        assert_eq!(
            h.extent_crcs,
            vec![crc32c(&data[..split]), crc32c(&data[split..])],
            "per-extent payload CRCs round-trip"
        );
    }

    #[test]
    fn header_built_separately_matches_wrapper() {
        // The hot path seals via `build_data_header` + direct gather; the
        // result must be byte-identical to the convenience wrapper.
        let extents = vec![(0u64, 4u32), (64, 4)];
        let data: Vec<u8> = (0..8 * SECTOR as usize).map(|i| i as u8).collect();
        let whole = build_data_object(5, 9, 2, None, &extents, &data);
        let crcs = vec![
            crc32c(&data[..4 * SECTOR as usize]),
            crc32c(&data[4 * SECTOR as usize..]),
        ];
        let mut obj = build_data_header(5, 9, 2, None, &extents, &crcs, data.len());
        let cap_before = obj.capacity();
        obj.extend_from_slice(&data);
        assert_eq!(obj.capacity(), cap_before, "no realloc on gather");
        assert_eq!(&obj[..], &whole[..]);
    }

    #[test]
    fn gc_flag_and_sources_round_trip() {
        let src = vec![(7u32, 64u32)];
        let obj = build_data_object(1, 2, 3, Some(&src), &[(0, 8)], &vec![0; 8 * 512]);
        let h = parse_data_header(&obj).unwrap();
        assert!(h.gc);
        assert_eq!(h.gc_src, src);
        // Data still follows the header.
        assert_eq!(obj.len() - h.data_offset as usize, 8 * 512);
    }

    #[test]
    fn header_crc_detects_corruption() {
        let obj = build_data_object(1, 2, 3, None, &[(0, 8)], &vec![0; 8 * 512]);
        let mut bad = obj.to_vec();
        bad[16] ^= 1; // flip a bit in the seq field
        assert!(matches!(
            parse_data_header(&bad),
            Err(LsvdError::Corrupt(_))
        ));
    }

    #[test]
    fn parse_from_header_prefix_only() {
        // GC fetches only the header sectors; parsing must work without
        // the data present.
        let extents = vec![(0u64, 64u32)];
        let data = vec![1u8; 64 * SECTOR as usize];
        let obj = build_data_object(9, 1, 1, None, &extents, &data);
        let h0 = parse_data_header(&obj).unwrap();
        let prefix = &obj[..h0.data_offset as usize];
        let h = parse_data_header(prefix).unwrap();
        assert_eq!(h.extents, extents);
    }

    #[test]
    fn large_extent_list_spills_past_one_sector() {
        let extents: Vec<(Lba, u32)> = (0..200).map(|i| (i * 16 + 1, 1u32)).collect();
        let data = vec![7u8; 200 * SECTOR as usize];
        let obj = build_data_object(4, 5, 6, None, &extents, &data);
        let h = parse_data_header(&obj).unwrap();
        assert_eq!(h.extents.len(), 200);
        assert!(h.data_offset as u64 > SECTOR);
    }

    #[test]
    fn trim_entries_round_trip_ahead_of_data() {
        let extents = vec![(100u64, 8u32)];
        let data = vec![0x5A; 8 * SECTOR as usize];
        let crcs = vec![crc32c(&data)];
        let mut obj = build_data_header_with_trims(
            3,
            11,
            44,
            &[(0, 16), (9999, 1)],
            &extents,
            &crcs,
            data.len(),
        );
        obj.extend_from_slice(&data);
        let h = parse_data_header(&obj).unwrap();
        assert_eq!(h.trims, vec![(0, 16), (9999, 1)]);
        assert_eq!(h.extents, extents);
        assert_eq!(h.extent_crcs, crcs);
        assert_eq!(h.data_sectors(), 8, "trims contribute no data sectors");
        assert_eq!(&obj[h.data_offset as usize..], &data[..]);
    }

    #[test]
    fn trim_only_object_parses() {
        let obj = build_data_header_with_trims(3, 11, 44, &[(64, 32)], &[], &[], 0);
        let h = parse_data_header(&obj).unwrap();
        assert_eq!(h.trims, vec![(64, 32)]);
        assert!(h.extents.is_empty());
        assert_eq!(h.data_sectors(), 0);
        assert_eq!(h.data_offset as usize, obj.len());
    }

    #[test]
    fn empty_trim_rejected() {
        let mut obj = build_data_header_with_trims(3, 1, 1, &[(64, 32)], &[], &[], 0);
        // Zero the masked length but keep TRIM_BIT: entry starts at byte 40.
        obj[48..52].copy_from_slice(&TRIM_BIT.to_le_bytes());
        let crc = crc32c_field_zeroed(&obj, 4);
        obj[4..8].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            parse_data_header(&obj),
            Err(LsvdError::Corrupt(_))
        ));
    }

    #[test]
    fn superblock_round_trips() {
        let sb = Superblock {
            uuid: 42,
            size_bytes: 80 << 30,
            image: "clone1".into(),
            ancestry: vec![("base".into(), 2), ("mid".into(), 9)],
        };
        let obj = sb.build();
        let parsed = Superblock::parse(&obj).unwrap();
        assert_eq!(parsed, sb);
        assert_eq!(parsed.stream_for(1), "base");
        assert_eq!(parsed.stream_for(2), "base");
        assert_eq!(parsed.stream_for(3), "mid");
        assert_eq!(parsed.stream_for(10), "clone1");
        assert_eq!(parsed.own_first_seq(), 10);
    }

    #[test]
    fn base_image_superblock() {
        let sb = Superblock {
            uuid: 1,
            size_bytes: 1 << 30,
            image: "vol".into(),
            ancestry: vec![],
        };
        let parsed = Superblock::parse(&sb.build()).unwrap();
        assert_eq!(parsed.own_first_seq(), 1);
        assert_eq!(parsed.stream_for(5), "vol");
    }

    #[test]
    fn type_confusion_rejected() {
        let sb = Superblock {
            uuid: 1,
            size_bytes: 1,
            image: "v".into(),
            ancestry: vec![],
        };
        assert!(parse_data_header(&sb.build()).is_err());
        let d = build_data_object(1, 1, 1, None, &[(0, 8)], &vec![0; 8 * 512]);
        assert!(Superblock::parse(&d).is_err());
    }
}
