//! Prefix-consistency checking (§2.2, Table 4).
//!
//! A prefix-consistent disk may lose committed writes in a crash, but the
//! recovered state must equal the result of applying some *prefix* of the
//! write history: all writes up to a point in time, none after it.
//!
//! [`History`] records a write workload as it is issued; after a simulated
//! crash and recovery, [`History::check_prefix_consistent`] decides whether
//! the recovered image is a prefix state. The check is exact: for each
//! touched block it determines which write version the image holds, takes
//! the newest version found anywhere as the candidate cut point, and
//! verifies every block holds exactly the latest version at or before that
//! cut. Torn or reordered writeback (what an unsafe cache like bcache
//! produces) fails the check; LSVD's recovered images must always pass.

use std::collections::BTreeMap;

/// Width of the verification blocks. Each write in a verified workload
/// must be block-aligned.
pub const VBLOCK: u64 = 4096;

/// A record of every write issued to a volume, for later consistency
/// checking.
///
/// # Examples
///
/// ```
/// use lsvd::verify::{History, Verdict, VBLOCK};
///
/// let mut history = History::new();
/// let mut image = vec![0u8; 4 * VBLOCK as usize];
/// let data = history.record_write(0, VBLOCK);
/// image[..VBLOCK as usize].copy_from_slice(&data);
/// let _lost = history.record_write(VBLOCK, VBLOCK); // never applied
/// history.mark_committed();
///
/// // Losing a suffix is a consistent prefix; the checker reports the cut.
/// match history.check_image(&image) {
///     Verdict::ConsistentPrefix { cut, lost_committed } => {
///         assert_eq!((cut, lost_committed), (1, 1));
///     }
///     v => panic!("{v:?}"),
/// }
/// ```
#[derive(Debug, Default)]
pub struct History {
    /// Per block, in block order: indices of writes to it, ascending.
    per_block: BTreeMap<u64, Vec<u64>>,
    next_index: u64,
    /// Index of the last write known committed (flushed) by the client.
    committed: u64,
}

/// The verdict of a consistency check.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The image equals the history applied up to write `cut`.
    ConsistentPrefix {
        /// The cut point: all writes with index `<= cut` are reflected.
        cut: u64,
        /// Number of committed writes lost (committed index minus cut).
        lost_committed: u64,
    },
    /// The image mixes writes in a non-prefix way.
    Inconsistent {
        /// A block that violates the prefix property.
        block: u64,
        /// Human-readable explanation.
        reason: String,
    },
}

impl Verdict {
    /// Whether the verdict is a consistent prefix.
    pub fn is_consistent(&self) -> bool {
        matches!(self, Verdict::ConsistentPrefix { .. })
    }
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a write to byte `offset` of `len` bytes and returns the
    /// block-content pattern the caller must write: the content encodes
    /// `(block, index)` so the checker can identify versions.
    ///
    /// # Panics
    ///
    /// Panics if the write is not block-aligned.
    pub fn record_write(&mut self, offset: u64, len: u64) -> Vec<u8> {
        assert!(
            offset.is_multiple_of(VBLOCK) && len.is_multiple_of(VBLOCK) && len > 0,
            "verified writes must be {VBLOCK}-aligned"
        );
        self.next_index += 1;
        let index = self.next_index;
        let mut out = Vec::with_capacity(len as usize);
        for i in 0..len / VBLOCK {
            let block = offset / VBLOCK + i;
            self.per_block.entry(block).or_default().push(index);
            out.extend_from_slice(&encode_block(block, index));
        }
        out
    }

    /// Marks all writes so far as committed (the client saw a flush
    /// complete after them).
    pub fn mark_committed(&mut self) {
        self.committed = self.next_index;
    }

    /// Index of the most recent write.
    pub fn last_index(&self) -> u64 {
        self.next_index
    }

    /// Index of the last committed write.
    pub fn committed_index(&self) -> u64 {
        self.committed
    }

    /// Checks a recovered image (read back block by block via `read_block`)
    /// against the history. Blocks are checked in block order, so an
    /// inconsistent image always names its lowest offending block.
    pub fn check_prefix_consistent<F>(&self, mut read_block: F) -> Verdict
    where
        F: FnMut(u64) -> Vec<u8>,
    {
        // Pass 1: determine each block's recovered version.
        let mut versions: BTreeMap<u64, u64> = BTreeMap::new();
        let mut cut = 0u64;
        for (&block, writes) in &self.per_block {
            let data = read_block(block);
            let v = match decode_block(&data, block) {
                Some(0) => 0, // never-written content (zeros)
                Some(idx) => {
                    if !writes.contains(&idx) {
                        return Verdict::Inconsistent {
                            block,
                            reason: format!("holds version {idx} never written to it"),
                        };
                    }
                    idx
                }
                None => {
                    return Verdict::Inconsistent {
                        block,
                        reason: "holds torn or foreign data".to_string(),
                    }
                }
            };
            cut = cut.max(v);
            versions.insert(block, v);
        }
        // Pass 2: at cut point `cut`, each block must hold its newest write
        // with index <= cut (or zeros if it had none).
        for (&block, writes) in &self.per_block {
            let expect = writes
                .iter()
                .copied()
                .filter(|&w| w <= cut)
                .max()
                .unwrap_or(0);
            let got = versions[&block];
            if got != expect {
                return Verdict::Inconsistent {
                    block,
                    reason: format!(
                        "cut {cut}: expected version {expect}, found {got} \
                         (an earlier write is missing while a later one survived)"
                    ),
                };
            }
        }
        Verdict::ConsistentPrefix {
            cut,
            lost_committed: self.committed.saturating_sub(cut),
        }
    }
}

const STAMP_MAGIC: u64 = 0x5653_5441_4D50_3144; // "VSTAMP1D"

fn encode_block(block: u64, index: u64) -> [u8; VBLOCK as usize] {
    let mut out = [0u8; VBLOCK as usize];
    for (i, chunk) in out.chunks_exact_mut(24).enumerate() {
        chunk[..8].copy_from_slice(&STAMP_MAGIC.to_le_bytes());
        chunk[8..16].copy_from_slice(&block.to_le_bytes());
        chunk[16..24].copy_from_slice(&index.to_le_bytes());
        let _ = i;
    }
    out
}

/// Decodes a block: `Some(0)` for all-zero (never written), `Some(idx)` for
/// an intact stamp of this block, `None` for torn/foreign content.
fn decode_block(data: &[u8], block: u64) -> Option<u64> {
    if data.len() != VBLOCK as usize {
        return None;
    }
    if data.iter().all(|&b| b == 0) {
        return Some(0);
    }
    let mut idx = None;
    for chunk in data.chunks_exact(24) {
        if chunk[..8] != STAMP_MAGIC.to_le_bytes() {
            return None;
        }
        if chunk[8..16] != block.to_le_bytes() {
            return None;
        }
        let this = u64::from_le_bytes(chunk[16..24].try_into().expect("8 bytes"));
        match idx {
            None => idx = Some(this),
            Some(prev) if prev != this => return None, // torn
            _ => {}
        }
    }
    idx
}

/// Convenience checker over a whole in-memory device image.
impl History {
    /// Checks a flat in-memory image (e.g. the recovered virtual disk read
    /// end to end).
    pub fn check_image(&self, image: &[u8]) -> Verdict {
        self.check_prefix_consistent(|block| {
            let b = (block * VBLOCK) as usize;
            image[b..b + VBLOCK as usize].to_vec()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(image: &mut Vec<u8>, offset: u64, data: &[u8]) {
        let o = offset as usize;
        if image.len() < o + data.len() {
            image.resize(o + data.len(), 0);
        }
        image[o..o + data.len()].copy_from_slice(data);
    }

    #[test]
    fn full_application_is_consistent() {
        let mut h = History::new();
        let mut img = vec![0u8; 64 * 1024];
        for i in 0..8 {
            let d = h.record_write(i * VBLOCK, VBLOCK);
            apply(&mut img, i * VBLOCK, &d);
        }
        h.mark_committed();
        let v = h.check_image(&img);
        assert_eq!(
            v,
            Verdict::ConsistentPrefix {
                cut: 8,
                lost_committed: 0
            }
        );
    }

    #[test]
    fn losing_a_suffix_is_consistent() {
        let mut h = History::new();
        let mut img = vec![0u8; 64 * 1024];
        let mut datas = Vec::new();
        for i in 0..8 {
            datas.push((i * VBLOCK, h.record_write(i * VBLOCK, VBLOCK)));
        }
        h.mark_committed();
        // Apply only the first 5 writes.
        for (off, d) in &datas[..5] {
            apply(&mut img, *off, d);
        }
        match h.check_image(&img) {
            Verdict::ConsistentPrefix {
                cut,
                lost_committed,
            } => {
                assert_eq!(cut, 5);
                assert_eq!(lost_committed, 3);
            }
            v => panic!("expected consistent, got {v:?}"),
        }
    }

    #[test]
    fn out_of_order_application_is_inconsistent() {
        let mut h = History::new();
        let mut img = vec![0u8; 64 * 1024];
        let d1 = h.record_write(0, VBLOCK); // write 1 to block 0
        let d2 = h.record_write(VBLOCK, VBLOCK); // write 2 to block 1
        let _ = d1; // write 1 lost...
        apply(&mut img, VBLOCK, &d2); // ...but write 2 survived
        let v = h.check_image(&img);
        assert!(!v.is_consistent(), "hole in the middle: {v:?}");
    }

    #[test]
    fn overwrite_regression_is_inconsistent() {
        let mut h = History::new();
        let mut img = vec![0u8; 64 * 1024];
        let d1 = h.record_write(0, VBLOCK); // v1 of block 0
        let _d2 = h.record_write(0, VBLOCK); // v2 of block 0 (lost)
        let d3 = h.record_write(VBLOCK, VBLOCK); // v3 of block 1
        apply(&mut img, 0, &d1);
        apply(&mut img, VBLOCK, &d3);
        // Image shows v3 happened but block 0 reverted to v1 while v2 < v3
        // existed: not a prefix.
        let v = h.check_image(&img);
        assert!(!v.is_consistent(), "{v:?}");
    }

    #[test]
    fn the_lowest_offending_block_is_named() {
        // Blocks 3..67 lost their writes while block 100's survived. Each
        // of eight fresh histories must name block 3, the lowest, whatever
        // order a hashed map would have visited them in.
        for _ in 0..8 {
            let mut h = History::new();
            for block in 3..67 {
                h.record_write(block * VBLOCK, VBLOCK);
            }
            let last = h.record_write(100 * VBLOCK, VBLOCK);
            let mut img = vec![0u8; 101 * VBLOCK as usize];
            apply(&mut img, 100 * VBLOCK, &last);
            match h.check_image(&img) {
                Verdict::Inconsistent { block, .. } => assert_eq!(block, 3),
                v => panic!("64 lost writes before the cut: {v:?}"),
            }
        }
    }

    #[test]
    fn torn_block_detected() {
        let mut h = History::new();
        let mut img = vec![0u8; 64 * 1024];
        let d = h.record_write(0, VBLOCK);
        apply(&mut img, 0, &d);
        img[100] ^= 0xFF;
        let v = h.check_image(&img);
        assert!(!v.is_consistent());
    }

    #[test]
    fn multi_block_write_spans_versions() {
        let mut h = History::new();
        let mut img = vec![0u8; 64 * 1024];
        let d = h.record_write(0, 4 * VBLOCK);
        apply(&mut img, 0, &d);
        assert!(h.check_image(&img).is_consistent());
        // Losing half of a single multi-block write: block 0,1 updated,
        // 2,3 not — still a valid prefix? No: one write is atomic in
        // history terms only per block; blocks 2,3 at version 0 with
        // blocks 0,1 at version 1 means cut=1 expects blocks 2,3 at 1.
        let mut img2 = vec![0u8; 64 * 1024];
        apply(&mut img2, 0, &d[..2 * VBLOCK as usize]);
        assert!(!h.check_image(&img2).is_consistent());
    }
}
