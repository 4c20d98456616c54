//! Ordered extent maps: the prototype's core translation structure.
//!
//! LSVD maintains three translation maps (§3.1): write-back cache
//! (vLBA → SSD pLBA), read cache (vLBA → SSD pLBA), and block store
//! (vLBA → object/offset). All three are *extent* maps — ordered search
//! trees of `(start, length, value)` triples — because virtual disk
//! workloads are extent-friendly and per-block maps would waste memory
//! (§6.1 "In-memory Map").
//!
//! The map enforces three invariants at all times:
//!
//! 1. extents are non-empty and non-overlapping;
//! 2. extents are maximal: two adjacent extents whose values are
//!    *continuous* (the right one equals the left one advanced by its
//!    length) are merged;
//! 3. `insert` has overwrite semantics: a new extent replaces any
//!    overlapped pieces of older extents, splitting them as needed —
//!    exactly the behaviour of a block-device translation layer.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A value that can be carried by an extent and split along with it.
///
/// When an extent `[start, start+len)` with value `v` is split at offset
/// `d`, the right piece carries `v.advance(d)`. For a location-style value
/// (an SSD pLBA or an object offset) this is plain addition.
pub trait ExtentValue: Copy + PartialEq + std::fmt::Debug {
    /// Returns the value shifted forward by `delta` sectors.
    fn advance(self, delta: u64) -> Self;

    /// Packs the value into one word for the atomic lookup cursor.
    fn pack(self) -> u64;

    /// Inverse of [`ExtentValue::pack`].
    fn unpack(word: u64) -> Self;
}

impl ExtentValue for u64 {
    fn advance(self, delta: u64) -> Self {
        self + delta
    }

    fn pack(self) -> u64 {
        self
    }

    fn unpack(word: u64) -> Self {
        word
    }
}

/// The last-hit point-lookup cursor, shareable across concurrent readers.
///
/// A seqlock built entirely from atomics (no `UnsafeCell`, so every
/// interleaving is well-defined): the version counter is even when the
/// cursor is stable and odd while an update is in progress. Readers snap
/// the version, read the fields, and re-check the version; writers claim
/// the update slot with a compare-exchange, so racing readers simply skip
/// a cursor that is mid-update and fall back to the tree. A `len` of 0
/// means "empty".
struct Cursor {
    ver: AtomicU64,
    start: AtomicU64,
    len: AtomicU64,
    val: AtomicU64,
}

impl Cursor {
    fn new() -> Self {
        Cursor {
            ver: AtomicU64::new(0),
            start: AtomicU64::new(0),
            len: AtomicU64::new(0),
            val: AtomicU64::new(0),
        }
    }

    fn load(&self) -> Option<(u64, u64, u64)> {
        let v1 = self.ver.load(Ordering::Acquire);
        if v1 & 1 == 1 {
            return None; // update in progress
        }
        let start = self.start.load(Ordering::Relaxed);
        let len = self.len.load(Ordering::Relaxed);
        let val = self.val.load(Ordering::Relaxed);
        if self.ver.load(Ordering::Acquire) != v1 || len == 0 {
            return None;
        }
        Some((start, len, val))
    }

    fn store(&self, start: u64, len: u64, val: u64) {
        let v = self.ver.load(Ordering::Relaxed);
        if v & 1 == 1 {
            return; // another reader is mid-update; theirs is as good
        }
        if self
            .ver
            .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        self.start.store(start, Ordering::Relaxed);
        self.len.store(len, Ordering::Relaxed);
        self.val.store(val, Ordering::Relaxed);
        self.ver.store(v + 2, Ordering::Release);
    }

    fn clear(&self) {
        self.store(0, 0, 0);
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Ext<V> {
    len: u64,
    val: V,
}

/// One resolved segment of a range query: either mapped or a hole.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Segment<V> {
    /// `[start, start+len)` maps to `val` (already advanced to `start`).
    Mapped {
        /// Segment start.
        start: u64,
        /// Segment length.
        len: u64,
        /// Value at `start`.
        val: V,
    },
    /// `[start, start+len)` has no mapping.
    Hole {
        /// Segment start.
        start: u64,
        /// Segment length.
        len: u64,
    },
}

/// An ordered, coalescing extent map from `u64` positions to values `V`.
///
/// # Examples
///
/// ```
/// use lsvd::extent_map::ExtentMap;
///
/// let mut map: ExtentMap<u64> = ExtentMap::new();
/// map.insert(0, 100, 5000);        // [0,100) -> 5000..5100
/// map.insert(40, 20, 9000);        // overwrite splits the old extent
/// assert_eq!(map.lookup(10), Some((0, 40, 5000)));
/// assert_eq!(map.lookup(45), Some((40, 20, 9000))); // value at extent start
/// assert_eq!(map.lookup(70), Some((60, 40, 5060)));
/// assert_eq!(map.len(), 3);
///
/// // Adjacent continuous extents re-merge.
/// map.insert(40, 20, 5040);
/// assert_eq!(map.len(), 1);
/// ```
///
/// Point lookups keep a one-entry last-hit cursor: sequential access
/// patterns (streaming reads, writeback sweeps) revisit the same extent
/// many times, and the cursor answers those repeats without rescanning
/// the tree. The cursor is an atomics-only seqlock (`Cursor`), so the
/// map is `Sync` and concurrent shared-lock readers (the read plane) can
/// race on it safely; mutations invalidate it through `&mut` paths.
pub struct ExtentMap<V> {
    map: BTreeMap<u64, Ext<V>>,
    /// Last successful point-lookup, `(start, len, packed value_at_start)`.
    /// Invalidated by every mutation.
    cursor: Cursor,
    /// How many lookups the cursor short-circuited (observability).
    cursor_hits: AtomicU64,
}

impl<V> Default for ExtentMap<V> {
    fn default() -> Self {
        ExtentMap {
            map: BTreeMap::new(),
            cursor: Cursor::new(),
            cursor_hits: AtomicU64::new(0),
        }
    }
}

impl<V: ExtentValue> Clone for ExtentMap<V> {
    fn clone(&self) -> Self {
        ExtentMap {
            map: self.map.clone(),
            cursor: Cursor::new(),
            cursor_hits: AtomicU64::new(0),
        }
    }
}

impl<V: ExtentValue> fmt::Debug for ExtentMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExtentMap").field("map", &self.map).finish()
    }
}

impl<V: ExtentValue> ExtentMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        ExtentMap::default()
    }

    /// How many point lookups were served by the last-hit cursor.
    pub fn cursor_hits(&self) -> u64 {
        self.cursor_hits.load(Ordering::Relaxed)
    }

    /// Number of extents (the paper's Table 5 "extent count" metric).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map contains no extents.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Removes all extents.
    pub fn clear(&mut self) {
        self.cursor.clear();
        self.map.clear();
    }

    /// Total mapped length across all extents.
    pub fn mapped_len(&self) -> u64 {
        self.map.values().map(|e| e.len).sum()
    }

    /// Removes any mapping within `[start, start+len)`, splitting extents
    /// that straddle the boundary.
    pub fn remove(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.cursor.clear();
        let end = start + len;

        // Left neighbour straddling `start`.
        if let Some((&s, &e)) = self.map.range(..start).next_back() {
            let e_end = s + e.len;
            if e_end > start {
                // Trim to [s, start).
                self.map.get_mut(&s).expect("exists").len = start - s;
                if e_end > end {
                    // The old extent also extends past the removal range:
                    // re-insert the right remainder.
                    self.map.insert(
                        end,
                        Ext {
                            len: e_end - end,
                            val: e.val.advance(end - s),
                        },
                    );
                    return; // Nothing else can overlap.
                }
            }
        }

        // Extents starting within [start, end).
        let inside: Vec<u64> = self.map.range(start..end).map(|(&s, _)| s).collect();
        for s in inside {
            let e = self.map.remove(&s).expect("exists");
            let e_end = s + e.len;
            if e_end > end {
                self.map.insert(
                    end,
                    Ext {
                        len: e_end - end,
                        val: e.val.advance(end - s),
                    },
                );
            }
        }
    }

    /// Maps `[start, start+len)` to `val`, replacing any previous mapping
    /// of that range and merging with continuous neighbours.
    pub fn insert(&mut self, start: u64, len: u64, val: V) {
        if len == 0 {
            return;
        }
        self.cursor.clear();
        self.remove(start, len);

        let mut start = start;
        let mut len = len;
        let mut val = val;

        // Merge with a continuous left neighbour.
        if let Some((&s, &e)) = self.map.range(..start).next_back() {
            if s + e.len == start && e.val.advance(e.len) == val {
                self.map.remove(&s);
                val = e.val;
                len += e.len;
                start = s;
            }
        }
        // Merge with a continuous right neighbour.
        if let Some((&s, &e)) = self.map.range(start + len..).next() {
            if s == start + len && val.advance(len) == e.val {
                self.map.remove(&s);
                len += e.len;
            }
        }
        self.map.insert(start, Ext { len, val });
    }

    /// Builds a map from `(start, len, value)` triples in one pass.
    ///
    /// The fast path expects what checkpoint serialization and recovery
    /// replay produce — address-ordered, non-overlapping extents — and
    /// appends straight into the tree with only tail coalescing, skipping
    /// the overlap search, split and re-merge work [`ExtentMap::insert`]
    /// does per extent (which dominates large map restores). Input that
    /// violates the precondition is detected and re-loaded through
    /// `insert`, so the result always equals inserting the items in order.
    pub fn bulk_load(items: impl IntoIterator<Item = (u64, u64, V)>) -> Self {
        let items: Vec<(u64, u64, V)> = items.into_iter().collect();
        let sorted = items
            .windows(2)
            .all(|w| w[0].0 + w[0].1 <= w[1].0 || w[0].1 == 0);
        if !sorted {
            let mut m = ExtentMap::new();
            for (s, l, v) in items {
                m.insert(s, l, v);
            }
            return m;
        }
        let mut m = ExtentMap::new();
        let mut tail: Option<(u64, u64, V)> = None;
        for (start, len, val) in items {
            if len == 0 {
                continue;
            }
            match &mut tail {
                Some((ts, tl, tv)) if start == *ts + *tl && tv.advance(*tl) == val => {
                    *tl += len; // continuous with the tail: keep extents maximal
                }
                Some((ts, tl, tv)) => {
                    m.map.insert(*ts, Ext { len: *tl, val: *tv });
                    (*ts, *tl, *tv) = (start, len, val);
                }
                None => tail = Some((start, len, val)),
            }
        }
        if let Some((ts, tl, tv)) = tail {
            m.map.insert(ts, Ext { len: tl, val: tv });
        }
        m
    }

    /// Returns the extent containing `pos`, as `(start, len, value_at_start)`.
    pub fn lookup(&self, pos: u64) -> Option<(u64, u64, V)> {
        if let Some((s, l, packed)) = self.cursor.load() {
            if pos >= s && pos < s + l {
                self.cursor_hits.fetch_add(1, Ordering::Relaxed);
                return Some((s, l, V::unpack(packed)));
            }
        }
        let (&s, &e) = self.map.range(..=pos).next_back()?;
        let hit = (s + e.len > pos).then_some((s, e.len, e.val));
        if let Some((hs, hl, hv)) = hit {
            self.cursor.store(hs, hl, hv.pack());
        }
        hit
    }

    /// Resolves `[start, start+len)` into an ordered list of mapped
    /// segments and holes covering exactly the queried range.
    pub fn resolve(&self, start: u64, len: u64) -> Vec<Segment<V>> {
        let mut out = Vec::new();
        if len == 0 {
            return out;
        }
        let end = start + len;
        let mut pos = start;

        // A left-straddling extent, then everything starting inside.
        let first = self
            .map
            .range(..start)
            .next_back()
            .filter(|(&s, e)| s + e.len > start)
            .map(|(&s, &e)| (s, e));
        let iter = first
            .into_iter()
            .chain(self.map.range(start..end).map(|(&s, &e)| (s, e)));

        for (s, e) in iter {
            let seg_start = s.max(start);
            let seg_end = (s + e.len).min(end);
            if seg_start > pos {
                out.push(Segment::Hole {
                    start: pos,
                    len: seg_start - pos,
                });
            }
            out.push(Segment::Mapped {
                start: seg_start,
                len: seg_end - seg_start,
                val: e.val.advance(seg_start - s),
            });
            pos = seg_end;
        }
        if pos < end {
            out.push(Segment::Hole {
                start: pos,
                len: end - pos,
            });
        }
        out
    }

    /// Returns the first extent starting at or after `pos`, if any.
    /// O(log n): used by scan-cursor style consumers (writeback sweeps).
    pub fn next_extent_at_or_after(&self, pos: u64) -> Option<(u64, u64, V)> {
        self.map
            .range(pos..)
            .next()
            .map(|(&s, e)| (s, e.len, e.val))
    }

    /// Iterates all extents as `(start, len, value)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, V)> + '_ {
        self.map.iter().map(|(&s, e)| (s, e.len, e.val))
    }

    /// Iterates only the mapped pieces overlapping `[start, start+len)`,
    /// clipped to that range.
    pub fn overlaps(&self, start: u64, len: u64) -> Vec<(u64, u64, V)> {
        self.resolve(start, len)
            .into_iter()
            .filter_map(|seg| match seg {
                Segment::Mapped { start, len, val } => Some((start, len, val)),
                Segment::Hole { .. } => None,
            })
            .collect()
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        let mut prev: Option<(u64, u64, V)> = None;
        for (s, e) in &self.map {
            assert!(e.len > 0, "empty extent at {s}");
            if let Some((ps, plen, pval)) = prev {
                assert!(ps + plen <= *s, "overlap: [{ps},+{plen}) and {s}");
                if ps + plen == *s {
                    assert!(
                        pval.advance(plen) != e.val,
                        "uncoalesced continuous extents at {s}"
                    );
                }
            }
            prev = Some((*s, e.len, e.val));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup_basic() {
        let mut m = ExtentMap::new();
        m.insert(10, 5, 100u64);
        assert_eq!(m.lookup(10), Some((10, 5, 100)));
        assert_eq!(m.lookup(14), Some((10, 5, 100)));
        assert_eq!(m.lookup(15), None);
        assert_eq!(m.lookup(9), None);
        m.check_invariants();
    }

    #[test]
    fn overwrite_splits_old_extent() {
        let mut m = ExtentMap::new();
        m.insert(0, 10, 100u64);
        m.insert(3, 4, 500);
        // Pieces: [0,3) -> 100, [3,7) -> 500, [7,10) -> 107.
        assert_eq!(m.lookup(0), Some((0, 3, 100)));
        assert_eq!(m.lookup(3), Some((3, 4, 500)));
        assert_eq!(m.lookup(7), Some((7, 3, 107)));
        assert_eq!(m.len(), 3);
        m.check_invariants();
    }

    #[test]
    fn adjacent_continuous_extents_coalesce() {
        let mut m = ExtentMap::new();
        m.insert(0, 4, 100u64);
        m.insert(4, 4, 104);
        assert_eq!(m.len(), 1);
        assert_eq!(m.lookup(6), Some((0, 8, 100)));
        // Left merge too.
        m.insert(12, 4, 112);
        m.insert(8, 4, 108);
        assert_eq!(m.len(), 1);
        assert_eq!(m.lookup(15), Some((0, 16, 100)));
        m.check_invariants();
    }

    #[test]
    fn adjacent_discontinuous_extents_stay_separate() {
        let mut m = ExtentMap::new();
        m.insert(0, 4, 100u64);
        m.insert(4, 4, 999);
        assert_eq!(m.len(), 2);
        m.check_invariants();
    }

    #[test]
    fn remove_punches_holes() {
        let mut m = ExtentMap::new();
        m.insert(0, 100, 1000u64);
        m.remove(40, 20);
        assert_eq!(m.lookup(39), Some((0, 40, 1000)));
        assert_eq!(m.lookup(40), None);
        assert_eq!(m.lookup(59), None);
        assert_eq!(m.lookup(60), Some((60, 40, 1060)));
        m.check_invariants();
    }

    #[test]
    fn remove_spanning_multiple_extents() {
        let mut m = ExtentMap::new();
        m.insert(0, 10, 0u64);
        m.insert(20, 10, 100);
        m.insert(40, 10, 200);
        m.remove(5, 40); // clips first, removes second, clips third
        assert_eq!(m.lookup(4), Some((0, 5, 0)));
        assert_eq!(m.lookup(25), None);
        assert_eq!(m.lookup(45), Some((45, 5, 205)));
        m.check_invariants();
    }

    #[test]
    fn resolve_mixes_holes_and_mappings() {
        let mut m = ExtentMap::new();
        m.insert(10, 10, 100u64);
        m.insert(30, 10, 300);
        let segs = m.resolve(5, 40);
        assert_eq!(
            segs,
            vec![
                Segment::Hole { start: 5, len: 5 },
                Segment::Mapped {
                    start: 10,
                    len: 10,
                    val: 100
                },
                Segment::Hole { start: 20, len: 10 },
                Segment::Mapped {
                    start: 30,
                    len: 10,
                    val: 300
                },
                Segment::Hole { start: 40, len: 5 },
            ]
        );
    }

    #[test]
    fn resolve_clips_straddling_extent() {
        let mut m = ExtentMap::new();
        m.insert(0, 100, 1000u64);
        let segs = m.resolve(30, 10);
        assert_eq!(
            segs,
            vec![Segment::Mapped {
                start: 30,
                len: 10,
                val: 1030
            }]
        );
    }

    #[test]
    fn zero_length_operations_are_noops() {
        let mut m = ExtentMap::new();
        m.insert(5, 0, 1u64);
        assert!(m.is_empty());
        m.insert(5, 5, 1);
        m.remove(7, 0);
        assert_eq!(m.len(), 1);
        assert!(m.resolve(0, 0).is_empty());
    }

    #[test]
    fn exact_overwrite_replaces() {
        let mut m = ExtentMap::new();
        m.insert(10, 10, 100u64);
        m.insert(10, 10, 555);
        assert_eq!(m.len(), 1);
        assert_eq!(m.lookup(10), Some((10, 10, 555)));
        m.check_invariants();
    }

    #[test]
    fn mapped_len_tracks_total() {
        let mut m = ExtentMap::new();
        m.insert(0, 10, 0u64);
        m.insert(5, 10, 100); // overlaps 5
        assert_eq!(m.mapped_len(), 15);
        m.remove(0, 3);
        assert_eq!(m.mapped_len(), 12);
    }

    #[test]
    fn cursor_serves_repeated_lookups() {
        let mut m = ExtentMap::new();
        m.insert(0, 100, 1000u64);
        m.insert(200, 50, 2000);
        assert_eq!(m.cursor_hits(), 0);
        assert_eq!(m.lookup(10), Some((0, 100, 1000))); // miss, seeds cursor
        assert_eq!(m.lookup(20), Some((0, 100, 1000))); // hit
        assert_eq!(m.lookup(99), Some((0, 100, 1000))); // hit
        assert_eq!(m.cursor_hits(), 2);
        // A lookup outside the cursored extent falls back to the tree and
        // re-seeds the cursor; holes neither hit nor seed it.
        assert_eq!(m.lookup(210), Some((200, 50, 2000)));
        assert_eq!(m.lookup(150), None);
        assert_eq!(m.lookup(249), Some((200, 50, 2000)));
        assert_eq!(m.cursor_hits(), 3);
    }

    #[test]
    fn cursor_invalidated_on_insert() {
        let mut m = ExtentMap::new();
        m.insert(0, 100, 1000u64);
        assert_eq!(m.lookup(50), Some((0, 100, 1000))); // seed cursor
        m.insert(40, 20, 9000); // overwrite must not leave a stale cursor
        assert_eq!(m.lookup(50), Some((40, 20, 9000)));
        assert_eq!(m.lookup(30), Some((0, 40, 1000)));
        assert_eq!(m.lookup(70), Some((60, 40, 1060)));
        m.check_invariants();
    }

    #[test]
    fn cursor_invalidated_on_remove_and_clear() {
        let mut m = ExtentMap::new();
        m.insert(0, 100, 1000u64);
        assert_eq!(m.lookup(50), Some((0, 100, 1000)));
        m.remove(0, 100);
        assert_eq!(m.lookup(50), None, "stale cursor after remove");
        m.insert(0, 10, 7u64);
        assert_eq!(m.lookup(5), Some((0, 10, 7)));
        m.clear();
        assert_eq!(m.lookup(5), None, "stale cursor after clear");
    }

    #[test]
    fn bulk_load_matches_per_insert_on_sorted_input() {
        // Sorted, non-overlapping, with a continuous run that must
        // coalesce ([0,4)+[4,4) -> one extent) and a gap after it.
        let items: Vec<(u64, u64, u64)> = vec![
            (0, 4, 100),
            (4, 4, 104),
            (12, 6, 500),
            (18, 2, 506),
            (30, 0, 9), // zero-length noop
            (40, 8, 700),
        ];
        let bulk = ExtentMap::bulk_load(items.iter().copied());
        let mut per_insert = ExtentMap::new();
        for &(s, l, v) in &items {
            per_insert.insert(s, l, v);
        }
        bulk.check_invariants();
        assert_eq!(
            bulk.iter().collect::<Vec<_>>(),
            per_insert.iter().collect::<Vec<_>>()
        );
        assert_eq!(bulk.len(), 3); // [0,8), [12,8), [40,8)
    }

    #[test]
    fn bulk_load_falls_back_on_unsorted_or_overlapping_input() {
        // Out of order and overlapping: overwrite semantics must match
        // inserting the items sequentially (later items win).
        let items: Vec<(u64, u64, u64)> = vec![(20, 10, 100), (0, 10, 0), (5, 10, 900)];
        let bulk = ExtentMap::bulk_load(items.iter().copied());
        let mut per_insert = ExtentMap::new();
        for &(s, l, v) in &items {
            per_insert.insert(s, l, v);
        }
        bulk.check_invariants();
        assert_eq!(
            bulk.iter().collect::<Vec<_>>(),
            per_insert.iter().collect::<Vec<_>>()
        );
        assert_eq!(bulk.lookup(5), Some((5, 10, 900)));
    }

    #[test]
    fn overwrite_interior_of_large_extent_many_times() {
        let mut m = ExtentMap::new();
        m.insert(0, 1000, 0u64);
        for i in 0..100 {
            m.insert(i * 10 + 1, 5, 10_000 + i);
        }
        m.check_invariants();
        // 1 leading piece + 100 overwrites + 99 gaps + 1 trailing piece.
        assert_eq!(m.len(), 201);
        assert_eq!(m.mapped_len(), 1000);
    }
}
