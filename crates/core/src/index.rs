//! Local event-matching index for surrogate repositories.
//!
//! §3.3: "There may be indexing structures maintained on the surrogate
//! node to facilitate local event matching; however, this is not the
//! focus of this paper." This module supplies one: [`BitsetIndex`], a
//! bucketed bitset per projected dimension. Every entry owns one slot;
//! row *(dimension, bucket)* is a bitset over the slots whose interval on
//! that dimension overlaps the bucket. A point query ANDs one row per
//! dimension, word by word, and tests each surviving slot against a flat
//! array of bounds — no pointer is followed until a slot has passed both
//! (the real-time matching half of Shi et al., arXiv 1811.07088: cheap
//! per-attribute pruning first).
//!
//! A point query yields a candidate superset whose stored bounds hold.
//! When those bounds are the whole rect the caller checks — every
//! projected dimension is indexed and the projection keeps every
//! attribute — that test *is* the exact one and `ZoneRepo::match_into`
//! takes the candidate as a match; otherwise it verifies each candidate
//! exactly against the authoritative entry table, so there the index
//! only ever prunes.
//!
//! Repositories build an index lazily once they reach
//! [`INDEX_THRESHOLD`] entries (hot zones under skewed workloads collect
//! thousands); below that a linear scan is faster than any structure.

use crate::model::SubId;
use hypersub_lph::{Point, Rect};
use hypersub_simnet::FxHashMap;

/// Entry count at which a repository builds its index.
pub const INDEX_THRESHOLD: usize = 64;

/// Whether repositories build the matching index past the threshold.
/// Purely a performance choice: both modes produce identical match sets
/// (enforced by the differential oracle proptest), so run digests are
/// mode-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexMode {
    /// Never build an index; always scan linearly. The differential
    /// oracle the indexed path is tested against.
    Linear,
    /// Build a [`BitsetIndex`].
    #[default]
    Bitset,
}

/// Index occupancy and cost diagnostics, summable across repositories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexDiag {
    /// Entries stored in repositories that currently hold a built index.
    pub entries: u64,
    /// Approximate heap bytes consumed by index structures.
    pub bytes: u64,
    /// Always 0: the covering layer is gone. `perf/` reads the field; the
    /// next `benchmark` PR drops it together with the alias below.
    pub covering_collapsed: u64,
    /// Slots examined by point queries over the run (index paths only;
    /// linear scans examine every entry by definition).
    pub candidates_scanned: u64,
}

impl IndexDiag {
    /// Accumulates another repository's diagnostics into this one.
    pub fn merge(&mut self, o: &IndexDiag) {
        self.entries += o.entries;
        self.bytes += o.bytes;
        self.covering_collapsed += o.covering_collapsed;
        self.candidates_scanned += o.candidates_scanned;
    }
}

/// Buckets per indexed dimension.
const BUCKETS: usize = 64;
/// Leading dimensions indexed; rows cost `8 × dims` bytes a slot, and a
/// slot that survives eight ANDs has little left to prune.
const MAX_DIMS: usize = 8;

/// `perf/` names the index by the structure it replaced; the next
/// `benchmark` PR drops this alias.
pub type HybridIndex = BitsetIndex;

/// The matching index: per indexed dimension, `BUCKETS` (64) equal-width
/// buckets over the bounding box of the entries present when the rows
/// were last laid out, and per *(dimension, bucket)* a bitset over slots.
///
/// * **Superset.** Rect endpoints and query coordinates go through the
///   same monotone, saturating bucket function, so `lo ≤ x ≤ hi` implies
///   `bucket(lo) ≤ bucket(x) ≤ bucket(hi)` — inside the box or clamped to
///   its edge buckets outside it — and every bucket in that range has the
///   slot's bit set. NaN compares false with everything, matches nothing
///   exactly, and so may land anywhere.
/// * **Incremental.** Insert sets a slot's bits; remove clears them and
///   recycles the slot, so no stale slot is ever examined and nothing is
///   rebuilt as entries come and go. The rows are laid out again — with a
///   fresh bounding box — only when the slots outgrow them, at twice the
///   capacity.
#[derive(Debug, Clone)]
pub struct BitsetIndex {
    /// Leading projected dimensions indexed.
    dims: usize,
    /// Per dimension: the box's low edge and buckets per unit length
    /// (0 when the axis has no finite positive span — one bucket, no
    /// pruning).
    lo: [f64; MAX_DIMS],
    scale: [f64; MAX_DIMS],
    /// Words per row; the rows hold `64 × words` slots.
    words: usize,
    /// Row *(d, b)* is `rows[(d * BUCKETS + b) * words..][..words]`.
    rows: Vec<u64>,
    /// Slot-major `[lo₀, hi₀, lo₁, hi₁, …]`, `2 × dims` values a slot.
    bounds: Vec<f64>,
    ids: Vec<SubId>,
    /// Slots vacated by `remove`, reused before the tables grow.
    free: Vec<u32>,
    by_id: FxHashMap<SubId, u32>,
}

impl BitsetIndex {
    /// Builds the index from `(id, rect)` pairs; the bounding box of the
    /// rects (a repository's summary filter) becomes the bucketed range.
    pub fn build<'a, I>(entries: I) -> BitsetIndex
    where
        I: Iterator<Item = (&'a SubId, &'a Rect)>,
    {
        let items: Vec<(&SubId, &Rect)> = entries.collect();
        let arity = items.iter().map(|(_, r)| r.dims()).min().unwrap_or(0);
        let mut ix = BitsetIndex {
            dims: arity.min(MAX_DIMS),
            lo: [0.0; MAX_DIMS],
            scale: [0.0; MAX_DIMS],
            words: 0,
            rows: Vec::new(),
            bounds: Vec::with_capacity(items.len() * 2 * arity.min(MAX_DIMS)),
            ids: Vec::with_capacity(items.len()),
            free: Vec::new(),
            by_id: FxHashMap::default(),
        };
        for (&id, r) in items {
            ix.store(id, r);
        }
        ix.lay_out(ix.ids.len().div_ceil(64).next_power_of_two());
        ix
    }

    /// The slot's interval on dimension `d`.
    fn interval(&self, s: u32, d: usize) -> (f64, f64) {
        let at = (s as usize * self.dims + d) * 2;
        (self.bounds[at], self.bounds[at + 1])
    }

    /// The indexed dimensions of `r` as a slot stores them, in the first
    /// `2 × dims` places; a dimension `r` lacks is unbounded.
    fn leading(&self, r: &Rect) -> [f64; 2 * MAX_DIMS] {
        let mut b = [0.0; 2 * MAX_DIMS];
        for d in 0..self.dims {
            b[2 * d] = r.lo().get(d).copied().unwrap_or(f64::NEG_INFINITY);
            b[2 * d + 1] = r.hi().get(d).copied().unwrap_or(f64::INFINITY);
        }
        b
    }

    /// Slot `s`'s place in `bounds`.
    fn span(&self, s: u32) -> std::ops::Range<usize> {
        s as usize * 2 * self.dims..(s as usize + 1) * 2 * self.dims
    }

    /// Gives `id` a slot — a freed one if there is any — holding `r`'s
    /// bounds. The rows are the caller's business.
    fn store(&mut self, id: SubId, r: &Rect) -> u32 {
        let s = self.free.pop().unwrap_or_else(|| {
            self.ids.push(id);
            self.bounds.resize(self.ids.len() * 2 * self.dims, 0.0);
            self.ids.len() as u32 - 1
        });
        self.ids[s as usize] = id;
        self.set_bounds(s, &self.leading(r));
        self.by_id.insert(id, s);
        s
    }

    fn set_bounds(&mut self, s: u32, leading: &[f64; 2 * MAX_DIMS]) {
        let span = self.span(s);
        self.bounds[span].copy_from_slice(&leading[..2 * self.dims]);
    }

    /// The bucket a coordinate falls in. Monotone in `x` and saturating:
    /// the float-to-int cast sends negatives and NaN to 0 and `+∞` to the
    /// maximum, which `min` clamps to the last bucket.
    fn bucket(&self, d: usize, x: f64) -> usize {
        (((x - self.lo[d]) * self.scale[d]) as usize).min(BUCKETS - 1)
    }

    /// Sets or clears slot `s` in every bucket its intervals overlap. A
    /// NaN endpoint can make a range empty; such a rect matches nothing.
    fn mark(&mut self, s: u32, set: bool) {
        let (word, bit) = (s as usize / 64, 1u64 << (s % 64));
        for d in 0..self.dims {
            let (lo, hi) = self.interval(s, d);
            for b in self.bucket(d, lo)..=self.bucket(d, hi) {
                let w = &mut self.rows[(d * BUCKETS + b) * self.words + word];
                if set {
                    *w |= bit;
                } else {
                    *w &= !bit;
                }
            }
        }
    }

    /// Lays the rows out afresh for `64 × words` slots over the bounding
    /// box of the live slots' finite endpoints.
    fn lay_out(&mut self, words: usize) {
        let live: Vec<u32> = self.by_id.values().copied().collect();
        for d in 0..self.dims {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &s in &live {
                let (l, h) = self.interval(s, d);
                if l.is_finite() {
                    lo = lo.min(l);
                }
                if h.is_finite() {
                    hi = hi.max(h);
                }
            }
            let scale = BUCKETS as f64 / (hi - lo);
            (self.lo[d], self.scale[d]) = if scale.is_finite() && scale > 0.0 {
                (lo, scale)
            } else {
                (0.0, 0.0)
            };
        }
        self.words = words;
        self.rows.clear();
        self.rows.resize(self.dims * BUCKETS * words, 0);
        for s in live {
            self.mark(s, true);
        }
    }

    /// Registers an entry. Re-registering an id with the same rect is a
    /// no-op (lease refreshes, replica replays); with a changed rect the
    /// slot's old bits are cleared and the new ones set. Returns whether
    /// the index changed.
    pub fn insert(&mut self, id: SubId, r: &Rect) -> bool {
        if let Some(&s) = self.by_id.get(&id) {
            let new = self.leading(r);
            if self.bounds[self.span(s)] == new[..2 * self.dims] {
                return false;
            }
            self.mark(s, false);
            self.set_bounds(s, &new);
            self.mark(s, true);
            return true;
        }
        let s = self.store(id, r);
        if s as usize >= self.words * 64 {
            self.lay_out((self.words * 2).max(1));
        } else {
            self.mark(s, true);
        }
        true
    }

    /// Unregisters an id: its bits are cleared and its slot goes back on
    /// the free list. Returns `true` when the id was registered.
    pub fn remove(&mut self, id: &SubId) -> bool {
        let Some(s) = self.by_id.remove(id) else {
            return false;
        };
        self.mark(s, false);
        self.free.push(s);
        true
    }

    /// Visits every candidate whose entry may match the projected point
    /// and returns the number of slots examined (those the row AND let
    /// through). The visited set is a superset of all truly matching
    /// entries, and every visited slot's stored bounds contain the point
    /// — so when [`Self::dims`] equals the point's length and every rect
    /// has that many dimensions, the visited set is exactly the entries
    /// whose rect contains it.
    pub fn for_candidates(&self, p: &Point, mut visit: impl FnMut(SubId)) -> u64 {
        let dims = self.dims;
        if dims == 0 || p.0.len() < dims {
            // No row can be chosen for a missing coordinate: everything
            // registered is a candidate.
            self.by_id.keys().for_each(|&id| visit(id));
            return self.by_id.len() as u64;
        }
        let mut rows: [&[u64]; MAX_DIMS] = [&[]; MAX_DIMS];
        for (d, row) in rows.iter_mut().enumerate().take(dims) {
            let at = (d * BUCKETS + self.bucket(d, p.0[d])) * self.words;
            *row = &self.rows[at..at + self.words];
        }
        let mut scanned = 0;
        for w in 0..self.words {
            let mut m = rows[..dims].iter().fold(u64::MAX, |m, row| m & row[w]);
            while m != 0 {
                let s = w * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                scanned += 1;
                // The stored bounds are the leading dimensions of the
                // rect the exact check uses, so failing here is failing
                // there; false under any NaN, like the exact check.
                let inside = self.bounds[self.span(s as u32)]
                    .chunks_exact(2)
                    .zip(&p.0)
                    .all(|(b, &x)| b[0] <= x && x <= b[1]);
                if inside {
                    visit(self.ids[s]);
                }
            }
        }
        scanned
    }

    /// Leading projected dimensions indexed: the shortest rect's arity at
    /// build time, capped at eight.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Registered entries.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.rows.capacity() * size_of::<u64>()
            + self.bounds.capacity() * size_of::<f64>()
            + self.ids.capacity() * size_of::<SubId>()
            + self.free.capacity() * size_of::<u32>()
            // A table's `capacity()` moves with its tombstones.
            + self.by_id.len() * (size_of::<(SubId, u32)>() + 1)) as u64
    }
}

#[cfg(test)]
mod tests {
    // The `hybrid_` names predate this structure; the PR gate tracks
    // tests by name, so the ones whose subject survived keep theirs.
    use super::*;

    fn sid(n: u64) -> SubId {
        SubId { nid: n, iid: 1 }
    }

    fn rect1(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![lo, 0.0], vec![hi, 100.0])
    }

    fn probe(x: f64) -> Point {
        Point(vec![x, 50.0])
    }

    /// Brute-force truth: ids whose rect contains the point.
    fn exact(entries: &[(SubId, Rect)], p: &Point) -> Vec<SubId> {
        let mut v: Vec<SubId> = entries
            .iter()
            .filter(|(_, r)| {
                r.lo()
                    .iter()
                    .zip(r.hi())
                    .zip(&p.0)
                    .all(|((&l, &h), &x)| l <= x && x <= h)
            })
            .map(|&(id, _)| id)
            .collect();
        v.sort_unstable();
        v
    }

    fn candidates(ix: &BitsetIndex, p: &Point) -> Vec<SubId> {
        let mut v = Vec::new();
        ix.for_candidates(p, |id| v.push(id));
        v.sort_unstable();
        v
    }

    fn build(entries: &[(SubId, Rect)]) -> BitsetIndex {
        BitsetIndex::build(entries.iter().map(|(a, b)| (a, b)))
    }

    #[test]
    fn hybrid_matches_exact_scan_on_random_entries() {
        let mut entries: Vec<(SubId, Rect)> = (0..300)
            .map(|i| {
                let lo = (i as f64 * 7.3) % 90.0;
                let w = (i as f64 * 1.7) % 9.0;
                (sid(i), rect1(lo, (lo + w).min(100.0)))
            })
            .collect();
        // Ten copies of one rect: every id comes back.
        entries.extend((300..310).map(|i| (sid(i), rect1(10.0, 20.0))));
        let ix = build(&entries);
        assert_eq!(ix.len(), 310);
        for x in [-3.0, 0.0, 13.37, 50.0, 89.9, 95.0, 200.0] {
            // In two dimensions the stored bounds are the whole rect, so
            // the candidates are exactly the matches.
            assert_eq!(
                candidates(&ix, &probe(x)),
                exact(&entries, &probe(x)),
                "x={x}"
            );
        }
    }

    #[test]
    fn hybrid_single_entry_build() {
        let ix = build(&[(sid(7), rect1(10.0, 20.0))]);
        assert_eq!(ix.len(), 1);
        assert_eq!(candidates(&ix, &probe(15.0)), vec![sid(7)]);
        assert!(candidates(&ix, &probe(25.0)).is_empty());
    }

    #[test]
    fn hybrid_empty_build() {
        let mut ix = build(&[]);
        assert!(ix.is_empty());
        assert!(candidates(&ix, &probe(0.0)).is_empty());
        // Nothing was there to take an arity from: inserts still work,
        // unpruned.
        assert!(ix.insert(sid(1), &rect1(1.0, 2.0)));
        assert_eq!(candidates(&ix, &probe(50.0)), vec![sid(1)]);
    }

    #[test]
    fn hybrid_incremental_insert_and_remove() {
        let entries: Vec<(SubId, Rect)> = (0..80)
            .map(|i| {
                let lo = (i as f64 * 1.1) % 50.0;
                (sid(i), rect1(lo, lo + 3.0))
            })
            .collect();
        let mut ix = build(&entries);

        // Insert outside the built box: clamped to the edge bucket, found.
        let scanned = ix.for_candidates(&probe(250.0), |_| {});
        assert!(ix.insert(sid(500), &rect1(200.0, 300.0)));
        assert_eq!(ix.len(), 81);
        assert!(candidates(&ix, &probe(250.0)).contains(&sid(500)));

        // Remove: gone from the candidates, not merely from the id table.
        assert!(ix.remove(&sid(500)));
        assert!(!ix.remove(&sid(500)));
        assert_eq!(ix.len(), 80);
        assert_eq!(ix.for_candidates(&probe(250.0), |_| {}), scanned);
        assert!(candidates(&ix, &probe(250.0)).is_empty());

        // Remove-then-reinsert: registered again exactly once.
        assert!(ix.remove(&sid(3)));
        assert!(ix.insert(sid(3), &rect1(60.0, 70.0)));
        assert_eq!(ix.len(), 80);
        assert_eq!(candidates(&ix, &probe(65.0)), vec![sid(3)]);
    }

    #[test]
    fn hybrid_reinsert_same_rect_is_a_noop() {
        let entries: Vec<(SubId, Rect)> = (0..70)
            .map(|i| (sid(i), rect1(i as f64, i as f64 + 5.0)))
            .collect();
        let mut ix = build(&entries);
        let bytes_before = ix.bytes();
        assert!(!ix.insert(sid(10), &rect1(10.0, 15.0)), "no mutation");
        assert_eq!(ix.len(), 70);
        assert_eq!(ix.bytes(), bytes_before, "no slot appended");
    }

    #[test]
    fn hybrid_reinsert_changed_rect_finds_new_geometry() {
        let entries: Vec<(SubId, Rect)> = (0..70)
            .map(|i| (sid(i), rect1(i as f64, i as f64 + 2.0)))
            .collect();
        let mut ix = build(&entries);
        // id 5 moves from [5,7] to [200,210]: found at the new place and
        // no longer examined at the old one.
        let before = ix.for_candidates(&probe(6.0), |_| {});
        assert!(ix.insert(sid(5), &rect1(200.0, 210.0)));
        assert_eq!(ix.len(), 70, "an update, not a second registration");
        assert!(candidates(&ix, &probe(205.0)).contains(&sid(5)));
        assert_eq!(ix.for_candidates(&probe(6.0), |_| {}), before - 1);
    }

    #[test]
    fn hybrid_tolerates_nonfinite_rects() {
        // Rect::new rejects non-finite bounds, but the index must stay
        // panic-free and superset-correct if handed them (hand-built
        // rects in tests, future codec relaxations).
        let inf = Rect::unchecked(vec![f64::NEG_INFINITY, 0.0], vec![f64::INFINITY, 100.0]);
        let nan = Rect::unchecked(vec![f64::NAN, 0.0], vec![f64::NAN, 100.0]);
        let entries = [
            (sid(1), rect1(10.0, 20.0)),
            (sid(2), inf),
            (sid(3), nan.clone()),
            (sid(4), rect1(15.0, 30.0)),
        ];
        let mut ix = build(&entries);
        assert_eq!(candidates(&ix, &probe(17.0)), vec![sid(1), sid(2), sid(4)]);
        // NaN and infinite query points: no panic, and NaN matches nothing.
        assert!(candidates(&ix, &Point(vec![f64::NAN, 50.0])).is_empty());
        assert_eq!(
            candidates(&ix, &Point(vec![f64::INFINITY, 50.0])),
            vec![sid(2)]
        );
        // A NaN rect comes out as cleanly as it went in.
        assert!(ix.remove(&sid(3)));
        assert!(ix.insert(sid(3), &nan));
        assert_eq!(candidates(&ix, &probe(17.0)), vec![sid(1), sid(2), sid(4)]);
    }

    #[test]
    fn hybrid_picks_discriminating_axis() {
        // Axis 0 intervals are all full-span; axis 1 intervals are
        // narrow: the AND leaves what the narrow axis lets through.
        let entries: Vec<(SubId, Rect)> = (0..100)
            .map(|i| {
                let lo = (i as f64) % 90.0;
                (sid(i), Rect::new(vec![0.0, lo], vec![100.0, lo + 2.0]))
            })
            .collect();
        let ix = build(&entries);
        let scanned = ix.for_candidates(&Point(vec![50.0, 50.0]), |_| {});
        assert!(scanned < 10, "scanned {scanned} of 100 slots");
    }

    #[test]
    fn hybrid_bytes_accounting_is_positive_and_grows() {
        let entries: Vec<(SubId, Rect)> = (0..100)
            .map(|i| (sid(i), rect1(i as f64, i as f64 + 1.0)))
            .collect();
        let mut ix = build(&entries);
        let b0 = ix.bytes();
        assert!(b0 > 0);
        for i in 200..260 {
            ix.insert(sid(i), &rect1(i as f64, i as f64 + 1.0));
        }
        assert!(ix.bytes() > b0, "inserting grows the footprint");
        // Freed slots are reused: remove/insert cycles add no slot.
        let slots = ix.ids.len();
        for i in 200..260 {
            ix.remove(&sid(i));
            ix.insert(sid(i + 100), &rect1(i as f64, i as f64 + 1.0));
        }
        assert_eq!(ix.ids.len(), slots);
        assert!(ix.free.is_empty());
    }

    #[test]
    fn outgrowing_the_rows_rebuckets_over_the_new_box() {
        // Built over [0, 9]; the inserts that follow all lie beyond it and
        // share the last bucket until the rows are laid out again.
        let mut entries: Vec<(SubId, Rect)> = (0..40)
            .map(|i| (sid(i), rect1(i as f64 % 9.0, i as f64 % 9.0 + 1.0)))
            .collect();
        let mut ix = build(&entries);
        assert_eq!(ix.words, 1);
        let mut insert_far = |ix: &mut BitsetIndex, i: u64| {
            let r = rect1(i as f64 * 100.0, i as f64 * 100.0 + 1.0);
            ix.insert(sid(i), &r);
            entries.push((sid(i), r));
            for x in [0.5, 8.5, 4000.5, i as f64 * 100.0 + 0.5] {
                assert_eq!(candidates(ix, &probe(x)), exact(&entries, &probe(x)));
            }
        };
        for i in 40..64 {
            insert_far(&mut ix, i);
        }
        assert_eq!(ix.words, 1);
        assert!(ix.for_candidates(&probe(4000.5), |_| {}) >= 24);
        insert_far(&mut ix, 64);
        assert_eq!(ix.words, 2, "the 65th slot doubled the capacity");
        assert!(ix.for_candidates(&probe(4000.5), |_| {}) <= 2);
    }

    #[test]
    fn zero_width_axis_is_one_bucket() {
        // Every rect is the same point on axis 0: no span to bucket.
        let entries: Vec<(SubId, Rect)> = (0..70)
            .map(|i| {
                let y = i as f64;
                (sid(i), Rect::new(vec![5.0, y], vec![5.0, y + 1.0]))
            })
            .collect();
        let ix = build(&entries);
        for (x, y) in [(5.0, 10.5), (5.0, 70.5), (4.9, 10.5), (5.1, 10.5)] {
            let p = Point(vec![x, y]);
            assert_eq!(candidates(&ix, &p), exact(&entries, &p), "({x}, {y})");
        }
    }
}
