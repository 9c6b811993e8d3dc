//! The shared simulation world — metric sinks and the publish script —
//! and the ground-truth oracle, which the driver ([`crate::sim::Net`])
//! keeps beside it: no node reads or writes the oracle.

use crate::metrics::Metrics;
use crate::model::{Event, SchemeId, SubId, Subscription};
use crate::repo::same_bits;
use hypersub_lph::{Point, Rect};
use hypersub_simnet::FxHashMap;
use hypersub_snapshot::{Decode, Encode, Error, Reader, Writer};
use std::borrow::Borrow;

/// Ground truth: every subscription in the system, for computing expected
/// match sets (tests) and the matched-percentage metric (Figure 2a/5a).
/// The driver owns it and is its only writer.
///
/// The publish path asks it for a count once per event, so it is laid out
/// for that question: a slot per subscription holding the caller's rect (a
/// clone, so one more reference to the block the subscriber and the
/// repository entry hold), an exact-size grid of candidate slots built by
/// a query and rebuilt once the subscriptions drift, removal by tombstone.
/// A removed slot keeps its place without a rect until the next
/// compaction, so a candidate list naming it counts nothing.
/// It shares no code with [`crate::index`] — it is the reference the
/// delivery check compares the protocol against.
///
/// A subscription matches a point when the scheme agrees, the arity
/// agrees, and every coordinate lies within its closed range.
/// Re-adding an id replaces its subscription.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Registration order, dead slots included.
    slots: Vec<Slot>,
    by_id: FxHashMap<SubId, u32>,
    dead: usize,
    /// One grid per `(scheme, arity)` queried so far.
    grids: FxHashMap<(SchemeId, usize), Grid>,
}

/// 32 B: the id's two halves sit beside the scheme, where a `SubId`
/// field would pad to 16 B and the slot to 40.
#[derive(Debug)]
struct Slot {
    nid: u64,
    iid: u32,
    scheme: SchemeId,
    /// `None` once removed.
    rect: Option<Rect>,
}

impl Slot {
    fn id(&self) -> SubId {
        SubId {
            nid: self.nid,
            iid: self.iid,
        }
    }

    /// The slot's rect, if it is live in `scheme` at `arity`.
    fn live_in(&self, scheme: SchemeId, arity: usize) -> Option<&Rect> {
        self.rect
            .as_ref()
            .filter(|r| self.scheme == scheme && r.dims() == arity)
    }
}

/// Is `p` inside `r`? Same arity assumed; false under any NaN. Every axis
/// is compared, with no early exit: which axis rejects a grid candidate
/// is unpredictable, and the mispredicted branch cost more than the
/// comparisons it saved.
fn inside(r: &Rect, p: &[f64]) -> bool {
    r.lo()
        .iter()
        .zip(r.hi())
        .zip(p)
        .fold(true, |ok, ((&lo, &hi), &x)| ok & (lo <= x) & (x <= hi))
}

/// Buckets subscriptions — by slot index — on their intervals on up to
/// four leading axes, in one exact-size table of cells (compressed sparse
/// rows). A point query reads one cell plus the `wide` and `added` lists,
/// so a subscription registered in several cells is never counted twice.
/// Coordinates outside the build-time box clamp to the edge cells, for
/// rects and points alike, so the cell read is always a superset of the
/// matches.
#[derive(Debug)]
struct Grid {
    /// Active axes; the rest have a single cell.
    dims: usize,
    lo: [f64; Grid::MAX_DIMS],
    /// Cells per unit length (0 on an axis with no finite positive span).
    scale: [f64; Grid::MAX_DIMS],
    /// Cell `c` holds `members[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    members: Vec<u32>,
    /// Subscriptions spanning more than [`Grid::MAX_CELLS`] cells: always
    /// scanned instead of registered everywhere.
    wide: Vec<u32>,
    /// Subscriptions added since the build: always scanned. At a quarter
    /// of `built` the box no longer describes them and `add` drops the
    /// grid for the next query to rebuild.
    added: Vec<u32>,
    /// Subscriptions the grid was built over.
    built: usize,
}

/// The cells a rect overlaps: a range on each axis (inactive axes get the
/// one-cell range `0..=0`) and the cells per axis.
#[derive(Clone, Copy)]
struct Span {
    range: [(usize, usize); Grid::MAX_DIMS],
    n: [usize; Grid::MAX_DIMS],
}

impl Span {
    fn for_each(self, mut f: impl FnMut(usize)) {
        let (range, n) = (self.range, self.n);
        for x in range[0].0..=range[0].1 {
            for y in range[1].0..=range[1].1 {
                for z in range[2].0..=range[2].1 {
                    for w in range[3].0..=range[3].1 {
                        f(((x * n[1] + y) * n[2] + z) * n[3] + w);
                    }
                }
            }
        }
    }
}

impl Grid {
    const MAX_DIMS: usize = 4;
    /// Cells per active axis by active-axis count: 64, 32², 16³, 8⁴.
    const AXIS_CELLS: [usize; Grid::MAX_DIMS + 1] = [1, 64, 32, 16, 8];
    /// Most cells one subscription may be registered in.
    const MAX_CELLS: usize = 256;

    /// A grid over the box of the live `(scheme, arity)` slots, its table
    /// allocated once at its final size: a count pass, a prefix sum,
    /// then a fill pass.
    fn build(slots: &[Slot], scheme: SchemeId, arity: usize) -> Grid {
        let live = || {
            slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| Some((i as u32, s.live_in(scheme, arity)?)))
        };
        let dims = arity.min(Grid::MAX_DIMS);
        let per_axis = Grid::AXIS_CELLS[dims];
        let mut grid = Grid {
            dims,
            lo: [0.0; Grid::MAX_DIMS],
            scale: [0.0; Grid::MAX_DIMS],
            starts: vec![0; per_axis.pow(dims as u32) + 1],
            members: Vec::new(),
            wide: Vec::new(),
            added: Vec::new(),
            built: live().count(),
        };
        for d in 0..dims {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (_, r) in live() {
                if r.lo()[d].is_finite() {
                    lo = lo.min(r.lo()[d]);
                }
                if r.hi()[d].is_finite() {
                    hi = hi.max(r.hi()[d]);
                }
            }
            let scale = per_axis as f64 / (hi - lo);
            if scale.is_finite() && scale > 0.0 {
                (grid.lo[d], grid.scale[d]) = (lo, scale);
            }
        }
        // Each cell's count, summed up to it: `starts[c]` is where cell
        // `c` ends, and the last entry is the table's size.
        for (i, r) in live() {
            match grid.span(r) {
                Some(span) => span.for_each(|c| grid.starts[c] += 1),
                None => grid.wide.push(i),
            }
        }
        let mut sum = 0u32;
        for s in &mut grid.starts {
            sum = sum
                .checked_add(*s)
                .expect("oracle grid exceeds u32 entries");
            *s = sum;
        }
        // Filled back to front, so each cell lists its slots in order and
        // `starts[c]` ends where cell `c` begins.
        grid.members = vec![0; sum as usize];
        for (i, r) in live().rev() {
            if let Some(span) = grid.span(r) {
                span.for_each(|c| {
                    grid.starts[c] -= 1;
                    grid.members[grid.starts[c] as usize] = i;
                });
            }
        }
        grid
    }

    /// Cells on each active axis.
    fn per_axis(&self) -> usize {
        Grid::AXIS_CELLS[self.dims]
    }

    /// The cell coordinate of `x` on axis `d`: monotone in `x`, and the
    /// float-to-int cast saturates (negatives and NaN to 0), which is the
    /// clamp to the edge cells.
    fn coord(&self, d: usize, x: f64) -> usize {
        (((x - self.lo[d]) * self.scale[d]) as usize).min(self.per_axis() - 1)
    }

    /// The cell holding `p`.
    fn cell(&self, p: &[f64]) -> usize {
        (0..self.dims).fold(0, |i, d| i * self.per_axis() + self.coord(d, p[d]))
    }

    /// The candidates for a point in cell `c`.
    fn candidates(&self, c: usize) -> impl Iterator<Item = &u32> {
        self.members[self.starts[c] as usize..self.starts[c + 1] as usize]
            .iter()
            .chain(&self.wide)
            .chain(&self.added)
    }

    /// The cells `r` overlaps, or `None` when they are too many.
    fn span(&self, r: &Rect) -> Option<Span> {
        let mut span = Span {
            range: [(0, 0); Grid::MAX_DIMS],
            n: [1; Grid::MAX_DIMS],
        };
        let mut count = 1;
        for d in 0..self.dims {
            span.range[d] = (self.coord(d, r.lo()[d]), self.coord(d, r.hi()[d]));
            span.n[d] = self.per_axis();
            // Empty when the bounds are inverted (a decoded rect's may
            // be, or a NaN upper one): such a rect matches nothing.
            count *= (span.range[d].1 + 1).saturating_sub(span.range[d].0);
        }
        (count <= Grid::MAX_CELLS).then_some(span)
    }
}

impl Oracle {
    /// Registers a subscription, keeping a clone of its rect.
    pub fn add(&mut self, scheme: SchemeId, subid: SubId, sub: impl Borrow<Subscription>) {
        let rect = sub.borrow().rect.clone();
        self.remove(subid);
        let i = u32::try_from(self.slots.len()).expect("oracle slot index exceeds u32");
        let key = (scheme, rect.dims());
        self.slots.push(Slot {
            nid: subid.nid,
            iid: subid.iid,
            scheme,
            rect: Some(rect),
        });
        self.by_id.insert(subid, i);
        if let Some(grid) = self.grids.get_mut(&key) {
            grid.added.push(i);
            if 4 * grid.added.len() >= grid.built.max(1) {
                self.grids.remove(&key);
            }
        }
    }

    /// Removes a subscription (unsubscribe). Returns whether it existed.
    ///
    /// Its slot loses its rect, which is how the grid cells naming it
    /// learn of it. Once a quarter of the slots are dead, the live ones
    /// close ranks in registration order and the grids are dropped
    /// (their cells hold slot indices), to be rebuilt by the next query.
    pub fn remove(&mut self, subid: SubId) -> bool {
        let Some(i) = self.by_id.remove(&subid) else {
            return false;
        };
        self.slots[i as usize].rect = None;
        self.dead += 1;
        if self.dead * 4 > self.slots.len() {
            self.slots.retain(|s| s.rect.is_some());
            for (i, s) in self.slots.iter().enumerate() {
                self.by_id.insert(s.id(), i as u32);
            }
            self.dead = 0;
            self.grids.clear();
        }
        true
    }

    /// Total subscriptions across all schemes.
    pub fn len(&self) -> usize {
        self.slots.len() - self.dead
    }

    /// True when no subscriptions exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The exact set of subscriptions matching `point` in `scheme`: a
    /// scan of every slot, the slow reference `expected_count` is tested
    /// against.
    pub fn expected_matches(&self, scheme: SchemeId, point: &Point) -> Vec<SubId> {
        let arity = point.0.len();
        let mut out: Vec<SubId> = self
            .slots
            .iter()
            .filter(|s| {
                s.live_in(scheme, arity)
                    .is_some_and(|r| inside(r, &point.0))
            })
            .map(Slot::id)
            .collect();
        out.sort_unstable();
        out
    }

    /// `expected_matches(..).len()` without the scan: candidates come
    /// from the grid cell covering `point` and each is verified with the
    /// exact containment test, so the count is identical. `&mut self`
    /// only because a grid is built on its first use.
    pub fn expected_count(&mut self, scheme: SchemeId, point: &Point) -> usize {
        let arity = point.0.len();
        let slots = &self.slots;
        let grid = self
            .grids
            .entry((scheme, arity))
            .or_insert_with(|| Grid::build(slots, scheme, arity));
        grid.candidates(grid.cell(&point.0))
            .filter(|&&i| {
                let rect = slots[i as usize].rect.as_ref();
                rect.is_some_and(|r| inside(r, &point.0))
            })
            .count()
    }

    /// The rect the oracle holds for live subscription `subid`.
    pub(crate) fn rect(&self, subid: SubId) -> Option<&Rect> {
        self.slots[*self.by_id.get(&subid)? as usize].rect.as_ref()
    }

    /// Points `rect` at the block the oracle holds for live subscription
    /// `subid`, if the two are the same bit for bit.
    pub(crate) fn share_into(&self, subid: SubId, rect: &mut Rect) {
        if let Some(held) = self.rect(subid).filter(|held| same_bits(held, rect)) {
            *rect = held.clone();
        }
    }

    /// Whether live subscription `subid` matches `point` in `scheme`: the
    /// test [`Oracle::expected_count`] applies to each candidate. False
    /// for an id the oracle does not hold.
    pub(crate) fn covers(&self, subid: SubId, scheme: SchemeId, point: &Point) -> bool {
        self.by_id.get(&subid).is_some_and(|&i| {
            self.slots[i as usize]
                .live_in(scheme, point.0.len())
                .is_some_and(|r| inside(r, &point.0))
        })
    }
}

/// A scheduled publication, waiting in the script for its timer.
#[derive(Debug)]
pub struct Scripted {
    /// The event's scheme.
    pub scheme: SchemeId,
    /// The event.
    pub event: Event,
    /// The subscriptions that match the event, counted by the driver.
    /// While the entry waits, the driver keeps this equal to the oracle's
    /// count, so the publication is recorded with the count as of the
    /// moment it fires.
    pub expected: usize,
}

// Hand-written codec: the count is not written. It equals the oracle's
// while the entry waits, so a restore recounts it from the oracle, and
// the entry's bytes are those of the `(scheme, event)` pair it replaced.
impl Encode for Scripted {
    fn encode(&self, w: &mut Writer) {
        self.scheme.encode(w);
        self.event.encode(w);
    }
}

impl Decode for Scripted {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(Scripted {
            scheme: SchemeId::decode(r)?,
            event: Event::decode(r)?,
            expected: 0,
        })
    }
}

/// The shared world threaded through the simulator: what the nodes
/// report and what they are told to publish.
#[derive(Debug, Default)]
pub struct HyperWorld {
    /// Metric sink.
    pub metrics: Metrics,
    /// Scripted events, consumed by publish timers (indexed by the timer
    /// token's low bits).
    pub script: Vec<Option<Scripted>>,
}

impl HyperWorld {
    /// Takes scripted event `idx` (panics if fired twice — each scripted
    /// publish must run exactly once).
    pub fn take_scripted(&mut self, idx: usize) -> Scripted {
        self.script[idx]
            .take()
            .expect("scripted event fired twice or never scheduled")
    }
}

// Hand-written codec: the decoder derives state (slots and grids are
// rebuilt through `add`).
impl Encode for Oracle {
    fn encode(&self, w: &mut Writer) {
        // The live subscriptions in registration order, as they were
        // handed to `add`; a `Subscription` is its rect on the wire.
        w.put_u64(self.len() as u64);
        for s in &self.slots {
            if let Some(rect) = &s.rect {
                w.put_u32(s.scheme);
                s.id().encode(w);
                rect.encode(w);
            }
        }
    }
}

impl Decode for Oracle {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = r.take_u64()? as usize;
        let mut oracle = Oracle::default();
        for _ in 0..n {
            let scheme = r.take_u32()?;
            let subid = SubId::decode(r)?;
            let sub = Subscription::decode(r)?;
            // `add` would replace it, and re-encode one entry fewer.
            if oracle.by_id.contains_key(&subid) {
                return Err(Error::InvalidValue("duplicate map key"));
            }
            oracle.add(scheme, subid, sub);
        }
        Ok(oracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersub_lph::ContentSpace;
    use proptest::prelude::*;

    #[test]
    fn oracle_matches_brute_force() {
        let space = ContentSpace::uniform(2, 0.0, 10.0);
        let mut o = Oracle::default();
        let sub_a = Subscription::new(Rect::new(vec![0.0, 0.0], vec![5.0, 5.0]));
        let sub_b = Subscription::new(Rect::new(vec![4.0, 4.0], vec![9.0, 9.0]));
        let _ = space;
        o.add(0, SubId { nid: 1, iid: 1 }, sub_a);
        o.add(0, SubId { nid: 2, iid: 1 }, sub_b.clone());
        o.add(1, SubId { nid: 3, iid: 1 }, sub_b);
        let m = o.expected_matches(0, &Point(vec![4.5, 4.5]));
        assert_eq!(m.len(), 2);
        let m = o.expected_matches(0, &Point(vec![8.0, 8.0]));
        assert_eq!(m, vec![SubId { nid: 2, iid: 1 }]);
        // Scheme 1 is separate.
        let m = o.expected_matches(1, &Point(vec![8.0, 8.0]));
        assert_eq!(m, vec![SubId { nid: 3, iid: 1 }]);
    }

    #[test]
    fn expected_count_equals_linear_scan() {
        let mut o = Oracle::default();
        // Empty oracle (degenerate grid span).
        assert_eq!(o.expected_count(0, &Point(vec![3.0, 3.0])), 0);
        for i in 0..50u64 {
            let x = (i * 7 % 100) as f64;
            let y = (i * 13 % 100) as f64;
            o.add(
                (i % 2) as SchemeId,
                SubId { nid: i, iid: 1 },
                Subscription::new(Rect::new(
                    vec![x * 0.9, y * 0.9],
                    vec![(x + 5.0).min(100.0), (y + 9.0).min(100.0)],
                )),
            );
        }
        let probe = |o: &mut Oracle| {
            for px in [0.0, 13.0, 49.5, 77.0, 100.0, 120.0, -5.0] {
                for py in [0.0, 42.0, 88.8] {
                    let p = Point(vec![px, py]);
                    for scheme in 0..2 {
                        assert_eq!(
                            o.expected_count(scheme, &p),
                            o.expected_matches(scheme, &p).len(),
                            "scheme {scheme} point {px},{py}"
                        );
                    }
                }
            }
        };
        probe(&mut o);
        // The grids built above follow mutations; counts stay exact.
        assert!(o.remove(SubId { nid: 7, iid: 1 }));
        assert!(!o.remove(SubId { nid: 7, iid: 1 }));
        o.add(
            0,
            SubId { nid: 99, iid: 1 },
            Subscription::new(Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])),
        );
        assert_eq!(o.len(), 50);
        probe(&mut o);
        // Re-adding an id replaces its subscription.
        o.add(
            0,
            SubId { nid: 99, iid: 1 },
            Subscription::new(Rect::new(vec![0.0, 0.0], vec![1.0, 1.0])),
        );
        assert_eq!(o.len(), 50);
        assert_eq!(o.expected_count(0, &Point(vec![120.0, 88.8])), 0);
        probe(&mut o);
    }

    fn encoded(o: &Oracle) -> Vec<u8> {
        let mut w = Writer::new();
        o.encode(&mut w);
        w.into_vec()
    }

    /// Scheme 0 has two attributes on [0, 100], scheme 1 five on [-1, 1].
    fn arb_sub() -> impl Strategy<Value = (SchemeId, Subscription)> {
        let axis = (0.0f64..=1.0, 0.0f64..=1.0).prop_map(|(a, b)| (a.min(b), a.max(b)));
        (any::<bool>(), prop::collection::vec(axis, 5..6)).prop_map(|(wide, axes)| {
            let (scheme, arity, lo, span) = if wide {
                (1, 5, -1.0, 2.0)
            } else {
                (0, 2, 0.0, 100.0)
            };
            let at = |x: f64| lo + x * span;
            let rect = Rect::new(
                axes[..arity].iter().map(|a| at(a.0)).collect(),
                axes[..arity].iter().map(|a| at(a.1)).collect(),
            );
            (scheme, Subscription::new(rect))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Random add/remove histories, queried throughout (so the grids
        /// exist and must follow), with enough removals to cross
        /// compactions: the grid count equals the scan for points
        /// inside, on the edge of and outside the box, in both schemes,
        /// and the encoding is that of a fresh oracle fed the survivors.
        /// Each add is queried at its rect's corner too, so counts read
        /// the `added` list of a built grid and see it dropped at a
        /// quarter of what it was built over.
        #[test]
        fn prop_count_equals_scan_across_compactions(
            subs in prop::collection::vec(arb_sub(), 40..160),
            removes in prop::collection::vec(any::<u16>(), 30..120),
            coords in prop::collection::vec(0.0f64..=1.0, 5..6),
        ) {
            let id = |i: usize| SubId { nid: i as u64, iid: 1 };
            let mut o = Oracle::default();
            let mut alive: Vec<usize> = Vec::new();
            let (mut compactions, mut read_added, mut drops) = (0, 0, 0);
            let mut removes = removes.into_iter();
            for (i, (scheme, sub)) in subs.iter().enumerate() {
                let key = (*scheme, sub.rect.dims());
                let had_grid = o.grids.contains_key(&key);
                o.add(*scheme, id(i), sub.clone());
                alive.push(i);
                match o.grids.get(&key) {
                    Some(grid) => read_added += usize::from(!grid.added.is_empty()),
                    None => drops += usize::from(had_grid),
                }
                let corner = Point(sub.rect.hi().to_vec());
                let listed = o.expected_matches(*scheme, &corner).len();
                prop_assert!(listed > 0);
                prop_assert_eq!(o.expected_count(*scheme, &corner), listed);
                if i % 2 == 1 {
                    if let Some(r) = removes.next() {
                        let slots = o.slots.len();
                        let gone = alive.swap_remove(r as usize % alive.len());
                        prop_assert!(o.remove(id(gone)));
                        compactions += usize::from(o.slots.len() < slots);
                    }
                }
                if i % 8 != 0 {
                    continue;
                }
                prop_assert_eq!(o.len(), alive.len());
                for (scheme, arity, lo, span) in [(0, 2, 0.0, 100.0), (1, 5, -1.0, 2.0)] {
                    // Inside the domain, at its corner, beyond it on either
                    // side, and on the corner of a live rect.
                    let mut probes: Vec<Point> = [1.0, 0.0, 3.0, -2.0]
                        .iter()
                        .map(|stretch| {
                            let at = |&c: &f64| lo + c * stretch * span;
                            Point(coords[..arity].iter().map(at).collect())
                        })
                        .collect();
                    let corner = alive.iter().find(|&&j| subs[j].0 == scheme);
                    probes.extend(corner.map(|&j| Point(subs[j].1.rect.hi().to_vec())));
                    for p in probes {
                        let listed = o.expected_matches(scheme, &p);
                        prop_assert_eq!(o.expected_count(scheme, &p), listed.len());
                        let mut brute: Vec<SubId> = alive
                            .iter()
                            .filter(|&&j| subs[j].0 == scheme && subs[j].1.rect.contains_point(&p))
                            .map(|&j| id(j))
                            .collect();
                        brute.sort_unstable();
                        prop_assert_eq!(listed, brute);
                    }
                }
            }
            prop_assert!(compactions > 0, "the history never compacted");
            prop_assert!(read_added > 0, "no count read an added subscription");
            prop_assert!(drops > 0, "no grid was dropped for its added list");
            alive.sort_unstable();
            let mut fresh = Oracle::default();
            for &j in &alive {
                fresh.add(subs[j].0, id(j), subs[j].1.clone());
            }
            prop_assert_eq!(encoded(&o), encoded(&fresh));
        }
    }

    #[test]
    fn domain_spanning_subscription_stays_under_the_cell_cap() {
        let mut o = Oracle::default();
        let whole = Rect::new(vec![0.0; 4], vec![100.0; 4]);
        o.add(
            0,
            SubId { nid: 0, iid: 1 },
            Subscription::new(whole.clone()),
        );
        for i in 1..200u64 {
            let lo = (i % 90) as f64;
            let r = Rect::new(vec![lo; 4], vec![lo + 10.0; 4]);
            o.add(0, SubId { nid: i, iid: 1 }, Subscription::new(r));
        }
        let p = Point(vec![55.0; 4]);
        assert_eq!(o.expected_count(0, &p), o.expected_matches(0, &p).len());
        // Added after the grid exists: scanned from the `added` list.
        o.add(
            0,
            SubId { nid: 500, iid: 1 },
            Subscription::new(whole.clone()),
        );
        assert_eq!(o.expected_count(0, &p), o.expected_matches(0, &p).len());
        let grid = &o.grids[&(0, 4)];
        assert_eq!(
            (grid.wide.as_slice(), grid.added.as_slice()),
            (&[0][..], &[200][..])
        );
        // A quarter of what it was built over, added: the grid is dropped,
        // and the next query rebuilds it with all three domain-spanning
        // ones in `wide`.
        for i in 0..48u64 {
            let r = Rect::new(vec![1.0; 4], vec![2.0; 4]);
            o.add(
                0,
                SubId {
                    nid: 600 + i,
                    iid: 1,
                },
                Subscription::new(r),
            );
            assert!(
                o.grids.contains_key(&(0, 4)),
                "dropped after {} adds",
                i + 2
            );
        }
        o.add(0, SubId { nid: 700, iid: 1 }, Subscription::new(whole));
        assert!(!o.grids.contains_key(&(0, 4)));
        assert_eq!(o.expected_count(0, &p), o.expected_matches(0, &p).len());

        let grid = &o.grids[&(0, 4)];
        assert_eq!(grid.starts.len(), 8 * 8 * 8 * 8 + 1);
        assert_eq!(grid.members.len(), *grid.starts.last().unwrap() as usize);
        assert_eq!(grid.wide, [0, 200, 249], "the three domain-spanning ones");
        assert!(grid.added.is_empty());
        let mut per_slot = vec![0usize; o.slots.len()];
        for cell in grid.starts.windows(2) {
            let members = &grid.members[cell[0] as usize..cell[1] as usize];
            assert!(members.windows(2).all(|w| w[0] < w[1]), "in slot order");
            for &i in members {
                per_slot[i as usize] += 1;
            }
        }
        assert_eq!((per_slot[0], per_slot[200], per_slot[249]), (0, 0, 0));
        assert!(per_slot.iter().all(|&n| n <= Grid::MAX_CELLS));
        assert!(per_slot[1..200].iter().all(|&n| n > 0));
    }

    /// One history through every state a candidate list can be in: grid
    /// built, entry removed under it, same id re-added, the ¼-dead
    /// compaction that moves every slot, an add after it.
    #[test]
    fn count_follows_remove_readd_and_compaction() {
        let id = |n: u64| SubId { nid: n, iid: 1 };
        let sub = |lo: f64| Subscription::new(Rect::new(vec![lo, lo], vec![lo + 30.0, lo + 30.0]));
        let mut o = Oracle::default();
        let check = |o: &mut Oracle| {
            for x in [0.0, 15.0, 40.0, 65.0, 100.0] {
                let p = Point(vec![x, x]);
                assert_eq!(o.expected_count(0, &p), o.expected_matches(0, &p).len());
            }
        };
        for n in 0..12 {
            o.add(0, id(n), sub(5.0 * n as f64));
            check(&mut o);
        }
        assert!(o.remove(id(2)));
        check(&mut o);
        assert_eq!(o.expected_count(0, &Point(vec![12.0, 12.0])), 2, "0 and 1");
        o.add(0, id(2), sub(60.0));
        check(&mut o);
        o.add(0, id(2), sub(10.0));
        check(&mut o);
        assert_eq!(o.expected_count(0, &Point(vec![12.0, 12.0])), 3);
        let mut compacted = false;
        for n in 3..9 {
            let slots = o.slots.len();
            assert!(o.remove(id(n)));
            compacted |= o.slots.len() < slots;
            check(&mut o);
        }
        assert!(compacted, "the history never crossed the compaction");
        o.add(0, id(20), sub(35.0));
        check(&mut o);
        assert_eq!(o.len(), 7);
    }

    /// A subscription of no attributes (`Rect::new` refuses one, a decoded
    /// snapshot may hold one) holds the point of no coordinates, and stops
    /// being counted when it is removed.
    #[test]
    fn removed_subscription_of_no_attributes_is_not_counted() {
        let mut o = Oracle::default();
        let nothing = || Subscription {
            rect: Rect::unchecked(Vec::new(), Vec::new()),
        };
        o.add(0, SubId { nid: 1, iid: 1 }, nothing());
        o.add(0, SubId { nid: 2, iid: 1 }, nothing());
        let p = Point(vec![]);
        assert_eq!(o.expected_count(0, &p), 2);
        assert!(o.remove(SubId { nid: 1, iid: 1 }));
        assert_eq!(o.expected_matches(0, &p), [SubId { nid: 2, iid: 1 }]);
        assert_eq!(o.expected_count(0, &p), 1);
    }

    #[test]
    fn a_slot_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 32);
    }

    #[test]
    fn script_take_once() {
        let mut w = HyperWorld::default();
        w.script.push(Some(Scripted {
            scheme: 0,
            event: Event {
                id: 7,
                point: Point(vec![1.0]),
            },
            expected: 3,
        }));
        let s = w.take_scripted(0);
        assert_eq!((s.scheme, s.event.id, s.expected), (0, 7, 3));
    }

    #[test]
    #[should_panic(expected = "fired twice")]
    fn script_double_take_panics() {
        let mut w = HyperWorld::default();
        w.script.push(None);
        w.take_scripted(0);
    }
}
