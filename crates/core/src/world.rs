//! The shared simulation world — metric sinks and the publish script —
//! and the ground-truth oracle, which the driver ([`crate::sim::Net`])
//! keeps beside it: no node reads or writes the oracle.

use crate::metrics::Metrics;
use crate::model::{Event, SchemeId, SubId, Subscription};
use hypersub_lph::Point;
use hypersub_simnet::FxHashMap;
use hypersub_snapshot::{Decode, Encode, Error, Reader, Writer};
use std::borrow::Borrow;

/// Ground truth: every subscription in the system, for computing expected
/// match sets (tests) and the matched-percentage metric (Figure 2a/5a).
/// The driver owns it and is its only writer.
///
/// The publish path asks it for a count once per event, so it is laid out
/// for that question: bounds in one flat array, a grid of candidate lists
/// kept up to date as subscriptions come and go, removal by tombstone.
/// The candidate lists name bounds, not slots, and a removed
/// subscription's bounds are overwritten with NaN, so the count reads one
/// array and never learns which subscription a candidate was.
/// It shares no code with [`crate::index`] — it is the reference the
/// delivery check compares the protocol against.
///
/// A subscription matches a point when the scheme agrees, the arity
/// agrees, and every coordinate lies within its closed range.
/// Re-adding an id replaces its subscription.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Registration order; a removed subscription stays as a dead slot
    /// until the next compaction.
    slots: Vec<Slot>,
    /// Slot `s` owns `bounds[s.at..][..2 * s.arity]`, laid out
    /// `[lo₀, hi₀, lo₁, hi₁, …]`.
    bounds: Vec<f64>,
    by_id: FxHashMap<SubId, u32>,
    dead: usize,
    /// One grid per `(scheme, arity)` queried so far.
    grids: FxHashMap<(SchemeId, usize), Grid>,
}

#[derive(Debug)]
struct Slot {
    id: SubId,
    scheme: SchemeId,
    arity: u32,
    at: u32,
    live: bool,
}

/// Is `p` inside the interleaved `[lo, hi]` pairs of `b`? Same arity
/// assumed; false under any NaN. Every axis is compared, with no early
/// exit: which axis rejects a grid candidate is unpredictable, and the
/// mispredicted branch cost more than the comparisons it saved.
fn inside(b: &[f64], p: &[f64]) -> bool {
    b.chunks_exact(2)
        .zip(p)
        .fold(true, |ok, (b, &x)| ok & (b[0] <= x) & (x <= b[1]))
}

/// Buckets subscriptions — by the offset of their bounds, [`Slot::at`] —
/// on their intervals on up to four leading axes. A
/// point query reads one cell plus the `wide` list, so a subscription
/// registered in several cells is never counted twice. Coordinates
/// outside the build-time box clamp to the edge cells, for rects and
/// points alike, so the cell read is always a superset of the matches.
#[derive(Debug)]
struct Grid {
    /// Active axes; the rest have a single cell.
    dims: usize,
    lo: [f64; Grid::MAX_DIMS],
    /// Cells per unit length (0 on an axis with no finite positive span).
    scale: [f64; Grid::MAX_DIMS],
    cells: Vec<Vec<u32>>,
    /// Subscriptions spanning more than [`Grid::MAX_CELLS`] cells: always
    /// scanned instead of registered everywhere.
    wide: Vec<u32>,
    /// Subscriptions registered so far and when the grid was built: at
    /// twice as many the box no longer describes them and `add` drops the
    /// grid for the next query to rebuild.
    members: usize,
    built: usize,
}

impl Grid {
    const MAX_DIMS: usize = 4;
    /// Cells per active axis by active-axis count: 64, 32², 16³, 8⁴.
    const AXIS_CELLS: [usize; Grid::MAX_DIMS + 1] = [1, 64, 32, 16, 8];
    /// Most cells one subscription may be registered in.
    const MAX_CELLS: usize = 256;

    /// A grid over the box of the live `(scheme, arity)` slots.
    fn build(slots: &[Slot], bounds: &[f64], scheme: SchemeId, arity: usize) -> Grid {
        let members: Vec<(u32, &[f64])> = slots
            .iter()
            .filter(|s| s.live && s.scheme == scheme && s.arity as usize == arity)
            .map(|s| (s.at, &bounds[s.at as usize..][..2 * arity]))
            .collect();
        let dims = arity.min(Grid::MAX_DIMS);
        let per_axis = Grid::AXIS_CELLS[dims];
        let mut grid = Grid {
            dims,
            lo: [0.0; Grid::MAX_DIMS],
            scale: [0.0; Grid::MAX_DIMS],
            cells: vec![Vec::new(); per_axis.pow(dims as u32)],
            wide: Vec::new(),
            members: 0,
            built: members.len(),
        };
        for d in 0..dims {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (_, b) in &members {
                if b[2 * d].is_finite() {
                    lo = lo.min(b[2 * d]);
                }
                if b[2 * d + 1].is_finite() {
                    hi = hi.max(b[2 * d + 1]);
                }
            }
            let scale = per_axis as f64 / (hi - lo);
            if scale.is_finite() && scale > 0.0 {
                (grid.lo[d], grid.scale[d]) = (lo, scale);
            }
        }
        for (at, b) in members {
            grid.register(at, b);
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

    /// Adds the subscription whose interleaved bounds `b` start at offset
    /// `at` to every cell it overlaps, or to `wide` when those are too
    /// many.
    fn register(&mut self, at: u32, b: &[f64]) {
        self.members += 1;
        // Inactive axes get the one-cell range 0..=0 and a stride of 1.
        let mut range = [(0, 0); Grid::MAX_DIMS];
        let mut n = [1; Grid::MAX_DIMS];
        let mut count = 1;
        for d in 0..self.dims {
            range[d] = (self.coord(d, b[2 * d]), self.coord(d, b[2 * d + 1]));
            n[d] = self.per_axis();
            // Empty when a NaN bound inverts the range: matches nothing.
            count *= (range[d].1 + 1).saturating_sub(range[d].0);
        }
        if count > Grid::MAX_CELLS {
            self.wide.push(at);
            return;
        }
        for x in range[0].0..=range[0].1 {
            for y in range[1].0..=range[1].1 {
                for z in range[2].0..=range[2].1 {
                    for w in range[3].0..=range[3].1 {
                        self.cells[((x * n[1] + y) * n[2] + z) * n[3] + w].push(at);
                    }
                }
            }
        }
    }
}

impl Oracle {
    /// Registers a subscription.
    pub fn add(&mut self, scheme: SchemeId, subid: SubId, sub: impl Borrow<Subscription>) {
        let sub = sub.borrow();
        self.remove(subid);
        let i = u32::try_from(self.slots.len()).expect("oracle slot index exceeds u32");
        let at = u32::try_from(self.bounds.len()).expect("oracle bounds offset exceeds u32");
        for (&lo, &hi) in sub.rect.lo().iter().zip(sub.rect.hi()) {
            self.bounds.extend([lo, hi]);
        }
        let arity = (self.bounds.len() - at as usize) / 2;
        self.slots.push(Slot {
            id: subid,
            scheme,
            arity: arity as u32,
            at,
            live: true,
        });
        self.by_id.insert(subid, i);
        if let Some(grid) = self.grids.get_mut(&(scheme, arity)) {
            grid.register(at, &self.bounds[at as usize..]);
            if grid.members >= 2 * grid.built.max(1) {
                self.grids.remove(&(scheme, arity));
            }
        }
    }

    /// Removes a subscription (unsubscribe). Returns whether it existed.
    pub fn remove(&mut self, subid: SubId) -> bool {
        let Some(i) = self.by_id.remove(&subid) else {
            return false;
        };
        self.bury(i);
        true
    }

    /// Marks slot `i` dead and poisons its bounds, which is how the grid
    /// cells naming them learn of it: `inside` is false under any NaN.
    /// Once a quarter of the slots are dead, the live ones close ranks in
    /// registration order and the grids are dropped (their cells hold
    /// bounds offsets), to be rebuilt by the next query.
    fn bury(&mut self, i: u32) {
        let s = &mut self.slots[i as usize];
        s.live = false;
        self.bounds[s.at as usize..][..2 * s.arity as usize].fill(f64::NAN);
        if s.arity == 0 {
            // No bound to poison, and a point of no coordinates is inside
            // bounds of none: drop the grid, to be rebuilt without it.
            self.grids.remove(&(s.scheme, 0));
        }
        self.dead += 1;
        if self.dead * 4 <= self.slots.len() {
            return;
        }
        let old = std::mem::take(&mut self.bounds);
        self.slots.retain_mut(|s| {
            if s.live {
                let at = self.bounds.len() as u32;
                self.bounds
                    .extend_from_slice(&old[s.at as usize..][..2 * s.arity as usize]);
                s.at = at;
            }
            s.live
        });
        for (i, s) in self.slots.iter().enumerate() {
            self.by_id.insert(s.id, i as u32);
        }
        self.dead = 0;
        self.grids.clear();
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
            .filter(|s| s.live && s.scheme == scheme && s.arity as usize == arity)
            .filter(|s| inside(&self.bounds[s.at as usize..][..2 * arity], &point.0))
            .map(|s| s.id)
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
        let (slots, bounds) = (&self.slots, &self.bounds);
        let grid = self
            .grids
            .entry((scheme, arity))
            .or_insert_with(|| Grid::build(slots, bounds, scheme, arity));
        grid.cells[grid.cell(&point.0)]
            .iter()
            .chain(&grid.wide)
            .filter(|&&at| inside(&bounds[at as usize..][..2 * arity], &point.0))
            .count()
    }

    /// Whether live subscription `subid` matches `point` in `scheme`: the
    /// test [`Oracle::expected_count`] applies to each candidate. False
    /// for an id the oracle does not hold.
    pub(crate) fn covers(&self, subid: SubId, scheme: SchemeId, point: &Point) -> bool {
        self.by_id.get(&subid).is_some_and(|&i| {
            let s = &self.slots[i as usize];
            s.scheme == scheme
                && s.arity as usize == point.0.len()
                && inside(&self.bounds[s.at as usize..][..2 * point.0.len()], &point.0)
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

// Hand-written codec: the decoder derives state (slots, offsets and grids
// are rebuilt through `add`).
impl Encode for Oracle {
    fn encode(&self, w: &mut Writer) {
        // The live subscriptions in registration order, as they were
        // handed to `add`; slots, offsets and grids are derived.
        w.put_u64(self.len() as u64);
        for s in self.slots.iter().filter(|s| s.live) {
            w.put_u32(s.scheme);
            s.id.encode(w);
            let b = &self.bounds[s.at as usize..][..2 * s.arity as usize];
            let rect = hypersub_lph::Rect::unchecked(
                b.iter().step_by(2).copied().collect(),
                b.iter().skip(1).step_by(2).copied().collect(),
            );
            Subscription { rect }.encode(w);
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
            oracle.add(scheme, subid, Subscription::decode(r)?);
        }
        Ok(oracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersub_lph::{ContentSpace, Rect};
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
        #[test]
        fn prop_count_equals_scan_across_compactions(
            subs in prop::collection::vec(arb_sub(), 40..160),
            removes in prop::collection::vec(any::<u16>(), 30..120),
            coords in prop::collection::vec(0.0f64..=1.0, 5..6),
        ) {
            let id = |i: usize| SubId { nid: i as u64, iid: 1 };
            let mut o = Oracle::default();
            let mut alive: Vec<usize> = Vec::new();
            let mut compactions = 0;
            let mut removes = removes.into_iter();
            for (i, (scheme, sub)) in subs.iter().enumerate() {
                o.add(*scheme, id(i), sub.clone());
                alive.push(i);
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
        // Added after the grid exists: the incremental path, same cap.
        o.add(0, SubId { nid: 500, iid: 1 }, Subscription::new(whole));
        assert_eq!(o.expected_count(0, &p), o.expected_matches(0, &p).len());

        let grid = &o.grids[&(0, 4)];
        assert_eq!(grid.cells.len(), 8 * 8 * 8 * 8);
        assert_eq!(grid.wide.len(), 2, "the two domain-spanning ones");
        // Cells name bounds offsets; every slot here owns 2 × 4 bounds.
        let mut per_slot = vec![0usize; o.slots.len()];
        for cell in &grid.cells {
            for &at in cell {
                per_slot[at as usize / 8] += 1;
            }
        }
        assert_eq!((per_slot[0], per_slot[200]), (0, 0));
        assert!(per_slot.iter().all(|&n| n <= Grid::MAX_CELLS));
        assert!(per_slot[1..200].iter().all(|&n| n > 0));
    }

    /// One history through every state a candidate list can be in: grid
    /// built, entry removed under it, same id re-added, the ¼-dead
    /// compaction that moves every bounds offset, an add after it.
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
    /// snapshot may hold one) has no bound to poison.
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
