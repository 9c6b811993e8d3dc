//! Algorithm 1 — the locality-preserving hash function.
//!
//! Given a subscription (hypercuboid) the function recursively subdivides
//! the content space until no single β-part of the current splitting
//! dimension completely covers the subscription's range on that dimension;
//! the zone reached at that point is "the smallest content zone which can
//! completely cover the range" (§3.2). Given an event (point) the
//! subdivision always succeeds, so events reach maximum-level (leaf) zones.

use crate::space::{ContentSpace, Domain, Point, Rect};
use crate::zone::{ZoneCode, ZoneParams};

/// Which β-part of `[lo, hi]` contains value `v`, using half-open cells
/// `[lo + p·w, lo + (p+1)·w)` with the final cell closed at `hi`. A cell's
/// bounds are sums of rounded widths, so a value inside its domain can
/// sit an ulp outside the cell it descended into (the top of a domain
/// whose width is no power of two does); it falls in the nearest part.
fn part_of(lo: f64, hi: f64, base: u64, v: f64) -> u64 {
    let w = (hi - lo) / base as f64;
    let p = ((v - lo) / w) as u64;
    p.min(base - 1)
}

/// Algorithm 1's descent, one dimension at a time. Division `i` splits
/// dimension `i mod d`, so a dimension's cell narrows at its own
/// divisions only: walking the dimensions one after another does, per
/// dimension, the float operations of the interleaved descent in the
/// same order, and needs no scratch rect. `part(j, lo, hi)` picks the
/// part of dimension `j`'s current cell `[lo, hi]`, or `None` to stop the
/// descent at that division. Returns the zone of every division before
/// the first stop.
fn descend(
    params: &ZoneParams,
    space: &ContentSpace,
    mut part: impl FnMut(usize, f64, f64) -> Option<u64>,
) -> ZoneCode {
    let (d, base, bits) = (space.dims(), params.base(), params.base_bits as u32);
    let max = params.max_level() as usize;
    let mut stop = max;
    // Division `i`'s digit sits where a `max`-level code holds it.
    let mut code = 0u64;
    for j in 0..d {
        let Domain { mut lo, mut hi } = space.domain(j);
        for i in (j..stop).step_by(d) {
            let Some(p) = part(j, lo, hi) else {
                stop = i;
                break;
            };
            let w = (hi - lo) / base as f64;
            lo += w * p as f64;
            hi = lo + w;
            code |= p << ((max - 1 - i) as u32 * bits);
        }
    }
    ZoneCode {
        code: code >> ((max - stop) as u32 * bits),
        level: stop as u8,
    }
}

/// Maps an event point to its maximum-level content zone (Algorithm 1 for
/// points; the descent never stops early because a point always lies in
/// exactly one subrange).
///
/// # Panics
/// Panics if the point lies outside the space.
pub fn lph_point(params: &ZoneParams, space: &ContentSpace, point: &Point) -> ZoneCode {
    assert!(
        space.contains_point(point),
        "event point outside content space"
    );
    descend(params, space, |j, lo, hi| {
        Some(part_of(lo, hi, params.base(), point.0[j]))
    })
}

/// Maps a subscription hypercuboid to the smallest zone completely
/// covering it (Algorithm 1). The subdivision on dimension `j` keeps part
/// `p` only when `[r.lo()[j], r.hi()[j]]` falls entirely inside that part;
/// a range touching an internal cell boundary from below straddles (its
/// upper endpoint belongs to the next half-open cell) and stops the
/// descent, mirroring the closed-interval semantics of matching.
///
/// # Panics
/// Panics if the rect is not fully inside the space.
pub fn lph_rect(params: &ZoneParams, space: &ContentSpace, r: &Rect) -> ZoneCode {
    assert!(
        space.contains_rect(r),
        "subscription rect outside content space"
    );
    descend(params, space, |j, lo, hi| {
        let p_lo = part_of(lo, hi, params.base(), r.lo()[j]);
        let p_hi = part_of(lo, hi, params.base(), r.hi()[j]);
        // Straddling a cell boundary: the zone so far is the answer.
        (p_lo == p_hi).then_some(p_lo)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn space2() -> ContentSpace {
        ContentSpace::uniform(2, 0.0, 16.0)
    }

    #[test]
    fn point_reaches_max_level() {
        let params = ZoneParams::base2_level20();
        let z = lph_point(&params, &space2(), &Point(vec![3.7, 12.1]));
        assert_eq!(z.level, 20);
        assert!(z
            .extent(&params, &space2())
            .contains_point(&Point(vec![3.7, 12.1])));
    }

    #[test]
    fn point_at_domain_top_is_in_last_cell() {
        let params = ZoneParams::base4_level10();
        let z = lph_point(&params, &space2(), &Point(vec![16.0, 16.0]));
        assert_eq!(z.level, 10);
        let e = z.extent(&params, &space2());
        assert_eq!(e.hi(), [16.0, 16.0]);
    }

    /// The top of a domain whose width is no power of two sits an ulp
    /// above its last cell after two halvings (that cell's bound is a sum
    /// of rounded widths); it still falls in the last cell.
    #[test]
    fn point_at_the_top_of_an_uneven_domain_is_in_the_last_cell() {
        let params = ZoneParams::new(1, 5);
        let top = 3921.956327710416;
        let space = ContentSpace::new(vec![
            Domain::new(0.0, 1.0),
            Domain::new(451.5335634028377, top),
        ]);
        let z = lph_point(&params, &space, &Point(vec![0.0, top]));
        assert_eq!(z.level, 5);
        // Divisions 1 and 3 split dimension 1: both keep the upper half.
        assert_eq!((z.digit(&params, 1), z.digit(&params, 3)), (1, 1));
        assert_eq!(
            z,
            lph_rect(&params, &space, &Rect::new(vec![0.0, top], vec![0.0, top]))
        );
    }

    #[test]
    fn rect_zone_covers_rect() {
        let params = ZoneParams::base2_level20();
        let r = Rect::new(vec![1.0, 9.0], vec![2.5, 10.0]);
        let z = lph_rect(&params, &space2(), &r);
        assert!(z.extent(&params, &space2()).contains_rect(&r));
    }

    #[test]
    fn straddling_rect_stays_at_root() {
        let params = ZoneParams::base2_level20();
        // Straddles the first split (x = 8).
        let r = Rect::new(vec![7.9, 0.0], vec![8.1, 1.0]);
        let z = lph_rect(&params, &space2(), &r);
        assert_eq!(z, ZoneCode::ROOT);
    }

    #[test]
    fn tight_rect_descends_deep() {
        let params = ZoneParams::base2_level20();
        let r = Rect::new(vec![0.001, 0.001], vec![0.002, 0.002]);
        let z = lph_rect(&params, &space2(), &r);
        assert!(z.level >= 10, "tiny rect should map deep, got {}", z.level);
    }

    #[test]
    fn full_domain_rect_maps_to_root() {
        let params = ZoneParams::base4_level10();
        let r = space2().bounding_rect();
        assert_eq!(lph_rect(&params, &space2(), &r), ZoneCode::ROOT);
    }

    #[test]
    fn boundary_touching_rect_stops_at_straddle() {
        let params = ZoneParams::base2_level20();
        // Upper endpoint exactly on the first split boundary: the value 8.0
        // belongs to the upper half-open cell, so the rect straddles.
        let r = Rect::new(vec![7.0, 0.0], vec![8.0, 1.0]);
        assert_eq!(lph_rect(&params, &space2(), &r), ZoneCode::ROOT);
    }

    #[test]
    fn zone_of_point_is_descendant_of_zone_of_covering_rect() {
        let params = ZoneParams::base2_level20();
        let space = space2();
        let r = Rect::new(vec![2.0, 2.0], vec![3.0, 3.0]);
        let zr = lph_rect(&params, &space, &r);
        let zp = lph_point(&params, &space, &Point(vec![2.5, 2.5]));
        assert!(zr.is_ancestor_of(&params, &zp));
    }

    /// Algorithm 1 as the interleaved descent over a scratch rect: the
    /// reference the per-dimension walk is held to. `lo == hi` is a point.
    fn interleaved(
        params: &ZoneParams,
        space: &ContentSpace,
        lo_v: &[f64],
        hi_v: &[f64],
    ) -> ZoneCode {
        let d = space.dims();
        let mut rect = space.bounding_rect();
        let (lo, hi) = rect.bounds_mut();
        let mut zone = ZoneCode::ROOT;
        for i in 0..params.max_level() {
            let j = i as usize % d;
            let p_lo = part_of(lo[j], hi[j], params.base(), lo_v[j]);
            let p_hi = part_of(lo[j], hi[j], params.base(), hi_v[j]);
            if p_lo != p_hi {
                break;
            }
            let w = (hi[j] - lo[j]) / params.base() as f64;
            lo[j] += w * p_lo as f64;
            hi[j] = lo[j] + w;
            zone = zone.child(params, p_lo);
        }
        zone
    }

    proptest! {
        /// Zone codes are bit-identical to the interleaved descent's, over
        /// arities 1–6, bases 2–8, 1–20 levels and uneven domains. A value
        /// is a fraction of its domain, or (`snap`) one of the 17 sixteenths,
        /// which sit on cell boundaries of the first levels.
        #[test]
        fn prop_dimension_walk_matches_interleaved_descent(
            dims in prop::collection::vec(
                (-1000.0f64..1000.0, 0.001f64..5000.0, (0.0f64..=1.0, 0.0f64..=1.0), (0u32..=16, 0u32..=16), 0u8..4),
                1..7,
            ),
            base_bits in 1u8..=3,
            levels in 1u8..=20,
        ) {
            let params = ZoneParams::new(base_bits, base_bits * levels);
            let space = ContentSpace::new(dims.iter().map(|d| Domain::new(d.0, d.0 + d.1)).collect());
            let at = |j: usize, f: f64, k: u32, snap: bool| {
                let dom = space.domain(j);
                let f = if snap { k as f64 / 16.0 } else { f };
                (dom.lo + f * dom.width()).min(dom.hi)
            };
            let (mut lo, mut hi) = (Vec::new(), Vec::new());
            for (j, &(_, _, (fa, fb), (ka, kb), snap)) in dims.iter().enumerate() {
                let a = at(j, fa, ka, snap & 1 != 0);
                let b = at(j, fb, kb, snap & 2 != 0);
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            let rect = Rect::new(lo.clone(), hi.clone());
            prop_assert_eq!(lph_rect(&params, &space, &rect), interleaved(&params, &space, &lo, &hi));
            for v in [&lo, &hi] {
                let point = Point(v.clone());
                prop_assert_eq!(lph_point(&params, &space, &point), interleaved(&params, &space, v, v));
            }
        }

        #[test]
        fn prop_point_zone_contains_point(
            x in 0.0f64..=16.0,
            y in 0.0f64..=16.0,
            base_bits in 1u8..=2,
        ) {
            let params = ZoneParams::new(base_bits, 20);
            let space = space2();
            let p = Point(vec![x, y]);
            let z = lph_point(&params, &space, &p);
            prop_assert_eq!(z.level, params.max_level());
            prop_assert!(z.extent(&params, &space).contains_point(&p));
        }

        #[test]
        fn prop_rect_zone_covers_rect(
            x0 in 0.0f64..16.0,
            y0 in 0.0f64..16.0,
            wx in 0.0f64..4.0,
            wy in 0.0f64..4.0,
            base_bits in 1u8..=2,
        ) {
            let params = ZoneParams::new(base_bits, 20);
            let space = space2();
            let r = Rect::new(
                vec![x0, y0],
                vec![(x0 + wx).min(16.0), (y0 + wy).min(16.0)],
            );
            let z = lph_rect(&params, &space, &r);
            prop_assert!(z.extent(&params, &space).contains_rect(&r));
        }

        #[test]
        fn prop_rect_zone_is_smallest(
            x0 in 0.0f64..16.0,
            y0 in 0.0f64..16.0,
            wx in 0.0f64..4.0,
            wy in 0.0f64..4.0,
        ) {
            let params = ZoneParams::base2_level20();
            let space = space2();
            let r = Rect::new(
                vec![x0, y0],
                vec![(x0 + wx).min(16.0), (y0 + wy).min(16.0)],
            );
            let z = lph_rect(&params, &space, &r);
            // No child of z covers r (otherwise z wouldn't be smallest).
            for c in z.children(&params) {
                prop_assert!(!c.extent(&params, &space).contains_rect(&r));
            }
        }

        #[test]
        fn prop_events_in_rect_map_under_rect_zone(
            x0 in 0.0f64..15.0,
            y0 in 0.0f64..15.0,
            px in 0.0f64..=1.0,
            py in 0.0f64..=1.0,
        ) {
            let params = ZoneParams::base2_level20();
            let space = space2();
            let r = Rect::new(vec![x0, y0], vec![x0 + 1.0, y0 + 1.0]);
            let z = lph_rect(&params, &space, &r);
            let point = Point(vec![x0 + px, y0 + py]);
            let zp = lph_point(&params, &space, &point);
            // Locality: any event inside the subscription's rect maps to a
            // zone under the subscription's zone.
            prop_assert!(z.is_ancestor_of(&params, &zp));
        }
    }
}
