//! Algorithm 1 — the locality-preserving hash function.
//!
//! Given a subscription (hypercuboid) the function recursively subdivides
//! the content space until no single β-part of the current splitting
//! dimension completely covers the subscription's range on that dimension;
//! the zone reached at that point is "the smallest content zone which can
//! completely cover the range" (§3.2). Given an event (point) the
//! subdivision always succeeds, so events reach maximum-level (leaf) zones.

use crate::space::{ContentSpace, Point, Rect};
use crate::zone::{ZoneCode, ZoneParams};

/// Which β-part of `[lo, hi]` contains value `v`, using half-open cells
/// `[lo + p·w, lo + (p+1)·w)` with the final cell closed at `hi`.
fn part_of(lo: f64, hi: f64, base: u64, v: f64) -> u64 {
    debug_assert!(v >= lo && v <= hi, "value {v} outside [{lo}, {hi}]");
    let w = (hi - lo) / base as f64;
    let p = ((v - lo) / w) as u64;
    p.min(base - 1)
}

/// Maps an event point to its maximum-level content zone (Algorithm 1 for
/// points; the loop never breaks because a point always lies in exactly
/// one subrange).
///
/// # Panics
/// Panics if the point lies outside the space.
pub fn lph_point(params: &ZoneParams, space: &ContentSpace, point: &Point) -> ZoneCode {
    assert!(
        space.contains_point(point),
        "event point outside content space"
    );
    let d = space.dims();
    let mut rect = space.bounding_rect();
    let (lo, hi) = rect.bounds_mut();
    let mut zone = ZoneCode::ROOT;
    for i in 0..params.max_level() {
        let j = i as usize % d;
        let p = part_of(lo[j], hi[j], params.base(), point.0[j]);
        let w = (hi[j] - lo[j]) / params.base() as f64;
        lo[j] += w * p as f64;
        hi[j] = lo[j] + w;
        zone = zone.child(params, p);
    }
    zone
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
        space.bounding_rect().contains_rect(r),
        "subscription rect outside content space"
    );
    let d = space.dims();
    let mut rect = space.bounding_rect();
    let (lo, hi) = rect.bounds_mut();
    let mut zone = ZoneCode::ROOT;
    for i in 0..params.max_level() {
        let j = i as usize % d;
        let p_lo = part_of(lo[j], hi[j], params.base(), r.lo()[j]);
        let p_hi = part_of(lo[j], hi[j], params.base(), r.hi()[j]);
        if p_lo != p_hi {
            break; // straddles a cell boundary: this zone is the answer
        }
        let w = (hi[j] - lo[j]) / params.base() as f64;
        lo[j] += w * p_lo as f64;
        hi[j] = lo[j] + w;
        zone = zone.child(params, p_lo);
    }
    zone
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

    proptest! {
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
