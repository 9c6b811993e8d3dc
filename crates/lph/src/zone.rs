//! Content-zone codes and the zone tree.
//!
//! Zones form a β-ary tree over the content space. A zone is identified by
//! `(code, level)`: `level` base-β digits, generated as in Figure 1 of the
//! paper — the digit appended at division `i` is the index `p` of the
//! subrange picked on the splitting dimension `i mod d`.

use crate::space::{ContentSpace, Rect};
use hypersub_snapshot::{codec, Decode, Encode, Error, Reader, Writer};

/// Identifier-space geometry: digit base and how much of the 64-bit key is
/// available for zone codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneParams {
    /// Bits per digit (`b`, so the base is β = 2^b).
    pub base_bits: u8,
    /// Total bits reserved for zone codes ("the first 20 bits" in §5.1).
    pub zone_bits: u8,
}

impl ZoneParams {
    /// Creates parameters; `zone_bits` must be a multiple of `base_bits`
    /// and fit in a 64-bit key.
    pub fn new(base_bits: u8, zone_bits: u8) -> Self {
        assert!((1..=16).contains(&base_bits), "base bits out of range");
        assert!(
            zone_bits >= base_bits && zone_bits <= 63,
            "zone bits out of range"
        );
        assert_eq!(
            zone_bits % base_bits,
            0,
            "zone bits must be a whole number of digits"
        );
        Self {
            base_bits,
            zone_bits,
        }
    }

    /// The paper's default: base 2 (b = 1), 20 zone bits → max level 20.
    pub fn base2_level20() -> Self {
        Self::new(1, 20)
    }

    /// The paper's alternative: base 4 (b = 2), 20 zone bits → max level 10.
    pub fn base4_level10() -> Self {
        Self::new(2, 20)
    }

    /// Digit base β.
    pub fn base(&self) -> u64 {
        1u64 << self.base_bits
    }

    /// Maximum zone level (digits available).
    pub fn max_level(&self) -> u8 {
        self.zone_bits / self.base_bits
    }
}

/// A content zone: `level` base-β digits packed into `code`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ZoneCode {
    /// Packed digits (most significant digit = first division).
    pub code: u64,
    /// Number of digits.
    pub level: u8,
}
codec!(struct ZoneCode { code, level });

impl ZoneCode {
    /// The root zone (whole content space).
    pub const ROOT: ZoneCode = ZoneCode { code: 0, level: 0 };

    /// The child obtained by appending digit `p`.
    pub fn child(&self, params: &ZoneParams, p: u64) -> ZoneCode {
        assert!(self.level < params.max_level(), "cannot split a leaf zone");
        assert!(p < params.base(), "digit {p} out of base range");
        ZoneCode {
            code: (self.code << params.base_bits) | p,
            level: self.level + 1,
        }
    }

    /// The parent zone (`None` for the root).
    pub fn parent(&self, params: &ZoneParams) -> Option<ZoneCode> {
        if self.level == 0 {
            None
        } else {
            Some(ZoneCode {
                code: self.code >> params.base_bits,
                level: self.level - 1,
            })
        }
    }

    /// All β children (empty for leaves).
    pub fn children(&self, params: &ZoneParams) -> Vec<ZoneCode> {
        if self.level >= params.max_level() {
            return Vec::new();
        }
        (0..params.base()).map(|p| self.child(params, p)).collect()
    }

    /// Digit at position `i` (0 = first division).
    pub fn digit(&self, params: &ZoneParams, i: u8) -> u64 {
        assert!(i < self.level, "digit index out of range");
        let shift = (self.level - 1 - i) as u32 * params.base_bits as u32;
        (self.code >> shift) & (params.base() - 1)
    }

    /// Is `self` an ancestor of (or equal to) `other`?
    pub fn is_ancestor_of(&self, params: &ZoneParams, other: &ZoneCode) -> bool {
        if self.level > other.level {
            return false;
        }
        let shift = (other.level - self.level) as u32 * params.base_bits as u32;
        (other.code >> shift) == self.code
    }

    /// The 64-bit Chord key: code padded on the right with (β−1)-digits,
    /// i.e. `key = (code + 1) · β^(m − level) − 1` from §3.2.
    pub fn key(&self, params: &ZoneParams) -> u64 {
        let used_bits = self.level as u32 * params.base_bits as u32;
        debug_assert!(used_bits <= 64);
        ((((self.code as u128) + 1) << (64 - used_bits)) - 1) as u64
    }

    /// The hypercuboid of content space this zone occupies. Division `i`
    /// splits dimension `i mod d` into β equal parts and keeps part
    /// `digit(i)`.
    pub fn extent(&self, params: &ZoneParams, space: &ContentSpace) -> Rect {
        let mut rect = space.bounding_rect();
        let (lo, hi) = rect.bounds_mut();
        self.narrow_from_root(params, lo, hi);
        rect
    }

    /// [`Self::extent`] written into `lo` and `hi` (one slot a dimension),
    /// allocating nothing.
    pub fn extent_into(
        &self,
        params: &ZoneParams,
        space: &ContentSpace,
        lo: &mut [f64],
        hi: &mut [f64],
    ) {
        for (j, (lo, hi)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
            let domain = space.domain(j);
            (*lo, *hi) = (domain.lo, domain.hi);
        }
        self.narrow_from_root(params, lo, hi);
    }

    /// Narrows the whole space's bounds to this zone, one division a digit.
    fn narrow_from_root(&self, params: &ZoneParams, lo: &mut [f64], hi: &mut [f64]) {
        for i in 0..self.level {
            narrow_extent(params, i, self.digit(params, i), lo, hi);
        }
    }
}

/// One division of the zone tree: narrows the extent `[lo, hi]` of a zone
/// at `level` to that of its child by digit `p`, in place. Division
/// `level` splits dimension `level mod d` into β equal parts and keeps
/// part `p`. [`ZoneCode::extent`] is this step folded from the root, so a
/// descent that narrows a parent's extent reads the child's bit for bit.
pub fn narrow_extent(params: &ZoneParams, level: u8, p: u64, lo: &mut [f64], hi: &mut [f64]) {
    let j = level as usize % lo.len();
    let width = (hi[j] - lo[j]) / params.base() as f64;
    let new_lo = lo[j] + width * p as f64;
    hi[j] = new_lo + width;
    lo[j] = new_lo;
}

// Hand-written codec: the decoder validates (the bounds `new` asserts).
impl Encode for ZoneParams {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.base_bits);
        w.put_u8(self.zone_bits);
    }
}

impl Decode for ZoneParams {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let base_bits = r.take_u8()?;
        let zone_bits = r.take_u8()?;
        if !(1..=16).contains(&base_bits)
            || zone_bits < base_bits
            || zone_bits > 63
            || zone_bits % base_bits != 0
        {
            return Err(Error::InvalidValue("zone params"));
        }
        Ok(ZoneParams {
            base_bits,
            zone_bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p2() -> ZoneParams {
        ZoneParams::base2_level20()
    }

    fn p4() -> ZoneParams {
        ZoneParams::base4_level10()
    }

    #[test]
    fn params_levels() {
        assert_eq!(p2().base(), 2);
        assert_eq!(p2().max_level(), 20);
        assert_eq!(p4().base(), 4);
        assert_eq!(p4().max_level(), 10);
    }

    #[test]
    fn child_parent_round_trip() {
        let params = p4();
        let z = ZoneCode::ROOT.child(&params, 3).child(&params, 1);
        assert_eq!(z.code, 0b11_01);
        assert_eq!(z.level, 2);
        assert_eq!(z.parent(&params).unwrap(), ZoneCode::ROOT.child(&params, 3));
        assert_eq!(
            z.parent(&params).unwrap().parent(&params).unwrap(),
            ZoneCode::ROOT
        );
        assert!(ZoneCode::ROOT.parent(&params).is_none());
    }

    #[test]
    fn digits() {
        let params = p4();
        let z = ZoneCode::ROOT
            .child(&params, 3)
            .child(&params, 0)
            .child(&params, 2);
        assert_eq!(z.digit(&params, 0), 3);
        assert_eq!(z.digit(&params, 1), 0);
        assert_eq!(z.digit(&params, 2), 2);
    }

    #[test]
    fn root_key_is_max() {
        assert_eq!(ZoneCode::ROOT.key(&p2()), u64::MAX);
        assert_eq!(ZoneCode::ROOT.key(&p4()), u64::MAX);
    }

    #[test]
    fn key_matches_paper_formula() {
        // Figure 1 example shape: base 2, zone "01" at level 2.
        let params = p2();
        let z = ZoneCode {
            code: 0b01,
            level: 2,
        };
        // key = (code+1) << (64-2) - 1 = 2 << 62 - 1 = 0x7FFF...
        assert_eq!(z.key(&params), (2u64 << 62).wrapping_sub(1));
    }

    #[test]
    fn child_keys_do_not_exceed_parent_key() {
        let params = p4();
        let parent = ZoneCode::ROOT.child(&params, 2);
        let pk = parent.key(&params);
        for c in parent.children(&params) {
            assert!(c.key(&params) <= pk, "child key beyond parent key");
        }
        // The last child shares the parent's key exactly (the all-(β−1)
        // padding collapse noted in §3.2's key construction).
        assert_eq!(
            parent.child(&params, 3).key(&params),
            pk,
            "last child must share the parent key"
        );
    }

    #[test]
    fn ancestor_check() {
        let params = p2();
        let a = ZoneCode::ROOT.child(&params, 1);
        let b = a.child(&params, 0).child(&params, 1);
        assert!(ZoneCode::ROOT.is_ancestor_of(&params, &b));
        assert!(a.is_ancestor_of(&params, &b));
        assert!(a.is_ancestor_of(&params, &a));
        assert!(!b.is_ancestor_of(&params, &a));
        let other = ZoneCode::ROOT.child(&params, 0);
        assert!(!other.is_ancestor_of(&params, &b));
    }

    #[test]
    fn extent_subdivides_round_robin() {
        let params = p2();
        let space = ContentSpace::uniform(2, 0.0, 8.0);
        // First division on dim 0, second on dim 1 (i mod d).
        let z = ZoneCode::ROOT.child(&params, 1).child(&params, 0);
        let e = z.extent(&params, &space);
        assert_eq!(e.lo(), [4.0, 0.0]);
        assert_eq!(e.hi(), [8.0, 4.0]);
    }

    #[test]
    fn extents_of_children_partition_parent() {
        let params = p4();
        let space = ContentSpace::uniform(3, 0.0, 100.0);
        let parent = ZoneCode::ROOT.child(&params, 1);
        let pe = parent.extent(&params, &space);
        let mut vol = 0.0;
        for c in parent.children(&params) {
            let ce = c.extent(&params, &space);
            assert!(pe.contains_rect(&ce));
            vol += ce.volume();
        }
        assert!((vol - pe.volume()).abs() < 1e-9 * pe.volume());
    }

    /// Narrowing a parent's extent by one digit reads the child's extent
    /// bit for bit, for every zone to level 10 in base 2 and to level 5
    /// in base 4, over Table 1's space.
    #[test]
    fn one_digit_step_equals_extent_bit_for_bit() {
        // Table 1: four attributes over [0, 10 000].
        let space = ContentSpace::uniform(4, 0.0, 10_000.0);
        let bits = |r: &Rect| {
            r.lo()
                .iter()
                .chain(r.hi())
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        for (params, depth) in [(ZoneParams::new(1, 20), 10u8), (ZoneParams::new(2, 20), 5)] {
            let mut level = vec![(ZoneCode::ROOT, space.bounding_rect())];
            let mut zones = 1;
            for _ in 0..depth {
                let mut next = Vec::new();
                for (z, ext) in &level {
                    for p in 0..params.base() {
                        let child = z.child(&params, p);
                        let mut narrowed = ext.clone();
                        let (lo, hi) = narrowed.bounds_mut();
                        narrow_extent(&params, z.level, p, lo, hi);
                        let extent = child.extent(&params, &space);
                        assert_eq!(bits(&narrowed), bits(&extent), "{child:?}");
                        let (mut lo, mut hi) = (vec![f64::NAN; 4], vec![f64::NAN; 4]);
                        child.extent_into(&params, &space, &mut lo, &mut hi);
                        assert_eq!(bits(&Rect::unchecked(lo, hi)), bits(&extent), "{child:?}");
                        next.push((child, narrowed));
                    }
                }
                zones += next.len();
                level = next;
            }
            let beta = params.base() as usize;
            assert_eq!(zones, (beta.pow(depth as u32 + 1) - 1) / (beta - 1));
        }
    }

    #[test]
    fn leaf_has_no_children() {
        let params = ZoneParams::new(1, 2);
        let leaf = ZoneCode::ROOT.child(&params, 0).child(&params, 1);
        assert!(leaf.children(&params).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot split a leaf")]
    fn splitting_leaf_panics() {
        let params = ZoneParams::new(1, 1);
        let leaf = ZoneCode::ROOT.child(&params, 0);
        let _ = leaf.child(&params, 0);
    }

    #[test]
    #[should_panic(expected = "whole number of digits")]
    fn misaligned_zone_bits_panics() {
        ZoneParams::new(3, 20);
    }
}
