//! Zone mapping rotation (§4, "Zone Mapping Rotation").
//!
//! HyperSub supports many pub/sub schemes at once. Zones with identical
//! codes for different schemes would hash to identical keys and pile up on
//! the same nodes (the root zone of *every* scheme maps to key
//! `β^m − 1`!). Each scheme/subscheme is therefore given "a random
//! rotation offset φ", derived by hashing its name with a consistent hash
//! function, and zone `cz` maps to `successor(key(cz) + φ)` — arithmetic
//! modulo 2^64, i.e. `wrapping_add`.

/// Derives the rotation offset φ for a scheme/subscheme name.
///
/// FNV-1a over the name bytes, finalized with a 64-bit avalanche mix —
/// deterministic across runs and platforms, which stands in for the
/// paper's "consistent hash function, e.g. SHA".
pub fn rotation_offset(scheme_name: &str) -> u64 {
    let mut h = hypersub_snapshot::fnv1a(scheme_name.as_bytes());
    // splitmix64-style finalizer for avalanche.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// Applies a rotation offset to a zone key (modulo-2^64 addition).
pub fn rotate_key(key: u64, offset: u64) -> u64 {
    key.wrapping_add(offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(rotation_offset("stock"), rotation_offset("stock"));
    }

    #[test]
    fn different_names_differ() {
        let names = ["stock", "weather", "auction", "sensor", "s", ""];
        let offsets: Vec<u64> = names.iter().map(|n| rotation_offset(n)).collect();
        for i in 0..offsets.len() {
            for j in (i + 1)..offsets.len() {
                assert_ne!(offsets[i], offsets[j], "{} vs {}", names[i], names[j]);
            }
        }
    }

    #[test]
    fn rotation_is_modular() {
        assert_eq!(rotate_key(u64::MAX, 1), 0);
        assert_eq!(rotate_key(5, 10), 15);
    }

    #[test]
    fn rotation_spreads_identical_keys() {
        // Root zones of different schemes (all key u64::MAX) must spread.
        let k1 = rotate_key(u64::MAX, rotation_offset("scheme-a"));
        let k2 = rotate_key(u64::MAX, rotation_offset("scheme-b"));
        assert_ne!(k1, k2);
    }
}
