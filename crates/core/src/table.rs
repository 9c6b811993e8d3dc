//! [`SortedTable`]: a map held as one exact-size slice sorted by key.

use hypersub_snapshot::{Decode, Encode, Error, Reader, Writer};
use std::ops::Index;

/// A map from `K` to `V` held as a boxed slice of pairs sorted by key,
/// exactly as long as the pairs: one pointer and a length in its owner,
/// and no slot of spare room. Lookups are a binary search; an insert of
/// a new key or a remove rebuilds the slice at one pair more or fewer.
///
/// For the tables a node holds a handful of and reads far more often
/// than it writes: its zone repositories, its internal ids, a
/// repository's pushed children. A hash table holds up to twice the
/// slots it fills, its control bytes besides, and its 32 B header in
/// each owner even when empty.
///
/// Iteration is in key order, so what a caller does per entry never
/// depends on hashing. The snapshot bytes are a map's: the count, then
/// the pairs in key order.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedTable<K, V>(Box<[(K, V)]>);

impl<K, V> Default for SortedTable<K, V> {
    fn default() -> Self {
        Self(Box::default())
    }
}

impl<K: Ord, V> SortedTable<K, V> {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn find(&self, key: &K) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let at = self.find(key).ok()?;
        Some(&self.0[at].1)
    }

    /// The value stored under `key`, for writing.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let at = self.find(key).ok()?;
        Some(&mut self.0[at].1)
    }

    /// Whether a value is stored under `key`.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Rebuilds the slice one pair longer, with `(key, value)` at `at`.
    fn insert_at(&mut self, at: usize, key: K, value: V) {
        let mut pairs = std::mem::take(&mut self.0).into_vec();
        pairs.reserve_exact(1);
        pairs.insert(at, (key, value));
        self.0 = pairs.into_boxed_slice();
    }

    /// Stores `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.0[at].1, value)),
            Err(at) => {
                self.insert_at(at, key, value);
                None
            }
        }
    }

    /// The value stored under `key`, storing `make()` there first if
    /// there is none: one search either way.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let at = match self.find(&key) {
            Ok(at) => at,
            Err(at) => {
                self.insert_at(at, key, make());
                at
            }
        };
        &mut self.0[at].1
    }

    /// Removes and returns the value stored under `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let at = self.find(key).ok()?;
        let mut pairs = std::mem::take(&mut self.0).into_vec();
        let (_, value) = pairs.remove(at);
        self.0 = pairs.into_boxed_slice();
        Some(value)
    }

    /// Keeps only the pairs `keep` accepts, in one rebuild.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        let mut pairs = std::mem::take(&mut self.0).into_vec();
        pairs.retain(|(k, v)| keep(k, v));
        self.0 = pairs.into_boxed_slice();
    }

    /// Removes every pair and gives back the allocation.
    pub fn clear(&mut self) {
        self.0 = Box::default();
    }

    /// Every pair, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.0.iter().map(|(k, v)| (k, v))
    }

    /// Every key, in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.0.iter().map(|(k, _)| k)
    }

    /// Every value, in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.0.iter().map(|(_, v)| v)
    }

    /// Every value, in key order, for writing.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.0.iter_mut().map(|(_, v)| v)
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a SortedTable<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (&'a K, &'a V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|(k, v)| (k, v))
    }
}

impl<K: Ord, V> Index<&K> for SortedTable<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no value stored under this key")
    }
}

impl<K: Encode, V: Encode> Encode for SortedTable<K, V> {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
}

/// Reads a map's bytes: pairs in any order, none repeating a key. Grown
/// pair by pair, so a hostile count allocates nothing.
impl<K: Decode + Ord, V: Decode> Decode for SortedTable<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = usize::decode(r)?;
        let mut pairs = Vec::new();
        for _ in 0..n {
            pairs.push((K::decode(r)?, V::decode(r)?));
        }
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        if pairs.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(Error::InvalidValue("duplicate map key"));
        }
        Ok(Self(pairs.into_boxed_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersub_simnet::FxHashMap;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
        let mut w = Writer::new();
        value.encode(&mut w);
        w.into_vec()
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u8, u32),
        GetOrInsert(u8, u32),
        Remove(u8),
        Retain(u8),
        Clear,
    }

    /// Inserts six times in fourteen, gets or inserts twice, removes
    /// four times, retains and clears once each.
    fn arb_op() -> impl Strategy<Value = Op> {
        (0u8..14, any::<u8>(), any::<u32>()).prop_map(|(op, k, v)| match op {
            0..6 => Op::Insert(k, v),
            6..8 => Op::GetOrInsert(k, v),
            8..12 => Op::Remove(k),
            12 => Op::Retain(k),
            _ => Op::Clear,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random insert/get-or-insert/remove/retain/clear histories (a
        /// value got is then written through): every answer is a
        /// `BTreeMap`'s, iteration is its key order, the slice is never
        /// longer than the pairs, and the bytes are those a hash map of
        /// the same pairs writes and decode back to the same table.
        #[test]
        fn prop_table_behaves_as_a_btree_map(ops in prop::collection::vec(arb_op(), 1..200)) {
            let mut table: SortedTable<u8, u32> = SortedTable::default();
            let mut reference: BTreeMap<u8, u32> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => prop_assert_eq!(table.insert(k, v), reference.insert(k, v)),
                    Op::GetOrInsert(k, v) => {
                        let got = table.get_or_insert_with(k, || v);
                        let want = reference.entry(k).or_insert(v);
                        prop_assert_eq!(*got, *want);
                        *got ^= 1;
                        *want ^= 1;
                    }
                    Op::Remove(k) => prop_assert_eq!(table.remove(&k), reference.remove(&k)),
                    Op::Retain(m) => {
                        let keep = |k: &u8, v: &u32| u32::from(*k).wrapping_add(*v) % u32::from(m.max(2)) != 0;
                        table.retain(keep);
                        reference.retain(|k, v| keep(k, v));
                    }
                    Op::Clear => {
                        table.clear();
                        reference.clear();
                    }
                }
                prop_assert_eq!(table.len(), reference.len());
                for k in [0u8, 1, 17, 128, 255] {
                    prop_assert_eq!(table.get(&k), reference.get(&k));
                    prop_assert_eq!(table.contains_key(&k), reference.contains_key(&k));
                }
                prop_assert!(table.iter().eq(reference.iter()));
            }
            let hashed: FxHashMap<u8, u32> = reference.iter().map(|(&k, &v)| (k, v)).collect();
            let written = bytes(&table);
            prop_assert_eq!(&written, &bytes(&hashed));
            let back = SortedTable::<u8, u32>::decode(&mut Reader::new(&written)).unwrap();
            prop_assert_eq!(back, table);
        }
    }

    /// Pairs in any order decode to the sorted table; a key stated twice
    /// is refused as a map's decoder refuses it, and a count far past the
    /// bytes is an error, not an allocation.
    #[test]
    fn decoder_sorts_and_refuses_a_repeated_key() {
        let encoded = |pairs: &[(u32, u8)]| {
            let mut w = Writer::new();
            pairs.encode(&mut w);
            w.into_vec()
        };
        let decode = |b: &[u8]| SortedTable::<u32, u8>::decode(&mut Reader::new(b));
        let table = decode(&encoded(&[(9, 1), (2, 2), (5, 3)])).unwrap();
        assert!(table.iter().eq([(&2, &2), (&5, &3), (&9, &1)]));
        let duplicate = Err(Error::InvalidValue("duplicate map key"));
        assert_eq!(decode(&encoded(&[(2, 1), (5, 3), (2, 2)])), duplicate);
        let mut map: FxHashMap<u32, u8> = FxHashMap::default();
        map.insert(2, 1);
        let mut refused = Vec::new();
        refused.extend_from_slice(&2u64.to_le_bytes());
        refused.extend_from_slice(&bytes(&map)[8..]);
        refused.extend_from_slice(&bytes(&map)[8..]);
        assert_eq!(
            FxHashMap::<u32, u8>::decode(&mut Reader::new(&refused)),
            Err(Error::InvalidValue("duplicate map key")),
            "the map decoder refuses the same bytes"
        );
        assert_eq!(decode(&refused), duplicate);
        let mut hostile = (1u64 << 60).to_le_bytes().to_vec();
        hostile.extend_from_slice(&encoded(&[(1, 1)])[8..]);
        assert!(decode(&hostile).is_err());
    }
}
