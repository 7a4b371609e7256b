//! Deterministic flat-map storage: [`SortedVecMap`].
//!
//! The workspace's determinism contract bans `HashMap` iteration anywhere
//! that feeds the data tier, which historically meant `BTreeMap`
//! everywhere. A `BTreeMap` buys ordered iteration at the price of one
//! heap node per handful of entries and pointer-chasing on every lookup —
//! measurable once worlds carry a million users. [`SortedVecMap`] keeps
//! the same observable contract (key-ordered iteration, `get` by borrowed
//! key) in two flat `Vec`-backed arrays:
//!
//! * **append-friendly**: inserting keys in ascending order (how every
//!   crawl phase builds its maps — work lists are pre-sorted) is an
//!   amortized `O(1)` push;
//! * **lookup**: binary search, `O(log n)` with no pointer chasing;
//! * **iteration**: a slice walk in key order, byte-identical across
//!   worker counts and task counts for the same inserted pairs.
//!
//! Out-of-order inserts still work (`O(n)` memmove worst case); they are
//! the rare path by design.

use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::borrow::Borrow;
use std::fmt;

/// A map over sorted parallel vectors. See the module docs for the
/// contract; the API mirrors the `BTreeMap` subset the workspace uses.
#[derive(Clone, PartialEq, Eq)]
pub struct SortedVecMap<K, V> {
    /// Invariant: strictly ascending by key.
    entries: Vec<(K, V)>,
}

impl<K, V> Default for SortedVecMap<K, V> {
    fn default() -> Self {
        SortedVecMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord, V> SortedVecMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty map with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        SortedVecMap {
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn search<Q>(&self, key: &Q) -> std::result::Result<usize, usize>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.entries.binary_search_by(|(k, _)| k.borrow().cmp(key))
    }

    /// Insert, replacing (and returning) any previous value under `key`.
    /// Ascending-key inserts append in `O(1)` amortized.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        // Fast path: strictly larger than the current maximum.
        if self.entries.last().map(|(k, _)| *k < key).unwrap_or(true) {
            self.entries.push((key, value));
            return None;
        }
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// The value under `key`, by any borrowed form of it.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.search(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value under `key`.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match self.search(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// True when `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.search(key).is_ok()
    }

    /// The value under `key`, inserting `default()` first when absent
    /// (the `entry().or_insert_with()` idiom).
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let i = match self.search(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Remove and return the value under `key`.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match self.search(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for SortedVecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for SortedVecMap<K, V> {
    /// Collect-then-sort: `O(n log n)` regardless of input order. A
    /// per-element `insert` loop is `O(n²)` element moves on unsorted
    /// input — at a million random keys (the paper-scale username index)
    /// that is terabytes of memmove. Duplicate keys keep the *last*
    /// occurrence, matching `insert`'s replace semantics.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut entries: Vec<(K, V)> = iter.into_iter().collect();
        // Stable sort: equal keys stay in insertion order, so the last of
        // each equal-key run is the latest-inserted one.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|next, prev| {
            if next.0 == prev.0 {
                // Keep the later entry's value in the retained slot.
                std::mem::swap(prev, next);
                true
            } else {
                false
            }
        });
        SortedVecMap { entries }
    }
}

impl<K: Ord, V> Extend<(K, V)> for SortedVecMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K, V> IntoIterator for SortedVecMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a, K, V> IntoIterator for &'a SortedVecMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;
    fn into_iter(self) -> Self::IntoIter {
        Iter {
            inner: self.entries.iter(),
        }
    }
}

/// Borrowing iterator over a [`SortedVecMap`], key order.
pub struct Iter<'a, K, V> {
    inner: std::slice::Iter<'a, (K, V)>,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);
    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|(k, v)| (k, v))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Serializes like the `BTreeMap` it replaced: a JSON map in key order,
/// keys written by the serde shim's map-key rules (strings stay
/// themselves, integers stringify, anything else is an error). Fields
/// whose keys have no string form use the crawler's `as_pairs` pair-list
/// codec instead.
impl<K: Serialize, V: Serialize> Serialize for SortedVecMap<K, V> {
    fn serialize(&self, s: &mut Serializer) -> Result<(), serde::Error> {
        s.collect_map(self)
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for SortedVecMap<K, V> {
    fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, serde::Error> {
        let mut m = SortedVecMap::new();
        d.read_map(|k, v| {
            m.insert(k, v);
        })?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_inserts_and_lookup() {
        let mut m = SortedVecMap::new();
        for i in 0..100u64 {
            assert_eq!(m.insert(i * 2, i), None);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&10), Some(&5));
        assert_eq!(m.get(&11), None);
        assert!(m.contains_key(&198));
        assert_eq!(m.insert(10, 999), Some(5));
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn out_of_order_inserts_stay_sorted() {
        let mut m = SortedVecMap::new();
        for k in [5, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            m.insert(k, k * 10);
        }
        let keys: Vec<i32> = m.keys().copied().collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
        let vals: Vec<i32> = m.values().copied().collect();
        assert_eq!(vals, (0..10).map(|k| k * 10).collect::<Vec<_>>());
    }

    #[test]
    fn borrowed_key_lookup() {
        let mut m: SortedVecMap<String, i32> = SortedVecMap::new();
        m.insert("b.example".to_string(), 1);
        m.insert("a.example".to_string(), 2);
        assert_eq!(m.get("a.example"), Some(&2));
        assert!(m.contains_key("b.example"));
        assert_eq!(m.remove("a.example"), Some(2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn get_or_insert_with_matches_entry_semantics() {
        let mut m: SortedVecMap<u32, Vec<u32>> = SortedVecMap::new();
        m.get_or_insert_with(3, Vec::new).push(30);
        m.get_or_insert_with(1, Vec::new).push(10);
        m.get_or_insert_with(3, Vec::new).push(31);
        assert_eq!(m.get(&3), Some(&vec![30, 31]));
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn serde_roundtrips_as_key_ordered_map() {
        let mut m: SortedVecMap<String, u32> = SortedVecMap::new();
        m.insert("b".into(), 2);
        m.insert("a".into(), 1);
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(json, r#"{"a":1,"b":2}"#);
        let back: SortedVecMap<String, u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        // And it reads what a BTreeMap would have written.
        let legacy: SortedVecMap<String, u32> = serde_json::from_str(r#"{"b":2,"a":1}"#).unwrap();
        assert_eq!(legacy, m);
    }

    #[test]
    fn integer_keys_stringify_and_read_back() {
        let mut m: SortedVecMap<i64, u8> = SortedVecMap::new();
        m.insert(7, 1);
        m.insert(-3, 2);
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(json, r#"{"-3":2,"7":1}"#);
        let back: SortedVecMap<i64, u8> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        assert!(serde_json::from_str::<SortedVecMap<i64, u8>>(r#"{"x":1}"#).is_err());
    }

    #[test]
    fn composite_map_keys_are_an_error_not_a_panic() {
        let mut m: SortedVecMap<(u32, u32), String> = SortedVecMap::new();
        m.insert((1, 2), "x".into());
        for written in [serde_json::to_string(&m), serde_json::to_string_pretty(&m)] {
            let err = written.unwrap_err();
            assert!(err.to_string().contains("map key"), "{err}");
        }
        let read = serde_json::from_str::<SortedVecMap<(u32, u32), String>>(r#"{"1":"x"}"#);
        assert!(read.unwrap_err().to_string().contains("map key"));
    }

    #[test]
    fn iteration_is_deterministic_for_same_pairs() {
        let mut a = SortedVecMap::new();
        let mut b = SortedVecMap::new();
        for k in [4u8, 2, 9] {
            a.insert(k, ());
        }
        for k in [9u8, 4, 2] {
            b.insert(k, ());
        }
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
    }
}
