//! Deterministic open-addressing hash index with first-occurrence iteration
//! order.
//!
//! [`StableMap`] restores the O(1) lookups the engine gave up when PR 4
//! swapped `HashMap` for `BTreeMap` to satisfy the determinism contract.
//! It is deterministic by *construction*, not by sortedness:
//!
//! - the hash function is fixed-seed: bytes absorb by FNV-1a, a `u64`
//!   word by one folded 128-bit multiply, and a SplitMix64-style
//!   finalizer scrambles the state — no per-process `RandomState`, so
//!   probe sequences are identical across runs, platforms, and thread
//!   counts;
//! - iteration walks the insertion-ordered entry vector, never the slot
//!   table, so iteration order is the first-occurrence order of the keys
//!   and cannot depend on hash values at all.
//!
//! The slot table holds `u32` indices into the entry vector (linear
//! probing, power-of-two capacity, ≤ 7/8 load). There is no `remove`:
//! every engine use is insert-or-lookup (group keys, dictionary interning,
//! factorize books, FM memo keys), and omitting tombstones keeps probing
//! trivially deterministic.
//!
//! sfcheck's `hash-collections` lint blesses this type by name: it is the
//! sanctioned hash container in every crate.

use std::borrow::Borrow;

/// Sentinel for an empty slot in the probe table.
const EMPTY: u32 = u32::MAX;

/// Fixed FNV-1a offset basis, XOR-folded with the engine's own seed so the
/// probe layout is this crate's, not literally FNV's.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325 ^ 0x5EED_1DE3_2024_0006;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Odd multiplier of the folded word absorption.
const FOLD_MUL: u64 = 0xa076_1d64_78bd_642f;

/// Streaming fixed-seed hasher fed by [`StableHash`] implementations.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Feed raw bytes (FNV-1a absorption).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feed a u64 in one step: a 64×64→128-bit multiply whose halves
    /// fold together by XOR. Unlike a plain xor-multiply, a flip of the
    /// word's top bit also reaches the low half through the high one.
    pub fn write_u64(&mut self, v: u64) {
        let m = u128::from(self.state ^ v) * u128::from(FOLD_MUL);
        self.state = (m as u64) ^ ((m >> 64) as u64);
    }

    /// SplitMix64-style finalizer: scrambles the state so low-entropy
    /// keys still spread across power-of-two tables.
    fn finish(&self) -> u64 {
        let mut z = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Keys hashable with a fixed seed. Implementations must feed the same
/// bytes for values that compare equal (the `Borrow` contract: `String`
/// and `str` must agree).
pub trait StableHash {
    fn stable_hash(&self, h: &mut StableHasher);
}

impl StableHash for str {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_bytes(self.as_bytes());
        // Length-prefix-free terminator so ("a","b") ≠ ("ab","") in tuples.
        h.write_bytes(&[0xFF]);
    }
}

impl StableHash for String {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_str().stable_hash(h);
    }
}

impl StableHash for i64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(*self as u64);
    }
}

impl StableHash for u64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(*self);
    }
}

impl StableHash for u32 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(*self as u64);
    }
}

impl StableHash for usize {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(*self as u64);
    }
}

impl StableHash for bool {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_bytes(&[*self as u8]);
    }
}

impl<T: StableHash> StableHash for [T] {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.len() as u64);
        for item in self {
            item.stable_hash(h);
        }
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_slice().stable_hash(h);
    }
}

impl<A: StableHash, B: StableHash> StableHash for (A, B) {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
        self.1.stable_hash(h);
    }
}

fn hash_of<Q: StableHash + ?Sized>(key: &Q) -> u64 {
    let mut h = StableHasher::new();
    key.stable_hash(&mut h);
    h.finish()
}

/// An insertion-ordered hash map with fixed-seed hashing and no `remove`.
///
/// Lookup/insert are O(1) expected; iteration is first-occurrence order of
/// the keys, deterministic regardless of hash values.
#[derive(Debug, Clone)]
pub struct StableMap<K, V> {
    entries: Vec<(K, V)>,
    slots: Vec<u32>,
    mask: usize,
}

impl<K: StableHash + Eq, V> Default for StableMap<K, V> {
    fn default() -> Self {
        StableMap::new()
    }
}

impl<K: StableHash + Eq, V> StableMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        StableMap {
            entries: Vec::new(),
            slots: Vec::new(),
            mask: 0,
        }
    }

    /// An empty map sized for `n` insertions without rehashing.
    pub fn with_capacity(n: usize) -> Self {
        let mut m = StableMap::new();
        m.entries.reserve(n);
        m.grow_slots((n * 8 / 7 + 1).next_power_of_two().max(8));
        m
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn grow_slots(&mut self, capacity: usize) {
        debug_assert!(capacity.is_power_of_two());
        self.slots = vec![EMPTY; capacity];
        self.mask = capacity - 1;
        for (i, (k, _)) in self.entries.iter().enumerate() {
            let mut slot = (hash_of(k) as usize) & self.mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & self.mask;
            }
            self.slots[slot] = i as u32;
        }
    }

    /// Grow if one more insertion would push load above 7/8.
    fn reserve_one(&mut self) {
        if self.slots.is_empty() || (self.entries.len() + 1) * 8 > self.slots.len() * 7 {
            let want = ((self.entries.len() + 1) * 2).next_power_of_two().max(8);
            self.grow_slots(want);
        }
    }

    /// Find the slot holding `key`, or the empty slot where it would go.
    fn probe<Q>(&self, key: &Q) -> (usize, Option<usize>)
    where
        K: Borrow<Q>,
        Q: StableHash + Eq + ?Sized,
    {
        debug_assert!(!self.slots.is_empty());
        let mut slot = (hash_of(key) as usize) & self.mask;
        loop {
            match self.slots[slot] {
                EMPTY => return (slot, None),
                e => {
                    let i = e as usize;
                    if self.entries[i].0.borrow() == key {
                        return (slot, Some(i));
                    }
                    slot = (slot + 1) & self.mask;
                }
            }
        }
    }

    /// Insert or overwrite; returns the previous value if the key existed.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.reserve_one();
        let (slot, hit) = self.probe(&key);
        match hit {
            Some(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            None => {
                self.slots[slot] = self.entries.len() as u32;
                self.entries.push((key, value));
                None
            }
        }
    }

    /// Borrow the value for `key`, if present. Accepts borrowed key forms
    /// (`&str` against a `StableMap<String, _>`).
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: StableHash + Eq + ?Sized,
    {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(key).1.map(|i| &self.entries[i].1)
    }

    /// True if `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: StableHash + Eq + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Get the value for `key`, inserting `default()` first if absent.
    pub fn entry_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        self.reserve_one();
        let (slot, hit) = self.probe(&key);
        let i = match hit {
            Some(i) => i,
            None => {
                let i = self.entries.len();
                self.slots[slot] = i as u32;
                self.entries.push((key, default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Entries in first-occurrence (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Keys in first-occurrence order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in first-occurrence order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl<K: StableHash + Eq, V> FromIterator<(K, V)> for StableMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut m = StableMap::with_capacity(iter.size_hint().0);
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl<K: StableHash + Eq, V> IntoIterator for StableMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// An insertion-ordered hash set over [`StableMap`].
#[derive(Debug, Clone, Default)]
pub struct StableSet<K: StableHash + Eq> {
    map: StableMap<K, ()>,
}

impl<K: StableHash + Eq> StableSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        StableSet {
            map: StableMap::new(),
        }
    }

    /// Insert; returns true if the value was not already present.
    pub fn insert(&mut self, key: K) -> bool {
        self.map.insert(key, ()).is_none()
    }

    /// True if `key` is present.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: StableHash + Eq + ?Sized,
    {
        self.map.contains_key(key)
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Values in first-occurrence order.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_overwrite() {
        let mut m: StableMap<String, i64> = StableMap::new();
        assert_eq!(m.insert("a".into(), 1), None);
        assert_eq!(m.insert("b".into(), 2), None);
        assert_eq!(m.insert("a".into(), 3), Some(1));
        assert_eq!(m.get("a"), Some(&3));
        assert_eq!(m.get("b"), Some(&2));
        assert_eq!(m.get("c"), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn iteration_is_first_occurrence_order() {
        let mut m: StableMap<String, usize> = StableMap::new();
        for (i, k) in ["zebra", "apple", "mango", "apple", "zebra", "kiwi"]
            .iter()
            .enumerate()
        {
            m.entry_or_insert_with(k.to_string(), || i);
        }
        let keys: Vec<&str> = m.keys().map(String::as_str).collect();
        assert_eq!(keys, vec!["zebra", "apple", "mango", "kiwi"]);
        // entry_or_insert_with kept the first value.
        assert_eq!(m.get("zebra"), Some(&0));
    }

    #[test]
    fn survives_growth_with_many_keys() {
        let mut m: StableMap<i64, i64> = StableMap::new();
        for i in 0..10_000 {
            m.insert(i * 7, i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000 {
            assert_eq!(m.get(&(i * 7)), Some(&i), "key {}", i * 7);
        }
        let first: Vec<i64> = m.keys().take(3).copied().collect();
        assert_eq!(first, vec![0, 7, 14]);
    }

    #[test]
    fn borrowed_str_lookup_against_string_keys() {
        let mut m: StableMap<String, u32> = StableMap::new();
        m.insert("hello".to_string(), 5);
        assert!(m.contains_key("hello"));
        assert_eq!(m.get("hello"), Some(&5));
    }

    #[test]
    fn vec_keys_hash_structurally() {
        let mut m: StableMap<Vec<String>, u32> = StableMap::new();
        m.insert(vec!["a".into(), "b".into()], 1);
        m.insert(vec!["ab".into()], 2);
        assert_eq!(m.get(&vec!["a".to_string(), "b".to_string()]), Some(&1));
        assert_eq!(m.get(&vec!["ab".to_string()]), Some(&2));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn hashes_are_stable_across_calls() {
        // A fixed key must hash identically every time (fixed seed, no
        // per-process state) — this is the determinism contract.
        assert_eq!(hash_of("smartfeat"), hash_of("smartfeat"));
        assert_eq!(hash_of(&42i64), hash_of(&42i64));
        assert_ne!(hash_of("a"), hash_of("b"));
    }

    #[test]
    fn word_pairs_with_flipped_top_bits_hash_apart() {
        // (a, b) and (−a, −b) style keys differ only in both top bits; a
        // plain xor-multiply word step maps them to one hash.
        let mut rng = smartfeat_rng::Rng::seed_from_u64(7);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            let top = 1u64 << 63;
            assert!(seen.insert(hash_of(&(a, b))), "({a}, {b})");
            assert!(
                seen.insert(hash_of(&(a ^ top, b ^ top))),
                "({a}, {b}) flipped"
            );
        }
    }

    #[test]
    fn set_semantics() {
        let mut s: StableSet<String> = StableSet::new();
        assert!(s.insert("x".into()));
        assert!(!s.insert("x".into()));
        assert!(s.insert("y".into()));
        assert!(s.contains("x"));
        assert!(!s.contains("z"));
        let vals: Vec<&str> = s.iter().map(String::as_str).collect();
        assert_eq!(vals, vec!["x", "y"]);
    }

    #[test]
    fn from_iter_collects() {
        let m: StableMap<String, i64> = [("k1".to_string(), 1), ("k2".to_string(), 2)]
            .into_iter()
            .collect();
        assert_eq!(m.get("k1"), Some(&1));
        assert_eq!(m.len(), 2);
    }
}
