//! A fast, deterministic hasher for simulator-internal maps.
//!
//! The hot path chases `HashMap<LineAddr, …>` entries on every ring event.
//! `std`'s default SipHash-1-3 is DoS-resistant but costs tens of cycles
//! per lookup key — pure overhead here, because every key is
//! simulator-internal (line addresses, transaction ids), never attacker
//! supplied. This module inlines the multiply-rotate hash used by the
//! Rust compiler itself (`rustc_hash`/"FxHash"), so no external crate is
//! needed: one wrapping multiply per 8-byte word.
//!
//! Unlike `RandomState`, [`FxBuildHasher`] is stateless, so iteration
//! order of an `FxHashMap` is stable across runs for an identical insert
//! sequence — worth having even though the simulator never iterates maps
//! on a result-affecting path.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Heap bytes `map`'s table holds, estimated from its capacity the way
/// std's SwissTable lays a table out on x86-64: a power-of-two count of
/// buckets (capacity is 7/8 of them, or one fewer below 8), the entries,
/// one per bucket, rounded up to 16 bytes, then one control byte per
/// bucket plus one 16-byte group. An empty map allocates nothing.
/// Removals can leave tombstones, which lower the capacity std reports;
/// the estimate stays exact while they number under half the capacity.
pub fn map_heap_bytes<K, V, S>(map: &HashMap<K, V, S>) -> u64 {
    let capacity = map.capacity();
    if capacity == 0 {
        return 0;
    }
    let buckets = if capacity < 8 {
        capacity + 1
    } else {
        capacity * 8 / 7
    }
    .next_power_of_two();
    let entries = (buckets * size_of::<(K, V)>()).next_multiple_of(16);
    (entries + buckets + 16) as u64
}

/// The multiplier from the golden ratio (2^64 / φ), as used by rustc's
/// FxHash; spreads consecutive integers across the full 64-bit range.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A non-cryptographic multiply-rotate hasher (rustc's "FxHash").
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Stateless builder for [`FxHasher`] (alias of `BuildHasherDefault`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(&12345u64), hash_of(&12345u64));
        assert_eq!(hash_of(&"ring"), hash_of(&"ring"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Consecutive line addresses must not collide into the same slots.
        let hashes: HashSet<u64> = (0u64..10_000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(9);
        assert!(s.contains(&9));
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        // 9 bytes: one full word plus a 1-byte tail; the tail must matter.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }
}
