//! A fixed word hasher for maps keyed by program-assigned ids.
//!
//! Every hot map of the engine is keyed by values the program numbers
//! itself: interned [`Symbol`](crate::Symbol)s, [`NullGen`](crate::NullGen)
//! nulls, row and atom indices, and rows or atoms built from them. None
//! of those keys comes from outside, so the collision resistance of the
//! standard library's SipHash buys nothing, while its per-key cost is
//! paid on every membership test and index probe of the chase, the egd
//! scan, the core and the query reads.
//!
//! [`IdHasher`] mixes one machine word at a time in the style of rustc's
//! `FxHasher`: rotate the state, xor the word in, multiply by an odd
//! constant. A multiply carries entropy upwards only, so the high bits
//! are well mixed and the low bits are not; `finish` rotates once so the
//! well-mixed bits land both in the low bits (hashbrown's bucket index)
//! and in the top seven (its control-byte tag).
//!
//! The hasher has no seed, so a key hashes to the same `u64` in every
//! process and a map iterates in the same order everywhere. No code relies
//! on that order; output that must be ordered still sorts.
//!
//! The one map that keeps SipHash is the symbol interner's string table,
//! whose keys are raw text from outside the program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiplier (rustc's `FxHasher` constant, `2^64 / π` rounded
/// to odd).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// How far `finish` rotates the state: moves the best-mixed high bits
/// into the low bits hashbrown indexes by.
const FINISH_ROTATE: u32 = 26;

/// The word hasher; see the [module docs](self).
#[derive(Clone, Copy, Default)]
pub struct IdHasher {
    state: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(FINISH_ROTATE)
    }
}

/// The `BuildHasher` of [`IdMap`] and [`IdSet`].
pub type BuildIdHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` under [`IdHasher`]. Build one with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildIdHasher>;

/// A `HashSet` under [`IdHasher`]. Build one with `IdSet::default()`.
pub type IdSet<T> = HashSet<T, BuildIdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;
    use crate::value::{NullId, Value};
    use std::hash::{BuildHasher, Hash};

    const KEYS: u32 = 1 << 16;

    fn hash_of<T: Hash>(key: &T) -> u64 {
        BuildIdHasher::default().hash_one(key)
    }

    fn constant(i: u32) -> Value {
        Value::Const(Symbol::from_id(i))
    }

    fn null(i: u32) -> Value {
        Value::Null(NullId(i))
    }

    /// The key families the engine's maps see most: sequential constant
    /// ids, sequential null ids, two-column rows of both, and ids whose
    /// low 16 bits are all zero.
    fn families() -> Vec<(&'static str, Vec<u64>)> {
        let ids = 0..KEYS;
        vec![
            (
                "Const(i)",
                ids.clone().map(|i| hash_of(&constant(i))).collect(),
            ),
            ("Null(i)", ids.clone().map(|i| hash_of(&null(i))).collect()),
            (
                "[Const(i), Null(i)]",
                ids.clone()
                    .map(|i| hash_of(&Box::<[Value]>::from([constant(i), null(i)])))
                    .collect(),
            ),
            (
                "Null(i << 16)",
                ids.map(|i| hash_of(&null(i << 16))).collect(),
            ),
        ]
    }

    fn distinct(hashes: impl Iterator<Item = u64>) -> usize {
        let mut seen: Vec<u64> = hashes.collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// hashbrown's control-byte tag is the top seven bits: every tag
    /// value must occur, or probes compare more keys than they need to.
    #[test]
    fn top_seven_bits_take_every_value() {
        for (family, hashes) in families() {
            let tags = distinct(hashes.iter().map(|h| h >> 57));
            assert_eq!(tags, 128, "{family}: {tags} of 128 tags");
        }
    }

    /// hashbrown's bucket index is the low bits: 2^16 keys must spread
    /// over at least half of the 2^16 low-16-bit patterns.
    #[test]
    fn low_sixteen_bits_spread() {
        for (family, hashes) in families() {
            let low = distinct(hashes.iter().map(|h| h & 0xffff));
            assert!(
                low >= (KEYS / 2) as usize,
                "{family}: only {low} of {KEYS} low-16-bit patterns"
            );
        }
    }

    /// No seed: a key hashes to the same word in every process, so map
    /// iteration order is the same everywhere.
    #[test]
    fn a_fixed_key_hashes_to_a_pinned_word() {
        // Words fed: length 2, tag 0, id 7, tag 1, id 3.
        let row: Box<[Value]> = Box::from([constant(7), null(3)]);
        assert_eq!(hash_of(&row), 0xf248_2878_5e00_214d);
        assert_eq!(hash_of(&0x1234_5678u32), 0xa19f_1c0f_6156_0ab2);
    }

    #[test]
    fn byte_writes_pad_the_last_word() {
        let mut a = IdHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = IdHasher::default();
        b.write_u64(0x03_02_01);
        assert_eq!(a.finish(), b.finish());
    }
}
