//! An unkeyed multiplicative hasher for term strings.
//!
//! The vocabulary and the stop-word set hash every token of every document;
//! SipHash's keyed rounds cost more than the rest of the lookup on short
//! words. This hasher folds 8 bytes per multiply and mixes the low bits in
//! [`Hasher::finish`]: without that finaliser the bucket index (low bits)
//! depends only on the low bytes of each chunk, and real vocabularies
//! collide badly. Being unkeyed, a term set crafted to collide can degrade
//! interning; term ids never depend on hash order, only on first-seen order.

use std::hash::{BuildHasherDefault, Hasher};

/// Golden-ratio multiplier (FxHash's 64-bit constant).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Hashes term strings; see the module documentation.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TermHasher(u64);

/// `BuildHasher` for maps and sets keyed by term strings.
pub(crate) type TermHash = BuildHasherDefault<TermHasher>;

impl TermHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for TermHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        // the 1–7 byte tail in at most two overlapping loads, its length in
        // the top bits (so "ab" and "ab\0" stay apart)
        let rest = chunks.remainder();
        let n = rest.len();
        if n >= 4 {
            let lo = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
            let hi = u32::from_le_bytes(rest[n - 4..].try_into().expect("4 bytes"));
            self.add((u64::from(lo) | u64::from(hi) << 32) ^ (n as u64) << 61);
        } else if n > 0 {
            let t = u64::from(rest[0]) | u64::from(rest[n / 2]) << 8 | u64::from(rest[n - 1]) << 16;
            self.add(t | (n as u64) << 61);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn finish(&self) -> u64 {
        // murmur3's fmix64: every output bit depends on every input bit
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    use super::*;

    fn hash(s: &str) -> u64 {
        TermHash::default().hash_one(s)
    }

    #[test]
    fn equal_strings_hash_equal_and_prefixes_differ() {
        assert_eq!(hash("market"), hash(&String::from("market")));
        assert_ne!(hash("market"), hash("markets"));
        assert_ne!(hash(""), hash("a"));
        // the str terminator separates a zero byte from the end of the word
        assert_ne!(hash("ab"), hash("ab\0"));
    }

    #[test]
    fn low_bits_spread_over_similar_terms() {
        // 4096 terms sharing long prefixes must fill most of 4096 buckets
        // by their low 12 bits, as a hash table indexes them.
        let buckets: HashSet<u64> = (0..4096)
            .map(|i| hash(&format!("international_{i:05}")) & 0xfff)
            .collect();
        assert!(buckets.len() > 2400, "only {} buckets", buckets.len());
    }
}
