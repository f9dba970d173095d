//! A fast, non-cryptographic hasher for the verifier's hot integer-keyed
//! tables (arena interning, BDD unique and translation tables, the
//! cofactor memo).
//!
//! This is the Fx hash of the Firefox and rustc code bases: one rotate,
//! xor and multiply per word. The keys are node ids and variables that
//! the program itself allocates, so SipHash's resistance to chosen keys
//! buys nothing and costs several times the lookup.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx word hasher. Use it through [`FxBuildHasher`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// Byte slices (never part of the hot keys) go a byte at a time.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
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
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(x: T) -> u64 {
        FxBuildHasher::default().hash_one(x)
    }

    #[test]
    fn distinct_small_keys_hash_apart() {
        let hashes: FxHashSet<u64> = (0u32..10_000).map(fx).collect();
        assert_eq!(hashes.len(), 10_000);
        assert_ne!(fx((1u32, 2u32)), fx((2u32, 1u32)), "order matters");
    }
}
