//! A fast hasher for the heap's id-keyed tables.
//!
//! Object/region ids are dense integers; the default SipHash is overkill and
//! dominates marking cost at simulation scale. `IdHasher` is a Fibonacci
//! multiply-mix — not DoS-resistant, which is fine for a simulator whose
//! keys it generates itself.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-mix hasher for integer keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    state: u64,
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (compound keys, root slot names): FNV-style fold.
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.state = (self.state ^ i)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`IdHasher`].
pub type BuildIdHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by simulation ids.
pub type IdHashMap<K, V> = std::collections::HashMap<K, V, BuildIdHasher>;

/// A `HashSet` of simulation ids.
pub type IdHashSet<K> = std::collections::HashSet<K, BuildIdHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_distinct_hashes() {
        let mut set = IdHashSet::default();
        for i in 0..10_000u64 {
            set.insert(crate::ObjectId::new(i));
        }
        assert_eq!(set.len(), 10_000);
        assert!(set.contains(&crate::ObjectId::new(42)));
    }

    #[test]
    fn map_round_trip() {
        let mut map: IdHashMap<crate::ObjectId, u32> = IdHashMap::default();
        map.insert(crate::ObjectId::new(7), 1);
        map.insert(crate::ObjectId::new(7), 2);
        assert_eq!(map.len(), 1);
        assert_eq!(map[&crate::ObjectId::new(7)], 2);
    }
}
