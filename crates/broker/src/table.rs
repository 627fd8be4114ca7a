//! The table behind every integer-keyed correlation map of the crate:
//! in-flight requests by correlation id, CPU-delayed work by tag, follower
//! progress by broker id.
//!
//! These keys are small integers the crate itself issues, so the default
//! SipHash (keyed against adversarial input) is pure overhead on a path
//! every RPC takes twice; one multiplication spreads them as well.
//! [`IntTable`] offers point operations only. It cannot be iterated, so its
//! process-dependent bucket order can never reach simulated behaviour (the
//! `hash-iteration` hazard `s2g-lint` guards against).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci hashing: the key times 2^64 / φ. The product's high bits (the
/// map's control bytes) and low bits (its bucket index) both vary with
/// consecutive keys.
#[derive(Default)]
pub(crate) struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("IntTable keys are u64");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map from `u64` keys to `V`: insert, look up, remove. No iteration.
pub(crate) struct IntTable<V>(HashMap<u64, V, BuildHasherDefault<MulHasher>>);

impl<V> Default for IntTable<V> {
    fn default() -> Self {
        IntTable(HashMap::default())
    }
}

impl<V> IntTable<V> {
    pub(crate) fn insert(&mut self, key: u64, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        self.0.get(&key)
    }

    pub(crate) fn remove(&mut self, key: u64) -> Option<V> {
        self.0.remove(&key)
    }

    /// The value under `key`, inserted as the default first when absent.
    pub(crate) fn get_or_default(&mut self, key: u64) -> &mut V
    where
        V: Default,
    {
        self.0.entry(key).or_default()
    }
}

impl<V> std::fmt::Debug for IntTable<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IntTable({} entries)", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_operations_on_the_key_shapes_the_crate_issues() {
        let mut t: IntTable<u64> = IntTable::default();
        // Correlation ids (one parity, step 2), CPU tags (a high base plus
        // a counter), broker ids (tiny).
        let keys = (0..500u64)
            .map(|i| 2 * i + 1)
            .chain((0..500).map(|i| (1 << 50) + i))
            .chain([0, 2, 4]);
        for k in keys.clone() {
            assert_eq!(t.insert(k, k ^ 7), None, "key {k} is fresh");
        }
        for k in keys.clone() {
            assert_eq!(t.get(k), Some(&(k ^ 7)));
        }
        assert_eq!(t.insert(3, 0), Some(3 ^ 7));
        assert_eq!(t.get(6), None);
        for k in keys {
            assert!(t.remove(k).is_some());
            assert_eq!(t.remove(k), None);
        }
        *t.get_or_default(9) += 5;
        *t.get_or_default(9) += 5;
        assert_eq!(t.get(9), Some(&10));
        assert_eq!(format!("{t:?}"), "IntTable(1 entries)");
    }
}
