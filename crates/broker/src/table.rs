//! The table a partition leader keeps its followers' progress in, by
//! broker id.
//!
//! These keys are small integers the crate itself issues, so the default
//! SipHash (keyed against adversarial input) is pure overhead on a path
//! every replica fetch takes; one multiplication spreads them as well.
//! [`IntTable`] offers point operations only. It cannot be iterated, so its
//! process-dependent bucket order can never reach simulated behaviour (the
//! hash-iteration hazard `crates/clippy.toml` guards against).

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

/// A map from `u64` keys to `V`: look up, or insert a default. No
/// iteration.
pub(crate) struct IntTable<V>(HashMap<u64, V, BuildHasherDefault<MulHasher>>);

impl<V> Default for IntTable<V> {
    fn default() -> Self {
        IntTable(HashMap::default())
    }
}

impl<V> IntTable<V> {
    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        self.0.get(&key)
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
        // Broker ids (tiny) and, for spread, a high base plus a counter.
        let keys = (0..500u64).chain((0..500).map(|i| (1 << 50) + i));
        for k in keys.clone() {
            assert_eq!(t.get(k), None, "key {k} is fresh");
            *t.get_or_default(k) += k ^ 7;
        }
        for k in keys {
            assert_eq!(t.get(k), Some(&(k ^ 7)));
        }
        *t.get_or_default(9) += 5;
        assert_eq!(t.get(9), Some(&((9 ^ 7) + 5)));
        assert_eq!(format!("{t:?}"), "IntTable(1000 entries)");
    }
}
