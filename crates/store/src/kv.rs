//! An embedded key-value store.
//!
//! The RocksDB/embedded-state-store stand-in: an ordered map of the keys
//! that can still be read. It holds nothing else —
//! an overwritten value and a deleted key are gone. What survives a crash
//! is not this type's business: a crashed [`StoreServer`](crate::StoreServer)
//! is respawned empty and resyncs from its replication group.

use std::collections::BTreeMap;

use bytes::Bytes;

/// An embedded KV store.
///
/// # Examples
///
/// ```
/// use s2g_store::KvStore;
///
/// let mut kv = KvStore::new();
/// kv.put("k1", "v1");
/// assert_eq!(kv.get("k1").map(|b| b.to_vec()), Some(b"v1".to_vec()));
/// kv.delete("k1");
/// assert!(kv.is_empty());
/// ```
#[derive(Debug, Default, Clone)]
pub struct KvStore {
    mem: BTreeMap<String, Bytes>,
    /// Key plus value bytes of everything in `mem`, kept as it changes.
    resident: usize,
}

impl KvStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a key, replacing any previous value.
    pub fn put(&mut self, key: impl Into<String>, value: impl Into<Bytes>) {
        let (key, value) = (key.into(), value.into());
        let key_len = key.len();
        self.resident += key_len + value.len();
        if let Some(old) = self.mem.insert(key, value) {
            // An overwrite: the key was already counted.
            self.resident -= key_len + old.len();
        }
    }

    /// Reads a key.
    pub fn get(&self, key: &str) -> Option<&Bytes> {
        self.mem.get(key)
    }

    /// Reads a key into an owned value (server-side use).
    pub fn get_counted(&mut self, key: &str) -> Option<Bytes> {
        self.mem.get(key).cloned()
    }

    /// Deletes a key, returning the previous value.
    pub fn delete(&mut self, key: &str) -> Option<Bytes> {
        let old = self.mem.remove(key)?;
        self.resident -= key.len() + old.len();
        Some(old)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.mem.len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// Iterates every resident key/value pair in key order (state-snapshot
    /// transfers for group resync).
    pub fn entries(&self) -> impl Iterator<Item = (&String, &Bytes)> {
        self.mem.iter()
    }

    /// Iterates keys in `[from, to)` lexicographic order.
    pub fn scan<'a>(
        &'a self,
        from: &str,
        to: &str,
    ) -> impl Iterator<Item = (&'a String, &'a Bytes)> {
        self.mem.range(from.to_string()..to.to_string())
    }

    /// Total bytes resident in the memtable (for the memory model).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut kv = KvStore::new();
        kv.put("a", "1");
        kv.put("b", "2");
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.get("a").unwrap().as_ref(), b"1");
        assert_eq!(kv.delete("a").unwrap().as_ref(), b"1");
        assert!(kv.get("a").is_none());
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn overwrite_keeps_latest() {
        let mut kv = KvStore::new();
        kv.put("k", "old");
        kv.put("k", "new");
        assert_eq!(kv.get("k").unwrap().as_ref(), b"new");
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn scan_range() {
        let mut kv = KvStore::new();
        for k in ["apple", "banana", "cherry", "date"] {
            kv.put(k, "x");
        }
        let keys: Vec<&String> = kv.scan("b", "d").map(|(k, _)| k).collect();
        assert_eq!(keys, ["banana", "cherry"]);
    }

    #[test]
    fn resident_bytes_tracks_content() {
        let mut kv = KvStore::new();
        assert_eq!(kv.resident_bytes(), 0);
        kv.put("key", "value");
        assert_eq!(kv.resident_bytes(), 8);
        kv.delete("key");
        assert_eq!(kv.resident_bytes(), 0);
    }
}
