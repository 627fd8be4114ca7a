//! An embedded key-value store with a write-ahead log.
//!
//! The RocksDB/embedded-state-store stand-in. Writes append to a WAL before
//! touching the memtable, so a crash (dropping the memtable) loses nothing
//! that was acknowledged — `recover` replays the log. Fault-tolerance tests
//! for stateful pipelines rely on exactly that behavior.

use std::collections::BTreeMap;

use bytes::Bytes;

/// One WAL entry.
#[derive(Debug, Clone, PartialEq, Eq)]
enum WalOp {
    Put { key: String, value: Bytes },
    Delete { key: String },
}

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
/// // Crash and recover: acknowledged writes survive.
/// let recovered = kv.simulate_crash_and_recover();
/// assert_eq!(recovered.get("k1").map(|b| b.to_vec()), Some(b"v1".to_vec()));
/// ```
#[derive(Debug, Default, Clone)]
pub struct KvStore {
    mem: BTreeMap<String, Bytes>,
    /// Key plus value bytes of everything in `mem`, kept as it changes.
    resident: usize,
    wal: Vec<WalOp>,
    puts: u64,
    deletes: u64,
    gets: u64,
}

impl KvStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a key; the WAL records it first.
    pub fn put(&mut self, key: impl Into<String>, value: impl Into<Bytes>) {
        let key = key.into();
        let value = value.into();
        self.wal.push(WalOp::Put {
            key: key.clone(),
            value: value.clone(),
        });
        self.mem_put(key, value);
        self.puts += 1;
    }

    fn mem_put(&mut self, key: String, value: Bytes) {
        let key_len = key.len();
        self.resident += key_len + value.len();
        if let Some(old) = self.mem.insert(key, value) {
            // An overwrite: the key was already counted.
            self.resident -= key_len + old.len();
        }
    }

    fn mem_remove(&mut self, key: &str) -> Option<Bytes> {
        let old = self.mem.remove(key)?;
        self.resident -= key.len() + old.len();
        Some(old)
    }

    /// Reads a key.
    pub fn get(&self, key: &str) -> Option<&Bytes> {
        self.mem.get(key)
    }

    /// Reads a key, counting the access (server-side use).
    pub fn get_counted(&mut self, key: &str) -> Option<Bytes> {
        self.gets += 1;
        self.mem.get(key).cloned()
    }

    /// Deletes a key, returning the previous value.
    pub fn delete(&mut self, key: &str) -> Option<Bytes> {
        self.wal.push(WalOp::Delete {
            key: key.to_string(),
        });
        self.deletes += 1;
        self.mem_remove(key)
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
    pub fn resident_bytes(&self) -> usize {
        self.resident
    }

    /// `(puts, gets, deletes)` counters.
    pub fn op_counts(&self) -> (u64, u64, u64) {
        (self.puts, self.gets, self.deletes)
    }

    /// WAL length (entries since the last compaction).
    pub fn wal_len(&self) -> usize {
        self.wal.len()
    }

    /// Compacts the WAL into a snapshot of the current memtable.
    pub fn compact(&mut self) {
        self.wal = self
            .mem
            .iter()
            .map(|(k, v)| WalOp::Put {
                key: k.clone(),
                value: v.clone(),
            })
            .collect();
    }

    /// Drops the memtable and rebuilds it from the WAL — the crash-recovery
    /// path. Returns the recovered store (counters reset).
    pub fn simulate_crash_and_recover(&self) -> KvStore {
        let mut fresh = KvStore {
            wal: self.wal.clone(),
            ..KvStore::default()
        };
        let ops = fresh.wal.clone();
        for op in ops {
            match op {
                WalOp::Put { key, value } => fresh.mem_put(key, value),
                WalOp::Delete { key } => {
                    fresh.mem_remove(&key);
                }
            }
        }
        fresh
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
        assert_eq!(kv.op_counts(), (2, 0, 1));
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
    fn crash_recovery_replays_wal() {
        let mut kv = KvStore::new();
        kv.put("a", "1");
        kv.put("b", "2");
        kv.delete("a");
        kv.put("c", "3");
        let recovered = kv.simulate_crash_and_recover();
        assert!(recovered.get("a").is_none());
        assert_eq!(recovered.get("b").unwrap().as_ref(), b"2");
        assert_eq!(recovered.get("c").unwrap().as_ref(), b"3");
        assert_eq!(recovered.len(), 2);
    }

    #[test]
    fn compaction_shrinks_wal_preserving_state() {
        let mut kv = KvStore::new();
        for i in 0..100 {
            kv.put("hot", format!("v{i}"));
        }
        assert_eq!(kv.wal_len(), 100);
        kv.compact();
        assert_eq!(kv.wal_len(), 1);
        let recovered = kv.simulate_crash_and_recover();
        assert_eq!(recovered.get("hot").unwrap().as_ref(), b"v99");
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
