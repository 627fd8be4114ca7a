//! # s2g-store — data stores
//!
//! The data-store substrates stream2gym pipelines persist into:
//!
//! * [`KvStore`] — embedded key-value store holding the keys that can
//!   still be read (the RocksDB stand-in),
//! * [`TableStore`] — minimal relational tables (the MySQL stand-in),
//! * [`StoreServer`] — a simulated process serving both over [`StoreRpc`],
//!   the `storeType`/`storeCfg` node from Table I; grouped, its members
//!   replicate one operation log, each follower fetching what it lacks
//!   from the primary,
//! * [`BlobClient`] — the client the durability tiers (broker log
//!   segments, SPE checkpoints) keep their blobs through: a store group
//!   over the network, or a shared [`BlobMap`] that answers at once.

#![warn(missing_docs)]

mod blob;
mod kv;
mod server;
mod table;

pub use blob::{blob_map, BlobClient, BlobDone, BlobMap, BLOB_RETRY_INTERVAL};
pub use kv::KvStore;
pub use server::{StateTransfer, StoreConfig, StoreOp, StoreRecoveryInfo, StoreRpc, StoreServer};
pub use table::{TableError, TableStore};
