//! The one client a process uses to keep blobs in the emulated data store.
//!
//! Two durability tiers write blobs: the broker's log segments
//! (`s2g_broker::Broker::set_durability`) and the SPE's checkpoints
//! (`s2g_spe::DurableBackend`). Each is written once, against this client,
//! and runs on either of its media; neither has an in-memory
//! implementation of its own. Everything that makes that I/O *reliable* is
//! the same for both and lives here, once:
//!
//! * **Correlation ids** are the owning process's ([`Ctx::next_corr`]), so
//!   a reply delayed across a crash/restart can never carry an id the
//!   respawn also draws, nor one the owner's other clients drew.
//! * **Tracking.** A request is kept, with the label its owner gave it,
//!   until it is answered. A [`StoreRpc::PutAck`] completes only a put and
//!   a [`StoreRpc::GetResult`] only a get; a reply that matches nothing
//!   pending (stale, superseded by a retry, or someone else's) completes
//!   nothing and consumes nothing.
//! * **Retry.** A client over a store group arms one timer,
//!   [`BLOB_RETRY_INTERVAL`] long, when it issues a request and none is
//!   armed. When it fires ([`BlobClient::on_timer`]) the client moves to
//!   the next member of the group (the silent endpoint may have crashed;
//!   non-primary members proxy to the primary, so any live one serves),
//!   re-issues everything unanswered, in the original order, under fresh
//!   ids, and arms the timer again only if something was. So a client
//!   retries at most once per interval, and a quiet one holds no timer.
//! * **Two media.** A store group reached over the emulated network, paying
//!   its CPU and the path for every blob; or a [`BlobMap`] outside the
//!   owner's failure domain that answers at once and for free. Either way a
//!   finished request reaches the owner as the same [`BlobDone`] from
//!   [`BlobClient::next_done`], so the owner has one completion handler.
//!
//! What stays with each owner is policy: when to write and what must be
//! durable before what. Of the retry it only forwards its `on_timer`.

use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use s2g_sim::{Ctx, ProcessId, SimDuration};

use crate::server::StoreRpc;

/// How long a client over a store group waits for replies before it
/// re-issues what is unanswered (a lossy network can drop either direction,
/// and the endpoint may be down).
pub const BLOB_RETRY_INTERVAL: SimDuration = SimDuration::from_secs(2);

/// Blob storage on a shared map. It lives outside the process that writes
/// it, so it survives that process's crashes: the moral equivalent of the
/// host's always-synced local disk (broker logs) or a job manager's heap
/// (checkpoints). A run has one, with each owner's keys under its own
/// prefix.
pub type BlobMap = Rc<RefCell<BTreeMap<String, Bytes>>>;

/// Creates an empty shared blob map.
pub fn blob_map() -> BlobMap {
    Rc::new(RefCell::new(BTreeMap::new()))
}

/// A finished request, handed back under the label its owner gave it.
#[derive(Debug, PartialEq, Eq)]
pub enum BlobDone<L> {
    /// The put is durable.
    Put(L),
    /// The get returned the blob, or `None` when the key was never written.
    Got(L, Option<Bytes>),
}

#[derive(Debug)]
enum Medium {
    Shared(BlobMap),
    /// Store-group members in member-index order; requests go to
    /// `servers[current]`, starting at member 0 (the initial primary).
    Group {
        servers: Vec<ProcessId>,
        current: usize,
    },
}

/// A request as it was issued, kept so it can be re-issued verbatim.
#[derive(Debug)]
struct Sent<L> {
    label: L,
    key: String,
    /// The bytes of a put, shared with every send of it; `None` for a get.
    value: Option<Bytes>,
}

/// Puts, gets and deletes blobs for one owner, which labels each request
/// with an `L` and takes completions from [`next_done`](Self::next_done).
#[derive(Debug)]
pub struct BlobClient<L> {
    medium: Medium,
    /// The tag the retry timer is armed under.
    timer_tag: u64,
    /// Requests sent and not yet answered, by correlation id (ordered so
    /// retry re-issues them deterministically).
    pending: BTreeMap<u64, Sent<L>>,
    /// Completions the owner has not taken yet.
    done: VecDeque<BlobDone<L>>,
    /// The retry timer is armed (only ever over a store group).
    armed: bool,
}

impl<L> BlobClient<L> {
    /// Creates a client over a shared map: instant and free.
    pub fn shared(map: BlobMap) -> Self {
        Self::over(Medium::Shared(map), 0)
    }

    /// Creates a client over the members of a store group (one member for
    /// an unreplicated store), in member-index order. Its retry timer is
    /// armed under `timer_tag`, a tag the owner sets aside, disjoint from
    /// its own timer tags; the owner forwards its `on_timer` to
    /// [`on_timer`](Self::on_timer).
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    pub fn new(servers: Vec<ProcessId>, timer_tag: u64) -> Self {
        assert!(!servers.is_empty(), "a blob client needs an endpoint");
        let current = 0;
        Self::over(Medium::Group { servers, current }, timer_tag)
    }

    fn over(medium: Medium, timer_tag: u64) -> Self {
        BlobClient {
            medium,
            timer_tag,
            pending: BTreeMap::new(),
            done: VecDeque::new(),
            armed: false,
        }
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>, sent: Sent<L>) {
        match &self.medium {
            Medium::Shared(map) => self.done.push_back(match sent.value {
                Some(value) => {
                    map.borrow_mut().insert(sent.key, value);
                    BlobDone::Put(sent.label)
                }
                None => BlobDone::Got(sent.label, map.borrow().get(&sent.key).cloned()),
            }),
            Medium::Group { servers, current } => {
                let server = servers[*current];
                if !std::mem::replace(&mut self.armed, true) {
                    ctx.set_timer(BLOB_RETRY_INTERVAL, self.timer_tag);
                }
                let (corr, key) = (ctx.next_corr(), sent.key.clone());
                let rpc = match sent.value.clone() {
                    Some(value) => StoreRpc::Put { corr, key, value },
                    None => StoreRpc::Get { corr, key },
                };
                ctx.send(server, rpc);
                self.pending.insert(corr, sent);
            }
        }
    }

    /// Begins writing `value` under `key`, overwriting any prior blob.
    ///
    /// The blob becomes one buffer here, shared by every send of the put,
    /// the store's op log and fetch replies, and each replica's map. Its
    /// spare capacity is dropped first, so that one copy holds no slack.
    pub fn put(&mut self, ctx: &mut Ctx<'_>, label: L, key: String, mut value: Vec<u8>) {
        value.shrink_to_fit();
        let value = Some(Bytes::from(value));
        self.issue(ctx, Sent { label, key, value });
    }

    /// Begins reading the blob under `key`.
    pub fn get(&mut self, ctx: &mut Ctx<'_>, label: L, key: String) {
        let value = None;
        self.issue(ctx, Sent { label, key, value });
    }

    /// Deletes the blob under `key`. Fire-and-forget: a delete lost in the
    /// network merely orphans a blob nothing references any more, so it is
    /// not tracked and its ack completes nothing.
    pub fn delete(&mut self, ctx: &mut Ctx<'_>, key: &str) {
        match &self.medium {
            Medium::Shared(map) => {
                map.borrow_mut().remove(key);
            }
            Medium::Group { servers, current } => {
                let (server, key) = (servers[*current], key.to_string());
                let corr = ctx.next_corr();
                ctx.send(server, StoreRpc::Delete { corr, key });
            }
        }
    }

    /// Takes a store reply. It completes the pending request carrying its
    /// correlation id if that request is of the reply's kind; anything else
    /// is dropped.
    pub fn on_reply(&mut self, rpc: StoreRpc) {
        let (corr, got) = match rpc {
            StoreRpc::PutAck { corr } => (corr, None),
            StoreRpc::GetResult { corr, value } => (corr, Some(value)),
            _ => return,
        };
        // Complete only a request of the reply's kind: a put's ack delayed
        // across a bounce must not cancel a get that drew the same id.
        let Entry::Occupied(sent) = self.pending.entry(corr) else {
            return;
        };
        let (is_put, acks_put) = (sent.get().value.is_some(), got.is_none());
        if is_put != acks_put {
            return;
        }
        let label = sent.remove().label;
        self.done.push_back(match got {
            None => BlobDone::Put(label),
            Some(value) => BlobDone::Got(label, value),
        });
    }

    /// The next finished request, in completion order.
    pub fn next_done(&mut self) -> Option<BlobDone<L>> {
        self.done.pop_front()
    }

    /// True while a put is unanswered or its completion not yet taken.
    pub fn puts_left(&self) -> bool {
        self.pending.values().any(|s| s.value.is_some())
            || self.done.iter().any(|d| matches!(d, BlobDone::Put(_)))
    }

    /// True while a get is unanswered or its completion not yet taken.
    pub fn gets_left(&self) -> bool {
        self.pending.values().any(|s| s.value.is_none())
            || self.done.iter().any(|d| matches!(d, BlobDone::Got(..)))
    }

    /// Takes a timer of the owning process; returns `false` when `tag` is
    /// not this client's retry timer (the shared map arms none). Otherwise
    /// every request still unanswered goes to the next group member, in the
    /// original order under fresh correlation ids, so a late reply to a
    /// superseded id is ignored; and the timer is armed again only if there
    /// was one.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) -> bool {
        let Medium::Group { servers, current } = &mut self.medium else {
            return false;
        };
        if tag != self.timer_tag {
            return false;
        }
        self.armed = false;
        if !self.pending.is_empty() {
            *current = (*current + 1) % servers.len();
        }
        for sent in std::mem::take(&mut self.pending).into_values() {
            self.issue(ctx, sent);
        }
        true
    }
}
