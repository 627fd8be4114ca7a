//! The partition state that moves with leadership: idempotent-dedup stamps
//! and transaction ranges, and the hand-over of both from a leader to its
//! followers.
//!
//! A leader hands both to every follower on every replica-fetch reply, most
//! of which carry no record and none of which find the state changed since
//! the reply before. So the wire form ([`MirrorView`]) is built when the
//! state changes, not per reply, and a follower handed the value it applied
//! last time, at the log end it applied it at, does nothing. [`Handover`]
//! keeps both caches honest by construction: the state is only reachable
//! for writing through methods that drop them.

use std::collections::BTreeMap;
use std::rc::Rc;

use s2g_proto::{MirrorView, Offset, TopicPartition};

use crate::log::{MetaPartitionTxns, MetaTxnEntry};

/// The highest `(producer_epoch, seq)` per producer id. Kept inside the
/// partition so the per-record dedup check is an integer lookup: no
/// `(TopicPartition, producer)` key is built per record.
type ProducerSeqs = BTreeMap<u32, (u32, u64)>;

/// Raises `producer`'s stamp to `stamp` if that is higher.
fn raise(seqs: &mut ProducerSeqs, producer: u32, stamp: (u32, u64)) {
    let entry = seqs.entry(producer).or_insert(stamp);
    *entry = (*entry).max(stamp);
}

/// Transaction bookkeeping for one partition: open transactions (their
/// records are withheld from read-committed consumers) and aborted offset
/// ranges (skipped forever). Persisted in the meta blob so isolation
/// survives a broker bounce.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct PartitionTxns {
    /// `(producer, txn)` → `(first, end, producer_epoch)` offset range
    /// staged so far, tagged with the staging incarnation's epoch so a
    /// recover from a newer incarnation can fence older leftovers without
    /// ever touching its own transactions.
    ongoing: BTreeMap<(u32, u64), (u64, u64, u32)>,
    /// Aborted `[start, end)` offset ranges.
    aborted: Vec<(u64, u64)>,
}

impl PartitionTxns {
    /// Rebuilds the state a meta blob persisted.
    pub(crate) fn from_meta(ongoing: Vec<MetaTxnEntry>, aborted: Vec<(u64, u64)>) -> Self {
        let ongoing = ongoing
            .into_iter()
            .map(|(p, x, first, end, e)| ((p, x), (first, end, e)))
            .collect();
        PartitionTxns { ongoing, aborted }
    }

    /// The open transactions and aborted ranges as the meta blob stores
    /// them; `None` when there is nothing to persist.
    pub(crate) fn to_meta(&self, tp: &TopicPartition) -> Option<MetaPartitionTxns> {
        if self.ongoing.is_empty() && self.aborted.is_empty() {
            return None;
        }
        let ongoing = self
            .ongoing
            .iter()
            .map(|((p, x), (first, end, e))| (*p, *x, *first, *end, *e))
            .collect();
        Some((tp.clone(), ongoing, self.aborted.clone()))
    }

    /// The last stable offset: no record at or above it belongs to an open
    /// transaction. `None` when no transaction is open.
    pub(crate) fn lso(&self) -> Option<u64> {
        self.ongoing.values().map(|(first, _, _)| *first).min()
    }

    /// Whether any aborted range is on record.
    pub(crate) fn has_aborted(&self) -> bool {
        !self.aborted.is_empty()
    }

    pub(crate) fn is_aborted(&self, offset: u64) -> bool {
        // `aborted` is kept sorted and merged, so a binary search suffices.
        let i = self.aborted.partition_point(|(s, _)| *s <= offset);
        i > 0 && offset < self.aborted[i - 1].1
    }

    /// Inserts an aborted `[start, end)` range, keeping the list sorted and
    /// coalescing overlapping/adjacent ranges so fetch-path lookups stay
    /// logarithmic and the meta blob stays small.
    fn add_aborted(&mut self, start: u64, end: u64) {
        let i = self.aborted.partition_point(|(s, _)| *s < start);
        self.aborted.insert(i, (start, end));
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.aborted.len());
        for &(s, e) in &self.aborted {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.aborted = merged;
    }

    /// Drops the aborted ranges wholly below `log_start`: they reference
    /// vanished records.
    pub(crate) fn forget_aborted_below(&mut self, log_start: u64) {
        self.aborted.retain(|(_, e)| *e > log_start);
    }

    /// Records (or extends) the open transaction `key`'s staged range
    /// `[base, end)`. A leftover entry from an older producer epoch (the
    /// crashed incarnation reused the txn sequence) is fenced: its range
    /// aborts and the fresh epoch starts a new one. Returns whether that
    /// happened.
    pub(crate) fn stage(&mut self, key: (u32, u64), base: u64, end: u64, rec_epoch: u32) -> bool {
        match self.ongoing.get(&key).copied() {
            Some((f, l, e)) if e == rec_epoch => {
                self.ongoing.insert(key, (f, l.max(end), e));
                false
            }
            Some((f, l, _)) => {
                self.ongoing.insert(key, (base, end, rec_epoch));
                if l > f {
                    self.add_aborted(f, l);
                }
                true
            }
            None => {
                self.ongoing.insert(key, (base, end, rec_epoch));
                false
            }
        }
    }

    /// The open transactions of `producer` whose sequence matches `which` —
    /// and, when `below_epoch` is set, whose staging producer epoch is older
    /// than it (the fencing rule).
    fn matching(
        &self,
        producer: u32,
        which: impl Fn(u64) -> bool,
        below_epoch: Option<u32>,
    ) -> Vec<(u32, u64)> {
        let matches = |((p, t), (_, _, e)): &(&(u32, u64), &(u64, u64, u32))| {
            *p == producer && which(*t) && below_epoch.is_none_or(|fence| *e < fence)
        };
        let open = self.ongoing.iter().filter(matches);
        open.map(|(k, _)| *k).collect()
    }

    /// Closes the open transactions `keys`, committing or aborting them.
    fn close(&mut self, keys: &[(u32, u64)], commit: bool) {
        for k in keys {
            if let Some((first, end, _)) = self.ongoing.remove(k) {
                if !commit && end > first {
                    self.add_aborted(first, end);
                }
            }
        }
    }

    /// The leader's ranges as a follower whose log ends at `log_end` may
    /// keep them: ranges wholly past that end describe records that never
    /// replicated there and must not be resurrected after a promotion.
    fn clamped(view: &MirrorView, log_end: u64) -> Self {
        let mut mirrored = PartitionTxns::default();
        for &(p, x, first, range_end, pe) in &view.txn_ongoing {
            if first.value() < log_end {
                let range = (first.value(), range_end.value().min(log_end), pe);
                mirrored.ongoing.insert((p, x), range);
            }
        }
        for &(s, e) in &view.txn_aborted {
            if s.value() < log_end {
                mirrored.add_aborted(s.value(), e.value().min(log_end));
            }
        }
        mirrored
    }
}

/// One partition's dedup stamps and transaction ranges, on both ends of
/// the leader → follower hand-over.
#[derive(Debug, Default)]
pub(crate) struct Handover {
    /// Highest `(producer_epoch, seq)` appended per producer — the
    /// idempotent-producer dedup state. Rebuilt from the log on restart
    /// replay and after divergence truncation, so a batch retried across a
    /// broker bounce is acknowledged without duplicating records, while a
    /// respawned client (bumped epoch, sequence restarting at zero) is
    /// accepted as fresh.
    seqs: ProducerSeqs,
    txns: PartitionTxns,
    /// Leading: `seqs` and `txns` in wire form, built by the first reply
    /// after either changed and shared by every reply until the next change.
    view: Option<Rc<MirrorView>>,
    /// Following: dedup stamps mirrored from the leader, merged into `seqs`
    /// on promotion. This carries the in-memory-only knowledge a bare log
    /// replay cannot rebuild (e.g. a producer's highest sequence whose
    /// record compaction since removed), so a failover never re-admits a
    /// duplicate the old leader had filtered. Only populated from fetches
    /// made while fully caught up, so every mirrored stamp is covered by
    /// the local log.
    mirrored_seqs: ProducerSeqs,
    /// Following: the view [`mirror`](Self::mirror) last applied, the own
    /// log end it clamped the ranges to, and whether the stamps rode along.
    /// While `txns` and `mirrored_seqs` are as that call left them,
    /// applying the same again changes nothing.
    applied: Option<(Rc<MirrorView>, Offset, bool)>,
}

impl Handover {
    /// The highest stamp appended for `producer`, if any.
    pub(crate) fn seq(&self, producer: u32) -> Option<(u32, u64)> {
        self.seqs.get(&producer).copied()
    }

    pub(crate) fn raise_seq(&mut self, producer: u32, stamp: (u32, u64)) {
        self.view = None;
        raise(&mut self.seqs, producer, stamp);
    }

    /// Replaces the stamps by what `appended` (every `(producer, stamp)`
    /// the log holds) implies.
    pub(crate) fn rebuild_seqs(&mut self, appended: impl Iterator<Item = (u32, (u32, u64))>) {
        self.view = None;
        self.seqs.clear();
        for (producer, stamp) in appended {
            raise(&mut self.seqs, producer, stamp);
        }
    }

    pub(crate) fn txns(&self) -> &PartitionTxns {
        &self.txns
    }

    /// The transaction ranges, for a change made on this broker (anything
    /// but [`mirror`](Self::mirror)).
    pub(crate) fn txns_mut(&mut self) -> &mut PartitionTxns {
        self.view = None;
        self.applied = None;
        &mut self.txns
    }

    /// Resolves every open transaction of `producer` whose sequence matches
    /// `which` — and, when `below_epoch` is set, whose staging producer
    /// epoch is older than it (the fencing rule) — committing or aborting.
    /// Returns how many it resolved; none is no change (markers go to every
    /// broker, and most partitions hold no transaction of the producer).
    pub(crate) fn resolve_txns(
        &mut self,
        producer: u32,
        which: impl Fn(u64) -> bool,
        below_epoch: Option<u32>,
        commit: bool,
    ) -> u64 {
        let keys = self.txns.matching(producer, which, below_epoch);
        if !keys.is_empty() {
            self.txns_mut().close(&keys, commit);
        }
        keys.len() as u64
    }

    /// Promotion: folds the dedup stamps mirrored from the old leader into
    /// the live filter, so the new reign rejects exactly the duplicates the
    /// old one would have. (The mirrored transaction ranges are already
    /// installed in `txns` and carry over as-is.)
    pub(crate) fn promote(&mut self) {
        self.view = None;
        self.applied = None;
        for (p, stamp) in std::mem::take(&mut self.mirrored_seqs) {
            raise(&mut self.seqs, p, stamp);
        }
    }

    /// Drops the mirrored stamps: they predate a truncation and may cover
    /// discarded records. The next caught-up fetch repopulates them from
    /// the new reign's leader.
    pub(crate) fn forget_mirrored_seqs(&mut self) {
        self.applied = None;
        self.mirrored_seqs.clear();
    }

    /// Leading: the state in wire form, rebuilt only if it changed since
    /// the last call.
    pub(crate) fn view(&mut self) -> Rc<MirrorView> {
        let (seqs, txns) = (&self.seqs, &self.txns);
        let view = self.view.get_or_insert_with(|| {
            Rc::new(MirrorView {
                txn_ongoing: txns
                    .ongoing
                    .iter()
                    .map(|((p, x), (f, e, pe))| (*p, *x, Offset(*f), Offset(*e), *pe))
                    .collect(),
                txn_aborted: txns
                    .aborted
                    .iter()
                    .map(|(s, e)| (Offset(*s), Offset(*e)))
                    .collect(),
                producer_seqs: seqs.iter().map(|(p, (e, s))| (*p, *e, *s)).collect(),
            })
        });
        Rc::clone(view)
    }

    /// Following: mirrors the leader's transactional state and, when they
    /// ride along (a caught-up fetch: all covered by our log), its dedup
    /// stamps, stashed for promotion time. The transaction ranges are
    /// clamped to `log_end`, the records this follower actually holds.
    /// Returns whether the transaction state changed.
    pub(crate) fn mirror(
        &mut self,
        view: &Rc<MirrorView>,
        seqs_ride: bool,
        log_end: Offset,
    ) -> bool {
        if let Some((applied, at, rode)) = &self.applied {
            // Same view, clamped at the same end, stamps already taken if
            // they ride: the last call's work, to the letter.
            if Rc::ptr_eq(applied, view) && *at == log_end && (*rode || !seqs_ride) {
                return false;
            }
        }
        if seqs_ride {
            for &(p, e, s) in &view.producer_seqs {
                raise(&mut self.mirrored_seqs, p, (e, s));
            }
        }
        let mirrored = PartitionTxns::clamped(view, log_end.value());
        let changed = self.txns != mirrored;
        if changed {
            self.view = None;
            self.txns = mirrored;
        }
        self.applied = Some((Rc::clone(view), log_end, seqs_ride));
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leader() -> Handover {
        let mut h = Handover::default();
        h.raise_seq(1, (0, 9));
        h.txns_mut().stage((1, 4), 10, 20, 0);
        h.txns_mut().stage((2, 1), 30, 40, 0);
        h.resolve_txns(2, |_| true, None, false);
        h
    }

    #[test]
    fn view_is_shared_until_the_state_changes() {
        let mut h = leader();
        let a = h.view();
        assert!(Rc::ptr_eq(&a, &h.view()), "no change, no rebuild");
        assert_eq!(
            *a,
            MirrorView {
                txn_ongoing: vec![(1, 4, Offset(10), Offset(20), 0)],
                txn_aborted: vec![(Offset(30), Offset(40))],
                producer_seqs: vec![(1, 0, 9)],
            }
        );
        // Every kind of write drops it; reads do not.
        let _ = (h.seq(1), h.txns().lso());
        assert!(Rc::ptr_eq(&a, &h.view()));
        h.raise_seq(1, (0, 10));
        let b = h.view();
        assert_eq!(b.producer_seqs, vec![(1, 0, 10)]);
        h.raise_seq(3, (1, 0));
        let c = h.view();
        assert_eq!(c.producer_seqs.len(), 2);
        h.txns_mut().forget_aborted_below(40);
        let d = h.view();
        assert!(d.txn_aborted.is_empty());
        // A marker for a producer with nothing open here is not a change.
        assert_eq!(h.resolve_txns(7, |_| true, None, true), 0);
        assert!(Rc::ptr_eq(&d, &h.view()));
        assert_eq!(h.resolve_txns(1, |t| t == 4, None, true), 1);
        assert!(h.view().txn_ongoing.is_empty());
        h.rebuild_seqs([(5, (0, 1)), (5, (0, 0))].into_iter());
        assert_eq!(h.view().producer_seqs, vec![(5, 0, 1)]);
    }

    #[test]
    fn follower_skips_the_same_view_at_the_same_end_only() {
        let view = leader().view();
        let mut f = Handover::default();
        assert!(f.mirror(&view, false, Offset(15)));
        assert_eq!(f.txns().lso(), Some(10));
        assert_eq!(f.txns, PartitionTxns::clamped(&view, 15));
        assert!(!f.txns().has_aborted(), "aborted range lies past offset 15");
        assert!(!f.mirror(&view, false, Offset(15)));
        // The same view at a *different* own log end re-clamps: a version
        // check alone would keep the range cut at 15.
        assert!(f.mirror(&view, false, Offset(35)));
        assert_eq!(f.txns, PartitionTxns::clamped(&view, 35));
        assert!(f.txns().is_aborted(32) && !f.txns().is_aborted(36));
        // Stamps that did not ride before are taken when they do.
        assert!(f.mirrored_seqs.is_empty());
        assert!(!f.mirror(&view, true, Offset(35)));
        assert_eq!(f.mirrored_seqs.get(&1), Some(&(0, 9)));
        // An equal view in another allocation is applied again (and finds
        // nothing changed), as every reply was before.
        let twin = leader().view();
        assert!(!Rc::ptr_eq(&view, &twin) && *view == *twin);
        assert!(!f.mirror(&twin, true, Offset(35)));
    }

    #[test]
    fn local_changes_make_the_follower_apply_the_view_again() {
        let view = leader().view();
        let mut f = Handover::default();
        f.mirror(&view, true, Offset(50));
        // A marker reached this broker before the leader's view caught up:
        // the next reply reinstates the leader's ranges, as it always did.
        assert_eq!(f.resolve_txns(1, |_| true, None, true), 1);
        assert_eq!(f.txns().lso(), None);
        assert!(f.mirror(&view, true, Offset(50)));
        assert_eq!(f.txns().lso(), Some(10));
        // A truncation drops the mirrored stamps; the same view restores
        // them.
        f.forget_mirrored_seqs();
        assert!(!f.mirror(&view, true, Offset(50)));
        assert_eq!(f.mirrored_seqs.get(&1), Some(&(0, 9)));
        // Promotion folds them into the live filter and starts a fresh
        // view of its own.
        f.promote();
        assert_eq!(f.seq(1), Some((0, 9)));
        assert!(f.mirrored_seqs.is_empty());
        assert_eq!(*f.view(), *view);
    }
}
