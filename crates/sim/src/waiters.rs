//! One wait queue for requests held until their answer can change.
//!
//! A server that cannot answer a request usefully yet — a fetch with
//! nothing to read, a produce waiting for its replicas — holds it and
//! answers it when the state behind it moves, when its deadline passes or
//! when the server's reign ends. [`Waiters`] is that queue: at most one
//! entry per key, offered back in key order, each with an optional
//! deadline. Kafka calls it the request purgatory.

use crate::SimTime;

/// Requests `W` held under keys `K`, in key order, at most one per key,
/// each with an optional deadline.
///
/// The queue is a `Vec` of `(key, request, deadline)` kept sorted: a key
/// above every held one (as [`push`](Self::push) gives) is appended, and
/// once the `Vec` has grown to its high-water mark nothing allocates. The
/// request is `None` only while [`wake`](Self::wake) has it out.
#[derive(Debug)]
pub struct Waiters<K, W> {
    entries: Vec<(K, Option<W>, Option<SimTime>)>,
}

impl<K, W> Default for Waiters<K, W> {
    fn default() -> Self {
        Waiters {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord, W> Waiters<K, W> {
    /// Holds `w` under `key` until `deadline`, if it has one. Returns the
    /// request it replaced, when one was held under `key`.
    pub fn hold(&mut self, key: K, w: W, deadline: Option<SimTime>) -> Option<W> {
        match self.entries.binary_search_by(|e| e.0.cmp(&key)) {
            Ok(i) => std::mem::replace(&mut self.entries[i], (key, Some(w), deadline)).1,
            Err(i) => {
                self.entries.insert(i, (key, Some(w), deadline));
                None
            }
        }
    }

    /// The request held under `key`.
    pub fn get(&self, key: &K) -> Option<&W> {
        let i = self.entries.binary_search_by(|e| e.0.cmp(key)).ok()?;
        self.entries[i].1.as_ref()
    }

    /// Takes the request held under `key` out of the queue.
    pub fn take(&mut self, key: &K) -> Option<W> {
        let i = self.entries.binary_search_by(|e| e.0.cmp(key)).ok()?;
        self.entries.remove(i).1
    }

    /// The held requests, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &W)> {
        (self.entries.iter()).filter_map(|(k, w, _)| Some((k, w.as_ref()?)))
    }

    /// The earliest deadline of a held request, if any has one.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.entries.iter().filter_map(|e| e.2).min()
    }

    /// Offers each held request to `f` in key order: `f` answers it
    /// (returns `None`) or hands it back to be held on, in its place and
    /// under its deadline.
    pub fn wake(&mut self, mut f: impl FnMut(&K, W) -> Option<W>) {
        self.entries.retain_mut(|(k, w, _)| {
            *w = w.take().and_then(|w| f(k, w));
            w.is_some()
        });
    }

    /// Hands `f` every request whose deadline is at or before `now`, in key
    /// order, to be answered. Requests without a deadline stay.
    pub fn expire(&mut self, now: SimTime, mut f: impl FnMut(&K, W)) {
        self.entries.retain_mut(|(k, w, deadline)| {
            let due = deadline.is_some_and(|d| d <= now);
            if let Some(w) = w.take_if(|_| due) {
                f(k, w);
            }
            !due
        });
    }

    /// Takes every held request out, in key order: the end of a reign.
    pub fn drain(&mut self) -> impl Iterator<Item = (K, W)> + '_ {
        (self.entries.drain(..)).filter_map(|(k, w, _)| Some((k, w?)))
    }
}

impl<W> Waiters<u64, W> {
    /// Holds `w` until `deadline`, if it has one, after every request held
    /// now: under the key one above the last, so the queue is in arrival
    /// order.
    pub fn push(&mut self, w: W, deadline: Option<SimTime>) {
        let key = self.entries.last().map_or(0, |e| e.0 + 1);
        self.entries.push((key, Some(w), deadline));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> Option<SimTime> {
        Some(SimTime::from_millis(ms))
    }

    fn held(q: &Waiters<u32, &'static str>) -> Vec<(u32, &'static str)> {
        q.iter().map(|(k, w)| (*k, *w)).collect()
    }

    #[test]
    fn requests_are_kept_in_key_order_whatever_the_order_they_came_in() {
        let mut q = Waiters::default();
        for (k, w) in [(3, "c"), (1, "a"), (4, "d"), (2, "b")] {
            assert_eq!(q.hold(k, w, None), None);
        }
        assert_eq!(held(&q), [(1, "a"), (2, "b"), (3, "c"), (4, "d")]);
        assert_eq!((q.get(&2), q.get(&5)), (Some(&"b"), None));
        assert_eq!(q.take(&2), Some("b"));
        assert_eq!(q.take(&2), None);
        assert_eq!(held(&q), [(1, "a"), (3, "c"), (4, "d")]);
    }

    #[test]
    fn a_hold_on_a_held_key_replaces_the_request_and_returns_the_old_one() {
        let mut q = Waiters::default();
        q.hold(1, "old", at(5));
        q.hold(2, "other", None);
        assert_eq!(q.hold(1, "new", None), Some("old"));
        assert_eq!(held(&q), [(1, "new"), (2, "other")]);
        // The deadline was replaced with the request.
        let mut expired = Vec::new();
        q.expire(SimTime::from_millis(10), |k, w| expired.push((*k, w)));
        assert_eq!(expired, []);
    }

    #[test]
    fn wake_answers_what_it_can_and_keeps_the_rest_in_order() {
        let mut q = Waiters::default();
        for (k, w) in [(1, "a"), (2, "b"), (3, "c"), (4, "d"), (5, "e")] {
            q.hold(k, w, at(u64::from(k)));
        }
        let mut offered = Vec::new();
        q.wake(|k, w| {
            offered.push(*k);
            (k % 2 == 1).then_some(w)
        });
        assert_eq!(offered, [1, 2, 3, 4, 5], "every request, in key order");
        assert_eq!(held(&q), [(1, "a"), (3, "c"), (5, "e")]);
        // What is handed back keeps its deadline.
        let mut expired = Vec::new();
        q.expire(SimTime::from_millis(3), |k, w| expired.push((*k, w)));
        assert_eq!(expired, [(1, "a"), (3, "c")]);
    }

    #[test]
    fn expire_answers_only_what_is_past_its_deadline_in_key_order() {
        let mut q = Waiters::default();
        q.hold(1, "late", at(30));
        q.hold(2, "none", None);
        q.hold(3, "due", at(10));
        q.hold(4, "on time", at(20));
        let mut expired = Vec::new();
        q.expire(SimTime::from_millis(20), |k, w| expired.push((*k, w)));
        assert_eq!(expired, [(3, "due"), (4, "on time")]);
        assert_eq!(held(&q), [(1, "late"), (2, "none")]);
        assert_eq!(q.next_deadline(), at(30));
        q.expire(SimTime::MAX, |k, w| expired.push((*k, w)));
        assert_eq!(held(&q), [(2, "none")], "no deadline, no expiry");
        assert_eq!(q.next_deadline(), None);
    }

    #[test]
    fn push_holds_after_everything_held() {
        let mut q = Waiters::default();
        q.hold(5, "held", None);
        q.push("first", None);
        q.push("second", at(1));
        q.take(&7);
        q.push("third", None);
        let keys: Vec<(u64, &str)> = q.iter().map(|(k, w)| (*k, *w)).collect();
        assert_eq!(keys, [(5, "held"), (6, "first"), (7, "third")]);
    }

    #[test]
    fn drain_empties_the_queue_in_key_order() {
        let mut q = Waiters::default();
        for (k, w) in [(2, "b"), (3, "c"), (1, "a")] {
            q.hold(k, w, at(1));
        }
        assert_eq!(
            q.drain().collect::<Vec<_>>(),
            [(1, "a"), (2, "b"), (3, "c")]
        );
        assert_eq!(held(&q), []);
        assert_eq!(q.drain().count(), 0);
    }
}
