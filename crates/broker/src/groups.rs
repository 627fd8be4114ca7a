//! Broker-side consumer-group membership and partition assignment.
//!
//! Each group is coordinated by one broker (`fnv1a(group) % brokers`, so
//! every member independently finds the same coordinator). The coordinator
//! runs a KIP-848-style *server-side* assignor: members join with their
//! subscriptions, the coordinator computes a **sticky** assignment —
//! surviving members keep what they had, orphaned partitions go to the
//! least-loaded members, and a final balancing pass caps the spread at one
//! partition — and hands each member its slice with the current
//! *generation*. Heartbeats keep members alive; a member silent for the
//! session timeout is evicted, the generation bumps, and survivors absorb
//! its partitions the next time their (now stale-generation) heartbeat
//! bounces them back through `join`.
//!
//! Generations fence offset commits: a zombie evicted by a rebalance
//! commits with a stale generation and is rejected, so it can never clobber
//! the offsets its successor is advancing — Kafka's `IllegalGeneration`
//! discipline.

use std::collections::BTreeMap;

use s2g_proto::{ErrorCode, TopicPartition};
use s2g_sim::{SimDuration, SimTime};

/// One admitted group member.
#[derive(Debug, Clone)]
struct Member {
    topics: Vec<String>,
    last_seen: SimTime,
    assigned: Vec<TopicPartition>,
}

impl Member {
    fn subscribes(&self, tp: &TopicPartition) -> bool {
        self.topics.iter().any(|t| tp.topic == *t)
    }
}

/// One consumer group's coordinator state.
#[derive(Debug, Default)]
struct Group {
    generation: u64,
    members: BTreeMap<String, Member>,
}

/// Counters the coordinator surfaces through broker stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCoordinatorStats {
    /// Join requests handled.
    pub joins: u64,
    /// Rebalances performed (generation bumps).
    pub rebalances: u64,
    /// Members evicted by the session sweep.
    pub evictions: u64,
    /// Offset commits rejected by generation fencing.
    pub fenced_commits: u64,
}

/// The per-broker group coordinator. Holds every group this broker
/// coordinates; brokers that are not a group's coordinator simply never
/// receive its RPCs (clients route by the shared group hash).
#[derive(Debug, Default)]
pub struct GroupCoordinator {
    groups: BTreeMap<String, Group>,
    stats: GroupCoordinatorStats,
}

impl GroupCoordinator {
    /// Creates an empty coordinator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters.
    pub fn stats(&self) -> GroupCoordinatorStats {
        self.stats
    }

    /// The current generation of `group` (0 before any member joined).
    pub fn generation(&self, group: &str) -> u64 {
        self.groups.get(group).map_or(0, |g| g.generation)
    }

    /// The live member ids of `group`, in id order.
    pub fn members(&self, group: &str) -> Vec<String> {
        self.groups
            .get(group)
            .map(|g| g.members.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// A member's current assignment (empty when unknown).
    pub fn assignment(&self, group: &str, member: &str) -> Vec<TopicPartition> {
        self.groups
            .get(group)
            .and_then(|g| g.members.get(member))
            .map(|m| m.assigned.clone())
            .unwrap_or_default()
    }

    /// Admits (or refreshes) a member and returns `(generation, assigned)`.
    /// `partitions_of` resolves a topic to its partitions (the broker's
    /// metadata view).
    pub fn join(
        &mut self,
        now: SimTime,
        group: &str,
        member: &str,
        topics: Vec<String>,
        partitions_of: &dyn Fn(&str) -> Vec<TopicPartition>,
    ) -> (u64, Vec<TopicPartition>) {
        self.stats.joins += 1;
        let g = self.groups.entry(group.to_string()).or_default();
        let is_new = !g.members.contains_key(member);
        let subs_changed = g.members.get(member).is_some_and(|m| m.topics != topics);
        match g.members.entry(member.to_string()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(Member {
                    topics,
                    last_seen: now,
                    assigned: Vec::new(),
                });
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let m = e.get_mut();
                m.topics = topics;
                m.last_seen = now;
            }
        }
        if is_new || subs_changed {
            g.generation += 1;
            self.stats.rebalances += 1;
            Self::reassign(g, partitions_of);
        }
        let g = self.groups.get(group).expect("just inserted");
        (
            g.generation,
            g.members
                .get(member)
                .expect("just inserted")
                .assigned
                .clone(),
        )
    }

    /// Processes a member heartbeat. `Ok` refreshes the session; a stale
    /// generation answers [`ErrorCode::RebalanceInProgress`] (rejoin to
    /// pick up the new assignment) and an unknown member
    /// [`ErrorCode::IllegalGeneration`] (evicted or coordinator restarted —
    /// rejoin from scratch).
    pub fn heartbeat(
        &mut self,
        now: SimTime,
        group: &str,
        member: &str,
        generation: u64,
    ) -> ErrorCode {
        let Some(g) = self.groups.get_mut(group) else {
            return ErrorCode::IllegalGeneration;
        };
        let Some(m) = g.members.get_mut(member) else {
            return ErrorCode::IllegalGeneration;
        };
        m.last_seen = now;
        if generation != g.generation {
            ErrorCode::RebalanceInProgress
        } else {
            ErrorCode::None
        }
    }

    /// Validates an offset commit's `(member, generation)` fence.
    pub fn check_commit(&mut self, group: &str, member: &str, generation: u64) -> ErrorCode {
        let current = self
            .groups
            .get(group)
            .filter(|g| g.members.contains_key(member))
            .map(|g| g.generation);
        if current == Some(generation) {
            ErrorCode::None
        } else {
            self.stats.fenced_commits += 1;
            ErrorCode::IllegalGeneration
        }
    }

    /// Evicts members silent for longer than `session_timeout` and, when
    /// any were, bumps the affected groups' generations and reassigns the
    /// orphaned partitions to the survivors. Called from the broker's
    /// heartbeat tick.
    pub fn sweep_sessions(
        &mut self,
        now: SimTime,
        session_timeout: SimDuration,
        partitions_of: &dyn Fn(&str) -> Vec<TopicPartition>,
    ) {
        for g in self.groups.values_mut() {
            let dead: Vec<String> = g
                .members
                .iter()
                .filter(|(_, m)| now.saturating_since(m.last_seen) > session_timeout)
                .map(|(id, _)| id.clone())
                .collect();
            if dead.is_empty() {
                continue;
            }
            for id in &dead {
                g.members.remove(id);
                self.stats.evictions += 1;
            }
            g.generation += 1;
            self.stats.rebalances += 1;
            Self::reassign(g, partitions_of);
        }
    }

    /// Sticky assignment: keep every member's still-valid partitions,
    /// hand unowned partitions to the least-loaded members, then move
    /// single partitions from the most- to the least-loaded member until
    /// the spread is at most one.
    fn reassign(g: &mut Group, partitions_of: &dyn Fn(&str) -> Vec<TopicPartition>) {
        if g.members.is_empty() {
            return;
        }
        // The full partition universe, deduplicated and ordered.
        let mut universe: Vec<TopicPartition> = Vec::new();
        for m in g.members.values() {
            for t in &m.topics {
                for tp in partitions_of(t) {
                    if !universe.contains(&tp) {
                        universe.push(tp);
                    }
                }
            }
        }
        universe.sort();
        // Sticky phase: a member keeps a partition it already owned if it
        // still subscribes to its topic and no earlier member kept it.
        let mut owner: BTreeMap<TopicPartition, String> = BTreeMap::new();
        for (id, m) in &g.members {
            for tp in &m.assigned {
                if universe.contains(tp) && m.subscribes(tp) && !owner.contains_key(tp) {
                    owner.insert(tp.clone(), id.clone());
                }
            }
        }
        // Placement phase: unowned partitions go to the least-loaded
        // subscribed member (ties break on member id for determinism).
        let load = |owner: &BTreeMap<TopicPartition, String>, id: &str| {
            owner.values().filter(|o| *o == id).count()
        };
        for tp in &universe {
            if owner.contains_key(tp) {
                continue;
            }
            let target = g
                .members
                .iter()
                .filter(|(_, m)| m.subscribes(tp))
                .map(|(id, _)| id.clone())
                .min_by_key(|id| (load(&owner, id), id.clone()));
            if let Some(id) = target {
                owner.insert(tp.clone(), id);
            }
        }
        // Balancing phase: cap the load spread at one by moving single
        // partitions from the heaviest to the lightest eligible member.
        loop {
            let mut loads: Vec<(String, usize)> = g
                .members
                .keys()
                .map(|id| (id.clone(), load(&owner, id)))
                .collect();
            loads.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
            let (light, light_n) = loads.first().cloned().expect("non-empty");
            let (heavy, heavy_n) = loads.last().cloned().expect("non-empty");
            if heavy_n <= light_n + 1 {
                break;
            }
            // Move the first movable partition the light member subscribes
            // to from the heavy member.
            let movable = universe.iter().find(|tp| {
                owner.get(*tp).is_some_and(|o| *o == heavy) && g.members[&light].subscribes(tp)
            });
            match movable {
                Some(tp) => {
                    owner.insert(tp.clone(), light.clone());
                }
                None => break, // subscriptions prevent further balancing
            }
        }
        for (id, m) in g.members.iter_mut() {
            m.assigned = universe
                .iter()
                .filter(|tp| owner.get(*tp).is_some_and(|o| o == id))
                .cloned()
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts(n: u32) -> impl Fn(&str) -> Vec<TopicPartition> {
        move |t: &str| (0..n).map(|p| TopicPartition::new(t, p)).collect()
    }

    #[test]
    fn join_assigns_all_partitions_to_a_single_member() {
        let mut c = GroupCoordinator::new();
        let (generation, assigned) = c.join(SimTime::ZERO, "g", "m0", vec!["t".into()], &parts(4));
        assert_eq!(generation, 1);
        assert_eq!(assigned.len(), 4);
    }

    #[test]
    fn second_join_rebalances_stickily() {
        let mut c = GroupCoordinator::new();
        let (_, first) = c.join(SimTime::ZERO, "g", "m0", vec!["t".into()], &parts(4));
        let (generation, second) = c.join(SimTime::ZERO, "g", "m1", vec!["t".into()], &parts(4));
        assert_eq!(generation, 2);
        assert_eq!(second.len(), 2);
        let kept = c.assignment("g", "m0");
        assert_eq!(kept.len(), 2);
        // Sticky: m0's final partitions are a subset of its original four.
        assert!(kept.iter().all(|tp| first.contains(tp)));
    }

    #[test]
    fn eviction_hands_partitions_to_survivors() {
        let mut c = GroupCoordinator::new();
        c.join(SimTime::ZERO, "g", "m0", vec!["t".into()], &parts(4));
        c.join(SimTime::ZERO, "g", "m1", vec!["t".into()], &parts(4));
        // m1 heartbeats; m0 goes silent past the timeout.
        c.heartbeat(SimTime::from_secs(5), "g", "m1", 2);
        c.sweep_sessions(SimTime::from_secs(6), SimDuration::from_secs(4), &parts(4));
        assert_eq!(c.members("g"), vec!["m1".to_string()]);
        assert_eq!(c.assignment("g", "m1").len(), 4, "survivor absorbed all");
        assert_eq!(c.generation("g"), 3);
        // The evicted member's commit is fenced at its old generation.
        assert_eq!(c.check_commit("g", "m0", 2), ErrorCode::IllegalGeneration);
        assert_eq!(c.check_commit("g", "m1", 3), ErrorCode::None);
    }

    #[test]
    fn stale_heartbeat_requests_rejoin() {
        let mut c = GroupCoordinator::new();
        c.join(SimTime::ZERO, "g", "m0", vec!["t".into()], &parts(2));
        c.join(SimTime::ZERO, "g", "m1", vec!["t".into()], &parts(2));
        // m0 still believes generation 1.
        assert_eq!(
            c.heartbeat(SimTime::ZERO, "g", "m0", 1),
            ErrorCode::RebalanceInProgress
        );
        assert_eq!(c.heartbeat(SimTime::ZERO, "g", "m0", 2), ErrorCode::None);
        assert_eq!(
            c.heartbeat(SimTime::ZERO, "g", "ghost", 2),
            ErrorCode::IllegalGeneration
        );
    }

    #[test]
    fn balancing_caps_the_spread_at_one() {
        let mut c = GroupCoordinator::new();
        for m in ["a", "b", "c"] {
            c.join(SimTime::ZERO, "g", m, vec!["t".into()], &parts(8));
        }
        let loads: Vec<usize> = ["a", "b", "c"]
            .iter()
            .map(|m| c.assignment("g", m).len())
            .collect();
        assert_eq!(loads.iter().sum::<usize>(), 8);
        let max = loads.iter().max().unwrap();
        let min = loads.iter().min().unwrap();
        assert!(max - min <= 1, "spread {loads:?}");
    }
}
