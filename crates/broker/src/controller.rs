//! Cluster controller: sessions, leader election, preferred-replica election.
//!
//! [`ClusterState`] is the controller's replicated state machine: partition
//! assignments plus broker liveness, mutated only by applying
//! [`MetadataRecord`]s. Pure functions compute the records for each decision
//! (broker failure, re-registration, ISR change, preferred election), so the
//! same logic drives both the ZooKeeper-style singleton controller
//! ([`ZkController`], applies records immediately) and the KRaft quorum
//! (commits records through Raft first).

use std::collections::BTreeMap;

use s2g_proto::{
    BrokerId, ControllerRpc, LeaderEpoch, MetadataRecord, PartitionMetadata, TopicPartition,
};
use s2g_sim::{downcast, Ctx, Message, Process, ProcessId, SimDuration, SimTime};

use crate::config::{ControllerConfig, TopicSpec};
#[cfg(test)]
use crate::metadata::plan_assignments;
use crate::metadata::plan_assignments_racked;

/// Controller-side state for one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionState {
    /// The partition.
    pub tp: TopicPartition,
    /// Replica assignment; `replicas[0]` is the preferred leader.
    pub replicas: Vec<BrokerId>,
    /// In-sync replicas.
    pub isr: Vec<BrokerId>,
    /// Current leader (None = offline partition).
    pub leader: Option<BrokerId>,
    /// Leadership epoch.
    pub epoch: LeaderEpoch,
}

/// The controller's replicated state machine.
#[derive(Debug, Clone, Default)]
pub struct ClusterState {
    partitions: BTreeMap<TopicPartition, PartitionState>,
    alive: BTreeMap<BrokerId, bool>,
}

impl ClusterState {
    /// An empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the initial state from an assignment plan, with all brokers
    /// alive.
    pub fn from_plan(plan: &[PartitionMetadata], brokers: &[BrokerId]) -> Self {
        let mut s = ClusterState::new();
        for b in brokers {
            s.alive.insert(*b, true);
        }
        for p in plan {
            s.partitions.insert(
                p.tp.clone(),
                PartitionState {
                    tp: p.tp.clone(),
                    replicas: p.replicas.clone(),
                    isr: p.isr.clone(),
                    leader: p.leader,
                    epoch: p.epoch,
                },
            );
        }
        s
    }

    /// Applies one committed metadata record.
    pub fn apply(&mut self, record: &MetadataRecord) {
        match record {
            MetadataRecord::TopicCreated { .. } => {}
            MetadataRecord::PartitionChange {
                tp,
                leader,
                isr,
                epoch,
            } => {
                if let Some(p) = self.partitions.get_mut(tp) {
                    if *epoch >= p.epoch {
                        p.leader = *leader;
                        p.isr = isr.clone();
                        p.epoch = *epoch;
                    }
                } else {
                    self.partitions.insert(
                        tp.clone(),
                        PartitionState {
                            tp: tp.clone(),
                            replicas: isr.clone(),
                            isr: isr.clone(),
                            leader: *leader,
                            epoch: *epoch,
                        },
                    );
                }
            }
            MetadataRecord::BrokerRegistered { broker } => {
                self.alive.insert(*broker, true);
            }
            MetadataRecord::BrokerFenced { broker } => {
                self.alive.insert(*broker, false);
            }
        }
    }

    /// Registers a partition assignment directly (initial plan application).
    pub fn install_assignment(&mut self, p: &PartitionMetadata) {
        self.partitions.insert(
            p.tp.clone(),
            PartitionState {
                tp: p.tp.clone(),
                replicas: p.replicas.clone(),
                isr: p.isr.clone(),
                leader: p.leader,
                epoch: p.epoch,
            },
        );
    }

    /// Whether a broker is currently considered alive.
    pub fn is_alive(&self, b: BrokerId) -> bool {
        self.alive.get(&b).copied().unwrap_or(false)
    }

    /// Partition state, if known.
    pub fn partition(&self, tp: &TopicPartition) -> Option<&PartitionState> {
        self.partitions.get(tp)
    }

    /// All partition states.
    pub fn partitions(&self) -> impl Iterator<Item = &PartitionState> {
        self.partitions.values()
    }

    /// The records to commit when `broker`'s session expires: fence it, and
    /// move leadership of every partition it led to the first *alive* ISR
    /// member. With unclean election disabled, a partition whose ISR was
    /// just the failed leader goes offline but keeps that leader in the
    /// ISR — it is the only replica with the full log, so it (and only it)
    /// is re-elected when it returns.
    pub fn changes_for_broker_failure(&self, broker: BrokerId) -> Vec<MetadataRecord> {
        let mut out = vec![MetadataRecord::BrokerFenced { broker }];
        for p in self.partitions.values() {
            if p.leader != Some(broker) {
                continue;
            }
            let new_isr: Vec<BrokerId> = p.isr.iter().copied().filter(|b| *b != broker).collect();
            let new_leader = p
                .replicas
                .iter()
                .copied()
                .find(|b| *b != broker && new_isr.contains(b) && self.is_alive(*b));
            out.push(MetadataRecord::PartitionChange {
                tp: p.tp.clone(),
                leader: new_leader,
                isr: if new_isr.is_empty() {
                    vec![broker]
                } else {
                    new_isr
                },
                epoch: p.epoch.next(),
            });
        }
        out
    }

    /// The records to commit when a fenced broker re-registers.
    pub fn changes_for_broker_registration(&self, broker: BrokerId) -> Vec<MetadataRecord> {
        vec![MetadataRecord::BrokerRegistered { broker }]
    }

    /// Validates and converts a leader's AlterIsr request into records.
    /// Rejected (empty) if the sender is not the current leader at the
    /// current epoch, or the proposed ISR is invalid.
    pub fn changes_for_alter_isr(
        &self,
        tp: &TopicPartition,
        from: BrokerId,
        epoch: LeaderEpoch,
        new_isr: &[BrokerId],
    ) -> Vec<MetadataRecord> {
        let Some(p) = self.partitions.get(tp) else {
            return vec![];
        };
        if p.leader != Some(from) || p.epoch != epoch {
            return vec![];
        }
        let sanitized: Vec<BrokerId> = new_isr
            .iter()
            .copied()
            .filter(|b| p.replicas.contains(b))
            .collect();
        if !sanitized.contains(&from) || sanitized == p.isr {
            return vec![];
        }
        vec![MetadataRecord::PartitionChange {
            tp: tp.clone(),
            leader: p.leader,
            isr: sanitized,
            epoch: p.epoch,
        }]
    }

    /// The records for a preferred-replica election sweep: every partition
    /// whose preferred leader (`replicas[0]`) is alive, in the ISR, and not
    /// currently leading gets its leadership handed back (Fig. 6d event 4).
    pub fn changes_for_preferred_election(&self) -> Vec<MetadataRecord> {
        let mut out = Vec::new();
        for p in self.partitions.values() {
            let Some(&preferred) = p.replicas.first() else {
                continue;
            };
            if p.leader != Some(preferred) && self.is_alive(preferred) && p.isr.contains(&preferred)
            {
                out.push(MetadataRecord::PartitionChange {
                    tp: p.tp.clone(),
                    leader: Some(preferred),
                    isr: p.isr.clone(),
                    epoch: p.epoch.next(),
                });
            }
        }
        out
    }

    /// Also re-elect leaders for offline partitions whose ISR regained an
    /// alive member (used after heals).
    pub fn changes_for_offline_recovery(&self) -> Vec<MetadataRecord> {
        let mut out = Vec::new();
        for p in self.partitions.values() {
            if p.leader.is_some() {
                continue;
            }
            let candidate = p
                .replicas
                .iter()
                .copied()
                .find(|b| p.isr.contains(b) && self.is_alive(*b));
            if let Some(leader) = candidate {
                out.push(MetadataRecord::PartitionChange {
                    tp: p.tp.clone(),
                    leader: Some(leader),
                    isr: p.isr.clone(),
                    epoch: p.epoch.next(),
                });
            }
        }
        out
    }

    /// The per-broker `LeaderAndIsr` instructions implied by a record batch.
    pub fn leader_and_isr_for(&self, records: &[MetadataRecord]) -> Vec<(BrokerId, ControllerRpc)> {
        let mut out = Vec::new();
        for r in records {
            let MetadataRecord::PartitionChange { tp, .. } = r else {
                continue;
            };
            let Some(p) = self.partitions.get(tp) else {
                continue;
            };
            for b in &p.replicas {
                out.push((
                    *b,
                    ControllerRpc::LeaderAndIsr {
                        tp: p.tp.clone(),
                        leader: p.leader,
                        isr: p.isr.clone(),
                        epoch: p.epoch,
                        replicas: p.replicas.clone(),
                    },
                ));
            }
        }
        out
    }

    /// A full-state `LeaderAndIsr` set for one broker (sent on registration
    /// so a healed broker learns its current roles).
    pub fn leader_and_isr_for_broker(&self, broker: BrokerId) -> Vec<ControllerRpc> {
        self.partitions
            .values()
            .filter(|p| p.replicas.contains(&broker))
            .map(|p| ControllerRpc::LeaderAndIsr {
                tp: p.tp.clone(),
                leader: p.leader,
                isr: p.isr.clone(),
                epoch: p.epoch,
                replicas: p.replicas.clone(),
            })
            .collect()
    }

    /// All partition-change records describing the current state (for full
    /// metadata pushes).
    pub fn snapshot_records(&self) -> Vec<MetadataRecord> {
        self.partitions
            .values()
            .map(|p| MetadataRecord::PartitionChange {
                tp: p.tp.clone(),
                leader: p.leader,
                isr: p.isr.clone(),
                epoch: p.epoch,
            })
            .collect()
    }
}

mod tags {
    pub const SESSION_CHECK: u64 = 1;
    pub const PREFERRED_CHECK: u64 = 2;
}

/// The initial replica placement, with rack/host labels steering it:
/// followers land on racks not already holding a replica whenever possible,
/// so one host failure costs at most one replica. Brokers missing from
/// `racks` count as a rack of their own.
pub(crate) fn plan_with_racks(
    topics: &[TopicSpec],
    brokers: &BTreeMap<BrokerId, ProcessId>,
    racks: &BTreeMap<BrokerId, String>,
) -> Vec<PartitionMetadata> {
    let rack_of = |b: &BrokerId| racks.get(b).cloned().unwrap_or_else(|| format!("b{}", b.0));
    let racked: Vec<(BrokerId, String)> = brokers.keys().map(|b| (*b, rack_of(b))).collect();
    plan_assignments_racked(topics, &racked)
}

/// The broker-facing half of a controller, written once for both
/// coordination modes: the replicated state machine with its decision log,
/// broker sessions and incarnations, and the `LeaderAndIsr`-then-
/// `MetadataUpdate` publish. *When* a decision takes effect — at once
/// ([`ZkController`]) or after a quorum commits it
/// ([`KraftController`](crate::KraftController)) — stays with each
/// controller.
pub(crate) struct BrokerFrontEnd {
    pub(crate) state: ClusterState,
    pub(crate) brokers: BTreeMap<BrokerId, ProcessId>,
    sessions: BTreeMap<BrokerId, SimTime>,
    /// Last seen process incarnation per broker; a jump means the broker
    /// bounced (possibly within its session timeout) and must be re-taught
    /// its roles.
    incarnations: BTreeMap<BrokerId, u64>,
    pub(crate) metadata_version: u64,
    /// Applied decisions for assertions: (time, record).
    pub(crate) decisions: Vec<(SimTime, MetadataRecord)>,
}

impl BrokerFrontEnd {
    pub(crate) fn new(state: ClusterState, brokers: BTreeMap<BrokerId, ProcessId>) -> Self {
        BrokerFrontEnd {
            state,
            brokers,
            sessions: BTreeMap::new(),
            incarnations: BTreeMap::new(),
            metadata_version: 0,
            decisions: Vec::new(),
        }
    }

    /// Until a broker's first heartbeat, treat its session as fresh.
    pub(crate) fn start_sessions(&mut self, now: SimTime) {
        self.sessions = self.brokers.keys().map(|b| (*b, now)).collect();
    }

    /// The alive brokers whose last heartbeat is older than `timeout`.
    pub(crate) fn expired_sessions(&self, now: SimTime, timeout: SimDuration) -> Vec<BrokerId> {
        self.sessions
            .iter()
            .filter(|(b, last)| self.state.is_alive(**b) && now.saturating_since(**last) > timeout)
            .map(|(b, _)| *b)
            .collect()
    }

    /// Applies decided records to the state machine and logs them.
    pub(crate) fn apply(&mut self, now: SimTime, records: &[MetadataRecord]) {
        for r in records {
            self.state.apply(r);
            self.decisions.push((now, r.clone()));
        }
    }

    /// Pushes `LeaderAndIsr` to the affected replica holders, then
    /// broadcasts the metadata delta to every broker.
    pub(crate) fn publish(&mut self, ctx: &mut Ctx<'_>, records: &[MetadataRecord]) {
        for (b, rpc) in self.state.leader_and_isr_for(records) {
            if let Some(&pid) = self.brokers.get(&b) {
                ctx.send(pid, rpc);
            }
        }
        self.metadata_version += 1;
        for &pid in self.brokers.values() {
            ctx.send(
                pid,
                ControllerRpc::MetadataUpdate {
                    records: records.to_vec(),
                    metadata_version: self.metadata_version,
                },
            );
        }
    }

    /// Records a heartbeat and returns `(was_dead, bounced)`. A fenced
    /// session *or* a bumped incarnation means the broker restarted: a
    /// bounce faster than the session timeout never expires the session, so
    /// the incarnation jump is the only signal that its roles must be
    /// re-taught.
    pub(crate) fn heartbeat(
        &mut self,
        now: SimTime,
        broker: BrokerId,
        incarnation: u64,
    ) -> (bool, bool) {
        self.sessions.insert(broker, now);
        let prev_inc = self.incarnations.insert(broker, incarnation).unwrap_or(0);
        (!self.state.is_alive(broker), incarnation > prev_inc)
    }

    /// Re-teaches a returned broker its roles and refreshes its metadata
    /// cache, from applied state.
    pub(crate) fn reteach(&mut self, ctx: &mut Ctx<'_>, broker: BrokerId) {
        let Some(&pid) = self.brokers.get(&broker) else {
            return;
        };
        for rpc in self.state.leader_and_isr_for_broker(broker) {
            ctx.send(pid, rpc);
        }
        self.metadata_version += 1;
        ctx.send(
            pid,
            ControllerRpc::MetadataUpdate {
                records: self.state.snapshot_records(),
                metadata_version: self.metadata_version,
            },
        );
    }

    pub(crate) fn ack_heartbeat(&self, ctx: &mut Ctx<'_>, broker: BrokerId) {
        if let Some(&pid) = self.brokers.get(&broker) {
            ctx.send(
                pid,
                ControllerRpc::HeartbeatAck {
                    metadata_version: self.metadata_version,
                    fenced: !self.state.is_alive(broker),
                },
            );
        }
    }
}

/// The ZooKeeper-style singleton controller process.
///
/// Tracks broker sessions via heartbeats, expires them after the session
/// timeout, elects replacement leaders from the ISR, pushes `LeaderAndIsr`
/// and metadata updates to brokers, and periodically runs preferred-replica
/// election. Decisions apply immediately (no quorum), which together with
/// broker-side local ISR shrinking reproduces the ZooKeeper-era silent-loss
/// behavior of Fig. 6b.
pub struct ZkController {
    cfg: ControllerConfig,
    front: BrokerFrontEnd,
    initial_plan: Vec<PartitionMetadata>,
}

impl ZkController {
    /// Creates a controller for a static broker membership and topic list.
    pub fn new(
        cfg: ControllerConfig,
        brokers: BTreeMap<BrokerId, ProcessId>,
        topics: &[TopicSpec],
    ) -> Self {
        Self::with_racks(cfg, brokers, topics, &BTreeMap::new())
    }

    /// Like [`ZkController::new`], but with rack/host labels steering
    /// replica placement: followers land on racks not already holding a
    /// replica whenever possible, so one host failure costs at most one
    /// replica. Brokers missing from `racks` count as a rack of their own.
    pub fn with_racks(
        cfg: ControllerConfig,
        brokers: BTreeMap<BrokerId, ProcessId>,
        topics: &[TopicSpec],
        racks: &BTreeMap<BrokerId, String>,
    ) -> Self {
        let ids: Vec<BrokerId> = brokers.keys().copied().collect();
        let plan = plan_with_racks(topics, &brokers, racks);
        ZkController {
            cfg,
            front: BrokerFrontEnd::new(ClusterState::from_plan(&plan, &ids), brokers),
            initial_plan: plan,
        }
    }

    /// The controller's current view of the cluster.
    pub fn state(&self) -> &ClusterState {
        &self.front.state
    }

    /// Committed decisions, in order.
    pub fn decisions(&self) -> &[(SimTime, MetadataRecord)] {
        &self.front.decisions
    }

    /// Decides `records`: no quorum, so they apply and publish at once.
    fn commit(&mut self, ctx: &mut Ctx<'_>, records: Vec<MetadataRecord>) {
        if records.is_empty() {
            return;
        }
        self.front.apply(ctx.now(), &records);
        self.front.publish(ctx, &records);
    }
}

impl Process for ZkController {
    fn name(&self) -> &str {
        "zk-controller"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.front.start_sessions(ctx.now());
        // Install the initial assignment and tell everyone.
        let records: Vec<MetadataRecord> = self.front.state.snapshot_records();
        for p in &self.initial_plan {
            self.front.state.install_assignment(p);
        }
        self.commit(ctx, records);
        ctx.set_timer(self.cfg.session_check_interval, tags::SESSION_CHECK);
        ctx.set_timer(self.cfg.preferred_election_delay, tags::PREFERRED_CHECK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        let Ok(rpc) = downcast::<ControllerRpc>(msg) else {
            return;
        };
        match *rpc {
            ControllerRpc::Heartbeat {
                broker,
                incarnation,
            } => {
                let (was_dead, bounced) = self.front.heartbeat(ctx.now(), broker, incarnation);
                if was_dead {
                    // Re-registration: revive it in the replicated state.
                    let recs = self.front.state.changes_for_broker_registration(broker);
                    self.commit(ctx, recs);
                }
                if was_dead || bounced {
                    self.front.reteach(ctx, broker);
                    // Recover any offline partitions it can serve again.
                    let recover = self.front.state.changes_for_offline_recovery();
                    self.commit(ctx, recover);
                }
                self.front.ack_heartbeat(ctx, broker);
            }
            ControllerRpc::AlterIsr {
                tp,
                from,
                epoch,
                new_isr,
            } => {
                let state = &self.front.state;
                let records = state.changes_for_alter_isr(&tp, from, epoch, &new_isr);
                self.commit(ctx, records);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            tags::SESSION_CHECK => {
                let timeout = self.cfg.session_timeout;
                for b in self.front.expired_sessions(ctx.now(), timeout) {
                    let records = self.front.state.changes_for_broker_failure(b);
                    self.commit(ctx, records);
                }
                ctx.set_timer(self.cfg.session_check_interval, tags::SESSION_CHECK);
            }
            tags::PREFERRED_CHECK => {
                let records = self.front.state.changes_for_preferred_election();
                self.commit(ctx, records);
                let recover = self.front.state.changes_for_offline_recovery();
                self.commit(ctx, recover);
                ctx.set_timer(self.cfg.preferred_election_delay, tags::PREFERRED_CHECK);
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for ZkController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZkController")
            .field("brokers", &self.front.brokers.len())
            .field("metadata_version", &self.front.metadata_version)
            .field("decisions", &self.front.decisions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_broker_state() -> ClusterState {
        let plan = plan_assignments(
            &[TopicSpec::new("ta").replication(3).primary(0)],
            &[BrokerId(0), BrokerId(1), BrokerId(2)],
        );
        ClusterState::from_plan(&plan, &[BrokerId(0), BrokerId(1), BrokerId(2)])
    }

    #[test]
    fn failure_moves_leadership_to_isr_member() {
        let s = three_broker_state();
        let recs = s.changes_for_broker_failure(BrokerId(0));
        assert_eq!(recs.len(), 2);
        assert_eq!(
            recs[0],
            MetadataRecord::BrokerFenced {
                broker: BrokerId(0)
            }
        );
        match &recs[1] {
            MetadataRecord::PartitionChange {
                leader, isr, epoch, ..
            } => {
                assert_eq!(*leader, Some(BrokerId(1)));
                assert!(!isr.contains(&BrokerId(0)));
                assert_eq!(*epoch, LeaderEpoch(1));
            }
            other => panic!("unexpected record {other:?}"),
        }
    }

    #[test]
    fn failure_with_empty_isr_goes_offline() {
        let mut s = three_broker_state();
        // Shrink ISR to just the leader, then fail the leader.
        let tp = TopicPartition::new("ta", 0);
        s.apply(&MetadataRecord::PartitionChange {
            tp: tp.clone(),
            leader: Some(BrokerId(0)),
            isr: vec![BrokerId(0)],
            epoch: LeaderEpoch(0),
        });
        let recs = s.changes_for_broker_failure(BrokerId(0));
        match &recs[1] {
            MetadataRecord::PartitionChange { leader, .. } => assert_eq!(*leader, None),
            other => panic!("unexpected record {other:?}"),
        }
    }

    #[test]
    fn alter_isr_validates_sender_and_epoch() {
        let s = three_broker_state();
        let tp = TopicPartition::new("ta", 0);
        // Valid shrink by the leader.
        let recs = s.changes_for_alter_isr(&tp, BrokerId(0), LeaderEpoch(0), &[BrokerId(0)]);
        assert_eq!(recs.len(), 1);
        // Wrong sender.
        assert!(s
            .changes_for_alter_isr(&tp, BrokerId(1), LeaderEpoch(0), &[BrokerId(1)])
            .is_empty());
        // Stale epoch.
        assert!(s
            .changes_for_alter_isr(&tp, BrokerId(0), LeaderEpoch(9), &[BrokerId(0)])
            .is_empty());
        // ISR not containing the leader.
        assert!(s
            .changes_for_alter_isr(&tp, BrokerId(0), LeaderEpoch(0), &[BrokerId(1)])
            .is_empty());
        // No-op ISR.
        assert!(s
            .changes_for_alter_isr(
                &tp,
                BrokerId(0),
                LeaderEpoch(0),
                &[BrokerId(0), BrokerId(1), BrokerId(2)]
            )
            .is_empty());
    }

    #[test]
    fn preferred_election_restores_original_leader() {
        let mut s = three_broker_state();
        let tp = TopicPartition::new("ta", 0);
        // Fail broker 0, leadership moves to 1.
        for r in s.changes_for_broker_failure(BrokerId(0)) {
            s.apply(&r);
        }
        assert_eq!(s.partition(&tp).unwrap().leader, Some(BrokerId(1)));
        // Preferred election does nothing while 0 is fenced / out of ISR.
        assert!(s.changes_for_preferred_election().is_empty());
        // 0 re-registers and rejoins the ISR.
        s.apply(&MetadataRecord::BrokerRegistered {
            broker: BrokerId(0),
        });
        let p = s.partition(&tp).unwrap().clone();
        s.apply(&MetadataRecord::PartitionChange {
            tp: tp.clone(),
            leader: p.leader,
            isr: vec![BrokerId(1), BrokerId(2), BrokerId(0)],
            epoch: p.epoch,
        });
        let recs = s.changes_for_preferred_election();
        assert_eq!(recs.len(), 1);
        match &recs[0] {
            MetadataRecord::PartitionChange { leader, .. } => {
                assert_eq!(*leader, Some(BrokerId(0)));
            }
            other => panic!("unexpected record {other:?}"),
        }
    }

    #[test]
    fn offline_recovery_elects_when_possible() {
        let mut s = three_broker_state();
        let tp = TopicPartition::new("ta", 0);
        s.apply(&MetadataRecord::PartitionChange {
            tp: tp.clone(),
            leader: None,
            isr: vec![BrokerId(2)],
            epoch: LeaderEpoch(3),
        });
        let recs = s.changes_for_offline_recovery();
        assert_eq!(recs.len(), 1);
        match &recs[0] {
            MetadataRecord::PartitionChange { leader, epoch, .. } => {
                assert_eq!(*leader, Some(BrokerId(2)));
                assert_eq!(*epoch, LeaderEpoch(4));
            }
            other => panic!("unexpected record {other:?}"),
        }
    }

    #[test]
    fn leader_and_isr_targets_all_replicas() {
        let s = three_broker_state();
        let recs = s.snapshot_records();
        let msgs = s.leader_and_isr_for(&recs);
        assert_eq!(msgs.len(), 3, "one instruction per replica holder");
    }

    #[test]
    fn epoch_guard_in_apply() {
        let mut s = three_broker_state();
        let tp = TopicPartition::new("ta", 0);
        s.apply(&MetadataRecord::PartitionChange {
            tp: tp.clone(),
            leader: Some(BrokerId(2)),
            isr: vec![BrokerId(2)],
            epoch: LeaderEpoch(5),
        });
        // Older epoch must not clobber.
        s.apply(&MetadataRecord::PartitionChange {
            tp: tp.clone(),
            leader: Some(BrokerId(1)),
            isr: vec![BrokerId(1)],
            epoch: LeaderEpoch(2),
        });
        assert_eq!(s.partition(&tp).unwrap().leader, Some(BrokerId(2)));
    }
}
