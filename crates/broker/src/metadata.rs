//! Cluster metadata: partition assignments and client/broker-side caches.

use std::collections::BTreeMap;

use s2g_proto::{
    BrokerId, ClientRpc, CorrelationId, LeaderEpoch, MetadataRecord, PartitionMetadata, TopicName,
    TopicPartition,
};
use s2g_sim::{Ctx, Message, ProcessId, SimDuration, TimerToken};

use crate::config::TopicSpec;

/// Plans replica assignments for a set of topics across a broker list.
///
/// The first replica of each partition is its *preferred leader*. For
/// partition 0 of a topic with a pinned `primary`, that broker leads;
/// remaining replicas (and further partitions) are assigned round-robin,
/// like Kafka's default assignment strategy. Each broker carries a rack
/// (in practice, the emulated host it runs on). Followers are chosen
/// walking cyclically from the leader, preferring brokers on racks not yet
/// holding a replica of the partition, so a single rack/host failure takes
/// out at most one replica whenever the rack count allows it. When racks
/// are all distinct this degenerates to the plain consecutive round-robin.
///
/// # Panics
///
/// Panics if a topic's replication factor exceeds the broker count or its
/// pinned primary is not in `brokers`.
pub(crate) fn plan_assignments_racked(
    topics: &[TopicSpec],
    brokers: &[(BrokerId, String)],
) -> Vec<PartitionMetadata> {
    let mut out = Vec::new();
    let mut rr = 0usize;
    for topic in topics {
        assert!(
            topic.replication as usize <= brokers.len(),
            "topic `{}` wants replication {} but only {} brokers exist",
            topic.name,
            topic.replication,
            brokers.len()
        );
        let name = TopicName::from(&topic.name);
        for p in 0..topic.partitions {
            let lead_idx = match (p, topic.primary) {
                (0, Some(primary)) => brokers
                    .iter()
                    .position(|(b, _)| b.0 == primary)
                    .unwrap_or_else(|| {
                        panic!(
                            "topic `{}` pins unknown primary broker {primary}",
                            topic.name
                        )
                    }),
                _ => {
                    let i = rr % brokers.len();
                    rr += 1;
                    i
                }
            };
            let mut chosen = vec![lead_idx];
            while chosen.len() < topic.replication as usize {
                let on_new_rack =
                    |i: &usize| !chosen.iter().any(|c| brokers[*c].1 == brokers[*i].1);
                // Cyclic-first candidate on an unused rack, else
                // cyclic-first unchosen broker.
                let candidates = (1..brokers.len()).map(|k| (lead_idx + k) % brokers.len());
                let pick = candidates
                    .clone()
                    .filter(|i| !chosen.contains(i))
                    .find(on_new_rack)
                    .or_else(|| candidates.clone().find(|i| !chosen.contains(i)))
                    .expect("replication bounded by broker count");
                chosen.push(pick);
            }
            let replicas: Vec<BrokerId> = chosen.iter().map(|i| brokers[*i].0).collect();
            out.push(PartitionMetadata {
                tp: TopicPartition::new(&name, p),
                leader: Some(replicas[0]),
                epoch: LeaderEpoch(0),
                isr: replicas.clone(),
                replicas,
            });
        }
    }
    out
}

/// [`plan_assignments_racked`] with every broker on its own rack: the
/// planner then always prefers the cyclically next broker, i.e. Kafka's
/// plain round-robin.
#[cfg(test)]
pub(crate) fn plan_assignments(
    topics: &[TopicSpec],
    brokers: &[BrokerId],
) -> Vec<PartitionMetadata> {
    let racked: Vec<(BrokerId, String)> =
        brokers.iter().map(|b| (*b, format!("b{}", b.0))).collect();
    plan_assignments_racked(topics, &racked)
}

/// A metadata cache held by brokers and clients, updated from controller
/// [`MetadataRecord`] pushes or full [`PartitionMetadata`] snapshots.
#[derive(Debug, Clone, Default)]
pub(crate) struct MetadataCache {
    version: u64,
    /// Topic → partition index → metadata. Nested (rather than keyed by
    /// `TopicPartition`) so the per-fetch and per-flush questions — how many
    /// partitions has this topic, which are they — are one `&str` lookup
    /// that allocates nothing and visits no other topic.
    topics: BTreeMap<TopicName, BTreeMap<u32, PartitionMetadata>>,
}

impl MetadataCache {
    /// An empty cache.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The version of the last applied update.
    #[cfg(test)]
    fn version(&self) -> u64 {
        self.version
    }

    /// Installs a full snapshot at `version` (used for metadata responses).
    pub(crate) fn install_snapshot(&mut self, snapshot: Vec<PartitionMetadata>, version: u64) {
        if version < self.version {
            return; // stale snapshot
        }
        self.topics.clear();
        for p in snapshot {
            let parts = self.topics.entry(p.tp.topic.clone()).or_default();
            parts.insert(p.tp.partition, p);
        }
        self.version = version;
    }

    /// Applies a delta of metadata records at `version`.
    pub(crate) fn apply(&mut self, records: &[MetadataRecord], version: u64) {
        if version <= self.version {
            return; // stale or duplicate delta
        }
        for r in records {
            if let MetadataRecord::PartitionChange {
                tp,
                leader,
                isr,
                epoch,
            } = r
            {
                let parts = self.topics.entry(tp.topic.clone()).or_default();
                let entry = parts
                    .entry(tp.partition)
                    .or_insert_with(|| PartitionMetadata {
                        tp: tp.clone(),
                        leader: None,
                        epoch: LeaderEpoch(0),
                        isr: Vec::new(),
                        replicas: Vec::new(),
                    });
                if *epoch >= entry.epoch {
                    entry.leader = *leader;
                    entry.isr = isr.clone();
                    entry.epoch = *epoch;
                }
            }
        }
        self.version = version;
    }

    /// The current leader of a partition, if known.
    pub(crate) fn leader(&self, tp: &TopicPartition) -> Option<BrokerId> {
        self.get(tp).and_then(|p| p.leader)
    }

    /// The cached epoch of a partition.
    pub(crate) fn epoch(&self, tp: &TopicPartition) -> LeaderEpoch {
        self.get(tp).map(|p| p.epoch).unwrap_or_default()
    }

    fn get(&self, tp: &TopicPartition) -> Option<&PartitionMetadata> {
        self.topics.get(&tp.topic)?.get(&tp.partition)
    }

    /// All partitions of a topic, in partition order.
    pub(crate) fn partitions_of(&self, topic: &str) -> impl Iterator<Item = &TopicPartition> + '_ {
        self.topics
            .get(topic)
            .into_iter()
            .flat_map(|parts| parts.values().map(|p| &p.tp))
    }

    /// How many partitions of a topic the cache knows.
    pub(crate) fn partition_count(&self, topic: &str) -> usize {
        self.topics.get(topic).map_or(0, BTreeMap::len)
    }

    /// A full snapshot for serving metadata responses, in `(topic,
    /// partition)` order.
    pub(crate) fn snapshot(&self) -> Vec<PartitionMetadata> {
        self.topics
            .values()
            .flat_map(BTreeMap::values)
            .cloned()
            .collect()
    }
}

/// Sends `msg` to `to` in `spare`, the box a reply came in, when there is
/// one: a request travels in its sender's last reply's box, as a reply
/// travels in its request's.
pub(crate) fn send_in<M: Message>(
    ctx: &mut Ctx<'_>,
    to: ProcessId,
    spare: &mut Option<Box<M>>,
    msg: M,
) {
    let boxed = in_box(spare, msg);
    ctx.send_boxed(to, boxed);
}

/// `msg` in `spare` when there is a box there, in a new one otherwise.
pub(crate) fn in_box<M>(spare: &mut Option<Box<M>>, msg: M) -> Box<M> {
    match spare.take() {
        Some(mut boxed) => {
            *boxed = msg;
            boxed
        }
        None => Box::new(msg),
    }
}

/// A client's metadata-bootstrap session: its cache, the broker endpoint it
/// refreshes from (rotating through the others when that one stops
/// answering), and the one refresh in flight. Producer and consumer clients
/// each embed one.
#[derive(Debug)]
pub(crate) struct MetadataSession {
    bootstrap: ProcessId,
    /// Every broker endpoint, in broker-id order — the rotation list used
    /// when the current bootstrap stops answering (broker crash/restart).
    candidates: Vec<ProcessId>,
    cache: MetadataCache,
    versions: u64,
    inflight: Option<(CorrelationId, TimerToken)>,
    /// How long a refresh may stay unanswered, and the owner's timer tag
    /// that says it did.
    timeout: SimDuration,
    timeout_tag: u64,
}

impl MetadataSession {
    pub(crate) fn new(
        bootstrap: ProcessId,
        brokers: &BTreeMap<BrokerId, ProcessId>,
        timeout: SimDuration,
        timeout_tag: u64,
    ) -> Self {
        MetadataSession {
            bootstrap,
            candidates: brokers.values().copied().collect(),
            cache: MetadataCache::new(),
            versions: 0,
            inflight: None,
            timeout,
            timeout_tag,
        }
    }

    pub(crate) fn cache(&self) -> &MetadataCache {
        &self.cache
    }

    /// The endpoint bootstrap traffic currently goes to.
    pub(crate) fn bootstrap(&self) -> ProcessId {
        self.bootstrap
    }

    pub(crate) fn candidates(&self) -> &[ProcessId] {
        &self.candidates
    }

    /// Requests a refresh unless one is in flight.
    pub(crate) fn request(&mut self, ctx: &mut Ctx<'_>) {
        if self.inflight.is_some() {
            return;
        }
        let corr = CorrelationId(ctx.next_corr());
        let timer = ctx.set_timer(self.timeout, self.timeout_tag);
        self.inflight = Some((corr, timer));
        ctx.send(self.bootstrap, ClientRpc::MetadataRequest { corr });
    }

    /// Installs the snapshot if `corr` answers this session's request;
    /// otherwise hands it back (it may belong to a co-embedded client).
    pub(crate) fn on_response(
        &mut self,
        ctx: &mut Ctx<'_>,
        corr: CorrelationId,
        partitions: Vec<PartitionMetadata>,
    ) -> Result<(), Vec<PartitionMetadata>> {
        match self.inflight {
            Some((c, timer)) if c == corr => {
                ctx.cancel_timer(timer);
                self.inflight = None;
                self.versions += 1;
                self.cache.install_snapshot(partitions, self.versions);
                Ok(())
            }
            _ => Err(partitions),
        }
    }

    /// The refresh went unanswered — the bootstrap may be down (broker
    /// crash). The owner requests again, against the next endpoint; a
    /// single-broker cluster retries the same endpoint until its restart
    /// answers.
    pub(crate) fn on_timeout(&mut self) {
        self.inflight = None;
        self.rotate();
    }

    /// Advances to the next broker endpoint for bootstrap traffic.
    pub(crate) fn rotate(&mut self) {
        if self.candidates.len() < 2 {
            return;
        }
        let cur = self
            .candidates
            .iter()
            .position(|p| *p == self.bootstrap)
            .unwrap_or(0);
        self.bootstrap = self.candidates[(cur + 1) % self.candidates.len()];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brokers(n: u32) -> Vec<BrokerId> {
        (0..n).map(BrokerId).collect()
    }

    #[test]
    fn partitions_of_is_the_topics_own_partitions_in_order() {
        // Topics that sort before, between and after, one a prefix of
        // another, and more than ten partitions (so "t-10" vs "t-2" string
        // order would show).
        let topics = vec![
            TopicSpec::new("t").partitions(12),
            TopicSpec::new("a").partitions(2),
            TopicSpec::new("t2").partitions(3),
            TopicSpec::new("z"),
        ];
        let mut cache = MetadataCache::new();
        cache.install_snapshot(plan_assignments(&topics, &brokers(3)), 1);
        let ids = |t: &str| -> Vec<u32> { cache.partitions_of(t).map(|tp| tp.partition).collect() };
        assert_eq!(ids("t"), (0..12).collect::<Vec<_>>());
        assert!(cache.partitions_of("t").all(|tp| tp.topic == "t"));
        assert_eq!(ids("t2"), vec![0, 1, 2]);
        assert_eq!(ids("a"), vec![0, 1]);
        assert_eq!(ids("z"), vec![0]);
        assert_eq!(ids("s"), Vec::<u32>::new());
        assert_eq!(ids("zz"), Vec::<u32>::new());
        assert_eq!(cache.partition_count("t"), 12);
        assert_eq!(cache.partition_count("t1"), 0);
        assert_eq!(cache.partition_count(""), 0);
    }

    #[test]
    fn assignment_respects_primary_and_replication() {
        let topics = vec![
            TopicSpec::new("ta").replication(3).primary(2),
            TopicSpec::new("tb").replication(3).primary(7),
        ];
        let plan = plan_assignments(&topics, &brokers(10));
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].leader, Some(BrokerId(2)));
        assert_eq!(
            plan[0].replicas,
            vec![BrokerId(2), BrokerId(3), BrokerId(4)]
        );
        assert_eq!(plan[1].leader, Some(BrokerId(7)));
        assert_eq!(
            plan[1].replicas,
            vec![BrokerId(7), BrokerId(8), BrokerId(9)]
        );
        assert_eq!(plan[0].isr, plan[0].replicas);
    }

    #[test]
    fn assignment_round_robins_unpinned() {
        let topics = vec![TopicSpec::new("t").partitions(4).replication(2)];
        let plan = plan_assignments(&topics, &brokers(3));
        let leaders: Vec<_> = plan.iter().map(|p| p.leader.unwrap().0).collect();
        assert_eq!(leaders, vec![0, 1, 2, 0]);
        // Replicas wrap around the broker list.
        assert_eq!(plan[2].replicas, vec![BrokerId(2), BrokerId(0)]);
    }

    #[test]
    fn racked_assignment_spreads_across_racks() {
        // Six brokers on three racks, two per rack. An RF=3 partition must
        // land one replica per rack even though the consecutive brokers
        // share racks.
        let racked: Vec<(BrokerId, String)> = (0..6)
            .map(|i| (BrokerId(i), format!("rack-{}", i / 2)))
            .collect();
        let topics = vec![TopicSpec::new("t").replication(3).primary(0)];
        let plan = plan_assignments_racked(&topics, &racked);
        assert_eq!(plan[0].leader, Some(BrokerId(0)));
        // b1 shares rack-0 with the leader, so the planner skips to b2
        // (rack-1) and then b4 (rack-2).
        assert_eq!(
            plan[0].replicas,
            vec![BrokerId(0), BrokerId(2), BrokerId(4)]
        );
        let racks: std::collections::BTreeSet<&str> = plan[0]
            .replicas
            .iter()
            .map(|b| racked[b.0 as usize].1.as_str())
            .collect();
        assert_eq!(racks.len(), 3, "one replica per rack");
    }

    #[test]
    fn racked_assignment_falls_back_when_racks_run_out() {
        // Three brokers on two racks with RF=3: the third replica must
        // reuse a rack, and the planner must still produce three distinct
        // brokers instead of stalling.
        let racked = vec![
            (BrokerId(0), "ra".to_string()),
            (BrokerId(1), "ra".to_string()),
            (BrokerId(2), "rb".to_string()),
        ];
        let topics = vec![TopicSpec::new("t").replication(3).primary(0)];
        let plan = plan_assignments_racked(&topics, &racked);
        assert_eq!(
            plan[0].replicas,
            vec![BrokerId(0), BrokerId(2), BrokerId(1)]
        );
    }

    #[test]
    #[should_panic(expected = "replication 4")]
    fn overreplication_panics() {
        let topics = vec![TopicSpec::new("t").replication(4)];
        plan_assignments(&topics, &brokers(3));
    }

    #[test]
    #[should_panic(expected = "unknown primary")]
    fn unknown_primary_panics() {
        let topics = vec![TopicSpec::new("t").primary(99)];
        plan_assignments(&topics, &brokers(3));
    }

    #[test]
    fn cache_applies_versioned_deltas() {
        let mut cache = MetadataCache::new();
        let tp = TopicPartition::new("t", 0);
        cache.apply(
            &[MetadataRecord::PartitionChange {
                tp: tp.clone(),
                leader: Some(BrokerId(1)),
                isr: vec![BrokerId(1)],
                epoch: LeaderEpoch(1),
            }],
            1,
        );
        assert_eq!(cache.leader(&tp), Some(BrokerId(1)));
        // A stale delta (same version) is ignored.
        cache.apply(
            &[MetadataRecord::PartitionChange {
                tp: tp.clone(),
                leader: Some(BrokerId(9)),
                isr: vec![],
                epoch: LeaderEpoch(9),
            }],
            1,
        );
        assert_eq!(cache.leader(&tp), Some(BrokerId(1)));
        // A newer delta with an older epoch is also ignored per-partition.
        cache.apply(
            &[MetadataRecord::PartitionChange {
                tp: tp.clone(),
                leader: Some(BrokerId(2)),
                isr: vec![],
                epoch: LeaderEpoch(0),
            }],
            2,
        );
        assert_eq!(cache.leader(&tp), Some(BrokerId(1)));
        assert_eq!(cache.version(), 2);
    }

    #[test]
    fn cache_snapshot_round_trip() {
        let plan = plan_assignments(&[TopicSpec::new("t").partitions(2)], &brokers(2));
        let mut cache = MetadataCache::new();
        cache.install_snapshot(plan.clone(), 5);
        assert_eq!(cache.version(), 5);
        assert_eq!(cache.snapshot(), plan);
        assert_eq!(cache.partition_count("t"), 2);
        assert_eq!(cache.partition_count("zz"), 0);
        // Older snapshot refused.
        cache.install_snapshot(vec![], 3);
        assert_eq!(cache.snapshot(), plan);
    }
}
