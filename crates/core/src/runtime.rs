//! The runtime half of a scenario, in its three steps: build the emulated
//! network and every process from the resolved plan, drive the simulation
//! through the fault plan's segments, harvest the report.
//!
//! Everything derived (effective configs, topics, stage and host layout,
//! fault targets) is read from the plan [`Scenario::resolve`] produced;
//! the `Scenario` itself is kept only for what is not data — plan
//! factories, source and sink specs — and for the plain settings (seed,
//! server and memory model, link specs) nothing is derived from.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

use s2g_analyze::{ComponentRef, FaultFacts, FaultKind, FaultTarget, ScenarioFacts};
use s2g_broker::{
    Broker, BrokerRecoveryInfo, BrokerStats, ConsumerClient, ConsumerProcess, ConsumerStats,
    CoordinationMode, KraftController, ProducerClient, ProducerProcess, ProducerStats, TopicSpec,
    ZkController, BROKER_LOG_CORR_BASE,
};
use s2g_net::{FaultInjector, NetHandle, NetTransport, Network, NodeKind, Topology};
use s2g_proto::{BrokerId, ProducerId, TopicPartition};
use s2g_sim::{
    CpuHandle, HostCpu, LedgerHandle, MemLedger, MemSlot, Process, ProcessId, Sim, SimDuration,
    SimTime,
};
use s2g_spe::{
    BatchMetric, CheckpointStats, DurableBackend, Event, SpeSink, SpeWorker, StageInstanceCfg,
};
use s2g_store::{blob_map, BlobClient, BlobMap, StoreServer};
use s2g_telemetry::Telemetry;

use super::{
    instance_name, shuffle_topic, worker_host, worker_name, DurableStoreSpec, Scenario, SpeSinkSpec,
};
use crate::monitor::{MonitorCore, MonitorHandle, MonitoredSink};
use crate::report::{
    BrokerRecoveryReport, BrokerReport, ClientRecoveryReport, ConsumerReport, ProducerReport,
    RecoveryReport, RunReport, RunResult, SpeReport, StoreRecoveryReport, StoreReport,
};
use crate::resources::{cpu_gauges, mem_gauge, throughput_gauges};

/// What the initial spawn and every respawn of a component share: the
/// run-wide handles and the pid layout its clients are wired to.
struct Wiring {
    controller_pids: Vec<ProcessId>,
    brokers: BTreeMap<BrokerId, ProcessId>,
    /// Every store group's member pids in member-index order, by store
    /// declaration.
    store_groups: Vec<Vec<ProcessId>>,
    ledger: LedgerHandle,
    tele: Telemetry,
    monitor: MonitorHandle,
    /// The run's in-memory blobs, outside every process's failure domain:
    /// the brokers' always-synced "local disk" (`with_recoverable_broker`,
    /// keys under `brokerlog/`) and the job manager's heap of checkpoints
    /// (`with_checkpointing`, keys under `ckpt/`).
    blobs: BlobMap,
}

/// One crashable component — broker, store replica, SPE worker, producer
/// or consumer stub: where its process lives and what the fault plan has
/// done to it. A respawn reuses the slot's pid, host and memory slot
/// around a fresh process.
struct Slot {
    /// Process name, also the component's trace scope.
    name: String,
    host: String,
    pid: ProcessId,
    mem: MemSlot,
    /// Respawn count; 0 is the initial spawn.
    incarnation: u64,
    crashed_at: Option<SimTime>,
    restarted_at: Option<SimTime>,
    /// The killed process's remains, kept until a restart so the report
    /// can still surface its pre-crash metrics.
    corpse: Option<Box<dyn Process>>,
}

impl Slot {
    fn client_recovery(&self) -> Option<ClientRecoveryReport> {
        self.crashed_at.map(|crashed_at| ClientRecoveryReport {
            crashed_at,
            restarted_at: self.restarted_at,
        })
    }
}

/// The component's process: live, or — crashed and never restarted, so
/// absent from the process table — its corpse.
fn component<'a, T: Process + 'static>(sim: &'a mut Sim, slot: &'a mut Slot) -> &'a mut T {
    let found = match sim.process_mut::<T>(slot.pid) {
        Some(live) => Some(live),
        None => slot
            .corpse
            .as_mut()
            .and_then(|c| (c.as_mut() as &mut dyn Any).downcast_mut::<T>()),
    };
    found.unwrap_or_else(|| panic!("`{}` is neither live nor a corpse", slot.name))
}

/// A scenario being executed.
pub(super) struct Runtime {
    spec: Scenario,
    plan: ScenarioFacts,
    sim: Sim,
    net: NetHandle,
    cpus: BTreeMap<String, CpuHandle>,
    wiring: Wiring,
    slots: BTreeMap<ComponentRef, Slot>,
    /// Per job, the parallelism each stage ran at before the in-flight
    /// restart — the instance set whose chains a respawn restores from.
    /// (`plan.jobs[j].stage_par` is the current one; a rescale moves it.)
    prev_stage_par: Vec<Vec<usize>>,
    /// Baseline for the zero-copy regression gate: any delta over the run
    /// means some path deep-copied a shared `RecordBatch`.
    batch_copies_before: u64,
}

impl Runtime {
    /// Instantiates the network and spawns every process. Seeded runs
    /// depend on the spawn order (controllers, brokers, stores, SPE
    /// instances, producers, consumers, fault injector, telemetry sampler)
    /// and on the memory-ledger registration order.
    pub(super) fn build(spec: Scenario, plan: ScenarioFacts) -> Runtime {
        let batch_copies_before = s2g_proto::shared_batch_copies();
        let topo = build_topology(&spec, &plan);
        let nodes_of = |kind: NodeKind| topo.nodes().filter(move |(_, n)| n.kind == kind);
        let cpus: BTreeMap<String, CpuHandle> = nodes_of(NodeKind::Host)
            .map(|(_, node)| {
                let speed = spec.host_cpu_pct.get(&node.name).copied().unwrap_or(100.0) / 100.0;
                // The sampler reads one bin per tick; unsampled, nobody
                // reads them and one bin holds the whole run.
                let sampled = spec.telemetry.then_some(spec.telemetry_interval);
                let bin = sampled.unwrap_or(SimDuration::MAX);
                let cpu = HostCpu::shared(node.name.clone(), spec.server.cores, speed, bin);
                (node.name.clone(), cpu)
            })
            .collect();
        let n_switches = nodes_of(NodeKind::Switch).count() as u64;
        let baseline = spec.mem_model.os_base + spec.mem_model.per_switch * n_switches;
        let net = Network::with_config(topo, spec.net_cfg).into_handle();
        let mut sim = Sim::new(spec.seed);
        sim.set_transport(Box::new(NetTransport(net.clone())));
        sim.set_event_limit(spec.event_limit);
        // One shared registry/series/tracer handle every component records
        // into, on its first spawn and on every respawn alike.
        let tele = Telemetry::new();
        tele.set_trace_enabled(spec.telemetry_trace);

        // Deterministic pid layout: controllers, brokers, store replicas.
        let n_ctrl = plan.controller_hosts.len() as u32;
        let n_brokers = plan.brokers.len() as u32;
        let first_store = n_ctrl + n_brokers;
        let replication = plan.store_replication as u32;
        let wiring = Wiring {
            controller_pids: (0..n_ctrl).map(ProcessId).collect(),
            brokers: (0..n_brokers)
                .map(|i| (BrokerId(i), ProcessId(n_ctrl + i)))
                .collect(),
            store_groups: (0..plan.store_hosts.len() as u32)
                .map(|g| {
                    let first = first_store + g * replication;
                    (first..first + replication).map(ProcessId).collect()
                })
                .collect(),
            ledger: MemLedger::new(baseline).into_handle(),
            tele,
            monitor: MonitorCore::new_handle(spec.capture_records),
            blobs: blob_map(),
        };
        let mut rt = Runtime {
            prev_stage_par: plan.jobs.iter().map(|j| j.stage_par.clone()).collect(),
            spec,
            plan,
            sim,
            net,
            cpus,
            wiring,
            slots: BTreeMap::new(),
            batch_copies_before,
        };
        rt.spawn_controllers();
        let plan = &rt.plan;
        let components: Vec<ComponentRef> = (0..plan.brokers.len())
            .map(ComponentRef::Broker)
            .chain((0..plan.store_replicas.len()).map(ComponentRef::Store))
            .chain(plan.jobs.iter().enumerate().flat_map(|(j, job)| {
                (job.stage_par.iter().enumerate()).flat_map(move |(s, par)| {
                    (0..*par).map(move |i| ComponentRef::Instance(j, s, i))
                })
            }))
            .chain((0..plan.producers.len()).map(ComponentRef::Producer))
            .chain((0..plan.consumers.len()).map(ComponentRef::Consumer))
            .collect();
        for key in components {
            rt.spawn(key, None);
        }
        rt.spawn_observers();
        rt
    }

    /// Places `pid` on `host`.
    fn place(&mut self, pid: ProcessId, host: &str) {
        let mut net = self.net.borrow_mut();
        let node = net
            .topology()
            .lookup(host)
            .unwrap_or_else(|| panic!("host `{host}` missing from topology"));
        net.place(pid, node);
    }

    /// The controllers own topic creation. Each broker's rack is the host
    /// it is placed on, so a partition's replicas spread across hosts
    /// before reusing one (Kafka's `broker.rack`).
    fn spawn_controllers(&mut self) {
        let plan = &self.plan;
        let topics: Vec<TopicSpec> = (plan.topics.iter())
            .map(|t| TopicSpec {
                name: t.name.clone(),
                partitions: t.partitions,
                replication: t.replication,
                primary: t.primary,
            })
            .collect();
        let racks: BTreeMap<BrokerId, String> = (plan.brokers.iter().enumerate())
            .map(|(i, b)| (BrokerId(i as u32), b.host.clone()))
            .collect();
        let brokers = &self.wiring.brokers;
        let pids = &self.wiring.controller_pids;
        let controllers: Vec<(Box<dyn Process>, String)> = match self.spec.mode {
            CoordinationMode::Zk => {
                let cfg = plan.controller.clone();
                let zk = ZkController::with_racks(cfg, brokers.clone(), &topics, &racks);
                vec![(Box::new(zk), "zk-controller".to_string())]
            }
            CoordinationMode::Kraft => {
                let quorum: BTreeMap<BrokerId, ProcessId> = (pids.iter().enumerate())
                    .map(|(i, pid)| (BrokerId(100_000 + i as u32), *pid))
                    .collect();
                (quorum.keys())
                    .zip(0..)
                    .map(|(me, i)| {
                        let kraft: Box<dyn Process> = Box::new(KraftController::with_racks(
                            *me,
                            quorum.clone(),
                            brokers.clone(),
                            plan.controller.clone(),
                            topics.clone(),
                            racks.clone(),
                        ));
                        (kraft, format!("kraft-{i}"))
                    })
                    .collect()
            }
        };
        for (i, (controller, mem_label)) in controllers.into_iter().enumerate() {
            let pid = self.sim.spawn(controller);
            debug_assert_eq!(pid, self.wiring.controller_pids[i]);
            let host = self.plan.controller_hosts[i].clone();
            self.place(pid, &host);
            let base = self.spec.mem_model.controller;
            self.wiring.ledger.borrow_mut().register(mem_label, base);
        }
    }

    /// Spawns one component into a fresh slot: at time zero while building,
    /// or at `at` when a rescale grows a stage mid-run (the new instance
    /// recovers its share of the old instances' state).
    fn spawn(&mut self, key: ComponentRef, at: Option<SimTime>) {
        let (plan, mem) = (&self.plan, &self.spec.mem_model);
        let (name, host, mem_base) = match key {
            ComponentRef::Broker(i) => (
                format!("broker-{i}"),
                plan.brokers[i].host.clone(),
                mem.broker,
            ),
            ComponentRef::Store(i) => {
                let host = plan.store_replicas[i].host.clone();
                (format!("store-{host}"), host, mem.store)
            }
            ComponentRef::Instance(j, s, i) => {
                let job = &plan.jobs[j];
                (worker_name(job, s, i), worker_host(job, s, i), mem.spe)
            }
            ComponentRef::Producer(i) => {
                let p = &plan.producers[i];
                let heap = (p.cfg.buffer_memory as f64 * mem.producer_heap_factor) as u64;
                (p.name.clone(), p.host.clone(), mem.producer_base + heap)
            }
            ComponentRef::Consumer(i) => {
                let c = &plan.consumers[i];
                (c.name.clone(), c.host.clone(), mem.consumer)
            }
            ComponentRef::Job(_) => unreachable!("a job is spawned instance by instance"),
        };
        let mem_label = match key {
            ComponentRef::Instance(..) => format!("spe-{name}"),
            _ => name.clone(),
        };
        let mut slot = Slot {
            name,
            host,
            pid: ProcessId(0),
            mem: (self.wiring.ledger.borrow_mut()).register(mem_label, mem_base),
            incarnation: u64::from(at.is_some()),
            crashed_at: None,
            restarted_at: None,
            corpse: None,
        };
        let process = self.build_process(key, &slot, at.is_some());
        slot.pid = self.sim.spawn_at(at.unwrap_or(SimTime::ZERO), process);
        debug_assert!(
            match key {
                ComponentRef::Broker(i) => slot.pid == self.wiring.brokers[&BrokerId(i as u32)],
                ComponentRef::Store(i) => {
                    let r = &self.plan.store_replicas[i];
                    slot.pid == self.wiring.store_groups[r.group][r.replica as usize]
                }
                _ => true,
            },
            "`{}` spawned off the pid layout its clients were wired to",
            slot.name
        );
        if let Some(cpu) = self.cpus.get(&slot.host) {
            self.sim.attach_cpu(slot.pid, cpu.clone());
        }
        self.place(slot.pid, &slot.host);
        self.slots.insert(key, slot);
    }

    /// Fault injector (network-level events only; this orchestrator owns
    /// the process table and applies the process-level ones), then the
    /// telemetry sampler with the resource model as its sampled gauges:
    /// memory, server CPU, per-host CPU, watched ports. It comes after
    /// every other process so toggling it never shifts an existing pid,
    /// and with it the deterministic event order of a seeded run.
    fn spawn_observers(&mut self) {
        let spec = &mut self.spec;
        let faults = std::mem::take(&mut spec.faults);
        if faults.has_network_events() {
            (self.sim).spawn(Box::new(FaultInjector::new(self.net.clone(), faults)));
        }
        if spec.telemetry {
            let mut gauges = vec![mem_gauge(self.wiring.ledger.clone())];
            gauges.extend(cpu_gauges(&self.cpus, spec.server.cores));
            let watched = spec.watch_tx.iter();
            gauges.extend(watched.flat_map(|node| throughput_gauges(&self.net, node)));
            let sampler = (self.wiring.tele).sampler(spec.telemetry_interval, gauges);
            self.sim.spawn(Box::new(sampler));
        }
    }

    /// A client on a broker's host bootstraps from that broker, any other
    /// from broker 0.
    fn bootstrap_for(&self, host: &str) -> ProcessId {
        let local = self.plan.brokers.iter().position(|b| b.host == host);
        self.wiring.brokers[&BrokerId(local.unwrap_or(0) as u32)]
    }

    /// Member pids of the store group declared on `host`.
    fn store_group_on(&self, host: &str) -> &[ProcessId] {
        let group = (self.plan.store_hosts.iter())
            .rposition(|h| h == host)
            .expect("validated store host");
        &self.wiring.store_groups[group]
    }

    /// What the component in `slot` keeps a durability tier's blobs
    /// through, built by the tier's constructor for the medium `tier`
    /// names: `shared` over the run's blob map, or `group` over the store
    /// group's members under the slot's incarnation.
    fn blob_store<T>(
        &self,
        tier: &DurableStoreSpec,
        slot: &Slot,
        shared: impl FnOnce(BlobMap) -> T,
        group: impl FnOnce(Vec<ProcessId>, u64) -> T,
    ) -> T {
        match tier {
            DurableStoreSpec::InMemory => shared(self.wiring.blobs.clone()),
            DurableStoreSpec::StoreOn { host } => {
                group(self.store_group_on(host).to_vec(), slot.incarnation)
            }
        }
    }

    /// Builds the process of one component, for its first spawn or — with
    /// `recover` — for a respawn into the same slot.
    fn build_process(&self, key: ComponentRef, slot: &Slot, recover: bool) -> Box<dyn Process> {
        let (plan, w) = (&self.plan, &self.wiring);
        match key {
            ComponentRef::Broker(i) => {
                let mut b = Broker::new(
                    BrokerId(i as u32),
                    plan.brokers[i].cfg.clone(),
                    self.spec.mode,
                    w.controller_pids.clone(),
                    w.brokers.clone(),
                );
                b.set_mem_slot(w.ledger.clone(), slot.mem);
                b.set_incarnation(slot.incarnation);
                b.set_telemetry(w.tele.clone());
                match &self.spec.broker_durability {
                    Some(tier) => {
                        let group = |g, inc| BlobClient::new(g, BROKER_LOG_CORR_BASE, inc);
                        let store = self.blob_store(tier, slot, BlobClient::shared, group);
                        b.set_durability(store, recover);
                    }
                    // Without a durable log the broker restarts empty (the
                    // data-loss contrast); still record restart metrics.
                    None if recover => b.mark_restarted(),
                    None => {}
                }
                Box::new(b)
            }
            ComponentRef::Store(i) => {
                let replica = &plan.store_replicas[i];
                let mut st = StoreServer::new(self.spec.stores[replica.group].1.clone());
                st.set_name(slot.name.clone());
                st.set_mem_slot(w.ledger.clone(), slot.mem);
                st.set_incarnation(slot.incarnation);
                st.set_telemetry(w.tele.clone());
                let group = &w.store_groups[replica.group];
                if group.len() > 1 {
                    // A respawn rejoins recovering: it fetches the op log
                    // from a ready member before serving again.
                    st.set_group(group.clone(), replica.replica as usize, recover);
                }
                Box::new(st)
            }
            ComponentRef::Instance(j, s, i) => Box::new(self.build_worker(j, s, i, slot, recover)),
            // A respawned producer keeps its id and — deliberately — its
            // epoch, and restarts its source from record zero: the broker's
            // idempotent dedup recognizes the already-appended `(epoch,
            // seq)` prefix and acknowledges it without second copies, so
            // the log converges to the no-fault contents.
            ComponentRef::Producer(i) => {
                let p = &plan.producers[i];
                let bootstrap = self.bootstrap_for(&p.host);
                let id = ProducerId(i as u32);
                let mut client =
                    ProducerClient::new(id, p.cfg.clone(), bootstrap, w.brokers.clone(), 0);
                client.set_mem_slot(w.ledger.clone(), slot.mem);
                client.set_incarnation(slot.incarnation);
                if self.spec.capture_records {
                    client.capture_records();
                }
                let mut p = ProducerProcess::new(client, self.spec.producers[i].1.build());
                p.set_telemetry(w.tele.clone());
                Box::new(p)
            }
            // A respawned group member resumes from its broker-committed
            // offsets; without a group it restarts at the log start and
            // re-reads (duplicates the monitor makes observable). Either
            // way it starts with a fresh sink.
            ComponentRef::Consumer(i) => {
                let c = &plan.consumers[i];
                let sink = self.spec.consumers[i].3.build();
                let sink = MonitoredSink::new(w.monitor.clone(), i as u32, sink);
                let bootstrap = self.bootstrap_for(&c.host);
                let mut client = ConsumerClient::new(
                    c.cfg.clone(),
                    bootstrap,
                    w.brokers.clone(),
                    c.topics.clone(),
                );
                client.set_incarnation(slot.incarnation);
                let mut p = ConsumerProcess::new(i as u32, client, Box::new(sink));
                p.set_telemetry(w.tele.clone());
                Box::new(p)
            }
            ComponentRef::Job(_) => unreachable!("a job is built instance by instance"),
        }
    }

    /// Builds instance `index` of `stage` of job `j` around a fresh plan.
    fn build_worker(
        &self,
        j: usize,
        stage: usize,
        index: usize,
        slot: &Slot,
        recover: bool,
    ) -> SpeWorker {
        let (job, spec) = (&self.plan.jobs[j], &self.spec.spe_jobs[j].1);
        // Stable producer id per (job, stage, instance); the classic layout
        // keeps its original `1000 + job` id.
        let producer_id = |instance: usize| {
            if job.parallel {
                ProducerId(100_000 + j as u32 * 10_000 + stage as u32 * 100 + instance as u32)
            } else {
                ProducerId(1_000 + j as u32)
            }
        };
        let full = (spec.plan)();
        let plan = if job.parallel {
            (full.into_stages().into_iter().nth(stage))
                .expect("stage index within the probed stage count")
        } else {
            full
        };
        // Stage 0 reads the job's declared sources and the last stage feeds
        // its declared sink; in between run the keyed shuffle topics.
        let sources = match stage {
            0 => job.sources.clone(),
            _ => vec![shuffle_topic(&job.name, stage)],
        };
        let sink = if stage + 1 < job.n_stages {
            SpeSink::Topic(shuffle_topic(&job.name, stage + 1))
        } else {
            match &spec.sink {
                SpeSinkSpec::Topic(t) => SpeSink::Topic(t.clone()),
                SpeSinkSpec::Collect => SpeSink::Collect,
                // "The store on host X" is its group's replica 0.
                SpeSinkSpec::StoreOn { host, table } => SpeSink::Store {
                    store: self.store_group_on(host)[0],
                    table: table.clone(),
                },
            }
        };
        let mut w = SpeWorker::new(
            slot.name.clone(),
            job.cfg.clone(),
            sources,
            plan,
            sink,
            self.bootstrap_for(&job.host),
            self.wiring.brokers.clone(),
            producer_id(index),
        );
        w.set_mem_slot(self.wiring.ledger.clone(), slot.mem);
        if job.parallel {
            // A recovering instance restores from every old instance of its
            // stage (under the pre-restart parallelism) and keeps only the
            // key groups it owns now — the rescale-correct redistribution.
            let old = 0..self.prev_stage_par[j][stage];
            let restore_from = if recover {
                (old.clone().map(|k| instance_name(&job.name, stage, k))).collect()
            } else {
                Vec::new()
            };
            w.set_instance(StageInstanceCfg {
                stage,
                instance: index as u32,
                parallelism: job.stage_par[stage] as u32,
                key_groups: job.key_groups,
                restore_from,
                old_producers: old.map(producer_id).collect(),
            });
        }
        if job.cfg.checkpoint.is_some() {
            // A job that brings its own schedule to a scenario without
            // checkpointing keeps its captures in memory.
            let tier = self.spec.checkpointing.as_ref().map(|c| &c.backend);
            let tier = tier.unwrap_or(&DurableStoreSpec::InMemory);
            let backend = self.blob_store(tier, slot, DurableBackend::shared, DurableBackend::new);
            w.attach_checkpointing(backend, recover);
        }
        // After the checkpointing attach so the coordinator is covered too.
        w.set_telemetry(self.wiring.tele.clone());
        if recover {
            w.mark_restarted();
            w.set_incarnation(slot.incarnation);
        }
        w
    }

    /// Executes the run, pausing at each process-fault instant to kill or
    /// respawn the targeted component.
    pub(super) fn drive(&mut self) {
        let duration = self.plan.duration;
        for ev in std::mem::take(&mut self.plan.faults) {
            // Network events are the injector's, and a target that names
            // nothing (only reachable past `allow_deny_diagnostics`) has
            // nothing to act on.
            let Some(target) = ev.component else { continue };
            if ev.at >= duration {
                break;
            }
            self.sim.run_until(ev.at);
            self.apply_fault(&ev, target);
        }
        self.sim.run_until(duration);
    }

    fn apply_fault(&mut self, ev: &FaultFacts, target: ComponentRef) {
        let crash = ev.kind == FaultKind::Crash;
        let scope = match &ev.target {
            FaultTarget::Process(name) => name,
            _ => &self.slots[&target].name,
        };
        let what = if crash {
            "fault:crash"
        } else {
            "fault:restart"
        };
        self.wiring.tele.trace_instant(ev.at, scope, what, "fault");
        match target {
            // A job name kills every stage instance.
            ComponentRef::Job(j) if crash => {
                for key in self.instances_of(j) {
                    self.crash(key, ev.at);
                }
            }
            ComponentRef::Job(j) => self.restart_job(j, ev.at),
            key if crash => self.crash(key, ev.at),
            key => self.restart(key, ev.at),
        }
    }

    /// The slots of job `j`'s instances, spawned so far.
    fn instances_of(&self, j: usize) -> Vec<ComponentRef> {
        self.slots
            .range(instances(j))
            .map(|(key, _)| *key)
            .collect()
    }

    /// Kills the component; a no-op on one that is already dead (or, for an
    /// instance beyond the job's current layout, not there yet).
    fn crash(&mut self, key: ComponentRef, at: SimTime) {
        let Some(slot) = self.slots.get_mut(&key) else {
            return;
        };
        if let Some(corpse) = self.sim.kill(slot.pid) {
            slot.crashed_at = Some(at);
            slot.restarted_at = None;
            slot.corpse = Some(corpse);
        }
    }

    /// Respawns a dead component into its slot; a no-op on a live one (a
    /// restart without a preceding crash).
    fn restart(&mut self, key: ComponentRef, at: SimTime) {
        let Some(slot) = self.slots.get_mut(&key) else {
            // A rescale grew the stage: a brand-new instance on its
            // pre-provisioned host.
            return self.spawn(key, Some(at));
        };
        if self.sim.is_alive(slot.pid) {
            return;
        }
        slot.incarnation += 1;
        slot.restarted_at = Some(at);
        slot.corpse = None;
        let slot = &self.slots[&key];
        let process = self.build_process(key, slot, true);
        self.sim.respawn(slot.pid, process);
        if let Some(cpu) = self.cpus.get(&slot.host) {
            self.sim.attach_cpu(slot.pid, cpu.clone());
        }
    }

    /// A job-level restart is where a rescale takes effect: every stage
    /// adopts the target parallelism, and each respawned instance restores
    /// from the *previous* layout's chains.
    fn restart_job(&mut self, j: usize, at: SimTime) {
        let job = &mut self.plan.jobs[j];
        self.prev_stage_par[j] = job.stage_par.clone();
        if let (Some(m), true) = (job.rescale, job.parallel) {
            job.stage_par.fill(m);
        }
        let layout = job.stage_par.clone();
        // A rescale redraws every instance's key-group ownership, so
        // still-running instances of the old layout are bounced too: left
        // alive they would keep fetching their old partitions, overlapping
        // the new layout's owners. Those within the new layout respawn
        // below with the new wiring; those beyond it are retired.
        if layout != self.prev_stage_par[j] {
            for key in self.instances_of(j) {
                self.crash(key, at);
            }
        }
        for (s, par) in layout.iter().enumerate() {
            for i in 0..*par {
                self.restart(ComponentRef::Instance(j, s, i), at);
            }
        }
        // Future single-instance respawns restore from the new layout.
        self.prev_stage_par[j] = layout;
    }

    /// Assembles the report and hands over the live handles.
    pub(super) fn harvest(mut self) -> RunResult {
        let producers = (0..self.plan.producers.len())
            .map(|i| {
                let slot = self.slots.get_mut(&ComponentRef::Producer(i));
                let slot = slot.expect("one slot per producer");
                let recovery = slot.client_recovery();
                let client = component::<ProducerProcess>(&mut self.sim, slot).client_mut();
                // The report takes the captured vectors: one copy, not two.
                let (outcomes, sent_index) = client.take_captured();
                ProducerReport {
                    id: ProducerId(i as u32),
                    stats: client.stats(),
                    ack_latency: client.ack_latency().stats(),
                    outcomes,
                    sent_index,
                    recovery,
                }
            })
            .collect();
        let consumers = (0..self.plan.consumers.len())
            .map(|i| {
                let slot = self.slots.get_mut(&ComponentRef::Consumer(i));
                let slot = slot.expect("one slot per consumer");
                ConsumerReport {
                    id: i as u32,
                    recovery: slot.client_recovery(),
                    stats: (component::<ConsumerProcess>(&mut self.sim, slot).client()).stats(),
                }
            })
            .collect();
        let brokers = self.broker_reports();
        let stores = self.store_reports();
        let (spe, spe_instances) = self.spe_reports();
        // The data plane is designed so no hop ever deep-copies a shared
        // batch (producers retry Arc clones, brokers borrow, followers are
        // sole owners); surface the run's delta so tests and the CI perf
        // gate can assert it stayed zero.
        let shared_batch_copies = s2g_proto::shared_batch_copies() - self.batch_copies_before;
        let tele = self.wiring.tele;
        tele.counter_add("runtime", "shared_batch_copies", shared_batch_copies);
        let report = RunReport {
            name: self.plan.name,
            duration: self.plan.duration,
            server: self.spec.server,
            sim_stats: self.sim.stats(),
            producers,
            consumers,
            brokers,
            stores,
            spe,
            spe_instances,
            metric_series: tele.series().all().to_vec(),
            shared_batch_copies,
        };
        let pids = |n: usize, kind: fn(usize) -> ComponentRef| -> Vec<ProcessId> {
            (0..n).map(|i| self.slots[&kind(i)].pid).collect()
        };
        let store_groups = (self.plan.store_hosts.iter().cloned()).zip(self.wiring.store_groups);
        let store_group_pids: BTreeMap<String, Vec<ProcessId>> = store_groups.collect();
        RunResult {
            broker_pids: pids(self.plan.brokers.len(), ComponentRef::Broker),
            producer_pids: pids(self.plan.producers.len(), ComponentRef::Producer),
            consumer_pids: pids(self.plan.consumers.len(), ComponentRef::Consumer),
            spe_pids: (self.slots.iter())
                .filter(|(key, _)| matches!(key, ComponentRef::Instance(..)))
                .map(|(_, slot)| (slot.name.clone(), slot.pid))
                .collect(),
            store_pids: (store_group_pids.iter())
                .map(|(host, group)| (host.clone(), group[0]))
                .collect(),
            store_group_pids,
            sim: self.sim,
            net: self.net,
            monitor: self.wiring.monitor,
            ledger: self.wiring.ledger,
            cpus: self.cpus,
            telemetry: tele,
            report,
        }
    }

    /// Two passes over the brokers: attributing leadership moves to one
    /// crashed broker needs every *other* broker's election history.
    fn broker_reports(&mut self) -> Vec<BrokerReport> {
        type BrokerView = (
            BrokerStats,
            Vec<(SimTime, TopicPartition, bool)>,
            Option<BrokerRecoveryInfo>,
            Option<SimTime>,
        );
        let views: Vec<BrokerView> = (0..self.plan.brokers.len())
            .map(|i| {
                let slot = self.slots.get_mut(&ComponentRef::Broker(i));
                let slot = slot.expect("one slot per broker");
                let crashed_at = slot.crashed_at;
                let b = component::<Broker>(&mut self.sim, slot);
                let events = b.leadership_events().to_vec();
                (b.stats(), events, b.recovery_info(), crashed_at)
            })
            .collect();
        let isr_shrinks: u64 = views.iter().map(|(s, ..)| s.isr_shrinks).sum();
        let isr_expands: u64 = views.iter().map(|(s, ..)| s.isr_expands).sum();
        let report = |(i, (stats, events, info, crashed_at)): (usize, &BrokerView)| {
            let recovery = crashed_at.map(|crashed_at| {
                // Partitions some *other* broker won at/after the crash:
                // leadership that moved off (or shuffled around) this
                // broker while it was down.
                let moved: BTreeSet<&TopicPartition> = (views.iter().enumerate())
                    .filter(|(other, _)| *other != i)
                    .flat_map(|(_, (_, ev, ..))| ev.iter())
                    .filter(|(at, _, became)| *became && *at >= crashed_at)
                    .map(|(_, tp, _)| tp)
                    .collect();
                BrokerRecoveryReport {
                    crashed_at,
                    restarted_at: info.map(|r| r.restarted_at),
                    recovered_at: info.and_then(|r| r.recovered_at),
                    replayed_records: info.map_or(0, |r| r.replayed_records),
                    replayed_bytes: info.map_or(0, |r| r.replayed_bytes),
                    replayed_segments: info.map_or(0, |r| r.replayed_segments),
                    replay_saved_bytes: info.map_or(0, |r| r.replay_saved_bytes),
                    leadership_moves: moved.len() as u64,
                    isr_shrinks,
                    isr_expands,
                }
            });
            BrokerReport {
                id: BrokerId(i as u32),
                stats: *stats,
                leadership_events: events.clone(),
                recovery,
            }
        };
        views.iter().enumerate().map(report).collect()
    }

    fn store_reports(&mut self) -> Vec<StoreReport> {
        let replicas = self.plan.store_replicas.iter().enumerate();
        let report = replicas.map(|(i, replica)| {
            let slot = self.slots.get_mut(&ComponentRef::Store(i));
            let slot = slot.expect("one slot per store replica");
            let crashed_at = slot.crashed_at;
            let st = component::<StoreServer>(&mut self.sim, slot);
            let info = st.recovery_info();
            StoreReport {
                host: self.plan.store_hosts[replica.group].clone(),
                replica: replica.replica,
                kv_keys: st.kv().len() as u64,
                is_primary: st.is_primary(),
                oplog_len: st.oplog_len() as u64,
                oplog_truncated: st.oplog_truncated(),
                recovery: crashed_at.map(|crashed_at| StoreRecoveryReport {
                    crashed_at,
                    restarted_at: info.map(|i| i.restarted_at),
                    resynced_at: info.and_then(|i| i.resynced_at),
                    sync_ops: info.map_or(0, |i| i.sync_ops),
                    sync_bytes: info.map_or(0, |i| i.sync_bytes),
                }),
            }
        });
        report.collect()
    }

    /// `(per job, per instance of parallel jobs)`.
    fn spe_reports(&mut self) -> (BTreeMap<String, SpeReport>, BTreeMap<String, SpeReport>) {
        let (mut by_job, mut by_instance) = (BTreeMap::new(), BTreeMap::new());
        for (j, job) in self.plan.jobs.iter().enumerate() {
            let mut per: Vec<(usize, SpeReport)> = Vec::new();
            for (key, slot) in self.slots.range_mut(instances(j)) {
                let ComponentRef::Instance(_, stage, _) = *key else {
                    unreachable!("the range holds instances only");
                };
                let crashed_at = slot.crashed_at;
                let w = component::<SpeWorker>(&mut self.sim, slot);
                let info = w.recovery_info();
                let report = SpeReport {
                    metrics: w.metrics().to_vec(),
                    record_counts: w.plan().record_counts(),
                    collected: w.collected().to_vec(),
                    mean_busy_runtime: w.mean_busy_runtime(),
                    checkpoints: w.checkpoint_stats(),
                    checkpoint_log: w.checkpoint_persist_log(),
                    consumer_stats: w.consumer().stats(),
                    producer_stats: w.producer().map(|p| p.stats()).unwrap_or_default(),
                    recovery: crashed_at.map(|crashed_at| RecoveryReport {
                        crashed_at,
                        restarted_at: info.map(|i| i.restarted_at),
                        restored_at: info.and_then(|i| i.restored_at),
                        snapshot_taken_at: info.and_then(|i| i.snapshot_taken_at),
                        snapshot_bytes: info.map_or(0, |i| i.snapshot_bytes),
                        delta_chain_len: info.map_or(0, |i| i.delta_chain),
                        first_batch_at: info.and_then(|i| i.first_batch_at),
                    }),
                };
                if job.parallel {
                    by_instance.insert(slot.name.clone(), report.clone());
                }
                per.push((stage, report));
            }
            let whole = if job.parallel {
                aggregate_spe_reports(job.n_stages, &per)
            } else {
                per.pop().expect("one worker per classic job").1
            };
            by_job.insert(job.name.clone(), whole);
        }
        (by_job, by_instance)
    }
}

/// The key range of job `j`'s instances in the slot map.
fn instances(j: usize) -> std::ops::Range<ComponentRef> {
    ComponentRef::Instance(j, 0, 0)..ComponentRef::Instance(j + 1, 0, 0)
}

/// The explicit topology, or the generated one-big-switch star over the
/// plan's hosts.
fn build_topology(spec: &Scenario, plan: &ScenarioFacts) -> Topology {
    if let Some(t) = &spec.explicit_topology {
        return t.clone();
    }
    let mut topo = Topology::new();
    topo.add_switch("s1").expect("fresh topology");
    for host in &plan.required_hosts {
        if topo.lookup(host).is_some() {
            continue;
        }
        topo.add_host(host.as_str()).expect("unique hosts");
        let link = spec.host_links.get(host).unwrap_or(&spec.default_link);
        topo.add_link(host, "s1", *link).expect("valid link");
    }
    topo
}

/// Folds a parallel job's per-`(stage, instance)` reports into one
/// job-level report: input records are counted at stage 0, output records
/// at the last stage, batch metrics interleave in time order,
/// checkpoint/consumer/producer counters add, and the recovery entry follows the
/// earliest-crashed instance.
fn aggregate_spe_reports(n_stages: usize, per: &[(usize, SpeReport)]) -> SpeReport {
    let mut metrics: Vec<BatchMetric> = per
        .iter()
        .flat_map(|(_, r)| r.metrics.iter().copied())
        .collect();
    metrics.sort_by_key(|m| (m.start, m.end));
    let records_in: u64 = per
        .iter()
        .filter(|(s, _)| *s == 0)
        .map(|(_, r)| r.record_counts.0)
        .sum();
    let records_out: u64 = per
        .iter()
        .filter(|(s, _)| *s + 1 == n_stages)
        .map(|(_, r)| r.record_counts.1)
        .sum();
    let collected: Vec<Event> = per
        .iter()
        .flat_map(|(_, r)| r.collected.iter().cloned())
        .collect();
    let busy: Vec<&BatchMetric> = metrics.iter().filter(|m| m.records_in > 0).collect();
    let mean_busy_runtime = if busy.is_empty() {
        SimDuration::ZERO
    } else {
        SimDuration::from_nanos(
            busy.iter().map(|m| m.runtime().as_nanos()).sum::<u64>() / busy.len() as u64,
        )
    };
    let mut checkpoints = CheckpointStats::default();
    for (_, r) in per {
        checkpoints.absorb(&r.checkpoints);
    }
    let mut checkpoint_log: Vec<(SimTime, SimTime)> = per
        .iter()
        .flat_map(|(_, r)| r.checkpoint_log.iter().copied())
        .collect();
    checkpoint_log.sort();
    let mut consumer_stats = ConsumerStats::default();
    for (_, r) in per {
        let c = &r.consumer_stats;
        consumer_stats.fetches += c.fetches;
        consumer_stats.records += c.records;
        consumer_stats.timeouts += c.timeouts;
        consumer_stats.offset_resets += c.offset_resets;
        consumer_stats.offset_commits += c.offset_commits;
        consumer_stats.resumed_partitions += c.resumed_partitions;
        consumer_stats.group_joins += c.group_joins;
        consumer_stats.rebalances += c.rebalances;
        consumer_stats.stale_replies += c.stale_replies;
    }
    let mut producer_stats = ProducerStats::default();
    for (_, r) in per {
        let p = &r.producer_stats;
        producer_stats.sent += p.sent;
        producer_stats.acked += p.acked;
        producer_stats.failed += p.failed;
        producer_stats.buffer_rejected += p.buffer_rejected;
        producer_stats.retries += p.retries;
    }
    let recovery = per
        .iter()
        .filter_map(|(_, r)| r.recovery)
        .min_by_key(|r| r.crashed_at);
    SpeReport {
        metrics,
        record_counts: (records_in, records_out),
        collected,
        mean_busy_runtime,
        checkpoints,
        checkpoint_log,
        consumer_stats,
        producer_stats,
        recovery,
    }
}
