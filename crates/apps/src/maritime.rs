//! Maritime monitoring — persistent storage (Table II).
//!
//! "Analyzes a stream of ship tracking reports (e.g., AIS messages) to count
//! the number of ships heading to a set of desired ports in a given time
//! window. Its data processing pipeline uses an external key-value store,
//! i.e., in addition to the one embedded in the stream processing engine, to
//! store the results." Four components: producer, broker, SPE, store.

use s2g_broker::TopicSpec;
use s2g_core::{Scenario, SourceSpec, SpeJobSpec, SpeSinkSpec};
use s2g_net::LinkSpec;
use s2g_sim::{SimDuration, SimTime};
use s2g_spe::{Plan, SpeConfig, Value, WindowAggregate, WindowAssigner};
use s2g_store::StoreConfig;

use crate::data::ais_reports;

/// Ports of interest for the monitoring query.
pub(crate) const WATCHED_PORTS: &[&str] = &["halifax", "rotterdam"];

/// The maritime job: parse AIS reports, keep only watched destination
/// ports, and count ships per port per 30-second window.
pub(crate) fn port_count_plan() -> Plan {
    Plan::new()
        .map("parse", |mut e| {
            let text = e.value.as_str().unwrap_or("").to_string();
            let fields: Vec<&str> = text.split('|').collect();
            e.value = Value::map([
                (
                    "ship",
                    Value::Str(fields.first().copied().unwrap_or("?").into()),
                ),
                (
                    "port",
                    Value::Str(fields.get(1).copied().unwrap_or("?").into()),
                ),
                (
                    "speed",
                    Value::Float(fields.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.0)),
                ),
            ]);
            e
        })
        .filter("watched-ports", |e| {
            e.value
                .field("port")
                .and_then(Value::as_str)
                .is_some_and(|p| WATCHED_PORTS.contains(&p))
        })
        .key_by("by-port", |e| {
            e.value
                .field("port")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        })
        .then(WindowAggregate::count(
            "ships-per-window",
            WindowAssigner::Tumbling(SimDuration::from_secs(30)),
        ))
}

/// Builds the maritime-monitoring scenario over `n` AIS reports, persisting
/// window counts into the external store on `h-store`.
pub fn scenario(n: usize, duration: SimTime, seed: u64) -> Scenario {
    let mut sc = Scenario::new("maritime-monitoring");
    sc.seed(seed)
        .duration(duration)
        .default_link(LinkSpec::new().latency(SimDuration::from_millis(4)))
        .topic(TopicSpec::new("ais"));
    sc.broker("h-broker");
    sc.store("h-store", StoreConfig::default());
    sc.producer(
        "h-src",
        SourceSpec::Items {
            topic: "ais".into(),
            items: ais_reports(n, seed),
            interval: SimDuration::from_millis(25),
        },
        Default::default(),
    );
    sc.spe_job(
        "h-spe",
        SpeJobSpec::new(
            "port-counts",
            vec!["ais".into()],
            port_count_plan,
            SpeSinkSpec::StoreOn {
                host: "h-store".into(),
                table: "port_counts".into(),
            },
            SpeConfig::default(),
        ),
    );
    sc
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_spe::Event;
    use s2g_store::StoreServer;

    #[test]
    fn plan_filters_and_counts() {
        let mut plan = port_count_plan();
        let mk = |port: &str, s: u64| {
            Event::new(Value::Str(format!("s1|{port}|10.0")), SimTime::from_secs(s))
        };
        plan.run_batch(
            SimTime::ZERO,
            vec![
                mk("halifax", 1),
                mk("halifax", 2),
                mk("boston", 3),
                mk("rotterdam", 4),
            ],
        );
        let out = plan.flush(SimTime::ZERO);
        assert_eq!(out.len(), 2, "two watched ports, one window each");
        let halifax = out
            .iter()
            .find(|e| e.key.as_deref() == Some("halifax"))
            .unwrap();
        assert_eq!(halifax.value.as_int(), Some(2));
        assert!(out.iter().all(|e| e.key.as_deref() != Some("boston")));
    }

    #[test]
    fn pipeline_persists_counts_to_store() {
        let sc = scenario(200, SimTime::from_secs(60), 21);
        let result = sc.run().expect("runs");
        let store_pid = result.store_pids["h-store"];
        let store = result.sim.process_ref::<StoreServer>(store_pid).unwrap();
        let rows = store.tables().total_rows();
        assert!(rows >= 2, "window counts persisted, got {rows}");
        // Every persisted row names a watched port.
        for row in store.tables().select("port_counts", None).unwrap() {
            assert!(WATCHED_PORTS.contains(&row[0].as_str()), "row {row:?}");
        }
        // The SPE actually filtered: fewer outputs than inputs.
        let (r_in, r_out) = result.report.spe["port-counts"].record_counts;
        assert!(r_in >= 200);
        assert!(r_out < r_in / 4);
    }
}
