//! Ride selection — structured data with stateful processing (Table II).
//!
//! "Leverages structured data (e.g., geographical coordinates, fare values)
//! from a stream of taxi ride information to compute the best tipping areas
//! in a city. The processed query includes a combination of join, groupby,
//! and window operators, which requires dealing with an intermediate
//! state." Five components: two producers (rides, fares), a broker, the SPE
//! job, and a consumer.

use s2g_broker::TopicSpec;
use s2g_core::{Scenario, SourceSpec, SpeJobSpec, SpeSinkSpec};
use s2g_net::LinkSpec;
use s2g_sim::{SimDuration, SimTime};
use s2g_spe::{Event, Plan, SpeConfig, Value, WindowAggregate, WindowAssigner, WindowJoin};

use crate::data::{fares, rides};

/// The ride-selection query: join rides with fares on ride id, group by
/// pickup area, and compute the mean tip rate per area per window.
pub(crate) fn best_tipping_areas_plan() -> Plan {
    Plan::new()
        // Parse both inputs into keyed structured events.
        .map("parse", |mut e| {
            let text = e.value.as_str().unwrap_or("").to_string();
            let fields: Vec<&str> = text.split('|').collect();
            if e.source == 0 {
                // rides: id|area|distance
                e.key = Some(fields.first().copied().unwrap_or("?").to_string());
                e.value = Value::map([
                    (
                        "area",
                        Value::Str(fields.get(1).copied().unwrap_or("?").into()),
                    ),
                    (
                        "distance",
                        Value::Float(fields.get(2).and_then(|d| d.parse().ok()).unwrap_or(0.0)),
                    ),
                ]);
            } else {
                // fares: id|fare|tip
                e.key = Some(fields.first().copied().unwrap_or("?").to_string());
                let fare: f64 = fields.get(1).and_then(|x| x.parse().ok()).unwrap_or(1.0);
                let tip: f64 = fields.get(2).and_then(|x| x.parse().ok()).unwrap_or(0.0);
                e.value = Value::map([("fare", Value::Float(fare)), ("tip", Value::Float(tip))]);
            }
            e
        })
        // Join rides with fares within 30-second windows.
        .join(WindowJoin::new(
            "ride-fare-join",
            WindowAssigner::Tumbling(SimDuration::from_secs(30)),
            |ride, fare| {
                let area = ride
                    .value
                    .field("area")
                    .and_then(Value::as_str)
                    .unwrap_or("?");
                let f = fare
                    .value
                    .field("fare")
                    .and_then(Value::as_float)
                    .unwrap_or(1.0);
                let t = fare
                    .value
                    .field("tip")
                    .and_then(Value::as_float)
                    .unwrap_or(0.0);
                Value::map([
                    ("area", Value::Str(area.to_string())),
                    ("tip_rate", Value::Float(t / f.max(0.01))),
                ])
            },
        ))
        // Group by area and average the tip rate per 60-second window.
        .key_by("by-area", |e| {
            e.value
                .field("area")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        })
        .window(WindowAggregate::avg_field(
            "avg-tip-rate",
            WindowAssigner::Tumbling(SimDuration::from_secs(60)),
            "tip_rate",
        ))
}

/// Builds the ride-selection scenario over `n` rides.
pub fn scenario(n: usize, duration: SimTime, seed: u64) -> Scenario {
    let mut sc = Scenario::new("ride-selection");
    sc.seed(seed)
        .duration(duration)
        .default_link(LinkSpec::new().latency(SimDuration::from_millis(3)))
        .topic(TopicSpec::new("rides"))
        .topic(TopicSpec::new("fares"))
        .topic(TopicSpec::new("best-areas"));
    sc.broker("h-broker");
    let interval = SimDuration::from_millis(40);
    sc.producer(
        "h-rides",
        SourceSpec::Items {
            topic: "rides".into(),
            items: rides(n, seed),
            interval,
        },
        Default::default(),
    );
    sc.producer(
        "h-fares",
        SourceSpec::Items {
            topic: "fares".into(),
            items: fares(n, seed),
            interval,
        },
        Default::default(),
    );
    sc.spe_job(
        "h-spe",
        SpeJobSpec::new(
            "best-tipping-areas",
            vec!["rides".into(), "fares".into()],
            best_tipping_areas_plan,
            SpeSinkSpec::Topic("best-areas".into()),
            SpeConfig::default(),
        ),
    );
    sc.consumer("h-sink", Default::default(), &["best-areas"]);
    sc
}

/// Extracts `(area, mean_tip_rate)` pairs from the job's output events,
/// averaging across windows, sorted by tip rate descending.
pub fn rank_areas(outputs: &[Event]) -> Vec<(String, f64)> {
    use std::collections::BTreeMap;
    let mut acc: BTreeMap<String, (f64, u32)> = BTreeMap::new();
    for e in outputs {
        let Some(area) = e.key.clone() else { continue };
        let Some(rate) = e.value.as_float() else {
            continue;
        };
        let slot = acc.entry(area).or_insert((0.0, 0));
        slot.0 += rate;
        slot.1 += 1;
    }
    let mut out: Vec<(String, f64)> = acc
        .into_iter()
        .map(|(a, (s, n))| (a, s / n as f64))
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite rates"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_joins_and_ranks_offline() {
        let mut plan = best_tipping_areas_plan();
        let mut events = Vec::new();
        // Two rides in the same window: airport tips 30%, suburbs 5%.
        for (i, (area, tip)) in [("airport", 0.3), ("suburbs", 0.05)].iter().enumerate() {
            let mut ride = Event::new(
                Value::Str(format!("r{i}|{area}|5.0")),
                SimTime::from_secs(1),
            );
            ride.source = 0;
            let mut fare = Event::new(
                Value::Str(format!("r{i}|10.0|{}", 10.0 * tip)),
                SimTime::from_secs(2),
            );
            fare.source = 1;
            events.push(ride);
            events.push(fare);
        }
        plan.run_batch(SimTime::ZERO, events);
        let out = plan.flush(SimTime::ZERO);
        let ranking = rank_areas(&out);
        assert_eq!(ranking[0].0, "airport");
        assert!(ranking[0].1 > ranking[1].1);
    }

    #[test]
    fn pipeline_finds_best_tipping_areas() {
        let sc = scenario(150, SimTime::from_secs(60), 7);
        let result = sc.run().expect("runs");
        let delivered = result.monitor.borrow().delivery_count("best-areas");
        assert!(delivered > 0, "windowed averages must be emitted");
        // Reconstruct the ranking from the consumer-side events: pull them
        // from the SPE-emitted topic through the collecting sink.
        let events: Vec<Event> = {
            use s2g_broker::{CollectingSink, ConsumerProcess};
            use s2g_core::MonitoredSink;
            let pid = result.consumer_pids[0];
            let cons = result.sim.process_ref::<ConsumerProcess>(pid).unwrap();
            let monitored = cons.sink_as::<MonitoredSink>().unwrap();
            let inner = (monitored.inner() as &dyn std::any::Any)
                .downcast_ref::<CollectingSink>()
                .unwrap();
            inner
                .deliveries
                .iter()
                .filter_map(|(_, _, r)| Event::from_bytes(&r.value).ok())
                .collect()
        };
        let ranking = rank_areas(&events);
        assert!(ranking.len() >= 3, "several areas ranked: {ranking:?}");
        let top_two: Vec<&str> = ranking.iter().take(2).map(|(a, _)| a.as_str()).collect();
        assert!(
            top_two.contains(&"airport") || top_two.contains(&"stadium"),
            "high-tip areas must rank top: {ranking:?}"
        );
    }
}
