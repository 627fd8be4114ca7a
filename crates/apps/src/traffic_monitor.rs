//! Traffic monitoring — the Ocampo et al. reproduction (§V-C, Fig. 7b).
//!
//! "The proposed system takes a stream of network packets captured at
//! different switches as input and computes a set of relevant metrics
//! (e.g., number of active connections, bandwidth usage) on a windowed
//! basis... Each user generates traffic to a pre-defined set of services
//! (e.g., FTP, Web, DNS) following a Poisson process. Traffic is processed
//! in slots of one second."
//!
//! The scalability sweep varies the number of users and reports the SPE's
//! mean per-slot execution time, normalized by the 20-user result.

use rand::rngs::StdRng;

use s2g_broker::{DataSource, SourceAction, TopicSpec};
use s2g_core::{Scenario, SourceSpec, SpeJobSpec, SpeSinkSpec};
use s2g_net::LinkSpec;
use s2g_sim::{SimDuration, SimTime};
use s2g_spe::{Plan, SpeConfig, Value, WindowAggregate, WindowAssigner};

use crate::data::packet_summary;

/// Packets per second each user generates (Poisson mean).
pub(crate) const PACKETS_PER_USER_PER_SEC: f64 = 20.0;

/// A user's traffic generator: Poisson packet summaries to `packets`.
#[derive(Debug)]
pub(crate) struct UserTraffic {
    user: u32,
    mean_interval: SimDuration,
    until: SimTime,
}

impl UserTraffic {
    /// Traffic for `user` until `until`.
    pub(crate) fn new(user: u32, until: SimTime) -> Self {
        UserTraffic {
            user,
            mean_interval: SimDuration::from_secs_f64(1.0 / PACKETS_PER_USER_PER_SEC),
            until,
        }
    }
}

impl DataSource for UserTraffic {
    fn next(&mut self, now: SimTime, rng: &mut StdRng) -> SourceAction {
        use rand::Rng;
        if now >= self.until {
            return SourceAction::Done;
        }
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let gap = self.mean_interval.mul_f64(-u.ln());
        SourceAction::Emit {
            topic: "packets".into(),
            key: None,
            value: packet_summary(self.user, rng).into_bytes(),
            next_after: gap,
        }
    }
}

/// The monitoring job: per-service connection counts and byte totals per
/// one-second slot.
pub(crate) fn monitoring_plan() -> Plan {
    Plan::new()
        .map("parse", |mut e| {
            let text = e.value.as_str().unwrap_or("").to_string();
            let fields: Vec<&str> = text.split('|').collect();
            e.value = Value::map([
                (
                    "user",
                    Value::Str(fields.first().copied().unwrap_or("?").into()),
                ),
                (
                    "service",
                    Value::Str(fields.get(1).copied().unwrap_or("?").into()),
                ),
                (
                    "bytes",
                    Value::Int(fields.get(2).and_then(|b| b.parse().ok()).unwrap_or(0)),
                ),
            ]);
            e
        })
        .key_by("by-service", |e| {
            e.value
                .field("service")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        })
        .window(WindowAggregate::new(
            "per-slot-metrics",
            WindowAssigner::Tumbling(SimDuration::from_secs(1)),
            Value::map([("packets", Value::Int(0)), ("bytes", Value::Int(0))]),
            |acc, e| {
                let p = acc.field("packets").and_then(Value::as_int).unwrap_or(0) + 1;
                let b = acc.field("bytes").and_then(Value::as_int).unwrap_or(0)
                    + e.value.field("bytes").and_then(Value::as_int).unwrap_or(0);
                Value::map([("packets", Value::Int(p)), ("bytes", Value::Int(b))])
            },
            |acc, _| acc,
        ))
}

/// The SPE configuration calibrated for the scalability sweep: a fixed
/// scheduling overhead that dominates at low load plus per-record cost that
/// grows with users, giving the paper's ~1.0→1.7 normalized-runtime curve.
pub(crate) fn spark_config() -> SpeConfig {
    SpeConfig {
        batch_interval: SimDuration::from_secs(1),
        scheduling_overhead: SimDuration::from_millis(380),
        cpu_per_record: SimDuration::from_micros(200),
        ..SpeConfig::default()
    }
}

/// Builds the traffic-monitoring scenario with `users` traffic generators.
pub fn scenario(users: u32, duration: SimTime, seed: u64) -> Scenario {
    let mut sc = Scenario::new("traffic-monitoring");
    sc.seed(seed)
        .duration(duration)
        .default_link(LinkSpec::new().latency(SimDuration::from_millis(2)))
        .topic(TopicSpec::new("packets"));
    sc.broker("h-broker");
    let traffic_until = duration - SimDuration::from_secs(5);
    for u in 0..users {
        let host = format!("u{u}");
        sc.producer(
            &host,
            SourceSpec::Custom {
                topics: vec!["packets".into()],
                make: Box::new(move || Box::new(UserTraffic::new(u, traffic_until))),
            },
            Default::default(),
        );
    }
    sc.spe_job(
        "h-spark",
        SpeJobSpec::new(
            "traffic-metrics",
            vec!["packets".into()],
            monitoring_plan,
            SpeSinkSpec::Collect,
            spark_config(),
        ),
    );
    sc
}

/// Runs the sweep and returns `(users, mean_slot_runtime)` pairs.
pub fn sweep(user_counts: &[u32], duration: SimTime, seed: u64) -> Vec<(u32, SimDuration)> {
    user_counts
        .iter()
        .map(|&users| {
            let result = scenario(users, duration, seed)
                .run()
                .expect("valid scenario");
            (
                users,
                result.report.spe["traffic-metrics"].mean_busy_runtime,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_spe::Event;

    #[test]
    fn plan_aggregates_per_service_slots() {
        let mut plan = monitoring_plan();
        let mk = |svc: &str, bytes: u32, ms: u64| {
            Event::new(
                Value::Str(format!("u1|{svc}|{bytes}")),
                SimTime::from_millis(ms),
            )
        };
        plan.run_batch(
            SimTime::ZERO,
            vec![mk("web", 100, 100), mk("web", 200, 300), mk("dns", 60, 400)],
        );
        let out = plan.flush(SimTime::ZERO);
        assert_eq!(out.len(), 2);
        let web = out
            .iter()
            .find(|e| e.key.as_deref() == Some("web"))
            .unwrap();
        assert_eq!(web.value.field("packets").unwrap().as_int(), Some(2));
        assert_eq!(web.value.field("bytes").unwrap().as_int(), Some(300));
    }

    #[test]
    fn runtime_grows_with_users() {
        let sweep = sweep(&[5, 25], SimTime::from_secs(25), 3);
        let (u_small, t_small) = sweep[0];
        let (u_large, t_large) = sweep[1];
        assert_eq!((u_small, u_large), (5, 25));
        assert!(
            t_large > t_small,
            "mean slot runtime must grow with users: {t_small} vs {t_large}"
        );
        // Overhead-dominated at low load: sub-linear growth.
        let ratio = t_large.as_secs_f64() / t_small.as_secs_f64();
        assert!(
            ratio < 5.0,
            "5x users must not mean 5x runtime (got {ratio:.2}x)"
        );
    }
}
