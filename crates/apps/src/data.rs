//! Seeded synthetic data generators.
//!
//! The paper's applications consume real datasets (documents, taxi rides,
//! tweets, AIS ship reports, financial transactions). Those are not
//! redistributable here, so each generator produces a seeded synthetic
//! corpus with the same schema and the statistical features the queries
//! exercise (categories to group by, joinable ids, anomalies to detect).
//! DESIGN.md documents this substitution.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORDS: &[&str] = &[
    "stream",
    "data",
    "pipeline",
    "broker",
    "topic",
    "window",
    "event",
    "state",
    "query",
    "latency",
    "throughput",
    "cluster",
    "replica",
    "leader",
    "offset",
    "batch",
    "shuffle",
    "join",
    "filter",
    "scale",
    "monitor",
    "deploy",
    "emulate",
    "network",
    "switch",
];

const CATEGORIES: &[&str] = &["systems", "networks", "databases", "ml"];

/// Documents for the word-count pipeline: each item is
/// `"<category>|<text>"` with a word count drawn from `8..=40`.
pub fn documents(n: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let cat = CATEGORIES[i % CATEGORIES.len()];
            let len = rng.gen_range(8..=40);
            let words: Vec<&str> = (0..len)
                .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
                .collect();
            format!("{cat}|{}", words.join(" "))
        })
        .collect()
}

const AREAS: &[&str] = &[
    "downtown",
    "airport",
    "harbor",
    "university",
    "stadium",
    "suburbs",
];

/// Taxi ride descriptions: `"<ride_id>|<area>|<distance_km>"`.
pub fn rides(n: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let area = AREAS[rng.gen_range(0..AREAS.len())];
            let dist: f64 = rng.gen_range(0.5..25.0);
            format!("r{i}|{area}|{dist:.2}")
        })
        .collect()
}

/// Fares matching [`rides`] by id: `"<ride_id>|<fare>|<tip>"`. Tips are
/// systematically higher for airport and stadium rides so the "best tipping
/// areas" query has signal.
pub fn fares(n: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a_f317);
    let ride_list = rides(n, seed);
    (0..n)
        .map(|i| {
            let area = ride_list[i].split('|').nth(1).expect("area field");
            let fare: f64 = rng.gen_range(5.0..60.0);
            let base_tip = if area == "airport" || area == "stadium" {
                0.22
            } else {
                0.10
            };
            let tip = fare * (base_tip + rng.gen_range(-0.05..0.05));
            format!("r{i}|{fare:.2}|{tip:.2}")
        })
        .collect()
}

const POSITIVE_TWEETS: &[&str] = &[
    "this release is really great, love the new dashboard",
    "absolutely amazing performance, very happy with the upgrade",
    "the team did an excellent job, best launch so far",
    "fast and reliable, what a wonderful tool",
];

const NEGATIVE_TWEETS: &[&str] = &[
    "the deploy was terrible, everything is broken again",
    "really slow and full of bugs, worst update ever",
    "i hate this awful regression, very disappointing",
    "the outage was horrible, such a sad failure",
];

const NEUTRAL_TWEETS: &[&str] = &[
    "the meeting starts at nine tomorrow",
    "version two ships with three new endpoints",
    "the train to the office leaves from platform four",
];

/// A tweet stream mixing positive, negative, and neutral messages.
pub fn tweets(n: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let roll: f64 = rng.gen();
            let pool = if roll < 0.4 {
                POSITIVE_TWEETS
            } else if roll < 0.8 {
                NEGATIVE_TWEETS
            } else {
                NEUTRAL_TWEETS
            };
            pool[rng.gen_range(0..pool.len())].to_string()
        })
        .collect()
}

const PORTS: &[&str] = &[
    "halifax",
    "boston",
    "rotterdam",
    "singapore",
    "santos",
    "oslo",
];

/// AIS-style ship reports: `"<ship_id>|<dest_port>|<speed_knots>"`.
pub(crate) fn ais_reports(n: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let ship = rng.gen_range(1000..9999);
            let port = PORTS[rng.gen_range(0..PORTS.len())];
            let speed: f64 = rng.gen_range(2.0..28.0);
            format!("s{ship}|{port}|{speed:.1}")
        })
        .collect()
}

/// A labeled transaction for fraud training/testing.
#[derive(Debug, Clone)]
pub struct Transaction {
    /// Amount in currency units.
    pub amount: f64,
    /// Transactions by the same account in the last hour.
    pub velocity: f64,
    /// Distance from the account's home location, km.
    pub geo_distance: f64,
    /// Ground truth.
    pub fraudulent: bool,
}

impl Transaction {
    /// Feature vector for the SVM.
    pub fn features(&self) -> Vec<f64> {
        // Normalize to comparable scales.
        vec![
            self.amount / 1_000.0,
            self.velocity / 10.0,
            self.geo_distance / 1_000.0,
        ]
    }

    /// Serializes as a stream record: `"<amount>|<velocity>|<distance>"`.
    pub fn to_record(&self) -> String {
        format!(
            "{:.2}|{:.2}|{:.2}",
            self.amount, self.velocity, self.geo_distance
        )
    }

    /// Parses a stream record.
    pub fn parse(s: &str) -> Option<Transaction> {
        let mut parts = s.split('|');
        Some(Transaction {
            amount: parts.next()?.parse().ok()?,
            velocity: parts.next()?.parse().ok()?,
            geo_distance: parts.next()?.parse().ok()?,
            fraudulent: false,
        })
    }
}

/// Synthetic transactions: ~8% are fraudulent (large amounts, high velocity,
/// far from home), the rest benign.
pub fn transactions(n: usize, seed: u64) -> Vec<Transaction> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < 0.08 {
                Transaction {
                    amount: rng.gen_range(800.0..5_000.0),
                    velocity: rng.gen_range(5.0..30.0),
                    geo_distance: rng.gen_range(500.0..9_000.0),
                    fraudulent: true,
                }
            } else {
                Transaction {
                    amount: rng.gen_range(3.0..300.0),
                    velocity: rng.gen_range(0.0..4.0),
                    geo_distance: rng.gen_range(0.0..120.0),
                    fraudulent: false,
                }
            }
        })
        .collect()
}

/// Per-user packet summaries for the traffic-monitoring reproduction:
/// `"<user>|<service>|<bytes>"`.
pub(crate) fn packet_summary(user: u32, rng: &mut StdRng) -> String {
    const SERVICES: &[&str] = &["web", "dns", "ftp", "mail", "ssh"];
    let service = SERVICES[rng.gen_range(0..SERVICES.len())];
    let bytes = rng.gen_range(60..1_500);
    format!("u{user}|{service}|{bytes}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_have_category_prefix() {
        let docs = documents(8, 1);
        assert_eq!(docs.len(), 8);
        for d in &docs {
            let (cat, text) = d.split_once('|').expect("category separator");
            assert!(CATEGORIES.contains(&cat));
            assert!(text.split_whitespace().count() >= 8);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(documents(5, 42), documents(5, 42));
        assert_eq!(rides(5, 42), rides(5, 42));
        assert_eq!(tweets(5, 42), tweets(5, 42));
        assert_eq!(ais_reports(5, 42), ais_reports(5, 42));
    }

    #[test]
    fn fares_join_with_rides() {
        let r = rides(20, 7);
        let f = fares(20, 7);
        for (ride, fare) in r.iter().zip(&f) {
            assert_eq!(ride.split('|').next(), fare.split('|').next(), "ids align");
        }
    }

    #[test]
    fn airport_tips_are_higher_on_average() {
        let n = 2_000;
        let r = rides(n, 3);
        let f = fares(n, 3);
        let mut airport = (0.0, 0);
        let mut suburbs = (0.0, 0);
        for (ride, fare) in r.iter().zip(&f) {
            let area = ride.split('|').nth(1).unwrap();
            let fare_amt: f64 = fare.split('|').nth(1).unwrap().parse().unwrap();
            let tip: f64 = fare.split('|').nth(2).unwrap().parse().unwrap();
            let rate = tip / fare_amt;
            match area {
                "airport" => {
                    airport.0 += rate;
                    airport.1 += 1;
                }
                "suburbs" => {
                    suburbs.0 += rate;
                    suburbs.1 += 1;
                }
                _ => {}
            }
        }
        let airport_mean = airport.0 / airport.1 as f64;
        let suburbs_mean = suburbs.0 / suburbs.1 as f64;
        assert!(
            airport_mean > suburbs_mean + 0.05,
            "{airport_mean} vs {suburbs_mean}"
        );
    }

    #[test]
    fn transactions_have_separable_fraud() {
        let txs = transactions(1_000, 5);
        let fraud: Vec<&Transaction> = txs.iter().filter(|t| t.fraudulent).collect();
        let benign: Vec<&Transaction> = txs.iter().filter(|t| !t.fraudulent).collect();
        assert!(!fraud.is_empty() && !benign.is_empty());
        let fraud_amt: f64 = fraud.iter().map(|t| t.amount).sum::<f64>() / fraud.len() as f64;
        let benign_amt: f64 = benign.iter().map(|t| t.amount).sum::<f64>() / benign.len() as f64;
        assert!(fraud_amt > benign_amt * 2.0);
    }

    #[test]
    fn transaction_record_round_trips() {
        let t = Transaction {
            amount: 12.5,
            velocity: 2.0,
            geo_distance: 7.25,
            fraudulent: false,
        };
        let parsed = Transaction::parse(&t.to_record()).unwrap();
        assert!((parsed.amount - 12.5).abs() < 1e-9);
        assert!((parsed.geo_distance - 7.25).abs() < 1e-9);
        assert!(Transaction::parse("garbage").is_none());
    }

    #[test]
    fn packet_summaries_parse() {
        let mut rng = StdRng::seed_from_u64(0);
        let p = packet_summary(3, &mut rng);
        let parts: Vec<&str> = p.split('|').collect();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], "u3");
        assert!(parts[2].parse::<u32>().is_ok());
    }
}
