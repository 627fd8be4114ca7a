//! # s2g-core — the stream2gym prototyping environment
//!
//! The paper's primary contribution, reproduced as a Rust library: a
//! high-level interface for describing, deploying, and measuring
//! distributed stream processing pipelines over an emulated network.
//!
//! * [`Scenario`] — the task description + orchestrator: place brokers,
//!   producer/consumer stubs, stream jobs, and stores on hosts; pick
//!   topics, coordination mode, link shapes, and a fault plan; `run()`.
//! * [`parse_graphml`] / [`scenario_from_graphml`] — the GraphML front end
//!   (§III-C, Fig. 4) with [`ComponentConfig`] YAML-style component files.
//! * [`MonitorCore`] / [`DeliveryMatrix`] — latency and delivery monitoring.
//! * [`ServerSpec`] / [`MemModel`] — the §VI-C resource model, read back
//!   through [`RunReport::series`].
//! * [`ascii_chart`] / [`ascii_matrix`] / [`csv_series`] — visualization.
//!
//! # Example: a minimal pipeline, scripted
//!
//! ```
//! use s2g_broker::TopicSpec;
//! use s2g_core::{Scenario, SourceSpec};
//! use s2g_net::LinkSpec;
//! use s2g_sim::{SimDuration, SimTime};
//!
//! let mut sc = Scenario::new("minimal");
//! sc.seed(7)
//!     .duration(SimTime::from_secs(30))
//!     .default_link(LinkSpec::new().latency_ms(5))
//!     .topic(TopicSpec::new("raw-data"));
//! sc.broker("h2");
//! sc.producer(
//!     "h1",
//!     SourceSpec::Rate {
//!         topic: "raw-data".into(),
//!         count: 50,
//!         interval: SimDuration::from_millis(100),
//!         payload: 200,
//!     },
//!     Default::default(),
//! );
//! sc.consumer("h5", Default::default(), &["raw-data"]);
//! let result = sc.run()?;
//! assert_eq!(result.report.producers[0].stats.acked, 50);
//! assert_eq!(result.total_deliveries(), 50);
//! # Ok::<(), s2g_core::ScenarioError>(())
//! ```

#![warn(missing_docs)]

mod config;
mod desc;
mod graphml;
mod monitor;
mod report;
mod resources;
mod scenario;
mod viz;

pub use config::{ComponentConfig, ConfigError};
pub use desc::{scenario_from_graphml, DescError, ResourceBundle};
pub use graphml::{parse_graphml, GraphmlDoc, GraphmlEdge, GraphmlError, GraphmlNode};
pub use monitor::{DeliveryMatrix, DeliveryRecord, MonitorCore, MonitorHandle, MonitoredSink};
pub use report::{
    BrokerRecoveryReport, BrokerReport, ClientRecoveryReport, ConsumerReport, ProducerReport,
    RecoveryReport, RunReport, RunResult, SpeReport, StoreRecoveryReport, StoreReport,
};
pub use resources::{cdf, median, MemModel, ServerSpec};
pub use s2g_analyze::{AnalysisReport, Diagnostic, Level};
pub use scenario::{
    instance_name, shuffle_topic, CheckpointSpec, ConsumerSinkSpec, DurableStoreSpec, Scenario,
    ScenarioError, SourceSpec, SpeJobSpec, SpeSinkSpec, DEFAULT_KEY_GROUPS,
};
pub use viz::{ascii_chart, ascii_matrix, ascii_table, csv_series};
