//! Table I coverage: every attribute of stream2gym's modeling interface is
//! wired through the GraphML front end into running behavior.

use stream2gym::core::{parse_graphml, scenario_from_graphml, ResourceBundle};
use stream2gym::spe::{Event, Plan, Value};

fn split_plan() -> Plan {
    Plan::new().flat_map("split", |e| {
        e.value
            .as_str()
            .unwrap_or("")
            .split_whitespace()
            .map(|w| Event {
                value: Value::Str(w.to_string()),
                ..e.clone()
            })
            .collect()
    })
}

/// A description exercising every Table I attribute at once.
const FULL_SURFACE: &str = r#"
<graph edgedefault="undirected">
  <data key="topicCfg">topics.cfg</data>
  <data key="faultCfg">faults.cfg</data>
  <data key="durationS">30</data>
  <data key="seed">9</data>

  <node id="h1">
    <data key="prodType">SFST</data>
    <data key="prodCfg">src.yaml</data>
    <data key="cpuPercentage">50</data>
  </node>
  <node id="h2"><data key="brokerCfg">broker.yaml</data></node>
  <node id="h3">
    <data key="streamProcType">SPARK</data>
    <data key="streamProcCfg">spe.yaml</data>
  </node>
  <node id="h4">
    <data key="storeType">MYSQL</data>
    <data key="storeCfg">default</data>
  </node>
  <node id="h5">
    <data key="consType">STANDARD</data>
    <data key="consCfg">sink.yaml</data>
  </node>
  <node id="s1"/>
  <edge source="s1" target="h1">
    <data key="st">1</data><data key="dt">1</data>
    <data key="lat">5</data><data key="bw">100</data><data key="loss">0.0</data>
  </edge>
  <edge source="s1" target="h2"><data key="lat">5</data></edge>
  <edge source="s1" target="h3"><data key="lat">5</data></edge>
  <edge source="s1" target="h4"><data key="lat">5</data></edge>
  <edge source="s1" target="h5"><data key="lat">5</data></edge>
</graph>"#;

fn bundle() -> ResourceBundle {
    ResourceBundle::new()
        .file("topics.cfg", "raw-data 1 1\nwords 1 1\n")
        .file("faults.cfg", "10 loss h5 s1 0.5\n12 latency h5 s1 8\n")
        .file(
            "src.yaml",
            "filePath: corpus.txt\ntopicName: raw-data\nmessageInterval: 40ms\n\
             bufferMemory: 16m\nrequestTimeout: 2000ms\n",
        )
        .file("corpus.txt", "alpha beta\ngamma delta epsilon\n")
        .file("broker.yaml", "replicaLagMax: 10s\nsessionTimeout: 6s\n")
        .file(
            "spe.yaml",
            "app: split\nsourceTopics: raw-data\nsinkTopic: words\nbatchInterval: 250ms\n",
        )
        .file("sink.yaml", "topics: words\npollInterval: 50ms\n")
        .plan("split", split_plan)
}

#[test]
fn graphml_parses_all_table1_attributes() {
    let doc = parse_graphml(FULL_SURFACE).expect("parses");
    // Graph attributes.
    assert!(doc.graph_data.contains_key("topicCfg"));
    assert!(doc.graph_data.contains_key("faultCfg"));
    // Node attributes.
    let attr = |n: &str, k: &str| doc.node(n).unwrap().data.get(k).cloned();
    assert_eq!(attr("h1", "prodType").as_deref(), Some("SFST"));
    assert_eq!(attr("h1", "prodCfg").as_deref(), Some("src.yaml"));
    assert_eq!(attr("h1", "cpuPercentage").as_deref(), Some("50"));
    assert_eq!(attr("h2", "brokerCfg").as_deref(), Some("broker.yaml"));
    assert_eq!(attr("h3", "streamProcType").as_deref(), Some("SPARK"));
    assert_eq!(attr("h3", "streamProcCfg").as_deref(), Some("spe.yaml"));
    assert_eq!(attr("h4", "storeType").as_deref(), Some("MYSQL"));
    assert_eq!(attr("h4", "storeCfg").as_deref(), Some("default"));
    assert_eq!(attr("h5", "consType").as_deref(), Some("STANDARD"));
    assert_eq!(attr("h5", "consCfg").as_deref(), Some("sink.yaml"));
    // Link attributes.
    let e = &doc.edges[0];
    for k in ["st", "dt", "lat", "bw", "loss"] {
        assert!(e.data.contains_key(k), "edge attribute {k}");
    }
}

#[test]
fn full_surface_description_runs() {
    let sc = scenario_from_graphml("table1", FULL_SURFACE, &bundle()).expect("resolves");
    let result = sc.run().expect("runs");
    // The pipeline moved data end to end: 2 documents → 5 words.
    assert_eq!(
        result.monitor.borrow().delivery_count("words"),
        5,
        "five split words delivered through the pipeline"
    );
    // The fault plan applied (loss/latency changes do not break delivery).
    assert_eq!(result.report.producers[0].stats.acked, 2);
}

#[test]
fn a_malformed_attribute_is_an_error_naming_place_key_and_value() {
    // One typo per attribute the front end parses itself. Each used to be
    // dropped silently, running a different experiment than the one
    // described; `mode` fell back to ZooKeeper on anything but `kraft`.
    let typo = |from: &str, to: &str| {
        assert!(FULL_SURFACE.contains(from), "{from} is in the document");
        FULL_SURFACE.replacen(from, to, 1)
    };
    let seed = r#"<data key="seed">9</data>"#;
    let cases = [
        (
            "graph",
            "seed",
            "nine",
            typo(seed, r#"<data key="seed">nine</data>"#),
        ),
        (
            "graph",
            "durationS",
            "30s",
            typo(">30</data>", ">30s</data>"),
        ),
        (
            "graph",
            "mode",
            "kraf",
            typo(seed, r#"<data key="mode">kraf</data>"#),
        ),
        (
            "node h1",
            "cpuPercentage",
            "half",
            typo(">50</data>", ">half</data>"),
        ),
        ("edge s1->h1", "st", "-1", typo(r#""st">1<"#, r#""st">-1<"#)),
        (
            "edge s1->h1",
            "dt",
            "65536",
            typo(r#""dt">1<"#, r#""dt">65536<"#),
        ),
        (
            "edge s1->h1",
            "lat",
            "5ms",
            typo(r#""lat">5<"#, r#""lat">5ms<"#),
        ),
        (
            "edge s1->h1",
            "bw",
            "fast",
            typo(">100</data>", ">fast</data>"),
        ),
        (
            "edge s1->h1",
            "loss",
            "0,0",
            typo(">0.0</data>", ">0,0</data>"),
        ),
    ];
    for (at, key, value, xml) in cases {
        let err = scenario_from_graphml("typo", &xml, &bundle()).expect_err(key);
        let shown = err.to_string();
        assert!(
            [at, key, value].iter().all(|part| shown.contains(part)),
            "`{key}` = `{value}` at {at} must be named, got: {shown}"
        );
    }
    // Both spellings of a mode that exists still load.
    for mode in ["zk", "kraft"] {
        let xml = typo(seed, &format!(r#"<data key="mode">{mode}</data>"#));
        scenario_from_graphml("mode", &xml, &bundle()).expect(mode);
    }
}
