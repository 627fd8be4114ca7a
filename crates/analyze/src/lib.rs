//! Static analysis for stream2gym.
//!
//! Two layers share this crate:
//!
//! * **Scenario analyzer** — [`analyze`] runs a cross-subsystem feasibility
//!   ruleset over a scenario's resolved plan ([`ScenarioFacts`]) *before*
//!   any sim time elapses, emitting coded [`Diagnostic`]s (`S2G0xx`). `Deny`
//!   diagnostics describe scenarios that cannot mean what their author
//!   intended (the run would fail or silently misconfigure); `Warn`
//!   diagnostics encode tuning traps learned the hard way (an election
//!   timer that waits out the outage it was meant to detect, an `acks=all`
//!   producer whose unbatched interval collapses into queueing, ...).
//!   `s2g_core::Scenario::analyze` resolves the plan and calls this; the
//!   run is then built from the same plan.
//! * **Determinism source linter** — [`mod@lint`] token-scans workspace
//!   sources for misuses of this project's own APIs that clippy cannot
//!   scope: a metric updated by name on the RPC path, and a CPU completion
//!   no handler matches. Clippy holds the hazards it can check by type
//!   (wall-clock reads, hash-order iteration, truncating casts in codec
//!   files, private event heaps). The `s2g-lint` binary wraps it for CI
//!   (`cargo run -p s2g-analyze --bin s2g-lint -- --deny`).

#![deny(missing_docs)]

use std::fmt;

pub mod facts;
pub mod lint;
pub(crate) mod rules;

pub use facts::{
    BrokerFacts, ComponentRef, ConsumerFacts, FaultFacts, FaultKind, FaultTarget, JobFacts,
    ProducerFacts, ScenarioFacts, StoreReplicaFacts, TopicFacts,
};
pub use lint::{lint, LintFinding, LintReport};
pub use rules::analyze;

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// A tuning trap: the run will start, but the outcome will likely not
    /// be what the scenario's author intended.
    Warn,
    /// A misconfiguration: `Scenario::run` refuses to start unless
    /// explicitly overridden.
    Deny,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Warn => write!(f, "warn"),
            Level::Deny => write!(f, "deny"),
        }
    }
}

/// One coded finding from the scenario analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`"S2G001"`..); the catalog lives in `docs/analysis.md`.
    pub code: &'static str,
    /// Severity tier.
    pub level: Level,
    /// What is wrong, with the offending values inlined.
    pub message: String,
    /// The scenario knobs involved (builder-method names), most specific
    /// first.
    pub knobs: Vec<String>,
    /// A concrete way out.
    pub suggestion: String,
}

impl Diagnostic {
    /// Creates a diagnostic; knobs are the builder methods involved.
    pub fn new(
        code: &'static str,
        level: Level,
        message: impl Into<String>,
        knobs: &[&str],
        suggestion: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            level,
            message: message.into(),
            knobs: knobs.iter().map(|k| (*k).to_string()).collect(),
            suggestion: suggestion.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.code, self.level, self.message)?;
        if !self.suggestion.is_empty() {
            write!(f, " (fix: {})", self.suggestion)?;
        }
        Ok(())
    }
}

/// The analyzer's verdict: every diagnostic the ruleset produced, ordered
/// `Deny` first, then by code.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Builds a report, sorting `Deny` before `Warn` and by code within a
    /// tier so output (and JSON) is stable.
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| b.level.cmp(&a.level).then(a.code.cmp(b.code)));
        AnalysisReport { diagnostics }
    }

    /// True when nothing at all was flagged.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one `Deny` diagnostic is present — `run` refuses
    /// to start on these.
    pub fn has_deny(&self) -> bool {
        self.diagnostics.iter().any(|d| d.level == Level::Deny)
    }

    /// The `Deny`-tier findings.
    pub fn denials(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.level == Level::Deny)
    }

    /// The `Warn`-tier findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.level == Level::Warn)
    }

    /// True when some finding carries `code`.
    pub fn has(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Every distinct code present, in report order.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for d in &self.diagnostics {
            if !out.contains(&d.code) {
                out.push(d.code);
            }
        }
        out
    }

    /// Machine-readable JSON: `{"diagnostics":[{code,level,message,knobs,
    /// suggestion}...]}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"code\":{},\"level\":{},\"message\":{},\"knobs\":[",
                json_str(d.code),
                json_str(&d.level.to_string()),
                json_str(&d.message),
            ));
            for (j, k) in d.knobs.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&json_str(k));
            }
            s.push_str(&format!("],\"suggestion\":{}}}", json_str(&d.suggestion)));
        }
        s.push_str("]}");
        s
    }

    /// Tidy (one line per finding, tab-separated `code level message
    /// suggestion`) for grepping and spreadsheets.
    pub fn to_tidy(&self) -> String {
        let mut s = String::new();
        for d in &self.diagnostics {
            s.push_str(&format!(
                "{}\t{}\t{}\t{}\n",
                d.code, d.level, d.message, d.suggestion
            ));
        }
        s
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "scenario analyzes clean");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Escapes `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Edit distance used for "did you mean" suggestions on fault-plan
/// targets and topic names.
pub(crate) fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur.push((prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The candidate closest to `name` within an edit distance small enough
/// to look like a typo (≤ 1/3 of the name's length, minimum 2).
pub(crate) fn nearest<'a>(name: &str, candidates: impl Iterator<Item = &'a str>) -> Option<String> {
    let budget = (name.chars().count() / 3).max(2);
    candidates
        .map(|c| (levenshtein(name, c), c))
        .filter(|(d, _)| *d <= budget)
        .min_by_key(|(d, c)| (*d, c.to_string()))
        .map(|(_, c)| c.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_orders_deny_first_and_serializes() {
        let r = AnalysisReport::new(vec![
            Diagnostic::new("S2G020", Level::Warn, "warned", &["a"], "do b"),
            Diagnostic::new("S2G002", Level::Deny, "denied \"x\"", &[], "do c"),
        ]);
        assert!(r.has_deny());
        assert_eq!(r.codes(), vec!["S2G002", "S2G020"]);
        let json = r.to_json();
        assert!(json.starts_with("{\"diagnostics\":["));
        assert!(json.contains("\\\"x\\\""));
        assert!(r.to_tidy().lines().count() == 2);
    }

    #[test]
    fn nearest_finds_typos_only() {
        let names = ["fraud-detect", "producer-0"];
        assert_eq!(
            nearest("fraud-detct", names.iter().copied()),
            Some("fraud-detect".to_string())
        );
        assert_eq!(nearest("zzzzzz", names.iter().copied()), None);
    }
}
