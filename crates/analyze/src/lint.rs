//! The determinism source linter behind the `s2g-lint` binary.
//!
//! The build environment has no crates.io access, so this is a hand-rolled
//! **token scan**, not an AST pass (no `syn`, no dylint): comments and
//! string-literal contents are stripped, `#[cfg(test)]` blocks are
//! skipped, and the rules below match on what remains. That catches the
//! hazard classes that have actually bitten this codebase while staying
//! dependency-free; it also means a sufficiently creative alias can evade
//! it — the linter is a tripwire, not a proof.
//!
//! Rules (configured in `lint.toml`, deny/warn tiers per rule):
//!
//! * `wall-clock` — `SystemTime`/`Instant::now`/`UNIX_EPOCH`: real time
//!   observed inside a simulated timeline breaks same-seed reproducibility.
//! * `os-entropy` — `thread_rng`/`OsRng`/`from_entropy`/`getrandom`: OS
//!   randomness is unseeded by definition.
//! * `hash-iteration` — iteration over identifiers declared as
//!   `HashMap`/`HashSet` in sim-visible paths: `RandomState` makes the
//!   order differ per process, so any message/event sequence derived from
//!   it diverges across runs.
//! * `unchecked-narrowing` — `as u8`/`as u16`/`as u32` in codec paths:
//!   silent truncation corrupts framing; `try_from` makes it loud.
//! * `event-queue` — `BinaryHeap` in sim-visible paths: ad-hoc heap event
//!   queues bypass the calendar-queue scheduler (`crates/sim/src/queue.rs`)
//!   and its `(at, seq)` tie-break contract; the only sanctioned heap is
//!   the `ReferenceQueue` differential oracle.
//! * `metric-by-name` — a string-keyed `counter_add`/`gauge_set`/
//!   `observe_*` in the files every simulated RPC runs through
//!   ([`METRIC_HOT_PATHS`]): each such call looks `(scope, name)` up again,
//!   per message; those sites hold `s2g_telemetry` handles instead.
//! * `exec-unhandled` — a `.exec(cost, TAG)` whose tag constant the file
//!   names nowhere else: no `on_cpu_done` arm can be matching it, so the
//!   completion event is scheduled, queued and dispatched for nothing;
//!   `Ctx::charge` books the same CPU time without it.
//!
//! A finding is suppressed by an escape comment on the same or preceding
//! line, which must carry a justification:
//!
//! ```text
//! // s2g-lint: allow(hash-iteration) — drained into a BTreeMap first
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Severity tier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintLevel {
    /// Report but never fail the build.
    Warn,
    /// Fail `s2g-lint --deny`.
    Deny,
}

impl fmt::Display for LintLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintLevel::Warn => write!(f, "warn"),
            LintLevel::Deny => write!(f, "deny"),
        }
    }
}

/// Per-rule configuration.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// Severity; `None` disables the rule.
    pub level: Option<LintLevel>,
    /// When non-empty, the rule only applies to files whose (forward-slash)
    /// path contains one of these substrings.
    pub paths: Vec<String>,
}

/// The linter configuration (`lint.toml`).
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Directories scanned, relative to the root passed to [`lint`].
    pub roots: Vec<String>,
    /// Path substrings excluded from every rule.
    pub exclude: Vec<String>,
    /// Per-rule settings, keyed by rule name.
    pub rules: BTreeMap<String, RuleConfig>,
}

/// The seven rule names, in catalog order.
pub const RULE_NAMES: [&str; 7] = [
    "wall-clock",
    "os-entropy",
    "hash-iteration",
    "unchecked-narrowing",
    "event-queue",
    "metric-by-name",
    "exec-unhandled",
];

/// Where `metric-by-name` applies unless `lint.toml` says otherwise: the
/// broker, its partitions and clients, and the SPE worker. Everywhere else
/// (checkpoints, stores, the runtime) updates are per checkpoint or per
/// tick, and the string API is the right one.
pub const METRIC_HOT_PATHS: [&str; 5] = [
    "crates/broker/src/broker.rs",
    "crates/broker/src/partition.rs",
    "crates/broker/src/consumer.rs",
    "crates/broker/src/producer.rs",
    "crates/spe/src/worker.rs",
];

impl Default for LintConfig {
    fn default() -> Self {
        let mut rules = BTreeMap::new();
        for name in RULE_NAMES {
            let paths: &[&str] = match name {
                "metric-by-name" => &METRIC_HOT_PATHS,
                _ => &[],
            };
            rules.insert(
                name.to_string(),
                RuleConfig {
                    level: Some(LintLevel::Deny),
                    paths: paths.iter().map(|p| p.to_string()).collect(),
                },
            );
        }
        LintConfig {
            roots: vec!["crates".into(), "src".into()],
            exclude: vec![
                "vendor/".into(),
                "/target/".into(),
                "/tests/".into(),
                "/examples/".into(),
            ],
            rules,
        }
    }
}

impl LintConfig {
    /// Parses the `lint.toml` subset this linter uses: `[lint]` with
    /// `roots`/`exclude` string arrays, and `[rules.<name>]` sections with
    /// a `level` string (`"deny"`, `"warn"`, `"off"`) and an optional
    /// `paths` string array.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<LintConfig, String> {
        let mut cfg = LintConfig::default();
        let mut section = String::new();
        // Fold multi-line arrays into one logical line (kept with the line
        // number of their first physical line, for error messages).
        let mut logical: Vec<(usize, String)> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let open = |s: &str| s.matches('[').count() > s.matches(']').count() && s.contains('=');
            match logical.last_mut() {
                Some((_, prev)) if open(prev) => {
                    prev.push(' ');
                    prev.push_str(trimmed);
                }
                _ => logical.push((i, trimmed.to_string())),
            }
        }
        for (i, raw) in logical {
            let line = raw.as_str();
            let err = |m: &str| format!("lint.toml line {}: {m}", i + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                if section != "lint" && section.strip_prefix("rules.").is_none() {
                    return Err(err("unknown section"));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err("expected `key = value`"));
            };
            let (key, value) = (key.trim(), value.trim());
            match (section.as_str(), key) {
                ("lint", "roots") => {
                    cfg.roots = parse_str_array(value).ok_or_else(|| err("bad array"))?
                }
                ("lint", "exclude") => {
                    cfg.exclude = parse_str_array(value).ok_or_else(|| err("bad array"))?;
                }
                (s, k) => {
                    let Some(rule) = s.strip_prefix("rules.") else {
                        return Err(err("key outside a known section"));
                    };
                    if !RULE_NAMES.contains(&rule) {
                        return Err(err("unknown rule"));
                    }
                    let entry = cfg.rules.get_mut(rule).expect("default rules are complete");
                    match k {
                        "level" => {
                            entry.level = match parse_str(value).as_deref() {
                                Some("deny") => Some(LintLevel::Deny),
                                Some("warn") => Some(LintLevel::Warn),
                                Some("off") => None,
                                _ => return Err(err("level must be deny|warn|off")),
                            };
                        }
                        "paths" => {
                            entry.paths = parse_str_array(value).ok_or_else(|| err("bad array"))?;
                        }
                        _ => return Err(err("unknown rule key")),
                    }
                }
            }
        }
        Ok(cfg)
    }
}

/// Parses `"a"` → `a`.
fn parse_str(v: &str) -> Option<String> {
    v.strip_prefix('"')?.strip_suffix('"').map(str::to_string)
}

/// Parses `["a", "b"]` (possibly with a trailing comma).
fn parse_str_array(v: &str) -> Option<Vec<String>> {
    let inner = v.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_str(item)?);
    }
    Some(out)
}

/// One finding.
#[derive(Debug, Clone)]
pub struct LintFinding {
    /// File, relative to the scanned root.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Rule name.
    pub rule: String,
    /// Severity (from the config).
    pub level: LintLevel,
    /// What was matched and why it is a hazard.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}]: {}\n    {}",
            self.path, self.line, self.level, self.rule, self.message, self.snippet
        )
    }
}

/// Everything one scan produced.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, in path/line order.
    pub findings: Vec<LintFinding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// What each crate weighs, keyed by its directory (`crates/sim`; `.` is
    /// the root package): `(files, code lines, pub items)`. A code line has
    /// something on it once comments are stripped and is outside every
    /// `#[cfg(test)]` region; a pub item starts with `pub` and one of
    /// `fn struct enum trait type const mod` (`pub(crate)` is not public, a
    /// `pub use` names nothing new). A PR that says it removed concepts
    /// shows it as a difference of these.
    pub crates: BTreeMap<String, (usize, usize, usize)>,
}

impl LintReport {
    /// True when a deny-tier finding is present.
    pub fn has_deny(&self) -> bool {
        self.findings.iter().any(|f| f.level == LintLevel::Deny)
    }

    /// Machine-readable JSON.
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"files_scanned\":{},\"crates\":[", self.files_scanned);
        for (i, (name, (files, code_lines, pub_items))) in self.crates.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"crate\":{},\"files\":{files},\"code_lines\":{code_lines},\
                 \"pub_items\":{pub_items}}}",
                crate::json_str(name),
            ));
        }
        s.push_str("],\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"path\":{},\"line\":{},\"rule\":{},\"level\":{},\"message\":{}}}",
                crate::json_str(&f.path),
                f.line,
                crate::json_str(&f.rule),
                crate::json_str(&f.level.to_string()),
                crate::json_str(&f.message),
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Scans every configured root under `root` and returns the findings.
///
/// # Errors
///
/// Propagates filesystem errors from the walk.
pub fn lint(root: &Path, cfg: &LintConfig) -> std::io::Result<LintReport> {
    let mut files: Vec<PathBuf> = Vec::new();
    for r in &cfg.roots {
        collect_rs_files(&root.join(r), &mut files)?;
    }
    files.sort();
    let mut report = LintReport::default();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        if cfg.exclude.iter().any(|e| rel.contains(e.as_str())) {
            continue;
        }
        let text = std::fs::read_to_string(f)?;
        report.files_scanned += 1;
        report.findings.extend(lint_source(&rel, &text, cfg));
        let krate = rel.split_once("/src/").map_or(".", |(krate, _)| krate);
        let (code_lines, pub_items) = source_size(&text);
        let size = report.crates.entry(krate.to_string()).or_default();
        *size = (size.0 + 1, size.1 + code_lines, size.2 + pub_items);
    }
    Ok(report)
}

/// What one source text adds to [`LintReport::crates`]: `(code lines, pub
/// items)`.
fn source_size(text: &str) -> (usize, usize) {
    let raw_lines: Vec<&str> = text.lines().collect();
    let code = strip_comments_and_strings(&raw_lines);
    let skip = test_block_lines(&raw_lines, &code);
    let live = code.iter().zip(&skip).filter(|(_, skipped)| !**skipped);
    let (mut code_lines, mut pub_items) = (0, 0);
    for line in live.map(|(line, _)| line.trim()).filter(|l| !l.is_empty()) {
        code_lines += 1;
        let item = line.strip_prefix("pub ").and_then(|l| l.split(' ').next());
        let kinds = ["fn", "struct", "enum", "trait", "type", "const", "mod"];
        pub_items += usize::from(item.is_some_and(|kind| kinds.contains(&kind)));
    }
    (code_lines, pub_items)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints one source text. Pure — the self-tests feed fixture snippets
/// through this directly.
pub fn lint_source(path: &str, text: &str, cfg: &LintConfig) -> Vec<LintFinding> {
    let raw_lines: Vec<&str> = text.lines().collect();
    let code = strip_comments_and_strings(&raw_lines);
    let skip = test_block_lines(&raw_lines, &code);
    let allows: Vec<Option<AllowDirective>> = raw_lines.iter().map(|l| parse_allow(l)).collect();

    let mut findings: Vec<LintFinding> = Vec::new();
    let active = |rule: &str| -> Option<LintLevel> {
        let rc = cfg.rules.get(rule)?;
        let level = rc.level?;
        if !rc.paths.is_empty() && !rc.paths.iter().any(|p| path.contains(p.as_str())) {
            return None;
        }
        Some(level)
    };

    let mut push = |rule: &str, level: LintLevel, line_idx: usize, message: String| {
        // An allow on the finding's own line or the line above suppresses
        // it — but only when it names the rule and carries a reason.
        for idx in [Some(line_idx), line_idx.checked_sub(1)]
            .into_iter()
            .flatten()
        {
            if let Some(a) = &allows[idx] {
                if a.rules.iter().any(|r| r == rule) {
                    if a.justified {
                        return;
                    }
                    findings.push(LintFinding {
                        path: path.to_string(),
                        line: idx + 1,
                        rule: rule.to_string(),
                        level,
                        message: format!(
                            "allow({rule}) without a justification; write \
                             `// s2g-lint: allow({rule}) — <reason>`"
                        ),
                        snippet: raw_lines[idx].trim().to_string(),
                    });
                    return;
                }
            }
        }
        findings.push(LintFinding {
            path: path.to_string(),
            line: line_idx + 1,
            rule: rule.to_string(),
            level,
            message,
            snippet: raw_lines[line_idx].trim().to_string(),
        });
    };

    // Every rule is one question asked of each non-test code line: what
    // is wrong with it, if anything.
    let mut scan = |rule: &str, find: &dyn Fn(&str) -> Option<String>| {
        let Some(level) = active(rule) else {
            return;
        };
        for (i, line) in code.iter().enumerate() {
            if !skip[i] {
                if let Some(message) = find(line) {
                    push(rule, level, i, message);
                }
            }
        }
    };
    let first_of =
        |line: &str, needles: &[&'static str]| needles.iter().copied().find(|n| line.contains(n));

    scan("wall-clock", &|line| {
        let needle = first_of(line, &["SystemTime", "Instant::now", "UNIX_EPOCH"])?;
        Some(format!(
            "`{needle}` reads the wall clock; sim code must use `SimTime`"
        ))
    });
    scan("os-entropy", &|line| {
        let needle = first_of(line, &["thread_rng", "OsRng", "from_entropy", "getrandom"])?;
        Some(format!(
            "`{needle}` draws OS entropy; sim code must derive from the run seed"
        ))
    });
    let tracked = hash_decls(&code, &skip);
    scan("hash-iteration", &|line| {
        let (name, op) = hash_iteration_on(line, &tracked)?;
        Some(format!(
            "`{name}` is a HashMap/HashSet and `{op}` observes its nondeterministic \
             order; use BTreeMap/BTreeSet or sort first"
        ))
    });
    scan("unchecked-narrowing", &|line| {
        let cast = narrowing_cast(line)?;
        let ty = cast.trim_start_matches("as ");
        Some(format!(
            "unchecked `{cast}` narrowing in a codec path; use `{ty}::try_from(..)` so \
             truncation is loud"
        ))
    });
    scan("event-queue", &|line| {
        line.contains("BinaryHeap").then(|| {
            "`BinaryHeap` event queues bypass the calendar-queue scheduler's \
             `(at, seq)` ordering contract; schedule through `s2g-sim` \
             (`crates/sim/src/queue.rs`) instead"
                .to_string()
        })
    });
    scan("metric-by-name", &|line| {
        let call = metric_update_by_name(line)?;
        Some(format!(
            "`{call}` looks the metric up by `(scope, name)` on every call, and this file \
             is on the path of every simulated RPC; keep a `CounterHandle`/`GaugeHandle`/\
             `HistogramHandle` from `Telemetry` instead"
        ))
    });

    if let Some(level) = active("exec-unhandled") {
        for (i, tag) in unhandled_exec_tags(&code, &skip) {
            let message = format!(
                "nothing in this file but this call and its definition names `{tag}`, so no \
                 `on_cpu_done` arm handles the completion; use `Ctx::charge` to book the CPU \
                 time without scheduling an event"
            );
            push("exec-unhandled", level, i, message);
        }
    }

    findings.sort_by_key(|f| (f.line, f.rule.clone()));
    findings
}

/// The `.exec(` calls whose tag nobody can be handling, as `(line of the
/// call, tag constant)`. The tag is the last `SCREAMING_CASE` name of the
/// call's last argument (`tags::BATCH_DONE`, `PRODUCER_TAGS + off::NOOP_CPU`);
/// a tag held in a variable is somebody's bookkeeping and is left alone.
/// It is handled when the file's non-test code names it anywhere outside
/// `.exec(` calls and its own `const` definition.
fn unhandled_exec_tags(code: &[String], skip: &[bool]) -> Vec<(usize, String)> {
    // The non-test code as one text (a call may span lines), with the
    // offset each line starts at.
    let mut text = String::new();
    let mut starts = Vec::with_capacity(code.len());
    for (line, skipped) in code.iter().zip(skip) {
        starts.push(text.len());
        if !skipped {
            text.push_str(line);
        }
        text.push('\n');
    }
    let is_const = |w: &&str| {
        w.chars().any(|c| c.is_ascii_uppercase())
            && w.chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    };
    // Every call as (line, tag), and the text without the calls' arguments.
    let mut calls: Vec<(usize, String)> = Vec::new();
    let mut rest = String::new();
    let mut at = 0;
    while let Some(pos) = text[at..].find(".exec(") {
        let open = at + pos + ".exec(".len();
        rest.push_str(&text[at..open]);
        let (mut depth, mut arg_from, mut tag_arg, mut close) = (1usize, open, "", text.len());
        for (j, c) in text[open..].char_indices().map(|(j, c)| (open + j, c)) {
            match c {
                '(' => depth += 1,
                ')' => depth -= 1,
                _ => {}
            }
            if depth == 0 || (depth == 1 && c == ',') {
                // An argument ends here. The tag is the last one; a
                // trailing comma leaves an empty one after it.
                if !text[arg_from..j].trim().is_empty() {
                    tag_arg = &text[arg_from..j];
                }
                arg_from = j + 1;
            }
            if depth == 0 {
                close = j;
                break;
            }
        }
        let mut words = tag_arg.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        if let Some(tag) = words.rfind(is_const) {
            let line = starts.partition_point(|start| *start < open) - 1;
            calls.push((line, tag.to_string()));
        }
        at = close;
    }
    rest.push_str(&text[at..]);
    calls.retain(|(_, tag)| {
        let mut from = 0;
        while let Some(pos) = find_word(&rest[from..], tag) {
            let defined = rest[..from + pos].trim_end().ends_with("const");
            if !defined {
                return false;
            }
            from += pos + tag.len();
        }
        true
    });
    calls
}

/// The first `as u8`/`as u16`/`as u32` cast on a line, if any.
fn narrowing_cast(line: &str) -> Option<&'static str> {
    [" as u8", " as u16", " as u32"]
        .into_iter()
        .find_map(|needle| {
            // Require a word boundary after the type so ` as u32` does not
            // also match ` as u32x4`-style names.
            let pos = line.find(needle)?;
            let after = line[pos + needle.len()..].chars().next();
            after
                .is_none_or(|c| !c.is_alphanumeric() && c != '_')
                .then(|| needle.trim_start())
        })
}

/// The string-keyed telemetry update a line calls, if any: `counter_add`,
/// `gauge_set`, or any `observe_*` (`observe_latency`, `observe_bytes`,
/// `observe_count`, `observe_in`). A bare `.observe(` is a handle's or a
/// `Histogram`'s own method and is fine.
fn metric_update_by_name(line: &str) -> Option<&str> {
    for needle in [".counter_add(", ".gauge_set(", ".observe_"] {
        let Some(pos) = line.find(needle) else {
            continue;
        };
        let name = &line[pos + 1..];
        let len = name
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(name.len());
        if name[len..].starts_with('(') {
            return Some(&name[..len]);
        }
    }
    None
}

/// A parsed `s2g-lint: allow(...)` escape comment.
struct AllowDirective {
    rules: Vec<String>,
    justified: bool,
}

fn parse_allow(raw_line: &str) -> Option<AllowDirective> {
    let at = raw_line.find("s2g-lint: allow(")?;
    let rest = &raw_line[at + "s2g-lint: allow(".len()..];
    let close = rest.find(')')?;
    let rules = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let tail = rest[close + 1..].trim_matches(|c: char| c.is_whitespace() || c == '-' || c == '—');
    Some(AllowDirective {
        rules,
        justified: !tail.is_empty(),
    })
}

/// Replaces comments and string-literal *contents* with spaces, line by
/// line, tracking block comments across lines. Keeping the quotes
/// themselves preserves column positions well enough for snippets while
/// guaranteeing pattern tables (like this linter's own) never self-match.
fn strip_comments_and_strings(lines: &[&str]) -> Vec<String> {
    let mut out = Vec::with_capacity(lines.len());
    let mut in_block_comment = false;
    for line in lines {
        let mut s = String::with_capacity(line.len());
        let bytes: Vec<char> = line.chars().collect();
        let mut i = 0;
        let mut in_string = false;
        while i < bytes.len() {
            let c = bytes[i];
            if in_block_comment {
                if c == '*' && bytes.get(i + 1) == Some(&'/') {
                    in_block_comment = false;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            if in_string {
                if c == '\\' {
                    i += 2;
                } else {
                    if c == '"' {
                        in_string = false;
                        s.push('"');
                    }
                    i += 1;
                }
                continue;
            }
            match c {
                '/' if bytes.get(i + 1) == Some(&'/') => break, // rest is comment
                '/' if bytes.get(i + 1) == Some(&'*') => {
                    in_block_comment = true;
                    i += 2;
                }
                '"' => {
                    in_string = true;
                    s.push('"');
                    i += 1;
                }
                c => {
                    s.push(c);
                    i += 1;
                }
            }
        }
        out.push(s);
    }
    out
}

/// Marks the lines inside `#[cfg(test)] mod ... { ... }` blocks (and any
/// other `#[cfg(test)]`-attributed item with a brace block).
fn test_block_lines(raw_lines: &[&str], code: &[String]) -> Vec<bool> {
    let mut skip = vec![false; raw_lines.len()];
    let mut i = 0;
    while i < raw_lines.len() {
        if raw_lines[i].trim_start().starts_with("#[cfg(test)]") {
            // Find the opening brace of the attributed item, then skip to
            // its matching close.
            let mut depth = 0usize;
            let mut opened = false;
            let mut j = i;
            'outer: while j < code.len() {
                skip[j] = true;
                for c in code[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth = depth.saturating_sub(1);
                            if opened && depth == 0 {
                                break 'outer;
                            }
                        }
                        _ => {}
                    }
                }
                // An attributed item with no block at all (e.g. a use
                // declaration ending in `;`) stops at the semicolon.
                if !opened && code[j].contains(';') {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    skip
}

/// Collects identifiers declared with a HashMap/HashSet type or
/// constructor anywhere in the (non-test) file.
fn hash_decls(code: &[String], skip: &[bool]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (i, line) in code.iter().enumerate() {
        if skip[i] {
            continue;
        }
        for kind in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(pos) = line[from..].find(kind) {
                let at = from + pos;
                from = at + kind.len();
                // Word boundary before (allowing a `::` path prefix).
                let before = &line[..at];
                let after = &line[at + kind.len()..];
                let is_type_use = after.starts_with('<');
                let is_ctor = after.starts_with("::");
                if !is_type_use && !is_ctor {
                    continue;
                }
                if is_type_use {
                    // `name: [path::]HashMap<` — the binding name sits
                    // before the last *single* colon (doubles are path
                    // separators).
                    let trimmed = before.trim_end();
                    let chars: Vec<char> = trimmed.chars().collect();
                    let single_colon = (0..chars.len()).rev().find(|&i| {
                        chars[i] == ':'
                            && chars.get(i.wrapping_sub(1)) != Some(&':')
                            && chars.get(i + 1) != Some(&':')
                    });
                    if let Some(ci) = single_colon {
                        let head: String = chars[..ci].iter().collect();
                        if let Some(name) = trailing_ident(head.trim_end()) {
                            push_unique(&mut names, name);
                        }
                    }
                } else if let Some(eq_head) = before.trim_end().strip_suffix('=') {
                    // `let [mut] name = HashMap::new()` / `= HashSet::from(..)`.
                    if let Some(name) = trailing_ident(eq_head.trim_end()) {
                        push_unique(&mut names, name);
                    }
                }
            }
        }
    }
    names
}

fn push_unique(names: &mut Vec<String>, name: String) {
    if !names.contains(&name) {
        names.push(name);
    }
}

/// The identifier a string ends with, if any.
fn trailing_ident(s: &str) -> Option<String> {
    let end = s.len();
    let start = s
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map_or(0, |p| p + c_len(s, p));
    let ident = &s[start..end];
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(ident.to_string())
    }
}

fn c_len(s: &str, pos: usize) -> usize {
    s[pos..].chars().next().map_or(1, char::len_utf8)
}

/// Finds order-observing iteration over one of the tracked identifiers.
fn hash_iteration_on(line: &str, tracked: &[String]) -> Option<(String, String)> {
    const METHODS: [&str; 9] = [
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".drain(",
        ".into_iter()",
        ".into_keys()",
        ".into_values()",
    ];
    for name in tracked {
        for m in METHODS {
            let needle = format!("{name}{m}");
            if let Some(pos) = line.find(&needle) {
                // Word boundary before the identifier: a path separator or
                // receiver dot is fine, another ident char is not.
                let ok = line[..pos]
                    .chars()
                    .next_back()
                    .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
                if ok {
                    return Some((name.clone(), m.trim_end_matches('(').to_string()));
                }
            }
        }
    }
    // `for x in [&][mut ]receiver.name {` — the expression between `in`
    // and the block, stripped of borrows, ending in a tracked name.
    let for_pos = find_word(line, "for")?;
    let in_pos = find_word(&line[for_pos..], "in").map(|p| p + for_pos)?;
    let expr = line[in_pos + 2..]
        .split(['{', ';'])
        .next()
        .unwrap_or("")
        .trim()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim();
    if expr.contains('(') || expr.contains("..") || expr.is_empty() {
        return None;
    }
    let last = expr.rsplit('.').next().unwrap_or(expr);
    let last = last.rsplit("::").next().unwrap_or(last);
    tracked
        .iter()
        .find(|n| n.as_str() == last)
        .map(|n| (n.clone(), "for .. in".to_string()))
}

/// Finds `word` delimited by non-ident chars.
fn find_word(line: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let at = from + pos;
        let before_ok = line[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        let after_ok = line[at + word.len()..]
            .chars()
            .next()
            .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + word.len();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_all() -> LintConfig {
        LintConfig::default()
    }

    #[test]
    fn flags_wall_clock_and_entropy() {
        let src = "fn f() {\n    let t = std::time::SystemTime::now();\n    let r = rand::thread_rng();\n}\n";
        let f = lint_source("x.rs", src, &cfg_all());
        let rules: Vec<&str> = f.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"wall-clock"), "{f:?}");
        assert!(rules.contains(&"os-entropy"), "{f:?}");
    }

    #[test]
    fn allow_comment_suppresses_with_reason_only() {
        let with_reason =
            "// s2g-lint: allow(wall-clock) — boot banner only, outside the sim\nlet t = SystemTime::now();\n";
        assert!(lint_source("x.rs", with_reason, &cfg_all()).is_empty());
        let without_reason = "// s2g-lint: allow(wall-clock)\nlet t = SystemTime::now();\n";
        let f = lint_source("x.rs", without_reason, &cfg_all());
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("justification"), "{f:?}");
    }

    #[test]
    fn clean_file_is_clean() {
        let src = "fn main() {\n    let m: std::collections::BTreeMap<u32, u32> = Default::default();\n    for (k, v) in &m { let _ = (k, v); }\n}\n";
        assert!(lint_source("x.rs", src, &cfg_all()).is_empty());
    }

    #[test]
    fn flags_hash_iteration_by_decl_and_for_loop() {
        let src = "struct S { pending: HashMap<u64, u32> }\nfn f(s: &S) {\n    for v in s.pending.values() { drop(v); }\n}\nfn g() {\n    let mut seen = HashSet::new();\n    for x in &seen { drop(x); }\n    seen.insert(1);\n}\n";
        let f = lint_source("x.rs", src, &cfg_all());
        let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![3, 7], "{f:?}");
    }

    #[test]
    fn entry_and_get_on_hashmap_are_fine() {
        let src = "fn f() {\n    let mut m: HashMap<u32, u32> = HashMap::new();\n    m.entry(1).or_insert(2);\n    let _ = m.get(&1);\n    m.insert(3, 4);\n}\n";
        assert!(lint_source("x.rs", src, &cfg_all()).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src =
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let x = SystemTime::now(); }\n}\n";
        assert!(lint_source("x.rs", src, &cfg_all()).is_empty());
    }

    #[test]
    fn sizes_count_code_lines_and_pub_items_outside_tests() {
        let src = "/// Doc.\npub fn a() {} // one\npub(crate) struct B;\n\
            #[cfg(test)]\nmod tests { pub fn t() {} }\n";
        assert_eq!(source_size(src), (2, 1));
    }

    #[test]
    fn string_literals_and_comments_do_not_match() {
        let src = "fn f() {\n    let s = \"SystemTime::now\";\n    // SystemTime in prose\n}\n";
        assert!(lint_source("x.rs", src, &cfg_all()).is_empty());
    }

    #[test]
    fn narrowing_only_in_configured_paths() {
        let mut cfg = cfg_all();
        cfg.rules.get_mut("unchecked-narrowing").unwrap().paths = vec!["src/codec.rs".to_string()];
        let src = "fn f(n: usize) -> u32 { n as u32 }\n";
        assert_eq!(lint_source("crates/proto/src/codec.rs", src, &cfg).len(), 1);
        assert!(lint_source("crates/proto/src/hash.rs", src, &cfg).is_empty());
    }

    #[test]
    fn flags_binary_heap_event_queues() {
        let src = "use std::collections::BinaryHeap;\nstruct Q { heap: BinaryHeap<u64> }\n";
        let f = lint_source("x.rs", src, &cfg_all());
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "event-queue"), "{f:?}");
        let escaped = "// s2g-lint: allow(event-queue) — ReferenceQueue differential oracle\nuse std::collections::BinaryHeap;\n";
        assert!(lint_source("x.rs", escaped, &cfg_all()).is_empty());
    }

    #[test]
    fn parses_lint_toml() {
        let toml = "# comment\n[lint]\nroots = [\"crates\"]\nexclude = [\"vendor/\"]\n\n[rules.wall-clock]\nlevel = \"warn\"\n\n[rules.unchecked-narrowing]\nlevel = \"deny\"\npaths = [\"src/codec.rs\", \"src/batch.rs\"]\n";
        let cfg = LintConfig::parse(toml).unwrap();
        assert_eq!(cfg.roots, vec!["crates"]);
        assert_eq!(cfg.rules["wall-clock"].level, Some(LintLevel::Warn));
        assert_eq!(cfg.rules["unchecked-narrowing"].paths.len(), 2);
        assert!(LintConfig::parse("[rules.nope]\nlevel = \"deny\"\n").is_err());
    }

    #[test]
    fn flags_metric_updates_by_name_on_the_rpc_path_only() {
        let src = "fn f(h: &Host) {\n    h.tele.counter_add(&h.name, \"produces\", 1);\n    h.tele\n        .gauge_set(&h.name, \"log_bytes\", 2.0);\n    h.tele.observe_count(&h.name, \"batch_records\", 3);\n    h.metrics.produces.add(1);\n    h.metrics.batch_records.observe(3.0);\n    self.ack_latency.observe(0.1);\n    let observe_window = 3;\n}\n#[cfg(test)]\nmod tests {\n    fn t(t: &Telemetry) { t.counter_add(\"s\", \"c\", 1); }\n}\n";
        let cfg = cfg_all();
        let f = lint_source("crates/broker/src/partition.rs", src, &cfg);
        let found: Vec<(usize, &str)> = f.iter().map(|f| (f.line, f.rule.as_str())).collect();
        assert_eq!(
            found,
            vec![
                (2, "metric-by-name"),
                (4, "metric-by-name"),
                (5, "metric-by-name")
            ],
            "{f:?}"
        );
        assert!(f[2].message.contains("`observe_count`"), "{f:?}");
        // A cold site keeps the string API.
        assert!(lint_source("crates/spe/src/checkpoint.rs", src, &cfg).is_empty());
        let escaped = "// s2g-lint: allow(metric-by-name) — once per reign, not per request\nh.tele.gauge_set(&h.name, &name, 0.0);\n";
        assert!(lint_source("crates/spe/src/worker.rs", escaped, &cfg).is_empty());
    }

    #[test]
    fn flags_exec_calls_whose_tag_no_handler_names() {
        let src = "mod off {\n    pub const NOOP_CPU: u64 = 3;\n    pub const BATCH_DONE: u64 = 4;\n}\n\
            fn f(ctx: &mut Ctx<'_>) {\n    ctx.exec(self.cfg.cpu_per_record, PRODUCER_TAGS + off::NOOP_CPU);\n\
                ctx.exec(\n        self.cfg.per_byte * (bytes as u64),\n        PRODUCER_TAGS + off::NOOP_CPU,\n    );\n\
                ctx.exec(cost, tags::BATCH_DONE);\n    ctx.exec(cost, tag);\n    ctx.exec(cost, tags::ELSEWHERE);\n}\n\
            fn on_cpu_done(&mut self, tag: u64) {\n    if tag == tags::BATCH_DONE {}\n}\n\
            #[cfg(test)]\nmod tests {\n    fn t() { assert_eq!(tag, off::NOOP_CPU); }\n}\n";
        let f = lint_source("crates/broker/src/producer.rs", src, &cfg_all());
        let found: Vec<(usize, &str)> = f.iter().map(|f| (f.line, f.rule.as_str())).collect();
        // Both NOOP_CPU calls (the second by the line it starts on) and the
        // constant this file does not even define; the handled tag, the
        // variable tag and the mention inside the test module change nothing.
        assert_eq!(
            found,
            vec![
                (6, "exec-unhandled"),
                (7, "exec-unhandled"),
                (13, "exec-unhandled")
            ],
            "{f:?}"
        );
        assert!(f[0].message.contains("`NOOP_CPU`"), "{f:?}");
        assert!(f[0].message.contains("use `Ctx::charge`"), "{f:?}");
        let escaped = "// s2g-lint: allow(exec-unhandled) — the handler lives in the embedding process\nctx.exec(cost, tags::ELSEWHERE);\n";
        assert!(lint_source("x.rs", escaped, &cfg_all()).is_empty());
    }

    /// The rule against every sim-visible source file of this checkout, with
    /// the real `lint.toml`: the producer's per-record
    /// `ctx.exec(self.cfg.cpu_per_record, PRODUCER_TAGS + off::NOOP_CPU)`
    /// put back fails here (and in CI's `s2g-lint --deny`).
    #[test]
    fn every_exec_in_the_workspace_has_a_handler() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let toml = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml");
        let cfg = LintConfig::parse(&toml).expect("lint.toml parses");
        assert_eq!(cfg.rules["exec-unhandled"].level, Some(LintLevel::Deny));
        let report = lint(&root, &cfg).expect("the workspace scans");
        let found: Vec<&LintFinding> = report
            .findings
            .iter()
            .filter(|f| f.rule == "exec-unhandled")
            .collect();
        assert!(found.is_empty(), "{found:#?}");
        let producer = root.join("crates/broker/src/producer.rs");
        let text = std::fs::read_to_string(producer).expect("producer.rs");
        assert!(text.contains(".charge(self.cfg.cpu_per_record)"));
    }

    /// The rule against the files it exists for, as they are in this
    /// checkout: a string-keyed update put back into any of them fails here
    /// (and in CI's `s2g-lint --deny`).
    #[test]
    fn the_rpc_path_updates_metrics_by_handle() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let toml = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml");
        let cfg = LintConfig::parse(&toml).expect("lint.toml parses");
        assert_eq!(cfg.rules["metric-by-name"].level, Some(LintLevel::Deny));
        assert_eq!(cfg.rules["metric-by-name"].paths, METRIC_HOT_PATHS);
        for path in METRIC_HOT_PATHS {
            let text = std::fs::read_to_string(root.join(path)).expect(path);
            let found: Vec<LintFinding> = lint_source(path, &text, &cfg)
                .into_iter()
                .filter(|f| f.rule == "metric-by-name")
                .collect();
            assert!(found.is_empty(), "{path}: {found:#?}");
        }
    }
}
