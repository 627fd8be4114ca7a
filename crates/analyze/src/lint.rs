//! The determinism source linter behind the `s2g-lint` binary.
//!
//! Clippy holds the determinism rules it can check by type: wall-clock
//! reads, hash-order iteration, truncating `as` casts in the codec files
//! and private event heaps (`crates/clippy.toml`, the root `Cargo.toml`'s
//! `[workspace.lints.clippy]` and a `#![deny]` at the top of each codec
//! file). What is left here is the one rule about this project's own APIs
//! that clippy cannot scope, `exec-unhandled`, checked by a hand-rolled
//! **token scan** (no `syn`, no dylint; the build environment has no
//! crates.io access) in which comments and string-literal contents are
//! stripped, `#[cfg(test)]` blocks are skipped, and the rule matches on
//! what remains.
//!
//! `exec-unhandled` flags a `.exec(cost, TAG)` in a sim-visible crate
//! (`SIM_VISIBLE`) whose tag constant the file names nowhere else: no
//! `on_cpu_done` arm can be matching it, so the completion event is
//! scheduled, queued and dispatched for nothing; `Ctx::charge` books the
//! same CPU time without it. Its scope is a constant, and a finding is
//! fixed, not silenced.
//!
//! (Metrics need no rule: `s2g_telemetry` gives a component no way to
//! update one by name, only the handles it makes when it is built.)

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// The directories scanned, relative to the root passed to [`lint`].
const ROOTS: [&str; 2] = ["crates", "src"];

/// Path parts that leave a file out of the scan: build output, and test
/// and example targets, whose code never runs inside a simulation.
const EXCLUDE: [&str; 3] = ["/target/", "/tests/", "/examples/"];

/// Where `exec-unhandled` applies: the crates whose code runs inside a
/// simulation.
const SIM_VISIBLE: [&str; 8] = [
    "crates/sim/",
    "crates/net/",
    "crates/proto/",
    "crates/broker/",
    "crates/spe/",
    "crates/store/",
    "crates/core/",
    "crates/telemetry/",
];

/// One finding.
#[derive(Debug, Clone)]
pub struct LintFinding {
    /// File, relative to the scanned root.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Rule name.
    pub rule: &'static str,
    /// What was matched and why it is a hazard.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.rule, self.message, self.snippet
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
    /// `#[cfg(test)]` region (a file `#[cfg(test)] mod name;` declares is
    /// one whole region, and not counted among the files); a pub item starts with `pub` and one of
    /// `fn struct enum trait type const mod` (`pub(crate)` is not public, a
    /// `pub use` names nothing new). A PR that says it removed concepts
    /// shows it as a difference of these.
    pub crates: BTreeMap<String, (usize, usize, usize)>,
}

impl LintReport {
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
                "{{\"path\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
                crate::json_str(&f.path),
                f.line,
                crate::json_str(f.rule),
                crate::json_str(&f.message),
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Scans the workspace at `root` and returns the findings.
///
/// # Errors
///
/// Propagates filesystem errors from the walk, and fails when `root` has
/// no `crates/` directory or no source file was found: a mistyped root
/// must not pass as a clean one.
pub fn lint(root: &Path) -> std::io::Result<LintReport> {
    if !root.join("crates").is_dir() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "no `crates/` directory; is this a workspace root?",
        ));
    }
    let mut files: Vec<PathBuf> = Vec::new();
    for r in ROOTS {
        collect_rs_files(&root.join(r), &mut files)?;
    }
    files.sort();
    let mut sources = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        if EXCLUDE.iter().any(|e| rel.contains(e)) {
            continue;
        }
        sources.push((rel, std::fs::read_to_string(f)?));
    }
    if sources.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "no Rust source file to scan",
        ));
    }
    Ok(lint_sources(&sources))
}

/// Lints `(path, text)` sources and weighs each crate. A file declared by
/// `#[cfg(test)] mod name;` is test code: its findings count, its size
/// does not.
fn lint_sources(sources: &[(String, String)]) -> LintReport {
    let mut test_only = BTreeSet::new();
    for (path, text) in sources {
        let dir = match path.rsplit_once('/') {
            Some((dir, "lib.rs" | "main.rs" | "mod.rs")) => dir,
            _ => path.trim_end_matches(".rs"),
        };
        for name in test_modules(text) {
            test_only.insert(format!("{dir}/{name}.rs"));
            test_only.insert(format!("{dir}/{name}/mod.rs"));
        }
    }
    let mut report = LintReport::default();
    for (rel, text) in sources {
        report.files_scanned += 1;
        report.findings.extend(lint_source(rel, text));
        if test_only.contains(rel) {
            continue;
        }
        let krate = rel.split_once("/src/").map_or(".", |(krate, _)| krate);
        let (code_lines, pub_items) = source_size(text);
        let size = report.crates.entry(krate.to_string()).or_default();
        *size = (size.0 + 1, size.1 + code_lines, size.2 + pub_items);
    }
    report
}

/// The modules `text` declares as files of their own under
/// `#[cfg(test)]` (`mod name;` inside a test region).
fn test_modules(text: &str) -> Vec<String> {
    let raw_lines: Vec<&str> = text.lines().collect();
    let code = strip_comments_and_strings(&raw_lines);
    let skip = test_block_lines(&raw_lines, &code);
    let mut modules = Vec::new();
    for (line, _) in code.iter().zip(skip).filter(|(_, test)| *test) {
        let item = line.trim().trim_start_matches("#[cfg(test)]").trim_start();
        let item = item
            .trim_start_matches("pub(crate) ")
            .trim_start_matches("pub ");
        if let Some(name) = item.strip_prefix("mod ").and_then(|m| m.strip_suffix(';')) {
            modules.push(name.trim().to_string());
        }
    }
    modules
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
pub(crate) fn lint_source(path: &str, text: &str) -> Vec<LintFinding> {
    let raw_lines: Vec<&str> = text.lines().collect();
    let code = strip_comments_and_strings(&raw_lines);
    let skip = test_block_lines(&raw_lines, &code);
    let finding = |rule: &'static str, i: usize, message: String| LintFinding {
        path: path.to_string(),
        line: i + 1,
        rule,
        message,
        snippet: raw_lines[i].trim().to_string(),
    };

    let mut findings = Vec::new();
    if SIM_VISIBLE.iter().any(|krate| path.starts_with(krate)) {
        for (i, tag) in unhandled_exec_tags(&code, &skip) {
            let message = format!(
                "nothing in this file but this call and its definition names `{tag}`, so no \
                 `on_cpu_done` arm handles the completion; use `Ctx::charge` to book the CPU \
                 time without scheduling an event"
            );
            findings.push(finding("exec-unhandled", i, message));
        }
    }
    findings.sort_by_key(|f| (f.line, f.rule));
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

/// What the scanner is inside of where a line ends.
#[derive(Clone, Copy)]
enum Within {
    Code,
    /// A block comment, nested this deep.
    Comment(usize),
    /// A string literal: raw with this many `#`s, or not raw.
    Str(Option<usize>),
}

/// Drops comments and the *contents* of string, char and byte literals,
/// line by line, carrying block comments and strings across lines. Keeping
/// the quotes themselves preserves column positions well enough for
/// snippets while guaranteeing pattern tables (like this linter's own)
/// never self-match, and a brace or quote in a literal never counts as
/// code.
fn strip_comments_and_strings(lines: &[&str]) -> Vec<String> {
    let mut within = Within::Code;
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        let mut s = String::with_capacity(line.len());
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let (c, next) = (chars[i], chars.get(i + 1).copied());
            match within {
                Within::Comment(depth) => match (c, next) {
                    ('*', Some('/')) => {
                        within = if depth == 1 {
                            Within::Code
                        } else {
                            Within::Comment(depth - 1)
                        };
                        i += 2;
                    }
                    ('/', Some('*')) => {
                        within = Within::Comment(depth + 1);
                        i += 2;
                    }
                    _ => i += 1,
                },
                Within::Str(None) if c == '\\' => i += 2,
                Within::Str(hashes) if c == '"' => {
                    let n = hashes.unwrap_or(0);
                    let closes = chars[i + 1..].iter().take_while(|h| **h == '#').count() >= n;
                    if closes {
                        within = Within::Code;
                        s.push('"');
                        s.extend(std::iter::repeat_n('#', n));
                        i += n;
                    }
                    i += 1;
                }
                Within::Str(_) => i += 1,
                Within::Code => match (c, next) {
                    ('/', Some('/')) => break, // rest is comment
                    ('/', Some('*')) => {
                        within = Within::Comment(1);
                        i += 2;
                    }
                    ('"', _) => {
                        within = Within::Str(None);
                        s.push('"');
                        i += 1;
                    }
                    _ => {
                        if let Some((opening, hashes)) = raw_string_opening(&chars, i) {
                            within = Within::Str(Some(hashes));
                            s.extend(&chars[i..i + opening]);
                            i += opening;
                        } else if let Some(len) = char_literal_len(&chars[i..]) {
                            s.push_str("''");
                            i += len;
                        } else {
                            s.push(c);
                            i += 1;
                        }
                    }
                },
            }
        }
        out.push(s);
    }
    out
}

/// The length of the raw string opening (`r"`, `br#"`, ...) at `chars[i]`
/// and its number of `#`s, if one starts there.
fn raw_string_opening(chars: &[char], i: usize) -> Option<(usize, usize)> {
    let ident = |c: &char| c.is_alphanumeric() || *c == '_';
    if i.checked_sub(1).is_some_and(|prev| ident(&chars[prev])) {
        return None;
    }
    let prefix = match chars.get(i..i + 2) {
        Some(['b', 'r']) => 2,
        _ if chars[i] == 'r' => 1,
        _ => return None,
    };
    let hashes = chars[i + prefix..]
        .iter()
        .take_while(|c| **c == '#')
        .count();
    (chars.get(i + prefix + hashes) == Some(&'"')).then_some((prefix + hashes + 1, hashes))
}

/// The length of the char literal that `chars` starts with (`'x'`,
/// `'\''`, `'\u{7d}'`), if it starts with one and not with a lifetime or
/// label (`'a`, `'_`).
fn char_literal_len(chars: &[char]) -> Option<usize> {
    match chars {
        ['\'', '\\', _, rest @ ..] => rest.iter().position(|c| *c == '\'').map(|end| end + 4),
        ['\'', _, '\'', ..] => Some(3),
        _ => None,
    }
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

    const SIM_PATH: &str = "crates/broker/src/partition.rs";

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { ctx.exec(1, NOOP); }\n}\n";
        assert!(lint_source(SIM_PATH, src).is_empty());
        let live = src.replace("#[cfg(test)]", "");
        assert_eq!(
            lint_source(SIM_PATH, &live).len(),
            1,
            "the fixture flags outside a test"
        );
    }

    #[test]
    fn sizes_count_code_lines_and_pub_items_outside_tests() {
        let src = "/// Doc.\npub fn a() {} // one\npub(crate) struct B;\n\
            #[cfg(test)]\nmod tests { pub fn t() {} }\n";
        assert_eq!(source_size(src), (2, 1));
    }

    /// A string that spans lines stays a string on the lines after its
    /// first: the brace in it closes nothing.
    #[test]
    fn a_multi_line_string_does_not_end_a_test_region() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"a\n}\n\";\n    \
            pub fn t() {}\n}\npub fn live() {}\n";
        assert_eq!(source_size(src), (1, 1));
    }

    /// A quote in a char or byte literal opens no string.
    #[test]
    fn quote_char_and_byte_literals_open_no_string() {
        for quote in ["'\"'", "b'\"'"] {
            let src = format!(
                "fn f(ctx: &mut Ctx<'_>) {{\n    let q = {quote}; ctx.exec(1, NOOP);\n}}\n"
            );
            assert_eq!(lint_source(SIM_PATH, &src).len(), 1, "{src}");
        }
    }

    /// A brace in a char literal, escaped or not, opens no block.
    #[test]
    fn a_brace_char_literal_keeps_a_test_region_balanced() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() -> [char; 3] { ['{', '\\'', '\\u{7b}'] }\n    \
            pub fn u() {}\n}\npub fn live() {}\n";
        assert_eq!(source_size(src), (1, 1));
    }

    /// A raw string ends at its quote and `#`s, not at a quote inside it,
    /// and may span lines.
    #[test]
    fn raw_strings_end_at_their_own_closing() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = r#\"a \"{\" b\"#;\n    \
            const T: &[u8] = br\"a\nb\";\n}\npub fn live() {}\n";
        assert_eq!(source_size(src), (1, 1));
    }

    #[test]
    fn a_file_only_cfg_test_declares_is_scanned_but_not_weighed() {
        let source = |path: &str, text: &str| (path.to_string(), text.to_string());
        let sources = [
            source(
                "crates/spe/src/lib.rs",
                "pub mod ops;\n#[cfg(test)]\nmod fixtures;\n",
            ),
            source(
                "crates/spe/src/ops.rs",
                "mod live;\n#[cfg(test)]\nmod reference;\n#[cfg(test)] pub(crate) mod inline;\n",
            ),
            source("crates/spe/src/ops/live.rs", "pub fn live() {}\n"),
            source(
                "crates/spe/src/ops/reference.rs",
                "pub fn r(ctx: &mut Ctx<'_>) {\n    ctx.exec(1, NOOP);\n}\n",
            ),
            source("crates/spe/src/ops/inline.rs", "pub fn i() {}\n"),
            source("crates/spe/src/fixtures/mod.rs", "pub fn f() {}\n"),
        ];
        let report = lint_sources(&sources);
        assert_eq!(report.files_scanned, 6);
        // lib.rs, ops.rs and live.rs: one line each, and two pub items.
        assert_eq!(report.crates["crates/spe"], (3, 3, 2));
        let found: Vec<&str> = report.findings.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(found, ["crates/spe/src/ops/reference.rs"], "still scanned");
    }

    #[test]
    fn string_literals_and_comments_do_not_match() {
        let src = "fn f() {\n    let s = \"ctx.exec(1, NOOP)\";\n    // ctx.exec(1, NOOP) in prose\n    /* ctx.exec(1, NOOP) */\n}\n";
        assert!(lint_source(SIM_PATH, src).is_empty());
    }

    #[test]
    fn flags_exec_calls_whose_tag_no_handler_names() {
        let src = "mod off {\n    pub const NOOP_CPU: u64 = 3;\n    pub const BATCH_DONE: u64 = 4;\n}\n\
            fn f(ctx: &mut Ctx<'_>) {\n    ctx.exec(self.cfg.cpu_per_record, PRODUCER_TAGS + off::NOOP_CPU);\n\
                ctx.exec(\n        self.cfg.per_byte * (bytes as u64),\n        PRODUCER_TAGS + off::NOOP_CPU,\n    );\n\
                ctx.exec(cost, tags::BATCH_DONE);\n    ctx.exec(cost, tag);\n    ctx.exec(cost, tags::ELSEWHERE);\n}\n\
            fn on_cpu_done(&mut self, tag: u64) {\n    if tag == tags::BATCH_DONE {}\n}\n\
            #[cfg(test)]\nmod tests {\n    fn t() { assert_eq!(tag, off::NOOP_CPU); }\n}\n";
        let f = lint_source("crates/broker/src/producer.rs", src);
        let found: Vec<(usize, &str)> = f.iter().map(|f| (f.line, f.rule)).collect();
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
        // Outside the sim-visible crates the rule does not apply.
        assert!(lint_source("crates/bench/src/lib.rs", src).is_empty());
    }

    /// A root that is not a workspace is an error, not a clean scan of no
    /// files.
    #[test]
    fn a_root_without_sources_is_an_error() {
        let dir = std::env::temp_dir().join(format!("s2g-lint-empty-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("crates")).expect("temp dir");
        let with_empty_crates = lint(&dir);
        std::fs::remove_dir(dir.join("crates")).expect("temp dir");
        let without_crates = lint(&dir);
        std::fs::remove_dir(&dir).expect("temp dir");
        assert!(with_empty_crates.is_err(), "{with_empty_crates:?}");
        assert!(without_crates.is_err(), "{without_crates:?}");
    }

    /// The rule against every sim-visible source file of this checkout: the
    /// producer's per-record
    /// `ctx.exec(self.cfg.cpu_per_record, PRODUCER_TAGS + off::NOOP_CPU)`
    /// put back fails here (and in CI's `s2g-lint --deny`).
    #[test]
    fn every_exec_in_the_workspace_has_a_handler() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = lint(&root).expect("the workspace scans");
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
}
