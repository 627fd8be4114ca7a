//! The benchmark's own span list: one span around every call it makes into
//! the program. Spans live in memory and are written as Chrome-trace JSON
//! when the benchmark ends. Spans inside the program are a later change.

use std::fmt::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Microseconds since the Unix epoch, so that spans recorded by
    /// different processes line up.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Spans {
    t0: Instant,
    epoch_us: f64,
    pub list: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        let epoch_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0.0, |d| d.as_secs_f64() * 1e6);
        Spans {
            t0: Instant::now(),
            epoch_us,
            list: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch_us + self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.now_us();
        self.list.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.list.len() - 1);
        self.list.len() - 1
    }

    /// Closes `id` (and anything left open inside it).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.list[top].end_us = now;
            if top == id {
                break;
            }
        }
    }

    /// Adopts spans another process recorded, under the innermost open
    /// span. Open spans stretch back to cover what they adopt (the kernels
    /// of a full run are measured once, before the per-workload lists exist).
    pub fn adopt(&mut self, spans: Vec<Span>) {
        let base = self.list.len();
        let under = self.open.last().copied();
        for mut s in spans {
            for open in &self.open {
                let start = &mut self.list[*open].start_us;
                *start = start.min(s.start_us);
            }
            s.parent = s.parent.map(|p| p + base).or(under);
            self.list.push(s);
        }
    }

    /// One line per span a child prints for its parent to adopt.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.list {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "SPAN {} {:.1} {:.1} {parent}",
                s.name, s.start_us, s.end_us
            );
        }
        out
    }

    pub fn parse_line(line: &str) -> Option<Span> {
        let mut it = line.strip_prefix("SPAN ")?.split(' ');
        let name = it.next()?.to_string();
        let start_us = it.next()?.parse().ok()?;
        let end_us = it.next()?.parse().ok()?;
        let parent: i64 = it.next()?.parse().ok()?;
        Some(Span {
            name,
            start_us,
            end_us,
            parent: usize::try_from(parent).ok(),
        })
    }

    /// Self time of every span: its duration minus the part its child
    /// spans cover.
    pub fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.list.iter().map(Span::dur_us).collect();
        for s in &self.list {
            if let Some(p) = s.parent {
                own[p] -= s.dur_us();
            }
        }
        own
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto). Every event
    /// carries the shared run id, its parent's name and its self time.
    pub fn chrome_json(&self, run_id: &str) -> String {
        let own = self.self_us();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.list.iter().enumerate() {
            // One lane per nesting depth keeps overlapping children of
            // different processes readable.
            let mut depth = 0;
            let mut up = s.parent;
            while let Some(p) = up {
                depth += 1;
                up = self.list[p].parent;
            }
            let parent = s.parent.map_or("", |p| self.list[p].name.as_str());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.1},\"dur\":{:.1},\"pid\":1,\"tid\":{depth},\
                 \"args\":{{\"run\":\"{run_id}\",\"parent\":\"{parent}\",\"self_us\":{:.1}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_us,
                s.dur_us(),
                own[i].max(0.0),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_lines_and_self_time() {
        let mut s = Spans::new();
        let a = s.enter("a");
        let b = s.enter("b");
        s.exit(b);
        s.exit(a);
        assert_eq!(s.list[b].parent, Some(a));
        let own = s.self_us();
        assert!((own[a] - (s.list[a].dur_us() - s.list[b].dur_us())).abs() < 1e-6);

        let lines = s.to_lines();
        let parsed: Vec<Span> = lines.lines().filter_map(Spans::parse_line).collect();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].parent, Some(0));

        let mut parent = Spans::new();
        let root = parent.enter("child");
        parent.adopt(parsed);
        parent.exit(root);
        assert_eq!(parent.list[1].parent, Some(root));
        assert_eq!(parent.list[2].parent, Some(1));
        let json = parent.chrome_json("r");
        assert!(json.contains("\"name\":\"b\"") && json.contains("\"parent\":\"a\""));
    }
}
