//! The aggregated, immutable output of a tracer: [`RunTrace`], the phase
//! tree the health report embeds, and its JSON serialization.
//!
//! The JSON schema is **stable** — downstream tooling (CI artifacts, perf
//! dashboards) parses it. The authoritative schema lives in
//! `trace.schema.json` at the repository root; bump `schema_version` on any
//! breaking change.

use std::time::Duration;

use crate::metrics::HistogramSnapshot;

/// Version of the JSON trace layout emitted by [`RunTrace::to_json`].
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// One phase in the wall-time tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseNode {
    /// Last segment of [`path`](PhaseNode::path) (`"eval"`).
    pub name: String,
    /// Full dotted span path (`"discover.level.eval"`).
    pub path: String,
    /// Times a span at this path was opened (across all threads).
    pub count: u64,
    /// Wall-clock estimate: the **maximum** per-thread time at this path.
    /// For single-threaded phases this is the exact elapsed time; for a
    /// fan-out it is the critical path, so a parent's wall is never
    /// exceeded by work that ran concurrently inside it.
    pub wall: Duration,
    /// Total time across all threads (≥ `wall` for fan-out phases).
    pub cpu: Duration,
    /// `wall` minus what the direct children took on the thread they kept
    /// busiest (saturating): time spent in this phase itself. Children
    /// that ran one after another on one thread take the sum of their
    /// walls; children that ran side by side on different threads overlap
    /// inside `wall` and take the longer side. The tracer keeps a total per
    /// thread and no clock, so children that ran one after another on
    /// *different* threads read as side by side too, and the parent keeps
    /// the shorter side; a span of the parent's own thread around a
    /// fan-out that follows other work avoids that. Self times telescope —
    /// summed over the whole tree they give the root's wall clock, plus
    /// what sibling walls add up to beyond their parent's charge (at most
    /// the shorter sibling's wall).
    pub self_time: Duration,
    /// Child phases, lexicographically ordered by name.
    pub children: Vec<PhaseNode>,
}

/// One entry of the bounded event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event kind (`"path_ranked"`, `"quarantine"`, `"truncated"`, …).
    pub kind: String,
    /// Human-readable detail line.
    pub detail: String,
}

/// Everything one tracer observed, deterministically ordered: the
/// per-phase wall-time tree, flat pipeline counters, value distributions,
/// and the bounded event log.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// Wall time from tracer creation to snapshot.
    pub wall: Duration,
    /// Root phases (usually exactly one, e.g. `discover`).
    pub phases: Vec<PhaseNode>,
    /// `(name, total)` pipeline counters, lexicographic by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` distributions (e.g. per-entry index build
    /// times), lexicographic by name.
    pub dists: Vec<(String, HistogramSnapshot)>,
    /// Recorded events, in recording order (deterministic: events are only
    /// emitted from sequential pipeline sections).
    pub events: Vec<TraceEvent>,
    /// Events discarded once the log reached its cap.
    pub events_dropped: u64,
}

impl RunTrace {
    /// The total of the named counter, or `None` when never incremented.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// The phase node at the given full dotted path, if recorded.
    pub fn phase(&self, path: &str) -> Option<&PhaseNode> {
        fn find<'a>(nodes: &'a [PhaseNode], path: &str) -> Option<&'a PhaseNode> {
            for n in nodes {
                if n.path == path {
                    return Some(n);
                }
                if path.starts_with(n.path.as_str())
                    && path.as_bytes().get(n.path.len()) == Some(&b'.')
                {
                    return find(&n.children, path);
                }
            }
            None
        }
        find(&self.phases, path)
    }

    /// Sum of `self_time` over every phase in the tree. By the telescoping
    /// property this approximates the root phases' combined wall clock. It
    /// does not fall short of it, and exceeds it by the time sibling phases
    /// overlapped on different threads, since each is reported at its own
    /// wall: by less than the shorter of two such siblings took.
    pub fn self_time_total(&self) -> Duration {
        fn walk(nodes: &[PhaseNode], acc: &mut Duration) {
            for n in nodes {
                *acc += n.self_time;
                walk(&n.children, acc);
            }
        }
        let mut acc = Duration::ZERO;
        walk(&self.phases, &mut acc);
        acc
    }

    /// Append the indented phase-timing tree (the section the health
    /// report embeds). Each line: `path  count×  wall (self …, cpu …)`.
    pub fn render_phases_into(&self, out: &mut String) {
        fn walk(nodes: &[PhaseNode], depth: usize, out: &mut String) {
            for n in nodes {
                out.push_str(&" ".repeat(2 + depth * 2));
                out.push_str(&format!(
                    "{:<w$} {:>5}x {:>10} (self {}, cpu {})\n",
                    n.name,
                    n.count,
                    fmt_dur(n.wall),
                    fmt_dur(n.self_time),
                    fmt_dur(n.cpu),
                    w = 24usize.saturating_sub(depth * 2),
                ));
                walk(&n.children, depth + 1, out);
            }
        }
        walk(&self.phases, 0, out);
    }

    /// Serialize to the stable JSON layout (`trace.schema.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"schema_version\": {TRACE_SCHEMA_VERSION},\n"));
        s.push_str("  \"generator\": \"autofeat-obs\",\n");
        s.push_str(&format!("  \"wall_secs\": {:.9},\n", self.wall.as_secs_f64()));
        s.push_str("  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            phase_json(p, 2, &mut s);
        }
        s.push_str(if self.phases.is_empty() { "],\n" } else { "\n  ],\n" });
        s.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{}\": {v}", escape_json(name)));
        }
        s.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });
        // The full histogram grid, so distributions are plottable without
        // reading metrics.rs: per-distribution buckets only list non-empty
        // bins, but every `le_secs` they mention appears in this array.
        let bounds = crate::dist_bucket_bounds_secs();
        s.push_str("  \"dist_bucket_bounds_secs\": [");
        for (i, le) in bounds.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{le:.9}"));
        }
        s.push_str("],\n");
        s.push_str("  \"distributions\": {");
        for (i, (name, d)) in self.dists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum_secs\": {:.9}, \"min_secs\": {:.9}, \
                 \"max_secs\": {:.9}, \"mean_secs\": {:.9}, \"buckets\": [",
                escape_json(name),
                d.count,
                d.sum_secs,
                d.min_secs,
                d.max_secs,
                d.mean_secs(),
            ));
            let non_empty = d.buckets.iter().zip(&bounds).filter(|&(&c, _)| c > 0);
            for (j, (c, le)) in non_empty.enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("{{\"le_secs\": {le:.9}, \"count\": {c}}}"));
            }
            s.push_str("]}");
        }
        s.push_str(if self.dists.is_empty() { "},\n" } else { "\n  },\n" });
        s.push_str("  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"kind\": \"{}\", \"detail\": \"{}\"}}",
                escape_json(&e.kind),
                escape_json(&e.detail)
            ));
        }
        s.push_str(if self.events.is_empty() { "],\n" } else { "\n  ],\n" });
        s.push_str(&format!("  \"events_dropped\": {}\n", self.events_dropped));
        s.push_str("}\n");
        s
    }
}

fn phase_json(p: &PhaseNode, indent: usize, s: &mut String) {
    let pad = " ".repeat(indent * 2);
    s.push_str(&format!(
        "{pad}{{\"name\": \"{}\", \"path\": \"{}\", \"count\": {}, \"wall_secs\": {:.9}, \
         \"cpu_secs\": {:.9}, \"self_secs\": {:.9}, \"children\": [",
        escape_json(&p.name),
        escape_json(&p.path),
        p.count,
        p.wall.as_secs_f64(),
        p.cpu.as_secs_f64(),
        p.self_time.as_secs_f64(),
    ));
    for (i, c) in p.children.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('\n');
        phase_json(c, indent + 1, s);
    }
    if !p.children.is_empty() {
        s.push('\n');
        s.push_str(&pad);
    }
    s.push_str("]}");
}

/// JSON string escaping (quotes, backslashes, control characters).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Compact human duration: `1.23s`, `45.6ms`, `789µs`.
pub(crate) fn fmt_dur(d: Duration) -> String {
    fmt_secs(d.as_secs_f64())
}

fn fmt_secs(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.0}us", secs * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, with_tracer, Tracer};

    fn sample_trace() -> RunTrace {
        let t = Tracer::enabled();
        with_tracer(&t, || {
            let _root = span("discover");
            {
                let _lvl = span("level");
                let _eval = span("eval");
                std::thread::sleep(Duration::from_millis(2));
            }
            crate::add("discover.joins_evaluated", 7);
            crate::record_secs("cache.index_build_secs", 0.002);
            crate::event("truncated", || "max_joins".to_string());
        });
        t.snapshot()
    }

    #[test]
    fn json_contains_stable_top_level_fields() {
        let json = sample_trace().to_json();
        for field in [
            "\"schema_version\"",
            "\"generator\"",
            "\"wall_secs\"",
            "\"phases\"",
            "\"counters\"",
            "\"dist_bucket_bounds_secs\"",
            "\"distributions\"",
            "\"events\"",
            "\"events_dropped\"",
        ] {
            assert!(json.contains(field), "missing {field} in:\n{json}");
        }
        assert!(json.contains("\"discover.joins_evaluated\": 7"));
        assert!(json.contains("\"path\": \"discover.level.eval\""));
    }

    #[test]
    fn bucket_bounds_cover_every_emitted_bucket() {
        let bounds = crate::dist_bucket_bounds_secs();
        assert_eq!(bounds.len(), crate::N_HIST_BUCKETS);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        let json = sample_trace().to_json();
        let emitted: Vec<&str> = json
            .split("\"le_secs\": ")
            .skip(1)
            .map(|rest| &rest[..rest.find(',').unwrap()])
            .collect();
        assert!(!emitted.is_empty(), "the sample records a distribution");
        for le in emitted {
            assert!(
                bounds.iter().any(|b| format!("{b:.9}") == le),
                "bucket bound {le} missing from grid"
            );
        }
        assert!(json.contains("\"dist_bucket_bounds_secs\": [0.000001000, "));
    }

    #[test]
    fn empty_trace_serializes() {
        let json = RunTrace::default().to_json();
        assert!(json.contains("\"phases\": []"));
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"events_dropped\": 0"));
    }

    #[test]
    fn self_times_telescope_to_root_wall() {
        let t = sample_trace();
        let root = &t.phases[0];
        assert_eq!(root.path, "discover");
        let sum = t.self_time_total();
        let diff = sum.abs_diff(root.wall);
        assert!(
            diff <= Duration::from_micros(50),
            "self-time sum {sum:?} vs root wall {:?}",
            root.wall
        );
    }

    #[test]
    fn phase_lookup_walks_the_tree() {
        let t = sample_trace();
        assert!(t.phase("discover").is_some());
        assert!(t.phase("discover.level").is_some());
        assert!(t.phase("discover.level.eval").is_some());
        assert!(t.phase("discover.nope").is_none());
        assert_eq!(t.phase("discover.level.eval").unwrap().count, 1);
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
