//! The traced pass: an in-memory span recorder and a replay of one request
//! from outside the program.
//!
//! The replay walks Algorithm 1 level by level over the hops that the
//! reference result ranked, calling the public layer functions in the order
//! `AutoFeat::discover` does and wrapping each call in a span. A layer's
//! time is its spans' self time (duration minus children). The replay's
//! ranking must equal the reference bit for bit, which is what makes its
//! timings a statement about the request and not about some other walk.
//! Hops the program pruned (no match, below τ) are not replayed, so on
//! lakes with many pruned hops `bench.replay.coverage` falls below 1.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

use autofeat::core::executor::qualified_column;
use autofeat::core::ranking::accumulate;
use autofeat::core::{compute_score, hop_seed, AutoFeatConfig, DiscoveryResult, SearchContext};
use autofeat::data::encode::label_encode_column;
use autofeat::data::join::left_join_with_index;
use autofeat::data::sample::stratified_sample;
use autofeat::data::stats::completeness;
use autofeat::data::Table;
use autofeat::graph::{JoinHop, JoinPath, NodeId};
use autofeat::metrics::discretize::{discretize_equal_frequency, Discretized};
use autofeat::metrics::redundancy::RedundancyScorer;
use autofeat::metrics::relevance::DEFAULT_BINS;
use autofeat::metrics::selection::{select_k_best, select_non_redundant};
use autofeat::obs::{PhaseNode, RunTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One recorded interval. `parent` indexes `Recorder::spans`; spans of one
/// replayed operation share `op`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u32,
}

/// Spans and counts kept in memory until the pass ends.
pub struct Recorder {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    pub counts: BTreeMap<&'static str, f64>,
    /// The box's slow-down (see `calib`) measured as each op ended; times
    /// read out of the recorder are divided by their op's.
    slowdowns: Vec<f64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
            slowdowns: Vec::new(),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        let op = self.slowdowns.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// A span around one call into a layer.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Add to a count taken at the same boundary as the spans.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_insert(0.0) += by;
    }

    /// The spans recorded since the last call were one operation, and the
    /// box was `slowdown` times slower than its reference speed during it.
    pub fn end_op(&mut self, slowdown: f64) {
        self.slowdowns.push(slowdown);
    }

    /// Speed-corrected milliseconds of `ns` nanoseconds inside `span`'s op.
    fn ms(&self, span: &Span, ns: u64) -> f64 {
        ns as f64 / 1e6 / self.slowdowns.get(span.op as usize).copied().unwrap_or(1.0)
    }

    /// Self time per span name, in milliseconds, summed over all spans.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) +=
                self.ms(s, (s.end_ns - s.start_ns).saturating_sub(children));
        }
        out
    }

    /// Total duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + self.ms(s, s.end_ns - s.start_ns))
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        let slowdowns: Vec<String> = self.slowdowns.iter().map(f64::to_string).collect();
        let _ = write!(
            out,
            "], \"op_slowdown\": [{}], \"counts\": {{",
            slowdowns.join(", ")
        );
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        out.push_str(&counts.join(", "));
        out.push_str("}}\n");
        out
    }
}

/// The span that wraps one replayed `discover`; its children are the layers.
pub const DISCOVER_ROOT: &str = "bench.replay.discover";

struct Frontier {
    node: NodeId,
    path: JoinPath,
    table: Table,
    score: f64,
    features: Vec<String>,
}

/// Replay one request served through the context's join-index cache, as
/// every workload's is. Returns whether the replay's ranking equals
/// `reference` (same paths, same score bits, same features).
pub fn replay_discover(
    rec: &mut Recorder,
    ctx: &SearchContext,
    cfg: &AutoFeatConfig,
    reference: &DiscoveryResult,
) -> bool {
    let root = rec.enter(DISCOVER_ROOT);
    let expected: HashMap<String, (u64, &[String])> = reference
        .ranked
        .iter()
        .map(|r| {
            (
                r.path.to_string(),
                (r.score.to_bits(), r.features.as_slice()),
            )
        })
        .collect();
    if let Some(budget) = cfg.resolve_cache_budget() {
        ctx.lake_cache().set_budget(Some(budget));
    }

    let base = ctx.base_table();
    let sampled = match cfg.sample_rows {
        Some(cap) if base.n_rows() > cap => rec.time("data.sample.stratified", || {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            stratified_sample(
                base,
                ctx.label(),
                cap as f64 / base.n_rows() as f64,
                &mut rng,
            )
            .expect("base table samples")
        }),
        _ => base.clone(),
    };
    let encode = |rec: &mut Recorder, table: &Table, name: &str| -> Vec<f64> {
        rec.time("data.encode.label_encode", || {
            label_encode_column(table.column(name).expect("column exists")).to_f64_lossy()
        })
    };
    let labels: Vec<i64> = {
        let col = rec.time("data.encode.label_encode", || {
            label_encode_column(sampled.column(ctx.label()).expect("label exists"))
        });
        (0..col.len())
            .map(|i| col.get_f64(i).map_or(-1, |v| v as i64))
            .collect()
    };
    let label_codes = Discretized::from_codes(labels.iter().map(|&l| Some(l)));

    let drg = ctx.drg();
    let mut join_cols: HashSet<(&str, &str)> = HashSet::new();
    for e in drg.edges() {
        join_cols.insert((drg.table_name(e.a), e.a_column.as_str()));
        join_cols.insert((drg.table_name(e.b), e.b_column.as_str()));
    }
    let mut r_sel: Vec<(String, Discretized)> = Vec::new();
    for f in ctx.base_features() {
        if join_cols.contains(&(ctx.base_name(), f.as_str())) {
            continue;
        }
        let values = encode(rec, &sampled, &f);
        let codes = rec.time("metrics.discretize", || {
            discretize_equal_frequency(&values, DEFAULT_BINS)
        });
        r_sel.push((f, codes));
    }
    let scorer = cfg.redundancy.map(RedundancyScorer::new);

    let mut matches = 0usize;
    let mut all_equal = true;
    let Some(base_node) = drg.node(ctx.base_name()) else {
        rec.exit(root);
        return reference.ranked.is_empty();
    };
    let mut current = vec![Frontier {
        node: base_node,
        path: JoinPath::empty(),
        table: sampled,
        score: 0.0,
        features: Vec::new(),
    }];
    while !current.is_empty() {
        let mut next_level = Vec::new();
        for entry in &current {
            if entry.path.len() >= cfg.max_path_length {
                continue;
            }
            for (next, edge_ids) in drg.neighbours(entry.node) {
                let next_name = drg.table_name(next);
                if next_name == ctx.base_name() || entry.path.visits(next_name) {
                    continue;
                }
                let Some(right) = ctx.table(next_name) else {
                    continue;
                };
                for eid in drg.best_edges(&edge_ids) {
                    let edge = drg.edge(eid);
                    let Some((_, from_col, to_col)) = edge.oriented_from(entry.node) else {
                        continue;
                    };
                    let from_table = drg.table_name(entry.node);
                    let left_key = qualified_column(ctx.base_name(), from_table, from_col);
                    if !entry.table.has_column(&left_key) {
                        continue;
                    }
                    let hop = JoinHop {
                        from_table: from_table.to_string(),
                        from_column: from_col.to_string(),
                        to_table: next_name.to_string(),
                        to_column: to_col.to_string(),
                        weight: edge.weight,
                    };
                    let path = entry.path.extended(hop.clone());
                    let Some(&(want_bits, want_features)) = expected.get(&path.to_string()) else {
                        continue; // the program pruned this hop
                    };
                    let seed = hop_seed(cfg.seed, entry.path.hops(), &hop);

                    let misses = ctx.lake_cache().stats().misses;
                    let lookup = rec.enter("data.join.index_build");
                    let index = ctx
                        .lake_cache()
                        .get_or_build(right, to_col)
                        .expect("index resolves");
                    rec.exit(lookup);
                    if ctx.lake_cache().stats().misses > misses {
                        rec.count("data.join.index_builds", 1.0);
                        rec.count("data.join.index_rows", right.n_rows() as f64);
                    } else {
                        // A hit built nothing: book the lookup under the cache.
                        rec.spans[lookup].name = "data.cache.lookup";
                    }
                    let out = rec.time("data.join.probe_gather", || {
                        left_join_with_index(
                            &entry.table,
                            right,
                            &index,
                            &left_key,
                            next_name,
                            seed,
                        )
                        .expect("join runs")
                    });
                    rec.count("data.join.left_rows", entry.table.n_rows() as f64);
                    rec.count("data.join.matched_rows", out.matched as f64);
                    let new_cols: Vec<&str> =
                        out.right_columns.iter().map(String::as_str).collect();
                    let quality = rec.time("data.stats.completeness", || {
                        completeness(&out.table, &new_cols).expect("columns exist")
                    });
                    all_equal &= out.matched > 0 && quality >= cfg.tau;

                    let prefix = format!("{next_name}.");
                    let names: Vec<&String> = out
                        .right_columns
                        .iter()
                        .filter(|q| {
                            !join_cols.contains(&(
                                next_name,
                                q.strip_prefix(&prefix).unwrap_or(q.as_str()),
                            ))
                        })
                        .collect();
                    let data: Vec<Vec<f64>> =
                        names.iter().map(|n| encode(rec, &out.table, n)).collect();
                    let (picked, rel_scores): (Vec<usize>, Vec<f64>) = match cfg.relevance {
                        Some(method) => {
                            rec.count("metrics.relevance.features_scored", data.len() as f64);
                            let picked = rec.time("metrics.relevance.score", || {
                                select_k_best(&data, &labels, method, cfg.kappa, 0.0)
                            });
                            (
                                picked.iter().map(|s| s.index).collect(),
                                picked.iter().map(|s| s.score).collect(),
                            )
                        }
                        None => ((0..names.len()).collect(), Vec::new()),
                    };
                    let codes: Vec<Discretized> = rec.time("metrics.discretize", || {
                        picked
                            .iter()
                            .map(|&i| discretize_equal_frequency(&data[i], DEFAULT_BINS))
                            .collect()
                    });
                    let (kept, red_scores): (Vec<usize>, Vec<f64>) = match &scorer {
                        Some(scorer) => {
                            let cands: Vec<(usize, &Discretized)> =
                                codes.iter().enumerate().collect();
                            let already: Vec<&Discretized> = r_sel.iter().map(|(_, d)| d).collect();
                            let kept = rec.time("metrics.redundancy.score", || {
                                select_non_redundant(&cands, &already, &label_codes, scorer)
                            });
                            rec.count("metrics.redundancy.candidates", cands.len() as f64);
                            rec.count("metrics.redundancy.kept", kept.len() as f64);
                            (
                                kept.iter().map(|s| s.index).collect(),
                                kept.iter().map(|s| s.score).collect(),
                            )
                        }
                        None => ((0..codes.len()).collect(), Vec::new()),
                    };
                    let mut features = entry.features.clone();
                    for &k in &kept {
                        let name = names[picked[k]].clone();
                        match r_sel.iter_mut().find(|(n, _)| *n == name) {
                            Some((_, d)) => *d = codes[k].clone(),
                            None => r_sel.push((name.clone(), codes[k].clone())),
                        }
                        features.push(name);
                    }
                    let score = accumulate(entry.score, compute_score(&rel_scores, &red_scores));
                    matches += 1;
                    all_equal &= score.to_bits() == want_bits && features == want_features;
                    next_level.push(Frontier {
                        node: next,
                        path,
                        table: out.table,
                        score,
                        features,
                    });
                }
            }
        }
        current = next_level;
    }
    rec.exit(root);
    all_equal && matches == reference.ranked.len()
}

/// Total wall time of every span named `name` in a program trace, in ms.
pub fn trace_ms(trace: &RunTrace, name: &str) -> f64 {
    fn walk(nodes: &[PhaseNode], name: &str) -> f64 {
        nodes
            .iter()
            .map(|n| {
                if n.name == name {
                    n.cpu.as_secs_f64() * 1e3
                } else {
                    walk(&n.children, name)
                }
            })
            .sum()
    }
    walk(&trace.phases, name)
}
