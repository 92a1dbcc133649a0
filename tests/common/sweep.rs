//! The equivalence sweep's engine. Representatives are picked by key
//! identity (§IV-B), so five execution axes must never move a bit of a
//! discovery result: workers, cache budget, row layout, tracing and
//! concurrent serving. [`sweep`] runs a fixture's every config × seed at
//! the points of a pairwise covering array over the five ([`POINTS`]) and
//! compares each result with one [`reference`]. A second request kind is
//! the baselines' join walker, `bfs_join`, at depth 1 (ARDA) and unbounded
//! (JoinAll) for every seed, held to the walker on the reference's context.
//! `tests/equivalence.rs` runs every fixture at every point; a suite that
//! owns an axis runs the lake at the points that vary it.

use std::thread;

use autofeat::core::baselines::bfs_join;
use autofeat::data::parallel::n_workers;
use autofeat::obs::{PhaseNode, RunTrace};
use autofeat::prelude::*;

use super::{assert_bit_identical, lake_ctx, Layout};

/// Which join-index cache a point's requests join through: the context's
/// shared one unbounded, at half the fixture's working set or at 0 (every
/// join is denied and folds), or with `with_cache(false)` a private budget-0
/// one per request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cache {
    Unbounded,
    Half,
    Zero,
    Off,
}

/// `workers: 0` is auto, the process-wide worker count; `served` requests go
/// through one `DiscoveryService` under concurrent clients.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    pub workers: usize,
    pub cache: Cache,
    pub layout: Layout,
    pub traced: bool,
    pub served: bool,
}

const fn at(workers: usize, cache: Cache, layout: Layout, traced: bool, served: bool) -> Point {
    Point { workers, cache, layout, traced, served }
}

pub const WORKERS: [usize; 4] = [1, 2, 4, 0];

/// Every pair of values of any two axes is in at least one point
/// ([`points_cover_every_pair`]), and every cache setting and every worker
/// count has a traced solo point. The rows are the orthogonal array
/// `(a, b, a+b, a+2b, a+3b)` over GF(4), its third column taken mod 3, its
/// fourth halved, and its fifth served when 1 or 2.
pub const POINTS: [Point; 16] = {
    use Cache::*;
    use Layout::*;
    [
        at(1, Unbounded, Identity, false, false),
        at(1, Half, Reversed, true, false),
        at(1, Zero, Rotated, true, true),
        at(1, Off, Identity, false, true),
        at(2, Unbounded, Reversed, false, true),
        at(2, Half, Identity, true, true),
        at(2, Zero, Identity, true, false),
        at(2, Off, Rotated, false, false),
        at(4, Unbounded, Rotated, true, true),
        at(4, Half, Identity, false, true),
        at(4, Zero, Identity, false, false),
        at(4, Off, Reversed, true, false),
        at(0, Unbounded, Identity, true, false),
        at(0, Half, Rotated, false, false),
        at(0, Zero, Reversed, false, true),
        at(0, Off, Identity, true, true),
    ]
};

const SEEDS: [u64; 2] = [7, 42];
/// The walker's depths: ARDA's star and JoinAll's whole reachable DRG.
const DEPTHS: [Option<usize>; 2] = [Some(1), None];
const CLIENTS: usize = 4;
const ROUNDS: usize = 3;

/// A lake template, never run itself, and the configs run over it.
pub struct Fixture {
    pub name: &'static str,
    pub ctx: SearchContext,
    pub configs: Vec<(&'static str, AutoFeatConfig)>,
}

pub fn paper_default(name: &'static str, ctx: SearchContext) -> Fixture {
    Fixture { name, ctx, configs: vec![("default", AutoFeatConfig::default())] }
}

impl Fixture {
    /// Every (config, seed) of the fixture, named.
    fn requests(&self) -> Vec<(String, AutoFeatConfig)> {
        let seeded = |(what, cfg): &(&str, AutoFeatConfig)| {
            SEEDS.map(|seed| (format!("{}, {what}, seed {seed}", self.name), cfg.clone().with_seed(seed)))
        };
        self.configs.iter().flat_map(seeded).collect()
    }

    /// A fresh context in `layout` with its shared cache at `budget`.
    fn context(&self, layout: Layout, budget: Option<u64>) -> SearchContext {
        let ctx = layout.apply(&self.ctx);
        ctx.lake_cache().set_budget(budget);
        ctx
    }
}

/// What every point is held to: the request on a fresh context at cache
/// budget 0, one worker, untraced, solo, identity layout.
pub fn reference(fixture: &Fixture, cfg: &AutoFeatConfig) -> DiscoveryResult {
    let ctx = fixture.context(Layout::Identity, Some(0));
    AutoFeat::new(cfg.clone().with_threads(1).with_trace(false)).discover(&ctx).unwrap()
}

/// `bfs_join` at every seed and depth over `ctx`, through its shared cache,
/// named.
fn walks(fixture: &Fixture, ctx: &SearchContext) -> Vec<(String, (Table, Vec<String>))> {
    let walk = |seed: u64, depth: Option<usize>| {
        let what = format!("{}, bfs_join depth {depth:?}, seed {seed}", fixture.name);
        (what, bfs_join(ctx, seed, depth).unwrap())
    };
    SEEDS.into_iter().flat_map(|seed| DEPTHS.map(|depth| walk(seed, depth))).collect()
}

/// The bytes one unbounded default run leaves resident on a fresh context.
fn working_set(fixture: &Fixture) -> u64 {
    let ctx = fixture.context(Layout::Identity, None);
    let r = AutoFeat::new(AutoFeatConfig::default().with_threads(1)).discover(&ctx).unwrap();
    assert!(r.cache.resident_bytes > 0, "{}: an unbounded run retains indexes", fixture.name);
    r.cache.resident_bytes
}

/// A fresh context in point `p`'s layout, its shared cache at `p`'s budget.
fn point_context(fixture: &Fixture, p: Point, working_set: u64) -> SearchContext {
    let budget = match p.cache {
        Cache::Unbounded | Cache::Off => None,
        Cache::Half => Some(working_set / 2),
        Cache::Zero => Some(0),
    };
    fixture.context(p.layout, budget)
}

/// Every request at point `p` over `ctx`, by index: one after another, or
/// served by one service over it to [`CLIENTS`] threads for [`ROUNDS`]
/// rounds, each round submitting every request once, so the cache is warm
/// from the second on.
fn run(fixture: &Fixture, ctx: &SearchContext, p: Point) -> Vec<(usize, DiscoveryResult)> {
    let requests = fixture.requests();
    let config = |i: usize| {
        let cfg = requests[i].1.clone().with_threads(p.workers).with_trace(p.traced);
        cfg.with_cache(p.cache != Cache::Off)
    };
    if !p.served {
        let solo = |i: usize| (i, AutoFeat::new(config(i)).discover(ctx).unwrap());
        return (0..requests.len()).map(solo).collect();
    }
    let service = DiscoveryService::new(ctx.clone(), AutoFeatConfig::default());
    let submit = |i: usize| (i, service.submit(&DiscoveryRequest::new().with_config(config(i))).unwrap());
    let mut out = Vec::new();
    for round in 0..ROUNDS {
        thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|t| {
                    let mine = (0..requests.len()).filter(move |i| (i + round) % CLIENTS == t);
                    s.spawn(move || mine.map(submit).collect::<Vec<_>>())
                })
                .collect();
            out.extend(clients.into_iter().flat_map(|c| c.join().unwrap()));
        });
    }
    out
}

fn span_paths(nodes: &[PhaseNode], out: &mut Vec<String>) {
    for n in nodes {
        out.push(n.path.clone());
        span_paths(&n.children, out);
    }
}

/// What a schedule may not move in a trace: span paths, counter totals,
/// the event log, and each distribution's name and count.
fn assert_same_trace_shape(want: &RunTrace, got: &RunTrace, what: &str) {
    let (mut want_paths, mut got_paths) = (Vec::new(), Vec::new());
    span_paths(&want.phases, &mut want_paths);
    span_paths(&got.phases, &mut got_paths);
    assert_eq!(want_paths, got_paths, "{what}: span paths");
    assert_eq!(want.counters, got.counters, "{what}: counters");
    assert_eq!(want.events, got.events, "{what}: event log");
    let dists = |t: &RunTrace| t.dists.iter().map(|(n, d)| (n.clone(), d.count)).collect::<Vec<_>>();
    assert_eq!(dists(want), dists(got), "{what}: distributions");
}

/// Run the fixture at every point `keep` admits and hold each result to its
/// reference, and each traced solo point's trace shape to that of one
/// worker, identity layout, same cache. After a point's requests, the
/// walker runs over the same context, its cache as they left it. Returns
/// the references, named.
pub fn sweep(fixture: &Fixture, keep: impl Fn(&Point) -> bool) -> Vec<(String, DiscoveryResult)> {
    let requests = fixture.requests();
    let references: Vec<(String, DiscoveryResult)> =
        requests.iter().map(|(what, cfg)| (what.clone(), reference(fixture, cfg))).collect();
    for (what, r) in &references {
        assert!(!r.ranked.is_empty(), "{what}: the reference must rank a path");
    }
    let walk_references = walks(fixture, &fixture.context(Layout::Identity, Some(0)));
    for (what, (_, joined)) in &walk_references {
        assert!(!joined.is_empty(), "{what}: the reference must join a table");
    }
    let working_set = working_set(fixture);
    let traced_env = std::env::var_os("AUTOFEAT_TRACE").is_some();
    for p in POINTS.into_iter().filter(|p| keep(p)) {
        let ctx = point_context(fixture, p, working_set);
        let results = run(fixture, &ctx, p);
        assert_eq!(results.len(), requests.len() * if p.served { ROUNDS } else { 1 });
        for (i, r) in &results {
            let what = format!("{}, {p:?}", references[*i].0);
            assert_bit_identical(&references[*i].1, r, &what);
            let workers = if p.workers == 0 { n_workers() } else { p.workers };
            assert_eq!(r.threads_used, workers, "{what}");
            assert_eq!(r.trace.is_some(), p.traced || traced_env, "{what}: tracing is opt-in");
        }
        for ((what, want), (_, got)) in walk_references.iter().zip(walks(fixture, &ctx)) {
            assert_eq!(want, &got, "{what}, {p:?}");
        }
        if p.traced && !p.served {
            let one_worker = Point { workers: 1, layout: Layout::Identity, ..p };
            let ctx = point_context(fixture, one_worker, working_set);
            for ((i, r), (_, w)) in results.iter().zip(run(fixture, &ctx, one_worker)) {
                let what = format!("{}, {p:?} against one worker", requests[*i].0);
                assert_same_trace_shape(w.trace.as_ref().unwrap(), r.trace.as_ref().unwrap(), &what);
            }
        }
    }
    references
}

/// `lake_ctx(120)` under the paper default.
pub fn lake() -> Fixture {
    paper_default("lake_ctx(120)", lake_ctx(120))
}
