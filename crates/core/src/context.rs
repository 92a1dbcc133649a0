//! The search context: tables + base/label + DRG — plus the fail-soft lake
//! loader that quarantines unreadable files instead of aborting ingestion.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, RwLock};

use autofeat_data::csv::{read_csv_opts, CsvReadOptions, IngestDiagnostics};
use autofeat_data::parallel::build_indexed;
use autofeat_data::{DataError, FaultDomain, LakeIndexCache, Result, RunControl, Table};
use autofeat_obs as obs;
use autofeat_graph::discovery::{ColumnProfile, SchemaMatcher};
use autofeat_graph::{Drg, DrgBuilder, DrgMaintainer};

/// A lake file that could not be turned into a table, with the reason it was
/// set aside (kept so runs can report *why* coverage is partial).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedTable {
    /// Table name (file stem) of the rejected file.
    pub name: String,
    /// Human-readable rejection reason (I/O or parse error text).
    pub reason: String,
}

/// Outcome of scanning a lake directory: every readable table, every
/// quarantined file with its reason, and per-table ingest diagnostics for
/// files that needed repairs.
#[derive(Debug, Clone, Default)]
pub struct LakeLoadReport {
    /// Tables successfully ingested (sorted by name).
    pub tables: Vec<Table>,
    /// Files rejected even under the requested leniency (sorted by name).
    pub quarantined: Vec<QuarantinedTable>,
    /// `(table name, diagnostics)` for loaded tables whose ingestion was not
    /// clean — i.e. lenient mode repaired something.
    pub diagnostics: Vec<(String, IngestDiagnostics)>,
}

impl LakeLoadReport {
    /// One-line human summary of lake coverage.
    pub fn summary(&self) -> String {
        format!(
            "loaded {} table(s), quarantined {}, {} with repairs",
            self.tables.len(),
            self.quarantined.len(),
            self.diagnostics.len()
        )
    }
}

/// Load every `*.csv` file under `dir` as a table, quarantining files that
/// cannot be ingested (even leniently) instead of failing the whole load.
///
/// Only an unreadable *directory* is a hard error: per-file I/O and parse
/// failures land in [`LakeLoadReport::quarantined`] with their reason so a
/// discovery run can proceed over the healthy remainder of the lake.
pub fn load_lake_dir(dir: impl AsRef<Path>, opts: &CsvReadOptions) -> Result<LakeLoadReport> {
    let _span = obs::span("ingest");
    let dir = dir.as_ref();
    let mut paths: Vec<_> = fs_read_dir(dir)?
        .into_iter()
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("csv"))
        .collect();
    paths.sort();

    let mut report = LakeLoadReport::default();
    for path in paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("table")
            .to_string();
        match read_csv_opts(&path, opts) {
            Ok(ingest) => {
                if !ingest.diagnostics.is_clean() {
                    report.diagnostics.push((name, ingest.diagnostics));
                }
                report.tables.push(ingest.table);
            }
            Err(e) => {
                obs::event("table_quarantined", || format!("{name}: {e}"));
                report.quarantined.push(QuarantinedTable { name, reason: e.to_string() });
            }
        }
    }
    obs::add("ingest.tables_loaded", report.tables.len() as u64);
    obs::add("ingest.tables_quarantined", report.quarantined.len() as u64);
    obs::add("ingest.tables_repaired", report.diagnostics.len() as u64);
    Ok(report)
}

/// Directory listing as a `Result` in this crate's error type.
fn fs_read_dir(dir: &Path) -> Result<Vec<std::path::PathBuf>> {
    let rd = std::fs::read_dir(dir)
        .map_err(|e| DataError::Io(format!("cannot read lake dir {}: {e}", dir.display())))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| DataError::Io(e.to_string()))?;
        out.push(entry.path());
    }
    Ok(out)
}

/// The mutable-lake authority shared by every clone of a discovery-built
/// context: the current table set, the DRG assembled from it, and the
/// incremental maintainer (profiles + name-sim cache + match lists) that splices
/// the DRG on mutation. Readers take O(1) `Arc` snapshots under the read
/// lock; [`SearchContext::add_table`]/[`SearchContext::remove_table`] swap
/// in new snapshots under the write lock, so in-flight requests keep the
/// exact lake they started with while new requests (which snapshot via
/// [`SearchContext::with_base_label`]) observe the mutation.
#[derive(Debug)]
struct LakeState {
    tables: Arc<HashMap<String, Table>>,
    drg: Arc<Drg>,
    maintainer: DrgMaintainer,
}

/// Everything a discovery run needs: the dataset collection, the base table
/// with its label column, the joinability graph, and the lake-wide join-index
/// cache shared (via `Arc` — clones of the context share one cache) by
/// discovery, path materialization, and the baselines.
///
/// The lake-shaped state — tables, DRG, cache, fault domain — is all
/// `Arc`-shared: cloning a context (or deriving a per-request view via
/// [`with_base_label`](SearchContext::with_base_label)) is O(1) and never
/// copies a table. Only `base`/`label` (the request's viewpoint) and the
/// `control` handle are per-clone.
///
/// Discovery-built contexts ([`from_discovery`](SearchContext::from_discovery))
/// additionally own mutable lake state: [`add_table`](SearchContext::add_table)
/// and [`remove_table`](SearchContext::remove_table) splice the DRG
/// incrementally (profiling only the mutated table) and invalidate only that
/// table's join-index cache entries. A context's `tables`/`drg` fields are a
/// *snapshot*; [`latest`](SearchContext::latest) and
/// [`with_base_label`](SearchContext::with_base_label) re-snapshot from the
/// shared authority.
#[derive(Debug, Clone)]
pub struct SearchContext {
    tables: Arc<HashMap<String, Table>>,
    base: String,
    label: String,
    drg: Arc<Drg>,
    cache: Arc<LakeIndexCache>,
    control: Arc<RunControl>,
    /// Scope for runtime fault injection: faults armed through this handle
    /// fire only for runs over *this* lake instance, so same-named tables
    /// in other contexts stay unaffected (see `autofeat_data::faults`).
    faults: Arc<FaultDomain>,
    /// Mutable-lake authority; `None` for explicit-DRG/KFK contexts, whose
    /// lakes are immutable (mutation calls error).
    lake: Option<Arc<RwLock<LakeState>>>,
}

impl SearchContext {
    /// Build from tables, an explicit DRG, the base-table name, and the
    /// label column. An index build over the lake shares the table's
    /// dictionary — building it if it is the first to ask — and never owns
    /// one.
    pub fn new(
        tables: Vec<Table>,
        drg: Drg,
        base: impl Into<String>,
        label: impl Into<String>,
    ) -> Result<Self> {
        let base = base.into();
        let label = label.into();
        let map: HashMap<String, Table> = tables
            .into_iter()
            .map(|t| (t.name().to_string(), t))
            .collect();
        let base_table = map.get(&base).ok_or_else(|| DataError::Invalid(format!(
            "base table `{base}` not in the collection"
        )))?;
        if !base_table.has_column(&label) {
            return Err(DataError::ColumnNotFound { table: base, column: label });
        }
        Ok(SearchContext {
            tables: Arc::new(map),
            base,
            label,
            drg: Arc::new(drg),
            cache: Arc::new(LakeIndexCache::new()),
            control: Arc::new(RunControl::new()),
            faults: FaultDomain::new(),
            lake: None,
        })
    }

    /// Re-snapshot `tables`/`drg` from the shared lake authority, if this
    /// context has one. No-op for immutable (KFK/explicit-DRG) contexts.
    fn refresh(&mut self) {
        if let Some(cell) = &self.lake {
            // A poisoned lock means a mutator panicked; its write never
            // landed (snapshots swap atomically), so the resident state is
            // still consistent — recover and read it.
            let state = cell.read().unwrap_or_else(|e| e.into_inner());
            self.tables = Arc::clone(&state.tables);
            self.drg = Arc::clone(&state.drg);
        }
    }

    /// The current lake as a fresh snapshot view: same base/label/control,
    /// but `tables`/`drg` reflect every mutation applied so far. For
    /// immutable contexts this is a plain clone.
    pub fn latest(&self) -> SearchContext {
        let mut view = self.clone();
        view.refresh();
        view
    }

    /// A per-request view of the same lake: shares the cache and fault
    /// domain (O(1) `Arc` clones), re-snapshots the current tables/DRG from
    /// the lake authority, and looks at `base`/`label` instead — validated
    /// exactly like [`SearchContext::new`]. The control handle is shared
    /// too; use [`with_request_control`](SearchContext::with_request_control)
    /// to give the view its own.
    pub fn with_base_label(
        &self,
        base: impl Into<String>,
        label: impl Into<String>,
    ) -> Result<SearchContext> {
        let base = base.into();
        let label = label.into();
        let mut view = self.clone();
        view.refresh();
        let base_table = view.tables.get(&base).ok_or_else(|| {
            DataError::Invalid(format!("base table `{base}` not in the collection"))
        })?;
        if !base_table.has_column(&label) {
            return Err(DataError::ColumnNotFound { table: base, column: label });
        }
        view.base = base;
        view.label = label;
        Ok(view)
    }

    /// Replace this context view's run control — e.g. with a fresh
    /// [`RunControl::scoped`] child, so one request can be cancelled or
    /// deadlined without touching its siblings over the same lake.
    pub fn with_request_control(mut self, control: Arc<RunControl>) -> SearchContext {
        self.control = control;
        self
    }

    /// This view over a cache of its own with a budget of 0, ignoring
    /// `AUTOFEAT_CACHE_BUDGET`: it refuses every admission, so each index is
    /// built, used and dropped, and the lake's shared cache is never touched.
    /// What a `cache: false` discovery run joins through.
    pub(crate) fn with_private_cache(mut self) -> SearchContext {
        self.cache = Arc::new(LakeIndexCache::with_budget(Some(0)));
        self
    }

    /// Build the *benchmark setting* context from tables plus known KFK
    /// edges `(parent_table, parent_column, child_table, child_column)`.
    pub fn from_kfk(
        tables: Vec<Table>,
        kfk: &[(String, String, String, String)],
        base: impl Into<String>,
        label: impl Into<String>,
    ) -> Result<Self> {
        let mut b = DrgBuilder::new();
        for t in &tables {
            b.add_table(t.name());
        }
        for (pt, pc, ct, cc) in kfk {
            b.add_kfk(pt, pc, ct, cc);
        }
        SearchContext::new(tables, b.build(), base, label)
    }

    /// Build the *data-lake setting* context: run dataset discovery over
    /// the table collection (the label column is hidden from the matcher).
    ///
    /// Matching goes through a [`DrgMaintainer`], which decides every
    /// cross-table column pair exactly: the matcher's occupancy bound
    /// rejects most pairs without merging their value sets, so the edges
    /// are the all-pairs matcher's (`tests/match_oracle.rs`). The
    /// maintainer stays resident as the context's mutable-lake state,
    /// so [`add_table`](SearchContext::add_table)/
    /// [`remove_table`](SearchContext::remove_table) splice incrementally.
    /// Its footprint is owned lake metadata (like
    /// [`Table::key_meta_bytes`]), not cache occupancy.
    pub fn from_discovery(
        tables: Vec<Table>,
        matcher: &SchemaMatcher,
        base: impl Into<String>,
        label: impl Into<String>,
    ) -> Result<Self> {
        let base = base.into();
        let label = label.into();
        // The label is hidden by dropping its profile, not its column —
        // dropping a column sheds the table's key metadata.
        let mut maintainer = DrgMaintainer::new(matcher.clone());
        {
            let _span = obs::span("drg_build");
            // A table's profiles are a pure function of its cells: fan the
            // tables out, then score the pairs as each table joins.
            let profiled = build_indexed(tables.len(), |i| ColumnProfile::build_all(&tables[i]));
            for (t, mut profiles) in tables.iter().zip(profiled) {
                if t.name() == base {
                    profiles.retain(|p| p.column != label);
                }
                maintainer.add_profiles(t.name(), profiles);
            }
        }
        let drg = maintainer.assemble();
        let mut ctx = SearchContext::new(tables, drg, base, label)?;
        ctx.lake = Some(Arc::new(RwLock::new(LakeState {
            tables: Arc::clone(&ctx.tables),
            drg: Arc::clone(&ctx.drg),
            maintainer,
        })));
        Ok(ctx)
    }

    /// Bytes of key metadata built so far over the current lake and the
    /// number of key dictionaries among it — owned lake state outside the
    /// join-index cache budget, which grows while requests are served: a
    /// dictionary appears when a join is first keyed on its column. O(total
    /// columns), no key is visited.
    pub fn lake_key_meta(&self) -> (usize, usize) {
        self.latest().tables.values().fold((0, 0), |(bytes, dicts), t| {
            (bytes + t.key_meta_bytes(), dicts + t.built_dicts().count())
        })
    }

    /// Bytes of cells the current lake's tables hold resident
    /// ([`Table::payload_bytes`] summed) — what keeping the lake up costs
    /// before any key metadata or index is built. O(total columns).
    pub fn lake_payload_bytes(&self) -> usize {
        self.latest().tables.values().map(|t| t.payload_bytes()).sum()
    }

    fn lake_cell(&self) -> Result<&Arc<RwLock<LakeState>>> {
        self.lake.as_ref().ok_or_else(|| {
            DataError::Invalid(
                "lake mutation requires a discovery-built context \
                 (SearchContext::from_discovery); KFK/explicit-DRG lakes are immutable"
                    .into(),
            )
        })
    }

    /// Add a table to the lake. Profiles only the new table (outside the
    /// lake lock), splices DRG edges incrementally via the resident
    /// [`DrgMaintainer`], and swaps in a new snapshot — concurrent requests
    /// keep the snapshot they started with; requests prepared afterwards
    /// (via [`with_base_label`](SearchContext::with_base_label) or
    /// [`latest`](SearchContext::latest)) see the new table. Cache entries
    /// of other tables are untouched.
    ///
    /// Errors if this context is immutable or a table of that name is
    /// already resident (remove it first — replacement must be explicit).
    pub fn add_table(&self, table: Table) -> Result<()> {
        let cell = self.lake_cell()?;
        let _span = obs::span("lake_add_table");
        let name = table.name().to_string();
        // The expensive part — profiling the new columns — happens before
        // the write lock, so concurrent request preparation never stalls
        // behind it.
        let profiles = ColumnProfile::build_all(&table);
        {
            let mut state = cell.write().unwrap_or_else(|e| e.into_inner());
            if state.tables.contains_key(&name) {
                return Err(DataError::Invalid(format!(
                    "table `{name}` is already in the lake; remove it first"
                )));
            }
            state.maintainer.add_profiles(&name, profiles);
            let mut tables = (*state.tables).clone();
            tables.insert(name.clone(), table);
            state.tables = Arc::new(tables);
            state.drg = Arc::new(state.maintainer.assemble());
        }
        // Release any slots a removed same-named predecessor left behind.
        // (Slot verification is by column data identity, so the new version
        // could never *hit* them — this is memory hygiene, not correctness.)
        self.cache.invalidate_table(&name);
        obs::incr("lake.tables_added");
        Ok(())
    }

    /// Remove a table from the lake: un-splices its DRG edges via the
    /// resident [`DrgMaintainer`] and invalidates exactly its join-index
    /// cache entries — never a full rebuild, never a full cache flush.
    /// Snapshot semantics match [`add_table`](SearchContext::add_table):
    /// in-flight requests over the old snapshot are unaffected (their
    /// `Arc`s keep the table and any cached indexes alive).
    ///
    /// Errors if this context is immutable, the table is absent, or it is
    /// this view's base table.
    pub fn remove_table(&self, name: &str) -> Result<()> {
        let cell = self.lake_cell()?;
        let _span = obs::span("lake_remove_table");
        if name == self.base {
            return Err(DataError::Invalid(format!(
                "cannot remove `{name}`: it is this context's base table"
            )));
        }
        {
            let mut state = cell.write().unwrap_or_else(|e| e.into_inner());
            if !state.tables.contains_key(name) {
                return Err(DataError::Invalid(format!("table `{name}` not in the lake")));
            }
            state.maintainer.remove_table(name);
            let mut tables = (*state.tables).clone();
            tables.remove(name);
            state.tables = Arc::new(tables);
            state.drg = Arc::new(state.maintainer.assemble());
        }
        self.cache.invalidate_table(name);
        obs::incr("lake.tables_removed");
        Ok(())
    }

    /// The base table.
    pub fn base_table(&self) -> &Table {
        &self.tables[&self.base]
    }

    /// The base table's name.
    pub fn base_name(&self) -> &str {
        &self.base
    }

    /// The label column name.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// A table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// All table names, sorted (so callers iterating the lake do so in a
    /// process-independent order).
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Number of tables.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// The joinability graph.
    pub fn drg(&self) -> &Drg {
        &self.drg
    }

    /// The lake-wide join-index cache. Shared across clones of this context,
    /// so indexes built by one run (or one worker thread) serve all others.
    /// Constructed with [`LakeIndexCache::new`], so it honours an
    /// `AUTOFEAT_CACHE_BUDGET` byte budget from the environment; discovery
    /// runs may re-apply a configured budget (see
    /// [`AutoFeatConfig::cache_budget_bytes`](crate::AutoFeatConfig::cache_budget_bytes)).
    pub fn lake_cache(&self) -> &LakeIndexCache {
        &self.cache
    }

    /// The context-wide run-lifecycle control, shared (via `Arc`) by every
    /// clone of this context. Cancelling it — from any thread — winds down
    /// whatever pipeline stage is currently running against this context
    /// (discovery, materialization, training, baselines) at its next
    /// cooperative checkpoint; a deadline it was made with does the same on
    /// expiry. Each discovery run makes its own child with
    /// [`RunControl::scoped`] at the config's `time_budget`, so a per-run
    /// deadline never leaks into this shared handle.
    pub fn control(&self) -> &Arc<RunControl> {
        &self.control
    }

    /// The fault-injection domain scoped to this lake instance: a runtime
    /// fault armed through this handle fires only for runs over this
    /// context's tables.
    pub fn fault_domain(&self) -> &Arc<FaultDomain> {
        &self.faults
    }

    /// Feature columns of the base table: everything except the label.
    pub fn base_features(&self) -> Vec<String> {
        self.base_table()
            .column_names()
            .into_iter()
            .filter(|c| *c != self.label)
            .map(String::from)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofeat_data::Column;

    fn tables() -> Vec<Table> {
        let base = Table::new(
            "base",
            vec![
                ("k", Column::from_ints((0..20).map(Some).collect::<Vec<_>>())),
                ("target", Column::from_ints((0..20).map(|i| Some(i % 2)).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let ext = Table::new(
            "ext",
            vec![
                ("k", Column::from_ints((0..20).map(Some).collect::<Vec<_>>())),
                ("f", Column::from_floats((0..20).map(|i| Some(i as f64)).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        vec![base, ext]
    }

    #[test]
    fn kfk_context_builds() {
        let ctx = SearchContext::from_kfk(
            tables(),
            &[("base".into(), "k".into(), "ext".into(), "k".into())],
            "base",
            "target",
        )
        .unwrap();
        assert_eq!(ctx.n_tables(), 2);
        assert_eq!(ctx.drg().n_edges(), 1);
        assert_eq!(ctx.base_features(), vec!["k".to_string()]);
        assert_eq!(ctx.label(), "target");
    }

    #[test]
    fn control_is_shared_across_clones() {
        let ctx = SearchContext::from_kfk(
            tables(),
            &[("base".into(), "k".into(), "ext".into(), "k".into())],
            "base",
            "target",
        )
        .unwrap();
        let clone = ctx.clone();
        clone.control().cancel();
        assert!(ctx.control().is_cancelled(), "clones share one control");
        // A view with a fresh control runs again; the lake's control stays
        // cancelled.
        let fresh = ctx.clone().with_request_control(Arc::new(RunControl::new()));
        assert!(!fresh.control().is_cancelled());
        assert!(clone.control().is_cancelled());
    }

    #[test]
    fn base_label_view_shares_lake_state() {
        let ctx = SearchContext::from_kfk(
            tables(),
            &[("base".into(), "k".into(), "ext".into(), "k".into())],
            "base",
            "target",
        )
        .unwrap();
        let view = ctx.with_base_label("ext", "f").unwrap();
        assert_eq!(view.base_name(), "ext");
        assert_eq!(view.label(), "f");
        assert!(std::ptr::eq(ctx.lake_cache(), view.lake_cache()), "one cache per lake");
        assert!(Arc::ptr_eq(ctx.fault_domain(), view.fault_domain()), "one fault domain");
        assert!(ctx.with_base_label("ghost", "f").is_err(), "unknown base rejected");
        assert!(ctx.with_base_label("ext", "ghost").is_err(), "missing label rejected");
        // A request-scoped control detaches the view from the shared one.
        let scoped = ctx.control().scoped(None);
        let req = view.with_request_control(scoped);
        req.control().cancel();
        assert!(!ctx.control().is_cancelled(), "request cancel stays scoped");
    }

    #[test]
    fn missing_base_rejected() {
        let r = SearchContext::from_kfk(tables(), &[], "ghost", "target");
        assert!(r.is_err());
    }

    #[test]
    fn missing_label_rejected() {
        let r = SearchContext::from_kfk(tables(), &[], "base", "ghost");
        assert!(r.is_err());
    }

    #[test]
    fn discovery_context_hides_label() {
        let ctx = SearchContext::from_discovery(
            tables(),
            &SchemaMatcher::paper_default(),
            "base",
            "target",
        )
        .unwrap();
        for e in ctx.drg().edges() {
            assert_ne!(e.a_column, "target");
            assert_ne!(e.b_column, "target");
        }
        // The shared key column must be rediscovered.
        assert!(ctx.drg().n_edges() >= 1);
        // Label survives in the stored base table.
        assert!(ctx.base_table().has_column("target"));
    }

    fn extra_table(name: &str, shift: i64) -> Table {
        Table::new(
            name,
            vec![
                ("k", Column::from_ints((shift..shift + 20).map(Some).collect::<Vec<_>>())),
                ("x", Column::from_ints((400..420).map(Some).collect::<Vec<_>>())),
            ],
        )
        .unwrap()
    }

    #[test]
    fn add_table_is_visible_to_new_views_not_old_snapshots() {
        let ctx = SearchContext::from_discovery(
            tables(),
            &SchemaMatcher::paper_default(),
            "base",
            "target",
        )
        .unwrap();
        let snapshot = ctx.clone();
        ctx.add_table(extra_table("extra", 0)).unwrap();
        assert_eq!(snapshot.n_tables(), 2, "pre-mutation snapshot unchanged");
        assert_eq!(ctx.n_tables(), 2, "the handle itself is a snapshot too");
        let fresh = ctx.latest();
        assert_eq!(fresh.n_tables(), 3);
        assert!(fresh.table("extra").is_some());
        assert!(
            fresh.drg().node("extra").is_some(),
            "new table spliced into the DRG: {:?}",
            fresh.drg().edges()
        );
        let view = ctx.with_base_label("extra", "x").unwrap();
        assert_eq!(view.n_tables(), 3, "views re-snapshot the latest lake");
        // And removal takes it back out.
        ctx.remove_table("extra").unwrap();
        assert_eq!(ctx.latest().n_tables(), 2);
        assert!(ctx.latest().drg().node("extra").is_none());
    }

    #[test]
    fn mutated_lake_matches_fresh_discovery_bit_for_bit() {
        let matcher = SchemaMatcher::paper_default();
        let ctx =
            SearchContext::from_discovery(tables(), &matcher, "base", "target").unwrap();
        ctx.add_table(extra_table("extra", 5)).unwrap();
        ctx.add_table(extra_table("other", 10)).unwrap();
        ctx.remove_table("extra").unwrap();
        let mutated = ctx.latest();
        let mut final_tables = tables();
        final_tables.push(extra_table("other", 10));
        let fresh =
            SearchContext::from_discovery(final_tables, &matcher, "base", "target").unwrap();
        let (a, b) = (mutated.drg(), fresh.drg());
        assert_eq!(a.n_nodes(), b.n_nodes());
        assert_eq!(a.n_edges(), b.n_edges());
        for (x, y) in a.edges().iter().zip(b.edges()) {
            assert_eq!(a.table_name(x.a), b.table_name(y.a));
            assert_eq!(a.table_name(x.b), b.table_name(y.b));
            assert_eq!((&x.a_column, &x.b_column), (&y.a_column, &y.b_column));
            assert_eq!(x.weight.to_bits(), y.weight.to_bits());
        }
    }

    #[test]
    fn immutable_contexts_reject_mutation() {
        let ctx = SearchContext::from_kfk(
            tables(),
            &[("base".into(), "k".into(), "ext".into(), "k".into())],
            "base",
            "target",
        )
        .unwrap();
        assert!(ctx.add_table(extra_table("extra", 0)).is_err());
        assert!(ctx.remove_table("ext").is_err());
    }

    #[test]
    fn mutation_guards_base_duplicates_and_missing() {
        let ctx = SearchContext::from_discovery(
            tables(),
            &SchemaMatcher::paper_default(),
            "base",
            "target",
        )
        .unwrap();
        assert!(ctx.remove_table("base").is_err(), "base is not removable");
        assert!(ctx.remove_table("ghost").is_err(), "missing table");
        let dup = Table::new("ext", vec![("z", Column::from_ints([Some(1)]))]).unwrap();
        assert!(ctx.add_table(dup).is_err(), "duplicate name must be explicit");
    }

    fn temp_lake(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("autofeat_lake_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn lake_loader_quarantines_bad_files() {
        let dir = temp_lake("quarantine");
        std::fs::write(dir.join("good.csv"), "k,v\n1,10\n2,20\n").unwrap();
        std::fs::write(dir.join("broken.csv"), "k,v\n1\n2\n3\n4\n").unwrap();
        std::fs::write(dir.join("empty.csv"), "").unwrap();
        std::fs::write(dir.join("notes.txt"), "not a csv").unwrap();

        let report = load_lake_dir(&dir, &CsvReadOptions::lenient()).unwrap();
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.tables[0].name(), "good");
        // `broken` blows the 20% bad-row budget; `empty` has no header.
        let mut q: Vec<&str> =
            report.quarantined.iter().map(|q| q.name.as_str()).collect();
        q.sort();
        assert_eq!(q, vec!["broken", "empty"]);
        assert!(report
            .quarantined
            .iter()
            .all(|q| !q.reason.is_empty()));
        assert!(report.summary().contains("quarantined 2"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lake_loader_records_repair_diagnostics() {
        let dir = temp_lake("repairs");
        std::fs::write(dir.join("clean.csv"), "k\n1\n").unwrap();
        // One ragged row in ten: within the lenient budget, so it loads
        // with diagnostics rather than being quarantined.
        let mut ragged = String::from("k,v\n");
        for i in 0..9 {
            ragged.push_str(&format!("{i},{i}\n"));
        }
        ragged.push_str("9\n");
        std::fs::write(dir.join("ragged.csv"), ragged).unwrap();

        let report = load_lake_dir(&dir, &CsvReadOptions::lenient()).unwrap();
        assert_eq!(report.tables.len(), 2);
        assert!(report.quarantined.is_empty());
        assert_eq!(report.diagnostics.len(), 1);
        let (name, diags) = &report.diagnostics[0];
        assert_eq!(name, "ragged");
        assert_eq!(diags.n_repaired_rows, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lake_loader_strict_quarantines_what_lenient_repairs() {
        let dir = temp_lake("strictness");
        std::fs::write(dir.join("t.csv"), "k,v\n1,1\n2,2\n3,3\n4,4\n5\n").unwrap();
        let strict = load_lake_dir(&dir, &CsvReadOptions::strict()).unwrap();
        assert_eq!(strict.quarantined.len(), 1);
        assert!(strict.quarantined[0].reason.contains("ragged"));
        let lenient = load_lake_dir(&dir, &CsvReadOptions::lenient()).unwrap();
        assert!(lenient.quarantined.is_empty());
        assert_eq!(lenient.tables.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lake_loader_missing_dir_is_hard_error() {
        let r = load_lake_dir(
            std::env::temp_dir().join("autofeat_no_such_lake_dir"),
            &CsvReadOptions::lenient(),
        );
        assert!(matches!(r, Err(DataError::Io(_))));
    }
}
