//! Process-level runtime fault injection for resilience testing.
//!
//! The CSV corruptor (`autofeat-datagen`) breaks lakes *at rest*; this
//! registry breaks them *in flight*: a worker panic while a join index is
//! being built, or a pathologically slow join, armed per table name. The
//! resilience tests use it to prove panic isolation (one poisoned path
//! must not abort the run) and deadline enforcement (a slow join must not
//! overrun the budget unchecked).
//!
//! ## Scoping
//!
//! Faults are keyed by **(domain, table name)**. A [`FaultDomain`] is a
//! handle identifying one lake/registry instance: each `SearchContext`
//! owns one and carries it in each run's
//! [`RequestScope`](crate::scope::RequestScope) (which fan-out workers
//! enter), and every fault armed through the handle is disarmed when the
//! handle drops. Two
//! concurrent requests over lakes that happen to contain a same-named
//! table therefore cannot arm each other's faults, and a join outside any
//! scope sees none.
//!
//! Production cost is a single relaxed atomic load per join/build when
//! nothing is armed anywhere ([`lookup`] bails before touching the map).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Runtime faults armed for one table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableFaults {
    /// Panic while building the join index for this table, when the build
    /// reaches this row (no-op if the table is shorter).
    pub panic_on_row: Option<usize>,
    /// Sleep this many milliseconds at the start of every join against
    /// this table (interruptible via the ambient [`crate::control`]).
    pub slow_join_ms: Option<u64>,
}

impl TableFaults {
    /// No faults armed.
    pub fn is_empty(&self) -> bool {
        self.panic_on_row.is_none() && self.slow_join_ms.is_none()
    }
}

static ANY_ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_DOMAIN_ID: AtomicU64 = AtomicU64::new(1);

type Registry = HashMap<u64, HashMap<String, TableFaults>>;

fn registry() -> &'static RwLock<Registry> {
    static REGISTRY: OnceLock<RwLock<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(HashMap::new()))
}

/// A fault-registration scope tied to one lake/registry instance.
///
/// Faults armed through a domain are visible only to lookups running under
/// a scope that carries it, and are disarmed wholesale when the last
/// `Arc<FaultDomain>` clone drops.
#[derive(Debug)]
pub struct FaultDomain {
    id: u64,
}

impl FaultDomain {
    /// A fresh domain with a process-unique id.
    pub fn new() -> Arc<FaultDomain> {
        Arc::new(FaultDomain { id: NEXT_DOMAIN_ID.fetch_add(1, Ordering::SeqCst) })
    }

    /// This domain's process-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Arm `faults` for `table` within this domain, replacing anything
    /// previously armed for it. An empty fault set disarms.
    pub fn arm(&self, table: &str, faults: TableFaults) {
        let Ok(mut map) = registry().write() else { return };
        if faults.is_empty() {
            if let Some(inner) = map.get_mut(&self.id) {
                inner.remove(table);
                if inner.is_empty() {
                    map.remove(&self.id);
                }
            }
        } else {
            map.entry(self.id).or_default().insert(table.to_string(), faults);
        }
        ANY_ARMED.store(!map.is_empty(), Ordering::SeqCst);
    }

    /// Disarm all faults for `table` within this domain.
    pub fn disarm(&self, table: &str) {
        self.arm(table, TableFaults::default());
    }
}

impl Drop for FaultDomain {
    fn drop(&mut self) {
        let Ok(mut map) = registry().write() else { return };
        map.remove(&self.id);
        ANY_ARMED.store(!map.is_empty(), Ordering::SeqCst);
    }
}

/// The faults armed for `table` in the current scope's domain; none outside
/// a scope that carries one. One atomic load when the registry is empty —
/// the production fast path.
pub fn lookup(table: &str) -> Option<TableFaults> {
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let id = crate::scope::with_current(|s| s.faults.as_ref().map(|dom| dom.id))?;
    let map = registry().read().ok()?;
    map.get(&id)?.get(table).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::RequestScope;

    /// The calling thread's scope, inside `domain`.
    fn within(domain: &Arc<FaultDomain>) -> RequestScope {
        RequestScope { faults: Some(Arc::clone(domain)), ..RequestScope::capture() }
    }

    #[test]
    fn arm_lookup_disarm_roundtrip() {
        let t = "t";
        let dom = FaultDomain::new();
        let _g = within(&dom).enter();
        assert_eq!(lookup(t), None);
        dom.arm(t, TableFaults { panic_on_row: Some(3), slow_join_ms: None });
        assert_eq!(lookup(t).unwrap().panic_on_row, Some(3));
        dom.arm(t, TableFaults { panic_on_row: None, slow_join_ms: Some(25) });
        assert_eq!(lookup(t).unwrap().slow_join_ms, Some(25), "re-arm replaces");
        assert_eq!(lookup("other"), None, "other tables stay clean");
        dom.disarm(t);
        assert_eq!(lookup(t), None);
    }

    #[test]
    fn arming_empty_set_disarms() {
        let dom = FaultDomain::new();
        let _g = within(&dom).enter();
        dom.arm("t", TableFaults { panic_on_row: Some(1), slow_join_ms: None });
        dom.arm("t", TableFaults::default());
        assert_eq!(lookup("t"), None);
    }

    #[test]
    fn domains_isolate_same_named_tables() {
        let t = "shared_name";
        let a = FaultDomain::new();
        let b = FaultDomain::new();
        a.arm(t, TableFaults { panic_on_row: Some(7), slow_join_ms: None });
        {
            let _g = within(&a).enter();
            assert_eq!(lookup(t).unwrap().panic_on_row, Some(7));
        }
        {
            let _g = within(&b).enter();
            assert_eq!(lookup(t), None, "b must not see a's fault for the same table name");
        }
        assert_eq!(lookup(t), None, "no scope: scoped faults invisible");
    }

    #[test]
    fn dropping_domain_disarms_its_faults() {
        let t = "t";
        let dom = FaultDomain::new();
        dom.arm(t, TableFaults { panic_on_row: Some(1), slow_join_ms: None });
        let id = dom.id();
        drop(dom);
        let map = registry().read().unwrap();
        assert!(!map.contains_key(&id), "dropped domain leaves no entries behind");
    }
}
