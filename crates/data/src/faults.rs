//! Runtime fault injection for resilience testing.
//!
//! The CSV corruptor (`autofeat-datagen`) breaks lakes *at rest*; a
//! [`FaultDomain`] breaks them *in flight*: a worker panic while a join index
//! is being built, or a pathologically slow join, armed per table name. The
//! resilience tests use it to prove panic isolation (one poisoned path must
//! not abort the run) and deadline enforcement (a slow join must not overrun
//! the budget unchecked).
//!
//! ## Scoping
//!
//! A domain holds the faults armed through it and nothing else holds any.
//! Each `SearchContext` owns one and carries it in each run's
//! [`RequestScope`](crate::scope::RequestScope) (which fan-out workers
//! enter); [`lookup`] reads the calling thread's domain. Two concurrent
//! requests over lakes that happen to contain a same-named table therefore
//! cannot arm each other's faults, a join outside any scope sees none, and a
//! dropped domain takes its faults with it.
//!
//! With nothing armed, a hook costs one thread-local read and one relaxed
//! atomic load per join or build.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

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
    pub(crate) fn is_empty(&self) -> bool {
        self.panic_on_row.is_none() && self.slow_join_ms.is_none()
    }
}

/// The faults armed for one lake, by table name. Visible only to lookups
/// running under a scope that carries this domain.
#[derive(Debug)]
pub struct FaultDomain {
    /// Whether `tables` is non-empty: the disarmed fast path reads only this.
    armed: AtomicBool,
    tables: RwLock<HashMap<String, TableFaults>>,
}

impl FaultDomain {
    /// A fresh domain with nothing armed.
    pub fn new() -> Arc<FaultDomain> {
        Arc::new(FaultDomain { armed: AtomicBool::new(false), tables: RwLock::default() })
    }

    /// Arm `faults` for `table` within this domain, replacing anything
    /// previously armed for it. An empty fault set disarms.
    pub fn arm(&self, table: &str, faults: TableFaults) {
        let Ok(mut tables) = self.tables.write() else { return };
        if faults.is_empty() {
            tables.remove(table);
        } else {
            tables.insert(table.to_string(), faults);
        }
        self.armed.store(!tables.is_empty(), Ordering::SeqCst);
    }

    /// Disarm all faults for `table` within this domain.
    pub fn disarm(&self, table: &str) {
        self.arm(table, TableFaults::default());
    }

    fn get(&self, table: &str) -> Option<TableFaults> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        self.tables.read().ok()?.get(table).copied()
    }
}

/// The faults armed for `table` in the current scope's domain; none outside
/// a scope that carries one.
pub fn lookup(table: &str) -> Option<TableFaults> {
    crate::scope::with_current(|s| s.faults.as_deref()?.get(table))
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
}
