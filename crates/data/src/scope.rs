//! The request scope: everything a deep layer may consult about the request
//! it is working for, in one thread-local (DESIGN.md §3d).
//!
//! The join kernel, the index cache and the fault hooks take no request
//! parameter; they read the calling thread's scope: `ctl` is polled by
//! [`control::ambient_interrupted`](crate::control::ambient_interrupted),
//! `recorder` is credited with the cache activity this thread causes,
//! `faults` is the one domain [`faults::lookup`](crate::faults::lookup)
//! consults, and `trace` is `autofeat-obs`'s tracer and span path,
//! whose cell stays in that crate (the scoring kernels trace without
//! depending on this one) and is entered together with the rest.
//!
//! A request builds its scope once and [`enter`](RequestScope::enter)s it;
//! the fan-out ([`crate::parallel`]) [`capture`](RequestScope::capture)s the
//! caller's and enters it around each worker's items, so a shared pool
//! thread serves one request's item and then another's with nothing carried
//! over. With no scope entered every read is one thread-local access.

use std::cell::RefCell;
use std::sync::Arc;

use autofeat_obs::TraceScope;

use crate::cache::CacheRecorder;
use crate::control::RunControl;
use crate::faults::FaultDomain;

/// The part of a scope that lives in this crate's cell.
#[derive(Clone)]
pub(crate) struct Current {
    pub(crate) ctl: Option<Arc<RunControl>>,
    pub(crate) recorder: Option<Arc<CacheRecorder>>,
    pub(crate) faults: Option<Arc<FaultDomain>>,
}

thread_local! {
    static CURRENT: RefCell<Current> = const {
        RefCell::new(Current { ctl: None, recorder: None, faults: None })
    };
}

/// Read the calling thread's scope.
pub(crate) fn with_current<R>(f: impl FnOnce(&Current) -> R) -> R {
    CURRENT.with(|c| f(&c.borrow()))
}

/// One request's ambient state (see the module docs). A field left `None`
/// masks the enclosing scope's value, it does not inherit it: start from
/// [`RequestScope::capture`] to inherit.
#[derive(Clone)]
pub struct RequestScope {
    /// The run's lifecycle control.
    pub ctl: Option<Arc<RunControl>>,
    /// The request's cache-activity recorder.
    pub recorder: Option<Arc<CacheRecorder>>,
    /// The lake's fault domain.
    pub faults: Option<Arc<FaultDomain>>,
    /// The tracer and span path.
    pub trace: TraceScope,
}

impl RequestScope {
    /// The scope the calling thread is running under right now.
    pub fn capture() -> RequestScope {
        let Current { ctl, recorder, faults } = with_current(Current::clone);
        RequestScope { ctl, recorder, faults, trace: autofeat_obs::ambient_scope() }
    }

    /// The calling thread's scope with `ctl` as its control: what a stage
    /// that owns a control but no request (training, the baselines) enters.
    pub fn with_ctl(ctl: &Arc<RunControl>) -> RequestScope {
        RequestScope { ctl: Some(Arc::clone(ctl)), ..RequestScope::capture() }
    }

    /// Make this the current thread's scope until the guard drops (also on
    /// panic), when the previous one is restored.
    pub fn enter(&self) -> ScopeGuard {
        let trace = self.trace.enter();
        let current = Current {
            ctl: self.ctl.clone(),
            recorder: self.recorder.clone(),
            faults: self.faults.clone(),
        };
        let prev = CURRENT.with(|c| c.replace(current));
        ScopeGuard { prev: Some(prev), _trace: trace }
    }
}

/// RAII guard from [`RequestScope::enter`].
pub struct ScopeGuard {
    prev: Option<Current>,
    _trace: autofeat_obs::ScopeGuard,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{ambient_interrupted, Interrupt};

    #[test]
    fn enter_restores_and_an_inner_none_masks() {
        assert_eq!(ambient_interrupted(), None, "no scope = never interrupted");
        let ctl = Arc::new(RunControl::new());
        {
            let _g = RequestScope::with_ctl(&ctl).enter();
            assert!(RequestScope::capture().ctl.is_some());
            assert_eq!(ambient_interrupted(), None);
            ctl.cancel();
            assert_eq!(ambient_interrupted(), Some(Interrupt::Cancelled));
            {
                let _inner = RequestScope { ctl: None, ..RequestScope::capture() }.enter();
                assert_eq!(ambient_interrupted(), None, "inner scope masks");
            }
            assert_eq!(ambient_interrupted(), Some(Interrupt::Cancelled), "restored");
        }
        assert!(RequestScope::capture().ctl.is_none(), "outer guard restored");
    }

    #[test]
    fn with_ctl_keeps_the_rest_of_the_callers_scope() {
        let rec = CacheRecorder::new();
        let dom = FaultDomain::new();
        let outer = RequestScope {
            recorder: Some(Arc::clone(&rec)),
            faults: Some(Arc::clone(&dom)),
            ..RequestScope::capture()
        };
        let _g = outer.enter();
        let _h = RequestScope::with_ctl(&Arc::new(RunControl::new())).enter();
        let seen = RequestScope::capture();
        assert!(seen.ctl.is_some());
        assert!(seen.recorder.is_some_and(|r| Arc::ptr_eq(&r, &rec)));
        assert!(seen.faults.is_some_and(|d| Arc::ptr_eq(&d, &dom)));
    }

    #[test]
    fn the_trace_scope_is_entered_with_the_rest() {
        let tracer = autofeat_obs::Tracer::enabled();
        let scope = autofeat_obs::with_tracer(&tracer, || {
            let _s = autofeat_obs::span("phase");
            RequestScope::capture()
        });
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = scope.enter();
                autofeat_obs::incr("scope.items");
                assert_eq!(autofeat_obs::current_span_path(), "phase");
            });
        });
        assert_eq!(tracer.snapshot().counter("scope.items"), Some(1));
    }
}
