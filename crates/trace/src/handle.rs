//! Shared ownership of trace data.
//!
//! [`TraceHandle`] wraps an `Arc<TraceSet>` so long-lived hosts (the
//! engine, the adaptive runner, the serve daemon's market registry) can
//! own their price history without a borrow lifetime, while call sites
//! that hold a plain [`TraceSet`] keep working unchanged: every
//! constructor that used to take `&TraceSet` now takes
//! `impl Into<TraceHandle>`, and the `From<&TraceSet>` impl below makes
//! the old call shape compile. Converting from a reference clones the
//! set — O(zones), not O(samples), because each zone's samples and
//! change-point index already live behind their own `Arc` (see
//! [`crate::PriceSeries`]).

use crate::TraceSet;
use std::ops::Deref;
use std::sync::Arc;

/// Shared, immutable ownership of a [`TraceSet`].
///
/// Derefs to [`TraceSet`], so every `&TraceSet` API works through the
/// handle. Cloning is an `Arc` bump.
#[derive(Debug, Clone)]
pub struct TraceHandle(Arc<TraceSet>);

impl TraceHandle {
    /// Take ownership of a trace set.
    pub fn new(traces: TraceSet) -> TraceHandle {
        TraceHandle(Arc::new(traces))
    }

    /// Whether two handles share the same allocation. Cheaper than `==`
    /// (which falls back to comparing the sets when the pointers differ).
    pub fn ptr_eq(&self, other: &TraceHandle) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for TraceHandle {
    type Target = TraceSet;
    fn deref(&self) -> &TraceSet {
        &self.0
    }
}

impl AsRef<TraceSet> for TraceHandle {
    fn as_ref(&self) -> &TraceSet {
        &self.0
    }
}

impl From<TraceSet> for TraceHandle {
    fn from(t: TraceSet) -> TraceHandle {
        TraceHandle::new(t)
    }
}

/// Clones the set into a new handle. The clone shares every zone's
/// samples and change-point index with `t`, but the set and the handle
/// are new allocations: the handle is [`ptr_eq`](TraceHandle::ptr_eq) to
/// no other, so code that holds a handle already should pass that (or a
/// clone of it) instead.
impl From<&TraceSet> for TraceHandle {
    fn from(t: &TraceSet) -> TraceHandle {
        TraceHandle::new(t.clone())
    }
}

impl From<Arc<TraceSet>> for TraceHandle {
    fn from(t: Arc<TraceSet>) -> TraceHandle {
        TraceHandle(t)
    }
}

impl From<&TraceHandle> for TraceHandle {
    fn from(h: &TraceHandle) -> TraceHandle {
        h.clone()
    }
}

/// Handles compare by contents (pointer equality is a fast path), so two
/// independently-built handles over equal trace data are equal — the
/// contract [`crate::TraceSet`] itself has.
impl PartialEq for TraceHandle {
    fn eq(&self, other: &TraceHandle) -> bool {
        self.ptr_eq(other) || *self.0 == *other.0
    }
}

impl Eq for TraceHandle {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Price, PriceSeries, SimTime};

    fn set() -> TraceSet {
        TraceSet::new(vec![PriceSeries::new(
            SimTime::ZERO,
            vec![Price::from_millis(100), Price::from_millis(200)],
        )])
    }

    #[test]
    fn handle_derefs_and_compares_by_contents() {
        let a = TraceHandle::from(set());
        let b = TraceHandle::from(&set());
        assert!(!a.ptr_eq(&b));
        assert_eq!(a, b);
        assert_eq!(a.n_zones(), 1);
        let c = a.clone();
        assert!(a.ptr_eq(&c));
    }
}
