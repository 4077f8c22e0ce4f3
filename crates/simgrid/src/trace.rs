//! Lightweight event tracing for experiments and debugging.
//!
//! Components record [`TraceEvent`]s into a shared [`Tracer`]; experiment
//! harnesses query or dump them to explain *why* an allocation came out the
//! way it did (which hosts answered NOK, which reservations were cancelled,
//! which peers were marked dead, …).
//!
//! ## Lazy-recording contract
//!
//! [`Tracer::record`] takes the message as a **closure**
//! (`impl FnOnce() -> String`), not a `String`.  The contract every call
//! site relies on:
//!
//! * When the tracer is **disabled**, `record` costs exactly one relaxed
//!   atomic load and one branch.  The closure is *never* invoked — no
//!   `format!`, no allocation, no mutex.
//! * When it is enabled, the closure is invoked exactly once, under the
//!   buffer lock, and every event is kept.
//!
//! Consequently message closures must be cheap to *construct* (capture a few
//! references) and side-effect free: whether they run at all depends on the
//! tracer state.  Write call sites as
//! `tracer.record(now, category, || format!(...))`.

use crate::time::SimTime;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Category of a trace event, used for filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCategory {
    /// Overlay membership: registrations, alive signals, cache refreshes.
    Membership,
    /// Latency probing.
    Probe,
    /// Reservation protocol (booking, OK/NOK, cancellation).
    Reservation,
    /// Process-to-host allocation decisions.
    Allocation,
    /// MPI runtime events (launch, completion, failures).
    Runtime,
    /// Fault injection (churn, crashes).
    Fault,
}

impl fmt::Display for TraceCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceCategory::Membership => "membership",
            TraceCategory::Probe => "probe",
            TraceCategory::Reservation => "reservation",
            TraceCategory::Allocation => "allocation",
            TraceCategory::Runtime => "runtime",
            TraceCategory::Fault => "fault",
        };
        f.write_str(s)
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Virtual time at which the event occurred.
    pub time: SimTime,
    /// Category for filtering.
    pub(crate) category: TraceCategory,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}] {}", self.time, self.category, self.message)
    }
}

/// Thread-safe, clonable event recorder.
///
/// Cloning a `Tracer` yields a handle onto the same underlying buffer.
#[derive(Clone)]
pub struct Tracer {
    shared: Arc<TracerShared>,
}

struct TracerShared {
    /// Read on every `record` without taking the lock; the disabled fast
    /// path is a single relaxed load.
    enabled: AtomicBool,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    fn with_state(enabled: bool) -> Self {
        Tracer {
            shared: Arc::new(TracerShared {
                enabled: AtomicBool::new(enabled),
                events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Creates a tracer that keeps every event.
    pub fn new() -> Self {
        Self::with_state(true)
    }

    /// Creates a tracer that records nothing (cheap to pass around when
    /// tracing is not wanted, e.g. inside timed benchmark loops): `record`
    /// costs one branch and never runs the message closure.
    pub fn disabled() -> Self {
        Self::with_state(false)
    }

    /// True if this tracer currently records events.
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Switches recording on or off at runtime (affects every clone).
    pub fn set_enabled(&self, enabled: bool) {
        self.shared.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Records an event.  The message closure runs only if the tracer is
    /// enabled — see the module docs for the full contract.
    pub fn record<F: FnOnce() -> String>(
        &self,
        time: SimTime,
        category: TraceCategory,
        message: F,
    ) {
        if !self.shared.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut events = self.shared.events.lock();
        let message = message();
        events.push(TraceEvent {
            time,
            category,
            message,
        });
    }

    /// Number of recorded events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.shared.events.lock().len()
    }

    /// True if nothing has been recorded.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all recorded events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.shared.events.lock().clone()
    }

    /// Snapshot of the events of one category.
    pub fn events_in(&self, category: TraceCategory) -> Vec<TraceEvent> {
        self.shared
            .events
            .lock()
            .iter()
            .filter(|e| e.category == category)
            .cloned()
            .collect()
    }

    /// Number of events in one category.
    pub fn count(&self, category: TraceCategory) -> usize {
        self.shared
            .events
            .lock()
            .iter()
            .filter(|e| e.category == category)
            .count()
    }

    /// Clears the buffer (keeps the enabled flag).
    pub fn clear(&self) {
        self.shared.events.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_filters() {
        let t = Tracer::new();
        t.record(SimTime::from_secs(1), TraceCategory::Probe, || {
            "ping lyon".to_string()
        });
        t.record(SimTime::from_secs(2), TraceCategory::Reservation, || {
            "book 10".to_string()
        });
        t.record(SimTime::from_secs(3), TraceCategory::Probe, || {
            "ping rennes".to_string()
        });
        assert_eq!(t.len(), 3);
        assert_eq!(t.count(TraceCategory::Probe), 2);
        assert_eq!(t.events_in(TraceCategory::Reservation).len(), 1);
        assert!(!t.is_empty());
        let shown = format!("{}", t.events()[0]);
        assert!(shown.contains("probe") && shown.contains("ping lyon"));
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.record(SimTime::ZERO, TraceCategory::Fault, || "crash".into());
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn disabled_tracer_never_runs_the_closure() {
        let t = Tracer::disabled();
        let mut ran = false;
        t.record(SimTime::ZERO, TraceCategory::Runtime, || {
            ran = true;
            String::new()
        });
        assert!(!ran, "message closure ran on a disabled tracer");
    }

    #[test]
    fn enable_toggle_affects_all_clones() {
        let t = Tracer::new();
        let t2 = t.clone();
        t2.set_enabled(false);
        t.record(SimTime::ZERO, TraceCategory::Runtime, || "lost".into());
        assert!(t.is_empty());
        t2.set_enabled(true);
        t.record(SimTime::ZERO, TraceCategory::Runtime, || "kept".into());
        assert_eq!(t2.len(), 1);
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = Tracer::new();
        let t2 = t.clone();
        t2.record(SimTime::ZERO, TraceCategory::Runtime, || "start".into());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn category_display_names() {
        assert_eq!(TraceCategory::Membership.to_string(), "membership");
        assert_eq!(TraceCategory::Allocation.to_string(), "allocation");
        assert_eq!(TraceCategory::Fault.to_string(), "fault");
    }
}
