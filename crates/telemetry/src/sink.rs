//! The trace sink: a bounded ring buffer of [`TraceEvent`]s plus the
//! metrics registry, installed per thread.
//!
//! # Determinism contract (DESIGN.md §12)
//!
//! The sink is an *observer*: it never schedules events, never touches
//! any RNG, and never influences control flow in the instrumented
//! crates. Records are stamped with sim time and a monotonically
//! increasing per-sink sequence number assigned in dispatch order, so
//! a `(config, seed)` pair maps to exactly one byte sequence of
//! exported JSONL. There is deliberately no wall-clock anywhere in
//! this crate — the xtask determinism lint covers it like every other
//! sim-facing crate.
//!
//! # Installed at run time
//!
//! The layer is always compiled; it does nothing until [`install`] puts
//! a sink on the current thread. Instrumentation guarded by
//! `if hermes_telemetry::enabled()` costs one thread-local read when no
//! sink is installed, and `emit_with` never constructs its record
//! closure. The sink is thread-local so the testkit's multi-threaded
//! scenario grid keeps per-cell traces independent.

use std::cell::RefCell;
use std::collections::VecDeque;

use hermes_sim::Time;

use crate::metrics::{Histogram, Metrics, MetricsRow};
use crate::record::{Record, TraceEvent};

/// Sink configuration.
#[derive(Clone, Copy, Debug)]
pub struct SinkConfig {
    /// Ring capacity in events; the oldest events are dropped (and
    /// counted) once the buffer is full.
    pub capacity: usize,
    /// Sim-time cadence for metrics snapshots and queue sampling.
    pub metrics_cadence: Time,
}

impl Default for SinkConfig {
    fn default() -> SinkConfig {
        SinkConfig {
            capacity: 1 << 20,
            metrics_cadence: Time::from_ms(1),
        }
    }
}

struct SinkState {
    cfg: SinkConfig,
    ring: VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
    next_cadence: Time,
    metrics: Metrics,
}

thread_local! {
    static SINK: RefCell<Option<SinkState>> = const { RefCell::new(None) };
}

/// Install a fresh sink on this thread, replacing any previous one.
pub fn install(cfg: SinkConfig) {
    SINK.with(|s| {
        *s.borrow_mut() = Some(SinkState {
            cfg,
            ring: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
            next_cadence: Time::ZERO,
            metrics: Metrics::default(),
        });
    });
}

/// Remove this thread's sink, discarding buffered events.
pub fn uninstall() {
    SINK.with(|s| *s.borrow_mut() = None);
}

/// Whether a sink is installed on this thread. Every instrumentation
/// site guards on this, so an uninstalled run pays one thread-local
/// read per site and builds no records.
#[inline(always)]
pub fn enabled() -> bool {
    SINK.with(|s| s.borrow().is_some())
}

/// Emit one record stamped `at`; the closure is only evaluated when a
/// sink is installed, so record construction costs nothing otherwise.
#[inline]
pub fn emit_with<F: FnOnce() -> Record>(at: Time, f: F) {
    if enabled() {
        emit(at, f());
    }
}

fn emit(at: Time, record: Record) {
    SINK.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            if st.ring.len() >= st.cfg.capacity {
                st.ring.pop_front();
                st.dropped += 1;
            }
            let seq = st.next_seq;
            st.next_seq += 1;
            st.ring.push_back(TraceEvent { seq, at, record });
        }
    });
}

/// Lazy cadence check: true when `now` reached the next metrics
/// boundary (which is then advanced past `now`). The sink never
/// schedules its own events — the runtime asks this question on its
/// existing dispatch path instead, keeping the event stream (and thus
/// the trace digest) identical to an uninstrumented run.
pub fn on_cadence(now: Time) -> bool {
    SINK.with(|s| {
        let mut b = s.borrow_mut();
        let Some(st) = b.as_mut() else { return false };
        if now < st.next_cadence {
            return false;
        }
        // Advance to the first boundary strictly past `now` without
        // looping per elapsed period (faults can idle the clock).
        let period = st.cfg.metrics_cadence.as_ns().max(1);
        let next = (now.as_ns() / period + 1) * period;
        st.next_cadence = Time::from_ns(next);
        true
    })
}

fn with_metrics<R>(f: impl FnOnce(&mut Metrics) -> R) -> Option<R> {
    SINK.with(|s| s.borrow_mut().as_mut().map(|st| f(&mut st.metrics)))
}

/// Add `v` to a named counter.
pub fn counter_add(name: &'static str, v: u64) {
    with_metrics(|m| m.counter_add(name, v));
}

/// Set a named gauge.
pub fn gauge_set(name: &'static str, v: f64) {
    with_metrics(|m| m.gauge_set(name, v));
}

/// Observe `v` in a named fixed-bucket histogram (created with `edges`
/// on first use).
pub fn hist_observe(name: &'static str, edges: &'static [f64], v: f64) {
    with_metrics(|m| m.hist_observe(name, edges, v));
}

/// Snapshot all metrics into the sampled time series at `now`.
pub fn sample_metrics(now: Time) {
    with_metrics(|m| m.sample(now));
}

/// Take every buffered trace event (oldest first), leaving the sink
/// installed. Empty when no sink is installed.
pub fn drain() -> Vec<TraceEvent> {
    SINK.with(|s| {
        s.borrow_mut()
            .as_mut()
            .map(|st| st.ring.drain(..).collect())
            .unwrap_or_default()
    })
}

/// Take the cadence-sampled metrics rows accumulated so far.
pub fn take_metric_rows() -> Vec<MetricsRow> {
    with_metrics(Metrics::take_rows).unwrap_or_default()
}

/// Events dropped because the ring was full.
pub fn dropped() -> u64 {
    SINK.with(|s| s.borrow().as_ref().map_or(0, |st| st.dropped))
}

/// Read a live counter value (testing/inspection).
pub fn counter(name: &'static str) -> u64 {
    with_metrics(|m| m.counter(name)).unwrap_or(0)
}

/// Clone a live histogram (testing/inspection).
pub fn hist(name: &'static str) -> Option<Histogram> {
    with_metrics(|m| m.hist(name).cloned()).flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{PathClass, Record};

    fn sample_record() -> Record {
        Record::PathTransition {
            leaf: 0,
            dst_leaf: 3,
            path: 0,
            from: PathClass::Good,
            to: PathClass::Failed,
        }
    }

    #[test]
    fn uninstalled_sink_is_inert() {
        uninstall();
        assert!(!enabled());
        emit_with(Time::from_us(1), || panic!("closure ran without a sink"));
        counter_add("pkts", 1);
        hist_observe("fct", &[10.0], 1.0);
        sample_metrics(Time::from_ms(1));
        assert!(drain().is_empty());
        assert!(take_metric_rows().is_empty());
        assert!(!on_cadence(Time::from_secs(1)));
        assert_eq!(counter("pkts"), 0);
        assert!(hist("fct").is_none());
    }

    #[test]
    fn emit_is_seq_ordered_and_closure_lazy() {
        uninstall();
        // Not installed: the closure must not run.
        emit_with(Time::ZERO, || panic!("closure ran without a sink"));
        install(SinkConfig::default());
        assert!(enabled());
        emit_with(Time::from_us(5), sample_record);
        emit_with(Time::from_us(5), sample_record);
        let evs = drain();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].seq, evs[1].seq), (0, 1));
        assert_eq!(evs[0].at, Time::from_us(5));
        uninstall();
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        install(SinkConfig {
            capacity: 2,
            ..SinkConfig::default()
        });
        for i in 0..5u64 {
            emit_with(Time::from_us(i), sample_record);
        }
        let evs = drain();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].seq, evs[1].seq), (3, 4), "oldest dropped first");
        assert_eq!(dropped(), 3);
        uninstall();
    }

    #[test]
    fn cadence_fires_once_per_boundary() {
        install(SinkConfig {
            metrics_cadence: Time::from_ms(1),
            ..SinkConfig::default()
        });
        assert!(on_cadence(Time::ZERO), "first call fires at t=0");
        assert!(!on_cadence(Time::from_us(10)), "within the same period");
        assert!(!on_cadence(Time::from_us(999)));
        assert!(on_cadence(Time::from_ms(1)), "boundary reached");
        // A long idle gap fires once, not once per elapsed period.
        assert!(on_cadence(Time::from_ms(50)));
        assert!(!on_cadence(Time::from_ms(50)));
        assert!(on_cadence(Time::from_ms(51)));
        uninstall();
    }

    #[test]
    fn metrics_roundtrip_through_the_sink() {
        install(SinkConfig::default());
        counter_add("pkts", 2);
        counter_add("pkts", 3);
        gauge_set("goodput", 1.5);
        hist_observe("fct", &[10.0, 100.0], 7.0);
        assert_eq!(counter("pkts"), 5);
        assert_eq!(hist("fct").unwrap().counts(), &[1, 0, 0]);
        sample_metrics(Time::from_ms(2));
        let rows = take_metric_rows();
        assert!(rows.iter().any(|r| r.name == "pkts" && r.value == 5.0));
        assert!(take_metric_rows().is_empty(), "rows were taken");
        uninstall();
    }
}
