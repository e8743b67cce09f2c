//! # hermes-telemetry — run-time-installed tracing and metrics
//!
//! A structured observation layer for the Hermes reproduction: typed
//! trace records ([`Record`]) covering path-state sensing, placement
//! decisions, fabric marks/drops and transport window dynamics; a
//! bounded ring-buffer sink stamping records with `(sim time, seq)`;
//! a metrics registry (counters, gauges, fixed-bucket histograms)
//! snapshotted on a configurable sim-time cadence; and deterministic
//! JSONL/CSV exporters.
//!
//! Two properties are load-bearing (DESIGN.md §12):
//!
//! * **Inert until installed.** The layer is always compiled in; no
//!   sink exists until [`install`] puts one on the current thread.
//!   Until then [`enabled`] is `false`, every guarded instrumentation
//!   site costs one thread-local read, and no record is built.
//! * **Digest neutrality when installed.** The sink observes; it never
//!   schedules events, consumes randomness, or feeds back into
//!   simulation state. A run with a sink installed produces the same
//!   `hermes-net::audit` event-trace digest as one without (enforced
//!   by `tests/telemetry.rs` against the conformance goldens).

mod export;
mod metrics;
mod record;
mod sink;

pub use export::{event_to_json, to_csv, to_jsonl};
pub use metrics::{Histogram, Metrics, MetricsRow, FCT_EDGES_US};
pub use record::{DropReason, PathClass, Record, RerouteVerdict, TraceEvent};
pub use sink::{
    counter, counter_add, drain, dropped, emit_with, enabled, gauge_set, hist, hist_observe,
    install, on_cadence, sample_metrics, take_metric_rows, uninstall, SinkConfig,
};
