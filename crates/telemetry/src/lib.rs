//! Zero-dependency telemetry substrate shared by every layer of the LSVD
//! stack.
//!
//! The paper's evaluation (§4, Figures 6–16) is built entirely on
//! observables — per-op latency distributions, backend object-write load,
//! write amplification, GC backlog — and a log-structured write path can
//! only be tuned if those are visible *while it runs*. This crate provides
//! the three pillars the rest of the workspace wires through its hot
//! paths:
//!
//! - [`Summary`] / [`LatencyRecorder`] — the log-bucket percentile sketch
//!   (promoted from the simulation plane) and its shared, lock-cheap
//!   recorder form, used for client ops, object-store ops and writeback
//!   PUT queue-wait/service splits;
//! - [`SpanRing`] — the one event model: typed [`Span`]s, one
//!   vocabulary ([`Stage`]) for request hops and pipeline lifecycle edges
//!   (seal, PUT, frontier advance, checkpoint, GC, trim, connections),
//!   which feeds the crash hook, the tests, `/trace` ([`http`]) and the
//!   crash black box ([`blackbox`]);
//! - [`TelemetrySnapshot`] — the aggregate exporter: every recorder plus
//!   derived paper-figure observables (write amplification, backend
//!   objects/s, pipeline occupancy, frontier lag, GC dead-space ratio),
//!   serialized to JSON ([`TelemetrySnapshot::to_json`]) and
//!   Prometheus-style text ([`TelemetrySnapshot::to_prometheus`]) with no
//!   external dependencies. Each metric is one row of a single table in
//!   [`snapshot`] (name, type, fleet merge rule, Prometheus kind and
//!   family, HELP text), from which the section structs, the JSON codec,
//!   the fleet merge ([`TelemetrySnapshot::absorb`]), the exposition and
//!   the report ([`TelemetrySnapshot::report`]) are all generated.
//!
//! The crate deliberately depends on nothing (not even the workspace's
//! vendored stubs) so that any layer — `objstore` middleware, the volume,
//! the sim plane, benches, the CLI — can use it without dependency cycles.

pub mod blackbox;
pub mod http;
pub mod json;
pub mod recorder;
pub mod serving;
pub mod sketch;
pub mod snapshot;
pub mod span;

pub use blackbox::{render_blackbox, FlightRecorder, RingsFn, BLACKBOX_SCHEMA};
pub use http::{MetricsServer, SnapshotFn, TraceFn};
pub use json::Json;
pub use recorder::{LatencyRecorder, LatencySnapshot};
pub use serving::ServingRecorders;
pub use sketch::Summary;
pub use snapshot::{
    BackendOps, CacheTelemetry, ClientOps, DataPlaneTelemetry, DerivedTelemetry,
    ReadPlaneTelemetry, RetryTelemetry, ServingTelemetry, SpaceTelemetry, SpanTelemetry,
    TelemetrySnapshot, TenantTelemetry, TraceTelemetry, WritebackTelemetry, SCHEMA,
};
pub use span::{OpenSpan, Span, SpanRing, Stage, EDGE_CAPACITY};
