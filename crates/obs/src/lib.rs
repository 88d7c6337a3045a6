//! Dependency-free observability for the satverify workspace.
//!
//! Three pieces, all built on `std` alone:
//!
//! * [`span`] — lightweight named timing spans ([`span!`]) routed to a
//!   pluggable [`span::Subscriber`]. When no subscriber is installed
//!   (the default), entering a span is a single relaxed atomic load and
//!   no timestamp is taken, so instrumented hot paths cost nothing
//!   measurable.
//! * [`metrics`] — a process-global registry of named counters, gauges,
//!   and fixed-bucket histograms. All mutation is atomic, so solver and
//!   verifier worker threads can record concurrently without locks.
//! * [`json`] — an escaping-correct JSON writer (and a small strict
//!   parser used by tests and tooling) for serialising run reports
//!   without pulling in serde.
//! * [`eventlog`] — a buffered, thread-safe JSONL writer for structured
//!   access logs (one complete JSON document per line).
//! * [`prometheus`] — text exposition of a [`MetricsSnapshot`] in the
//!   format metrics scrapers expect.
//! * [`fnv1a`] — the 64-bit FNV-1a hash behind every fingerprint in the
//!   workspace.
//!
//! The crate deliberately has **zero external dependencies**: it must be
//! buildable in fully offline environments and addable to any crate in
//! the workspace without widening the dependency tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eventlog;
mod fnv;
pub mod json;
pub mod metrics;
pub mod prometheus;
pub mod span;

pub use eventlog::EventLog;
pub use fnv::{fnv1a, FNV1A_OFFSET};
pub use json::Json;
pub use metrics::{counter, gauge, histogram, registry_snapshot, MetricsSnapshot};
pub use span::{
    install_subscriber, spans_enabled, take_collected, CollectingSubscriber, Span,
    SpanSummary, Subscriber,
};
