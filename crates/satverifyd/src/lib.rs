//! `satverifyd` — proof verification as a long-lived service.
//!
//! The paper's argument is that UNSAT answers should be certified by an
//! *independent, trusted* checker. At production scale that checker is
//! not a one-shot CLI but shared infrastructure: many solvers submit
//! (formula, proof) pairs, and checking throughput — not solving — is
//! the bottleneck. This crate provides the serving layer on top of the
//! fault-tolerant runtime from [`proofver`]:
//!
//! * a newline-delimited JSON protocol over TCP or Unix sockets
//!   ([`protocol`], spec in `docs/PROTOCOL.md`);
//! * a bounded job queue with **admission control** — a full queue
//!   answers `overloaded` immediately instead of buffering without
//!   bound ([`queue`]);
//! * **fair scheduling** across client connections (round-robin over
//!   per-client FIFO queues), so one chatty client cannot starve the
//!   rest;
//! * per-job [`proofver::Budget`] / deadline enforcement, and
//!   cooperative **cancellation** when the submitting client
//!   disconnects ([`proofver::CancelToken`]);
//! * a `stats` request wired to the [`obs`] metrics registry: queue
//!   depth, jobs in flight, outcome counters, latency histograms with
//!   µs percentile summaries (queue wait, verify time, end-to-end);
//! * an optional JSONL job-lifecycle **event log** ([`obs::EventLog`])
//!   tracing every submission from `received` to exactly one terminal
//!   disposition, and a `metrics` request answering with the registry
//!   in Prometheus text exposition (schema in `docs/OBSERVABILITY.md`);
//! * **graceful drain**: a `shutdown` request (or
//!   [`ServerHandle::shutdown`]) stops admissions, finishes queued and
//!   in-flight jobs, and exits cleanly;
//! * a **content-addressed verdict cache** ([`cache`]) — a byte-budget
//!   LRU keyed on the full job content, with single-flight coalescing
//!   of identical in-flight jobs: a hit is byte-identical to a fresh
//!   verdict, still counts exactly one disposition, and lands in its
//!   own `cache_hit` latency series;
//! * an additive **`batch` op** submitting many jobs in one line with
//!   all-or-nothing validation and per-job completion-order responses;
//! * **readiness-driven I/O** (`server::reactor`, on unix): one thread
//!   `poll(2)`s every connection, so idle clients cost buffers instead
//!   of parked threads — other platforms use thread-per-connection;
//! * a **sharding front tier** ([`router`], CLI `satverify route`)
//!   hashing jobs by formula content to a static backend pool, with
//!   health probing and drain/EOF failover so no submission loses its
//!   disposition.
//!
//! The verdict taxonomy is exactly the CLI's: `verified`, `rejected`,
//! or `exhausted` — a job that ran out of budget is *never* reported as
//! either verdict.
//!
//! # Example
//!
//! ```
//! use satverifyd::{Client, Endpoint, Request, Response, Server, ServerConfig};
//!
//! let handle = Server::bind(&Endpoint::tcp("127.0.0.1:0"), ServerConfig::default())?;
//! let mut client = Client::connect(&handle.local_endpoint())?;
//! let response = client.request(&Request::verify_inline(
//!     "p cnf 2 4\n1 2 0\n-1 -2 0\n1 -2 0\n-1 2 0\n",
//!     "2 0\n-2 0\n0\n",
//! ))?;
//! assert!(matches!(response, Response::Result(r) if r.outcome == "verified"));
//! handle.shutdown();
//! handle.join();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod job;
pub mod net;
pub mod protocol;
pub mod queue;
pub mod router;
pub mod server;
pub mod stats;

pub use cache::{CacheConfig, CacheKey, VerdictCache, DEFAULT_CACHE_BYTES};
pub use client::{Client, RetryPolicy};
pub use net::Endpoint;
pub use protocol::{
    BudgetSpec, ErrorCode, JobResult, LatencySummary, Request, Response,
    StatsReply, VerifyRequest, PROTOCOL_VERSION,
};
pub use queue::{JobQueue, PushError};
pub use router::{Router, RouterConfig, RouterHandle};
pub use server::{
    DrainTrigger, FaultFactory, Server, ServerConfig, ServerHandle,
};
pub use stats::{ServerStats, StatsSnapshot};
