//! # obs — unified observability for the simulator stack
//!
//! The paper's methodology rests on *seeing* where time and energy go:
//! PowerPack power traces synchronized with application phases (Fig. 10)
//! and Perfmon/TAU counters feeding the `Mach`/`Appl` vectors. This crate
//! is the software analog of that instrumentation discipline, shared by
//! every crate in the workspace:
//!
//! * [`span`] — a zero-dependency structured tracing core: per-track span
//!   stacks with virtual-time **and** host wall-time timestamps, typed
//!   fields reusing [`simcluster::units`], and instant events.
//! * [`trace`] — the assembled [`Trace`] of a run: one track per rank,
//!   counter tracks (e.g. PowerPack power samples), run metadata.
//! * [`perfetto`] — Chrome trace-event JSON export; any run opens in
//!   `ui.perfetto.dev` with one track per rank and compute/memory/net/idle
//!   phases as nested slices. The same module writes a trace as JSON
//!   Lines.
//! * [`metrics`] — a registry of counters, gauges and log-bucketed
//!   histograms, all lock-free atomics on the hot path, snapshotted as
//!   text or JSON.
//! * [`profile`] — a critical-path profiler that replays a run's
//!   happens-before graph (message matching + binding waits) and reports
//!   the rank-to-rank critical path, per-span slack, and the top-k spans
//!   by virtual time and by energy.
//! * [`json`] — a minimal JSON parser used by the trace validator (the
//!   workspace builds offline with zero external dependencies).
//!
//! The consumer-facing switch is [`ObsConfig`]: disabled tracing costs a
//! single branch per event in the `mps` runtime.

#![forbid(unsafe_code)]

pub mod config;
pub mod diff;
pub mod flight;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod profile;
pub mod span;
pub mod timeline;
pub mod trace;

pub use config::ObsConfig;
pub use hist::{HistSnapshot, LogHistogram};
pub use metrics::{global, Counter, Gauge, Registry};
pub use span::{Category, EventRecord, FieldValue, SpanRecord, TrackRecorder};
pub use timeline::Timeline;
pub use trace::{CounterTrack, Trace, TrackTrace};
