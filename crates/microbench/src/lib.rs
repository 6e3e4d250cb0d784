//! # microbench — machine-parameter calibration tools
//!
//! The paper derives its machine-dependent parameter vector
//! `Mach(f, BW) = (tc, tm, ts, tw, ΔP…)` by *measurement*: a Perfmon-based
//! tool for `tc = CPI/f`, LMbench's `lat_mem_rd` for `tm`, MPPTest for
//! `ts`/`tw`, and PowerPack for the component powers (§IV.B). This crate
//! reproduces that methodology against the simulator:
//!
//! * [`perfmon`] — runs an instruction-mix microkernel and reports the
//!   observed time-per-instruction and CPI.
//! * [`lmbench`] — a pointer-chase latency sweep over working-set sizes;
//!   reports the latency staircase and the DRAM plateau `tm`.
//! * [`mpptest`](mod@mpptest) — ping-pong round trips over message sizes; least-squares
//!   fits the Hockney `ts`/`tw`.
//! * [`powercal`] — differential power measurement: loaded vs. idle runs
//!   give each component's active delta (`ΔPc`, `ΔPm`).
//! * [`fit`] — the shared least-squares line fitter.
//!
//! Because the simulator's true parameters are known, every tool doubles as
//! an end-to-end validation that the measurement pipeline is unbiased — the
//! recovered values must match the configured ones (tests assert this).

#![forbid(unsafe_code)]

pub mod fit;
pub mod lmbench;
pub mod mpptest;
pub mod perfmon;
pub mod powercal;

pub use fit::LineFit;
pub use lmbench::{lat_mem_rd, MemLatencyPoint};
pub use mpptest::{mpptest, HockneyFit};
pub use perfmon::{perfmon_cpi, CpiMeasurement};
pub use powercal::{power_deltas, PowerDeltas};
