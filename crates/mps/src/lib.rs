//! # mps — a simulated message-passing substrate
//!
//! An MPI-like programming model whose *data* really moves (ranks are
//! threads, messages are typed payloads over channels) but whose *time* is
//! virtual: every rank carries a [`simcluster::VirtualClock`] advanced by
//! explicit work charges (compute instructions, memory accesses) and by
//! Hockney-model message costs. This is the execution substrate for the NPB
//! kernels, standing in for MPICH2-over-InfiniBand/Ethernet on the paper's
//! clusters.
//!
//! ## Programming model
//!
//! ```
//! use mps::{World, run};
//! use simcluster::system_g;
//!
//! let world = World::new(system_g(), 2.8e9);
//! let report = run(&world, 4, |ctx| {
//!     ctx.compute(1e6);                       // 1e6 on-chip instructions
//!     ctx.mem_access(1e4, 1 << 20);           // 1e4 accesses, 1 MiB working set
//!     let sum = ctx.allreduce_sum(&[ctx.rank() as f64]);
//!     sum[0]
//! });
//! assert!(report.ranks.iter().all(|r| r.result == 6.0)); // 0+1+2+3
//! ```
//!
//! The returned [`RunReport`] carries, per rank, the workload counters the
//! paper measures with Perfmon/TAU (`Wc`, `Wm`, `M`, `B`), the typed
//! activity log ([`simcluster::SegmentLog`]) the energy meter and PowerPack
//! analog consume, and the rank's finish time.
//!
//! ## Timing protocol
//!
//! * Eager sends: the sender's NIC is busy for the full Hockney time
//!   `ts + tw·bytes` (inflated by [`netsim::ContentionModel`] during
//!   collectives); the message *arrives* at `send_start + t_net`.
//! * A receiver blocked before the arrival logs a `Wait` segment — waits are
//!   idle power only, never squeezed by the overlap factor.
//! * The overlap factor `α` (paper §VI.F) squeezes the wall duration of
//!   work segments while leaving device-busy time intact, matching the
//!   paper's treatment in Eqs. 6/13/15.
//!
//! Simulations are deterministic: each rank's virtual clock depends only on
//! its own program order and received timestamps (a conservative parallel
//! discrete-event scheme), never on host scheduling.

#![forbid(unsafe_code)]

pub mod algo;
mod collect;
mod ctx;
mod envelope;
mod rankcore;
mod registry;
mod runtime;
pub mod sched;
mod stats;
pub mod trace;
mod world;

pub use collect::ReduceOp;
pub use ctx::Ctx;
pub use envelope::{internal_tag, MAX_COLL_SEQ};
pub use rankcore::{Charge, CollScope, FinishedRank, RankCore};
pub use runtime::{run, try_run, RankOutcome, RunReport};
pub use sched::{SchedGrant, SchedOp, SchedulerHook};
pub use stats::Counters;
pub use trace::{CommEvent, CommLog, CommOp, DeadlockInfo, RunError, WaitEdge, USER_TAG_LIMIT};
pub use world::World;
