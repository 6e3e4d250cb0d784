//! # plan — a statically analyzable communication-plan IR
//!
//! A [`CommPlan`] describes a parallel kernel's communication skeleton as
//! one declarative op list parameterized over symbolic rank/size
//! expressions ([`Expr`]), so a *single* plan covers every world size `p`.
//! One interpreter, [`TimedCursor`], streams a rank's view of a plan at a
//! concrete `p` as [`Step`]s: resolved peers, tags and sizes, and the
//! exact message streams of [`mps`]'s collectives. The crate then offers
//! two consumers of the same IR:
//!
//! * **Static analysis** ([`analyze_plan`]) — without executing anything,
//!   drain every rank's cursor against the runtime's matching rules and
//!   decide matching/shape validity and deadlock freedom, with witnesses
//!   (wait-for cycles, unmatched ops, tag mismatches). Verdicts are exact
//!   for wildcard-free plans and explicitly conservative otherwise
//!   ([`PlanAnalysis::exact`]). A loop whose iterations repeat is
//!   interpreted once and its later iterations added exactly
//!   ([`PlanAnalysis::folded_iterations`]). The `isoee` crate's
//!   `plancost` module lowers an analysis to the iso-energy model's
//!   Eq. 13/15 terms as interval enclosures (it lives there, next to the
//!   model mirrors, to keep this crate's dependency footprint at `mps`
//!   alone).
//! * **Lowering** ([`lower`]) — compile the same plan onto the [`mps`]
//!   runtime, so dynamic runs (and the `verify` explorer) execute exactly
//!   the messages the statics reasoned about.
//!
//! The `simrt` event engine steps the same cursors on the same
//! [`Schedule`] — one run loop, one wildcard rule, one terminal wait-for
//! walk — to simulate thousands of ranks in one process.
//!
//! ```
//! use plan::{analyze_plan, CommPlan, Expr, Op, TagExpr};
//!
//! // Every rank sends right, receives from left — at any p.
//! let ring = CommPlan::new(
//!     "ring",
//!     vec![
//!         Op::Send {
//!             to: (Expr::Rank + Expr::Const(1)) % Expr::P,
//!             tag: TagExpr::Expr(Expr::Const(1)),
//!             bytes: Expr::Const(1024),
//!         },
//!         Op::Recv {
//!             from: (Expr::Rank + Expr::P - Expr::Const(1)) % Expr::P,
//!             tag: TagExpr::Expr(Expr::Const(1)),
//!         },
//!     ],
//! );
//! let analysis = analyze_plan(&ring, 1024);
//! assert!(analysis.deadlock_free());
//! assert_eq!(analysis.total.messages, 1024);
//! ```

#![forbid(unsafe_code)]

mod check;
mod coll;
mod expr;
mod ir;
mod lower;
mod sched;
mod symbolic;
mod timed;

pub use check::{
    analyze_plan, foldable_loops, FoldableLoop, InexactWitness, PlanAnalysis, PlanFinding,
    PlanWaitEdge, RankCost, ShapeIssue,
};
pub use coll::{CollKind, CollStats, COLL_KINDS};
pub use expr::{Axis, Cond, Env, EvalError, Expr, PeerProduct, Table};
pub use ir::{CommPlan, Op, TagExpr};
pub use lower::lower;
pub use sched::{Effects, Envelope, Load, Schedule, WaitFor};
pub use symbolic::{
    certify_plan, certify_plan_with, CountRange, Domain, Obligation, ParametricCert, SymCounts,
    SymFailure, DEFAULT_CUTOFF,
};
pub use timed::{Step, TimedCursor};
// Re-export the runtime op vocabulary plans share with `mps`.
pub use mps::{internal_tag, ReduceOp, USER_TAG_LIMIT};
