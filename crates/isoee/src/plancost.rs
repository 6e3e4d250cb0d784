//! Static cost/energy pass for `plan` analyses: lower a [`PlanAnalysis`]
//! to the iso-energy model's communication terms and a full
//! [`ModelEnclosure`].
//!
//! The pass converts the analyzer's exact message/byte totals and its
//! compute/memory accumulators into an [`AppBox`] and
//! evaluates Eq. 13/15 over it. Message and byte counts are exact (the
//! abstract run emits precisely the messages a lowered execution sends),
//! so `T_comm` and `E_comm` are point intervals; the off-chip workload
//! `Wm` is a genuine interval `[0, mem_accesses]` because the dynamic
//! cache split may classify any fraction of the charged accesses as
//! on-chip hits.

use plan::PlanAnalysis;

use crate::interval::{self, AppBox, Interval, MachBox, ModelEnclosure};
use crate::terms::{Factors, Row};

/// Static cost bounds for one analyzed plan on one machine box.
#[derive(Debug, Clone, Copy)]
pub struct PlanCost {
    /// Total messages across ranks (exact).
    pub messages: u64,
    /// Total bytes across ranks (exact).
    pub bytes: u64,
    /// Total on-chip instructions across ranks (exact for plans whose
    /// `Compute` charges are themselves exact).
    pub wc: f64,
    /// Total charged memory accesses across ranks (upper bound on off-chip
    /// accesses).
    pub mem_accesses: f64,
    /// Enclosure of the Hockney communication time `M·ts + B·tw`
    /// (Eq. 13's network term).
    pub t_comm: Interval,
    /// Enclosure of the network energy `T_comm · ΔP_NIC` (Eq. 15's NIC
    /// term).
    pub e_comm: Interval,
    /// Full-model enclosure (`T1`, `Tp`, `E1`, `Ep`, `EEF`, `EE`) with the
    /// plan's totals as the application vector at parallelism
    /// [`PlanAnalysis::p`].
    pub enclosure: ModelEnclosure,
}

/// The application box a [`PlanAnalysis`] induces: exact comm totals,
/// exact `Wc`, and `Wm ∈ [0, mem_accesses]`.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn app_box(analysis: &PlanAnalysis) -> AppBox {
    counts_box(
        Interval::point(analysis.total.wc),
        analysis.total.mem_accesses,
        Interval::point(analysis.total.messages as f64),
        Interval::point(analysis.total.bytes as f64),
    )
}

/// The application box of a plan's counts, for [`app_box`] and
/// [`crate::symcost::sym_app_box`] alike: `Wc`, `M` and `B` as counted,
/// `Wm ∈ [0, mem_accesses]` (the dynamic cache split may classify any
/// fraction of the charged accesses as on-chip hits), `α = 1`, and zero
/// overheads and `T_IO`.
pub(crate) fn counts_box(
    wc: Interval,
    mem_accesses: f64,
    messages: Interval,
    bytes: Interval,
) -> AppBox {
    AppBox {
        alpha: Interval::point(1.0),
        wc,
        wm: Interval::new(0.0, mem_accesses),
        woc: Interval::point(0.0),
        wom: Interval::point(0.0),
        messages,
        bytes,
        t_io: Interval::point(0.0),
    }
}

/// Price an application box on `mach` at `p` (or over a range of `p`):
/// the enclosures of the Hockney time `M·ts + B·tw`, of its NIC energy,
/// and of the full model. [`cost_bounds`] and
/// [`crate::symcost::sym_cost_bounds`] differ only in where the counts
/// behind `a` come from.
pub(crate) fn price(
    a: &AppBox,
    mach: &MachBox,
    p: Interval,
) -> (Interval, Interval, ModelEnclosure) {
    let f = Factors::of(mach, a);
    (
        f.par.t_net,
        f.par.e_net,
        interval::enclose(&f, &Row::of(mach), p),
    )
}

/// Evaluate the static cost/energy bounds of an analyzed plan on `mach`.
#[must_use]
pub fn cost_bounds(analysis: &PlanAnalysis, mach: &MachBox) -> PlanCost {
    let p = Interval::point(analysis.p as f64);
    let (t_comm, e_comm, enclosure) = price(&app_box(analysis), mach, p);
    PlanCost {
        messages: analysis.total.messages,
        bytes: analysis.total.bytes,
        wc: analysis.total.wc,
        mem_accesses: analysis.total.mem_accesses,
        t_comm,
        e_comm,
        enclosure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MachineParams;
    use plan::{analyze_plan, CommPlan, Expr, Op, TagExpr};

    fn mach() -> MachBox {
        MachBox::from_params(&MachineParams::system_g(2.8e9))
    }

    #[test]
    fn t_comm_matches_the_model_t_net_term() {
        // Ring of 256-byte messages: p messages, 256p bytes total.
        let plan = CommPlan::new(
            "ring",
            vec![
                Op::Compute {
                    units: Expr::Const(1000),
                    scale: 2.0,
                },
                Op::MemStream {
                    elems: Expr::Const(800),
                    scale: 1.0,
                    ws: Expr::Const(1 << 16),
                },
                Op::Send {
                    to: (Expr::Rank + Expr::Const(1)) % Expr::P,
                    tag: TagExpr::Expr(Expr::Const(1)),
                    bytes: Expr::Const(256),
                },
                Op::Recv {
                    from: (Expr::Rank + Expr::P - Expr::Const(1)) % Expr::P,
                    tag: TagExpr::Expr(Expr::Const(1)),
                },
            ],
        );
        let p = 8;
        let analysis = analyze_plan(&plan, p);
        assert!(analysis.clean(), "{:?}", analysis.findings);
        let m = mach();
        let cost = cost_bounds(&analysis, &m);

        assert_eq!(cost.messages, p as u64);
        assert_eq!(cost.bytes, 256 * p as u64);
        // Exact totals -> point comm enclosures equal to Eq. 17's
        // M·ts + B·tw over the equivalent AppBox.
        let a = app_box(&analysis);
        let expected = a.messages * m.ts + a.bytes * m.tw;
        assert_eq!(cost.t_comm, expected);
        assert_eq!(cost.e_comm, expected * m.delta_pnic);
        // Exact counts: the enclosure is tight up to outward rounding.
        assert!(cost.t_comm.lo > 0.0);
        assert!((cost.t_comm.hi - cost.t_comm.lo) / cost.t_comm.lo < 1e-12);

        // Wc: 1000 · 2.0 per rank; mem: 800 / 8 accesses per rank.
        assert!((cost.wc - 2000.0 * p as f64).abs() < 1e-9);
        assert!((cost.mem_accesses - 100.0 * p as f64).abs() < 1e-9);
    }

    #[test]
    fn enclosure_agrees_with_interval_evaluate_and_certifies() {
        let plan = CommPlan::new(
            "work",
            vec![
                Op::Compute {
                    units: Expr::Const(1_000_000),
                    scale: 1.0,
                },
                Op::AllReduce {
                    elems: Expr::Const(64),
                    op: plan::ReduceOp::Sum,
                },
            ],
        );
        let analysis = analyze_plan(&plan, 4);
        assert!(analysis.clean());
        let m = mach();
        let cost = cost_bounds(&analysis, &m);
        let direct = crate::interval::evaluate(&m, &app_box(&analysis), 4);
        assert_eq!(cost.enclosure.ep, direct.ep);
        assert_eq!(cost.enclosure.t1, direct.t1);
        assert!(cost.enclosure.baseline_certified());
        // Ep must dominate the pure network energy term (Eq. 15 sums it
        // with non-negative compute/memory/idle terms).
        assert!(cost.enclosure.ep.lo >= cost.e_comm.lo);
    }
}
