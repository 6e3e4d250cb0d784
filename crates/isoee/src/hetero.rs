//! Heterogeneous-system extension — the paper's stated future work
//! ("we want to extend the current model to heterogeneous systems").
//!
//! A heterogeneous pool mixes processor classes (e.g. SystemG-like and
//! Dori-like nodes, or big/little cores). The extension keeps the paper's
//! structure: workload splits across classes, each class contributes
//! per-class time and energy via the homogeneous Eqs. 13/15, and the
//! system-level `EE` compares the total against the *best single
//! processor's* sequential energy.
//!
//! Two workload-division policies are provided:
//!
//! * [`Split::Even`] — naive equal shares (what a topology-blind scheduler
//!   does); the slowest class stretches everyone's idle energy.
//! * [`Split::TimeBalanced`] — shares proportional to per-class speed, so
//!   all classes finish together (the natural generalization of the
//!   paper's homogeneous-workload assumption).

use crate::model;
use crate::params::{AppParams, MachineParams};
use simcluster::units::{Joules, Seconds};

/// One processor class in the pool.
#[derive(Debug, Clone, Copy)]
pub struct ProcClass {
    /// Machine vector of this class.
    pub mach: MachineParams,
    /// Number of processors of this class.
    pub count: usize,
}

/// Workload-division policy across classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Equal share per processor regardless of class.
    Even,
    /// Shares proportional to per-processor throughput (all classes finish
    /// together, up to the model's resolution).
    TimeBalanced,
}

/// The heterogeneous evaluation result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeteroResult {
    /// Parallel span: the latest class finish time.
    pub tp: Seconds,
    /// Total energy across all classes.
    pub ep: Joules,
    /// Iso-energy-efficiency vs the fastest class's sequential run.
    pub ee: f64,
}

/// Per-processor busy time per unit of workload share for a class —
/// the weight used by the time-balanced split.
fn unit_time(mach: &MachineParams, a: &AppParams) -> Seconds {
    // Time to process the whole (wc+woc, wm+wom) totals on one processor.
    a.alpha * ((a.wc + a.woc) * mach.tc + (a.wm + a.wom) * mach.tm)
}

/// Evaluate a heterogeneous pool on application totals `a` (the Table-2
/// vector for the *whole* job at the pool's total processor count).
///
/// Network terms are charged once, against the slowest class's link
/// parameters (conservative, like the paper's single-fabric assumption).
///
/// # Panics
/// Panics on an empty pool.
pub fn evaluate(classes: &[ProcClass], a: &AppParams, split: Split) -> HeteroResult {
    assert!(!classes.is_empty(), "pool must have at least one class");
    let total_procs: usize = classes.iter().map(|c| c.count).sum();
    assert!(total_procs > 0, "pool must have processors");

    // Workload shares per class.
    let shares: Vec<f64> = match split {
        Split::Even => classes
            .iter()
            .map(|c| c.count as f64 / total_procs as f64)
            .collect(),
        Split::TimeBalanced => {
            let speeds: Vec<f64> = classes
                .iter()
                .map(|c| c.count as f64 / unit_time(&c.mach, a).raw())
                .collect();
            let total: f64 = speeds.iter().sum();
            speeds.iter().map(|s| s / total).collect()
        }
    };

    // Network time, charged on the slowest link present.
    let worst_ts = classes
        .iter()
        .map(|c| c.mach.ts)
        .fold(Seconds::ZERO, Seconds::max);
    let worst_tw = classes
        .iter()
        .map(|c| c.mach.tw)
        .fold(Seconds::ZERO, Seconds::max);
    let t_net_total = a.messages * worst_ts + a.bytes * worst_tw;

    // Per-class spans and energies.
    let mut tp = Seconds::ZERO;
    let mut ep = Joules::ZERO;
    for (class, &share) in classes.iter().zip(&shares) {
        let m = &class.mach;
        let pc = class.count as f64;
        let busy = unit_time(m, a) * share / pc;
        let net = a.alpha * (t_net_total * share / pc);
        let io = a.alpha * (a.t_io * share / pc);
        tp = tp.max(busy + net + io);
        // Active deltas for this class's share.
        ep += ((a.wc + a.woc) * share) * m.tc * m.delta_pc
            + ((a.wm + a.wom) * share) * m.tm * m.delta_pm
            + (t_net_total * share) * m.delta_pnic
            + (a.t_io * share) * m.delta_pio;
    }
    // Every processor idles (or works) for the full span.
    for class in classes {
        ep += tp * class.count as f64 * class.mach.p_sys_idle;
    }

    // Reference: sequential run on the *fastest* class (lowest E1).
    let e1 = classes
        .iter()
        .map(|c| model::e1(&c.mach, a))
        .fold(Joules::new(f64::INFINITY), Joules::min);
    let ee = e1 / ep;
    HeteroResult { tp, ep, ee }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g_class(count: usize) -> ProcClass {
        ProcClass {
            mach: MachineParams::system_g(2.8e9),
            count,
        }
    }

    fn dori_class(count: usize) -> ProcClass {
        ProcClass {
            mach: MachineParams::dori(2.0e9),
            count,
        }
    }

    fn app() -> AppParams {
        let mut a = AppParams::ideal(1e11);
        a.wm = simcluster::units::Accesses::new(1e8);
        a
    }

    #[test]
    fn homogeneous_pool_matches_the_homogeneous_model() {
        let mut with_io = app();
        with_io.t_io = Seconds::new(2.0);
        for a in [app(), with_io] {
            let classes = [g_class(16)];
            let h = evaluate(&classes, &a, Split::TimeBalanced);
            let m = MachineParams::system_g(2.8e9);
            let ee_homog = model::ee(&m, &a, 16).expect("baseline energy is positive");
            assert!(
                (h.ee - ee_homog).abs() < 1e-9,
                "t_io = {}: hetero {} vs homogeneous {}",
                a.t_io,
                h.ee,
                ee_homog
            );
            assert!((h.tp - model::tp(&m, &a, 16)).abs() < Seconds::new(1e-12));
        }
    }

    #[test]
    fn time_balanced_split_beats_even_split_on_mixed_pools() {
        let a = app();
        let classes = [g_class(8), dori_class(8)];
        let even = evaluate(&classes, &a, Split::Even);
        let balanced = evaluate(&classes, &a, Split::TimeBalanced);
        assert!(
            balanced.tp < even.tp,
            "balanced {} should finish before even {}",
            balanced.tp,
            even.tp
        );
        assert!(
            balanced.ee > even.ee,
            "balanced EE {} should beat even EE {}",
            balanced.ee,
            even.ee
        );
    }

    #[test]
    fn even_split_is_hostage_to_the_slowest_class() {
        let a = app();
        // One slow straggler class in a fast pool.
        let classes = [g_class(15), dori_class(1)];
        let even = evaluate(&classes, &a, Split::Even);
        // The straggler's per-proc share takes ~tc_dori/tc_g longer.
        let fast_only = evaluate(&[g_class(15)], &a, Split::Even);
        assert!(even.tp > fast_only.tp, "{} vs {}", even.tp, fast_only.tp);
    }

    #[test]
    fn adding_slow_processors_can_reduce_ee() {
        // Heterogeneity insight: growing the pool with slow nodes can cost
        // efficiency even when it improves the span.
        let a = app();
        let fast = evaluate(&[g_class(16)], &a, Split::TimeBalanced);
        let mixed = evaluate(&[g_class(16), dori_class(16)], &a, Split::TimeBalanced);
        assert!(mixed.tp < fast.tp, "more processors finish sooner");
        assert!(mixed.ee < fast.ee, "…but spend more joules per unit work");
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_pool_rejected() {
        evaluate(&[], &app(), Split::Even);
    }
}
