//! The analytical core: Eqs. 5–21 of the paper.
//!
//! Time model (Eqs. 5–6, 10): theoretical time is the sum of on-chip
//! computation, off-chip memory, network and I/O components; actual time is
//! the theoretical sum squeezed by the overlap factor `α`.
//!
//! Energy model (Eqs. 7–9, 13–15): every processor draws `P_sys_idle` for
//! the whole (actual) execution, plus per-component active deltas for the
//! full device-busy durations:
//!
//! ```text
//! E1 = T1·P_sys_idle + Wc·tc·ΔPc + Wm·tm·ΔPm                       (Eq. 13)
//! Ep = Tp·p·P_sys_idle + (Wc+Woc)·tc·ΔPc + (Wm+Wom)·tm·ΔPm
//!      + (M·ts + B·tw)·ΔP_NIC                                      (Eq. 15/18)
//! ```
//!
//! and from those `E0`, `EEF` and `EE` (Eqs. 16, 19, 21). The functions
//! here are the unit-typed `f64` instance of the term kernel in
//! `terms.rs`, which the batch sweeps and the interval enclosures share.
//! Inputs and results stay [`simcluster::units`] newtypes, so a caller
//! cannot pass a latency where a power belongs.

use std::error::Error;
use std::fmt;

use simcluster::units::{Joules, Seconds};

use crate::params::{AppParams, MachineParams};
use crate::terms::{self, Factors, Point, Row};

/// A parameter set the ratio model cannot evaluate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelError {
    /// The sequential baseline energy `E1` came out non-positive or
    /// non-finite, so the ratios `EEF = E0/E1` and `EE = 1/(1+EEF)` are
    /// undefined (an all-zero workload, or a non-finite parameter).
    DegenerateBaseline {
        /// The offending `E1` value.
        e1: Joules,
    },
    /// The application model is not defined at this rank count (CG's
    /// processor grid needs a power of two).
    UnsupportedRanks {
        /// The model's name ("CG").
        app: &'static str,
        /// The offending rank count.
        p: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DegenerateBaseline { e1 } => write!(
                f,
                "sequential baseline energy E1 = {e1} is not positive and finite; \
                 EEF = E0/E1 is undefined for this parameter set"
            ),
            Self::UnsupportedRanks { app, p } => {
                write!(f, "the {app} model is not defined at p = {p} ranks")
            }
        }
    }
}

impl Error for ModelError {}

/// `value` when the baseline `e1` is positive and finite, else the
/// [`ModelError::DegenerateBaseline`] every ratio-valued result reports.
pub(crate) fn checked<T>(e1: f64, value: T) -> Result<T, ModelError> {
    if e1.is_finite() && e1 > 0.0 {
        Ok(value)
    } else {
        Err(ModelError::DegenerateBaseline {
            e1: Joules::new(e1),
        })
    }
}

/// Every term at one point, ratios unguarded.
///
/// # Panics
/// Panics when `p == 0`.
pub(crate) fn point(m: &MachineParams, a: &AppParams, p: usize) -> Point<f64> {
    assert!(p > 0, "need at least one processor");
    Factors::of_params(m, a).point(&Row::of_params(m), p as f64)
}

/// `(T1, E1)`, which do not depend on `p`.
fn sequential(m: &MachineParams, a: &AppParams) -> (f64, f64) {
    Factors::of_params(m, a).seq.sequential(&Row::of_params(m))
}

/// Actual sequential execution time `T1 = α·(Wc·tc + Wm·tm + T_IO)`
/// (Eqs. 5–6).
#[must_use]
pub fn t1(m: &MachineParams, a: &AppParams) -> Seconds {
    Seconds::new(sequential(m, a).0)
}

/// Total network time `M·ts + B·tw` across all processors (Eq. 17).
#[must_use]
pub fn t_net(m: &MachineParams, a: &AppParams) -> Seconds {
    Seconds::new(Factors::of_params(m, a).par.t_net)
}

/// Actual per-processor parallel execution time (Eq. 10 with homogeneous
/// workload distribution — the paper's §V.B.5 assumption):
///
/// ```text
/// Tp = α·((Wc+Woc)·tc + (Wm+Wom)·tm + M·ts + B·tw + T_IO) / p
/// ```
///
/// # Panics
/// Panics when `p == 0`.
#[must_use]
pub fn tp(m: &MachineParams, a: &AppParams, p: usize) -> Seconds {
    Seconds::new(point(m, a, p).tp)
}

/// Sequential energy `E1` (Eq. 13).
#[must_use]
pub fn e1(m: &MachineParams, a: &AppParams) -> Joules {
    Joules::new(sequential(m, a).1)
}

/// Parallel energy `Ep` on `p` processors (Eqs. 14–15 with the network
/// delta of Eq. 18).
///
/// # Panics
/// Panics when `p == 0`.
#[must_use]
pub fn ep(m: &MachineParams, a: &AppParams, p: usize) -> Joules {
    Joules::new(point(m, a, p).ep)
}

/// Parallel energy overhead `E0 = Ep − E1` (Eqs. 1, 16).
///
/// # Panics
/// Panics when `p == 0`.
#[must_use]
pub fn e0(m: &MachineParams, a: &AppParams, p: usize) -> Joules {
    let v = point(m, a, p);
    Joules::new(terms::e0(v.e1, v.ep))
}

/// Energy Efficiency Factor `EEF = E0 / E1` (Eqs. 3, 19).
///
/// # Errors
/// Returns [`ModelError::DegenerateBaseline`] when `E1` is non-positive or
/// non-finite — the ratio is undefined there, and a panic would turn a bad
/// calibration input into an abort deep inside the model.
///
/// # Panics
/// Panics when `p == 0`.
pub fn eef(m: &MachineParams, a: &AppParams, p: usize) -> Result<f64, ModelError> {
    let v = point(m, a, p);
    checked(v.e1, v.eef)
}

/// Iso-energy-efficiency `EE = 1 / (1 + EEF)` (Eqs. 2, 4, 21).
///
/// `EE = 1` is ideal. Values slightly above 1 are possible when the
/// parallel overheads are negative (e.g. strong-scaling cache effects make
/// `Wom < 0` by more than the communication costs add) — superlinear
/// energy scaling, the energy analog of superlinear speedup.
///
/// # Errors
/// Returns [`ModelError::DegenerateBaseline`] when the sequential baseline
/// energy is non-positive or non-finite (see [`eef`]).
///
/// # Panics
/// Panics when `p == 0`.
pub fn ee(m: &MachineParams, a: &AppParams, p: usize) -> Result<f64, ModelError> {
    let v = point(m, a, p);
    checked(v.e1, v.ee)
}

/// The §V.B.5 observation: with an evenly divided workload, rewrite
/// Eq. 16's overhead as a function of `p` and report the overhead energy
/// `E0(p)` for a range of `p`, exposing its `Θ(p^k)` (k ≥ 1) growth when
/// per-processor communication does not shrink with `p`.
pub fn overhead_growth(
    m: &MachineParams,
    app_at: impl Fn(usize) -> AppParams,
    ps: &[usize],
) -> Vec<(usize, Joules)> {
    ps.iter().map(|&p| (p, e0(m, &app_at(p), p))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{AppParams, MachineParams};
    use simcluster::units::{Accesses, Bytes, Instructions, Messages};

    fn mach() -> MachineParams {
        MachineParams::system_g(2.8e9)
    }

    fn ee_ok(m: &MachineParams, a: &AppParams, p: usize) -> f64 {
        ee(m, a, p).expect("baseline energy is positive")
    }

    #[test]
    fn ideal_app_has_ee_one_at_any_p() {
        let m = mach();
        let a = AppParams::ideal(1e9);
        for p in [1usize, 2, 16, 1024] {
            assert!((ee_ok(&m, &a, p) - 1.0).abs() < 1e-12, "p={p}");
            assert!(e0(&m, &a, p).abs() < Joules::new(1e-6));
        }
    }

    #[test]
    fn sequential_case_is_exactly_e1() {
        let m = mach();
        let mut a = AppParams::ideal(1e9);
        a.wm = Accesses::new(1e7);
        assert!((ep(&m, &a, 1) - e1(&m, &a)).abs() < Joules::new(1e-9));
        assert!((ee_ok(&m, &a, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn communication_lowers_ee() {
        let m = mach();
        let mut a = AppParams::ideal(1e9);
        a.messages = Messages::new(1e5);
        a.bytes = Bytes::new(1e9);
        let e = ee_ok(&m, &a, 8);
        assert!(e < 1.0, "EE {e}");
        assert!(e > 0.0);
    }

    #[test]
    fn ee_decreases_monotonically_with_growing_overhead() {
        let m = mach();
        let mut prev = f64::INFINITY;
        for k in 0..6 {
            let mut a = AppParams::ideal(1e9);
            a.woc = Instructions::new(1e7 * f64::from(k) * f64::from(k));
            let e = ee_ok(&m, &a, 16);
            assert!(e <= prev + 1e-15);
            prev = e;
        }
    }

    #[test]
    fn negative_wom_can_push_ee_above_one() {
        // Superlinear energy scaling from strong-scaling cache effects.
        let m = mach();
        let mut a = AppParams::ideal(1e8);
        a.wm = Accesses::new(1e8);
        a.wom = Accesses::new(-5e7); // half the off-chip traffic disappears
        let e = ee_ok(&m, &a, 8);
        assert!(e > 1.0, "EE {e}");
    }

    #[test]
    fn t1_matches_eq6() {
        let m = mach();
        let mut a = AppParams::ideal(1e9);
        a.wm = Accesses::new(1e6);
        a.alpha = 0.9;
        let expect = 0.9 * (1e9 * m.tc.raw() + 1e6 * m.tm.raw());
        assert!((t1(&m, &a).raw() - expect).abs() < 1e-12);
    }

    #[test]
    fn tp_at_p1_equals_t1_when_no_overheads() {
        let m = mach();
        let mut a = AppParams::ideal(5e8);
        a.wm = Accesses::new(1e6);
        assert!((tp(&m, &a, 1) - t1(&m, &a)).abs() < Seconds::new(1e-15));
    }

    #[test]
    fn e1_matches_eq13_by_hand() {
        let m = mach();
        let mut a = AppParams::ideal(1e9);
        a.wm = Accesses::new(2e6);
        a.alpha = 0.85;
        let t = 0.85 * (1e9 * m.tc.raw() + 2e6 * m.tm.raw());
        let expect = t * m.p_sys_idle.raw()
            + 1e9 * m.tc.raw() * m.delta_pc.raw()
            + 2e6 * m.tm.raw() * m.delta_pm.raw();
        assert!((e1(&m, &a).raw() - expect).abs() < 1e-9);
    }

    #[test]
    fn lower_frequency_reduces_delta_but_stretches_idle() {
        // The core DVFS tension the paper studies: at low f the CPU delta
        // shrinks (∝ f^γ) but execution lengthens (tc ∝ 1/f), so idle-power
        // energy grows. For compute-bound work with γ = 2 on SystemG, the
        // idle term dominates and E1 *increases* at the lowest state.
        let hi = mach();
        let lo = hi.at_frequency(1.6e9);
        let a = AppParams::ideal(1e10);
        let e_hi = e1(&hi, &a);
        let e_lo = e1(&lo, &a);
        assert!(
            e_lo > e_hi,
            "idle-dominated energy must grow at low f: {e_lo} vs {e_hi}"
        );
    }

    #[test]
    fn overhead_growth_is_superlinear_for_alltoall_like_m() {
        let m = mach();
        let pts = overhead_growth(
            &m,
            |p| {
                let mut a = AppParams::ideal(1e9);
                // All-to-all startup costs: M = p(p−1).
                a.messages = Messages::new((p * (p - 1)) as f64);
                a
            },
            &[2, 4, 8, 16, 32],
        );
        // E0 should grow faster than linearly in p.
        let (p_a, e_a) = pts[1]; // p=4
        let (p_b, e_b) = pts[4]; // p=32
        let growth = e_b / e_a;
        let linear = p_b as f64 / p_a as f64;
        assert!(growth > linear, "E0 growth {growth} vs linear {linear}");
    }

    #[test]
    fn eef_and_ee_are_consistent() {
        let m = mach();
        let mut a = AppParams::ideal(1e9);
        a.messages = Messages::new(1e4);
        a.bytes = Bytes::new(1e8);
        let f = eef(&m, &a, 8).expect("positive baseline");
        let e = ee_ok(&m, &a, 8);
        assert!((e - 1.0 / (1.0 + f)).abs() < 1e-15);
    }

    #[test]
    fn zero_workload_is_an_error_not_an_abort() {
        let m = mach();
        let a = AppParams::ideal(0.0);
        assert_eq!(
            eef(&m, &a, 4),
            Err(ModelError::DegenerateBaseline { e1: Joules::ZERO })
        );
        assert!(ee(&m, &a, 4).is_err());
    }

    #[test]
    fn non_finite_baseline_is_an_error() {
        let m = mach();
        let a = AppParams::ideal(f64::NAN);
        let err = ee(&m, &a, 4).expect_err("NaN workload must not evaluate");
        let ModelError::DegenerateBaseline { e1 } = err else {
            panic!("expected a degenerate baseline, got {err:?}");
        };
        assert!(!e1.is_finite());
    }
}
