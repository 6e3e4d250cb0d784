//! The CG application model (§V.B.3).
//!
//! CG on NPB's 2-D processor grid has two defining overheads:
//!
//! * **Replicated vector work** — every processor in a row repeats the
//!   row-segment updates, so parallel on-chip overhead grows like
//!   `n·(npcol − 1)` with `npcol ≈ √(2p)`; this is where the paper's `√p`
//!   terms come from.
//! * **Reduce/transpose communication** — a partner exchange of `n/npcol`
//!   elements plus a `log₂ npcol`-round row allreduce per SpMV, and scalar
//!   allreduces for the dot products. The counts below are *exact* (they
//!   reproduce the calibration run's measured `M`/`B` to the message).
//!
//! Because the parallel *overhead* is computation (it gets cheaper as `f`
//! rises: its idle-energy share scales with `tc ∝ 1/f`) while the
//! sequential *base* is memory-bound (f-independent `Wm·tm` terms), `EEF =
//! E0/E1` falls as `f` rises: **raising the DVFS frequency improves CG's
//! energy efficiency**, the paper's headline Fig.-9 observation, opposite
//! to EP and FT.

use npb::common::cg_proc_grid;

use crate::interval::{AppBox, Interval};
use crate::params::AppParams;
use crate::terms::{App, Domain};

use super::{allreduce_counts, AppModel};

/// Closed-form CG model. `n` is the matrix dimension (the paper's Fig. 9
/// uses `n = 75000`, i.e. class B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgModel {
    /// Overlap factor α (paper's 0.85 for CG on SystemG).
    pub alpha: f64,
    /// Outer power-iteration steps (each with 25 inner CG iterations).
    pub niter: f64,
    /// `Wc = wc_lin · n` (SpMV + vector sweeps, incl. cache time).
    pub wc_lin: f64,
    /// `Wm = wm_lin · n` (DRAM traffic of the cache-proof class-B matrix).
    pub wm_lin: f64,
    /// Replication overhead: `Woc = woc_repl · n · (npcol − 1)`.
    pub woc_repl: f64,
    /// Strong-scaling cache relief: `Wom = wom_coeff · n·(1 − p^{-1/2})`,
    /// negative (the paper fits −4.75·…·√p-shaped terms). Fitted in the
    /// pre-relief regime (p = 4), where the paper's own measurements live.
    pub wom_coeff: f64,
}

impl CgModel {
    /// Coefficients calibrated on the simulated SystemG at class-B size
    /// (regenerate with `cargo run --release -p bench --bin table2`).
    pub fn system_g() -> Self {
        Self {
            alpha: 0.85,
            niter: 4.0,
            wc_lin: 159_243.0,
            wm_lin: 11_641.0,
            woc_repl: 9_500.0,
            wom_coeff: -150.0,
        }
    }
}

impl CgModel {
    /// The Table-2 vector at workload `n` (a point or an interval) and
    /// parallelism `p`; counts that depend on `p` alone stay in `f64`.
    ///
    /// # Panics
    /// Panics unless `p` is a power of two (the NPB grid constraint; see
    /// [`AppModel::admits`]).
    fn table2<D: Domain>(&self, n: D, p: usize) -> App<D> {
        let (nprow, npcol) = cg_proc_grid(p);
        let (nprow_f, npcol_f) = (nprow as f64, npcol as f64);
        let pf = p as f64;
        let lg_npcol = if npcol > 1 { npcol_f.log2() } else { 0.0 };

        // Communication per outer step: 26 SpMVs, 54 scalar allreduces
        // (25×2 inner dots + init ρ + residual + 2 outer dots).
        let spmvs = 26.0 * self.niter;
        let dots = 54.0 * self.niter;
        // Transpose exchange: p − (self partners) messages of 8·n/npcol.
        let self_partners = if npcol == nprow {
            nprow_f
        } else {
            2.0 * nprow_f
        };
        let m_tr = spmvs * (pf - self_partners);
        let b_tr = D::point(m_tr * 8.0) * n / D::point(npcol_f);
        // Row allreduce: p·log2(npcol) messages of 8·n/nprow.
        let m_rr = spmvs * pf * lg_npcol;
        let b_rr = D::point(m_rr * 8.0) * n / D::point(nprow_f);
        // Scalar dot-product allreduces.
        let (m_dot_each, b_dot_each) = allreduce_counts(p, 8.0);
        let m_dot = dots * m_dot_each;
        let b_dot = dots * b_dot_each;

        let wc = D::point(self.wc_lin) * n;
        let wm = D::point(self.wm_lin) * n;
        let woc = D::point(self.woc_repl) * n * D::point(npcol_f - 1.0);
        let wom = (D::point(self.wom_coeff) * n * D::point(1.0 - 1.0 / pf.sqrt())).max(-wm);

        App {
            alpha: D::point(self.alpha),
            wc,
            wm,
            woc,
            wom,
            messages: D::point(m_tr + m_rr + m_dot),
            bytes: b_tr + b_rr + D::point(b_dot),
            t_io: D::point(0.0),
        }
    }
}

impl AppModel for CgModel {
    fn name(&self) -> &'static str {
        "CG"
    }

    fn admits(&self, p: usize) -> bool {
        p.is_power_of_two()
    }

    /// # Panics
    /// Panics unless `p` is a power of two (the NPB grid constraint; see
    /// [`AppModel::admits`]).
    fn app_params(&self, n: f64, p: usize) -> AppParams {
        assert!(n > 1.0 && p > 0, "invalid (n, p)");
        let a = self.table2(n, p).to_params();
        a.validate();
        a
    }

    /// # Panics
    /// Panics unless `p` is a power of two, like [`Self::app_params`].
    fn app_params_box(&self, n: Interval, p: usize) -> Option<AppBox> {
        if n.lo.is_nan() || n.lo <= 1.0 || p == 0 {
            return None;
        }
        Some(self.table2(n, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model;
    use crate::params::MachineParams;

    const N_B: f64 = 75_000.0; // the paper's Fig. 9 workload

    #[test]
    fn ee_declines_with_p() {
        // Fig. 9: energy efficiency declines with the level of parallelism
        // (up to a sub-percent cache-relief ripple at small p).
        let m = MachineParams::system_g(2.8e9);
        let cg = CgModel::system_g();
        let mut prev = f64::INFINITY;
        for p in [1usize, 4, 16, 64, 256, 1024] {
            let e = model::ee(&m, &cg.app_params(N_B, p), p).expect("baseline energy is positive");
            assert!(
                e < prev + 0.005,
                "EE must decline: p={p} ee={e} prev={prev}"
            );
            prev = e;
        }
        // And the decline is substantive by p = 1024.
        let e1 = model::ee(&m, &cg.app_params(N_B, 1), 1).expect("baseline energy is positive");
        let e1024 =
            model::ee(&m, &cg.app_params(N_B, 1024), 1024).expect("baseline energy is positive");
        assert!(e1 - e1024 > 0.05, "{e1} vs {e1024}");
    }

    #[test]
    fn higher_frequency_improves_ee() {
        // The paper's headline CG observation (Fig. 9): in this strong-
        // scaling case, users can scale frequency *up* for better EE.
        let cg = CgModel::system_g();
        let base = MachineParams::system_g(2.8e9);
        for p in [16usize, 64, 256] {
            let a = cg.app_params(N_B, p);
            let lo =
                model::ee(&base.at_frequency(1.6e9), &a, p).expect("baseline energy is positive");
            let hi = model::ee(&base, &a, p).expect("baseline energy is positive");
            assert!(
                hi > lo,
                "EE_CG must rise with f at p={p}: {lo} (1.6 GHz) vs {hi} (2.8 GHz)"
            );
        }
    }

    #[test]
    fn growing_n_improves_ee() {
        // Fig. 8: increasing workload size improves energy efficiency.
        let m = MachineParams::system_g(2.8e9);
        let cg = CgModel::system_g();
        let p = 64;
        let small =
            model::ee(&m, &cg.app_params(7_500.0, p), p).expect("baseline energy is positive");
        let large =
            model::ee(&m, &cg.app_params(300_000.0, p), p).expect("baseline energy is positive");
        assert!(large > small, "{large} vs {small}");
    }

    #[test]
    fn overheads_carry_sqrt_p_structure() {
        let cg = CgModel::system_g();
        // npcol doubles every other doubling of p: Woc grows ~(npcol−1).
        let a16 = cg.app_params(N_B, 16); // npcol = 4
        let a64 = cg.app_params(N_B, 64); // npcol = 8
        let growth = a64.woc / a16.woc;
        assert!((growth - 7.0 / 3.0).abs() < 1e-9, "woc growth {growth}");
    }

    #[test]
    fn comm_counts_match_kernel_measurement() {
        // Exact-count check against the p = 4 calibration run: 2352
        // messages, ≈1.9e8 bytes at class-B (n_pad = 75776).
        let cg = CgModel::system_g();
        let a = cg.app_params(75_776.0, 4);
        assert_eq!(a.messages.raw(), 2352.0);
        assert!(
            (a.bytes.raw() - 1.892e8).abs() / 1.892e8 < 0.01,
            "{}",
            a.bytes
        );
    }

    #[test]
    fn wom_negative_and_bounded() {
        let cg = CgModel::system_g();
        let a = cg.app_params(N_B, 64);
        assert!(a.wom.raw() < 0.0);
        assert!((a.wm + a.wom).raw() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_p_rejected() {
        CgModel::system_g().app_params(N_B, 6);
    }
}
