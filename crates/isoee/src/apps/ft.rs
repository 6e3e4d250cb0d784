//! The FT application model (§V.B.1).
//!
//! FT is the paper's communication-bound case. Its all-to-all transposes
//! follow the **pairwise-exchange/Hockney** form the paper adopts from
//! Pjesivac-Grbovic et al.:
//!
//! ```text
//! T_alltoall = (p − 1) · (ts + tw · m),    m = 16·n / p²  bytes
//! ```
//!
//! so total messages grow as `p(p−1)` while total bytes stay ~constant —
//! at scale the startup term dominates and `EE` collapses with `p` almost
//! regardless of `f` (Figs. 5–6). Scaling the grid `n` restores efficiency
//! (the quadratic message overhead amortizes over more work).
//!
//! The communication terms below are *exact* counts of the kernel's
//! collectives (they reproduce the measured `M`/`B` to the message); the
//! workload coefficients are calibrated per DESIGN.md §2 — in the paper's
//! measurement regime (workload ≫ aggregate cache, `p ≤ 16` for the
//! overhead terms), because beyond it the simulator's scaled-down footprint
//! drops entirely into aggregate cache, a regime the full-size NPB grids
//! never enter.

use crate::interval::{AppBox, Interval};
use crate::params::AppParams;
use crate::terms::{App, Domain};

use super::{allreduce_counts, AppModel};

/// Closed-form FT model. `n` is the total number of grid points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtModel {
    /// Overlap factor α (paper's 0.86 for FT on SystemG).
    pub alpha: f64,
    /// Iterations (evolve + inverse FFT); the forward transform adds one
    /// more all-to-all.
    pub niter: f64,
    /// `Wc = wc_nlogn · n·log2(n) + wc_lin · n`. The `n·log2 n` slope is
    /// theory-anchored: 7 three-dimensional FFTs × 5 flops per point per
    /// log2 level.
    pub wc_nlogn: f64,
    /// Linear on-chip coefficient (evolve, checksums, pack/unpack and the
    /// cache-time equivalents), fitted at class B.
    pub wc_lin: f64,
    /// Sequential off-chip workload `Wm = wm_lin · n` (class-B footprint).
    pub wm_lin: f64,
    /// Parallel compute overhead `Woc = woc_coeff · n·(1 − 1/p)`.
    pub woc_coeff: f64,
    /// Parallel memory overhead `Wom = wom_coeff · n·(1 − 1/p)`; *negative*
    /// on SystemG — per-rank slabs cache better under strong scaling (the
    /// paper fits −0.73·… for FT).
    pub wom_coeff: f64,
}

impl FtModel {
    /// Coefficients calibrated on the simulated SystemG at the class-B
    /// footprint (regenerate with `cargo run --release -p bench --bin
    /// table2`; overhead terms fitted at p ∈ {4, 16}).
    pub fn system_g() -> Self {
        Self {
            alpha: 0.86,
            niter: 6.0,
            wc_nlogn: 35.0,
            wc_lin: 182.0,
            wm_lin: 13.31,
            woc_coeff: 15.0,
            wom_coeff: -0.45,
        }
    }
}

impl FtModel {
    /// The Table-2 vector at workload `n` (a point or an interval) and
    /// parallelism `p`; counts that depend on `p` alone stay in `f64`.
    fn table2<D: Domain>(&self, n: D, p: usize) -> App<D> {
        let pf = p as f64;
        let transposes = self.niter + 1.0;

        // Pairwise exchange: every process sends p−1 chunks of 16n/p² bytes
        // per transpose.
        let m_a2a = transposes * pf * (pf - 1.0);
        let b_a2a = D::point(transposes * 16.0) * n * D::point(pf - 1.0) / D::point(pf);
        // Small allreduces: spectral energy (niter+1) + checksum (niter),
        // payload ≤ 2 doubles.
        let (m_red_each, b_red_each) = allreduce_counts(p, 16.0);
        let m_red = (2.0 * self.niter + 1.0) * m_red_each;
        let b_red = (2.0 * self.niter + 1.0) * b_red_each;

        let wc =
            (D::point(self.wc_nlogn) * n * n.log2() + D::point(self.wc_lin) * n).max(D::point(0.0));
        let wm = D::point(self.wm_lin) * n;
        let scale_frac = D::point(1.0 - 1.0 / pf);
        let woc = (D::point(self.woc_coeff) * n * scale_frac).max(-wc * D::point(0.95));
        let wom = (D::point(self.wom_coeff) * n * scale_frac).max(-wm);

        App {
            alpha: D::point(self.alpha),
            wc,
            wm,
            woc,
            wom,
            messages: D::point(m_a2a + m_red),
            bytes: b_a2a + D::point(b_red),
            t_io: D::point(0.0),
        }
    }
}

impl AppModel for FtModel {
    fn name(&self) -> &'static str {
        "FT"
    }

    fn app_params(&self, n: f64, p: usize) -> AppParams {
        assert!(n > 1.0 && p > 0, "invalid (n, p)");
        let a = self.table2(n, p).to_params();
        a.validate();
        a
    }

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

    /// A mid-size grid where the paper's Fig.-5 collapse is visible within
    /// p ≤ 1024 on InfiniBand parameters.
    const N: f64 = (1 << 20) as f64;

    #[test]
    fn ee_collapses_with_p_at_fixed_n() {
        // Fig. 5's dominant axis: p.
        let m = MachineParams::system_g(2.8e9);
        let ft = FtModel::system_g();
        let ee_small: f64 =
            model::ee(&m, &ft.app_params(N, 4), 4).expect("baseline energy is positive");
        let ee_large: f64 =
            model::ee(&m, &ft.app_params(N, 512), 512).expect("baseline energy is positive");
        assert!(ee_small > ee_large + 0.2, "{ee_small} vs {ee_large}");
        assert!(ee_large > 0.0);
    }

    #[test]
    fn ee_nearly_monotone_in_p() {
        // Strictly monotone decline up to a small cache-relief ripple.
        let m = MachineParams::system_g(2.8e9);
        let ft = FtModel::system_g();
        let mut prev = f64::INFINITY;
        for p in [1usize, 4, 16, 64, 256, 1024] {
            let e = model::ee(&m, &ft.app_params(N, p), p).expect("baseline energy is positive");
            assert!(e <= prev + 0.01, "p={p}: {e} vs prev {prev}");
            prev = e;
        }
    }

    #[test]
    fn frequency_barely_matters() {
        // Fig. 5's flat frequency axis: FT is communication/memory bound.
        let ft = FtModel::system_g();
        let base = MachineParams::system_g(2.8e9);
        for p in [16usize, 64, 256] {
            let a = ft.app_params(N, p);
            let hi = model::ee(&base, &a, p).expect("baseline energy is positive");
            let lo =
                model::ee(&base.at_frequency(1.6e9), &a, p).expect("baseline energy is positive");
            assert!(
                (hi - lo).abs() < 0.12,
                "EE_FT should be nearly flat in f at p={p}: {hi} vs {lo}"
            );
        }
    }

    #[test]
    fn growing_n_restores_efficiency() {
        // Fig. 6: increasing the problem size improves EE.
        let m = MachineParams::system_g(2.8e9);
        let ft = FtModel::system_g();
        let p = 256;
        let small =
            model::ee(&m, &ft.app_params(N / 8.0, p), p).expect("baseline energy is positive");
        let large =
            model::ee(&m, &ft.app_params(N * 8.0, p), p).expect("baseline energy is positive");
        assert!(large > small, "{large} vs {small}");
    }

    #[test]
    fn message_count_grows_superlinearly_in_p() {
        let ft = FtModel::system_g();
        let a8 = ft.app_params(N, 8);
        let a16 = ft.app_params(N, 16);
        // The p(p−1) all-to-all term dominates: doubling p must much more
        // than double the message count.
        let ratio = a16.messages / a8.messages;
        assert!(ratio > 3.0, "ratio {ratio}");
    }

    #[test]
    fn total_bytes_roughly_constant_in_p() {
        let ft = FtModel::system_g();
        let b8 = ft.app_params(N, 8).bytes;
        let b64 = ft.app_params(N, 64).bytes;
        assert!(b64 / b8 < 1.2, "bytes should saturate: {b8} vs {b64}");
    }

    #[test]
    fn wom_is_negative_in_parallel() {
        let ft = FtModel::system_g();
        let a = ft.app_params(N, 16);
        assert!(a.wom.raw() < 0.0);
        assert!((a.wm + a.wom).raw() >= 0.0);
    }

    #[test]
    fn comm_counts_match_kernel_measurement_shape() {
        // The exact-count property: at p = 4 the model must reproduce the
        // measured 188 messages of the class-B calibration run
        // (7 transposes × 4·3 pairwise sends + 13 reductions × 8 sends).
        let ft = FtModel::system_g();
        let a = ft.app_params((8u64 << 20) as f64, 4);
        assert_eq!(a.messages.raw(), 84.0 + 104.0);
    }
}
