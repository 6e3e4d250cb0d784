//! The EP application model (§V.B.2).
//!
//! EP is the paper's near-ideal case: `Wm ≈ 0`, `Woc` a vanishing reduction
//! term, `M`/`B` a dozen tiny allreduce messages. Consequently `EE ≈ 1`
//! for every `(p, f)` (Fig. 7), and scaling `n` cannot improve EE because
//! `Ep` rises exactly as fast as `E1` (Fig. 8's discussion).

use crate::interval::{AppBox, Interval};
use crate::params::AppParams;
use crate::terms::{App, Domain};

use super::{allreduce_counts, AppModel};

/// Closed-form EP model. `n` is the number of Gaussian pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpModel {
    /// Overlap factor α (paper's measured 0.93 for EP on SystemG).
    pub alpha: f64,
    /// On-chip instructions per pair (`Wc = wc_pair · n`).
    pub wc_pair: f64,
    /// Combine instructions per allreduce element per round (`Woc`).
    pub woc_round: f64,
    /// Allreduce payload: 13 doubles (accepted, sx, sy, 10 annuli).
    pub payload_bytes: f64,
}

impl EpModel {
    /// Coefficients calibrated on the simulated SystemG with the §IV.B
    /// pipeline (regenerate with `cargo run -p bench --bin table2`).
    pub fn system_g() -> Self {
        Self {
            alpha: 0.93,
            // 62 charged instructions/pair plus the cache-time equivalent
            // of 0.25 accesses/pair at L1 latency.
            wc_pair: 63.1,
            woc_round: 13.0,
            payload_bytes: 104.0,
        }
    }
}

impl EpModel {
    /// The Table-2 vector at workload `n` (a point or an interval) and
    /// parallelism `p`: only `Wc` depends on `n`.
    fn table2<D: Domain>(&self, n: D, p: usize) -> App<D> {
        let (messages, bytes) = allreduce_counts(p, self.payload_bytes);
        // Each message's payload is combined once on arrival.
        let woc = messages * self.woc_round;
        App {
            alpha: D::point(self.alpha),
            wc: D::point(self.wc_pair) * n,
            wm: D::point(0.0),
            woc: D::point(woc),
            wom: D::point(0.0),
            messages: D::point(messages),
            bytes: D::point(bytes),
            t_io: D::point(0.0),
        }
    }
}

impl AppModel for EpModel {
    fn name(&self) -> &'static str {
        "EP"
    }

    fn app_params(&self, n: f64, p: usize) -> AppParams {
        assert!(n > 0.0 && p > 0, "invalid (n, p)");
        let a = self.table2(n, p).to_params();
        a.validate();
        a
    }

    fn app_params_box(&self, n: Interval, p: usize) -> Option<AppBox> {
        if n.lo.is_nan() || n.lo <= 0.0 || p == 0 {
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

    #[test]
    fn ep_is_near_ideal_everywhere() {
        // The paper's Fig. 7: EE ≈ 1 for all (p, f).
        let m = MachineParams::system_g(2.8e9);
        let ep = EpModel::system_g();
        for p in [1usize, 2, 8, 64, 128] {
            for f in [1.6e9, 2.0e9, 2.4e9, 2.8e9] {
                let mach = m.at_frequency(f);
                let a = ep.app_params((1u64 << 22) as f64, p);
                let ee = model::ee(&mach, &a, p).expect("baseline energy is positive");
                assert!(ee > 0.97 && ee <= 1.0 + 1e-12, "EE_EP({p}, {f}) = {ee}");
            }
        }
    }

    #[test]
    fn scaling_n_does_not_change_ee() {
        // §V.B.6: for EP, E0 grows as fast as E1, so n does not help.
        let m = MachineParams::system_g(2.8e9);
        let ep = EpModel::system_g();
        let e_small =
            model::ee(&m, &ep.app_params(1e7, 64), 64).expect("baseline energy is positive");
        let e_large =
            model::ee(&m, &ep.app_params(1e9, 64), 64).expect("baseline energy is positive");
        // Larger n actually *amortizes* the fixed reduction cost, so EE can
        // only move toward 1 — and it is already there.
        assert!((e_small - e_large).abs() < 0.01);
    }

    #[test]
    fn workload_scales_linearly() {
        let ep = EpModel::system_g();
        let a1 = ep.app_params(1e6, 4);
        let a2 = ep.app_params(2e6, 4);
        assert!((a2.wc / a1.wc - 2.0).abs() < 1e-12);
        assert_eq!(a1.wm.raw(), 0.0);
    }
}
