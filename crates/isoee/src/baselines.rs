//! Baseline models the paper positions itself against (§II).
//!
//! * **Performance isoefficiency** (Grama, Gupta, Kumar — the paper's \[7\]):
//!   `η(p) = T1 / (p·Tp)`; the isoefficiency function is the workload
//!   growth needed to hold `η` constant. Performance-only — no energy.
//! * **Power-aware speedup** (Ge & Cameron — the paper's \[25\]): speedup
//!   generalized with DVFS-dependent execution times. Captures *some*
//!   energy effects but, as the paper argues, gives no insight into the
//!   root causes of poor power-performance scalability.
//! * **Amdahl's law** (the paper's \[9\]): the serial-fraction bound both
//!   generalize.
//!
//! Implementing the baselines lets the experiments show *what the
//! iso-energy-efficiency model adds*: the baselines rank FT's scalability
//! identically at every frequency and say nothing about CG's preference
//! for high DVFS states, which the EE model exposes directly.

use crate::model;
use crate::params::{AppParams, MachineParams};

/// Amdahl's law: speedup with serial fraction `s` on `p` processors.
pub fn amdahl_speedup(serial_fraction: f64, p: usize) -> f64 {
    assert!(
        (0.0..=1.0).contains(&serial_fraction),
        "serial fraction must be in [0,1]"
    );
    assert!(p > 0, "need at least one processor");
    1.0 / (serial_fraction + (1.0 - serial_fraction) / p as f64)
}

/// Performance efficiency `η = T1 / (p·Tp)` under the same time model the
/// EE computation uses (Eqs. 6/10) — Grama's isoefficiency metric.
pub fn performance_efficiency(m: &MachineParams, a: &AppParams, p: usize) -> f64 {
    model::t1(m, a) / (p as f64 * model::tp(m, a, p))
}

/// The performance-isoefficiency workload: smallest `n` with `η ≥ target`
/// (bisection over a monotone `n ↦ η`), or `None` if unreachable.
pub fn iso_efficiency_workload(
    app: &dyn crate::apps::AppModel,
    m: &MachineParams,
    p: usize,
    target: f64,
    n_lo: f64,
    n_hi: f64,
) -> Option<f64> {
    assert!(n_lo > 1.0 && n_hi > n_lo, "invalid bracket");
    assert!(target > 0.0 && target < 1.0, "target must be in (0,1)");
    let eta = |n: f64| performance_efficiency(m, &app.app_params(n, p), p);
    if eta(n_hi) < target {
        return None;
    }
    if eta(n_lo) >= target {
        return Some(n_lo);
    }
    let (mut lo, mut hi) = (n_lo, n_hi);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if eta(mid) >= target {
            hi = mid;
        } else {
            lo = mid;
        }
        if (hi - lo) / hi < 1e-9 {
            break;
        }
    }
    Some(hi)
}

/// Power-aware speedup (Ge & Cameron): the speedup of running on `p`
/// processors at frequency `f` relative to one processor at the *nominal*
/// frequency, with on-chip time scaled by `f_ref/f` and off-chip time
/// frequency-invariant.
pub fn power_aware_speedup(m: &MachineParams, a: &AppParams, p: usize, f_hz: f64) -> f64 {
    let nominal = m.at_frequency(m.f_ref_hz);
    let scaled = m.at_frequency(f_hz);
    model::t1(&nominal, a) / model::tp(&scaled, a, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{AppModel, CgModel, FtModel};

    fn mach() -> MachineParams {
        MachineParams::system_g(2.8e9)
    }

    #[test]
    fn amdahl_limits() {
        assert_eq!(amdahl_speedup(0.0, 8), 8.0);
        assert!((amdahl_speedup(1.0, 64) - 1.0).abs() < 1e-12);
        // 5% serial caps speedup at 20x.
        assert!(amdahl_speedup(0.05, 1_000_000) < 20.0);
        assert!(amdahl_speedup(0.05, 1_000_000) > 19.0);
    }

    #[test]
    fn performance_efficiency_is_one_without_overheads() {
        let m = mach();
        let a = AppParams::ideal(1e9);
        for p in [1usize, 8, 512] {
            assert!((performance_efficiency(&m, &a, p) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn performance_efficiency_decays_like_ee_for_ft() {
        // The two metrics agree on the ranking of p (both decay), while
        // only EE carries the power dimension.
        let m = mach();
        let ft = FtModel::system_g();
        let n = (1u64 << 20) as f64;
        let eta_16 = performance_efficiency(&m, &ft.app_params(n, 16), 16);
        let eta_512 = performance_efficiency(&m, &ft.app_params(n, 512), 512);
        assert!(eta_16 > eta_512);
    }

    #[test]
    fn iso_efficiency_contour_grows_with_p() {
        let m = mach();
        let ft = FtModel::system_g();
        let n32 = iso_efficiency_workload(&ft, &m, 32, 0.7, 1e3, 1e12).unwrap();
        let n256 = iso_efficiency_workload(&ft, &m, 256, 0.7, 1e3, 1e12).unwrap();
        assert!(n256 > n32);
    }

    #[test]
    fn power_aware_speedup_reduces_to_plain_speedup_at_nominal_f() {
        let m = mach();
        let a = AppParams::ideal(1e10);
        let s = power_aware_speedup(&m, &a, 16, 2.8e9);
        assert!((s - 16.0).abs() < 1e-9);
    }

    #[test]
    fn downclocking_costs_speedup_for_compute_bound_work() {
        let m = mach();
        let a = AppParams::ideal(1e10);
        let s_hi = power_aware_speedup(&m, &a, 16, 2.8e9);
        let s_lo = power_aware_speedup(&m, &a, 16, 1.6e9);
        assert!((s_hi / s_lo - 2.8 / 1.6).abs() < 1e-9);
    }

    #[test]
    fn baseline_is_blind_to_cg_frequency_preference() {
        // The paper's core argument: power-aware speedup ranks frequencies
        // purely by time (higher f always wins), while EE knows that for
        // CG the *energy* ranking also favors high f but for EP it does
        // not — the speedup baseline cannot make that distinction at all.
        let m = mach();
        let cg = CgModel::system_g();
        let a = cg.app_params(75_000.0, 64);
        let s_hi = power_aware_speedup(&m, &a, 64, 2.8e9);
        let s_lo = power_aware_speedup(&m, &a, 64, 1.6e9);
        assert!(s_hi > s_lo, "speedup always prefers high f");
        // EE agrees for CG...
        let ee_hi = model::ee(&m, &a, 64).expect("baseline energy is positive");
        let ee_lo = model::ee(&m.at_frequency(1.6e9), &a, 64).expect("baseline energy is positive");
        assert!(ee_hi > ee_lo);
        // ...but the baseline would say the same for EP, where EE (barely)
        // disagrees — the energy dimension the baseline lacks.
        let ep = crate::apps::EpModel::system_g();
        let ae = ep.app_params(4e6, 64);
        let ee_ep_hi = model::ee(&m, &ae, 64).expect("baseline energy is positive");
        let ee_ep_lo =
            model::ee(&m.at_frequency(1.6e9), &ae, 64).expect("baseline energy is positive");
        assert!(ee_ep_lo >= ee_ep_hi, "EP's EE does not reward high f");
    }
}
