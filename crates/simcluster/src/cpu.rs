//! CPU specification: `tc = CPI / f` (paper Table 1) and DVFS-scaled power.

use crate::freq::DvfsTable;
use crate::power::PowerLaw;
use crate::units::{Hertz, Instructions, Seconds, Watts};

/// A per-core CPU description.
///
/// The analytical model's machine-dependent vector uses a single number for
/// the CPU: the average time per on-chip instruction `tc = CPI / f`
/// (Patterson & Hennessy, paper's \[28\]). The simulator keeps the `CPI` and
/// the DVFS table so `tc` can be evaluated at any P-state, plus the power
/// law for `ΔP_c(f)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Average cycles per on-chip instruction for a typical instruction mix.
    ///
    /// Real codes deviate from this (EP's arithmetic-heavy mix differs from
    /// CG's pointer chasing); per-application effective CPI is *measured* by
    /// the `microbench::perfmon` analog, mirroring the paper's methodology.
    pub base_cpi: f64,
    /// Available DVFS states.
    pub dvfs: DvfsTable,
    /// Idle power of one core, in watts (frequency-independent).
    pub idle_w: f64,
    /// Active delta power law `ΔP_c(f)`.
    pub delta: PowerLaw,
}

impl CpuSpec {
    /// Construct a CPU spec.
    ///
    /// # Panics
    /// Panics on non-positive `base_cpi` or negative `idle_w`.
    pub fn new(base_cpi: f64, dvfs: DvfsTable, idle_w: f64, delta: PowerLaw) -> Self {
        assert!(
            base_cpi.is_finite() && base_cpi > 0.0,
            "CPI must be positive, got {base_cpi}"
        );
        assert!(
            idle_w.is_finite() && idle_w >= 0.0,
            "idle power must be non-negative, got {idle_w} W"
        );
        Self {
            base_cpi,
            dvfs,
            idle_w,
            delta,
        }
    }

    /// Average time per on-chip instruction at frequency `f_hz`:
    /// `tc = CPI / f` (Table 1).
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite frequency.
    #[must_use]
    pub fn tc(&self, f_hz: f64) -> Seconds {
        assert!(
            f_hz.is_finite() && f_hz > 0.0,
            "invalid frequency {f_hz} Hz"
        );
        Instructions::new(self.base_cpi) / Hertz::new(f_hz)
    }

    /// `tc` at the nominal (highest) DVFS state.
    #[must_use]
    pub fn tc_nominal(&self) -> Seconds {
        self.tc(self.dvfs.nominal())
    }

    /// Active delta power at frequency `f_hz`.
    #[must_use]
    pub fn delta_power(&self, f_hz: f64) -> Watts {
        self.delta.delta_at(f_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xeon() -> CpuSpec {
        CpuSpec::new(
            0.9,
            DvfsTable::from_ghz(&[1.6, 2.0, 2.4, 2.8]),
            10.0,
            PowerLaw::new(12.5, 2.8e9, 2.0),
        )
    }

    #[test]
    fn tc_is_cpi_over_f() {
        let c = xeon();
        assert!((c.tc(2.8e9).raw() - 0.9 / 2.8e9).abs() < 1e-24);
    }

    #[test]
    fn tc_grows_when_frequency_drops() {
        let c = xeon();
        assert!(c.tc(1.6e9) > c.tc(2.8e9));
    }

    #[test]
    fn nominal_uses_top_state() {
        let c = xeon();
        assert_eq!(c.tc_nominal(), c.tc(2.8e9));
    }

    #[test]
    fn delta_power_scales_with_dvfs() {
        let c = xeon();
        let hi = c.delta_power(2.8e9).raw();
        let lo = c.delta_power(1.6e9).raw();
        // gamma = 2: (1.6/2.8)^2 ≈ 0.3265
        assert!((lo / hi - (1.6f64 / 2.8).powi(2)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "CPI must be positive")]
    fn zero_cpi_panics() {
        CpuSpec::new(
            0.0,
            DvfsTable::from_ghz(&[2.0]),
            5.0,
            PowerLaw::new(10.0, 2.0e9, 2.0),
        );
    }
}
