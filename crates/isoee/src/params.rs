//! The model's parameter vectors — the paper's Tables 1 and 2.
//!
//! **Machine-dependent** (Table 1), a function of frequency and bandwidth:
//!
//! ```text
//! Mach(f, BW) = (tc, tm, ts, tw, ΔPc, ΔPm, ΔP_NIC, ΔP_IO, P_sys_idle)
//! ```
//!
//! with `tc = CPI / f` and `ΔPc(f) = ΔPc_ref · (f / f_ref)^γ` (Eq. 20,
//! γ ≥ 1; γ = 2 on SystemG).
//!
//! **Application-dependent** (Table 2), a function of workload and
//! parallelism:
//!
//! ```text
//! Appl(n, p) = (α, Wc, Wm, Woc, Wom, M, B)
//! ```
//!
//! where `Wc`/`Wm` are the sequential on-chip/off-chip workloads, `Woc`/
//! `Wom` the parallelization overheads (totals across all processors;
//! `Wom` is frequently *negative* under strong scaling — shrinking per-rank
//! working sets genuinely reduce off-chip traffic), and `M`/`B` the message
//! and byte totals of Eq. 17.
//!
//! Both vectors carry their entries as [`simcluster::units`] newtypes, so a
//! latency cannot be added to a power and a workload tally cannot be used
//! as a duration without going through the dimensional algebra.

use simcluster::units::{Accesses, Bytes, Instructions, Messages, Seconds, Watts};
use simcluster::ClusterSpec;

/// Machine-dependent parameters (Table 1) at a specific DVFS state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Average time per on-chip instruction, `tc = CPI / f`.
    pub tc: Seconds,
    /// Average off-chip (DRAM) access latency `tm`.
    pub tm: Seconds,
    /// Message startup time `ts`.
    pub ts: Seconds,
    /// Per-byte transmission time `tw` (Table 1's 8-bit word).
    pub tw: Seconds,
    /// Per-processor system idle power `P_sys_idle`.
    pub p_sys_idle: Watts,
    /// CPU active delta `ΔPc` at this frequency.
    pub delta_pc: Watts,
    /// Memory active delta `ΔPm`.
    pub delta_pm: Watts,
    /// NIC active delta (the network term of Eq. 18).
    pub delta_pnic: Watts,
    /// Disk active delta `ΔP_IO` (≈ unused for NPB).
    pub delta_pio: Watts,
    /// The frequency these parameters describe (Hz).
    pub f_hz: f64,
    /// Reference (nominal) frequency for the power law (Hz).
    pub f_ref_hz: f64,
    /// Power-law exponent γ (Eq. 20).
    pub gamma: f64,
    /// Cycles per instruction (so `tc` can be re-derived at any `f`).
    pub cpi: f64,
}

impl MachineParams {
    /// Derive the vector directly from a cluster specification — the
    /// "ground truth" the calibration pipeline should recover.
    #[must_use]
    pub fn from_spec(spec: &ClusterSpec, f_hz: f64) -> Self {
        spec.validate();
        let node = &spec.node;
        let f_ref = node.cpu.dvfs.nominal();
        Self {
            tc: node.cpu.tc(f_hz),
            tm: Seconds::new(node.memory.dram_latency_s),
            ts: Seconds::new(spec.link.startup_s),
            tw: Seconds::new(spec.link.per_byte_s),
            p_sys_idle: node.system_idle_w(),
            delta_pc: node.cpu.delta_power(f_hz),
            delta_pm: node.memory.power.delta(),
            delta_pnic: node.nic.delta(),
            delta_pio: node.disk.delta(),
            f_hz,
            f_ref_hz: f_ref,
            gamma: node.cpu.delta.gamma,
            cpi: node.cpu.base_cpi,
        }
    }

    /// The SystemG vector at frequency `f_hz`.
    ///
    /// # Panics
    /// Panics when `f_hz` is off the DVFS table.
    #[must_use]
    pub fn system_g(f_hz: f64) -> Self {
        let spec = simcluster::system_g();
        assert!(
            spec.node.cpu.dvfs.contains(f_hz),
            "{f_hz} Hz is not a SystemG DVFS state"
        );
        Self::from_spec(&spec, f_hz)
    }

    /// The Dori vector at frequency `f_hz`.
    ///
    /// # Panics
    /// Panics when `f_hz` is off the DVFS table.
    #[must_use]
    pub fn dori(f_hz: f64) -> Self {
        let spec = simcluster::dori();
        assert!(
            spec.node.cpu.dvfs.contains(f_hz),
            "{f_hz} Hz is not a Dori DVFS state"
        );
        Self::from_spec(&spec, f_hz)
    }

    /// Re-evaluate the frequency-dependent entries at a new DVFS state
    /// (Eq. 20): `tc = CPI/f`, `ΔPc ∝ f^γ`; memory/network latencies and
    /// powers are frequency-independent.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite frequency.
    #[must_use]
    pub fn at_frequency(&self, f_hz: f64) -> Self {
        assert!(f_hz.is_finite() && f_hz > 0.0, "invalid frequency {f_hz}");
        let (tc, delta_pc) = crate::terms::frequency(self, f_hz);
        let mut m = *self;
        m.tc = Seconds::new(tc);
        m.delta_pc = Watts::new(delta_pc);
        m.f_hz = f_hz;
        m
    }
}

/// Application-dependent parameters (Table 2) at a specific `(n, p)`.
///
/// All workload fields are **totals across all processors** (the sums of
/// Eqs. 15–16), not per-processor values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppParams {
    /// Overlap factor `α ∈ (0, 1]` (§VI.F).
    pub alpha: f64,
    /// Sequential on-chip workload `Wc`.
    pub wc: Instructions,
    /// Sequential off-chip workload `Wm` (DRAM accesses).
    pub wm: Accesses,
    /// Parallel computation overhead `Woc` (total).
    pub woc: Instructions,
    /// Parallel memory overhead `Wom` (total, may be negative).
    pub wom: Accesses,
    /// Total messages `M`.
    pub messages: Messages,
    /// Total bytes `B`.
    pub bytes: Bytes,
    /// Flat sequential I/O time `T_IO` (≈ 0 for NPB).
    pub t_io: Seconds,
}

impl AppParams {
    /// A pure-compute workload with no overheads — the ideal iso-energy-
    /// efficient application (useful as a fixture and in property tests).
    #[must_use]
    pub fn ideal(wc: f64) -> Self {
        Self {
            alpha: 1.0,
            wc: Instructions::new(wc),
            wm: Accesses::ZERO,
            woc: Instructions::ZERO,
            wom: Accesses::ZERO,
            messages: Messages::ZERO,
            bytes: Bytes::ZERO,
            t_io: Seconds::ZERO,
        }
    }

    /// Build the vector from raw magnitudes, wrapping each in its unit —
    /// the boundary constructor for calibration pipelines and kernel
    /// workload formulas that compute in plain `f64`.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn from_raw(
        alpha: f64,
        wc: f64,
        wm: f64,
        woc: f64,
        wom: f64,
        messages: f64,
        bytes: f64,
        t_io: f64,
    ) -> Self {
        Self {
            alpha,
            wc: Instructions::new(wc),
            wm: Accesses::new(wm),
            woc: Instructions::new(woc),
            wom: Accesses::new(wom),
            messages: Messages::new(messages),
            bytes: Bytes::new(bytes),
            t_io: Seconds::new(t_io),
        }
    }

    /// Validate physical sanity: workloads non-negative (overheads may be
    /// negative but must not exceed the base workload), α in (0, 1].
    ///
    /// # Panics
    /// Panics when a constraint is violated.
    pub fn validate(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha <= 1.0,
            "alpha must be in (0,1], got {}",
            self.alpha
        );
        assert!(
            self.wc >= Instructions::ZERO && self.wm >= Accesses::ZERO,
            "workloads must be non-negative"
        );
        assert!(
            self.wc + self.woc >= Instructions::ZERO,
            "total parallel compute workload must stay non-negative"
        );
        assert!(
            self.wm + self.wom >= Accesses::ZERO,
            "total parallel memory workload must stay non-negative"
        );
        assert!(
            self.messages >= Messages::ZERO
                && self.bytes >= Bytes::ZERO
                && self.t_io >= Seconds::ZERO,
            "counts must be non-negative"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_spec_matches_cluster_description() {
        let spec = simcluster::system_g();
        let m = MachineParams::from_spec(&spec, 2.8e9);
        assert!((m.tc.raw() - 0.9 / 2.8e9).abs() < 1e-24);
        assert_eq!(m.ts, Seconds::new(spec.link.startup_s));
        assert_eq!(m.tw, Seconds::new(spec.link.per_byte_s));
        assert_eq!(m.p_sys_idle, spec.node.system_idle_w());
        assert_eq!(m.gamma, 2.0);
    }

    #[test]
    fn at_frequency_rescales_tc_and_delta_pc_only() {
        let m = MachineParams::system_g(2.8e9);
        let lo = m.at_frequency(1.4e9);
        assert!((lo.tc - 2.0 * m.tc).abs() < Seconds::new(1e-20));
        // γ = 2: (1.4/2.8)² = 0.25.
        assert!((lo.delta_pc - 0.25 * m.delta_pc).abs() < Watts::new(1e-9));
        assert_eq!(lo.tm, m.tm);
        assert_eq!(lo.ts, m.ts);
        assert_eq!(lo.tw, m.tw);
        assert_eq!(lo.delta_pm, m.delta_pm);
        assert_eq!(lo.p_sys_idle, m.p_sys_idle);
    }

    #[test]
    fn at_frequency_is_consistent_with_from_spec() {
        let spec = simcluster::system_g();
        let hi = MachineParams::from_spec(&spec, 2.8e9);
        let direct = MachineParams::from_spec(&spec, 1.6e9);
        let derived = hi.at_frequency(1.6e9);
        assert!((direct.tc - derived.tc).abs() < Seconds::new(1e-20));
        assert!((direct.delta_pc - derived.delta_pc).abs() < Watts::new(1e-9));
    }

    #[test]
    fn ideal_app_validates() {
        AppParams::ideal(1e9).validate();
    }

    #[test]
    fn negative_wom_is_allowed_within_bounds() {
        let mut a = AppParams::ideal(1e9);
        a.wm = Accesses::new(100.0);
        a.wom = Accesses::new(-40.0);
        a.validate();
    }

    #[test]
    #[should_panic(expected = "stay non-negative")]
    fn wom_cannot_exceed_wm() {
        let mut a = AppParams::ideal(1e9);
        a.wm = Accesses::new(100.0);
        a.wom = Accesses::new(-140.0);
        a.validate();
    }

    #[test]
    #[should_panic(expected = "not a SystemG DVFS state")]
    fn system_g_rejects_off_table_frequency() {
        let _ = MachineParams::system_g(3.0e9);
    }

    #[test]
    fn from_raw_wraps_each_unit() {
        let a = AppParams::from_raw(0.9, 1e9, 1e6, 1e5, -1e3, 64.0, 4096.0, 0.5);
        assert_eq!(a.wc, Instructions::new(1e9));
        assert_eq!(a.wom, Accesses::new(-1e3));
        assert_eq!(a.bytes, Bytes::new(4096.0));
        assert_eq!(a.t_io, Seconds::new(0.5));
        a.validate();
    }
}
