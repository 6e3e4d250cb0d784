//! The model-invariant pass: dimensional sanity of the Table-1/Table-2
//! parameter vectors and the structural facts of Eqs. 13–21.
//!
//! Everything here reports [`Finding`]s instead of panicking, so a seeded
//! unit-inconsistent vector (a negative latency, a NaN power delta) is
//! *detected*, not crashed on — the analyzer's whole point.

use isoee::{model, AppParams, MachineParams};
use simcluster::units::{Accesses, Bytes, Instructions, Joules, Messages, Seconds};

use crate::Finding;

/// Relative tolerance for the floating-point identities checked below.
const REL_TOL: f64 = 1e-9;

/// Dimensional sanity of a machine vector (Table 1): latencies must be
/// positive finite durations, powers non-negative finite, the DVFS state
/// physically meaningful.
#[must_use]
pub fn check_machine(m: &MachineParams) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut positive = |name: &'static str, v: f64| {
        if !(v.is_finite() && v > 0.0) {
            findings.push(Finding::InvalidParameter {
                name,
                value: v,
                requirement: "a positive finite magnitude",
            });
        }
    };
    positive("tc", m.tc.raw());
    positive("tm", m.tm.raw());
    positive("ts", m.ts.raw());
    positive("tw", m.tw.raw());
    positive("f_hz", m.f_hz);
    positive("f_ref_hz", m.f_ref_hz);
    positive("cpi", m.cpi);
    let mut non_negative = |name: &'static str, v: f64| {
        if !(v.is_finite() && v >= 0.0) {
            findings.push(Finding::InvalidParameter {
                name,
                value: v,
                requirement: "a non-negative finite power",
            });
        }
    };
    non_negative("P_sys_idle", m.p_sys_idle.raw());
    non_negative("dPc", m.delta_pc.raw());
    non_negative("dPm", m.delta_pm.raw());
    non_negative("dP_nic", m.delta_pnic.raw());
    non_negative("dP_io", m.delta_pio.raw());
    if !(m.gamma.is_finite() && m.gamma >= 1.0) {
        findings.push(Finding::InvalidParameter {
            name: "gamma",
            value: m.gamma,
            requirement: "finite and >= 1 (Eq. 20)",
        });
    }
    // Cross-check the frequency law: tc must equal CPI / f. A vector that
    // fails this was assembled from inconsistent units (e.g. tc in
    // nanoseconds against f in Hz).
    if findings.is_empty() {
        let derived = Instructions::new(m.cpi) / simcluster::units::Hertz::new(m.f_hz);
        if (m.tc - derived).abs() > Seconds::new(REL_TOL * derived.raw().max(f64::MIN_POSITIVE)) {
            findings.push(Finding::BrokenInvariant {
                invariant: "tc == CPI / f",
                details: format!("tc = {}, but CPI/f = {}", m.tc, derived),
            });
        }
    }
    findings
}

/// Dimensional sanity of an application vector (Table 2) — the
/// non-panicking analogue of [`AppParams::validate`].
#[must_use]
pub fn check_app(a: &AppParams) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !(a.alpha.is_finite() && a.alpha > 0.0 && a.alpha <= 1.0) {
        findings.push(Finding::InvalidParameter {
            name: "alpha",
            value: a.alpha,
            requirement: "in (0, 1]",
        });
    }
    if !(a.wc.is_finite() && a.wc >= Instructions::ZERO) {
        findings.push(Finding::InvalidParameter {
            name: "Wc",
            value: a.wc.raw(),
            requirement: "a non-negative finite workload",
        });
    }
    if !(a.wm.is_finite() && a.wm >= Accesses::ZERO) {
        findings.push(Finding::InvalidParameter {
            name: "Wm",
            value: a.wm.raw(),
            requirement: "a non-negative finite workload",
        });
    }
    // Overheads may be negative (strong-scaling memory relief) but totals
    // must stay physical.
    if !a.woc.is_finite() || a.wc + a.woc < Instructions::ZERO {
        findings.push(Finding::InvalidParameter {
            name: "Woc",
            value: a.woc.raw(),
            requirement: "finite with Wc + Woc >= 0",
        });
    }
    if !a.wom.is_finite() || a.wm + a.wom < Accesses::ZERO {
        findings.push(Finding::InvalidParameter {
            name: "Wom",
            value: a.wom.raw(),
            requirement: "finite with Wm + Wom >= 0",
        });
    }
    if !(a.messages.is_finite() && a.messages >= Messages::ZERO) {
        findings.push(Finding::InvalidParameter {
            name: "M",
            value: a.messages.raw(),
            requirement: "a non-negative finite count",
        });
    }
    if !(a.bytes.is_finite() && a.bytes >= Bytes::ZERO) {
        findings.push(Finding::InvalidParameter {
            name: "B",
            value: a.bytes.raw(),
            requirement: "a non-negative finite count",
        });
    }
    if !(a.t_io.is_finite() && a.t_io >= Seconds::ZERO) {
        findings.push(Finding::InvalidParameter {
            name: "T_IO",
            value: a.t_io.raw(),
            requirement: "a non-negative finite duration",
        });
    }
    findings
}

/// The model's structural invariants at one `(Mach, Appl, p)` point:
///
/// * `E1 > 0` (a positive workload burns positive energy);
/// * `EEF >= 0` whenever all overheads are non-negative;
/// * `EE ∈ (0, 1]` under the same condition;
/// * `Ep >= E1` (running on more processors can't spend *less* than the
///   sequential baseline when overheads are non-negative), with equality
///   for the zero-overhead ideal app.
///
/// Parameter-vector findings from [`check_machine`]/[`check_app`] are
/// returned first; the model is only evaluated on sane vectors.
#[must_use]
pub fn check_model(m: &MachineParams, a: &AppParams, p: usize) -> Vec<Finding> {
    let mut findings = check_machine(m);
    findings.extend(check_app(a));
    if !findings.is_empty() {
        return findings;
    }

    let e1 = model::e1(m, a);
    let ep = model::ep(m, a, p);
    if !(e1.is_finite() && e1 > Joules::ZERO) {
        findings.push(Finding::BrokenInvariant {
            invariant: "E1 > 0",
            details: format!("E1 = {e1} for a non-degenerate workload"),
        });
        return findings;
    }

    let non_negative_overheads = a.woc >= Instructions::ZERO
        && a.wom >= Accesses::ZERO
        && a.messages >= Messages::ZERO
        && a.bytes >= Bytes::ZERO;
    let tol = Joules::new(REL_TOL * e1.raw().max(1.0));

    match model::eef(m, a, p) {
        Ok(eef) => {
            if non_negative_overheads && eef < -REL_TOL {
                findings.push(Finding::BrokenInvariant {
                    invariant: "EEF >= 0",
                    details: format!("EEF = {eef} with non-negative overheads at p = {p}"),
                });
            }
            let ee = 1.0 / (1.0 + eef);
            if non_negative_overheads && !(ee > 0.0 && ee <= 1.0 + REL_TOL) {
                findings.push(Finding::BrokenInvariant {
                    invariant: "EE in (0, 1]",
                    details: format!("EE = {ee} at p = {p}"),
                });
            }
        }
        Err(err) => findings.push(Finding::BrokenInvariant {
            invariant: "EEF is defined",
            details: err.to_string(),
        }),
    }

    if non_negative_overheads && ep < e1 - tol {
        findings.push(Finding::BrokenInvariant {
            invariant: "Ep >= E1",
            details: format!("Ep = {ep} < E1 = {e1} at p = {p}"),
        });
    }
    let zero_overheads = a.woc == Instructions::ZERO
        && a.wom == Accesses::ZERO
        && a.messages == Messages::ZERO
        && a.bytes == Bytes::ZERO;
    if zero_overheads && (ep - e1).abs() > tol {
        findings.push(Finding::BrokenInvariant {
            invariant: "Ep == E1 for the ideal app",
            details: format!("Ep = {ep} vs E1 = {e1} at p = {p}"),
        });
    }
    findings
}

/// Accounting cross-check for one pooled surface sweep of `rows × cols`
/// points: the pool must report exactly one executed task per row (the
/// sweep's unit of parallelism), and the model-eval counter must have
/// advanced exactly `rows × cols` — every grid point evaluated once, none
/// skipped, none double-counted. `task_delta` / `eval_delta` are the
/// `pool.tasks_executed` / `isoee.model_evals` counter deltas observed
/// across the sweep.
///
/// Because the sweep engine's reduction is index-ordered and its per-row
/// error handling short-circuits *within* a row only, these equalities
/// hold at every thread count; a miss means a task ran twice, a row was
/// dropped, or an evaluation bypassed the counted path.
#[must_use]
pub fn check_sweep_accounting(
    rows: usize,
    cols: usize,
    task_delta: u64,
    eval_delta: u64,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let rows_u64 = rows as u64;
    let points = rows_u64 * cols as u64;
    if task_delta != rows_u64 {
        findings.push(Finding::BrokenInvariant {
            invariant: "pool tasks == sweep rows",
            details: format!(
                "pool.tasks_executed advanced by {task_delta} across a \
                 {rows}x{cols} sweep (expected {rows_u64})"
            ),
        });
    }
    if eval_delta != points {
        findings.push(Finding::BrokenInvariant {
            invariant: "model evals == rows * cols",
            details: format!(
                "isoee.model_evals advanced by {eval_delta} across a \
                 {rows}x{cols} sweep (expected {points})"
            ),
        });
    }
    findings
}
