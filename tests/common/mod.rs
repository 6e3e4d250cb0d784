//! The differential oracle: Eqs. 5–21 and Eq. 20 written out directly in
//! the `simcluster::units` algebra, one function per equation, with none
//! of the library's factoring. The library evaluates the same equations
//! through one shared term kernel; agreement bit for bit with this
//! independent derivation is what pins that kernel's association order.
//!
//! The sweep helpers at the bottom are the plain sequential loops the
//! library's pooled, batched sweeps must reproduce: same axes, same
//! row-major first-error index, same bisection and argmax.

use isoee::apps::AppModel;
use isoee::{AppParams, MachineParams, ModelError, Surface, SweepError};
use simcluster::units::{Hertz, Instructions, Joules, Seconds};

/// `base` re-evaluated at `f_hz` (Eq. 20): `tc = CPI/f`, `ΔPc ∝ f^γ`.
pub fn at_frequency(base: &MachineParams, f_hz: f64) -> MachineParams {
    assert!(f_hz.is_finite() && f_hz > 0.0, "invalid frequency {f_hz}");
    let mut m = *base;
    m.tc = Instructions::new(base.cpi) / Hertz::new(f_hz);
    m.delta_pc = base.delta_pc * (f_hz / base.f_hz).powf(base.gamma);
    m.f_hz = f_hz;
    m
}

/// `T1 = α·(Wc·tc + Wm·tm + T_IO)` (Eqs. 5–6).
pub fn t1(m: &MachineParams, a: &AppParams) -> Seconds {
    a.alpha * (a.wc * m.tc + a.wm * m.tm + a.t_io)
}

/// `M·ts + B·tw` (Eq. 17).
pub fn t_net(m: &MachineParams, a: &AppParams) -> Seconds {
    a.messages * m.ts + a.bytes * m.tw
}

/// `Tp = α·((Wc+Woc)·tc + (Wm+Wom)·tm + M·ts + B·tw + T_IO) / p` (Eq. 10).
pub fn tp(m: &MachineParams, a: &AppParams, p: usize) -> Seconds {
    assert!(p > 0, "need at least one processor");
    a.alpha * ((a.wc + a.woc) * m.tc + (a.wm + a.wom) * m.tm + t_net(m, a) + a.t_io) / p as f64
}

/// `E1` (Eq. 13).
pub fn e1(m: &MachineParams, a: &AppParams) -> Joules {
    t1(m, a) * m.p_sys_idle
        + a.wc * m.tc * m.delta_pc
        + a.wm * m.tm * m.delta_pm
        + a.t_io * m.delta_pio
}

/// `Ep` (Eqs. 14–15, 18).
pub fn ep(m: &MachineParams, a: &AppParams, p: usize) -> Joules {
    tp(m, a, p) * p as f64 * m.p_sys_idle
        + (a.wc + a.woc) * m.tc * m.delta_pc
        + (a.wm + a.wom) * m.tm * m.delta_pm
        + t_net(m, a) * m.delta_pnic
        + a.t_io * m.delta_pio
}

/// `E0 = Ep − E1` (Eqs. 1, 16).
pub fn e0(m: &MachineParams, a: &AppParams, p: usize) -> Joules {
    ep(m, a, p) - e1(m, a)
}

/// `EEF = E0 / E1` (Eqs. 3, 19).
pub fn eef(m: &MachineParams, a: &AppParams, p: usize) -> Result<f64, ModelError> {
    let base = e1(m, a);
    if !(base.is_finite() && base > Joules::ZERO) {
        return Err(ModelError::DegenerateBaseline { e1: base });
    }
    Ok(e0(m, a, p) / base)
}

/// `EE = 1 / (1 + EEF)` (Eqs. 2, 4, 21).
pub fn ee(m: &MachineParams, a: &AppParams, p: usize) -> Result<f64, ModelError> {
    Ok(1.0 / (1.0 + eef(m, a, p)?))
}

/// Row-major `EE` surface from per-cell evaluations; the first failing
/// cell in row-major order is the error.
fn surface(
    ys: &[f64],
    ps: &[usize],
    mut cell: impl FnMut(f64, usize) -> Result<f64, ModelError>,
) -> Result<Surface, SweepError> {
    let mut values = Vec::with_capacity(ys.len());
    for (i, &y) in ys.iter().enumerate() {
        let mut row = Vec::with_capacity(ps.len());
        for (j, &p) in ps.iter().enumerate() {
            let v = cell(y, p).map_err(|source| SweepError {
                index: i * ps.len() + j,
                source,
            })?;
            row.push(v);
        }
        values.push(row);
    }
    Ok(Surface {
        ys: ys.to_vec(),
        xs: ps.iter().map(|&p| p as f64).collect(),
        values,
    })
}

/// `EE(p, f)` at workload `n`: rows are frequencies.
pub fn surface_pf(
    app: &dyn AppModel,
    base: &MachineParams,
    n: f64,
    ps: &[usize],
    fs: &[f64],
) -> Result<Surface, SweepError> {
    surface(fs, ps, |f, p| {
        ee(&at_frequency(base, f), &app.app_params(n, p), p)
    })
}

/// `EE(p, n)` at the machine's own frequency: rows are workloads.
pub fn surface_pn(
    app: &dyn AppModel,
    mach: &MachineParams,
    ps: &[usize],
    ns: &[f64],
) -> Result<Surface, SweepError> {
    let m = at_frequency(mach, mach.f_hz);
    surface(ns, ps, |n, p| ee(&m, &app.app_params(n, p), p))
}

/// The smallest `n ∈ [n_lo, n_hi]` with `EE(n, p) ≥ target`, by bisection.
pub fn iso_ee_workload(
    app: &dyn AppModel,
    mach: &MachineParams,
    p: usize,
    target: f64,
    n_lo: f64,
    n_hi: f64,
) -> Result<Option<f64>, ModelError> {
    let ee_at = |n: f64| ee(mach, &app.app_params(n, p), p);
    if ee_at(n_hi)? < target {
        return Ok(None);
    }
    if ee_at(n_lo)? >= target {
        return Ok(Some(n_lo));
    }
    let (mut lo, mut hi) = (n_lo, n_hi);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if ee_at(mid)? >= target {
            hi = mid;
        } else {
            lo = mid;
        }
        if (hi - lo) / hi < 1e-9 {
            break;
        }
    }
    Ok(Some(hi))
}

/// [`iso_ee_workload`] at every `p`; the first failing `p` is the error.
pub fn iso_ee_contour(
    app: &dyn AppModel,
    mach: &MachineParams,
    ps: &[usize],
    target: f64,
    n_lo: f64,
    n_hi: f64,
) -> Result<Vec<Option<f64>>, SweepError> {
    ps.iter()
        .enumerate()
        .map(|(index, &p)| {
            iso_ee_workload(app, mach, p, target, n_lo, n_hi)
                .map_err(|source| SweepError { index, source })
        })
        .collect()
}

/// The frequency maximizing `EE` at `(n, p)`; ties keep the last maximum.
pub fn best_frequency(
    app: &dyn AppModel,
    base: &MachineParams,
    n: f64,
    p: usize,
    freqs: &[f64],
) -> Result<(f64, f64), SweepError> {
    let a = app.app_params(n, p);
    let mut probed = Vec::with_capacity(freqs.len());
    for (index, &f) in freqs.iter().enumerate() {
        let e = ee(&at_frequency(base, f), &a, p).map_err(|source| SweepError { index, source })?;
        probed.push((f, e));
    }
    Ok(probed
        .into_iter()
        .max_by(|x, y| x.1.partial_cmp(&y.1).expect("finite EE"))
        .expect("non-empty"))
}
