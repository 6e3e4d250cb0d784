//! Scalability analysis: the paper's §V.B decision-making use cases.
//!
//! * EE surfaces over `(p, f)` and `(p, n)` — the data behind Figs. 5–9.
//! * The iso-energy-efficiency *contour*: the workload `n(p)` that holds
//!   `EE` at a target as the system scales (the energy analog of Grama's
//!   isoefficiency function).
//! * A DVFS advisor: the frequency that maximizes `EE` at a given `(n, p)`.
//!
//! ## Parallel evaluation
//!
//! Surfaces, contours and the advisor fan their independent evaluation
//! points out over the [`pool`] work-stealing thread pool (surface rows,
//! per-`p` bisections, per-frequency advisor probes). Results are reduced
//! in index order, so parallel output is **bit-identical** to the
//! sequential path at any `POOL_THREADS` — `tests/parallel_equivalence.rs`
//! enforces that contract. The `*_with` variants take an explicit
//! [`PoolConfig`]; the plain functions use the process-wide
//! [`pool::global`] config.
//!
//! ## Degenerate points
//!
//! A parameter point with a non-positive or non-finite sequential baseline
//! energy (`model::ee`'s [`ModelError::DegenerateBaseline`]) no longer
//! aborts a sweep: every sweep entry point returns `Result`, carrying the
//! *first* degenerate evaluation in the sweep's deterministic index order
//! as a [`SweepError`].
//!
//! The `*_scalar_with` surface paths and the advisor *pre-certify* their
//! grids with the interval abstract interpreter
//! ([`crate::interval`]) before any pool task is spawned: a clean grid is
//! usually proven degenerate-free with one interval evaluation per
//! column, and a degenerate grid is rejected up front with exactly the
//! `SweepError` the dynamic sweep would have produced (same index, same
//! error — the pre-pass confirms undecided cells with the exact model,
//! outside the `isoee.model_evals` counter). The batched surface paths
//! instead scan each row's `E1` column after its branch-free evaluation —
//! the scan is as cheap as the evaluation itself and yields the identical
//! first `SweepError`, so a per-sweep interval pass would be pure
//! overhead there; [`crate::batch::PfGrid::certify`] still proves a grid
//! clean *without* evaluating it.
//!
//! ## Batch kernel routing
//!
//! The surfaces evaluate through the batched columnar grids
//! ([`crate::batch`]): column-invariant Eq. 13/15 factors are derived once
//! per column and each pool task evaluates a whole row into flat `f64`
//! buffers. The `*_scalar_with` variants evaluate the same grids one
//! [`crate::model::ee`] call per cell; they are the per-point reference
//! the sweep bench compares against.

use crate::apps::AppModel;
use crate::model::{self, ModelError};
use crate::params::{AppParams, MachineParams};
pub use pool::PoolConfig;

/// A sweep hit a parameter point the ratio model cannot evaluate.
///
/// `index` is the flat position of the first failing evaluation in the
/// sweep's deterministic order (row-major for surfaces, axis order for
/// contours and the advisor) — the same index at any thread count. A rank
/// count the app model does not admit ([`AppModel::admits`]) fails the
/// whole sweep before anything is evaluated, at its row-0 position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepError {
    /// Flat index of the first degenerate evaluation.
    pub index: usize,
    /// The model error at that point.
    pub source: ModelError,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep point {} is degenerate: {}",
            self.index, self.source
        )
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// `EE` with the degenerate-baseline case carried out as an error instead
/// of a panic, so one bad point cannot abort a whole parallel sweep.
///
/// Every call bumps the `isoee.model_evals` counter (one relaxed atomic
/// add), so sweep throughput shows up in the obs metrics snapshot.
fn ee_checked(mach: &MachineParams, a: &AppParams, p: usize) -> Result<f64, ModelError> {
    model_evals_counter().inc();
    model::ee(mach, a, p)
}

/// Refuse a sweep over `ps` when the app model does not admit one of its
/// rank counts: once per grid, before any pool task evaluates a cell.
fn admit(app: &dyn AppModel, ps: &[usize]) -> Result<(), SweepError> {
    match ps.iter().position(|&p| !app.admits(p)) {
        Some(index) => Err(SweepError {
            index,
            source: ModelError::UnsupportedRanks {
                app: app.name(),
                p: ps[index],
            },
        }),
        None => Ok(()),
    }
}

/// Process-wide count of EE model evaluations performed by the sweeps.
fn model_evals_counter() -> &'static std::sync::Arc<obs::Counter> {
    static EVALS: std::sync::OnceLock<std::sync::Arc<obs::Counter>> = std::sync::OnceLock::new();
    EVALS.get_or_init(|| obs::global().counter("isoee.model_evals"))
}

/// Per-point EE evaluation latency, amortized: each surface row takes one
/// `Instant` pair and records `row_elapsed / cols` once per column, so the
/// ~50ns model evaluations are never individually timed.
fn eval_latency_hist() -> &'static std::sync::Arc<obs::LogHistogram> {
    static HIST: std::sync::OnceLock<std::sync::Arc<obs::LogHistogram>> =
        std::sync::OnceLock::new();
    HIST.get_or_init(|| obs::global().log_histogram("isoee.eval_latency_s", "s"))
}

static EVAL_TIMING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Enable or disable per-point eval-latency timing for the surface sweeps
/// (`isoee.eval_latency_s`). Returns the previous setting. Timing is on by
/// default; the sweep bench flips it off to measure instrumentation overhead.
pub fn set_eval_timing(enabled: bool) -> bool {
    EVAL_TIMING.swap(enabled, std::sync::atomic::Ordering::Relaxed)
}

fn eval_timing_enabled() -> bool {
    EVAL_TIMING.load(std::sync::atomic::Ordering::Relaxed)
}

/// Run one surface row, recording amortized per-point latency when timing
/// is enabled.
fn timed_row<T>(cols: usize, row: impl FnOnce() -> T) -> T {
    if cols == 0 || !eval_timing_enabled() {
        return row();
    }
    let start = std::time::Instant::now();
    let out = row();
    eval_latency_hist().record_n(start.elapsed().as_secs_f64() / cols as f64, cols as u64);
    out
}

/// A rectangular sweep of `EE` values: `values[i][j]` is `EE` at
/// `ys[i]` × `xs[j]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Surface {
    /// Row axis (frequency in Hz, or workload n).
    pub ys: Vec<f64>,
    /// Column axis (processor counts).
    pub xs: Vec<f64>,
    /// `EE` values, `values[y][x]`.
    pub values: Vec<Vec<f64>>,
}

impl Surface {
    /// Look up the value at row `i`, column `j`.
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.values[i][j]
    }

    /// Minimum EE in the surface.
    pub fn min(&self) -> f64 {
        self.values
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum EE in the surface.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .flatten()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Assemble a surface from parallel-evaluated rows, reducing in row-major
/// index order: the first degenerate cell by `(row, col)` wins, at any
/// thread count.
fn collect_rows(
    ys: &[f64],
    xs: Vec<f64>,
    rows: Vec<Result<Vec<f64>, (usize, ModelError)>>,
    cols: usize,
) -> Result<Surface, SweepError> {
    let mut values = Vec::with_capacity(rows.len());
    for (i, row) in rows.into_iter().enumerate() {
        match row {
            Ok(v) => values.push(v),
            Err((j, source)) => {
                return Err(SweepError {
                    index: i * cols + j,
                    source,
                })
            }
        }
    }
    Ok(Surface {
        ys: ys.to_vec(),
        xs,
        values,
    })
}

/// `EE(p, f)` at fixed workload `n` (Figs. 5, 7, 9), on the global pool.
///
/// `base` supplies the frequency-independent machine parameters; each row
/// re-evaluates it at one of `fs` via Eq. 20.
///
/// # Errors
/// Returns the first degenerate evaluation in row-major order as a
/// [`SweepError`].
pub fn ee_surface_pf(
    app: &dyn AppModel,
    base: &MachineParams,
    n: f64,
    ps: &[usize],
    fs: &[f64],
) -> Result<Surface, SweepError> {
    ee_surface_pf_with(pool::global(), app, base, n, ps, fs)
}

/// [`ee_surface_pf`] on an explicit pool config: column factors once, one
/// pool task per frequency row.
///
/// # Errors
/// Returns the first degenerate evaluation in row-major order as a
/// [`SweepError`].
pub fn ee_surface_pf_with(
    cfg: &PoolConfig,
    app: &dyn AppModel,
    base: &MachineParams,
    n: f64,
    ps: &[usize],
    fs: &[f64],
) -> Result<Surface, SweepError> {
    admit(app, ps)?;
    let grid = crate::batch::PfGrid::new(app, base, n, ps);
    let rows = pool::parallel_map(cfg, fs, |&f| {
        timed_row(ps.len(), || {
            model_evals_counter().add(ps.len() as u64);
            grid.eval_row(f)
        })
    });
    collect_rows(fs, ps.iter().map(|&p| p as f64).collect(), rows, ps.len())
}

/// [`ee_surface_pf_with`] evaluated with one [`crate::model::ee`] call per
/// cell, after an interval pre-certification of the grid: the per-point
/// reference the sweep bench times the batched grid against.
///
/// # Errors
/// Returns the first degenerate evaluation in row-major order as a
/// [`SweepError`].
pub fn ee_surface_pf_scalar_with(
    cfg: &PoolConfig,
    app: &dyn AppModel,
    base: &MachineParams,
    n: f64,
    ps: &[usize],
    fs: &[f64],
) -> Result<Surface, SweepError> {
    admit(app, ps)?;
    if !ps.is_empty() && !fs.is_empty() {
        if let Some((index, source)) =
            crate::interval::certify_pf_grid(app, base, n, ps, fs).degenerate
        {
            return Err(SweepError { index, source });
        }
    }
    let rows = pool::parallel_map(cfg, fs, |&f| {
        timed_row(ps.len(), || {
            let mach = base.at_frequency(f);
            ps.iter()
                .enumerate()
                .map(|(j, &p)| ee_checked(&mach, &app.app_params(n, p), p).map_err(|e| (j, e)))
                .collect()
        })
    });
    collect_rows(fs, ps.iter().map(|&p| p as f64).collect(), rows, ps.len())
}

/// `EE(p, n)` at the fixed frequency of `mach` (Figs. 6, 8), on the global
/// pool.
///
/// # Errors
/// Returns the first degenerate evaluation in row-major order as a
/// [`SweepError`].
pub fn ee_surface_pn(
    app: &dyn AppModel,
    mach: &MachineParams,
    ps: &[usize],
    ns: &[f64],
) -> Result<Surface, SweepError> {
    ee_surface_pn_with(pool::global(), app, mach, ps, ns)
}

/// [`ee_surface_pn`] on an explicit pool config: the machine is fixed
/// once (a per-point sweep re-derives `at_frequency(f_hz)` per row — the
/// same machine every time), one pool task per workload row.
///
/// # Errors
/// Returns the first degenerate evaluation in row-major order as a
/// [`SweepError`].
pub fn ee_surface_pn_with(
    cfg: &PoolConfig,
    app: &dyn AppModel,
    mach: &MachineParams,
    ps: &[usize],
    ns: &[f64],
) -> Result<Surface, SweepError> {
    admit(app, ps)?;
    let grid = crate::batch::PnGrid::new(app, mach, ps);
    let rows = pool::parallel_map(cfg, ns, |&n| {
        timed_row(ps.len(), || {
            model_evals_counter().add(ps.len() as u64);
            grid.eval_row(n)
        })
    });
    collect_rows(ns, ps.iter().map(|&p| p as f64).collect(), rows, ps.len())
}

/// [`ee_surface_pn_with`] evaluated with one [`crate::model::ee`] call per
/// cell (see [`ee_surface_pf_scalar_with`]).
///
/// # Errors
/// Returns the first degenerate evaluation in row-major order as a
/// [`SweepError`].
pub fn ee_surface_pn_scalar_with(
    cfg: &PoolConfig,
    app: &dyn AppModel,
    mach: &MachineParams,
    ps: &[usize],
    ns: &[f64],
) -> Result<Surface, SweepError> {
    admit(app, ps)?;
    if !ps.is_empty() && !ns.is_empty() {
        if let Some((index, source)) =
            crate::interval::certify_pn_grid(app, mach, ps, ns).degenerate
        {
            return Err(SweepError { index, source });
        }
    }
    let rows = pool::parallel_map(cfg, ns, |&n| {
        timed_row(ps.len(), || {
            let m = mach.at_frequency(mach.f_hz);
            ps.iter()
                .enumerate()
                .map(|(j, &p)| ee_checked(&m, &app.app_params(n, p), p).map_err(|e| (j, e)))
                .collect()
        })
    });
    collect_rows(ns, ps.iter().map(|&p| p as f64).collect(), rows, ps.len())
}

/// The iso-energy-efficiency workload: the smallest `n ∈ [n_lo, n_hi]` with
/// `EE(n, p) ≥ target`, found by bisection (EE is monotone non-decreasing
/// in `n` for overhead-dominated applications like FT and CG).
///
/// Returns `Ok(None)` if even `n_hi` cannot reach the target.
///
/// # Errors
/// Returns [`ModelError::DegenerateBaseline`] if the bisection probes a
/// degenerate parameter point (e.g. a bracket reaching a zero workload).
///
/// # Panics
/// Panics on an invalid bracket or a target outside `(0, 1)`.
pub fn iso_ee_workload(
    app: &dyn AppModel,
    mach: &MachineParams,
    p: usize,
    target: f64,
    n_lo: f64,
    n_hi: f64,
) -> Result<Option<f64>, ModelError> {
    assert!(n_lo > 1.0 && n_hi > n_lo, "invalid bracket");
    assert!(target > 0.0 && target < 1.0, "target EE must be in (0,1)");
    if !app.admits(p) {
        return Err(ModelError::UnsupportedRanks { app: app.name(), p });
    }
    let ee_at = |n: f64| ee_checked(mach, &app.app_params(n, p), p);
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

/// The iso-EE contour across parallelism levels, on the global pool:
/// `result[k]` is [`iso_ee_workload`] at `ps[k]` (`None` where the target
/// is unreachable below `n_hi`).
///
/// # Errors
/// Returns the first degenerate bisection (by position in `ps`) as a
/// [`SweepError`].
///
/// # Panics
/// Panics on an invalid bracket or a target outside `(0, 1)`.
pub fn iso_ee_contour(
    app: &dyn AppModel,
    mach: &MachineParams,
    ps: &[usize],
    target: f64,
    n_lo: f64,
    n_hi: f64,
) -> Result<Vec<Option<f64>>, SweepError> {
    iso_ee_contour_with(pool::global(), app, mach, ps, target, n_lo, n_hi)
}

/// [`iso_ee_contour`] on an explicit pool config; the per-`p` bisections
/// run in parallel (each bisection itself is inherently sequential).
///
/// # Errors
/// Returns the first degenerate bisection (by position in `ps`) as a
/// [`SweepError`].
///
/// # Panics
/// Panics on an invalid bracket or a target outside `(0, 1)`.
pub fn iso_ee_contour_with(
    cfg: &PoolConfig,
    app: &dyn AppModel,
    mach: &MachineParams,
    ps: &[usize],
    target: f64,
    n_lo: f64,
    n_hi: f64,
) -> Result<Vec<Option<f64>>, SweepError> {
    let results = pool::parallel_map(cfg, ps, |&p| {
        iso_ee_workload(app, mach, p, target, n_lo, n_hi)
    });
    results
        .into_iter()
        .enumerate()
        .map(|(index, r)| r.map_err(|source| SweepError { index, source }))
        .collect()
}

/// The DVFS state in `freqs` maximizing `EE` at `(n, p)`, on the global
/// pool; returns `(best_f, best_ee)`.
///
/// # Errors
/// Returns the first degenerate frequency (by position in `freqs`) as a
/// [`SweepError`].
///
/// # Panics
/// Panics when `freqs` is empty or an `EE` value is not comparable.
pub fn best_frequency(
    app: &dyn AppModel,
    base: &MachineParams,
    n: f64,
    p: usize,
    freqs: &[f64],
) -> Result<(f64, f64), SweepError> {
    best_frequency_with(pool::global(), app, base, n, p, freqs)
}

/// [`best_frequency`] on an explicit pool config; the per-frequency
/// probes run in parallel and the argmax reduces in index order (ties keep
/// the last maximal frequency, matching the sequential `max_by`).
///
/// # Errors
/// Returns the first degenerate frequency (by position in `freqs`) as a
/// [`SweepError`].
///
/// # Panics
/// Panics when `freqs` is empty or an `EE` value is not comparable.
pub fn best_frequency_with(
    cfg: &PoolConfig,
    app: &dyn AppModel,
    base: &MachineParams,
    n: f64,
    p: usize,
    freqs: &[f64],
) -> Result<(f64, f64), SweepError> {
    assert!(!freqs.is_empty(), "need at least one frequency");
    admit(app, &[p])?;
    if let Some((index, source)) =
        crate::interval::certify_frequency_probes(app, base, n, p, freqs).degenerate
    {
        return Err(SweepError { index, source });
    }
    let a = app.app_params(n, p);
    let ees = pool::parallel_map(cfg, freqs, |&f| ee_checked(&base.at_frequency(f), &a, p));
    let mut probed = Vec::with_capacity(freqs.len());
    for (index, (f, ee)) in freqs.iter().zip(ees).enumerate() {
        probed.push((*f, ee.map_err(|source| SweepError { index, source })?));
    }
    Ok(probed
        .into_iter()
        .max_by(|x, y| x.1.partial_cmp(&y.1).expect("finite EE"))
        .expect("non-empty"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{CgModel, EpModel, FtModel};

    fn mach() -> MachineParams {
        MachineParams::system_g(2.8e9)
    }

    fn ee_value(m: &MachineParams, a: &AppParams, p: usize) -> f64 {
        ee_checked(m, a, p).expect("surface point has a positive baseline energy")
    }

    const DVFS: [f64; 4] = [1.6e9, 2.0e9, 2.4e9, 2.8e9];

    #[test]
    fn ft_surface_shape_matches_fig5() {
        let ft = FtModel::system_g();
        let ps = [1usize, 4, 16, 64, 256, 1024];
        let s = ee_surface_pf(&ft, &mach(), (1u64 << 20) as f64, &ps, &DVFS).expect("sweep ok");
        // Declines along p at every frequency (small cache ripple allowed).
        for row in &s.values {
            for w in row.windows(2) {
                assert!(w[1] <= w[0] + 0.01, "EE_FT must decline with p: {row:?}");
            }
            assert!(
                row[0] - row[ps.len() - 1] > 0.25,
                "collapse by p=1024: {row:?}"
            );
        }
        // Nearly flat along f at every p.
        for j in 0..ps.len() {
            let col: Vec<f64> = (0..DVFS.len()).map(|i| s.at(i, j)).collect();
            let spread = col.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - col.iter().copied().fold(f64::INFINITY, f64::min);
            assert!(spread < 0.15, "EE_FT spread over f too large: {col:?}");
        }
    }

    #[test]
    fn ep_surface_is_flat_near_one() {
        let ep = EpModel::system_g();
        let s = ee_surface_pf(&ep, &mach(), 4e6, &[1, 8, 64, 128], &DVFS).expect("sweep ok");
        assert!(
            s.min() > 0.97,
            "Fig. 7: EE_EP ≈ 1 everywhere, min {}",
            s.min()
        );
        assert!(s.max() <= 1.0 + 1e-12);
    }

    #[test]
    fn cg_surface_rises_with_f() {
        let cg = CgModel::system_g();
        let ps = [4usize, 16, 64];
        let s = ee_surface_pf(&cg, &mach(), 75_000.0, &ps, &DVFS).expect("sweep ok");
        for (j, &p) in ps.iter().enumerate() {
            assert!(
                s.at(DVFS.len() - 1, j) > s.at(0, j),
                "Fig. 9: EE_CG must rise with f at p={p}",
            );
        }
    }

    #[test]
    fn pn_surfaces_rise_with_n() {
        let m = mach();
        let ns = [5e5, 2e6, 8e6, 3.2e7];
        let ft = FtModel::system_g();
        let s = ee_surface_pn(&ft, &m, &[64], &ns).expect("sweep ok");
        for i in 1..ns.len() {
            assert!(
                s.at(i, 0) >= s.at(i - 1, 0) - 1e-9,
                "Fig. 6: EE_FT must rise with n"
            );
        }
    }

    #[test]
    fn iso_ee_contour_grows_with_p() {
        // The iso-energy-efficiency function: holding EE = 0.7 as p grows
        // requires growing n (and how fast it grows is the scalability
        // metric, as in performance isoefficiency).
        let ft = FtModel::system_g();
        let m = mach();
        let ps = [32usize, 128, 512];
        let ns = iso_ee_contour(&ft, &m, &ps, 0.7, 1e3, 1e12).expect("no degenerate points");
        let mut prev = 0.0;
        for (p, n) in ps.iter().zip(ns) {
            let n = n.expect("target reachable");
            assert!(n > prev, "n({p}) = {n} must grow");
            prev = n;
        }
    }

    #[test]
    fn iso_ee_returns_none_when_unreachable() {
        let ft = FtModel::system_g();
        let m = mach();
        // EE = 0.999 at p=1024 requires astronomically large n.
        let r = iso_ee_workload(&ft, &m, 1024, 0.999, 1e4, 1e7).expect("no degenerate points");
        assert!(r.is_none());
    }

    #[test]
    fn best_frequency_for_cg_is_the_top_state() {
        let cg = CgModel::system_g();
        let (f, ee) = best_frequency(&cg, &mach(), 75_000.0, 64, &DVFS).expect("sweep ok");
        assert_eq!(f, 2.8e9, "Fig. 9: scale frequency up for CG");
        assert!(ee > 0.0);
    }

    #[test]
    fn bisection_result_actually_achieves_target() {
        let cg = CgModel::system_g();
        let m = mach();
        let target = 0.95;
        let n = iso_ee_workload(&cg, &m, 64, target, 1e3, 1e9)
            .expect("no degenerate points")
            .expect("reachable");
        let ee = ee_value(&m, &cg.app_params(n, 64), 64);
        assert!(ee >= target - 1e-6, "EE({n}) = {ee} < {target}");
        // And just below n the target fails (minimality up to tolerance).
        let ee_below = ee_value(&m, &cg.app_params(n * 0.98, 64), 64);
        assert!(ee_below <= target + 1e-3);
    }

    /// Test model whose baseline energy degenerates (to the all-zero
    /// workload) below a workload threshold — the real app models assert
    /// their way out of such inputs, but calibration-fed parameter sets
    /// can reach them.
    struct ThresholdModel;

    impl AppModel for ThresholdModel {
        fn name(&self) -> &'static str {
            "threshold"
        }

        fn app_params(&self, n: f64, _p: usize) -> AppParams {
            if n < 1e6 {
                AppParams::ideal(0.0)
            } else {
                AppParams::ideal(n)
            }
        }
    }

    #[test]
    fn degenerate_point_is_an_error_not_an_abort() {
        // A zero workload makes E1 = 0: the first degenerate cell (row 0,
        // col 0 in row-major order) must surface as a SweepError, not a
        // panic, and the index must be independent of the thread count.
        let app = ThresholdModel;
        let m = mach();
        let seq = ee_surface_pn_with(&PoolConfig::sequential(), &app, &m, &[4, 16], &[1e3, 1e7])
            .expect_err("zero workload is degenerate");
        assert_eq!(seq.index, 0);
        for threads in [2usize, 8] {
            let par = ee_surface_pn_with(
                &PoolConfig::with_threads(threads),
                &app,
                &m,
                &[4, 16],
                &[1e3, 1e7],
            )
            .expect_err("zero workload is degenerate");
            assert_eq!(par, seq, "threads={threads}");
        }
        // Degenerate row *after* a clean row: row-major index = 1 row in.
        let err =
            ee_surface_pn(&app, &m, &[4, 16], &[1e7, 1e3]).expect_err("zero workload degenerate");
        assert_eq!(err.index, 2);
        let ModelError::DegenerateBaseline { e1 } = err.source else {
            panic!("expected a degenerate baseline, got {:?}", err.source);
        };
        assert_eq!(e1, simcluster::units::Joules::ZERO);
        // A clean grid on the same model still evaluates.
        let ok = ee_surface_pn(&app, &m, &[4, 16], &[1e7, 1e8]).expect("clean grid");
        assert!(ok.min() > 0.9);
    }

    #[test]
    fn unsupported_rank_counts_are_typed_errors_not_pool_panics() {
        let m = MachineParams::system_g(2.8e9);
        let err = ee_surface_pn(&CgModel::system_g(), &m, &[4, 6, 8], &[1e6, 1e7])
            .expect_err("CG has no processor grid at p = 6");
        assert_eq!(err.index, 1);
        assert_eq!(err.source, ModelError::UnsupportedRanks { app: "CG", p: 6 });
        assert!(err.to_string().contains("p = 6"), "{err}");
        let pf = ee_surface_pf(&CgModel::system_g(), &m, 1e6, &[6], &[2.8e9]);
        assert_eq!(pf.expect_err("p = 6").index, 0);
        let best = best_frequency(&CgModel::system_g(), &m, 1e6, 12, &[2.8e9]);
        assert_eq!(
            best.expect_err("p = 12").source,
            ModelError::UnsupportedRanks { app: "CG", p: 12 }
        );
        let contour = iso_ee_contour(&CgModel::system_g(), &m, &[4, 6], 0.5, 1e3, 1e9);
        assert_eq!(contour.expect_err("p = 6").index, 1);
    }

    #[test]
    fn degenerate_contour_and_advisor_carry_errors_out() {
        let app = ThresholdModel;
        let m = mach();
        // Every frequency probe is degenerate at a sub-threshold workload:
        // the advisor reports the first probe, not a panic.
        let err = best_frequency(&app, &m, 1e3, 16, &DVFS).expect_err("degenerate workload");
        assert_eq!(err.index, 0);
        // The bisection's low-bracket probe is degenerate for every p.
        let err = iso_ee_contour(&app, &m, &[8, 16], 0.5, 1e3, 1e9)
            .expect_err("degenerate bracket endpoint");
        assert_eq!(err.index, 0);
        // The single-p entry point carries the same error as a ModelError.
        let err = iso_ee_workload(&app, &m, 8, 0.5, 1e3, 1e9).expect_err("degenerate bracket");
        let ModelError::DegenerateBaseline { e1 } = err else {
            panic!("expected a degenerate baseline, got {err:?}");
        };
        assert_eq!(e1, simcluster::units::Joules::ZERO);
    }
}
