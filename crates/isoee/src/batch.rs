//! Batched columnar evaluation of the Eq. 13/15 sweep grids.
//!
//! A per-point model call re-derives every term at every grid point: a
//! `(p, f)` sweep would call [`AppModel::app_params`] once per *cell* even
//! though the application vector only varies per column. This module
//! evaluates the term kernel of `terms.rs` (the same expressions
//! [`crate::model`] and [`crate::interval`] instantiate) split by axis:
//!
//! * **column-invariant** (per application vector, frequency-free): the
//!   kernel's factors — `Wm·tm`, `(Wm+Wom)·tm`, `T_net = M·ts + B·tw` and
//!   the memory, NIC and I/O energies — derived once per column;
//! * **row-varying** (Eq. 20): `tc = CPI/f` and `ΔPc ∝ f^γ` — two scalars
//!   per row, via [`MachineParams::at_frequency`];
//! * **grid-constant**: `P_sys_idle`.
//!
//! One further hoist applies to every built-in NPB model: the sequential
//! terms of Eq. 13 (`α`, `Wc`, `Wm·tm`, `T_IO` and their energies) do not
//! depend on `p`, so all columns of a `(p, f)` grid share them bit-for-bit
//! and `E1` collapses to one evaluation per row. The grid *detects* this
//! by comparing column bits at construction rather than assuming it, so a
//! custom [`AppModel`] with `p`-dependent sequential terms falls back to
//! the per-column evaluation. Reusing a value computed from identical
//! bits never changes a result, so every grid cell is bit-identical to
//! [`crate::model::ee`] at that point; `tests/batch_equivalence.rs` pins
//! both against an independent test-side derivation.
//!
//! Degenerate baselines are not carried as per-point `Result`s: each row
//! is evaluated branch-free into an `E1` scratch column, and a separate
//! scan reports the first failing cell — the deterministic row-major
//! first-error index of a per-point sweep.
//!
//! Because the application vector is derived **once per column**, the
//! batch path requires [`AppModel::app_params`] to be a pure function of
//! `(n, p)` — true of every model in [`crate::apps`], whose coefficient
//! tables are fixed at construction.

use simcluster::units::{Joules, Seconds};

use crate::apps::AppModel;
use crate::interval::GridCertification;
use crate::model::{self, ModelError};
use crate::params::{AppParams, MachineParams};
use crate::terms::{self, Factors, ParFactors, Row, SeqFactors};

/// Scan an `E1` column for the first degenerate cell, mirroring a
/// per-point sweep's within-row short-circuit: the error index and
/// payload are identical at any thread count.
fn first_degenerate(e1s: &[f64]) -> Result<(), (usize, ModelError)> {
    for (j, &e1) in e1s.iter().enumerate() {
        model::checked(e1, ()).map_err(|err| (j, err))?;
    }
    Ok(())
}

/// The Eq. 5–15 terms of one point evaluation, unit-typed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Terms {
    /// Actual sequential time `T1` (Eq. 6).
    pub t1: Seconds,
    /// Actual per-processor parallel time `Tp` (Eq. 10).
    pub tp: Seconds,
    /// Sequential energy `E1` (Eq. 13).
    pub e1: Joules,
    /// Parallel energy `Ep` (Eq. 15/18).
    pub ep: Joules,
}

/// One point evaluated once: the raw terms plus the ratio results with
/// the model's degenerate-baseline handling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointEval {
    /// The Eq. 5–15 terms.
    pub terms: Terms,
    /// `EEF = E0/E1` (Eq. 19), or the degenerate-baseline error.
    pub eef: Result<f64, ModelError>,
    /// `EE = 1/(1+EEF)` (Eq. 21), or the degenerate-baseline error.
    pub ee: Result<f64, ModelError>,
}

/// Evaluate every term of one `(Mach, Appl, p)` point in one pass — the
/// values [`crate::model`]'s separate functions return.
///
/// # Panics
/// Panics when `p == 0`.
#[must_use]
pub fn evaluate(m: &MachineParams, a: &AppParams, p: usize) -> PointEval {
    let v = model::point(m, a, p);
    PointEval {
        terms: Terms {
            t1: Seconds::new(v.t1),
            tp: Seconds::new(v.tp),
            e1: Joules::new(v.e1),
            ep: Joules::new(v.ep),
        },
        eef: model::checked(v.e1, v.eef),
        ee: model::checked(v.e1, v.ee),
    }
}

/// A `(p, f)` grid (Figs. 5, 7, 9) with its column factors precomputed:
/// the application vector is derived once per column, and each row only
/// updates the two Eq. 20 scalars.
pub struct PfGrid<'a> {
    app: &'a dyn AppModel,
    base: &'a MachineParams,
    n: f64,
    ps: Vec<usize>,
    p_f64: Vec<f64>,
    seq: Vec<SeqFactors<f64>>,
    par: Vec<ParFactors<f64>>,
    /// Every column shares the `E1` factors bit-for-bit.
    uniform_e1: bool,
}

impl<'a> PfGrid<'a> {
    /// Precompute the column factors for `ps` at workload `n`.
    ///
    /// # Panics
    /// Panics when any `p == 0` (as the scalar model would on first
    /// evaluation).
    #[must_use]
    pub fn new(app: &'a dyn AppModel, base: &'a MachineParams, n: f64, ps: &[usize]) -> Self {
        let (seq, par): (Vec<SeqFactors<f64>>, Vec<ParFactors<f64>>) = ps
            .iter()
            .map(|&p| {
                assert!(p > 0, "need at least one processor");
                let f = Factors::of_params(base, &app.app_params(n, p));
                (f.seq, f.par)
            })
            .unzip();
        let uniform_e1 = seq
            .split_first()
            .is_some_and(|(s0, rest)| rest.iter().all(|s| s.bits() == s0.bits()));
        #[allow(clippy::cast_precision_loss)]
        let p_f64 = ps.iter().map(|&p| p as f64).collect();
        Self {
            app,
            base,
            n,
            ps: ps.to_vec(),
            p_f64,
            seq,
            par,
            uniform_e1,
        }
    }

    /// Number of columns (`ps.len()`).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.ps.len()
    }

    /// Evaluate one frequency row into caller-provided buffers.
    ///
    /// # Errors
    /// Returns the first degenerate cell's column index and model error
    /// (the scalar path's within-row first error).
    ///
    /// # Panics
    /// Panics when the buffers don't span the columns, or on an invalid
    /// frequency.
    pub fn eval_row_into(
        &self,
        f_hz: f64,
        ee_out: &mut [f64],
        e1_out: &mut [f64],
    ) -> Result<(), (usize, ModelError)> {
        let k = self.cols();
        assert!(
            ee_out.len() == k && e1_out.len() == k,
            "row buffers must span the {k} columns"
        );
        let row = Row::of_params(&self.base.at_frequency(f_hz));
        if self.uniform_e1 {
            // Every column would compute these same E1 bits, so the first
            // degenerate cell of the row is its first column.
            let s0 = &self.seq[0];
            let (_, e1) = s0.sequential(&row);
            e1_out.fill(e1);
            model::checked(e1, ()).map_err(|err| (0, err))?;
            for ((par, &p), ee) in self.par.iter().zip(&self.p_f64).zip(ee_out.iter_mut()) {
                let (_, ep) = par.parallel(s0, &row, p);
                *ee = terms::ratios(e1, ep).1;
            }
            return Ok(());
        }
        let cols = self.seq.iter().zip(&self.par).zip(&self.p_f64);
        for (((&seq, &par), &p), (ee, e1)) in cols.zip(ee_out.iter_mut().zip(e1_out.iter_mut())) {
            let v = Factors { seq, par }.point(&row, p);
            (*ee, *e1) = (v.ee, v.e1);
        }
        first_degenerate(e1_out)
    }

    /// Evaluate one frequency row into a fresh `EE` vector.
    ///
    /// # Errors
    /// Returns the first degenerate cell's column index and model error.
    ///
    /// # Panics
    /// Panics on an invalid frequency.
    pub fn eval_row(&self, f_hz: f64) -> Result<Vec<f64>, (usize, ModelError)> {
        let k = self.cols();
        let mut ee = vec![0.0; k];
        let mut e1 = vec![0.0; k];
        self.eval_row_into(f_hz, &mut ee, &mut e1)?;
        Ok(ee)
    }

    /// Certify the whole `(p, f)` grid degenerate-free ahead of time,
    /// without evaluating it: [`crate::interval::certify_pf_grid`] on this
    /// grid's axes.
    ///
    /// # Panics
    /// Panics when `fs` is empty or the grid has no columns.
    #[must_use]
    pub fn certify(&self, fs: &[f64]) -> GridCertification {
        crate::interval::certify_pf_grid(self.app, self.base, self.n, &self.ps, fs)
    }
}

/// A `(p, n)` grid (Figs. 6, 8) with the machine fixed: a per-point sweep
/// re-derives `mach.at_frequency(mach.f_hz)` per row, which is the same
/// machine every time — here it is computed once. The application vector
/// depends on both axes, so the factors stay per-cell.
pub struct PnGrid<'a> {
    app: &'a dyn AppModel,
    mach: MachineParams,
    row: Row<f64>,
    ps: Vec<usize>,
    p_f64: Vec<f64>,
}

impl<'a> PnGrid<'a> {
    /// Fix the machine (at its own frequency, mirroring the scalar row
    /// setup bit-for-bit) for `ps` columns.
    ///
    /// # Panics
    /// Panics when any `p == 0`.
    #[must_use]
    pub fn new(app: &'a dyn AppModel, mach: &MachineParams, ps: &[usize]) -> Self {
        let m = mach.at_frequency(mach.f_hz);
        for &p in ps {
            assert!(p > 0, "need at least one processor");
        }
        #[allow(clippy::cast_precision_loss)]
        let p_f64: Vec<f64> = ps.iter().map(|&p| p as f64).collect();
        Self {
            app,
            row: Row::of_params(&m),
            mach: m,
            ps: ps.to_vec(),
            p_f64,
        }
    }

    /// Number of columns (`ps.len()`).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.ps.len()
    }

    /// The fixed machine rows evaluate against (the scalar path's
    /// `mach.at_frequency(mach.f_hz)`).
    #[must_use]
    pub fn machine(&self) -> &MachineParams {
        &self.mach
    }

    /// Evaluate one workload row into caller-provided buffers.
    ///
    /// # Errors
    /// Returns the first degenerate cell's column index and model error.
    ///
    /// # Panics
    /// Panics when the buffers don't span the columns.
    pub fn eval_row_into(
        &self,
        n: f64,
        ee_out: &mut [f64],
        e1_out: &mut [f64],
    ) -> Result<(), (usize, ModelError)> {
        let k = self.cols();
        assert!(
            ee_out.len() == k && e1_out.len() == k,
            "row buffers must span the {k} columns"
        );
        for (j, (&p, &pf)) in self.ps.iter().zip(&self.p_f64).enumerate() {
            let v = Factors::of_params(&self.mach, &self.app.app_params(n, p)).point(&self.row, pf);
            e1_out[j] = v.e1;
            ee_out[j] = v.ee;
        }
        first_degenerate(e1_out)
    }

    /// Evaluate one workload row into a fresh `EE` vector.
    ///
    /// # Errors
    /// Returns the first degenerate cell's column index and model error.
    pub fn eval_row(&self, n: f64) -> Result<Vec<f64>, (usize, ModelError)> {
        let k = self.cols();
        let mut ee = vec![0.0; k];
        let mut e1 = vec![0.0; k];
        self.eval_row_into(n, &mut ee, &mut e1)?;
        Ok(ee)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{CgModel, FtModel};

    fn mach() -> MachineParams {
        MachineParams::system_g(2.8e9)
    }

    #[test]
    fn pf_rows_match_the_scalar_loop() {
        let m = mach();
        let ft = FtModel::system_g();
        let n = (1u64 << 20) as f64;
        let ps = [1usize, 3, 7, 16, 100, 1024];
        let grid = PfGrid::new(&ft, &m, n, &ps);
        for f in [1.6e9, 2.2e9, 2.8e9] {
            let row = grid.eval_row(f).expect("clean row");
            let mf = m.at_frequency(f);
            for (j, &p) in ps.iter().enumerate() {
                let oracle = model::ee(&mf, &ft.app_params(n, p), p).expect("clean point");
                assert_eq!(row[j].to_bits(), oracle.to_bits(), "p={p} f={f}");
            }
        }
    }

    #[test]
    fn pn_rows_match_the_scalar_loop() {
        let m = mach();
        let cg = CgModel::system_g();
        let ps = [4usize, 16, 64];
        let grid = PnGrid::new(&cg, &m, &ps);
        for n in [75_000.0, 150_000.0, 600_000.0] {
            let row = grid.eval_row(n).expect("clean row");
            let mr = m.at_frequency(m.f_hz);
            for (j, &p) in ps.iter().enumerate() {
                let oracle = model::ee(&mr, &cg.app_params(n, p), p).expect("clean point");
                assert_eq!(row[j].to_bits(), oracle.to_bits(), "p={p} n={n}");
            }
        }
    }

    #[test]
    fn degenerate_cells_surface_the_scalar_error() {
        let m = mach();
        struct Thresh;
        impl AppModel for Thresh {
            fn name(&self) -> &'static str {
                "thresh"
            }
            fn app_params(&self, n: f64, _p: usize) -> AppParams {
                if n < 1e6 {
                    AppParams::ideal(0.0)
                } else {
                    AppParams::ideal(n)
                }
            }
        }
        let grid = PnGrid::new(&Thresh, &m, &[4, 16]);
        let (j, err) = grid.eval_row(1e3).expect_err("zero workload is degenerate");
        assert_eq!(j, 0);
        assert_eq!(
            err,
            ModelError::DegenerateBaseline {
                e1: simcluster::units::Joules::ZERO
            }
        );
        assert!(grid.eval_row(1e7).is_ok());
    }
}
