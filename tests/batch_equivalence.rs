//! Differential suite pinning the library's term kernel — the point
//! model, the batched sweep grids, the contour and the advisor — **bit-
//! identical** (`f64::to_bits`, not approximate equality) to the
//! test-only oracle in `common/`, which writes the equations out directly
//! in the unit algebra.
//!
//! The trust argument is entirely differential: the same grids the
//! committed figures use (Figs. 5–9), the same decision procedures
//! (contour, DVFS advisor), and randomized parameter boxes — including
//! degenerate baselines, which must surface the *same* row-major
//! first-error index on both sides. Any divergence is a real bug: a
//! re-associated sum, a reciprocal-multiplied division, or a factor
//! cached with different rounding than the oracle's evaluation order.

mod common;

use isoee::apps::{AppModel, CgModel, EpModel, FtModel};
use isoee::interval::certify_pf_grid;
use isoee::scaling::{
    best_frequency_with, ee_surface_pf_with, ee_surface_pn_with, iso_ee_contour_with, PoolConfig,
    Surface, SweepError,
};
use isoee::{batch, AppParams, MachineParams, PfGrid};
use proptest::prelude::*;

/// The System G DVFS states every committed `(p, f)` figure sweeps.
const DVFS_G: [f64; 4] = [1.6e9, 2.0e9, 2.4e9, 2.8e9];

fn mach() -> MachineParams {
    MachineParams::system_g(2.8e9)
}

/// Bit-level surface comparison: every axis value and every cell.
fn assert_surface_bits(batch: &Surface, scalar: &Surface, what: &str) {
    assert_eq!(batch.ys.len(), scalar.ys.len(), "{what}: row count");
    assert_eq!(batch.xs.len(), scalar.xs.len(), "{what}: column count");
    for (a, b) in batch.ys.iter().zip(&scalar.ys) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: row axis");
    }
    for (a, b) in batch.xs.iter().zip(&scalar.xs) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: column axis");
    }
    for (i, (ra, rb)) in batch.values.iter().zip(&scalar.values).enumerate() {
        for (j, (a, b)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: cell ({i}, {j}) diverged: batch {a:?} vs scalar {b:?}"
            );
        }
    }
}

/// `(name, model, n, ps)` — one committed `(p, f)` figure grid.
type PfFigure = (&'static str, Box<dyn AppModel>, f64, Vec<usize>);

/// `(name, model, ps, ns)` — one committed `(p, n)` figure grid.
type PnFigure = (&'static str, Box<dyn AppModel>, Vec<usize>, Vec<f64>);

/// The committed `(p, f)` figure grids: Fig 5 (FT), Fig 7 (EP), Fig 9 (CG),
/// exactly as `crates/bench/src/bin/fig{5,7,9}.rs` sweep them.
fn pf_figures() -> Vec<PfFigure> {
    vec![
        (
            "fig5",
            Box::new(FtModel::system_g()) as Box<dyn AppModel>,
            (1u64 << 20) as f64,
            vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
        ),
        (
            "fig7",
            Box::new(EpModel::system_g()),
            (1u64 << 22) as f64,
            vec![1, 2, 4, 8, 16, 32, 64, 128],
        ),
        (
            "fig9",
            Box::new(CgModel::system_g()),
            75_000.0,
            vec![1, 4, 16, 64, 256, 1024],
        ),
    ]
}

/// The committed `(p, n)` figure grids: Fig 6 (FT), Fig 8 (CG).
fn pn_figures() -> Vec<PnFigure> {
    vec![
        (
            "fig6",
            Box::new(FtModel::system_g()) as Box<dyn AppModel>,
            vec![1, 4, 16, 64, 256, 1024],
            (16..=26).step_by(2).map(|k| (1u64 << k) as f64).collect(),
        ),
        (
            "fig8",
            Box::new(CgModel::system_g()),
            vec![1, 4, 16, 64, 256, 1024],
            vec![9_375.0, 18_750.0, 37_500.0, 75_000.0, 150_000.0, 300_000.0],
        ),
    ]
}

#[test]
fn committed_pf_figures_are_bit_identical() {
    let m = mach();
    let cfg = PoolConfig::sequential();
    for (name, app, n, ps) in pf_figures() {
        let b = ee_surface_pf_with(&cfg, app.as_ref(), &m, n, &ps, &DVFS_G)
            .expect("figure grid evaluates");
        let s =
            common::surface_pf(app.as_ref(), &m, n, &ps, &DVFS_G).expect("figure grid evaluates");
        assert_surface_bits(&b, &s, name);
    }
}

#[test]
fn committed_pn_figures_are_bit_identical() {
    let m = mach();
    let cfg = PoolConfig::sequential();
    for (name, app, ps, ns) in pn_figures() {
        let b =
            ee_surface_pn_with(&cfg, app.as_ref(), &m, &ps, &ns).expect("figure grid evaluates");
        let s = common::surface_pn(app.as_ref(), &m, &ps, &ns).expect("figure grid evaluates");
        assert_surface_bits(&b, &s, name);
    }
}

/// Triple-pin Fig 5 against a hand-rolled oracle loop (not a sweep helper
/// at all), so a bug shared by both sweep paths can't hide.
#[test]
fn fig5_matches_a_hand_rolled_model_loop() {
    let m = mach();
    let ft = FtModel::system_g();
    let n = (1u64 << 20) as f64;
    let ps = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    let s = ee_surface_pf_with(&PoolConfig::sequential(), &ft, &m, n, &ps, &DVFS_G)
        .expect("figure grid evaluates");
    for (i, &f) in DVFS_G.iter().enumerate() {
        let mf = common::at_frequency(&m, f);
        for (j, &p) in ps.iter().enumerate() {
            let oracle = common::ee(&mf, &ft.app_params(n, p), p).expect("clean point");
            assert_eq!(s.at(i, j).to_bits(), oracle.to_bits(), "f={f} p={p}");
        }
    }
}

/// Every Eq. 5–15 term (not just the final ratio) agrees bit-for-bit at
/// every committed figure point.
#[test]
fn point_terms_agree_on_all_figure_points() {
    let m = mach();
    for (_, app, n, ps) in pf_figures() {
        for &f in &DVFS_G {
            let mf = m.at_frequency(f);
            for &p in &ps {
                let a = app.app_params(n, p);
                let ev = batch::evaluate(&mf, &a, p);
                assert_eq!(
                    ev.terms.t1.raw().to_bits(),
                    common::t1(&mf, &a).raw().to_bits()
                );
                assert_eq!(
                    ev.terms.tp.raw().to_bits(),
                    common::tp(&mf, &a, p).raw().to_bits()
                );
                assert_eq!(
                    ev.terms.e1.raw().to_bits(),
                    common::e1(&mf, &a).raw().to_bits()
                );
                assert_eq!(
                    ev.terms.ep.raw().to_bits(),
                    common::ep(&mf, &a, p).raw().to_bits()
                );
                let (ee, oracle) = (
                    ev.ee.expect("clean point"),
                    common::ee(&mf, &a, p).expect("clean point"),
                );
                assert_eq!(ee.to_bits(), oracle.to_bits());
            }
        }
    }
}

#[test]
fn contour_and_advisor_match_the_scalar_oracle() {
    let m = mach();
    let cfg = PoolConfig::sequential();
    let ps = [16usize, 32, 64, 128, 256, 512, 1024];
    for (app, target) in [
        (Box::new(FtModel::system_g()) as Box<dyn AppModel>, 0.7),
        (Box::new(CgModel::system_g()) as Box<dyn AppModel>, 0.95),
    ] {
        let b = iso_ee_contour_with(&cfg, app.as_ref(), &m, &ps, target, 1e3, 1e12)
            .expect("no degenerate points");
        let s = common::iso_ee_contour(app.as_ref(), &m, &ps, target, 1e3, 1e12)
            .expect("no degenerate points");
        assert_eq!(b.len(), s.len());
        for (j, (nb, ns)) in b.iter().zip(&s).enumerate() {
            match (nb, ns) {
                (Some(nb), Some(ns)) => assert_eq!(
                    nb.to_bits(),
                    ns.to_bits(),
                    "{} contour diverged at column {j}",
                    app.name()
                ),
                (None, None) => {}
                _ => panic!("{} contour reachability diverged at column {j}", app.name()),
            }
        }
    }
    for (app, n) in [
        (
            Box::new(FtModel::system_g()) as Box<dyn AppModel>,
            (1u64 << 20) as f64,
        ),
        (Box::new(EpModel::system_g()), (1u64 << 22) as f64),
        (Box::new(CgModel::system_g()), 75_000.0),
    ] {
        for p in [1usize, 4, 64, 1024] {
            let b = best_frequency_with(&cfg, app.as_ref(), &m, n, p, &DVFS_G)
                .expect("advisor evaluates");
            let s =
                common::best_frequency(app.as_ref(), &m, n, p, &DVFS_G).expect("advisor evaluates");
            assert_eq!(
                b.0.to_bits(),
                s.0.to_bits(),
                "{} advisor f at p={p}",
                app.name()
            );
            assert_eq!(
                b.1.to_bits(),
                s.1.to_bits(),
                "{} advisor EE at p={p}",
                app.name()
            );
        }
    }
}

/// The shared-invariant certification on the batch grid must return the
/// *same* `GridCertification` as the standalone interval pass, on every
/// committed `(p, f)` figure.
#[test]
fn shared_certification_matches_the_interval_pass() {
    let m = mach();
    for (name, app, n, ps) in pf_figures() {
        let grid = PfGrid::new(app.as_ref(), &m, n, &ps);
        let shared = grid.certify(&DVFS_G);
        let standalone = certify_pf_grid(app.as_ref(), &m, n, &ps, &DVFS_G);
        assert_eq!(shared, standalone, "{name}");
        assert!(shared.is_clean(), "{name} must certify clean");
    }
}

/// An app model with one poisoned column: parallelism `p_bad` maps to the
/// all-zero vector, whose `E1 = 0` is degenerate. Pure in `(n, p)` like
/// every real model.
struct Poisoned {
    base: FtModel,
    p_bad: usize,
}

impl AppModel for Poisoned {
    fn name(&self) -> &'static str {
        "poisoned"
    }
    fn app_params(&self, n: f64, p: usize) -> AppParams {
        if p == self.p_bad {
            AppParams::ideal(0.0)
        } else {
            self.base.app_params(n, p)
        }
    }
}

#[test]
fn degenerate_grids_surface_the_same_first_error_index() {
    let m = mach();
    let cfg = PoolConfig::sequential();
    let app = Poisoned {
        base: FtModel::system_g(),
        p_bad: 16,
    };
    let n = (1u64 << 20) as f64;
    let ps = [1usize, 4, 16, 64, 256];
    // Column 2 is degenerate in every row; the first row-major failure is
    // row 0, column 2.
    let b = ee_surface_pf_with(&cfg, &app, &m, n, &ps, &DVFS_G).expect_err("poisoned grid");
    let s = common::surface_pf(&app, &m, n, &ps, &DVFS_G).expect_err("poisoned grid");
    assert_eq!(b, s, "pf sweep error");
    assert_eq!(b.index, 2);

    let ns: Vec<f64> = (18..=22).map(|k| (1u64 << k) as f64).collect();
    let b = ee_surface_pn_with(&cfg, &app, &m, &ps, &ns).expect_err("poisoned grid");
    let s = common::surface_pn(&app, &m, &ps, &ns).expect_err("poisoned grid");
    assert_eq!(b, s, "pn sweep error");
    assert_eq!(b.index, 2);
}

/// A pure synthetic model over a fixed base vector with `p`-dependent
/// overheads — and optionally a `p`-dependent `alpha`, which makes the
/// sequential Eq. 13 factors differ per column and forces the batch
/// kernel off its hoisted-`E1` fast path onto the general per-column
/// kernel. Both paths must stay bit-identical to the scalar oracle.
struct Synthetic {
    base: AppParams,
    vary_alpha: bool,
}

impl AppModel for Synthetic {
    fn name(&self) -> &'static str {
        "synthetic"
    }
    fn app_params(&self, n: f64, p: usize) -> AppParams {
        let mut a = self.base;
        let pf = p as f64;
        if self.vary_alpha {
            a.alpha = self.base.alpha / (1.0 + 0.01 * pf);
        }
        // Overheads grow with p and n mildly, like a real scaling model.
        a.woc = simcluster::units::Instructions::new(self.base.woc.raw() * pf + n.sqrt());
        a.bytes = simcluster::units::Bytes::new(self.base.bytes.raw() * pf.log2().max(1.0));
        a
    }
}

fn arb_base_app() -> impl Strategy<Value = AppParams> {
    (
        0.5f64..=1.0, // alpha
        1e6f64..1e12, // wc
        0.0f64..1e10, // wm
        0.0f64..1e8,  // woc (per-p slope)
        -0.5f64..0.5, // wom as a fraction of wm
        0.0f64..1e6,  // messages
        0.0f64..1e10, // bytes
        0.0f64..10.0, // t_io
    )
        .prop_map(|(alpha, wc, wm, woc, wom_frac, messages, bytes, t_io)| {
            AppParams::from_raw(alpha, wc, wm, woc, wom_frac * wm, messages, bytes, t_io)
        })
}

fn arb_machine() -> impl Strategy<Value = MachineParams> {
    // The named constructors insist on an on-table DVFS state; randomize
    // off-table frequencies through the Eq. 20 rescale instead.
    (any::<bool>(), 1.0e9f64..3.2e9).prop_map(|(dori, f)| {
        let base = if dori {
            MachineParams::dori(2.0e9)
        } else {
            MachineParams::system_g(2.8e9)
        };
        base.at_frequency(f)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random machine x random synthetic app x random `(p, f)` grid:
    /// batch and scalar sweeps agree bitwise, on both the hoisted-`E1`
    /// and the general per-column kernel.
    #[test]
    fn random_grids_are_bit_identical_to_the_scalar_oracle(
        base in arb_base_app(),
        m in arb_machine(),
        vary_alpha in any::<bool>(),
        n in 1e4f64..1e9,
        n_rows in 1usize..6,
        n_cols in 1usize..12,
        f_lo in 1.0e9f64..2.0e9,
        f_step in 5.0e7f64..4.0e8,
    ) {
        let app = Synthetic { base, vary_alpha };
        let fs: Vec<f64> = (0..n_rows).map(|i| f_lo + f_step * i as f64).collect();
        let ps: Vec<usize> = (1..=n_cols).map(|j| j * j).collect();
        let cfg = PoolConfig::sequential();
        let b = ee_surface_pf_with(&cfg, &app, &m, n, &ps, &fs).expect("finite params");
        let s = common::surface_pf(&app, &m, n, &ps, &fs).expect("finite params");
        prop_assert_eq!(b.ys.len(), s.ys.len());
        for (ra, rb) in b.values.iter().zip(&s.values) {
            for (a, b) in ra.iter().zip(rb) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Random single points: every term of the fused kernel agrees with
    /// the scalar model bit-for-bit, including the degenerate-baseline
    /// Ok/Err split.
    #[test]
    fn random_points_agree_on_every_term(
        a in arb_base_app(),
        m in arb_machine(),
        p in 1usize..4096,
    ) {
        let ev = batch::evaluate(&m, &a, p);
        prop_assert_eq!(ev.terms.t1.raw().to_bits(), common::t1(&m, &a).raw().to_bits());
        prop_assert_eq!(ev.terms.tp.raw().to_bits(), common::tp(&m, &a, p).raw().to_bits());
        prop_assert_eq!(ev.terms.e1.raw().to_bits(), common::e1(&m, &a).raw().to_bits());
        prop_assert_eq!(ev.terms.ep.raw().to_bits(), common::ep(&m, &a, p).raw().to_bits());
        match (ev.ee, common::ee(&m, &a, p)) {
            (Ok(b), Ok(s)) => prop_assert_eq!(b.to_bits(), s.to_bits()),
            (Err(b), Err(s)) => prop_assert_eq!(b, s),
            (b, s) => prop_assert!(false, "degenerate split diverged: {:?} vs {:?}", b, s),
        }
    }

    /// Random degenerate column positions: the poisoned column must
    /// surface the same `SweepError` (row-major first-error index and
    /// payload) through both kernels.
    #[test]
    fn random_degenerate_columns_agree_on_the_first_error(
        bad in 0usize..6,
        n_rows in 1usize..5,
        f_lo in 1.0e9f64..2.4e9,
    ) {
        let m = mach();
        let ps = [1usize, 2, 4, 8, 16, 32];
        let app = Poisoned { base: FtModel::system_g(), p_bad: ps[bad] };
        let fs: Vec<f64> = (0..n_rows).map(|i| f_lo + 1.0e8 * i as f64).collect();
        let cfg = PoolConfig::sequential();
        let n = (1u64 << 20) as f64;
        let b = ee_surface_pf_with(&cfg, &app, &m, n, &ps, &fs).expect_err("poisoned grid");
        let s = common::surface_pf(&app, &m, n, &ps, &fs).expect_err("poisoned grid");
        prop_assert_eq!(b, s);
        let expected = SweepError { index: bad, source: b.source };
        prop_assert_eq!(b, expected);
    }
}
