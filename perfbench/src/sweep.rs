//! The surface half of the `model` workload: the five Fig. 5–9 surfaces at
//! figure density through `ee_surface_pf` / `ee_surface_pn` on the global
//! pool. The seed jitters the workloads and the axis bounds.

use bench::DVFS_G;
use isoee::apps::{CgModel, EpModel, FtModel};
use isoee::batch::{PfGrid, PnGrid};
use isoee::interval::certify_pn_grid;
use isoee::{
    ee_surface_pf, ee_surface_pf_scalar_with, ee_surface_pf_with, ee_surface_pn,
    ee_surface_pn_scalar_with, ee_surface_pn_with, AppModel, MachineParams, Surface, SweepError,
};
use pool::PoolConfig;

use crate::harness::Rng;
use crate::trace::Tracer;

/// Rows of every surface (DVFS states or workloads).
const ROWS: usize = 64;

#[derive(Debug, Clone, Copy)]
enum App {
    Ft,
    Ep,
    Cg,
}

/// The row axis of one surface.
#[derive(Debug, Clone)]
enum Rows {
    /// `EE(p, f)` at workload `n` (Figs. 5, 7, 9).
    Freq { n: f64, fs: Vec<f64> },
    /// `EE(p, n)` at the machine's frequency (Figs. 6, 8).
    Work { ns: Vec<f64> },
}

#[derive(Debug, Clone)]
pub struct Spec {
    app: App,
    ps: Vec<usize>,
    rows: Rows,
}

pub struct Sweep {
    specs: Vec<Spec>,
    base: MachineParams,
    ft: FtModel,
    ep: EpModel,
    cg: CgModel,
}

/// The scalar oracle's surfaces, and per cell the largest EE the model
/// admits there.
pub type Reference = Vec<(Surface, Vec<Vec<f64>>)>;
/// One pass over the surfaces.
pub type Output = Vec<Result<Surface, SweepError>>;

fn linspace(lo: f64, hi: f64, k: usize) -> Vec<f64> {
    (0..k)
        .map(|i| lo + (hi - lo) * i as f64 / (k - 1) as f64)
        .collect()
}

fn geomspace(lo: f64, hi: f64, k: usize) -> Vec<f64> {
    let r = (hi / lo).ln();
    (0..k)
        .map(|i| lo * (r * i as f64 / (k - 1) as f64).exp())
        .collect()
}

impl Sweep {
    fn model(&self, app: App) -> &dyn AppModel {
        match app {
            App::Ft => &self.ft,
            App::Ep => &self.ep,
            App::Cg => &self.cg,
        }
    }

    fn surface(&self, s: &Spec, cfg: Option<&PoolConfig>) -> Result<Surface, SweepError> {
        let app = self.model(s.app);
        match (&s.rows, cfg) {
            (Rows::Freq { n, fs }, None) => ee_surface_pf(app, &self.base, *n, &s.ps, fs),
            (Rows::Freq { n, fs }, Some(c)) => {
                ee_surface_pf_with(c, app, &self.base, *n, &s.ps, fs)
            }
            (Rows::Work { ns }, None) => ee_surface_pn(app, &self.base, &s.ps, ns),
            (Rows::Work { ns }, Some(c)) => ee_surface_pn_with(c, app, &self.base, &s.ps, ns),
        }
    }
}

/// The largest EE the model admits at each column: 1, or unbounded where
/// the parallel memory overhead `Wom` is negative (superlinear energy
/// scaling, which `model::ee` documents).
fn ee_ceiling(app: &dyn AppModel, n: f64, ps: &[usize]) -> Vec<f64> {
    ps.iter()
        .map(|&p| {
            if app.app_params(n, p).wom.raw() < 0.0 {
                f64::INFINITY
            } else {
                1.0
            }
        })
        .collect()
}

/// Bit-for-bit surface equality.
fn same_bits(a: &Surface, b: &Surface) -> bool {
    let eq = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    eq(&a.xs, &b.xs)
        && eq(&a.ys, &b.ys)
        && a.values.len() == b.values.len()
        && a.values.iter().zip(&b.values).all(|(r, s)| eq(r, s))
}

impl Sweep {
    pub fn inputs(rng: &mut Rng) -> Vec<Spec> {
        let (f_lo, f_hi) = (DVFS_G[0], DVFS_G[3]);
        let fs = linspace(
            rng.range(f_lo, f_lo + 0.1e9),
            rng.range(f_hi - 0.1e9, f_hi),
            ROWS,
        );
        // The grid shapes are fixed so every seed does the same work.
        let dense: Vec<usize> = (1..=2048).collect();
        // CG's domain is the powers of two (its 2-D process grid).
        let pow2: Vec<usize> = (0..=11).map(|k| 1usize << k).collect();
        let jitter = |rng: &mut Rng| rng.range(0.9, 1.1);
        vec![
            Spec {
                app: App::Ft,
                ps: dense.clone(),
                rows: Rows::Freq {
                    n: (1u64 << 20) as f64 * jitter(rng),
                    fs: fs.clone(),
                },
            },
            Spec {
                app: App::Ft,
                ps: dense.clone(),
                rows: Rows::Work {
                    ns: geomspace(
                        (1u64 << 16) as f64 * jitter(rng),
                        (1u64 << 26) as f64 * jitter(rng),
                        ROWS,
                    ),
                },
            },
            Spec {
                app: App::Ep,
                ps: dense,
                rows: Rows::Freq {
                    n: (1u64 << 22) as f64 * jitter(rng),
                    fs: fs.clone(),
                },
            },
            Spec {
                app: App::Cg,
                ps: pow2.clone(),
                rows: Rows::Work {
                    ns: geomspace(9_375.0 * jitter(rng), 300_000.0 * jitter(rng), ROWS),
                },
            },
            Spec {
                app: App::Cg,
                ps: pow2,
                rows: Rows::Freq {
                    n: 75_000.0 * jitter(rng),
                    fs,
                },
            },
        ]
    }

    /// Set-up: the models, then one first surface through the pool.
    pub fn new(specs: &[Spec], base: MachineParams, tr: &mut Tracer) -> Self {
        let s = Self {
            specs: specs.to_vec(),
            base,
            ft: FtModel::system_g(),
            ep: EpModel::system_g(),
            cg: CgModel::system_g(),
        };
        // First pool use.
        std::hint::black_box(tr.call("setup.first_surface", || s.surface(&s.specs[0], None)))
            .expect("first surface evaluates");
        s
    }

    pub fn reference(&self) -> Reference {
        let seq = PoolConfig::sequential();
        self.specs
            .iter()
            .map(|s| {
                let app = self.model(s.app);
                let (surface, ceiling) = match &s.rows {
                    Rows::Freq { n, fs } => (
                        ee_surface_pf_scalar_with(&seq, app, &self.base, *n, &s.ps, fs),
                        fs.iter().map(|_| ee_ceiling(app, *n, &s.ps)).collect(),
                    ),
                    Rows::Work { ns } => (
                        ee_surface_pn_scalar_with(&seq, app, &self.base, &s.ps, ns),
                        ns.iter().map(|&n| ee_ceiling(app, n, &s.ps)).collect(),
                    ),
                };
                (surface.expect("reference surface evaluates"), ceiling)
            })
            .collect()
    }

    pub fn corrupt(reference: &mut Reference) {
        for (s, _) in reference.iter_mut() {
            s.values[0][0] = f64::from_bits(s.values[0][0].to_bits() ^ 1);
        }
    }

    pub fn op(&self, tr: &mut Tracer) -> Output {
        self.specs
            .iter()
            .map(|s| tr.call("scaling.surface", || self.surface(s, None)))
            .collect()
    }

    pub fn check(&self, reference: &Reference, out: &Output) -> Result<(), String> {
        if out.len() != reference.len() {
            return Err(format!(
                "{} surfaces, expected {}",
                out.len(),
                reference.len()
            ));
        }
        for (k, (got, (want, ceiling))) in out.iter().zip(reference).enumerate() {
            let got = got.as_ref().map_err(|e| format!("surface {k}: {e}"))?;
            if !same_bits(got, want) {
                return Err(format!("surface {k} differs from the scalar oracle"));
            }
            let cells = got.values.iter().flatten().zip(ceiling.iter().flatten());
            if let Some((v, c)) = cells.clone().find(|&(&v, &c)| !(v > 0.0 && v <= c)) {
                return Err(format!("surface {k}: EE {v} outside (0, {c}]"));
            }
        }
        Ok(())
    }

    /// The layers below the surface calls, one at a time.
    pub fn probe(&self, tr: &mut Tracer) {
        let seq = PoolConfig::sequential();
        for s in &self.specs {
            let app = self.model(s.app);
            match &s.rows {
                Rows::Freq { n, fs } => {
                    let grid = tr.call("batch.columns", || PfGrid::new(app, &self.base, *n, &s.ps));
                    std::hint::black_box(tr.call("interval.certify", || grid.certify(fs)));
                    tr.call("batch.rows", || {
                        for &f in fs {
                            let _ = std::hint::black_box(grid.eval_row(f));
                        }
                    });
                    tr.count("batch.cells", (fs.len() * s.ps.len()) as f64);
                }
                Rows::Work { ns } => {
                    let grid = tr.call("batch.columns", || PnGrid::new(app, &self.base, &s.ps));
                    std::hint::black_box(tr.call("interval.certify", || {
                        certify_pn_grid(app, &self.base, &s.ps, ns)
                    }));
                    tr.call("batch.rows", || {
                        for &n in ns {
                            let _ = std::hint::black_box(grid.eval_row(n));
                        }
                    });
                    tr.count("batch.cells", (ns.len() * s.ps.len()) as f64);
                }
            }
            let _ = std::hint::black_box(
                tr.call("scaling.surface_seq", || self.surface(s, Some(&seq))),
            );
        }
    }
}
