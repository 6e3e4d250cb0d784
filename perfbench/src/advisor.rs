//! The admission half of the `model` workload: job-admission queries a
//! power-capped scheduler would issue — `best_frequency` over the 4 DVFS
//! states at each of 8 candidate p, `iso_ee_workload` at the chosen p, then
//! `sym_cost_bounds` on a certificate built in set-up. The seed generates
//! the query stream.

use std::sync::Arc;

use bench::DVFS_G;
use isoee::apps::{CgModel, EpModel, FtModel};
use isoee::interval::MachBox;
use isoee::{
    best_frequency, best_frequency_with, iso_ee_workload, model, sym_cost_bounds, AppModel,
    MachineParams, ModelError, SweepError, SymPlanCost,
};
use npb::Class;
use plan::{certify_plan, ParametricCert};
use pool::PoolConfig;

use crate::harness::Rng;
use crate::trace::Tracer;

/// Candidate allocations: powers of two, CG's domain.
const CANDIDATE_PS: [usize; 8] = [2, 4, 8, 16, 32, 64, 128, 256];
/// Length of the generated query stream (queries cycle through it).
const STREAM: usize = 1 << 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum App {
    Ft,
    Ep,
    Cg,
}

const APPS: [App; 3] = [App::Ft, App::Ep, App::Cg];

#[derive(Debug, Clone, Copy)]
pub struct Query {
    app: App,
    n: f64,
    target: f64,
}

pub struct Advisor {
    queries: Arc<[Query]>,
    base: MachineParams,
    /// `base` at each DVFS state, and its interval box.
    machs: Vec<MachineParams>,
    boxes: Vec<MachBox>,
    ft: FtModel,
    ep: EpModel,
    cg: CgModel,
    /// For-all-p certificates, in `APPS` order.
    certs: Vec<ParametricCert>,
}

/// The checker's own machine at each DVFS state.
pub type Reference = Vec<MachineParams>;

/// One admission decision.
pub struct Admission {
    query: Query,
    probes: Vec<Result<(f64, f64), SweepError>>,
    p: usize,
    f_index: usize,
    ee: f64,
    iso_n: Result<Option<f64>, ModelError>,
    bounds: Option<SymPlanCost>,
}

impl Advisor {
    fn model(&self, app: App) -> &dyn AppModel {
        match app {
            App::Ft => &self.ft,
            App::Ep => &self.ep,
            App::Cg => &self.cg,
        }
    }

    fn cert(&self, app: App) -> &ParametricCert {
        &self.certs[APPS.iter().position(|&a| a == app).expect("known app")]
    }

    pub fn query(&self, i: u64) -> Query {
        self.queries[(i % self.queries.len() as u64) as usize]
    }

    /// One admission query.
    pub fn admit(&self, q: Query, tr: &mut Tracer) -> Admission {
        let app = self.model(q.app);
        let probes: Vec<_> = CANDIDATE_PS
            .iter()
            .map(|&p| {
                tr.call("scaling.best_frequency", || {
                    best_frequency(app, &self.base, q.n, p, &DVFS_G)
                })
            })
            .collect();
        // The widest allocation that still meets the target, else the most
        // efficient one.
        let ok: Vec<(usize, f64, f64)> = CANDIDATE_PS
            .iter()
            .zip(&probes)
            .filter_map(|(&p, r)| r.as_ref().ok().map(|&(f, ee)| (p, f, ee)))
            .collect();
        let pick = ok
            .iter()
            .rev()
            .find(|&&(_, _, ee)| ee >= q.target)
            .or_else(|| ok.iter().max_by(|a, b| a.2.total_cmp(&b.2)))
            .copied();
        let Some((p, f, ee)) = pick else {
            return Admission {
                query: q,
                probes,
                p: 0,
                f_index: 0,
                ee: f64::NAN,
                iso_n: Ok(None),
                bounds: None,
            };
        };
        let f_index = DVFS_G.iter().position(|&x| x == f).unwrap_or(0);
        let mach = &self.machs[f_index];
        let iso_n = tr.call("scaling.iso_ee_workload", || {
            iso_ee_workload(app, mach, p, q.target, q.n / 1024.0, q.n * 1024.0)
        });
        let bounds = tr.call("symcost.bounds", || {
            sym_cost_bounds(self.cert(q.app), p as u64, &self.boxes[f_index])
        });
        Admission {
            query: q,
            probes,
            p,
            f_index,
            ee,
            iso_n,
            bounds,
        }
    }

    pub fn inputs(rng: &mut Rng) -> Arc<[Query]> {
        (0..STREAM)
            .map(|_| {
                let app = APPS[rng.below(APPS.len())];
                let (lo, hi): (f64, f64) = match app {
                    App::Ft => ((1u64 << 18) as f64, (1u64 << 26) as f64),
                    App::Ep => ((1u64 << 18) as f64, (1u64 << 26) as f64),
                    App::Cg => (9_375.0, 300_000.0),
                };
                Query {
                    app,
                    n: (rng.range(lo.ln(), hi.ln())).exp(),
                    target: rng.range(0.5, 0.95),
                }
            })
            .collect()
    }

    /// Set-up: the machine at every DVFS state, the for-all-p
    /// certificates, then one first query through the pool.
    pub fn new(queries: &Arc<[Query]>, base: MachineParams, tr: &mut Tracer) -> Self {
        let machs: Vec<MachineParams> = DVFS_G.iter().map(|&f| base.at_frequency(f)).collect();
        let boxes = machs.iter().map(MachBox::from_params).collect();
        let class = Class::S;
        let certs = vec![
            tr.call("plan.certify.ft", || {
                certify_plan(
                    &npb::ft_plan(&npb::FtConfig::class(class)),
                    &npb::ft_domain(),
                )
            }),
            tr.call("plan.certify.ep", || {
                certify_plan(
                    &npb::ep_plan(&npb::EpConfig::class(class)),
                    &npb::ep_domain(),
                )
            }),
            tr.call("plan.certify.cg", || {
                certify_plan(
                    &npb::cg_plan(&npb::CgConfig::class(class)),
                    &npb::cg_domain(),
                )
            }),
        ];
        let s = Self {
            queries: Arc::clone(queries),
            base,
            machs,
            boxes,
            ft: FtModel::system_g(),
            ep: EpModel::system_g(),
            cg: CgModel::system_g(),
            certs,
        };
        // First pool use.
        let first = s.query(0);
        std::hint::black_box(tr.call("setup.first_query", || {
            best_frequency(
                s.model(first.app),
                &s.base,
                first.n,
                CANDIDATE_PS[0],
                &DVFS_G,
            )
        }))
        .expect("first query evaluates");
        s
    }

    pub fn reference(&self) -> Reference {
        DVFS_G.iter().map(|&f| self.base.at_frequency(f)).collect()
    }

    pub fn corrupt(reference: &mut Reference) {
        for m in reference.iter_mut() {
            m.tc = m.tc * (1.0 + 1e-9);
        }
    }

    pub fn check(&self, machs: &Reference, a: &Admission) -> Result<(), String> {
        if let Some(e) = a.probes.iter().find_map(|r| r.as_ref().err()) {
            return Err(format!("best_frequency failed: {e}"));
        }
        let q = a.query;
        let app = self.model(q.app);
        let again = model::ee(&machs[a.f_index], &app.app_params(q.n, a.p), a.p)
            .map_err(|e| format!("model::ee at the chosen point: {e}"))?;
        if again.to_bits() != a.ee.to_bits() {
            return Err(format!("chosen EE {} != model::ee {again}", a.ee));
        }
        a.iso_n.map_err(|e| format!("iso_ee_workload: {e}"))?;
        let b = a
            .bounds
            .as_ref()
            .ok_or("no symbolic cost bounds at the chosen p")?;
        let ep = b.enclosure.ep;
        if !(ep.lo > 0.0 && ep.lo <= ep.hi && ep.hi.is_finite()) {
            return Err(format!(
                "energy enclosure [{}, {}] is not a positive finite interval",
                ep.lo, ep.hi
            ));
        }
        Ok(())
    }

    /// Query `q`'s `best_frequency` calls again on the sequential pool
    /// config.
    pub fn probe(&self, q: Query, tr: &mut Tracer) {
        let app = self.model(q.app);
        let seq = PoolConfig::sequential();
        for &p in &CANDIDATE_PS {
            let _ = std::hint::black_box(tr.call("scaling.best_frequency_seq", || {
                best_frequency_with(&seq, app, &self.base, q.n, p, &DVFS_G)
            }));
        }
    }
}
