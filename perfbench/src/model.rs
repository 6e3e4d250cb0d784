//! `model`: the model's two uses by a power-capped scheduler in one op —
//! regenerate the five Fig. 5–9 surfaces at figure density (dense grids,
//! the pool in large grains), then answer a batch of job-admission queries
//! (the same isoee and pool code in tiny grains, where per-call overhead
//! shows).

use std::sync::Arc;

use bench::DVFS_G;
use isoee::calibrate::measured_machine_params;
use isoee::{Surface, SweepError};
use mps::World;
use simcluster::system_g;

use crate::advisor::{self, Admission, Advisor, Query};
use crate::harness::{Rng, Workload};
use crate::sweep::{self, Spec, Sweep};
use crate::trace::Tracer;

/// Admission queries per op: about as much time as the surfaces.
const QUERIES: u64 = 256;
/// Untimed ops before the timed loop.
const WARM_UP_OPS: u64 = 20;

pub struct Model {
    sweep: Sweep,
    advisor: Advisor,
    evals: Arc<obs::Counter>,
}

pub struct Output {
    surfaces: Vec<Result<Surface, SweepError>>,
    admissions: Vec<Admission>,
}

impl Model {
    fn queries(&self, i: u64) -> impl Iterator<Item = Query> + '_ {
        (i * QUERIES..(i + 1) * QUERIES).map(|k| self.advisor.query(k))
    }
}

impl Workload for Model {
    type Input = (Vec<Spec>, Arc<[Query]>);
    type Output = Output;
    type Reference = (sweep::Reference, advisor::Reference);

    const SETUP_REPEATS: usize = 40;

    fn inputs(seed: u64) -> Self::Input {
        let mut rng = Rng::new(seed);
        (Sweep::inputs(&mut rng), Advisor::inputs(&mut rng))
    }

    fn setup(input: &Self::Input, tr: &mut Tracer) -> Self {
        let world = World::new(system_g(), DVFS_G[3]);
        let base = tr.call("calibrate.machine_params", || {
            measured_machine_params(&world)
        });
        Self {
            sweep: Sweep::new(&input.0, base, tr),
            advisor: Advisor::new(&input.1, base, tr),
            evals: obs::global().counter("isoee.model_evals"),
        }
    }

    fn reference(&mut self) -> Self::Reference {
        (self.sweep.reference(), self.advisor.reference())
    }

    fn corrupt(reference: &mut Self::Reference) {
        Sweep::corrupt(&mut reference.0);
        Advisor::corrupt(&mut reference.1);
    }

    fn warm_up(&mut self) {
        let mut off = Tracer::new(false);
        for i in 0..WARM_UP_OPS {
            std::hint::black_box(self.op(i, &mut off));
        }
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) -> Output {
        let evals0 = self.evals.get();
        let surfaces = self.sweep.op(tr);
        let admissions = self.queries(i).map(|q| self.advisor.admit(q, tr)).collect();
        tr.count("isoee.model_evals", (self.evals.get() - evals0) as f64);
        Output {
            surfaces,
            admissions,
        }
    }

    /// Both halves must pass, so a corrupted reference fails every op.
    fn check(&self, reference: &Self::Reference, out: &Output) -> Result<(), String> {
        self.sweep.check(&reference.0, &out.surfaces)?;
        for a in &out.admissions {
            self.advisor.check(&reference.1, a)?;
        }
        Ok(())
    }

    fn probe(&mut self, i: u64, tr: &mut Tracer) {
        self.sweep.probe(tr);
        for q in self.queries(i) {
            self.advisor.probe(q, tr);
        }
    }
}
