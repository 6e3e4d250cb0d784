//! `reproduce`: one op is one Fig. 3 validation pass on Dori — FT-A,
//! EP-A, CG-S, IS-A and MG-A validated at p ∈ {1, 2, 4} on the mps thread
//! runtime, in a seed-chosen kernel order.

use bench::{world_dori, ALPHA_CG, ALPHA_EP, ALPHA_FT, ALPHA_OTHER};
use isoee::calibrate::{app_params_from, distill, measured_machine_params, RunMeasurement};
use isoee::validate::{validate_kernel, validate_kernel_with, ValidationSummary};
use isoee::MachineParams;
use mps::World;
use npb::Class;
use pool::PoolConfig;

use crate::harness::{Rng, Workload};
use crate::trace::Tracer;

const PS: [usize; 3] = [1, 2, 4];

/// Largest |prediction error| accepted, percent. EXPERIMENTS.md's Fig. 3
/// table (class A, p = 4) tops out at MG's −9.83 %. CG runs at class S,
/// which EXPERIMENTS.md does not cover; its errors here are −17.1 % (p = 2)
/// and −17.6 % (p = 4), the model's known blindness to waits on Dori's
/// slow network at a tiny problem size.
fn envelope_pct(k: Kernel) -> f64 {
    match k {
        Kernel::Cg => 20.0,
        _ => 10.0,
    }
}

/// Largest positive error accepted, percent: the model ignores waits and
/// contention, so it underestimates (EXPERIMENTS.md).
const OVERESTIMATE_PCT: f64 = 0.01;

/// Untimed FT+IS passes before the timed loop: the rank threads' allocator
/// arenas grow over the first passes and then plateau.
const WARM_UP_PASSES: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Ft,
    Ep,
    Cg,
    Is,
    Mg,
}

/// Canonical order (the reference and the set-up use it).
const KERNELS: [Kernel; 5] = [Kernel::Ep, Kernel::Ft, Kernel::Cg, Kernel::Is, Kernel::Mg];

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Ft => "FT",
            Kernel::Ep => "EP",
            Kernel::Cg => "CG",
            Kernel::Is => "IS",
            Kernel::Mg => "MG",
        }
    }

    fn alpha(self) -> f64 {
        match self {
            Kernel::Ft => ALPHA_FT,
            Kernel::Ep => ALPHA_EP,
            Kernel::Cg => ALPHA_CG,
            Kernel::Is | Kernel::Mg => ALPHA_OTHER,
        }
    }

    fn run_span(self) -> &'static str {
        match self {
            Kernel::Ft => "mps.run.ft",
            Kernel::Ep => "mps.run.ep",
            Kernel::Cg => "mps.run.cg",
            Kernel::Is => "mps.run.is",
            Kernel::Mg => "mps.run.mg",
        }
    }

    /// `validate_kernel` (global pool) or `validate_kernel_with(cfg)`.
    fn validate(self, cfg: Option<&PoolConfig>, w: &World, m: &MachineParams) -> ValidationSummary {
        macro_rules! go {
            ($closure:expr) => {
                match cfg {
                    None => validate_kernel(w, m, self.name(), &PS, $closure),
                    Some(c) => validate_kernel_with(c, w, m, self.name(), &PS, $closure),
                }
            };
        }
        match self {
            Kernel::Ft => go!(bench::ft_closure(Class::A)),
            Kernel::Ep => go!(bench::ep_closure(Class::A)),
            // CG-A alone would be most of the op; class S keeps the mix.
            Kernel::Cg => go!(bench::cg_closure(Class::S)),
            Kernel::Is => go!(bench::is_closure(Class::A)),
            Kernel::Mg => go!(bench::mg_closure(Class::A)),
        }
    }

    /// One `mps::run` of the kernel on `p` ranks, then `distill`.
    fn measure(self, w: &World, p: usize, tr: &mut Tracer) -> RunMeasurement {
        macro_rules! go {
            ($closure:expr) => {{
                let k = $closure;
                let report = tr.call_mem(self.run_span(), || mps::run(w, p, &k));
                tr.call("calibrate.distill", || distill(w, &report))
            }};
        }
        match self {
            Kernel::Ft => go!(bench::ft_closure(Class::A)),
            Kernel::Ep => go!(bench::ep_closure(Class::A)),
            Kernel::Cg => go!(bench::cg_closure(Class::S)),
            Kernel::Is => go!(bench::is_closure(Class::A)),
            Kernel::Mg => go!(bench::mg_closure(Class::A)),
        }
    }
}

pub struct Reproduce {
    order: Vec<Kernel>,
    /// Per kernel (canonical order): its Dori world and calibrated machine.
    setups: Vec<(Kernel, World, MachineParams)>,
}

impl Reproduce {
    fn setup_of(&self, k: Kernel) -> (&World, &MachineParams) {
        let (_, w, m) = self
            .setups
            .iter()
            .find(|(kk, _, _)| *kk == k)
            .expect("every kernel is set up");
        (w, m)
    }
}

impl Workload for Reproduce {
    type Input = Vec<Kernel>;
    type Output = Vec<(Kernel, ValidationSummary)>;
    type Reference = Vec<(Kernel, ValidationSummary)>;

    const SETUP_REPEATS: usize = 80;

    fn inputs(seed: u64) -> Vec<Kernel> {
        let mut order = KERNELS.to_vec();
        Rng::new(seed).shuffle(&mut order);
        order
    }

    fn setup(order: &Vec<Kernel>, tr: &mut Tracer) -> Self {
        let setups = KERNELS
            .iter()
            .map(|&k| {
                let w = world_dori(k.alpha());
                let m = tr.call("calibrate.machine_params", || measured_machine_params(&w));
                (k, w, m)
            })
            .collect();
        let _ = pool::global();
        Self {
            order: order.clone(),
            setups,
        }
    }

    fn reference(&mut self) -> Self::Reference {
        KERNELS
            .iter()
            .map(|&k| {
                let (w, m) = self.setup_of(k);
                (k, k.validate(Some(&PoolConfig::sequential()), w, m))
            })
            .collect()
    }

    fn corrupt(reference: &mut Self::Reference) {
        for (_, s) in reference.iter_mut() {
            s.points[0].measured_j = s.points[0].measured_j * 1.5;
        }
    }

    fn warm_up(&mut self) {
        for _ in 0..WARM_UP_PASSES {
            for k in [Kernel::Ft, Kernel::Is] {
                let (w, m) = self.setup_of(k);
                std::hint::black_box(k.validate(None, w, m));
            }
        }
    }

    fn op(&mut self, _i: u64, tr: &mut Tracer) -> Self::Output {
        self.order
            .iter()
            .map(|&k| {
                let (w, m) = self.setup_of(k);
                (k, tr.call("isoee.validate", || k.validate(None, w, m)))
            })
            .collect()
    }

    fn check(&self, reference: &Self::Reference, out: &Self::Output) -> Result<(), String> {
        if out.len() != reference.len() {
            return Err(format!(
                "{} kernels validated, expected {}",
                out.len(),
                reference.len()
            ));
        }
        for (k, summary) in out {
            let (_, want) = reference
                .iter()
                .find(|(kk, _)| kk == k)
                .ok_or_else(|| format!("{} has no reference", k.name()))?;
            if summary != want {
                return Err(format!("{} differs from the reference pass", k.name()));
            }
            for pt in &summary.points {
                let (err, env) = (pt.error_pct(), envelope_pct(*k));
                if !(-env..=OVERESTIMATE_PCT).contains(&err) {
                    return Err(format!(
                        "{} p={}: error {err:.2} % outside [-{env}, {OVERESTIMATE_PCT}] %",
                        k.name(),
                        pt.p
                    ));
                }
            }
        }
        Ok(())
    }

    fn probe(&mut self, _i: u64, tr: &mut Tracer) {
        for &k in &self.order {
            let (w, m) = self.setup_of(k);
            // The sequential validation, one layer call at a time.
            let seq = k.measure(w, 1, tr);
            for p in PS {
                let par = if p == 1 { seq } else { k.measure(w, p, tr) };
                tr.count("mps.messages", par.counters.messages);
                tr.count("mps.bytes", par.counters.bytes);
                let app = app_params_from(&seq, &par);
                std::hint::black_box(
                    tr.call("isoee.point_eval", || isoee::batch::evaluate(m, &app, p)),
                );
            }
            // The op's call again on the sequential pool config.
            std::hint::black_box(tr.call("isoee.validate_seq", || {
                k.validate(Some(&PoolConfig::sequential()), w, m)
            }));
        }
    }
}
