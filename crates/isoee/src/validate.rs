//! Model validation against the simulator's PowerPack measurements — the
//! engine behind the paper's Figs. 3 and 4.
//!
//! For each parallelism level the kernel runs instrumented; its measured
//! Table-2 vector feeds Eq. 15 to *predict* total energy, which is compared
//! with the energy the PowerPack analog *measured* for the same run. The
//! prediction error comes from everything the analytical model abstracts
//! away — load imbalance and synchronization waits, link contention, and
//! the flat-`tm` memory model — exactly the error sources the paper
//! discusses (it blames its CG outlier on "inaccuracies in our memory
//! model").

use mps::{Ctx, World};
use simcluster::units::Joules;

use crate::calibrate::{app_params_from, measure_run, RunMeasurement};
use crate::params::MachineParams;

/// One validation point (one bar pair of Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationPoint {
    /// Parallelism level.
    pub p: usize,
    /// Model-predicted total energy (Eq. 13 for p = 1, Eq. 15 otherwise).
    pub predicted_j: Joules,
    /// PowerPack-measured total energy of the same run.
    pub measured_j: Joules,
}

impl ValidationPoint {
    /// Signed relative error of the prediction, in percent.
    pub fn error_pct(&self) -> f64 {
        100.0 * (self.predicted_j - self.measured_j) / self.measured_j
    }
}

/// A kernel's validation across parallelism levels (one group of Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationSummary {
    /// Kernel name.
    pub name: String,
    /// Points in the order of the requested `ps`.
    pub points: Vec<ValidationPoint>,
}

impl ValidationSummary {
    /// Mean of |error| across the points — the quantity Fig. 4 reports
    /// (6.64 % EP, 4.99 % FT, 8.31 % CG in the paper).
    pub fn mean_abs_error_pct(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points
            .iter()
            .map(|pt| pt.error_pct().abs())
            .sum::<f64>()
            / self.points.len() as f64
    }

    /// Largest |error| across the points.
    pub fn max_abs_error_pct(&self) -> f64 {
        self.points
            .iter()
            .map(|pt| pt.error_pct().abs())
            .fold(0.0, f64::max)
    }
}

/// Validate the energy model for one kernel across `ps`, on the global
/// pool config.
///
/// `mach` should come from [`crate::calibrate::measured_machine_params`]
/// (the paper's workflow) or [`MachineParams::from_spec`].
pub fn validate_kernel<R, F>(
    world: &World,
    mach: &MachineParams,
    name: &str,
    ps: &[usize],
    kernel: F,
) -> ValidationSummary
where
    R: Send,
    F: Fn(&mut Ctx) -> R + Sync,
{
    validate_kernel_with(pool::global(), world, mach, name, ps, kernel)
}

/// [`validate_kernel`] on an explicit pool config: the per-`p` validation
/// points run concurrently (each point is its own deterministic simulated
/// run), and the points are reduced in the order of `ps` — the summary is
/// bit-identical to a sequential validation at any thread count.
pub fn validate_kernel_with<R, F>(
    cfg: &pool::PoolConfig,
    world: &World,
    mach: &MachineParams,
    name: &str,
    ps: &[usize],
    kernel: F,
) -> ValidationSummary
where
    R: Send,
    F: Fn(&mut Ctx) -> R + Sync,
{
    let seq = measure_run(world, 1, &kernel);
    let evaluated: Vec<EvaluatedPoint> =
        pool::parallel_map(cfg, ps, |&p| validate_point(world, mach, &seq, p, &kernel));
    // Live gauges: the latest validated point's efficiency and drift,
    // visible in `obs::global().snapshot_text()` while a sweep runs. The
    // parallel phase computes the values; they are applied here in `ps`
    // order, so the final gauge state never depends on worker
    // interleaving.
    let reg = obs::global();
    let mut points = Vec::with_capacity(evaluated.len());
    for ev in evaluated {
        if let Ok(ee) = ev.ee {
            reg.gauge("isoee.validate.ee").set(ee);
        }
        if let Ok(eef) = ev.eef {
            reg.gauge("isoee.validate.eef").set(eef);
        }
        reg.gauge("isoee.validate.drift_pct")
            .set(ev.point.error_pct());
        points.push(ev.point);
    }
    ValidationSummary {
        name: name.to_string(),
        points,
    }
}

/// One point plus the model ratios its run implies (gauge fodder).
struct EvaluatedPoint {
    point: ValidationPoint,
    ee: Result<f64, crate::model::ModelError>,
    eef: Result<f64, crate::model::ModelError>,
}

fn validate_point<R, F>(
    world: &World,
    mach: &MachineParams,
    seq: &RunMeasurement,
    p: usize,
    kernel: &F,
) -> EvaluatedPoint
where
    R: Send,
    F: Fn(&mut Ctx) -> R + Sync,
{
    let par = if p == 1 {
        *seq
    } else {
        measure_run(world, p, kernel)
    };
    let app = app_params_from(seq, &par);
    // One evaluation yields Ep, EE and EEF together.
    let ev = crate::batch::evaluate(mach, &app, p);
    EvaluatedPoint {
        point: ValidationPoint {
            p,
            predicted_j: ev.terms.ep,
            measured_j: par.energy_j,
        },
        ee: ev.ee,
        eef: ev.eef,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::system_g;

    fn world() -> World {
        World::new(system_g(), 2.8e9)
    }

    #[test]
    fn synthetic_balanced_kernel_predicts_within_one_percent() {
        // A perfectly balanced kernel with no contention or imbalance: the
        // model should be nearly exact; what remains is the flat-tm
        // approximation.
        let w = world();
        let mach = MachineParams::from_spec(&w.cluster, 2.8e9);
        let summary = validate_kernel(&w, &mach, "synthetic", &[1, 2, 4], |ctx: &mut Ctx| {
            ctx.compute(1e7 / ctx.size() as f64);
            ctx.mem_access(1e5 / ctx.size() as f64, 1 << 28);
        });
        for pt in &summary.points {
            assert!(
                pt.error_pct().abs() < 1.0,
                "p={} error {}%",
                pt.p,
                pt.error_pct()
            );
        }
    }

    #[test]
    fn imbalanced_kernel_shows_model_error() {
        // Load imbalance is invisible to the homogeneous-workload model:
        // the model must *underestimate* the measured energy.
        let w = world();
        let mach = MachineParams::from_spec(&w.cluster, 2.8e9);
        let summary = validate_kernel(&w, &mach, "imbalanced", &[4], |ctx: &mut Ctx| {
            let share = if ctx.rank() == 0 { 4e7 } else { 1e7 };
            ctx.compute(share);
            ctx.barrier();
        });
        let pt = summary.points[0];
        assert!(
            pt.predicted_j < pt.measured_j,
            "model should underestimate imbalanced runs: {pt:?}"
        );
        assert!(pt.error_pct().abs() > 1.0);
    }

    #[test]
    fn error_pct_is_signed() {
        let pt = ValidationPoint {
            p: 2,
            predicted_j: Joules::new(90.0),
            measured_j: Joules::new(100.0),
        };
        assert!((pt.error_pct() + 10.0).abs() < 1e-12);
    }

    #[test]
    fn summary_statistics() {
        let s = ValidationSummary {
            name: "x".into(),
            points: vec![
                ValidationPoint {
                    p: 1,
                    predicted_j: Joules::new(95.0),
                    measured_j: Joules::new(100.0),
                },
                ValidationPoint {
                    p: 2,
                    predicted_j: Joules::new(103.0),
                    measured_j: Joules::new(100.0),
                },
            ],
        };
        assert!((s.mean_abs_error_pct() - 4.0).abs() < 1e-12);
        assert!((s.max_abs_error_pct() - 5.0).abs() < 1e-12);
    }
}
