//! # isoee — the iso-energy-efficiency model
//!
//! The paper's contribution (Song, Su, Ge, Vishnu, Cameron, IPDPS 2011):
//! a system-level analytical model of the energy efficiency of parallel
//! applications, extending Grama et al.'s performance *isoefficiency* to
//! energy.
//!
//! ## The model in five lines
//!
//! With `E1` the sequential energy and `Ep` the parallel energy on `p`
//! processors (Eqs. 13, 15 — see [`model`]):
//!
//! ```text
//! E0  = Ep − E1                       (Eq. 1,  parallel energy overhead)
//! EEF = E0 / E1                       (Eq. 3/19, energy efficiency factor)
//! EE  = 1 / (1 + EEF)                 (Eq. 2/4/21, iso-energy-efficiency)
//! ```
//!
//! `EE = 1` is ideal; keeping `EE` constant while scaling `(p, n, f, BW)`
//! is the iso-energy-efficiency condition the paper's scalability studies
//! explore (Figs. 5–9).
//!
//! ## Crate layout
//!
//! * [`params`] — the machine- and application-dependent parameter vectors
//!   of the paper's Tables 1 and 2.
//! * [`model`] — Eqs. 5–21: times, energies, `EEF`, `EE`.
//! * [`apps`] — closed-form application models for FT, EP and CG (§V.B),
//!   with coefficients fitted by the calibration pipeline. Each model
//!   writes its Table-2 formulas once, generic over the kernel's numeric
//!   domain: the `f64` instance is `app_params`, the [`Interval`] instance
//!   `app_params_box`.
//! * [`calibrate`] — the §IV.B methodology: derive machine parameters with
//!   the microbenchmark suite and application parameters from instrumented
//!   runs.
//! * [`validate`] — model-vs-measurement comparison (the engine behind the
//!   paper's Figs. 3–4).
//! * [`scaling`] — EE surfaces over `(p, f)` / `(p, n)`, iso-EE contours,
//!   and the DVFS/parallelism advisor (§V.B's decision-making use case).
//! * [`batch`] — the batched sweep grids: Eq. 13/15 terms factored into
//!   per-axis invariant and varying parts, whole grid rows evaluated into
//!   flat buffers, bit-identical to [`model`] (the sweeps in [`scaling`]
//!   route through it).
//! * [`interval`] — outward-rounded interval evaluation of the model over
//!   parameter *boxes*: ahead-of-time certification that a whole sweep
//!   grid is free of degenerate baselines (or the exact offending cell).
//!
//! [`model`], [`batch`] and [`interval`] are the `f64` and [`Interval`]
//! instances of one private term kernel, so each equation is written once;
//! [`AppBox`] and [`MachBox`] are the [`Interval`] instances of its Table-1
//! and Table-2 structs.
//!
//! ## Quick start
//!
//! ```
//! use isoee::{MachineParams, model};
//! use isoee::apps::{AppModel, EpModel};
//!
//! let mach = MachineParams::system_g(2.8e9);
//! let ep = EpModel::system_g();
//! let app = ep.app_params(1_000_000.0, 64);
//! let ee = model::ee(&mach, &app, 64).expect("baseline energy is positive");
//! assert!(ee > 0.95); // EP is near-ideally iso-energy-efficient
//! ```

#![forbid(unsafe_code)]

pub mod apps;
pub mod baselines;
pub mod batch;
pub mod calibrate;
pub mod hetero;
pub mod interval;
pub mod model;
pub mod params;
pub mod plancost;
pub mod report;
pub mod scaling;
pub mod symcost;
mod terms;
pub mod validate;

pub use apps::{AppModel, CgModel, EpModel, FtModel};
pub use baselines::{performance_efficiency, power_aware_speedup};
pub use batch::{PfGrid, PnGrid, PointEval, Terms};
pub use calibrate::{measure_alpha, measure_app_params, measured_machine_params};
pub use hetero::{HeteroResult, ProcClass, Split};
pub use interval::{AppBox, E1Factors, GridCertification, Interval, MachBox, ModelEnclosure};
pub use model::{e0, e1, ee, eef, ep, t1, tp, ModelError};
pub use params::{AppParams, MachineParams};
pub use plancost::{cost_bounds, PlanCost};
pub use scaling::{
    best_frequency, best_frequency_with, ee_surface_pf, ee_surface_pf_scalar_with,
    ee_surface_pf_with, ee_surface_pn, ee_surface_pn_scalar_with, ee_surface_pn_with,
    iso_ee_contour, iso_ee_contour_with, iso_ee_workload, set_eval_timing, PoolConfig, Surface,
    SweepError,
};
pub use symcost::{power_cap_verdict, sym_app_box, sym_cost_bounds, PowerCapVerdict, SymPlanCost};
pub use validate::{validate_kernel, ValidationPoint, ValidationSummary};
