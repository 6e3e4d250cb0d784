//! `scale`: one op prices FT and CG (class S) at p = 256 — for-all-p
//! certification over the kernel's domain capped at 4096, the 2 kW and
//! 1 MW power-cap verdicts, the concrete p² checker, its interval cost
//! bounds, and a `Detail::Off` run on the simrt event engine. The seed
//! picks the DVFS state and the kernel order.

use bench::DVFS_G;
use isoee::interval::MachBox;
use isoee::{cost_bounds, power_cap_verdict, MachineParams, PlanCost, PowerCapVerdict};
use mps::World;
use npb::Class;
use plan::{analyze_plan, certify_plan, CommPlan, Domain, PlanAnalysis};
use simcluster::system_g;
use simrt::{Detail, EngineConfig};

use crate::harness::{Rng, Workload};
use crate::trace::Tracer;

/// Small enough for about 34 ops in a 36 s run. At p = 512 an op took
/// 1.6–3.1 s, and the median of the 12–20 ops a run held moved with the
/// host by more than the 25 % bound. At 256 the p² checker still grows
/// the resident set by about 3 MiB per call.
const P: usize = 256;
const DOMAIN_CAP: u64 = 4096;
const CAP_LOW_W: f64 = 2_000.0;
const CAP_HIGH_W: f64 = 1_000_000.0;
/// Untimed ops before the timed loop.
const WARM_UP_OPS: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Ft,
    Cg,
}

impl Kernel {
    fn spans(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Kernel::Ft => ("plan.certify.ft", "check.analyze.ft", "simrt.run.ft"),
            Kernel::Cg => ("plan.certify.cg", "check.analyze.cg", "simrt.run.cg"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Input {
    f_hz: f64,
    order: [Kernel; 2],
}

pub struct Scale {
    order: [Kernel; 2],
    /// Per kernel (`Kernel` order): plan and capped domain.
    plans: Vec<(Kernel, CommPlan, Domain)>,
    world: World,
    mach: MachBox,
    engine: EngineConfig,
}

/// What one kernel's pricing produced.
pub struct Priced {
    kernel: Kernel,
    certified: bool,
    cert_messages: Option<(f64, f64)>,
    cert_bytes: Option<(f64, f64)>,
    low_cap: PowerCapVerdict,
    high_cap: PowerCapVerdict,
    analysis: PlanAnalysis,
    cost: PlanCost,
    run: Result<(f64, f64), String>,
}

impl Workload for Scale {
    type Input = Input;
    type Output = Vec<Priced>;
    /// Extra messages the checker expects (0; the self-test sets 1).
    type Reference = f64;

    const SETUP_REPEATS: usize = 2000;

    fn inputs(seed: u64) -> Input {
        let mut rng = Rng::new(seed);
        let f_hz = DVFS_G[rng.below(DVFS_G.len())];
        let mut order = [Kernel::Ft, Kernel::Cg];
        rng.shuffle(&mut order);
        Input { f_hz, order }
    }

    fn setup(input: &Input, _tr: &mut Tracer) -> Self {
        let class = Class::S;
        let plans = vec![
            (
                Kernel::Ft,
                npb::ft_plan(&npb::FtConfig::class(class)),
                npb::ft_domain().with_max(DOMAIN_CAP),
            ),
            (
                Kernel::Cg,
                npb::cg_plan(&npb::CgConfig::class(class)),
                npb::cg_domain().with_max(DOMAIN_CAP),
            ),
        ];
        Self {
            order: input.order,
            plans,
            world: World::new(system_g(), input.f_hz),
            mach: MachBox::from_params(&MachineParams::system_g(input.f_hz)),
            engine: EngineConfig::default().with_detail(Detail::Off),
        }
    }

    fn reference(&mut self) -> f64 {
        0.0
    }

    fn corrupt(extra: &mut f64) {
        *extra = 1.0;
    }

    fn warm_up(&mut self) {
        let mut off = Tracer::new(false);
        for i in 0..WARM_UP_OPS {
            std::hint::black_box(self.op(i, &mut off));
        }
    }

    fn op(&mut self, _i: u64, tr: &mut Tracer) -> Vec<Priced> {
        let mut out = Vec::with_capacity(2);
        for k in self.order {
            let (_, plan, domain) = self
                .plans
                .iter()
                .find(|(kk, _, _)| *kk == k)
                .expect("plan set up");
            let (certify_span, analyze_span, run_span) = k.spans();
            let cert = tr.call(certify_span, || certify_plan(plan, domain));
            let low_cap = tr.call("symcost.cap_verdict", || {
                power_cap_verdict(&cert, &self.mach, CAP_LOW_W)
            });
            let high_cap = tr.call("symcost.cap_verdict", || {
                power_cap_verdict(&cert, &self.mach, CAP_HIGH_W)
            });
            let analysis = tr.call_mem(analyze_span, || analyze_plan(plan, P));
            tr.count("check.abstract_steps", analysis.steps as f64);
            let cost = tr.call("plancost.bounds", || cost_bounds(&analysis, &self.mach));
            let run = tr
                .call_mem(run_span, || {
                    simrt::try_run_plan_with(&self.engine, &self.world, P, plan)
                })
                .map(|r| {
                    tr.count("simrt.steps", r.stats.steps as f64);
                    let c = r.report.total_counters();
                    (c.messages, c.bytes)
                })
                .map_err(|e| e.to_string());
            let counts = cert.counts(P as u64);
            out.push(Priced {
                kernel: k,
                certified: cert.certified,
                cert_messages: counts.map(|c| (c.messages.lo, c.messages.hi)),
                cert_bytes: counts.map(|c| (c.bytes.lo, c.bytes.hi)),
                low_cap,
                high_cap,
                analysis,
                cost,
                run,
            });
        }
        out
    }

    fn check(&self, extra: &f64, out: &Vec<Priced>) -> Result<(), String> {
        if out.len() != 2 {
            return Err(format!("{} kernels priced, expected 2", out.len()));
        }
        for pr in out {
            let k = pr.kernel;
            if !pr.certified {
                return Err(format!("{k:?}: plan not certified"));
            }
            if !pr.analysis.deadlock_free() {
                return Err(format!(
                    "{k:?}: concrete check found {:?}",
                    pr.analysis.findings
                ));
            }
            let want_m = pr.analysis.total.messages as f64 + extra;
            let want_b = pr.analysis.total.bytes as f64;
            let (run_m, run_b) = pr
                .run
                .clone()
                .map_err(|e| format!("{k:?}: simrt run failed: {e}"))?;
            if run_m != want_m || run_b != want_b {
                return Err(format!("{k:?}: simrt sent ({run_m}, {run_b}), analyze_plan counts ({want_m}, {want_b})"));
            }
            if pr.cost.messages as f64 != want_m || pr.cost.bytes as f64 != want_b {
                return Err(format!(
                    "{k:?}: cost_bounds counts differ from analyze_plan"
                ));
            }
            // The for-all-p counts are exact for FT and an enclosure for CG.
            let inside =
                |r: Option<(f64, f64)>, v: f64| r.is_some_and(|(lo, hi)| lo <= v && v <= hi);
            if !inside(pr.cert_messages, want_m) || !inside(pr.cert_bytes, want_b) {
                return Err(format!(
                    "{k:?}: certificate counts {:?} / {:?} do not enclose ({want_m}, {want_b})",
                    pr.cert_messages, pr.cert_bytes
                ));
            }
            if !matches!(pr.low_cap, PowerCapVerdict::Rejected { .. }) {
                return Err(format!("{k:?}: 2 kW cap not rejected: {:?}", pr.low_cap));
            }
            if !pr.high_cap.accepted() {
                return Err(format!("{k:?}: 1 MW cap not accepted: {:?}", pr.high_cap));
            }
        }
        Ok(())
    }

    fn probe(&mut self, _i: u64, _tr: &mut Tracer) {
        // Every layer of this workload is already a direct call of the op.
    }
}
