//! Timing probe behind the EXPERIMENTS.md "per-p specialization" table:
//! wall time of the two concrete plan interpreters — the static checker
//! (`analyze_plan`) and the simrt event engine at `Detail::Off` — on NPB
//! FT and CG (class S) at `p ∈ {256, 1024}`, plus the one-off cost of
//! `CommPlan::specialize` that both now pay first. `abstract_steps`
//! counts the checker's message steps with folded loop iterations
//! included; `folded` is how many iterations it added instead of
//! interpreting. `simrt_steps` likewise counts the engine's steps with
//! the iterations it replayed included, and `simrt_folded` counts the
//! iterations it added at a repeat cut, as `folded` does (an inner loop
//! replayed inside an enclosing loop's replay is not counted again).
//! `whole` counts the all-gathers and all-to-alls the engine priced whole
//! at a collective cut instead of stepping them message by message (FT: 2,
//! CG: 0); the checker prices the same ones.
//!
//! Run with `cargo run --release --example plan_pricing_timing`.

use std::time::Instant;

use mps::World;
use plan::{analyze_plan, CommPlan};
use simrt::{Detail, EngineConfig};

const REPS: usize = 5;

/// Median-of-`REPS` wall time of `f` in milliseconds, plus its last result.
fn median_ms<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::with_capacity(REPS);
    let mut out = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        out = Some(f());
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(f64::total_cmp);
    (samples[REPS / 2], out.expect("ran"))
}

fn main() {
    let class = npb::Class::S;
    let plans: [(&str, CommPlan); 2] = [
        ("FT", npb::ft_plan(&npb::FtConfig::class(class))),
        ("CG", npb::cg_plan(&npb::CgConfig::class(class))),
    ];
    let world = World::new(simcluster::system_g(), 2.8e9);
    let engine = EngineConfig::default().with_detail(Detail::Off);
    println!(
        "kernel      p  specialize_ms  analyze_ms  abstract_steps  folded  simrt_ms  simrt_steps  simrt_folded  whole"
    );
    for p in [256usize, 1024] {
        for (name, plan) in &plans {
            let (spec_ms, _) = median_ms(|| plan.specialize(p));
            let (analyze_ms, analysis) = median_ms(|| analyze_plan(plan, p));
            assert!(
                analysis.deadlock_free(),
                "{name} p={p}: {:?}",
                analysis.findings
            );
            let (run_ms, run) = median_ms(|| {
                simrt::try_run_plan_with(&engine, &world, p, plan).expect("run completes")
            });
            println!(
                "{name:>6} {p:>6} {spec_ms:>14.3} {analyze_ms:>11.1} {:>15} {:>7} {run_ms:>9.1} {:>12} {:>13} {:>6}",
                analysis.steps,
                analysis.folded_iterations,
                run.stats.steps,
                run.stats.folded_iterations,
                run.stats.whole_collectives
            );
        }
    }
}
