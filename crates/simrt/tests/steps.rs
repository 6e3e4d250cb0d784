//! What each layer's step counter counts. The checker's
//! `PlanAnalysis::steps` are message steps: each send and each receive
//! once, so a clean wildcard-free plan takes twice its messages, folded
//! loop iterations included (at p = 256 the checker folds FT's and CG's
//! loops). The engine's `EngineStats::steps` add every other step its
//! cursors stream: compute, memory, phase and collective-span steps, also
//! counted as if interpreted in the iterations the engine replays. Both
//! fold the same loops here, so their `folded_iterations` are equal.

use mps::World;
use npb::{cg_plan, ep_plan, ft_plan, CgConfig, Class, EpConfig, FtConfig};
use plan::{analyze_plan, CommPlan, Step, TimedCursor};
use simrt::{Detail, EngineConfig};

/// The steps of `rank`'s cursor that are not messages.
fn local_steps(plan: &CommPlan, p: usize, rank: usize) -> u64 {
    let mut cursor = TimedCursor::new(plan, p, rank);
    let mut n = 0;
    while let Some(step) = cursor.next_step().expect("clean plan") {
        n += u64::from(!matches!(
            step,
            Step::Send { .. } | Step::Recv { .. } | Step::RecvAny { .. }
        ));
    }
    n
}

#[test]
fn step_counters_count_messages_and_local_steps() {
    let w = World::new(simcluster::system_g(), 2.8e9);
    let cfg = EngineConfig::default().with_detail(Detail::Off);
    let plans = [
        ("ft", ft_plan(&FtConfig::class(Class::S))),
        ("ep", ep_plan(&EpConfig::class(Class::S))),
        ("cg", cg_plan(&CgConfig::class(Class::S))),
    ];
    for (name, plan) in &plans {
        for p in [1usize, 2, 3, 8, 64, 256] {
            if *name == "cg" && !p.is_power_of_two() {
                continue;
            }
            let analysis = analyze_plan(plan, p);
            assert!(analysis.clean(), "{name} p={p}: {:?}", analysis.findings);
            assert_eq!(analysis.steps, 2 * analysis.total.messages, "{name} p={p}");
            let run = simrt::try_run_plan_with(&cfg, &w, p, plan).expect("clean plan runs");
            assert_eq!(run.stats.sends, analysis.total.messages, "{name} p={p}");
            let local: u64 = (0..p).map(|r| local_steps(plan, p, r)).sum();
            assert_eq!(run.stats.steps, analysis.steps + local, "{name} p={p}");
            assert_eq!(
                run.stats.folded_iterations, analysis.folded_iterations,
                "{name} p={p}"
            );
        }
    }
}
