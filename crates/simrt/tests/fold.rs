//! Loop folding is invisible in the engine: a `Detail::Off` run of a plan
//! equals the run of the same plan with its loops unrolled, bit for bit in
//! every rank outcome (counters, finish time, segment log, markers), in
//! metered energy, and in the step and send counts. The unrolled plan
//! has no loop left that could fold, so that run interprets every
//! iteration. Covers the NPB plans and the plan checker's random
//! generator plans.

#[path = "../../plan/tests/common/mod.rs"]
mod generator;
#[path = "../../plan/tests/unroll/mod.rs"]
mod unroll;

use generator::{draw_domain, draw_plan, Stream};
use mps::World;
use npb::{cg_plan, ep_plan, ft_plan, CgConfig, Class, EpConfig, FtConfig};
use plan::CommPlan;
use proptest::prelude::*;
use simrt::{Detail, EngineConfig, EngineReport};
use unroll::unroll;

fn world() -> World {
    World::new(simcluster::system_g(), 2.8e9)
}

fn run(plan: &CommPlan, p: usize) -> Result<EngineReport, simrt::Error> {
    let cfg = EngineConfig::default().with_detail(Detail::Off);
    simrt::try_run_plan_with(&cfg, &world(), p, plan)
}

/// Run `plan` at `p` and check it against the unrolled run; the folded
/// run's report is returned for further checks. A plan that fails must
/// fail alike.
fn folds_exactly(plan: &CommPlan, p: usize) -> Result<EngineReport, simrt::Error> {
    let at = format!("{} p={p}", plan.name);
    let folded = run(plan, p);
    let oracle = run(&unroll(plan, p), p);
    let (out, want) = match (&folded, &oracle) {
        (Ok(out), Ok(want)) => (out, want),
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "{at}: errors differ");
            return folded;
        }
        _ => panic!("{at}: folded {folded:?}, unrolled {oracle:?}"),
    };
    assert_eq!(want.stats.folded_iterations, 0, "{at}: the oracle folded");
    assert_eq!(out.stats.steps, want.stats.steps, "{at}: steps");
    assert_eq!(out.stats.sends, want.stats.sends, "{at}: sends");
    // `Debug` prints each f64 in its shortest round-trip form, so equal
    // strings are equal bits.
    let (ours, theirs) = (&out.report, &want.report);
    assert_eq!(ours.ranks.len(), theirs.ranks.len(), "{at}: ranks");
    for (a, b) in ours.ranks.iter().zip(&theirs.ranks) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{at}: rank {}", a.rank);
    }
    let w = world();
    assert_eq!(
        format!("{:?}", ours.energy(&w)),
        format!("{:?}", theirs.energy(&w)),
        "{at}: metered energy"
    );
    folded
}

#[test]
fn npb_plans_fold_to_what_full_interpretation_gives() {
    let ft = ft_plan(&FtConfig::class(Class::S));
    let ep = ep_plan(&EpConfig::class(Class::S));
    let cg = cg_plan(&CgConfig::class(Class::S));
    for p in [2usize, 3, 4, 8, 16, 64, 256] {
        folds_exactly(&ft, p).expect("ft runs");
        folds_exactly(&ep, p).expect("ep runs");
        if p.is_power_of_two() {
            folds_exactly(&cg, p).expect("cg runs");
        }
    }
}

#[test]
#[ignore = "release-only: a thousand-rank CG run twice is slow in debug builds"]
fn cg_folds_exactly_at_p_1024() {
    folds_exactly(&cg_plan(&CgConfig::class(Class::S)), 1024).expect("cg runs");
}

/// CG replays all but one of its 25 inner iterations in every outer
/// iteration; FT's loop holds an all-to-all, so nothing of it folds.
#[test]
fn cg_folds_its_inner_loop_and_ft_folds_nothing_at_p_256() {
    let cg_cfg = CgConfig::class(Class::S);
    let cg = run(&cg_plan(&cg_cfg), 256).expect("cg runs");
    assert_eq!(cg.stats.folded_iterations, 24 * cg_cfg.niter as u64);
    let ft = run(&ft_plan(&FtConfig::class(Class::S)), 256).expect("ft runs");
    assert_eq!(ft.stats.folded_iterations, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random generator plans fold exactly at small `p`; faulting and
    /// deadlocking ones fail alike.
    #[test]
    fn generated_plans_fold_to_what_full_interpretation_gives(
        words in proptest::collection::vec(any::<u64>(), 32),
    ) {
        let mut s = Stream { words: &words, at: 0 };
        let (_, pow2) = draw_domain(&mut s);
        let plan = draw_plan(&mut s, pow2);
        for p in [1usize, 2, 3, 4, 5, 8, 16] {
            let _ = folds_exactly(&plan, p);
        }
    }
}
