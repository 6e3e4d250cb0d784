//! Large-`p` acceptance: the runs the thread runtime cannot do.
//!
//! These are `#[ignore]`d because debug builds make thousand-rank NPB
//! kernels slow; the CI `rank-scaling` job runs them in release with
//! `cargo test --release -p simrt -- --ignored`, where each must finish
//! well inside the 60-second budget.

use plan::{analyze_plan, CommPlan};
use simrt::{Detail, EngineConfig};

fn world() -> mps::World {
    mps::World::new(simcluster::system_g(), 2.8e9)
}

/// Run `plan` at `p` under the wall-clock budget and pin the engine's
/// dynamic message/byte totals to the static analyzer's whole-plan count.
fn run_and_check(name: &str, plan: &CommPlan, p: usize, budget_s: f64) {
    let analysis = analyze_plan(plan, p);
    assert!(analysis.clean(), "{name}: {:?}", analysis.findings);
    let cfg = EngineConfig::default().with_detail(Detail::Off);
    let out = simrt::try_run_plan_with(&cfg, &world(), p, plan).expect("run completes");
    assert!(
        out.stats.wall_s < budget_s,
        "{name} p={p}: {:.1}s exceeds the {budget_s}s budget",
        out.stats.wall_s
    );
    let totals = out.report.total_counters();
    #[allow(clippy::cast_precision_loss)]
    {
        assert_eq!(
            totals.messages, analysis.total.messages as f64,
            "{name} p={p}: dynamic vs static message count"
        );
        assert_eq!(
            totals.bytes, analysis.total.bytes as f64,
            "{name} p={p}: dynamic vs static byte count"
        );
    }
    assert_eq!(out.report.ranks.len(), p);
    assert!(out.report.span() > 0.0);
}

#[test]
#[ignore = "release-only: thousand-rank kernels are slow in debug builds"]
fn ft_completes_at_p_1024_within_budget() {
    let cfg = npb::FtConfig::class(npb::Class::S);
    run_and_check("ft", &npb::ft_plan(&cfg), 1024, 60.0);
}

#[test]
#[ignore = "release-only: thousand-rank kernels are slow in debug builds"]
fn ep_completes_at_p_1024_within_budget() {
    let cfg = npb::EpConfig::class(npb::Class::S);
    run_and_check("ep", &npb::ep_plan(&cfg), 1024, 60.0);
}

#[test]
#[ignore = "release-only: thousand-rank kernels are slow in debug builds"]
fn cg_completes_at_p_1024_within_budget() {
    let cfg = npb::CgConfig::class(npb::Class::S);
    run_and_check("cg", &npb::cg_plan(&cfg), 1024, 60.0);
}

#[test]
#[ignore = "release-only: thousand-rank kernels are slow in debug builds"]
fn ft_completes_at_p_4096_within_budget() {
    let cfg = npb::FtConfig::class(npb::Class::S);
    run_and_check("ft", &npb::ft_plan(&cfg), 4096, 60.0);
}
