//! The engine runs FT class S at p = 4096 in O(p + in flight) memory,
//! although it replays FT's loop: the tape keeps each all-to-all as one
//! entry per rank, not its 16.8 M messages.
//!
//! Release-only and `#[ignore]`d (several seconds in release, far longer
//! in debug); run it with
//! `cargo test --release -p simrt --test large_p_memory -- --ignored`.
//! It is the only test in this file, so the process's `VmHWM` is its own.

use simrt::{Detail, EngineConfig};

/// Peak resident set of this process, in MiB.
fn vm_hwm_mib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    let kib: Option<u64> = line.and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok());
    kib.expect("VmHWM line") / 1024
}

#[test]
#[ignore = "release-only: 84M messages"]
fn ft_runs_at_p_4096_under_64_mib() {
    let plan = npb::ft_plan(&npb::FtConfig::class(npb::Class::S));
    let world = mps::World::new(simcluster::system_g(), 2.8e9);
    let cfg = EngineConfig::default().with_detail(Detail::Off);
    let out = simrt::try_run_plan_with(&cfg, &world, 4096, &plan).expect("ft runs");
    let peak_mib = vm_hwm_mib();
    assert_eq!(out.report.ranks.len(), 4096);
    assert_eq!(out.stats.folded_iterations, 3, "the loop was replayed");
    assert!(peak_mib < 64, "VmHWM {peak_mib} MiB after the run");
}
