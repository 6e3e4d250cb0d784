//! `analyze_plan` checks FT class S at p = 4096 in O(in-flight) memory.
//!
//! Release-only and `#[ignore]`d (about 10 s in release, far longer in
//! debug); run it with
//! `cargo test --release -p plan --test large_p_memory -- --ignored`.
//! It is the only test in this file, so the process's `VmHWM` is its own.

use plan::{analyze_plan, certify_plan, CountRange};

/// Peak resident set of this process, in MiB.
fn vm_hwm_mib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    let kib: Option<u64> = line.and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok());
    kib.expect("VmHWM line") / 1024
}

#[test]
#[ignore = "release-only: 168M abstract steps"]
#[allow(clippy::cast_precision_loss)]
fn ft_checks_at_p_4096_under_64_mib() {
    let plan = npb::ft_plan(&npb::FtConfig::class(npb::Class::S));
    let a = analyze_plan(&plan, 4096);
    let peak_mib = vm_hwm_mib();
    assert!(a.deadlock_free(), "{:?}", a.findings);
    let c = certify_plan(&plan, &npb::ft_domain())
        .counts(4096)
        .expect("certified");
    // Messages and work are closed-form in p, so their ranges are points;
    // bytes depend on the slabs' block remainders, so the range encloses.
    let point = |r: CountRange| (r.lo == r.hi).then_some(r.lo);
    assert_eq!(point(c.messages), Some(a.total.messages as f64));
    assert_eq!(point(c.wc), Some(a.total.wc));
    assert_eq!(point(c.mem_accesses), Some(a.total.mem_accesses));
    assert!(c.bytes.contains(a.total.bytes as f64), "{:?}", c.bytes);
    assert!(peak_mib < 64, "VmHWM {peak_mib} MiB after analyze_plan");
}
