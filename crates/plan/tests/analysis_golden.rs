//! The two concrete plan interpreters' answers, pinned bit for bit.
//!
//! For each plan and world size the test folds into one FNV-1a hash:
//!
//! * `format!("{:?}", analyze_plan(plan, p))` — every finding, count and
//!   cost of the checker (`Debug` prints each `f64` in its shortest
//!   round-trip form, so equal strings are equal bits);
//! * for `p ≤ 256`, the simrt run at [`Detail::Off`] (the folding engine):
//!   every rank's outcome (`Debug`, with its clock, counters and per-kind
//!   sums) and the engine's `steps`, `sends` and `folded_iterations`, or
//!   the error a failing run returns. `wakes` is left out: it depends on
//!   the order the engine resumes ranks in, which parking changes.
//!
//! The plans are NPB FT, EP and CG (class S) at
//! `p ∈ {1–7, 12, 64, 256, 1024}`, a fixed set of the random generator
//! plans at small `p`, and the plans whose collectives must not be priced
//! whole, or only from per-peer sizes (`tests/cuts`). The constants were recorded before the checker and
//! the engine learned to price whole collectives and loop iterations
//! without interpreting them message by message, so any optimisation of
//! either interpreter that moves a bit fails here.

mod common;
mod cuts;

use common::{draw_domain, draw_plan, Stream};
use cuts::{collective_cuts, faulting_sizes};
use mps::World;
use npb::{cg_plan, ep_plan, ft_plan, CgConfig, Class, EpConfig, FtConfig};
use plan::{analyze_plan, CommPlan};
use simrt::{Detail, EngineConfig};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over the bytes of each folded string.
struct Fnv(u64);

impl Fnv {
    fn fold(&mut self, s: &str) {
        for byte in s.bytes().chain([0xff]) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// The largest world the engine half runs at.
const SIMRT_MAX_P: usize = 256;

/// Fold the checker's analysis and, at `p ≤ SIMRT_MAX_P`, the engine's run
/// of `plan` at `p` into `h`.
fn fold_plan(h: &mut Fnv, plan: &CommPlan, p: usize) {
    h.fold(&format!("{} p={p}", plan.name));
    h.fold(&format!("{:?}", analyze_plan(plan, p)));
    if p > SIMRT_MAX_P {
        return;
    }
    let world = World::new(simcluster::system_g(), 2.8e9);
    let cfg = EngineConfig::default().with_detail(Detail::Off);
    match simrt::try_run_plan_with(&cfg, &world, p, plan) {
        Ok(out) => {
            for rank in &out.report.ranks {
                h.fold(&format!("{rank:?}"));
            }
            let s = &out.stats;
            h.fold(&format!("{} {} {}", s.steps, s.sends, s.folded_iterations));
        }
        Err(err) => h.fold(&err.to_string()),
    }
}

const NPB_PS: [usize; 11] = [1, 2, 3, 4, 5, 6, 7, 12, 64, 256, 1024];

fn npb_hash(plan: &CommPlan) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    for p in NPB_PS {
        fold_plan(&mut h, plan, p);
    }
    h.0
}

#[test]
fn ft_is_pinned() {
    let h = npb_hash(&ft_plan(&FtConfig::class(Class::S)));
    assert_eq!(
        h, 0xec4f_fca2_926b_c79f,
        "FT analysis or simrt run moved: {h:#018x}"
    );
}

#[test]
fn ep_is_pinned() {
    let h = npb_hash(&ep_plan(&EpConfig::class(Class::S)));
    assert_eq!(
        h, 0xa304_3288_b76b_3313,
        "EP analysis or simrt run moved: {h:#018x}"
    );
}

#[test]
fn cg_is_pinned() {
    let h = npb_hash(&cg_plan(&CgConfig::class(Class::S)));
    assert_eq!(
        h, 0x09c3_a720_85e4_c4aa,
        "CG analysis or simrt run moved: {h:#018x}"
    );
}

/// `n` words of a splitmix64 stream from `seed`: fixed generator inputs.
fn words(seed: u64, n: usize) -> Vec<u64> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

#[test]
fn generator_plans_are_pinned() {
    let mut h = Fnv(FNV_OFFSET);
    for seed in 0..48 {
        let words = words(seed, 32);
        let mut s = Stream {
            words: &words,
            at: 0,
        };
        let (_, pow2) = draw_domain(&mut s);
        let plan = draw_plan(&mut s, pow2);
        for p in [1usize, 2, 3, 4, 5, 8, 16] {
            fold_plan(&mut h, &plan, p);
        }
    }
    assert_eq!(
        h.0, 0x9718_0fd7_ae8a_f273,
        "a generator plan moved: {:#018x}",
        h.0
    );
}

#[test]
fn collective_cut_cases_are_pinned() {
    let mut h = Fnv(FNV_OFFSET);
    for (_, plan, p) in collective_cuts() {
        fold_plan(&mut h, &plan, p);
    }
    for (plan, ..) in faulting_sizes() {
        fold_plan(&mut h, &plan, 4);
    }
    assert_eq!(
        h.0, 0xcac7_371c_93ef_68a3,
        "a collective cut case moved: {:#018x}",
        h.0
    );
}
