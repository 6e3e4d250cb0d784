//! Property-based tests for the network time models.

use netsim::{ContentionModel, Hockney};
use proptest::prelude::*;

fn arb_hockney() -> impl Strategy<Value = Hockney> {
    (1e-7f64..1e-4, 1e-11f64..1e-7).prop_map(|(ts, tw)| Hockney::new(ts, tw))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn p2p_monotone_in_size(h in arb_hockney(), a in 0u64..1 << 30, b in 0u64..1 << 30) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(h.p2p(lo) <= h.p2p(hi));
        prop_assert!(h.p2p(lo) >= h.ts);
    }

    #[test]
    fn aggregate_equals_decomposed(h in arb_hockney(), m in 0u32..10_000, bytes in 0u64..1 << 24) {
        // M messages of equal size cost the same as the aggregate form.
        let per = h.p2p(bytes);
        let agg = h.aggregate(f64::from(m), (u64::from(m) * bytes) as f64);
        prop_assert!((agg - f64::from(m) * per).abs() <= 1e-9 * agg.abs().max(1.0));
    }

    #[test]
    fn contention_never_speeds_links_up(
        knee in 1usize..128,
        kappa in 0.0f64..2.0,
        c in 1usize..4096,
        h in arb_hockney(),
    ) {
        let m = ContentionModel::new(knee, kappa);
        let eff = m.effective(&h, c);
        prop_assert!(eff.tw >= h.tw - 1e-24);
        prop_assert_eq!(eff.ts, h.ts);
        prop_assert!(m.inflation(c) >= 1.0);
    }

    #[test]
    fn contention_monotone_in_concurrency(
        knee in 1usize..64,
        kappa in 0.01f64..2.0,
        c in 1usize..2048,
    ) {
        let m = ContentionModel::new(knee, kappa);
        prop_assert!(m.inflation(c + 1) >= m.inflation(c));
    }

    #[test]
    fn half_power_point_splits_cost_evenly(h in arb_hockney()) {
        let n = h.half_power_point();
        // Rounding to whole bytes only makes sense for non-degenerate
        // links where n_1/2 is comfortably above one byte.
        prop_assume!(n >= 1000.0);
        let t = h.p2p(n.round() as u64);
        // At n_1/2, startup and bandwidth each contribute ~half.
        prop_assert!((t / h.ts - 2.0).abs() < 0.01, "t/ts = {}", t / h.ts);
    }
}
