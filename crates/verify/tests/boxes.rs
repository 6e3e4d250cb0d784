//! Interval-engine acceptance: box bisection certifies the real NPB
//! models' workload ranges, converges onto known-degenerate seeds, and the
//! abstract interpreter is sound (every point evaluation lies inside the
//! box evaluation) under randomized probing.

use isoee::interval::{evaluate, AppBox, Interval, MachBox};
use isoee::{AppModel, AppParams, CgModel, EpModel, FtModel, MachineParams};
use proptest::prelude::*;
use verify::{BoxOutcome, BoxSearch};

fn mach() -> MachineParams {
    MachineParams::system_g(2.8e9)
}

#[test]
fn npb_workload_boxes_certify_clean() {
    let m = mach();
    let search = BoxSearch::default();
    let (ft, ep, cg) = (
        FtModel::system_g(),
        EpModel::system_g(),
        CgModel::system_g(),
    );
    let cases: [(&dyn AppModel, Interval, usize); 3] = [
        (&ft, Interval::new(1e5, 4e6), 64),
        (&ep, Interval::new(1e5, 4e6), 64),
        (&cg, Interval::new(1e5, 4e6), 64),
    ];
    for (app, n, p) in cases {
        match search.certify_workload(app, &m, n, p) {
            BoxOutcome::Clean { certified_boxes } => assert!(certified_boxes >= 1),
            other => panic!("{} on {n} must certify clean, got {other:?}", app.name()),
        }
    }
}

/// Like `isoee::scaling`'s ThresholdModel: the workload vector degenerates
/// to all-zero (so `E1 = 0`) below `n = 1e6`. Above the threshold it
/// carries a strictly positive parallel overhead, so `Ep > E1` and the
/// healthy region is interval-certifiable (an `ideal` workload has
/// `Ep = E1` exactly, which outward rounding can never bound below 1).
struct ThresholdModel;

impl AppModel for ThresholdModel {
    fn name(&self) -> &'static str {
        "threshold"
    }

    fn app_params(&self, n: f64, _p: usize) -> AppParams {
        if n < 1e6 {
            AppParams::ideal(0.0)
        } else {
            AppParams::from_raw(1.0, n, 0.0, 0.1 * n, 0.0, 10.0, 1e4, 0.0)
        }
    }
}

#[test]
fn bisection_converges_on_the_degenerate_seed() {
    // The searched box straddles the threshold; the search must come back
    // Degenerate with a sub-box inside the bad region, not Clean and not
    // Inconclusive.
    let m = mach();
    let out =
        BoxSearch::default().certify_workload(&ThresholdModel, &m, Interval::new(1e5, 4e6), 8);
    match out {
        BoxOutcome::Degenerate { sub_box, error } => {
            assert!(
                sub_box.hi < 1e6,
                "witness sub-box {sub_box} must sit below the threshold"
            );
            let isoee::ModelError::DegenerateBaseline { e1 } = error else {
                panic!("expected a degenerate baseline, got {error:?}");
            };
            assert_eq!(e1, simcluster::units::Joules::ZERO);
        }
        other => panic!("expected a degenerate witness, got {other:?}"),
    }

    // An entirely-degenerate box is proven degenerate as a whole.
    let all_bad =
        BoxSearch::default().certify_workload(&ThresholdModel, &m, Interval::new(1e3, 1e5), 8);
    assert!(matches!(all_bad, BoxOutcome::Degenerate { .. }));

    // An entirely-healthy sub-range certifies (point boxes work even
    // without an interval mirror).
    let healthy =
        BoxSearch::default().certify_workload(&ThresholdModel, &m, Interval::point(2e6), 8);
    assert!(
        matches!(healthy, BoxOutcome::Clean { .. }),
        "got {healthy:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness of the abstract interpreter: for a random workload box
    /// and a random point inside it, every exact model quantity lies in
    /// the corresponding interval enclosure.
    #[test]
    fn point_evaluations_lie_inside_box_enclosures(
        lo in 2.0f64..1e6,
        width in 0.0f64..1e6,
        frac in 0.0f64..1.0,
        p_log2 in 1u32..10,
    ) {
        let p = 1usize << p_log2; // CG needs a power-of-two p
        let n_box = Interval::new(lo, lo + width);
        let n = (lo + frac * width).clamp(n_box.lo, n_box.hi);
        let m = mach();
        let mb = MachBox::from_params(&m);
        let (ft, ep, cg) = (FtModel::system_g(), EpModel::system_g(), CgModel::system_g());
        let models: [&dyn AppModel; 3] = [&ft, &ep, &cg];
        for app in models {
            let ab = AppBox::of_model(app, n_box, p).expect("NPB models have interval mirrors");
            let enc = evaluate(&mb, &ab, p);
            let a = app.app_params(n, p);
            let t1 = isoee::t1(&m, &a).raw();
            let tp = isoee::tp(&m, &a, p).raw();
            let e1 = isoee::e1(&m, &a).raw();
            let ep = isoee::ep(&m, &a, p).raw();
            prop_assert!(enc.t1.contains(t1), "{}: T1 {t1} outside {}", app.name(), enc.t1);
            prop_assert!(enc.tp.contains(tp), "{}: Tp {tp} outside {}", app.name(), enc.tp);
            prop_assert!(enc.e1.contains(e1), "{}: E1 {e1} outside {}", app.name(), enc.e1);
            prop_assert!(enc.ep.contains(ep), "{}: Ep {ep} outside {}", app.name(), enc.ep);
            if let (Some(ee_box), Ok(ee)) = (enc.ee, isoee::ee(&m, &a, p)) {
                prop_assert!(ee_box.contains(ee), "{}: EE {ee} outside {ee_box}", app.name());
            }
        }
    }
}
