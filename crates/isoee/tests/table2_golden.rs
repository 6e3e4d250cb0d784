//! The Table-2 vectors of the built-in NPB models, pinned bit for bit.
//!
//! For each model and every `(n, p)` of its grid, the test folds into one
//! FNV-1a hash:
//!
//! * the `to_bits` of every field of `app_params(n, p)`;
//! * the `lo`/`hi` bits of every field of `app_params_box`, for the point
//!   box `[n, n]` and for the ranged box `[n, 2n]`.
//!
//! The constants were computed from the models' formulas before they were
//! shared between the `f64` and interval paths, so a refactor of those
//! formulas that moves any bit in either output fails here. The grids span
//! each model's figure range (Figs. 5–9) and include non-power-of-two `p`
//! (folded allreduces) where the model admits them.

use isoee::apps::{AppModel, CgModel, EpModel, FtModel};
use isoee::{AppBox, AppParams, Interval};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over the little-endian bytes of each folded word.
struct Fnv(u64);

impl Fnv {
    fn fold(&mut self, x: f64) {
        for byte in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn fold_params(&mut self, a: &AppParams) {
        for x in [
            a.alpha,
            a.wc.raw(),
            a.wm.raw(),
            a.woc.raw(),
            a.wom.raw(),
            a.messages.raw(),
            a.bytes.raw(),
            a.t_io.raw(),
        ] {
            self.fold(x);
        }
    }

    fn fold_box(&mut self, b: &AppBox) {
        for x in [
            b.alpha, b.wc, b.wm, b.woc, b.wom, b.messages, b.bytes, b.t_io,
        ] {
            self.fold(x.lo);
            self.fold(x.hi);
        }
    }
}

fn table2_hash(model: &dyn AppModel, ps: &[usize], ns: &[f64]) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    for &p in ps {
        assert!(model.admits(p), "{} does not admit p = {p}", model.name());
        for &n in ns {
            h.fold_params(&model.app_params(n, p));
            for n_box in [Interval::point(n), Interval::new(n, 2.0 * n)] {
                let b = model
                    .app_params_box(n_box, p)
                    .unwrap_or_else(|| panic!("{} has no box at n = {n_box}", model.name()));
                h.fold_box(&b);
            }
        }
    }
    h.0
}

const PS: [usize; 11] = [1, 2, 3, 4, 7, 16, 64, 100, 256, 1000, 1024];

#[test]
fn ft_table2_is_pinned() {
    let ns = [
        15_000.0,
        65_536.0,
        250_000.0,
        1_048_576.0,
        3_000_000.0,
        8_388_608.0,
        67_108_864.0,
    ];
    let h = table2_hash(&FtModel::system_g(), &PS, &ns);
    assert_eq!(h, 0x788b_2cc5_8cdd_807e, "FT Table-2 hash {h:#018x}");
}

#[test]
fn ep_table2_is_pinned() {
    let ns = [1e5, 1e6, 4_194_304.0, 1e7, 3e7, 1e8, 1e9];
    let h = table2_hash(&EpModel::system_g(), &PS, &ns);
    assert_eq!(h, 0x341c_01a9_1cb0_e61a, "EP Table-2 hash {h:#018x}");
}

#[test]
fn cg_table2_is_pinned() {
    let ps = [1, 2, 4, 8, 16, 32, 64, 128, 256, 1024];
    let ns = [
        7_500.0, 9_375.0, 18_750.0, 37_500.0, 75_000.0, 75_776.0, 150_000.0, 300_000.0,
    ];
    let h = table2_hash(&CgModel::system_g(), &ps, &ns);
    assert_eq!(h, 0xcb26_ea4e_ff6a_56a5, "CG Table-2 hash {h:#018x}");
}
