//! Pins of the generated paper matrices: `(n, nnz, digest)` of every
//! `paper:ID` at scales 8 and 16, and of the four benchmark matrices at
//! their published order (`#[ignore]`d: under a second in release,
//! much longer unoptimized; `./ci.sh` runs them in release).
//!
//! Every campaign, trajectory and benchmark digest in the workspace
//! starts from these matrices, so a generator change that moves one
//! bit of one of them fails here first. The digest is FNV-1a-64 over
//! the little-endian bytes of every `rowptr` entry as `u64`, then every
//! `colid` entry as `u64`, then every `val.to_bits()`.

use ftcg_sim::matrices::by_id;
use ftcg_sparse::CsrMatrix;

fn digest(a: &CsrMatrix) -> u64 {
    let words = a
        .rowptr()
        .iter()
        .chain(a.colid())
        .map(|&w| w as u64)
        .chain(a.val().iter().map(|v| v.to_bits()));
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Generates `paper:ID:SCALE` and checks it against its pin.
fn check(pins: &[(u32, usize, usize, usize, u64)]) {
    for &(id, scale, n, nnz, want) in pins {
        let a = by_id(id).unwrap().generate(scale);
        let got = (a.n_rows(), a.nnz(), digest(&a));
        assert_eq!(got, (n, nnz, want), "paper:{id}:{scale}");
    }
}

#[test]
fn miniatures_are_pinned() {
    check(&[
        (341, 8, 2881, 142787, 0x58a1_6633_2ea6_aa33),
        (752, 8, 9344, 74738, 0x4ed5_0aa4_58f5_8a0a),
        (924, 8, 7500, 94950, 0x3273_2e84_bbcd_dd2c),
        (1288, 8, 3800, 58916, 0x39ec_6bdf_6434_5fd0),
        (1289, 8, 4555, 70711, 0xe851_073f_ed98_5ebb),
        (1311, 8, 6120, 64124, 0x594d_40d7_bd1b_ea6d),
        (1312, 8, 5000, 24800, 0xaff1_62dd_6119_ac7b),
        (1848, 8, 8128, 128960, 0x166c_929c_7f87_63c6),
        (2213, 8, 2500, 69500, 0x77db_0f43_83bc_0fe7),
        (341, 16, 1440, 71368, 0xc7b2_cfa9_f745_d671),
        (752, 16, 4672, 37368, 0xa5d6_2b2b_542e_c7bd),
        (924, 16, 3750, 47474, 0xafaa_29f7_80dd_1935),
        (1288, 16, 1900, 29458, 0xbf05_e776_0a48_8ed9),
        (1289, 16, 2277, 35347, 0x6234_80e0_41ab_10f7),
        (1311, 16, 3060, 32062, 0x37eb_d0eb_25ee_d3aa),
        (1312, 16, 2500, 12400, 0x3bae_aca5_d863_cc8d),
        (1848, 16, 4064, 64480, 0xaa5f_7fb1_2dc6_67b2),
        (2213, 16, 1250, 34750, 0x886f_62ba_95f2_c920),
    ]);
}

#[test]
#[ignore = "published order: slow unoptimized; ./ci.sh runs it in release"]
fn benchmark_matrices_at_published_order_are_pinned() {
    check(&[
        (341, 1, 23052, 1142498, 0xc0ec_f3f7_4562_db69),
        (752, 1, 74752, 597900, 0x5a10_cd7c_eede_ffc2),
        (1311, 1, 48962, 513016, 0x3939_60ab_b106_1896),
        (2213, 1, 20000, 556000, 0x6b3a_0256_181a_1665),
    ]);
}
