//! Anatomy of the ABFT-protected SpMxV (Algorithm 2): corrupt each part
//! of the CSR representation and the vectors in turn, and watch the
//! checksums localize and repair the error.
//!
//! Run with: `cargo run --release --example abft_spmv`

use ftcg::abft::{ProtectedSpmv, SpmvOutcome, XRef};
use ftcg::prelude::*;

fn show(outcome: &SpmvOutcome) -> String {
    match outcome {
        SpmvOutcome::Clean => "clean (no error)".to_string(),
        SpmvOutcome::Corrected(rep) => format!("CORRECTED {:?}", rep.kind),
        SpmvOutcome::Detected(_) => "DETECTED (uncorrectable, would roll back)".to_string(),
    }
}

fn main() {
    let a = gen::random_spd(200, 0.05, 1).expect("valid generator input");
    let n = a.n_rows();
    println!("matrix: n = {n}, nnz = {}\n", a.nnz());

    // Reliable setup: once per matrix.
    let protected = ProtectedSpmv::new(&a);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 1.0).collect();
    let xref = XRef::capture(&x);
    let clean_y = a.spmv(&x);

    type Corruptor<'a> = &'a dyn Fn(&mut CsrMatrix, &mut Vec<f64>, &mut Vec<f64>);
    let run = |label: &str, corrupt: Corruptor| {
        let mut am = a.clone();
        let mut xm = x.clone();
        let mut y = vec![0.0; n];
        protected.spmv(&am, &xm, &mut y);
        corrupt(&mut am, &mut xm, &mut y);
        // If the corruption hit an input, the product must be redone; the
        // driver does that by re-running the kernel before verification.
        let res = protected.verify(&am, &xm, &xref, &y);
        let outcome = if res.clean() {
            SpmvOutcome::Clean
        } else {
            protected.correct(&mut am, &mut xm, &xref, &mut y, &res)
        };
        let max_err = y
            .iter()
            .zip(clean_y.iter())
            .map(|(u, v)| (u - v).abs())
            .fold(0.0_f64, f64::max);
        println!(
            "{label:<42} -> {:<40} residual error {max_err:.2e}",
            show(&outcome)
        );
    };

    println!("single errors (all recovered forward):");
    run("no corruption", &|_, _, _| {});
    run("Val[17] += 2.5 (matrix value)", &|am, _, y| {
        am.val_mut()[17] += 2.5;
        // recompute with the corrupted matrix, as the driver would
        am.spmv_clamped_into(&x, y);
    });
    run("Colid[40] redirected (matrix structure)", &|am, _, y| {
        am.colid_mut()[40] = (am.colid()[40] + 13) % 200;
        am.spmv_clamped_into(&x, y);
    });
    run("Rowidx[60] += 3 (row pointer)", &|am, _, y| {
        am.rowptr_mut()[60] += 3;
        am.spmv_clamped_into(&x, y);
    });
    run("x[99] sign flip (input vector)", &|am, xm, y| {
        xm[99] = -xm[99];
        am.spmv_clamped_into(xm, y);
    });
    run("y[150] exponent flip (output/computation)", &|_, _, y| {
        y[150] = f64::from_bits(y[150].to_bits() ^ (1 << 62));
    });

    println!("\ndouble errors (detected, rollback required):");
    run("two Val entries corrupted", &|am, _, y| {
        am.val_mut()[3] += 1.0;
        am.val_mut()[90] -= 2.0;
        am.spmv_clamped_into(&x, y);
    });
    run("Val and x corrupted together", &|am, xm, y| {
        am.val_mut()[5] += 1.0;
        xm[10] += 1.0;
        am.spmv_clamped_into(xm, y);
    });
}
