//! Cross-build pins of the resilient protocol: every scheme, fault-free
//! and under injection, must reproduce campaign CSVs written by an
//! earlier build byte for byte. A refactor of the executor, the
//! schemes or the ABFT rules that moves a single simulated time,
//! iteration count, rollback or residual bit fails here.
//!
//! The fixtures are `ftcg campaign --gen … --schemes online,detection,correction
//! --alphas 0,1/8,1/4 --reps 2 --seed 7 --threads 2 --csv FILE`, with
//! the `--gen` of each spec below: the `cg` rows an earlier build wrote
//! for that grid while it still swept a solver axis (`cg`, `pcg` and two
//! more). Each job's fault stream was drawn independently of that axis,
//! so deleting the other solvers left every `cg` row as it was.

use ftcg::engine::{run_campaign, sink, CampaignSpec};
use ftcg::sim::matrices::PaperMatrixResolver;

/// The 3 schemes × 3 rates grid over `matrices`.
fn spec(matrices: &str) -> CampaignSpec {
    CampaignSpec::parse(&format!(
        "seed     = 7\n\
         reps     = 2\n\
         threads  = 2\n\
         matrices = {matrices}\n\
         schemes  = online, detection, correction\n\
         alphas   = 0, 1/8, 1/4\n"
    ))
    .unwrap()
}

fn assert_csv_matches(matrices: &str, pinned: &str) {
    let result = run_campaign(&spec(matrices), &PaperMatrixResolver, None).unwrap();
    let csv = sink::csv_string(&result.summaries);
    for (i, (got, want)) in csv.lines().zip(pinned.lines()).enumerate() {
        assert_eq!(got, want, "CSV line {} differs", i + 1);
    }
    assert_eq!(csv, pinned);
}

/// 9 configurations on a small Laplacian: fast enough for every
/// `cargo test`.
#[test]
fn every_scheme_and_solver_matches_a_pinned_earlier_build() {
    assert_csv_matches(
        "poisson2d:12",
        include_str!("fixtures/protocol_pin_poisson.csv"),
    );
}

/// The 18-configuration campaign adding a scaled paper matrix, whose
/// long ill-conditioned solves roll back thirty times as often as the
/// Laplacian's. Tens of times slower unoptimized: `ci.sh` runs it
/// with `cargo test --release -p ftcg --test protocol_pin --
/// --include-ignored`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow unoptimized; ci.sh runs it in release"
)]
fn paper_matrix_campaign_matches_a_pinned_earlier_build() {
    assert_csv_matches(
        "paper:341:16, poisson2d:12",
        include_str!("fixtures/protocol_pin_paper.csv"),
    );
}
