//! Integration tests: a small real campaign on `poisson2d`, checking
//! the engine's two headline contracts — determinism and correctness of
//! the aggregated results.

use ftcg_engine::prelude::*;
use ftcg_engine::sink;

fn spec() -> CampaignSpec {
    CampaignSpec::parse(
        "name     = itest\n\
         seed     = 2026\n\
         reps     = 5\n\
         threads  = 4\n\
         matrices = poisson2d:14\n\
         schemes  = detection, correction\n\
         alphas   = 0, 1/16\n",
    )
    .expect("spec parses")
}

#[test]
fn same_spec_and_seed_is_deterministic() {
    let a = run_campaign(&spec(), &DefaultResolver, None).unwrap();
    let b = run_campaign(&spec(), &DefaultResolver, None).unwrap();
    // Identical aggregated summaries...
    assert_eq!(a.summaries, b.summaries);
    // ...and byte-identical serialized artifacts.
    assert_eq!(
        sink::jsonl_string(&a.summaries),
        sink::jsonl_string(&b.summaries)
    );
    assert_eq!(
        sink::csv_string(&a.summaries),
        sink::csv_string(&b.summaries)
    );
}

#[test]
fn thread_count_never_changes_results() {
    let mut one = spec();
    one.threads = 1;
    let mut eight = spec();
    eight.threads = 8;
    let a = run_campaign(&one, &DefaultResolver, None).unwrap();
    let b = run_campaign(&eight, &DefaultResolver, None).unwrap();
    assert_eq!(a.summaries, b.summaries);
}

#[test]
fn fault_free_configs_always_converge() {
    let r = run_campaign(&spec(), &DefaultResolver, None).unwrap();
    assert_eq!(r.summaries.len(), 4); // 1 matrix × 2 schemes × 2 α
    assert_eq!(r.total_jobs, 20);
    assert_eq!(r.panics, 0);
    for row in &r.summaries {
        assert_eq!(row.reps, 5, "{}", row.scheme);
        assert_eq!(row.panics, 0);
        if row.alpha == 0.0 {
            assert_eq!(
                row.convergence_rate, 1.0,
                "α=0 must always converge ({})",
                row.scheme
            );
            assert_eq!(row.mean_faults, 0.0);
            // No injection ⇒ zero spread across repetitions.
            assert_eq!(row.time.std, 0.0);
            assert_eq!(row.time.min, row.time.max);
        } else {
            assert!(row.mean_faults > 0.0, "α=1/16 should inject faults");
        }
        assert!(row.time.mean > 0.0);
        assert!(row.max_true_residual < 1e-5);
    }
}

#[test]
fn faulty_configs_cost_more_time_than_clean_ones() {
    let r = run_campaign(&spec(), &DefaultResolver, None).unwrap();
    // Rows are in grid order: (detection, 0), (detection, 1/16),
    // (correction, 0), (correction, 1/16).
    let s = &r.summaries;
    assert!(s[1].time.mean >= s[0].time.mean);
    assert!(s[3].time.mean >= s[2].time.mean);
}

#[test]
fn changing_the_seed_changes_faulty_results_only() {
    let mut reseeded = spec();
    reseeded.seed = 9999;
    let a = run_campaign(&spec(), &DefaultResolver, None).unwrap();
    let b = run_campaign(&reseeded, &DefaultResolver, None).unwrap();
    // α=0 rows carry no randomness at all.
    assert_eq!(a.summaries[0], b.summaries[0]);
    assert_eq!(a.summaries[2], b.summaries[2]);
    // The injected rows see different fault streams.
    assert_ne!(a.summaries[1], b.summaries[1]);
}
