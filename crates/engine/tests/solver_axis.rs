//! Integration tests for the campaign `solvers` axis: per-solver
//! aggregation rows, paired fault streams across solver variants, and
//! determinism of the expanded artifacts.

use ftcg_engine::grid::expand;
use ftcg_engine::inject::paper_injector;
use ftcg_engine::prelude::*;
use ftcg_engine::seedstream::derive_seed;
use ftcg_engine::sink;

fn spec() -> CampaignSpec {
    CampaignSpec::parse(
        "name     = solver-axis\n\
         seed     = 31\n\
         reps     = 4\n\
         threads  = 4\n\
         matrices = poisson2d:12\n\
         schemes  = online, detection, correction\n\
         alphas   = 1/16\n\
         solvers  = cg, pcg\n",
    )
    .expect("spec parses")
}

#[test]
fn campaign_produces_per_solver_rows_for_every_scheme() {
    let r = run_campaign(&spec(), &DefaultResolver, None).unwrap();
    // 1 matrix × 3 schemes × 1 α × 2 solvers, solvers innermost.
    assert_eq!(r.summaries.len(), 6);
    assert_eq!(r.panics, 0);
    let labels: Vec<(&str, &str)> = r
        .summaries
        .iter()
        .map(|row| (row.scheme.as_str(), row.solver.as_str()))
        .collect();
    assert_eq!(
        labels,
        [
            ("ONLINE-DETECTION", "cg"),
            ("ONLINE-DETECTION", "pcg"),
            ("ABFT-DETECTION", "cg"),
            ("ABFT-DETECTION", "pcg"),
            ("ABFT-CORRECTION", "cg"),
            ("ABFT-CORRECTION", "pcg"),
        ]
    );
    for row in &r.summaries {
        assert_eq!(row.reps, 4, "{} / {}", row.scheme, row.solver);
        assert!(row.time.mean > 0.0, "{} / {}", row.scheme, row.solver);
        assert!(
            row.convergence_rate > 0.0,
            "{} / {}",
            row.scheme,
            row.solver
        );
    }
    // The artifacts carry the solver column.
    let jsonl = sink::jsonl_string(&r.summaries);
    assert!(jsonl.contains("\"solver\":\"pcg\""), "{jsonl}");
    let csv = sink::csv_string(&r.summaries);
    assert!(csv.lines().next().unwrap().contains(",solver,"));
}

#[test]
fn solver_variants_share_fault_streams() {
    // Common-random-numbers pairing: every solver variant of one
    // (matrix, scheme, α) point must derive its per-repetition seeds
    // from the same solver-free coordinate...
    let s = spec();
    let configs = expand(&s, &DefaultResolver).unwrap();
    assert_eq!(configs.len(), 6);
    for point in configs.chunks(2) {
        let group = point[0].seed_group;
        assert!(group.is_some());
        for variant in point {
            assert_eq!(
                variant.seed_group, group,
                "solver variants of one grid point must share a seed group"
            );
        }
    }
    // ...so the injectors they build plan literally the same faults:
    // walk the first repetition's stream for two variants of point 0.
    let a = &configs[0].matrix;
    let alpha = configs[0].key.alpha;
    let seed = derive_seed(s.seed, configs[0].seed_group.unwrap(), 0);
    let mut inj_cg = paper_injector(a, alpha, seed);
    let mut inj_pcg = paper_injector(a, alpha, seed);
    let mut total = 0usize;
    for _ in 0..200 {
        let ev_cg = inj_cg.plan_iteration();
        let ev_pcg = inj_pcg.plan_iteration();
        assert_eq!(ev_cg, ev_pcg, "paired streams must plan the same faults");
        total += ev_cg.len();
    }
    assert!(total > 0, "α=1/16 over 200 iterations must strike");
}

#[test]
fn solver_axis_artifacts_are_deterministic() {
    let a = run_campaign(&spec(), &DefaultResolver, None).unwrap();
    let b = run_campaign(&spec(), &DefaultResolver, None).unwrap();
    assert_eq!(a.summaries, b.summaries);
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
fn specs_without_solver_axis_keep_their_fault_streams() {
    // Back-compat: adding the solver axis must not shift the seed
    // coordinates of historical specs (solvers defaults to [cg]).
    let old = CampaignSpec::parse(
        "seed = 7\nreps = 3\nmatrices = poisson2d:10\nschemes = correction\nalphas = 1/16\n",
    )
    .unwrap();
    let with_axis = CampaignSpec::parse(
        "seed = 7\nreps = 3\nmatrices = poisson2d:10\nschemes = correction\nalphas = 1/16\nsolvers = cg\n",
    )
    .unwrap();
    let a = run_campaign(&old, &DefaultResolver, None).unwrap();
    let b = run_campaign(&with_axis, &DefaultResolver, None).unwrap();
    assert_eq!(a.summaries, b.summaries);
}
