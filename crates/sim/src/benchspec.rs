//! Standardized bench-suite campaign specs.
//!
//! `ftcg bench` measures the real pipeline, so its campaign suites are
//! ordinary [`CampaignSpec`](ftcg_engine::CampaignSpec) texts — pinned
//! here, next to the paper's matrix table, so the "Table 1 throughput"
//! suite always sweeps exactly the nine paper matrices and a bench
//! entry's `spec` field is reproducible byte for byte.

use crate::matrices::PAPER_MATRICES;

/// The Table 1 throughput suite: all nine paper matrices × the three
/// schemes at α = 1/16 — the same shape as the historical hand-timed
/// `campaign_throughput` entries, parameterized by scale divisor and
/// repetitions.
pub fn table1_bench_spec(scale: usize, reps: usize, seed: u64) -> String {
    let mut matrices = String::new();
    for (i, m) in PAPER_MATRICES.iter().enumerate() {
        if i > 0 {
            matrices.push_str(", ");
        }
        matrices.push_str(&format!("paper:{}:{scale}", m.id));
    }
    format!(
        "name = bench-table1\n\
         seed = {seed}\n\
         reps = {reps}\n\
         threads = 0\n\
         matrices = {matrices}\n\
         schemes = detection, correction, online\n\
         alphas = 1/16\n"
    )
}

/// The quick suite: one small Poisson grid through both ABFT schemes
/// with and without faults — seconds, not minutes, so it can run as an
/// advisory gate on every CI build.
pub fn quick_bench_spec(seed: u64) -> String {
    format!(
        "name = bench-quick\n\
         seed = {seed}\n\
         reps = 6\n\
         threads = 0\n\
         matrices = poisson2d:24\n\
         schemes = detection, correction\n\
         alphas = 0, 1/16\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_engine::CampaignSpec;

    #[test]
    fn suite_specs_parse_and_are_reproducible() {
        let t = table1_bench_spec(16, 50, 1);
        assert_eq!(t, table1_bench_spec(16, 50, 1));
        let cs = CampaignSpec::parse(&t).unwrap();
        assert_eq!(cs.matrices.len(), 9);
        assert_eq!(cs.schemes.len(), 3);
        assert_eq!(cs.n_jobs(), 9 * 3 * 50);
        assert!(t.contains("paper:341:16"));

        let q = CampaignSpec::parse(&quick_bench_spec(42)).unwrap();
        assert_eq!(q.n_jobs(), 4 * 6);
    }
}
