//! The benchmark's campaign spec.
//!
//! The `campaign_t1` / `campaign_t2` workloads of `benchmark/` run an
//! ordinary [`CampaignSpec`](ftcg_engine::CampaignSpec) text — pinned
//! here, next to the paper's matrix table, so the "Table 1 throughput"
//! campaign always sweeps exactly the nine paper matrices.

use crate::matrices::PAPER_MATRICES;

/// The Table 1 throughput campaign: all nine paper matrices × the three
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
    }
}
