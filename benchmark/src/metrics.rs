//! The metric vocabulary: every name a run may print, with its unit and
//! direction. `BENCHMARK.json` lists the same names (plus the bounds);
//! `--quick` asserts the two agree.

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// Measured with spans off, and bounded in `BENCHMARK.json`. Three of
/// the issue's eight are not listed. `failed_frac` travels as the
/// `failed` / `attempted` counts of every result line. `solves_per_s`
/// and `slowdown_p90` are printed by every run but cannot carry a bound
/// on the recording host: across ten seeds they spread by up to 24 % and
/// 27 % of their medians (`fullsize_solve`: eighteen solves per window,
/// minute-long slow phases of the VM), and a metric's bound is at most
/// 25 %. Throughput stays bounded through its two factors,
/// `overhead_ratio` and `unprotected_solve_ms`.
pub const END_TO_END: [MetricDef; 5] = [
    ("setup_s", "s", "lower"),
    ("unprotected_solve_ms", "ms", "lower"),
    ("overhead_ratio", "ratio", "lower"),
    ("slowdown_p50", "ratio", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// From the traced run; layer = crate name.
pub const PER_LAYER: [MetricDef; 74] = [
    ("sparse.spmv_ns_per_nnz", "ns/nnz", "lower"),
    ("sparse.spmv_clamped_probe_ns_per_nnz", "ns/nnz", "lower"),
    ("sparse.spmv_transpose_ns_per_nnz", "ns/nnz", "lower"),
    ("sparse.fused_sweeps_ns_per_elem", "ns/elem", "lower"),
    ("sparse.stream_triad_gbps", "GB/s", "higher"),
    ("sparse.image_restore_gbps", "GB/s", "higher"),
    ("sparse.image_bytes", "B", "lower"),
    ("kernels.csr_ns_per_nnz", "ns/nnz", "lower"),
    ("kernels.sell8_ns_per_nnz", "ns/nnz", "lower"),
    ("kernels.bcsr2_ns_per_nnz", "ns/nnz", "lower"),
    ("kernels.csr_par_t2_ns_per_nnz", "ns/nnz", "lower"),
    ("kernels.prepare_ms", "ms", "lower"),
    ("kernels.prepare_sell8_ms", "ms", "lower"),
    ("kernels.prepare_bcsr2_ms", "ms", "lower"),
    ("kernels.defensive_probe_ns_per_nnz", "ns/nnz", "lower"),
    ("kernels.spmv_gbps", "GB/s", "higher"),
    ("kernels.spmv_roof_frac", "ratio", "higher"),
    ("kernels.product_busy_ms", "ms", "lower"),
    ("kernels.product_calls", "count", "lower"),
    ("abft.setup_ms", "ms", "lower"),
    ("abft.verify_single_ns_per_row", "ns/row", "lower"),
    ("abft.verify_dual_ns_per_row", "ns/row", "lower"),
    ("abft.correct_us", "us", "lower"),
    ("abft.tmr_vote_ns_per_elem", "ns/elem", "lower"),
    ("abft.product_check_busy_ms", "ms", "lower"),
    ("abft.product_check_calls", "count", "lower"),
    ("abft.tmr_vote_busy_ms", "ms", "lower"),
    ("abft.detections", "count", "lower"),
    ("abft.forward_corrections", "count", "higher"),
    ("abft.correction_success_frac", "ratio", "higher"),
    ("checkpoint.save_us", "us", "lower"),
    ("checkpoint.restore_us", "us", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("checkpoint.save_gbps", "GB/s", "higher"),
    ("checkpoint.save_busy_ms", "ms", "lower"),
    ("checkpoint.saves", "count", "lower"),
    ("checkpoint.rollback_busy_ms", "ms", "lower"),
    ("checkpoint.rollbacks", "count", "lower"),
    ("fault.plan_iteration_ns", "ns", "lower"),
    ("fault.injected", "count", "lower"),
    ("fault.undetected_frac", "ratio", "lower"),
    ("model.optimal_interval_us", "us", "lower"),
    ("solvers.cg_unprotected_ns_per_iter", "ns/iter", "lower"),
    ("solvers.step_self_ms", "ms", "lower"),
    ("solvers.chunk_verify_busy_ms", "ms", "lower"),
    ("solvers.executor_self_ms", "ms", "lower"),
    ("solvers.executed_iters", "count", "lower"),
    ("solvers.productive_iters", "count", "lower"),
    ("solvers.useful_iter_frac", "ratio", "higher"),
    ("solvers.ns_per_exec_iter_nnz", "ns/nnz", "lower"),
    ("solvers.workspace_warmup_ms", "ms", "lower"),
    ("telemetry.active_overhead_pct", "%", "lower"),
    ("telemetry.events_per_solve", "count", "lower"),
    ("telemetry.events_dropped", "count", "lower"),
    ("engine.expand_ms", "ms", "lower"),
    ("engine.run_ms", "ms", "lower"),
    ("engine.fold_ms", "ms", "lower"),
    ("engine.sink_ms", "ms", "lower"),
    ("engine.self_ms_per_job", "ms", "lower"),
    ("engine.journal_overhead_pct", "%", "lower"),
    ("engine.telemetry_overhead_pct", "%", "lower"),
    ("engine.journal_bytes_per_job", "B", "lower"),
    ("engine.speedup_t2", "ratio", "higher"),
    ("engine.par_efficiency_t2", "ratio", "higher"),
    ("sim.generate_ms", "ms", "lower"),
    ("sim.titer_us", "us", "lower"),
    ("sim.tverif_detect_iters", "iters", "lower"),
    ("sim.tverif_correct_iters", "iters", "lower"),
    ("sim.tverif_online_iters", "iters", "lower"),
    ("sim.tcp_iters", "iters", "lower"),
    ("sim.trec_iters", "iters", "lower"),
    ("bench.span_overhead_pct", "%", "lower"),
    ("bench.spans_dropped", "count", "lower"),
    ("bench.ledger_residual_pct", "%", "lower"),
];

/// The metrics of one run, in emission order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(!self.values.iter().any(|(n, _)| *n == name), "{name} twice");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The values ordered as `defs`, or the first name that is missing
    /// or not a finite number.
    pub fn ordered(&self, defs: &[MetricDef]) -> Result<Vec<(MetricDef, f64)>, String> {
        defs.iter()
            .map(|&def| match self.get(def.0) {
                Some(v) if v.is_finite() => Ok((def, v)),
                Some(v) => Err(format!("metric {} is not finite ({v})", def.0)),
                None => Err(format!("metric {} was not produced", def.0)),
            })
            .collect()
    }
}
