//! Order statistics for the reported numbers: every timing headline is
//! a median with its quartiles and sample count.

/// Linear-interpolation quantile of an ascending-sorted sample
/// (`q` in `[0, 1]`); `NaN` for an empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median, quartiles and count of one sample, for the printed tables.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            n: s.len(),
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} [q1 {:.4}, q3 {:.4}, n={}]",
            self.median, self.q1, self.q3, self.n
        )
    }
}

/// The fastest of several repeats of *identical* work (a matrix's
/// baseline solves, a campaign's passes, set-up reruns).
///
/// On the recording host — a shared 2-vCPU VM — interference only ever
/// adds time: bursts of +40 % for half a second, phases of +10-30 % for
/// seconds to minutes. Across ten runs the median of identical repeats
/// then moves by 6-19 % of itself, their minimum by 2-7 %: the minimum
/// tracks the undisturbed speed, the median how much of the window
/// happened to be disturbed. The sample count is always printed.
pub fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Undisturbed-time estimates for solves whose work differs.
///
/// `samples` are `(class, seconds, executed iterations)`. Within a
/// class (one matrix under one configuration) the time per executed
/// iteration is nearly constant — fault streams change *how many*
/// iterations a solve executes, not what one costs — so each solve's
/// time is re-estimated as its own executed iterations times the
/// class's fast-quartile per-iteration time (a quartile, not the
/// minimum: the repeats are not identical work). The amount of work
/// stays the measured one; only the interference is removed.
pub fn undisturbed(samples: &[(usize, f64, usize)]) -> Vec<f64> {
    let classes = samples.iter().map(|s| s.0).max().map_or(0, |c| c + 1);
    let mut per_iter: Vec<Vec<f64>> = vec![Vec::new(); classes];
    for &(class, secs, executed) in samples {
        if executed > 0 {
            per_iter[class].push(secs / executed as f64);
        }
    }
    let fast: Vec<f64> = per_iter.iter().map(|v| quantile(v, 0.25)).collect();
    samples
        .iter()
        .map(|&(class, secs, executed)| {
            if executed > 0 {
                executed as f64 * fast[class]
            } else {
                secs
            }
        })
        .collect()
}
