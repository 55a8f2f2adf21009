//! Numerical minimization of the model overhead (eq. 6).
//!
//! "The minimization is complicated and should be conducted numerically"
//! (Section 4.1). [`optimal_s`] returns what the full scan of
//! `1..=s_max` would (the first `s` with the least computed value, and
//! that value's bits) from far fewer evaluations than `s_max`. It
//! brackets the minimum first: a gallop over `s = 1, 2, 4, …` while
//! the values fall, then an integer ternary search between the point
//! before the last fall and the first point that did not fall. Then a
//! walk goes down from the least value the bracket saw and another goes
//! up, and each stops once the rest of its side cannot win. Going down,
//! ties go to the smaller `s`; going up, only a strictly smaller value
//! wins. The walks are exact from any start, so the bracket only decides
//! how many points they visit: a comparison that rounding turns the
//! wrong way costs evaluations, never the answer. The gallop keeps a
//! minimum at small `s` (every faulty rate) about as cheap as a scan
//! from `s = 1`, and the ternary search keeps one near `s_max` (the
//! fault-free plans) to a few dozen evaluations.
//!
//! **Why it may stop.** With `λ = −ln q` the overhead is
//! `E(s,T)/(sT) = (a + C·(e^{λs} − 1))/s`, where `a = Tcp/T ≥ 0` and
//! `C = (Trec + (T + Tverif)/(1 − q))/T > 0`. Its derivative in `s` has
//! the sign of `−a + C·φ(s)`, where `φ(s) = λs·e^{λs} − e^{λs} + 1` rises
//! strictly from `φ(0) = 0` (`φ′(s) = λ²s·e^{λs}`). So for `0 < q < 1` the
//! overhead falls strictly up to one point and rises strictly after it.
//! At `q = 1` it is `(Tcp + s·(T + Tverif))/(sT)`, which never rises.
//! Either way, a value *truly* above one nearer the start lies on the far
//! side of the minimum from it. Walking up, every later value is larger
//! still; walking down, every earlier one is.
//!
//! **When it stops.** A computed value carries rounding. For `q < 1`,
//! `qˢ` by repeated multiplication is off by up to `(s − 1)·u` (`u = 2⁻⁵³`
//! relative), and the cancellation in `q⁻ˢ − 1` magnifies that by
//! `1/(1 − qˢ)`; since `s/(1 − qˢ) ≤ s + 1/λ ≤ s + 1/(1 − q)`, one
//! evaluation is off by at most `ε = u·(s_max + 1/(1 − q) + 8)`, the
//! `8u` being the formula's other roundings. At `q = 1` there is no
//! `powi` and no cancellation, only five roundings of non-negative
//! terms, so `ε = 8u`. A walk stops at the first value `o` with
//! `o·(1 − 4ε) > best·(1 + 4ε)`, `best` its running best: to first order
//! `o` above `1 + 8ε` times `best`, twice the `4ε` the argument needs.
//! `2ε` make the stopping value's true value exceed the best's (so every
//! value beyond it is truly larger still), `2ε` more keep every computed
//! value beyond it above the computed best. Written this way the test
//! never fires once `4ε ≥ 1`, which only the four doubles
//! `1 − q ≤ 4u` reach; there the walks run to the ends of the range.
//!
//! **Overflow.** Where `λ·T·s` passes about 709, `q⁻ˢ` leaves `f64` and
//! the value is `∞`, or NaN when a zero `Trec` multiplies it. Both stand
//! for a true value above every finite one. The search ranks NaN as `∞`:
//! it never wins (as in the full scan, where `NaN < best` is false), it
//! ends the gallop, and it stops a walk whose best is finite. Where
//! `1/q` itself overflows every value is NaN or `∞`, nothing is truly
//! above anything, and the walks run to the ends and return `s = 1`, as
//! the full scan does. Compared directly, a NaN would pass for a fall,
//! and a NaN best is one that nothing beats.

use std::cell::Cell;

use crate::ResilienceCosts;

use crate::frame::overhead;
use crate::success::q_detection;
use crate::Scheme;

/// An optimal checkpoint interval with its predicted overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Optimum {
    /// Number of chunks per frame (`s*`).
    pub s: usize,
    /// The minimized `E(s,T)/(sT)`.
    pub overhead: f64,
}

/// The minimizer of `E(s,T)/(sT)` over `s ∈ 1..=s_max` at fixed chunk
/// length `t` and success probability `q`: the first `s` with the least
/// computed value, found by a bracket and two walks that stop once the
/// rest of the range cannot win (see the module docs).
pub fn optimal_s(t: f64, costs: &ResilienceCosts, q: f64, s_max: usize) -> Optimum {
    search(q, s_max, |s| overhead(s, t, costs, q))
}

/// The search of [`optimal_s`] over any evaluator of eq. 6 at success
/// probability `q`, `overhead_at(s)` for `s ∈ 1..=s_max`.
fn search(q: f64, s_max: usize, overhead_of: impl Fn(usize) -> f64) -> Optimum {
    assert!(s_max >= 1, "need at least one candidate");
    // Remembers the last evaluation: the walk up often starts with the
    // point that ended the gallop.
    let last = Cell::new((0, f64::NAN));
    let overhead_at = |s: usize| {
        let (at, o) = last.get();
        if at == s {
            return o;
        }
        let o = overhead_of(s);
        last.set((s, o));
        o
    };
    // ε = u·ulps bounds one evaluation's rounding; the margin is `4ε`
    // (`2·EPSILON` is `4u`).
    let ulps = if q < 1.0 {
        s_max as f64 + 1.0 / (1.0 - q) + 8.0
    } else {
        8.0
    };
    let margin = 2.0 * f64::EPSILON * ulps;
    let (below, above) = (1.0 - margin, 1.0 + margin);
    // NaN (an overflowed `q⁻ˢ` times a zero `Trec`) ranks as `∞`.
    let rank = |o: f64| if o.is_nan() { f64::INFINITY } else { o };
    let truly_above = |o: f64, best: f64| rank(o) * below > rank(best) * above;

    // Bracket (see the module docs); `best` is the least value seen.
    let mut best = Optimum {
        s: 1,
        overhead: overhead_at(1),
    };
    let (mut lo, mut hi) = (1, s_max);
    while best.s < s_max {
        let s = (2 * best.s).min(s_max);
        let o = overhead_at(s);
        if rank(o) >= rank(best.overhead) {
            hi = s;
            break;
        }
        lo = best.s;
        best = Optimum { s, overhead: o };
    }
    while hi - lo > 2 {
        let third = (hi - lo) / 3;
        let (m1, m2) = (lo + third, hi - third);
        let (o1, o2) = (overhead_at(m1), overhead_at(m2));
        for (s, o) in [(m1, o1), (m2, o2)] {
            if rank(o) < rank(best.overhead) {
                best = Optimum { s, overhead: o };
            }
        }
        if rank(o1) <= rank(o2) {
            hi = m2 - 1;
        } else {
            lo = m1 + 1;
        }
    }

    // The walks, from the least value seen.
    let start = best.s;
    for s in (1..start).rev() {
        let o = overhead_at(s);
        if rank(o) <= rank(best.overhead) {
            best = Optimum { s, overhead: o };
        } else if truly_above(o, best.overhead) {
            break;
        }
    }
    for s in start + 1..=s_max {
        let o = overhead_at(s);
        if rank(o) < rank(best.overhead) {
            best = Optimum { s, overhead: o };
        } else if truly_above(o, best.overhead) {
            break;
        }
    }
    best
}

/// Model-optimal checkpoint interval for the two ABFT schemes, where a
/// chunk is one iteration (`T = Titer`). `lambda` is the fault rate per
/// iteration (`α`), `titer` the iteration cost (1 when normalized).
pub fn optimal_abft_interval(
    scheme: Scheme,
    lambda: f64,
    titer: f64,
    costs: &ResilienceCosts,
    s_max: usize,
) -> Optimum {
    assert!(
        scheme != Scheme::OnlineDetection,
        "use optimal_online_interval for ONLINE-DETECTION"
    );
    let q = scheme.chunk_success(lambda, titer);
    optimal_s(titer, costs, q, s_max)
}

/// Verification/checkpoint plan for ONLINE-DETECTION: verify every `d`
/// iterations, checkpoint every `s` chunks (`c = s` in Chen's notation,
/// checkpoint period `s·d` iterations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlinePlan {
    /// Iterations per chunk (`d*`).
    pub d: usize,
    /// Chunks per frame (`s*`, Chen's `c`).
    pub s: usize,
    /// The minimized overhead.
    pub overhead: f64,
}

/// Joint minimum over `(d, s)` for ONLINE-DETECTION: every `d` in turn,
/// with chunk length `T = d·titer`, success `q = e^{−λT}` and its best
/// `s` from [`optimal_s`]; the first `d` with the least overhead wins.
pub fn optimal_online_interval(
    lambda: f64,
    titer: f64,
    costs: &ResilienceCosts,
    d_max: usize,
    s_max: usize,
) -> OnlinePlan {
    assert!(d_max >= 1 && s_max >= 1);
    let mut best = OnlinePlan {
        d: 1,
        s: 1,
        overhead: f64::INFINITY,
    };
    for d in 1..=d_max {
        let t = d as f64 * titer;
        let q = q_detection(lambda, t);
        let opt = optimal_s(t, costs, q, s_max);
        if opt.overhead < best.overhead {
            best = OnlinePlan {
                d,
                s: opt.s,
                overhead: opt.overhead,
            };
        }
    }
    best
}

/// The rate [`plan`] floors `alpha` at.
const ALPHA_FLOOR: f64 = 1e-9;
/// Longest checkpoint interval [`plan`] considers for the ABFT schemes.
const ABFT_S_MAX: usize = 4000;
/// ONLINE-DETECTION's bounds for `d` and `s` in [`plan`].
const ONLINE_D_MAX: usize = 64;
const ONLINE_S_MAX: usize = 1000;

/// The planner: the model-optimal `(s, d)` of `scheme` at `alpha`
/// expected faults per iteration, with `Titer ≡ 1` and `costs` the
/// scheme's (`Tcp`, `Trec`, `Tverif`) triple. `d` is 1 for the ABFT
/// schemes, which verify every iteration.
///
/// Campaigns, the `ResilientCg` builder and the Table 1 / Figure 1
/// harness all plan through this function (via
/// `ResilientConfig::model_optimal`); only the cost triple they pass
/// differs (see [`crate::CostProfile`]). `alpha` is floored at `1e-9`,
/// so a fault-free run is planned as one fault in 10⁹ iterations: the
/// ABFT schemes get the longest interval considered (`s = 4000`),
/// ONLINE-DETECTION `(s, d) = (981, 64)` for either profile.
///
/// Each chunk shape (one for the ABFT schemes, each `d ≤ 64` for
/// ONLINE-DETECTION) is solved by [`optimal_s`]: a gallop over
/// `s = 1, 2, 4, …` and a ternary search bracket the minimum over `s`,
/// then two walks from the least value seen stop once a value exceeds
/// their running best by more than rounding can explain. Going down,
/// ties go to the smaller `s`; going up, only a strictly smaller value
/// wins. The margin is finite for every `q`:
/// `ε = u·(s_max + 1/(1 − q) + 8)` below 1, `8u` at `q = 1`. So the
/// answer is the full scan's, same `s` and same overhead bits, from at
/// most a few dozen evaluations per shape, the fault-free plans
/// included.
pub fn plan(scheme: Scheme, alpha: f64, costs: &ResilienceCosts) -> (usize, usize) {
    let alpha = alpha.max(ALPHA_FLOOR);
    match scheme {
        Scheme::OnlineDetection => {
            let p = optimal_online_interval(alpha, 1.0, costs, ONLINE_D_MAX, ONLINE_S_MAX);
            (p.s, p.d)
        }
        _ => (
            optimal_abft_interval(scheme, alpha, 1.0, costs, ABFT_S_MAX).s,
            1,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::success::q_correction;
    use crate::CostProfile;

    fn costs() -> ResilienceCosts {
        ResilienceCosts::new(2.0, 2.0, 0.05)
    }

    /// The oracle: the full scan of `1..=s_max`, first minimum wins.
    fn optimal_s_exhaustive(t: f64, costs: &ResilienceCosts, q: f64, s_max: usize) -> Optimum {
        let mut best = Optimum {
            s: 1,
            overhead: overhead(1, t, costs, q),
        };
        for s in 2..=s_max {
            let o = overhead(s, t, costs, q);
            if o < best.overhead {
                best = Optimum { s, overhead: o };
            }
        }
        best
    }

    /// Runs [`optimal_s`] against the oracle for every `α` of `alphas`,
    /// every cost triple of `triples` and every chunk shape `plan` scans
    /// — both ABFT success functions at `T = 1` with `s ≤ 4000`, and
    /// ONLINE-DETECTION at `T = d` with `s ≤ 1000` for each `d` of
    /// `online_d`. Panics on the first scan whose `s` or overhead bits
    /// differ.
    fn assert_early_exit_matches_oracle(
        alphas: &[f64],
        triples: &[ResilienceCosts],
        online_d: &[usize],
    ) {
        for &alpha in alphas {
            let mut shapes = vec![
                (1.0, q_detection(alpha, 1.0), ABFT_S_MAX),
                (1.0, q_correction(alpha, 1.0), ABFT_S_MAX),
            ];
            for &d in online_d {
                let t = d as f64;
                shapes.push((t, q_detection(alpha, t), ONLINE_S_MAX));
            }
            for c in triples {
                for &(t, q, s_max) in &shapes {
                    let got = optimal_s(t, c, q, s_max);
                    let want = optimal_s_exhaustive(t, c, q, s_max);
                    assert!(
                        got.s == want.s && got.overhead.to_bits() == want.overhead.to_bits(),
                        "α {alpha:e}, T {t}, costs {c:?}: {got:?} vs full scan {want:?}"
                    );
                }
            }
        }
    }

    /// `n` values spaced evenly in `log10` from `10^lo` to `10^hi`.
    fn log_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 10f64.powf(lo + (hi - lo) * i as f64 / (n - 1) as f64))
            .collect()
    }

    /// The rates the benchmark and the Table 1 harness plan at, `α = 0`
    /// (`q = 1`) and the `1e-9` floor [`plan`] puts under it.
    const NAMED_ALPHAS: [f64; 6] = [0.0, 1e-9, 1.0 / 4.0, 1.0 / 8.0, 1.0 / 16.0, 1.0 / 64.0];

    #[test]
    fn early_exit_matches_the_full_scan() {
        let mut alphas = log_grid(-10.0, 0.0, 41);
        alphas.extend(NAMED_ALPHAS);
        let mut triples = vec![
            CostProfile::DEFAULT.for_scheme(Scheme::AbftDetection),
            CostProfile::PAPER_LIKE.for_scheme(Scheme::AbftCorrection),
            CostProfile::DEFAULT.for_scheme(Scheme::OnlineDetection),
        ];
        // Measured-like (cheap checkpoint) and lopsided triples.
        triples.extend([
            ResilienceCosts::new(0.02, 0.4, 0.25),
            ResilienceCosts::new(0.0, 1.0, 0.1),
            ResilienceCosts::new(50.0, 0.0, 0.0),
            ResilienceCosts::new(0.0, 0.0, 0.0),
            // A minimum so flat that rounding bumps precede it: a walk
            // without the margin stops short at `α = 10^−4.25`.
            ResilienceCosts::new(0.02, 0.0, 1.0),
        ]);
        // The overflow region: with a zero `Trec`, `q⁻ˢ = ∞` makes the
        // overhead NaN for large `s`. The grid's `α = 10^−1.75 ≈ 1.8·10⁻²`
        // gets there from `s ≈ 620` at `d = 60` and `d = 64`, where a
        // ternary bracket that compares NaN directly settles in it. At
        // `α = 12` every value of those shapes is NaN (`q` is subnormal at
        // `d = 60`, so `1/q` overflows, and 0 at `d = 64`): the full scan
        // returns `s = 1`, which a gallop that compares NaN directly
        // walks away from.
        let zero = ResilienceCosts::new(0.0, 0.0, 0.0);
        let alpha = 10f64.powf(-1.75);
        assert!(alphas.contains(&alpha));
        alphas.push(12.0);
        for d in [60.0, 64.0] {
            let q = q_detection(alpha, d);
            assert!(overhead(ONLINE_S_MAX, d, &zero, q).is_nan());
            assert!(overhead(1, d, &zero, q).is_finite());
            assert!(overhead(1, d, &zero, q_detection(12.0, d)).is_nan());
        }
        assert_early_exit_matches_oracle(&alphas, &triples, &[1, 2, 8, 60, 64]);
    }

    /// [`search`] on evaluators built to reach the branches eq. 6 rarely
    /// does: a plateau whose first point the bracket passes (so the walk
    /// down must take ties), and a fall that ends where NaN begins (so
    /// the gallop must stop at NaN). Both are unimodal in the weak sense
    /// the walks rely on, with exact values.
    #[test]
    fn search_takes_ties_down_and_stops_at_nan() {
        let plateau = |s: usize| match s {
            1 => 4.0,
            2 => 2.0,
            3..=8 => 1.0,
            _ => s as f64 - 7.0,
        };
        let cliff = |s: usize| if s <= 40 { 100.0 - s as f64 } else { f64::NAN };
        let first_minimum = |f: &dyn Fn(usize) -> f64, s_max: usize| {
            (2..=s_max).fold(
                (1, f(1)),
                |best, s| if f(s) < best.1 { (s, f(s)) } else { best },
            )
        };
        for (f, s_max) in [(&plateau as &dyn Fn(usize) -> f64, 20), (&cliff, 100)] {
            let got = search(1.0, s_max, f);
            assert_eq!((got.s, got.overhead), first_minimum(f, s_max));
        }
        assert_eq!(search(1.0, 20, plateau).s, 3);
        assert_eq!(search(1.0, 100, cliff).s, 40);
    }

    /// How often [`search`] evaluates eq. 6 for the plan of `scheme` at
    /// `α = 0` (floored as [`plan`] floors it), and the `(s, d)` it finds:
    /// the shapes and bounds of [`plan`], one search per chunk shape.
    fn fault_free_plan_evaluations(
        scheme: Scheme,
        costs: &ResilienceCosts,
    ) -> (usize, (usize, usize)) {
        let calls = Cell::new(0);
        let counted = |t: f64, q: f64, s_max: usize| {
            search(q, s_max, |s| {
                calls.set(calls.get() + 1);
                overhead(s, t, costs, q)
            })
        };
        let planned = match scheme {
            Scheme::OnlineDetection => {
                let mut best = OnlinePlan {
                    d: 1,
                    s: 1,
                    overhead: f64::INFINITY,
                };
                for d in 1..=ONLINE_D_MAX {
                    let t = d as f64;
                    let opt = counted(t, q_detection(ALPHA_FLOOR, t), ONLINE_S_MAX);
                    if opt.overhead < best.overhead {
                        best = OnlinePlan {
                            d,
                            s: opt.s,
                            overhead: opt.overhead,
                        };
                    }
                }
                (best.s, best.d)
            }
            _ => (
                counted(1.0, scheme.chunk_success(ALPHA_FLOOR, 1.0), ABFT_S_MAX).s,
                1,
            ),
        };
        (calls.get(), planned)
    }

    #[test]
    fn fault_free_plans_evaluate_eq6_a_small_fraction_of_the_range() {
        for profile in [CostProfile::DEFAULT, CostProfile::PAPER_LIKE] {
            for scheme in Scheme::ALL {
                let costs = profile.for_scheme(scheme);
                let (calls, planned) = fault_free_plan_evaluations(scheme, &costs);
                assert_eq!(planned, plan(scheme, 0.0, &costs), "{scheme:?}");
                // The full scans were 64 × 1000 and 4000 evaluations.
                let bound = if scheme == Scheme::OnlineDetection {
                    5000
                } else {
                    200
                };
                assert!(calls < bound, "{scheme:?}: {calls} evaluations");
            }
        }
    }

    /// The dense version (about 30 s in release on two cores, far too
    /// slow in debug): 401 rates in `[10⁻¹⁰, 1]` plus the named ones, 36
    /// cost triples and every `d` ONLINE-DETECTION scans, the rates split
    /// between two threads.
    #[test]
    #[ignore = "dense grid: run in release with --include-ignored"]
    fn early_exit_matches_the_full_scan_on_a_dense_grid() {
        let mut alphas = log_grid(-10.0, 0.0, 401);
        alphas.extend(NAMED_ALPHAS);
        let mut triples = Vec::new();
        for tcp in [0.0, 0.02, 2.0, 100.0] {
            for trec in [0.0, 0.4, 2.0] {
                for tverif in [0.0, 0.2, 1.0] {
                    triples.push(ResilienceCosts::new(tcp, trec, tverif));
                }
            }
        }
        let online_d: Vec<usize> = (1..=ONLINE_D_MAX).collect();
        std::thread::scope(|scope| {
            for part in alphas.chunks(alphas.len().div_ceil(2)) {
                scope.spawn(|| assert_early_exit_matches_oracle(part, &triples, &online_d));
            }
        });
    }

    #[test]
    fn optimal_s_is_global_minimum_of_scan() {
        let c = costs();
        let q = 0.995;
        let best = optimal_s(1.0, &c, q, 500);
        for s in 1..=500 {
            assert!(overhead(s, 1.0, &c, q) >= best.overhead - 1e-15);
        }
    }

    #[test]
    fn interval_shrinks_with_fault_rate() {
        let c = costs();
        let s_low = optimal_abft_interval(Scheme::AbftDetection, 1e-4, 1.0, &c, 5000).s;
        let s_high = optimal_abft_interval(Scheme::AbftDetection, 0.05, 1.0, &c, 5000).s;
        assert!(
            s_low > s_high,
            "fewer faults should allow longer frames: {s_low} vs {s_high}"
        );
    }

    #[test]
    fn correction_allows_longer_frames_than_detection() {
        // Claim C2: forward recovery increases chunk success, so the model
        // checkpoints less often.
        let c = costs();
        let lambda = 1.0 / 16.0; // Table 1 rate
        let det = optimal_abft_interval(Scheme::AbftDetection, lambda, 1.0, &c, 5000);
        let cor = optimal_abft_interval(Scheme::AbftCorrection, lambda, 1.0, &c, 5000);
        assert!(
            cor.s > det.s,
            "correction {} should exceed detection {}",
            cor.s,
            det.s
        );
        assert!(cor.overhead < det.overhead);
    }

    #[test]
    fn table1_magnitudes_plausible() {
        // At α = 1/16 with iteration-scale costs, the paper's Table 1
        // reports optimal intervals around 10–20 chunks.
        let c = costs();
        let det = optimal_abft_interval(Scheme::AbftDetection, 1.0 / 16.0, 1.0, &c, 5000);
        assert!(
            (4..=60).contains(&det.s),
            "detection interval {} outside plausible Table 1 range",
            det.s
        );
    }

    #[test]
    fn online_plan_verifies_less_often_than_abft() {
        // With Tverif ≈ Titer, verifying every iteration is wasteful; the
        // model must pick d > 1.
        let c = ResilienceCosts::new(2.0, 2.0, 1.0);
        let plan = optimal_online_interval(0.01, 1.0, &c, 200, 200);
        assert!(plan.d > 1, "expected d > 1, got {}", plan.d);
    }

    #[test]
    fn online_plan_is_global_minimum() {
        let c = ResilienceCosts::new(2.0, 2.0, 1.0);
        let plan = optimal_online_interval(0.02, 1.0, &c, 50, 100);
        for d in 1..=50usize {
            let t = d as f64;
            let q = q_detection(0.02, t);
            for s in 1..=100usize {
                assert!(overhead(s, t, &c, q) >= plan.overhead - 1e-12);
            }
        }
    }

    #[test]
    fn q_correction_used_for_correction_scheme() {
        let lambda = 0.1;
        let q = Scheme::AbftCorrection.chunk_success(lambda, 1.0);
        assert_eq!(q, q_correction(lambda, 1.0));
    }

    #[test]
    #[should_panic(expected = "optimal_online_interval")]
    fn abft_helper_rejects_online_scheme() {
        optimal_abft_interval(Scheme::OnlineDetection, 0.1, 1.0, &costs(), 10);
    }

    #[test]
    fn zero_rate_prefers_max_interval() {
        // Without faults the only cost is the checkpoint: amortize it over
        // as many chunks as allowed.
        let best = optimal_s(1.0, &costs(), 1.0, 300);
        assert_eq!(best.s, 300);
    }

    #[test]
    fn plan_shapes() {
        for profile in [CostProfile::DEFAULT, CostProfile::PAPER_LIKE] {
            let (s, d) = plan(
                Scheme::OnlineDetection,
                0.01,
                &profile.for_scheme(Scheme::OnlineDetection),
            );
            assert!(s >= 1 && d > 1, "online ({s}, {d})");
            for abft in [Scheme::AbftDetection, Scheme::AbftCorrection] {
                let (s, d) = plan(abft, 0.01, &profile.for_scheme(abft));
                assert!(s >= 1 && d == 1, "{abft:?} ({s}, {d})");
            }
        }
    }

    /// `(s, d)` per scheme, in `Scheme::ALL` order, for both profiles —
    /// values captured from an earlier build, so a planner change that
    /// moves any interval fails here.
    #[test]
    fn plan_matches_a_pinned_earlier_build() {
        let table = |profile: CostProfile, alpha: f64| {
            Scheme::ALL.map(|scheme| plan(scheme, alpha, &profile.for_scheme(scheme)))
        };
        let t1 = 1.0 / 16.0;
        assert_eq!(table(CostProfile::DEFAULT, t1), [(1, 6), (6, 1), (44, 1)]);
        assert_eq!(
            table(CostProfile::PAPER_LIKE, t1),
            [(1, 6), (6, 1), (41, 1)]
        );
        for profile in [CostProfile::DEFAULT, CostProfile::PAPER_LIKE] {
            assert_eq!(table(profile, 0.0), [(981, 64), (4000, 1), (4000, 1)]);
        }
        // The benchmark's rates.
        let (storm, t8, t64) = (1.0 / 4.0, 1.0 / 8.0, 1.0 / 64.0);
        assert_eq!(
            table(CostProfile::DEFAULT, storm),
            [(1, 2), (3, 1), (11, 1)]
        );
        assert_eq!(
            table(CostProfile::PAPER_LIKE, storm),
            [(1, 2), (2, 1), (10, 1)]
        );
        assert_eq!(table(CostProfile::DEFAULT, t8), [(1, 4), (4, 1), (22, 1)]);
        assert_eq!(
            table(CostProfile::PAPER_LIKE, t8),
            [(1, 4), (4, 1), (20, 1)]
        );
        assert_eq!(
            table(CostProfile::DEFAULT, t64),
            [(1, 12), (14, 1), (179, 1)]
        );
        assert_eq!(
            table(CostProfile::PAPER_LIKE, t64),
            [(1, 12), (14, 1), (165, 1)]
        );
    }
}
