//! The five workloads, their sizes, and the inputs generated for them.

use ftcg_engine::grid::plan_config;
use ftcg_engine::seedstream::mix;
use ftcg_engine::IntervalPolicy;
use ftcg_model::Scheme;
use ftcg_sim::matrices::by_id;
use ftcg_solvers::resilient::{ResilientConfig, ResilientOutcome};
use ftcg_sparse::{vector, CsrMatrix};
use std::sync::Arc;

/// Scheme order of every workload (the `table1` suite's order).
pub const SCHEMES: [Scheme; 3] = [
    Scheme::AbftDetection,
    Scheme::AbftCorrection,
    Scheme::OnlineDetection,
];

/// A solve passes when it converged and its true relative residual
/// against the pristine matrix is at most this.
pub const RESIDUAL_GATE: f64 = 1e-5;

/// Which matrix size class a direct workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Cache-resident miniatures (`paper:ID:8`).
    Small,
    /// Published order (`paper:ID:1`): the image spills L2.
    Full,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// The table1-shaped campaign through the engine.
    Campaign { threads: usize },
    /// Direct `solve_resilient_in` calls, engine bypassed.
    Direct {
        matrices: &'static [u32],
        size: Size,
        alpha: f64,
        /// Rounds of screened fault streams the timed rounds cycle
        /// through (`direct::FaultPool`). A larger pool averages the
        /// streams' work over more solves (less spread across seeds) and
        /// costs one untimed solve per stream before the window.
        pool: usize,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "campaign_t1",
        kind: Kind::Campaign { threads: 1 },
    },
    Workload {
        name: "campaign_t2",
        kind: Kind::Campaign { threads: 2 },
    },
    Workload {
        name: "fullsize_solve",
        kind: Kind::Direct {
            matrices: &[341, 1311],
            size: Size::Full,
            // 1/16 is not usable here: on paper:1311:1 one
            // ABFT-DETECTION solve then takes 0.9-3.1 s depending on the
            // fault stream (escalations restart from the initial data),
            // and a 15 s window holds too few solves to average that.
            alpha: 1.0 / 64.0,
            pool: 2,
        },
    },
    Workload {
        name: "fault_free",
        kind: Kind::Direct {
            matrices: &[341, 752, 2213],
            size: Size::Small,
            alpha: 0.0,
            pool: 1,
        },
    },
    Workload {
        name: "fault_storm",
        kind: Kind::Direct {
            matrices: &[341, 752, 2213],
            size: Size::Small,
            // 1/4 is not usable: the work of one round (nine solves) then
            // varies by 25 % with the fault streams, 9 % over a window's
            // eight rounds; at 1/8 it is 12 % and 3.5 %.
            alpha: 0.125,
            // overhead_ratio spreads by 7-8 % of its median across ten
            // seeds with 6 or 8 pooled rounds, by under 6 % with 12.
            pool: 12,
        },
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Problem sizes: the recorded ones, or the tiny `--quick` ones that
/// only prove every metric is produced.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub quick: bool,
    pub campaign_scale: usize,
    pub campaign_reps: usize,
    pub small_scale: usize,
    pub full_scale: usize,
    /// Set-up is re-run up to this many times (see `more_setup`).
    pub setup_reruns: usize,
    /// Samples behind each micro-timing median.
    pub probe_samples: usize,
    /// Target duration of one micro-timing sample.
    pub probe_sample_ns: u64,
}

impl Sizing {
    pub fn new(quick: bool) -> Sizing {
        if quick {
            Sizing {
                quick,
                campaign_scale: 64,
                campaign_reps: 1,
                small_scale: 64,
                full_scale: 32,
                setup_reruns: 3,
                probe_samples: 3,
                probe_sample_ns: 20_000,
            }
        } else {
            Sizing {
                quick,
                campaign_scale: 16,
                campaign_reps: 4,
                small_scale: 8,
                full_scale: 1,
                setup_reruns: 7,
                probe_samples: 9,
                probe_sample_ns: 300_000,
            }
        }
    }

    /// Whether set-up should be run once more: at least three times,
    /// then up to `setup_reruns` while they fit in 1.5 s together.
    pub fn more_setup(&self, done: usize, since: std::time::Instant) -> bool {
        done < 3 || (done < self.setup_reruns && since.elapsed().as_secs_f64() < 1.5)
    }

    pub fn scale(&self, size: Size) -> usize {
        match size {
            Size::Small => self.small_scale,
            Size::Full => self.full_scale,
        }
    }
}

/// Derives an independent 64-bit stream seed from `--seed` and a
/// coordinate path; every random choice in the benchmark goes through
/// here, so the same `--seed` gives the same inputs.
pub fn derive(seed: u64, path: &[u64]) -> u64 {
    path.iter().fold(mix(seed ^ 0xF7C6_BE9C), |acc, &c| {
        mix(acc ^ mix(c.wrapping_add(0x5851_F42D_4C95_7F2D)))
    })
}

/// One linear system: pristine matrix and right-hand side.
pub struct System {
    pub label: String,
    pub a: Arc<CsrMatrix>,
    pub b: Arc<Vec<f64>>,
    pub b_norm: f64,
}

/// One protected solve a pass performs: which system, under which
/// configuration and fault rate. The fault stream's seed is chosen per
/// round by the caller.
#[derive(Clone)]
pub struct Job {
    pub sys: usize,
    pub cfg: ResilientConfig,
    pub alpha: f64,
}

/// The systems of a workload and the protected jobs over them, grouped
/// by system (all jobs of system 0 first).
pub struct Plan {
    pub systems: Vec<System>,
    pub jobs: Vec<Job>,
}

impl Plan {
    /// A direct workload's plan: `paper:ID:SCALE` for each id, each
    /// under the three schemes at `alpha` with model-optimal intervals.
    pub fn direct(ids: &[u32], scale: usize, alpha: f64, seed: u64) -> Plan {
        let systems: Vec<System> = ids
            .iter()
            .map(|&id| System::generate(id, scale, seed))
            .collect();
        let jobs = (0..systems.len())
            .flat_map(|sys| {
                SCHEMES.map(|s| Job {
                    sys,
                    cfg: plan_config(s, alpha, IntervalPolicy::ModelOptimal, 10_000),
                    alpha,
                })
            })
            .collect();
        Plan { systems, jobs }
    }

    /// The jobs of system `sys`, with their indices into `jobs`.
    pub fn jobs_of(&self, sys: usize) -> impl Iterator<Item = (usize, &Job)> {
        self.jobs
            .iter()
            .enumerate()
            .filter(move |(_, j)| j.sys == sys)
    }
}

impl System {
    /// Generates `paper:ID:SCALE` and a seed-dependent right-hand side
    /// (the table1 sine with a seeded phase; iteration counts move by
    /// under 1 % across phases).
    pub fn generate(id: u32, scale: usize, seed: u64) -> System {
        let spec = by_id(id).expect("workload tables name only paper matrices");
        let a = spec.generate(scale);
        let phase = (derive(seed, &[u64::from(id)]) >> 11) as f64 / (1u64 << 53) as f64
            * std::f64::consts::TAU;
        let b: Vec<f64> = (0..a.n_rows())
            .map(|i| 1.0 + (i as f64 * 0.23 + phase).sin())
            .collect();
        System::new(format!("paper:{id}:{scale}"), Arc::new(a), Arc::new(b))
    }

    pub fn new(label: String, a: Arc<CsrMatrix>, b: Arc<Vec<f64>>) -> System {
        System {
            label,
            b_norm: vector::norm2(&b),
            a,
            b,
        }
    }

    /// True relative residual `‖b − A·x‖ / ‖b‖` against the pristine
    /// matrix, computed here rather than trusted from the solver.
    pub fn rel_residual(&self, x: &[f64], scratch: &mut Vec<f64>) -> f64 {
        scratch.clear();
        scratch.resize(self.a.n_rows(), 0.0);
        self.a.spmv_into(x, scratch);
        let sq: f64 = self
            .b
            .iter()
            .zip(scratch.iter())
            .map(|(b, ax)| (b - ax) * (b - ax))
            .sum();
        sq.sqrt() / self.b_norm
    }
}

/// The correctness tally of a run. A solve *fails* when it did not
/// converge, panicked, or its true relative residual exceeds
/// [`RESIDUAL_GATE`]. Every fault stream a run uses was screened before
/// the run counted anything (`direct::FaultPool`, `campaign::screened`)
/// and solves are deterministic in their seed, so a single failure makes
/// the run incorrect.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gate {
    pub attempted: usize,
    pub failed: usize,
}

impl Gate {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }

    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn holds(&self) -> bool {
        self.failed == 0
    }
}

/// FNV-1a over a stream of counters: the digest that must agree across
/// passes, across traced and untraced runs and across thread counts.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The protocol counters of one protected solve.
    pub fn outcome(&mut self, out: &ResilientOutcome) {
        for w in [
            out.productive_iterations,
            out.executed_iterations,
            out.rollbacks,
            out.forward_corrections + out.tmr_corrections,
            out.checkpoints,
            out.ledger.len(),
        ] {
            self.word(w as u64);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}
