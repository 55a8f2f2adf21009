#![forbid(unsafe_code)]
//! Experiment harness for the paper's evaluation section.
//!
//! * [`matrices`] — the nine test matrices, substituted with synthetic
//!   SPD generators matched to each UFL id's published order and density
//!   (DESIGN.md §3 documents the substitution);
//! * [`measure`] — measures the *actual* relative costs `Tverif`, `Tcp`,
//!   `Trec` of the implemented kernels, so the model is instantiated
//!   with real overheads rather than guesses;
//! * [`runner`] — repetition runner with deterministic seeding, built
//!   on the `ftcg-engine` worker pool;
//! * [`table1`] — model validation: model-optimal checkpoint interval
//!   `s̃` vs empirically best `s*`, execution times and loss `l`
//!   (each entry's interval sweep runs as one engine campaign);
//! * [`figure1`] — execution time of the three schemes against the
//!   normalized MTBF `1/α` (each panel runs as one engine campaign);
//! * [`report`] — markdown / CSV / ASCII-plot rendering;
//! * [`benchspec`] — the benchmark's campaign spec (pinned text over
//!   the paper matrices).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod benchspec;
pub mod figure1;
pub mod matrices;
pub mod measure;
pub mod report;
pub mod runner;
pub mod table1;

pub use matrices::{MatrixSpec, PAPER_MATRICES};
pub use runner::{run_many, RunSummary};
