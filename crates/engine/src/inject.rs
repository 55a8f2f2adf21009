//! The experiment fault-injector recipes, re-exported from `ftcg-fault`
//! so any engine campaign (and the benchmark) reaches them under
//! `ftcg_engine::inject`.

pub use ftcg_fault::{calibrated_injector, paper_injector};
