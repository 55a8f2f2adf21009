//! The fault injector and the paper's fault model, re-exported from
//! `ftcg-fault` so any engine campaign (and the benchmark) reaches them
//! under `ftcg_engine::inject`; the model choice itself is
//! [`InjectorSpec`](crate::InjectorSpec).

pub use ftcg_fault::{paper_injector, Injector};
