//! Statistics utilities shared by the HyperSub experiment harness.
//!
//! The paper's evaluation (§5) reports cumulative distribution functions of
//! per-event and per-node quantities (Figures 2–3), rank-ordered load plots
//! (Figure 4) and scalar summaries versus network size (Figure 5, Tables
//! 1–2). This crate provides the small, dependency-free building blocks for
//! all of those: [`Cdf`], [`LoadDist`] and an ASCII
//! [`table::Table`] renderer used by the `hypersub-bench` binaries.

pub mod cdf;
pub mod load;
pub mod table;

pub use cdf::Cdf;
pub use load::{gini, LoadDist};
pub use table::Table;
