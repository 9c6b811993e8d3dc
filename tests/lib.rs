//! Support crate for the workspace-level integration tests.
//!
//! The tests themselves live in sibling `.rs` files registered as
//! `[[test]]` targets in `Cargo.toml`; shared helpers live here. Every
//! `rust` block of the repository's README.md also runs here, as a
//! doctest of `ReadmeDoctests` (`cargo test -p hypersub-tests --doc`).

use hypersub_core::prelude::*;

/// Builds a small single-scheme network for integration testing: a
/// 2-attribute `[0,100]^2` scheme on `nodes` nodes with uniform 10 ms
/// links.
pub fn test_network(nodes: usize, seed: u64, config: SystemConfig) -> Network {
    let scheme = SchemeDef::builder("itest")
        .attribute("x", 0.0, 100.0)
        .attribute("y", 0.0, 100.0)
        .build(0);
    Network::builder(nodes)
        .registry(Registry::new(vec![scheme]))
        .config(config)
        .seed(seed)
        .build()
        .expect("valid test network")
}

#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
