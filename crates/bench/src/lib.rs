//! Criterion benchmark crate for SPE (bench targets live in benches/).

#![forbid(unsafe_code)]
