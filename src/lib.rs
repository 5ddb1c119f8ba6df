//! Facade crate for the SPE workspace — re-exports every public crate.
//!
//! See the workspace `README.md` for an overview; the examples under
//! `examples/` and integration tests under `tests/` exercise this API.

#![forbid(unsafe_code)]

pub use spe_bignum as bignum;
pub use spe_combinatorics as combinatorics;
pub use spe_core as core;
pub use spe_corpus as corpus;
pub use spe_harness as harness;
pub use spe_minic as minic;
pub use spe_persist as persist;
pub use spe_reduce as reduce;
pub use spe_report as report;
pub use spe_simcc as simcc;
pub use spe_skeleton as skeleton;
pub use spe_subproc as subproc;
pub use spe_telemetry as telemetry;
pub use spe_while as while_lang;
