//! Combinatorial engine of skeletal program enumeration (SPE).
//!
//! This crate implements the algorithmic core of *Skeletal Program
//! Enumeration for Rigorous Compiler Testing* (Zhang, Sun, Su; PLDI 2017):
//! the reduction of SPE to constrained set-partition enumeration.
//!
//! * [`Rgs`], [`ExactRgs`] — restricted growth strings, the canonical
//!   encoding of set partitions (§4.1.2);
//! * [`Combinations`] — the paper's `COMBINATIONS(Q, k)`;
//! * [`stirling2`], [`bell`], [`partitions_at_most`] — exact counting
//!   (§4.1.1, Equation 1);
//! * [`FlatInstance`] / [`GeneralInstance`] — scoped SPE instances in the
//!   paper's normal form and in the general allowed-set form (§4.2.1);
//! * [`enumerate_paper`] / [`paper_count`] — Algorithm 1 + `PartitionScope`
//!   reproduced faithfully;
//! * [`enumerate_canonical`] / [`canonical_count`] — duplicate-free
//!   enumeration of valid partitions (one per dependence structure);
//! * [`enumerate_orbits`] / [`orbit_count`] — one representative per
//!   compact-α-renaming class (Definition 2 with scopes);
//! * [`shards`] / [`rgs_completions`] / [`Rgs::skip_to`] — exact
//!   shard-boundary computation over the RGS space for parallel
//!   enumeration and mid-space resumption;
//! * [`ConstrainedRgs`] / [`constrained_count`] — the same counting and
//!   unranking machinery for *constrained* instances, via a memoized DP
//!   over RGS prefixes under SDR pruning (`DESIGN.md §8`);
//! * [`brute`] — exponential oracles validating all of the above.
//!
//! # Quick start
//!
//! ```
//! use spe_combinatorics::{paper_count, canonical_count, orbit_count,
//!                         FlatInstance, FlatScope};
//!
//! // Figure 7 / Example 6 of the paper.
//! let inst = FlatInstance::new(vec![0, 1, 4], 2,
//!     vec![FlatScope { holes: vec![2, 3], vars: 2 }]);
//!
//! assert_eq!(inst.naive_count().to_u64(), Some(128));       // naïve
//! assert_eq!(paper_count(&inst).to_u64(), Some(36));        // the paper
//! assert_eq!(canonical_count(&inst.to_general()).to_u64(), Some(35));
//! assert_eq!(orbit_count(&inst).to_u64(), Some(40));        // strict α
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod canonical;
mod combinations;
mod counting;
mod instance;
mod orbit;
mod paper;
mod rgs;
mod shard;
mod stirling;

pub mod brute;

pub use brute::Fillings;
pub use canonical::{
    assignment_for_rgs, canonical_count, canonical_solutions, canonical_solutions_shard,
    enumerate_canonical, enumerate_canonical_shard, has_sdr, sdr_matching,
};
pub use combinations::{binomial, Combinations};
pub use counting::{constrained_count, ConstrainedRgs};
pub use instance::{FlatInstance, FlatScope, GeneralInstance, HoleId, PoolRef, ScopedSolution};
pub use orbit::{enumerate_orbits, orbit_count, orbit_solutions};
pub use paper::{enumerate_paper, paper_count, paper_solutions};
pub use rgs::{labels_to_rgs, rgs_block_count, rgs_to_blocks, ExactRgs, Rgs};
pub use shard::{even_ranges, rgs_completions, rgs_unrank, shards, RgsShard, RgsShardIter};
pub use stirling::{
    bell, partitions_at_most, partitions_at_most_estimate, stirling2, stirling2_clamped,
};
