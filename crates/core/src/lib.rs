//! Skeletal program enumeration — the core public API.
//!
//! This crate is the paper's primary contribution as a library: given a
//! program, enumerate (or count) all non-α-equivalent variable-usage
//! variants of its skeleton.
//!
//! * [`Enumerator`] drives enumeration over a [`Skeleton`] with a chosen
//!   [`Algorithm`], [`Granularity`] and per-skeleton variant budget (the
//!   paper uses a 10,000-variant threshold in §5.2.1);
//! * [`spe_count`] / [`naive_count`] are the closed-form counting
//!   counterparts used for the search-space-reduction results (Table 1);
//! * [`Variant`]s carry the use-site rename map and realize to compilable
//!   source on demand.
//!
//! # Quick start
//!
//! ```
//! use spe_core::{Enumerator, EnumeratorConfig, Algorithm, Granularity, Skeleton};
//!
//! let sk = Skeleton::from_source(
//!     "int main() { int a, b = 1; b = b - a; if (a) a = a - b; return 0; }",
//! )?;
//! // Figure 1: 2^7 = 128 naive fillings, 64 non-α-equivalent.
//! assert_eq!(spe_core::naive_count(&sk, Granularity::Intra).to_u64(), Some(128));
//! assert_eq!(spe_core::spe_count(&sk, Granularity::Intra).to_u64(), Some(64));
//!
//! let e = Enumerator::new(EnumeratorConfig::default());
//! let variants = e.collect_sources(&sk);
//! assert_eq!(variants.len(), 64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use spe_bignum::BigUint;
use spe_combinatorics::{
    assignment_for_rgs, canonical_solutions, enumerate_canonical_shard, orbit_solutions,
    paper_solutions, rgs_unrank, ConstrainedRgs, Fillings, GeneralInstance, RgsShard,
};
pub use spe_skeleton::{
    Granularity, Hole, NameId, NameTable, RenderTemplate, Skeleton, SkeletonError, TypeGroup, Unit,
};
use std::ops::ControlFlow;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// Which enumeration semantics to use. See `DESIGN.md` §2 for the
/// relationship between the three non-naive variants (on the paper's
/// Example 6 they produce 36, 35 and 40 solutions respectively; they all
/// coincide with Bell-number enumeration when every variable is global).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Algorithm 1 + `PartitionScope`, verbatim from the paper. Used for
    /// all experiment reproductions.
    #[default]
    Paper,
    /// One representative per *valid partition* — duplicate-free and
    /// exhaustive w.r.t. dependence structure.
    Canonical,
    /// One representative per strict compact-α-renaming class.
    Orbit,
    /// The full Cartesian product of fillings (§3.1) — the baseline.
    Naive,
}

/// Enumerator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumeratorConfig {
    /// Enumeration semantics.
    pub algorithm: Algorithm,
    /// Intra- or inter-procedural units (§4.3).
    pub granularity: Granularity,
    /// Maximum number of variants emitted per skeleton; the paper's
    /// threshold is 10,000.
    pub budget: usize,
}

impl Default for EnumeratorConfig {
    fn default() -> Self {
        EnumeratorConfig {
            algorithm: Algorithm::Paper,
            granularity: Granularity::Intra,
            budget: 10_000,
        }
    }
}

/// One enumerated variant: a use-site renaming of the skeleton as a flat
/// hole-indexed vector of interned names.
///
/// `names[h]` fills hole `h` of [`Skeleton::holes`] (merged across all
/// units and type groups). The enumerator reuses one `Variant` across the
/// whole stream — visitors receive `&Variant` and must copy
/// ([`Variant::clone`]) anything they keep past the callback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    /// Sequential index in emission order.
    pub index: u64,
    /// The chosen name of every hole, in [`Skeleton::holes`] order.
    pub names: Vec<NameId>,
}

impl Variant {
    /// Realizes the variant as source text via the skeleton's compiled
    /// render template.
    pub fn source(&self, sk: &Skeleton) -> String {
        sk.render(&self.names)
    }

    /// Renders the variant into a caller-provided reusable buffer
    /// (cleared first) — the allocation-free hot path.
    pub fn render_into(&self, sk: &Skeleton, out: &mut String) {
        sk.render_into(&self.names, out);
    }

    /// Collects into `out` (cleared first) the hole indices whose names
    /// differ between `prev` and this variant.
    ///
    /// Consecutive variants in emission order differ by a single
    /// odometer digit, so the delta is almost always one index — this
    /// is what lets an incremental oracle resplice only the changed
    /// bindings instead of reprocessing the whole program. A `prev` of
    /// different length (e.g. the first variant after a skeleton
    /// boundary) yields every hole index.
    pub fn changed_holes_into(&self, prev: &[NameId], out: &mut Vec<usize>) {
        out.clear();
        if prev.len() != self.names.len() {
            out.extend(0..self.names.len());
            return;
        }
        for (h, (&old, &new)) in prev.iter().zip(&self.names).enumerate() {
            if old != new {
                out.push(h);
            }
        }
    }
}

/// Outcome of an enumeration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumerationOutcome {
    /// Variants emitted.
    pub emitted: u64,
    /// Whether the budget cut the enumeration short.
    pub truncated: bool,
}

/// The SPE enumerator.
#[derive(Debug, Clone, Default)]
pub struct Enumerator {
    config: EnumeratorConfig,
}

impl Enumerator {
    /// Creates an enumerator with the given configuration.
    pub fn new(config: EnumeratorConfig) -> Enumerator {
        Enumerator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EnumeratorConfig {
        &self.config
    }

    /// Enumerates variants of `sk`, calling `visit` for each until the
    /// budget is reached or the visitor breaks.
    pub fn enumerate<F>(&self, sk: &Skeleton, visit: &mut F) -> EnumerationOutcome
    where
        F: FnMut(&Variant) -> ControlFlow<()>,
    {
        let (base, fragments, mut truncated) = materialize_fragments(&self.config, sk);
        let total = emission_total(&fragments, self.config.budget, &mut truncated);
        let (emitted, broke) = stream_index_range(&base, &fragments, 0..total, None, visit);
        EnumerationOutcome {
            emitted,
            truncated: truncated || broke,
        }
    }

    /// Convenience: collects realized variant sources (within budget).
    pub fn collect_sources(&self, sk: &Skeleton) -> Vec<String> {
        let mut out = Vec::new();
        self.enumerate(sk, &mut |v| {
            out.push(v.source(sk));
            ControlFlow::Continue(())
        });
        out
    }
}

/// A per-group rename fragment: `(hole index, chosen name)` pairs covering
/// exactly that group's holes. Fragments of different groups touch
/// disjoint holes, so applying one per group yields a full variant.
type Fragment = Vec<(u32, NameId)>;

/// The identity filling: every hole keeps its original variable's name.
fn base_names(sk: &Skeleton) -> Vec<NameId> {
    sk.holes().iter().map(|h| sk.var_name(h.var)).collect()
}

/// Overwrites the fragment's holes in a full rename vector.
fn apply_fragment(names: &mut [NameId], fragment: &Fragment) {
    for &(h, n) in fragment {
        names[h as usize] = n;
    }
}

/// Materializes the per-group rename fragments for a skeleton, each capped
/// by the budget (if a single group exceeds it, the product does too).
/// Returns the identity name vector, the fragment lists (one per type
/// group, in unit order) and whether any group was truncated.
fn materialize_fragments(
    config: &EnumeratorConfig,
    sk: &Skeleton,
) -> (Vec<NameId>, Vec<Vec<Fragment>>, bool) {
    let units = sk.units(config.granularity);
    let groups: Vec<&TypeGroup> = units.iter().flat_map(|u| u.groups.iter()).collect();
    let mut truncated = false;
    let mut fragments: Vec<Vec<Fragment>> = Vec::with_capacity(groups.len());
    for g in &groups {
        let (frags, t) = group_fragments(config, sk, g);
        truncated |= t;
        fragments.push(frags);
    }
    (base_names(sk), fragments, truncated)
}

/// Number of variants to emit: the Cartesian product of fragment sizes,
/// capped by the budget (the cap sets `truncated`). A group with zero
/// solutions — which never happens for well-formed skeletons, since each
/// hole's original variable is allowed — collapses the product to zero.
fn emission_total(fragments: &[Vec<Fragment>], budget: usize, truncated: &mut bool) -> u64 {
    let product: u128 = fragments
        .iter()
        .map(|f| f.len() as u128)
        .fold(1u128, u128::saturating_mul);
    if product > budget as u128 {
        *truncated = true;
    }
    product.min(budget as u128) as u64
}

/// Streams the variants with emission indices in `range` through `visit`,
/// in index order. The mixed-radix decomposition of `range.start` is the
/// `skip_to(shard_start)` entry point: a worker resumes mid-product in
/// O(#groups) without touching earlier variants. Returns the number of
/// variants emitted and whether the visitor (or the shared `stop` flag)
/// broke the stream.
///
/// The hot loop is allocation-free: one `Variant` is set up from `base`
/// and mutated in place, and advancing the odometer re-applies only the
/// fragments whose digit changed.
fn stream_index_range<F>(
    base: &[NameId],
    fragments: &[Vec<Fragment>],
    range: Range<u64>,
    stop: Option<&AtomicBool>,
    visit: &mut F,
) -> (u64, bool)
where
    F: FnMut(&Variant) -> ControlFlow<()>,
{
    // skip_to: decompose the start index into an odometer cursor.
    let mut cursor = vec![0usize; fragments.len()];
    let mut rest = range.start;
    for i in (0..fragments.len()).rev() {
        let size = fragments[i].len() as u64;
        if size == 0 {
            return (0, false);
        }
        cursor[i] = (rest % size) as usize;
        rest /= size;
    }
    let mut variant = Variant {
        index: range.start,
        names: base.to_vec(),
    };
    for (frags, &c) in fragments.iter().zip(&cursor) {
        apply_fragment(&mut variant.names, &frags[c]);
    }
    let mut emitted = 0u64;
    for index in range {
        if let Some(stop) = stop {
            if stop.load(Ordering::Relaxed) {
                return (emitted, true);
            }
        }
        variant.index = index;
        emitted += 1;
        if visit(&variant).is_break() {
            if let Some(stop) = stop {
                stop.store(true, Ordering::Relaxed);
            }
            return (emitted, true);
        }
        // Advance the odometer, re-applying only the changed digits.
        let mut i = fragments.len();
        while i > 0 {
            i -= 1;
            cursor[i] += 1;
            if cursor[i] < fragments[i].len() {
                apply_fragment(&mut variant.names, &fragments[i][cursor[i]]);
                break;
            }
            cursor[i] = 0;
            apply_fragment(&mut variant.names, &fragments[i][0]);
        }
    }
    (emitted, false)
}

fn group_fragments(
    config: &EnumeratorConfig,
    sk: &Skeleton,
    g: &TypeGroup,
) -> (Vec<Fragment>, bool) {
    let budget = config.budget;
    match config.algorithm {
        Algorithm::Paper => {
            let (sols, truncated) = paper_solutions(&g.flat, budget);
            (
                sols.iter().map(|s| sk.rename_for_solution(g, s)).collect(),
                truncated,
            )
        }
        Algorithm::Orbit => {
            let (sols, truncated) = orbit_solutions(&g.flat, budget);
            (
                sols.iter().map(|s| sk.rename_for_solution(g, s)).collect(),
                truncated,
            )
        }
        Algorithm::Canonical => {
            let (rgss, truncated) = canonical_solutions(&g.general, budget);
            (
                rgss.iter()
                    .filter_map(|r| sk.rename_for_rgs(g, r))
                    .collect(),
                truncated,
            )
        }
        Algorithm::Naive => {
            let mut out = Vec::new();
            let mut truncated = false;
            for filling in Fillings::new(&g.general) {
                if out.len() >= budget {
                    truncated = true;
                    break;
                }
                let frag: Fragment = filling
                    .iter()
                    .enumerate()
                    .map(|(pos, &var_idx)| {
                        (g.holes[pos] as u32, sk.var_name(g.vars[var_idx]))
                    })
                    .collect();
                out.push(frag);
            }
            (out, truncated)
        }
    }
}

/// Sharded parallel enumeration over a skeleton's variant space.
///
/// The variant space is the lexicographic Cartesian product of per-group
/// solution lists, each of which is an RGS-ordered slice of constrained
/// set-partition space (§4.1.2 of the paper). [`ShardedEnumerator`] cuts
/// the product's emission-index space `[0, total)` into `K` contiguous,
/// disjoint, near-even shards — the product-space analogue of cutting the
/// RGS space by first-block prefix, with boundary weights exact by
/// construction (see [`spe_combinatorics::shards`] for the single-group
/// RGS view and its `stirling2`/`partitions_at_most`-based sizing) — and
/// streams each shard on its own thread via [`std::thread::scope`].
///
/// Workers resume mid-space through the mixed-radix `skip_to(shard_start)`
/// decomposition, so no shard ever touches another shard's variants.
/// Emission indices are globally stable: variant `i` of a sharded run is
/// byte-identical to variant `i` of a serial [`Enumerator`] run, which
/// makes the union of all shards exactly the serial sequence — no
/// duplicates, no gaps — for every [`Algorithm`] variant.
///
/// # Examples
///
/// ```
/// use spe_core::{Enumerator, EnumeratorConfig, ShardedEnumerator, Skeleton};
///
/// let sk = Skeleton::from_source(
///     "int main() { int a, b = 1; b = b - a; if (a) a = a - b; return 0; }",
/// )?;
/// let serial = Enumerator::new(EnumeratorConfig::default()).collect_sources(&sk);
/// let sharded = ShardedEnumerator::new(EnumeratorConfig::default(), 4).collect_sources(&sk);
/// assert_eq!(serial, sharded);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedEnumerator {
    config: EnumeratorConfig,
    shards: usize,
}

/// A skeleton's variant space, produced by [`ShardedEnumerator::prepare`].
/// Building it is the expensive part of enumeration setup; one
/// `VariantSpace` can feed any number of shard streams, from any thread,
/// without repeating that work.
///
/// Two representations exist behind one interface:
///
/// * **product** — every per-group solution list materialized (the
///   general case: the paper, orbit and naive algorithms, and canonical
///   groups beyond the 128-variable mask width);
/// * **canonical shard-native** — for [`Algorithm::Canonical`] whenever
///   every type group admits *cheap* exact prefix counts (`num_vars <=
///   128` and the counting DP within the crate-internal state limit),
///   *including constrained, multi-group skeletons*: no solution list is
///   materialized at all. Each group's space is sized exactly — in
///   closed form ([`spe_combinatorics::partitions_at_most`]) when the
///   group is unconstrained, through the prefix-count DP
///   ([`spe_combinatorics::ConstrainedRgs`], `DESIGN.md §8`) otherwise —
///   and shards jump to their emission boundary by per-group mixed-radix
///   unranking, then walk only their own subtrees through
///   [`spe_combinatorics::enumerate_canonical_shard`]. Per-shard cost is
///   proportional to the shard, not the whole space.
#[derive(Debug, Clone)]
pub struct VariantSpace {
    /// The identity filling, also the scratch-vector prototype.
    base: Vec<NameId>,
    kind: SpaceKind,
    truncated: bool,
}

#[derive(Debug, Clone)]
enum SpaceKind {
    Product(Vec<Vec<Fragment>>),
    CanonicalNative(CanonicalNativeSpace),
}

/// Shard-native canonical space: one entry per type group (in unit
/// order, matching the materialized fragment order), each holding the
/// exact size of the group's valid-partition space plus everything
/// needed to turn an RGS into a rename vector without consulting the
/// skeleton. The emission-index space is the mixed-radix product of the
/// per-group (budget-capped) sizes, last group least significant —
/// exactly the product the materialized path enumerates.
#[derive(Debug, Clone)]
struct CanonicalNativeSpace {
    groups: Vec<NativeGroup>,
}

/// One type group of a [`CanonicalNativeSpace`].
#[derive(Debug, Clone)]
struct NativeGroup {
    general: GeneralInstance,
    /// Exact (uncapped) size of the group's canonical space.
    count: BigUint,
    /// The solution-list length the materialized path would produce:
    /// `min(count, budget at prepare time)`. This group's radix in the
    /// mixed-radix emission-index space.
    size: u64,
    /// Every hole sees the whole variable set: group-local indices
    /// unrank in closed form ([`rgs_unrank`]) and the SDR assignment is
    /// the top-`m`-ascending rule; otherwise the prefix-count DP
    /// ([`ConstrainedRgs`]) unranks and [`assignment_for_rgs`] assigns.
    unconstrained: bool,
    /// Hole index (into [`Skeleton::holes`]) of each instance position.
    holes: Vec<u32>,
    /// Interned names of the group's variables, in variable order.
    var_names: Vec<NameId>,
}

impl NativeGroup {
    /// Unranks a group-local solution index into its RGS, lazily
    /// creating the DP unranker for constrained groups.
    fn unrank<'a>(&'a self, dp: &mut Option<ConstrainedRgs<'a>>, index: u64) -> Vec<usize> {
        if self.unconstrained {
            rgs_unrank(self.general.num_holes(), self.general.num_vars, index)
        } else {
            dp.get_or_insert_with(|| ConstrainedRgs::new(&self.general))
                .unrank_u64(index)
        }
    }

    /// Overwrites this group's holes of a full rename vector with the
    /// realization of `rgs`, replicating the materialized path's SDR
    /// choice so outputs stay byte-identical: an unconstrained `m`-block
    /// partition takes the top `m` variables in ascending block order
    /// (what [`assignment_for_rgs`]'s augmenting-path matching settles
    /// on when every mask is full), and constrained partitions run the
    /// matching itself.
    fn apply(&self, rgs: &[usize], names: &mut [NameId]) {
        if self.unconstrained {
            let blocks = rgs.iter().copied().max().map_or(0, |b| b + 1);
            let k = self.general.num_vars;
            for (pos, &b) in rgs.iter().enumerate() {
                names[self.holes[pos] as usize] = self.var_names[k - blocks + b];
            }
        } else {
            let assign = assignment_for_rgs(&self.general, rgs)
                .expect("canonical solutions always admit an SDR");
            for (pos, &b) in rgs.iter().enumerate() {
                names[self.holes[pos] as usize] = self.var_names[assign[b]];
            }
        }
    }
}

impl VariantSpace {
    /// Number of variants that enumeration will emit under `budget`.
    pub fn total(&self, budget: usize) -> u64 {
        let mut truncated = self.truncated;
        self.total_with(budget, &mut truncated)
    }

    fn total_with(&self, budget: usize, truncated: &mut bool) -> u64 {
        match &self.kind {
            SpaceKind::Product(fragments) => emission_total(fragments, budget, truncated),
            SpaceKind::CanonicalNative(native) => {
                // Same cap rule as `emission_total`: per-group sizes were
                // already clamped at prepare time, the product is clamped
                // here.
                let product: u128 = native
                    .groups
                    .iter()
                    .map(|g| g.size as u128)
                    .fold(1u128, u128::saturating_mul);
                if product > budget as u128 {
                    *truncated = true;
                }
                product.min(budget as u128) as u64
            }
        }
    }

    /// Whether any group's solution list was cut short by the budget.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Whether the space uses the shard-native canonical representation —
    /// i.e. no per-group solution list was (or will be) materialized and
    /// shards index the space by exact counting alone.
    pub fn is_shard_native(&self) -> bool {
        matches!(self.kind, SpaceKind::CanonicalNative(_))
    }

    /// Streams the variants with emission indices in `range`, dispatching
    /// to the representation's native walk. Semantics are those of
    /// [`stream_index_range`] for either kind.
    fn stream_range<F>(
        &self,
        range: Range<u64>,
        stop: Option<&AtomicBool>,
        visit: &mut F,
    ) -> (u64, bool)
    where
        F: FnMut(&Variant) -> ControlFlow<()>,
    {
        match &self.kind {
            SpaceKind::Product(fragments) => {
                stream_index_range(&self.base, fragments, range, stop, visit)
            }
            SpaceKind::CanonicalNative(native) => {
                stream_canonical_range(native, &self.base, range, stop, visit)
            }
        }
    }
}

/// Per-group ceiling on constrained-counting DP states before
/// [`canonical_native_space`] gives up and the enumerator falls back to
/// the materialized path. The DP's state count tracks the number of
/// distinct block-mask multisets the constraint structure can produce:
/// small for scope-shaped constraints (the corpus regime), but
/// exponential for adversarial shapes like dozens of interleaved
/// declaration-order prefixes — where budget-capped materialized
/// enumeration stays cheap and must remain the path taken. A successful
/// in-limit count also bounds every later boundary unrank (the count
/// visits every reachable DP state), so the gate decision covers stream
/// time too.
const NATIVE_COUNT_STATE_LIMIT: usize = 1 << 14;

/// Builds the shard-native canonical representation when every type
/// group admits *cheap* exact prefix counts: group variables fit the
/// 128-bit constraint masks and the counting DP stays within
/// [`NATIVE_COUNT_STATE_LIMIT`] states. Unconstrained groups (every
/// hole sees the whole variable set — the Bell-number regime) are sized
/// in closed form; constrained groups are sized by the prefix-count DP
/// ([`ConstrainedRgs`]). Returns `None` — materialize instead — when
/// any group fails either condition. See `DESIGN.md §8` for the gate
/// conditions and the DP itself.
fn canonical_native_space(
    config: &EnumeratorConfig,
    sk: &Skeleton,
) -> Option<CanonicalNativeSpace> {
    let units = sk.units(config.granularity);
    let budget = BigUint::from(config.budget as u64);
    let mut groups = Vec::new();
    for u in &units {
        for g in &u.groups {
            let k = g.general.num_vars;
            if k == 0 || k > 128 {
                return None;
            }
            let count = g.canonical_space_size(NATIVE_COUNT_STATE_LIMIT)?;
            let size = if count > budget {
                config.budget as u64
            } else {
                count.to_u64().expect("count <= budget fits u64")
            };
            groups.push(NativeGroup {
                general: g.general.clone(),
                count,
                size,
                unconstrained: g.is_unconstrained(),
                holes: g.holes.iter().map(|&h| h as u32).collect(),
                var_names: g.vars.iter().map(|&v| sk.var_name(v)).collect(),
            });
        }
    }
    Some(CanonicalNativeSpace { groups })
}

/// Shard-native streaming of an emission-index range of a canonical
/// product space. The range start is decomposed mixed-radix into
/// per-group solution indices; every group lands on its boundary
/// solution by exact unranking (closed form or DP — never by walking
/// earlier solutions), outer groups advance odometer-style, and the
/// innermost group's runs are walked natively by
/// [`enumerate_canonical_shard`] from the unranked lower boundary. Cost
/// is proportional to the shard size (plus O(n·k) boundary unranking per
/// group), never to the whole space, and no solution list is ever
/// materialized.
fn stream_canonical_range<F>(
    native: &CanonicalNativeSpace,
    base: &[NameId],
    range: Range<u64>,
    stop: Option<&AtomicBool>,
    visit: &mut F,
) -> (u64, bool)
where
    F: FnMut(&Variant) -> ControlFlow<()>,
{
    if range.start >= range.end {
        return (0, false);
    }
    let groups = &native.groups;
    let mut variant = Variant {
        index: range.start,
        names: base.to_vec(),
    };
    let total_needed = range.end - range.start;
    if groups.is_empty() {
        // No holes: the space is exactly the identity variant.
        if let Some(stop) = stop {
            if stop.load(Ordering::Relaxed) {
                return (0, true);
            }
        }
        let broke = visit(&variant).is_break();
        if broke {
            if let Some(stop) = stop {
                stop.store(true, Ordering::Relaxed);
            }
        }
        return (1, broke);
    }
    // Mixed-radix decomposition of the start index into group-local
    // solution indices (`skip_to`): last group least significant.
    let mut digits = vec![0u64; groups.len()];
    let mut rest = range.start;
    for (g, group) in groups.iter().enumerate().rev() {
        if group.size == 0 {
            return (0, false);
        }
        digits[g] = rest % group.size;
        rest /= group.size;
    }
    // Lazily-built DP unrankers, one per constrained group.
    let mut dps: Vec<Option<ConstrainedRgs<'_>>> = groups.iter().map(|_| None).collect();
    let last = groups.len() - 1;
    // Land every outer group on its boundary solution; the innermost
    // group's position is the lower bound of its first native walk.
    for g in 0..last {
        let rgs = groups[g].unrank(&mut dps[g], digits[g]);
        groups[g].apply(&rgs, &mut variant.names);
    }
    let mut emitted = 0u64;
    let mut broke = false;
    loop {
        // One run of the innermost group: from its current digit to the
        // end of its (budget-capped) solution list, bounded by the range.
        let inner = &groups[last];
        let start_digit = digits[last];
        let lower = if start_digit == 0 {
            Vec::new()
        } else {
            inner.unrank(&mut dps[last], start_digit)
        };
        let run = RgsShard {
            n: inner.general.num_holes(),
            k: inner.general.num_vars,
            start: lower,
            end: None,
            size: inner
                .count
                .checked_sub(&BigUint::from(start_digit))
                .expect("digit indexes into the group's space"),
        };
        let mut inner_pos = start_digit;
        let _ = enumerate_canonical_shard(&inner.general, &run, &mut |rgs| {
            if inner_pos >= inner.size {
                // The budget capped this group's list: skip the tail,
                // exactly as the materialized path would.
                return ControlFlow::Break(());
            }
            if let Some(stop) = stop {
                if stop.load(Ordering::Relaxed) {
                    broke = true;
                    return ControlFlow::Break(());
                }
            }
            inner.apply(rgs, &mut variant.names);
            variant.index = range.start + emitted;
            inner_pos += 1;
            emitted += 1;
            if visit(&variant).is_break() {
                broke = true;
                if let Some(stop) = stop {
                    stop.store(true, Ordering::Relaxed);
                }
                return ControlFlow::Break(());
            }
            if emitted == total_needed {
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        if broke || emitted == total_needed {
            debug_assert!(
                broke || emitted == range.end - range.start,
                "shard emitted {emitted} of {range:?}"
            );
            return (emitted, broke);
        }
        // The innermost group wrapped: advance the outer odometer,
        // re-unranking only the groups whose digit changed.
        digits[last] = 0;
        let mut g = last;
        loop {
            if g == 0 {
                // The whole product is exhausted; only reachable when the
                // caller's range overshoots the space.
                return (emitted, broke);
            }
            g -= 1;
            digits[g] = (digits[g] + 1) % groups[g].size;
            let rgs = groups[g].unrank(&mut dps[g], digits[g]);
            groups[g].apply(&rgs, &mut variant.names);
            if digits[g] != 0 {
                break;
            }
        }
    }
}

impl ShardedEnumerator {
    /// Creates a sharded enumerator cutting the space into `shards` parts.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(config: EnumeratorConfig, shards: usize) -> ShardedEnumerator {
        assert!(shards > 0, "at least one shard is required");
        ShardedEnumerator { config, shards }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EnumeratorConfig {
        &self.config
    }

    /// Number of shards the space is cut into.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The emission-index ranges of each shard of a
    /// [`prepare`](Self::prepare)d space: `shards()` contiguous, disjoint
    /// ranges exactly covering `[0, total)`, sized within one variant of
    /// each other. Ranges can be empty when the space is smaller than the
    /// shard count.
    pub fn shard_ranges_prepared(&self, space: &VariantSpace) -> Vec<Range<u64>> {
        self.ranges_for_total(space.total(self.config.budget))
    }

    /// Materializes the skeleton's variant space once, for repeated (or
    /// cross-thread) shard streaming without re-materializing per shard —
    /// the worker-pool entry point: prepare per file, then stream any
    /// shard from any thread via
    /// [`ShardedEnumerator::enumerate_shard_prepared`].
    ///
    /// For [`Algorithm::Canonical`] on qualifying skeletons (every type
    /// group within the 128-variable constraint-mask width and the
    /// counting-DP state limit — constrained and multi-group skeletons
    /// included) nothing is materialized: shards later enumerate their
    /// own slice natively, so preparation costs only the per-group
    /// exact counts, never the space size.
    pub fn prepare(&self, sk: &Skeleton) -> VariantSpace {
        if self.config.algorithm == Algorithm::Canonical {
            if let Some(native) = canonical_native_space(&self.config, sk) {
                // Same meaning as the materialized path's flag: the
                // budget cut some group's solution stream short.
                let truncated = native
                    .groups
                    .iter()
                    .any(|g| g.count > BigUint::from(g.size));
                return VariantSpace {
                    base: base_names(sk),
                    kind: SpaceKind::CanonicalNative(native),
                    truncated,
                };
            }
        }
        let (base, fragments, truncated) = materialize_fragments(&self.config, sk);
        VariantSpace {
            base,
            kind: SpaceKind::Product(fragments),
            truncated,
        }
    }

    /// Streams one shard of an already-[`prepare`](Self::prepare)d space
    /// serially through `visit` — the entry point for worker pools (each
    /// worker picks a shard index and enumerates only that slice).
    /// `emitted` counts this shard's variants; `truncated` reports the
    /// global budget cut or an early break, exactly as for
    /// [`Enumerator::enumerate`].
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()`.
    pub fn enumerate_shard_prepared<F>(
        &self,
        space: &VariantSpace,
        shard: usize,
        visit: &mut F,
    ) -> EnumerationOutcome
    where
        F: FnMut(&Variant) -> ControlFlow<()>,
    {
        self.enumerate_shard_resumed_prepared(space, shard, 0, visit)
    }

    /// Streams one shard of a prepared space **starting `skip` variants
    /// past the shard's lower boundary** — the checkpoint-resume entry
    /// point (`spe_harness::checkpoint`, `DESIGN.md` §9): a worker that
    /// recorded an emission-index high-water mark re-seeds the shard here
    /// via the same exact unranking `skip_to` machinery shard starts use
    /// (mixed-radix odometer decomposition, closed-form or DP RGS
    /// unranking), so nothing before the mark is re-enumerated.
    ///
    /// Variants and their global emission indices are byte-identical to
    /// the tail of [`enumerate_shard_prepared`](Self::enumerate_shard_prepared)
    /// after its first `skip` variants; `skip >=` the shard size streams
    /// nothing. `emitted` counts only the variants streamed by this call.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()`.
    pub fn enumerate_shard_resumed_prepared<F>(
        &self,
        space: &VariantSpace,
        shard: usize,
        skip: u64,
        visit: &mut F,
    ) -> EnumerationOutcome
    where
        F: FnMut(&Variant) -> ControlFlow<()>,
    {
        assert!(shard < self.shards, "shard {shard} out of {}", self.shards);
        let mut truncated = space.truncated;
        let total = space.total_with(self.config.budget, &mut truncated);
        let range = self.ranges_for_total(total).swap_remove(shard);
        let start = range.start.saturating_add(skip).min(range.end);
        let (emitted, broke) = space.stream_range(start..range.end, None, visit);
        EnumerationOutcome {
            emitted,
            truncated: truncated || broke,
        }
    }

    fn ranges_for_total(&self, total: u64) -> Vec<Range<u64>> {
        let k = self.shards as u128;
        let cut = |i: u128| (total as u128 * i / k) as u64;
        (0..self.shards as u128)
            .map(|i| cut(i)..cut(i + 1))
            .collect()
    }

    /// Enumerates the whole space with one thread per shard.
    ///
    /// `visit` observes every variant exactly once, with globally stable
    /// indices, but *interleaved across shards* — callers needing serial
    /// order should order by [`Variant::index`] (or use
    /// [`ShardedEnumerator::collect_sources`], which merges for free).
    /// `emitted` is the total across shards. A [`ControlFlow::Break`] from
    /// any shard raises a shared stop flag that halts the others at their
    /// next variant; unlike the serial enumerator, variants already in
    /// flight on sibling threads may still be visited.
    pub fn enumerate<F>(&self, sk: &Skeleton, visit: &F) -> EnumerationOutcome
    where
        F: Fn(&Variant) -> ControlFlow<()> + Sync,
    {
        let space = self.prepare(sk);
        let mut truncated = space.truncated;
        let total = space.total_with(self.config.budget, &mut truncated);
        if self.shards == 1 || total <= 1 {
            let (emitted, broke) = space.stream_range(0..total, None, &mut |v| visit(v));
            return EnumerationOutcome {
                emitted,
                truncated: truncated || broke,
            };
        }
        let stop = AtomicBool::new(false);
        let space = &space;
        let stop_ref = &stop;
        let mut emitted = 0u64;
        let mut broke = false;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .ranges_for_total(total)
                .into_iter()
                .map(|range| {
                    scope.spawn(move || {
                        space.stream_range(range, Some(stop_ref), &mut |v| visit(v))
                    })
                })
                .collect();
            for handle in handles {
                let (shard_emitted, shard_broke) = handle.join().expect("shard worker panicked");
                emitted += shard_emitted;
                broke |= shard_broke;
            }
        });
        EnumerationOutcome {
            emitted,
            truncated: truncated || broke,
        }
    }

    /// Collects realized variant sources using all shards in parallel and
    /// merges them in shard order — byte-identical to the serial
    /// [`Enumerator::collect_sources`]. Each worker renders through one
    /// reusable buffer.
    pub fn collect_sources(&self, sk: &Skeleton) -> Vec<String> {
        let space = self.prepare(sk);
        let mut truncated = space.truncated;
        let total = space.total_with(self.config.budget, &mut truncated);
        let space = &space;
        let ranges = self.ranges_for_total(total);
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|range| {
                    scope.spawn(move || {
                        let mut out = Vec::with_capacity((range.end - range.start) as usize);
                        space.stream_range(range, None, &mut |v| {
                            out.push(v.source(sk));
                            ControlFlow::Continue(())
                        });
                        out
                    })
                })
                .collect();
            let mut merged = Vec::with_capacity(total as usize);
            for handle in handles {
                merged.extend(handle.join().expect("shard worker panicked"));
            }
            merged
        })
    }
}

/// Closed-form count of the paper's enumeration for a whole skeleton: the
/// product of `paper_count` over all units and type groups.
///
/// ```
/// use spe_core::{spe_count, Granularity, Skeleton};
/// let sk = Skeleton::from_source("int a, b; void f() { a = b; b = a; a = a; }").unwrap();
/// // 6 holes over 2 global variables: {6 1} + {6 2} = 32.
/// assert_eq!(spe_count(&sk, Granularity::Intra).to_u64(), Some(32));
/// ```
pub fn spe_count(sk: &Skeleton, granularity: Granularity) -> BigUint {
    let mut acc = BigUint::one();
    for u in sk.units(granularity) {
        for g in &u.groups {
            acc *= &spe_combinatorics::paper_count(&g.flat);
        }
    }
    acc
}

/// Closed-form count of the naive enumeration (§3.1): `∏_i |v_i|` over all
/// holes.
///
/// ```
/// use spe_core::{naive_count, Granularity, Skeleton};
/// let sk = Skeleton::from_source("int a, b; void f() { a = b; }").unwrap();
/// assert_eq!(naive_count(&sk, Granularity::Intra).to_u64(), Some(4));
/// ```
pub fn naive_count(sk: &Skeleton, granularity: Granularity) -> BigUint {
    let mut acc = BigUint::one();
    for u in sk.units(granularity) {
        for g in &u.groups {
            acc *= &g.general.naive_count();
        }
    }
    acc
}

/// Count of canonical (valid-partition) variants, computed by capped
/// enumeration. Returns `(count, exceeded)` where `exceeded` means the
/// cap was hit and the count is a lower bound.
pub fn canonical_count_capped(
    sk: &Skeleton,
    granularity: Granularity,
    cap: usize,
) -> (BigUint, bool) {
    let mut acc = BigUint::one();
    let mut exceeded = false;
    for u in sk.units(granularity) {
        for g in &u.groups {
            let (sols, truncated) = canonical_solutions(&g.general, cap);
            exceeded |= truncated;
            acc *= &BigUint::from(sols.len());
        }
    }
    (acc, exceeded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> Skeleton {
        Skeleton::from_source("int main() { int a, b = 1; b = b - a; if (a) a = a - b; return 0; }")
            .expect("builds")
    }

    #[test]
    fn figure1_counts() {
        let sk = fig1();
        assert_eq!(naive_count(&sk, Granularity::Intra).to_u64(), Some(128));
        assert_eq!(spe_count(&sk, Granularity::Intra).to_u64(), Some(64));
    }

    #[test]
    fn enumeration_matches_closed_form() {
        let sk = fig1();
        let e = Enumerator::new(EnumeratorConfig::default());
        let outcome = e.enumerate(&sk, &mut |_| ControlFlow::Continue(()));
        assert_eq!(outcome.emitted, 64);
        assert!(!outcome.truncated);
    }

    #[test]
    fn naive_enumeration_matches_naive_count() {
        let sk = fig1();
        let e = Enumerator::new(EnumeratorConfig {
            algorithm: Algorithm::Naive,
            ..Default::default()
        });
        let outcome = e.enumerate(&sk, &mut |_| ControlFlow::Continue(()));
        assert_eq!(outcome.emitted, 128);
    }

    #[test]
    fn all_variants_parse_and_are_distinct() {
        let sk = fig1();
        for algorithm in [
            Algorithm::Paper,
            Algorithm::Canonical,
            Algorithm::Orbit,
            Algorithm::Naive,
        ] {
            let e = Enumerator::new(EnumeratorConfig {
                algorithm,
                ..Default::default()
            });
            let sources = e.collect_sources(&sk);
            let mut seen = std::collections::HashSet::new();
            for s in &sources {
                Skeleton::from_source(s)
                    .unwrap_or_else(|err| panic!("{algorithm:?} emitted invalid code: {err}\n{s}"));
                assert!(seen.insert(s.clone()), "{algorithm:?} duplicate:\n{s}");
            }
        }
    }

    #[test]
    fn algorithm_ordering_on_single_scope() {
        // With a single (global) scope all three reduced enumerators
        // agree.
        let sk = fig1();
        let count = |a: Algorithm| {
            Enumerator::new(EnumeratorConfig {
                algorithm: a,
                ..Default::default()
            })
            .enumerate(&sk, &mut |_| ControlFlow::Continue(()))
            .emitted
        };
        assert_eq!(count(Algorithm::Paper), 64);
        assert_eq!(count(Algorithm::Canonical), 64);
        assert_eq!(count(Algorithm::Orbit), 64);
        assert_eq!(count(Algorithm::Naive), 128);
    }

    #[test]
    fn scoped_program_algorithm_relations() {
        // Figure 6-like program: canonical <= paper <= orbit <= naive.
        let sk = Skeleton::from_source(
            r#"
            int main() {
                int a = 1, b = 0;
                if (a) {
                    int c = 3, d = 5;
                    b = c + d;
                }
                printf("%d", a);
                printf("%d", b);
                return 0;
            }
            "#,
        )
        .expect("builds");
        let count = |a: Algorithm| {
            Enumerator::new(EnumeratorConfig {
                algorithm: a,
                budget: 1_000_000,
                ..Default::default()
            })
            .enumerate(&sk, &mut |_| ControlFlow::Continue(()))
            .emitted
        };
        let (c, p, o, n) = (
            count(Algorithm::Canonical),
            count(Algorithm::Paper),
            count(Algorithm::Orbit),
            count(Algorithm::Naive),
        );
        assert!(c <= p, "canonical {c} <= paper {p}");
        assert!(p <= o, "paper {p} <= orbit {o}");
        assert!(o <= n, "orbit {o} <= naive {n}");
        // Holes: a(if), b(lhs), c, d, a(printf), b(printf) with allowed
        // sizes 2, 4, 4, 4, 2, 2 -> naive = 2^3 · 4^3 = 512.
        assert_eq!(n, 512);
    }

    #[test]
    fn budget_truncates_product() {
        let sk = fig1();
        let e = Enumerator::new(EnumeratorConfig {
            budget: 10,
            ..Default::default()
        });
        let outcome = e.enumerate(&sk, &mut |_| ControlFlow::Continue(()));
        assert_eq!(outcome.emitted, 10);
        assert!(outcome.truncated);
    }

    #[test]
    fn visitor_break_stops_early() {
        let sk = fig1();
        let e = Enumerator::new(EnumeratorConfig::default());
        let mut n = 0;
        let outcome = e.enumerate(&sk, &mut |_| {
            n += 1;
            if n == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(outcome.emitted, 3);
        assert!(outcome.truncated);
    }

    #[test]
    fn multi_function_product() {
        let sk = Skeleton::from_source("int g, h; void f() { g = h; } void k() { h = g; }")
            .expect("builds");
        // Each function: 2 holes over 2 globals -> {2 1} + {2 2} = 2; the
        // intra product is 4.
        assert_eq!(spe_count(&sk, Granularity::Intra).to_u64(), Some(4));
        // Inter: all 4 holes in one unit -> {4 1} + {4 2} = 8.
        assert_eq!(spe_count(&sk, Granularity::Inter).to_u64(), Some(8));
        let e = Enumerator::new(EnumeratorConfig::default());
        assert_eq!(e.collect_sources(&sk).len(), 4);
    }

    #[test]
    fn multi_type_product() {
        let sk = Skeleton::from_source("int a, b; double x, y; void f() { a = b; x = y; }")
            .expect("builds");
        // Each type group: 2 holes over 2 vars -> 2; product 4.
        assert_eq!(spe_count(&sk, Granularity::Intra).to_u64(), Some(4));
    }

    #[test]
    fn canonical_capped_count() {
        let sk = fig1();
        let (count, exceeded) = canonical_count_capped(&sk, Granularity::Intra, 10_000);
        assert_eq!(count.to_u64(), Some(64));
        assert!(!exceeded);
        let (count, exceeded) = canonical_count_capped(&sk, Granularity::Intra, 10);
        assert_eq!(count.to_u64(), Some(10));
        assert!(exceeded);
    }

    #[test]
    fn original_program_is_among_naive_variants() {
        // The naive enumeration contains the identity filling verbatim.
        let sk = fig1();
        let original = sk.source();
        let e = Enumerator::new(EnumeratorConfig {
            algorithm: Algorithm::Naive,
            ..Default::default()
        });
        let sources = e.collect_sources(&sk);
        assert!(
            sources.contains(&original),
            "the identity filling must be enumerated"
        );
    }

    /// Serial reference: (index, source) pairs in emission order.
    fn serial_sequence(sk: &Skeleton, config: EnumeratorConfig) -> Vec<(u64, String)> {
        let mut out = Vec::new();
        Enumerator::new(config).enumerate(sk, &mut |v| {
            out.push((v.index, v.source(sk)));
            ControlFlow::Continue(())
        });
        out
    }

    fn fig6() -> Skeleton {
        Skeleton::from_source(
            r#"
            int main() {
                int a = 1, b = 0;
                if (a) {
                    int c = 3, d = 5;
                    b = c + d;
                }
                printf("%d", a);
                printf("%d", b);
                return 0;
            }
            "#,
        )
        .expect("builds")
    }

    #[test]
    fn shard_union_is_exactly_the_serial_sequence_for_every_algorithm() {
        // The union of all shards must enumerate exactly the serial
        // sequence — no duplicates, no gaps — for every Algorithm variant
        // and several shard counts, on both a flat and a scoped skeleton.
        for sk in [fig1(), fig6()] {
            for algorithm in [
                Algorithm::Paper,
                Algorithm::Canonical,
                Algorithm::Orbit,
                Algorithm::Naive,
            ] {
                let config = EnumeratorConfig {
                    algorithm,
                    budget: 1_000_000,
                    ..Default::default()
                };
                let serial = serial_sequence(&sk, config);
                for shards in [1usize, 2, 3, 4, 7, 8] {
                    let sharded = ShardedEnumerator::new(config, shards);
                    let space = sharded.prepare(&sk);
                    let mut union: Vec<(u64, String)> = Vec::new();
                    for shard in 0..shards {
                        sharded.enumerate_shard_prepared(&space, shard, &mut |v| {
                            union.push((v.index, v.source(&sk)));
                            ControlFlow::Continue(())
                        });
                    }
                    assert_eq!(
                        union, serial,
                        "{algorithm:?} with {shards} shards diverged from serial"
                    );
                }
            }
        }
    }

    #[test]
    fn shard_ranges_cover_the_space_without_overlap() {
        let sk = fig1();
        for shards in 1..=9usize {
            let e = ShardedEnumerator::new(EnumeratorConfig::default(), shards);
            let ranges = e.shard_ranges_prepared(&e.prepare(&sk));
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[ranges.len() - 1].end, 64);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "gap or overlap at {w:?}");
            }
            // Near-even: sizes differ by at most one variant.
            let sizes: Vec<u64> = ranges.iter().map(|r| r.end - r.start).collect();
            let min = sizes.iter().min().expect("non-empty");
            let max = sizes.iter().max().expect("non-empty");
            assert!(max - min <= 1, "uneven shard sizes {sizes:?}");
        }
    }

    #[test]
    fn parallel_enumerate_visits_every_variant_once() {
        use std::sync::Mutex;
        let sk = fig6();
        let config = EnumeratorConfig {
            budget: 1_000_000,
            ..Default::default()
        };
        let serial = serial_sequence(&sk, config);
        let seen = Mutex::new(Vec::new());
        let outcome = ShardedEnumerator::new(config, 4).enumerate(&sk, &|v| {
            seen.lock()
                .expect("poisoned")
                .push((v.index, v.source(&sk)));
            ControlFlow::Continue(())
        });
        let mut seen = seen.into_inner().expect("poisoned");
        seen.sort();
        assert_eq!(seen, serial);
        assert_eq!(outcome.emitted, serial.len() as u64);
        assert!(!outcome.truncated);
    }

    #[test]
    fn sharded_collect_sources_is_byte_identical_to_serial() {
        for sk in [fig1(), fig6()] {
            let serial = Enumerator::new(EnumeratorConfig::default()).collect_sources(&sk);
            for shards in [2usize, 4, 8] {
                let merged = ShardedEnumerator::new(EnumeratorConfig::default(), shards)
                    .collect_sources(&sk);
                assert_eq!(serial, merged, "{shards} shards");
            }
        }
    }

    #[test]
    fn sharded_budget_truncation_matches_serial() {
        let sk = fig1();
        let config = EnumeratorConfig {
            budget: 10,
            ..Default::default()
        };
        let serial = Enumerator::new(config).collect_sources(&sk);
        assert_eq!(serial.len(), 10);
        let sharded = ShardedEnumerator::new(config, 4);
        assert_eq!(sharded.collect_sources(&sk), serial);
        let outcome = sharded.enumerate(&sk, &|_| ControlFlow::Continue(()));
        assert_eq!(outcome.emitted, 10);
        assert!(outcome.truncated);
    }

    #[test]
    fn parallel_break_stops_all_shards() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let sk = fig6();
        let config = EnumeratorConfig {
            budget: 1_000_000,
            ..Default::default()
        };
        let count = AtomicU64::new(0);
        let outcome = ShardedEnumerator::new(config, 4).enumerate(&sk, &|_| {
            if count.fetch_add(1, Ordering::Relaxed) >= 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(outcome.truncated);
        // Every shard halts promptly: nothing close to the full space runs.
        let total = Enumerator::new(config)
            .enumerate(&sk, &mut |_| ControlFlow::Continue(()))
            .emitted;
        assert!(
            outcome.emitted < total,
            "break did not stop shards ({} of {total})",
            outcome.emitted
        );
    }

    #[test]
    fn canonical_native_shards_match_serial_on_a_bell_space() {
        // Five same-type function-top locals, every hole seeing all five:
        // the shard-native canonical path applies (single unconstrained
        // group, Bell-number space) and must be byte-identical to the
        // serial (fully materialized) enumerator, per shard and merged.
        let sk = Skeleton::from_source(
            "int main() { int a, b, c, d, e; a = b + c; d = e + a; b = c + d; e = a; return 0; }",
        )
        .expect("builds");
        let config = EnumeratorConfig {
            algorithm: Algorithm::Canonical,
            budget: 1_000_000,
            ..Default::default()
        };
        let serial = serial_sequence(&sk, config);
        assert!(serial.len() > 100, "space large enough to matter");
        for shards in [2usize, 3, 5, 8] {
            let sharded = ShardedEnumerator::new(config, shards);
            let space = sharded.prepare(&sk);
            let mut union: Vec<(u64, String)> = Vec::new();
            for shard in 0..shards {
                sharded.enumerate_shard_prepared(&space, shard, &mut |v| {
                    union.push((v.index, v.source(&sk)));
                    ControlFlow::Continue(())
                });
            }
            assert_eq!(union, serial, "{shards} shards diverged");
        }
    }

    #[test]
    fn canonical_native_budget_truncation_matches_serial() {
        // The native path must clamp to the budget exactly where the
        // materialized serial path does.
        let sk = fig1();
        for budget in [1usize, 7, 10, 63, 64, 100] {
            let config = EnumeratorConfig {
                algorithm: Algorithm::Canonical,
                budget,
                ..Default::default()
            };
            let serial = Enumerator::new(config).collect_sources(&sk);
            let sharded = ShardedEnumerator::new(config, 4);
            assert_eq!(sharded.collect_sources(&sk), serial, "budget {budget}");
            assert_eq!(
                sharded.prepare(&sk).truncated(),
                budget < 64,
                "budget {budget}"
            );
            let outcome = sharded.enumerate(&sk, &|_| ControlFlow::Continue(()));
            assert_eq!(outcome.emitted, serial.len() as u64);
            assert_eq!(outcome.truncated, budget < 64, "budget {budget}");
        }
    }

    /// A constrained, multi-group skeleton: two functions, two types,
    /// nested scopes and declaration-order effects — three type groups,
    /// two of them constrained. This is the regime the materialized
    /// fallback used to own.
    fn constrained_multi_group() -> Skeleton {
        Skeleton::from_source(
            r#"
            int g;
            int main() {
                int a = 1, b = 0;
                double x, y;
                if (a) {
                    int c;
                    c = a + b;
                    x = y;
                }
                g = b;
                return 0;
            }
            void helper() {
                int u, v;
                u = v + g;
            }
            "#,
        )
        .expect("builds")
    }

    #[test]
    fn constrained_multi_group_takes_the_native_path() {
        let sk = constrained_multi_group();
        let config = EnumeratorConfig {
            algorithm: Algorithm::Canonical,
            budget: 1_000_000,
            ..Default::default()
        };
        let space = ShardedEnumerator::new(config, 4).prepare(&sk);
        assert!(
            space.is_shard_native(),
            "the constrained gate must engage — no solution list materialized"
        );
        // Sanity: the skeleton really is constrained and multi-group.
        let units = sk.units(Granularity::Intra);
        let groups: Vec<_> = units.iter().flat_map(|u| u.groups.iter()).collect();
        assert!(groups.len() >= 3, "got {} groups", groups.len());
        assert!(
            groups.iter().any(|g| !g.is_unconstrained()),
            "at least one group must be constrained"
        );
    }

    #[test]
    fn constrained_native_shards_are_byte_identical_to_serial() {
        // The serial Enumerator is the materialized path, so this pins
        // the native walk against both the materialized product and
        // serial enumeration at once.
        let sk = constrained_multi_group();
        let config = EnumeratorConfig {
            algorithm: Algorithm::Canonical,
            budget: 1_000_000,
            ..Default::default()
        };
        let serial = serial_sequence(&sk, config);
        assert!(serial.len() > 100, "space large enough to matter");
        for shards in [1usize, 2, 4, 8, 16] {
            let sharded = ShardedEnumerator::new(config, shards);
            let space = sharded.prepare(&sk);
            assert!(space.is_shard_native());
            let mut union: Vec<(u64, String)> = Vec::new();
            for shard in 0..shards {
                sharded.enumerate_shard_prepared(&space, shard, &mut |v| {
                    union.push((v.index, v.source(&sk)));
                    ControlFlow::Continue(())
                });
            }
            assert_eq!(union, serial, "{shards} shards diverged");
        }
    }

    #[test]
    fn constrained_native_budget_truncation_matches_serial() {
        // Budgets below a single group's count (per-group truncation),
        // between group counts and product, and above the product must
        // all clamp the native walk exactly where the materialized
        // serial path clamps.
        let sk = constrained_multi_group();
        let full = Enumerator::new(EnumeratorConfig {
            algorithm: Algorithm::Canonical,
            budget: 1_000_000,
            ..Default::default()
        })
        .collect_sources(&sk)
        .len();
        assert!(full > 100 && full < 10_000, "untruncated space, got {full}");
        for budget in [1usize, 2, 5, 10, 33, 100, full - 1, full, full + 7] {
            let config = EnumeratorConfig {
                algorithm: Algorithm::Canonical,
                budget,
                ..Default::default()
            };
            let serial = Enumerator::new(config).collect_sources(&sk);
            for shards in [2usize, 4, 8] {
                let sharded = ShardedEnumerator::new(config, shards);
                assert!(sharded.prepare(&sk).is_shard_native());
                assert_eq!(
                    sharded.collect_sources(&sk),
                    serial,
                    "budget {budget}, {shards} shards"
                );
                let outcome = sharded.enumerate(&sk, &|_| ControlFlow::Continue(()));
                assert_eq!(outcome.emitted, serial.len() as u64, "budget {budget}");
                assert_eq!(outcome.truncated, budget < full, "budget {budget}");
            }
        }
    }

    #[test]
    fn pathological_constraint_structures_fall_back_to_materialization() {
        // Dozens of interleaved declaration-order prefixes give every
        // hole a distinct allowed set; the exact-counting DP's state
        // space explodes while budget-capped materialized enumeration
        // stays cheap. The gate must detect this and fall back — and
        // the fallback must still be byte-identical across shards.
        let mut body = String::new();
        for i in 0..24 {
            body.push_str(&format!("int v{i}; v{i} = {i};\n"));
        }
        for i in 1..24 {
            body.push_str(&format!("v{i} = v{i} + v{};\n", i - 1));
        }
        let sk = Skeleton::from_source(&format!("void f() {{\n{body}}}\n")).expect("builds");
        let config = EnumeratorConfig {
            algorithm: Algorithm::Canonical,
            budget: 200,
            ..Default::default()
        };
        let start = std::time::Instant::now();
        let sharded = ShardedEnumerator::new(config, 4);
        let space = sharded.prepare(&sk);
        assert!(
            !space.is_shard_native(),
            "the gate must refuse DP-hostile instances"
        );
        let serial = Enumerator::new(config).collect_sources(&sk);
        assert_eq!(serial.len(), 200, "budget-capped");
        assert_eq!(sharded.collect_sources(&sk), serial);
        // Both prepare-and-refuse and the fallback must stay far from
        // the uncapped DP's runtime (tens of seconds).
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "fallback took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn resumed_shard_stream_is_the_tail_of_the_full_shard() {
        // The checkpoint-resume entry point must reproduce exactly the
        // suffix of each shard — same sources, same global emission
        // indices — for every skip offset, on materialized and
        // shard-native spaces alike.
        for (sk, algorithm) in [
            (fig1(), Algorithm::Paper),
            (fig6(), Algorithm::Naive),
            (constrained_multi_group(), Algorithm::Canonical),
        ] {
            let config = EnumeratorConfig {
                algorithm,
                budget: 1_000_000,
                ..Default::default()
            };
            let sharded = ShardedEnumerator::new(config, 4);
            let space = sharded.prepare(&sk);
            for shard in 0..4 {
                let mut full: Vec<(u64, String)> = Vec::new();
                sharded.enumerate_shard_prepared(&space, shard, &mut |v| {
                    full.push((v.index, v.source(&sk)));
                    ControlFlow::Continue(())
                });
                for skip in [0usize, 1, full.len() / 2, full.len().saturating_sub(1), full.len(), full.len() + 5] {
                    let mut resumed: Vec<(u64, String)> = Vec::new();
                    let outcome = sharded.enumerate_shard_resumed_prepared(
                        &space,
                        shard,
                        skip as u64,
                        &mut |v| {
                            resumed.push((v.index, v.source(&sk)));
                            ControlFlow::Continue(())
                        },
                    );
                    assert_eq!(
                        resumed,
                        full[skip.min(full.len())..],
                        "{algorithm:?} shard {shard} skip {skip}"
                    );
                    assert_eq!(outcome.emitted, resumed.len() as u64);
                }
            }
        }
    }

    #[test]
    fn more_shards_than_variants_still_covers_exactly() {
        let sk = Skeleton::from_source("int a, b; void f() { a = b; }").expect("builds");
        let serial = Enumerator::new(EnumeratorConfig::default()).collect_sources(&sk);
        let merged = ShardedEnumerator::new(EnumeratorConfig::default(), 16).collect_sources(&sk);
        assert_eq!(serial, merged);
    }

    #[test]
    fn original_alpha_class_is_among_paper_variants() {
        // The paper enumeration emits canonical representatives: the
        // original program appears up to α-renaming (same RGS over its
        // holes), not necessarily verbatim.
        let sk = fig1();
        let original_rgs = {
            let labels: Vec<usize> = sk.holes().iter().map(|h| h.var.0).collect();
            spe_combinatorics::labels_to_rgs(&labels)
        };
        let e = Enumerator::new(EnumeratorConfig::default());
        let mut found = false;
        e.enumerate(&sk, &mut |v| {
            let src = v.source(&sk);
            let re = Skeleton::from_source(&src).expect("variant parses");
            let labels: Vec<usize> = re.holes().iter().map(|h| h.var.0).collect();
            if spe_combinatorics::labels_to_rgs(&labels) == original_rgs {
                found = true;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        assert!(found, "no variant is α-equivalent to the original");
    }
}
