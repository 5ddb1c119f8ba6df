//! Syntactic skeletons: hole extraction, scoped-instance construction and
//! program realization.
//!
//! A *skeleton* `P̂` is a program with every variable use site replaced by
//! a hole `□` (§3 of the SPE paper). This crate turns parsed mini-C (or
//! WHILE) programs into enumeration instances:
//!
//! 1. [`Skeleton::from_source`] parses and scope-analyzes a program, and
//!    records every hole with its *hole variable set* `v_i` (the visible,
//!    type-compatible variables at that use site);
//! 2. [`Skeleton::units`] groups holes into enumeration units — per
//!    function for the paper's *intra-procedural* granularity, or one unit
//!    for the whole file (*inter-procedural*, §4.3) — and splits each unit
//!    by variable type (the type-aware compact α-renaming of §3.2.2);
//! 3. each [`TypeGroup`] carries both the exact [`GeneralInstance`] and
//!    the paper's normal-form [`FlatInstance`];
//! 4. [`Skeleton::realize`] turns an enumerator solution back into
//!    compilable source by renaming use sites (declarations stay fixed;
//!    see `DESIGN.md` §2 on why this realization is faithful).
//!
//! # Examples
//!
//! ```
//! use spe_skeleton::{Skeleton, Granularity};
//!
//! // Figure 1 of the paper: 7 holes over 2 int variables.
//! let sk = Skeleton::from_source(
//!     "int main() { int a, b = 1; b = b - a; if (a) a = a - b; return 0; }",
//! )?;
//! assert_eq!(sk.num_holes(), 7);
//! let units = sk.units(Granularity::Intra);
//! assert_eq!(units.len(), 1);
//! assert_eq!(units[0].groups.len(), 1); // one type group: int
//! # Ok::<(), spe_skeleton::SkeletonError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use spe_combinatorics::{FlatInstance, FlatScope, GeneralInstance, PoolRef, ScopedSolution};
use spe_minic::ast::{OccId, Program, Type};
use spe_minic::sema::{ScopeKind, SymbolTable, VarId, VarKind};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::OnceLock;

pub mod render;
pub mod while_skeleton;

pub use render::{NameId, NameTable, RenderTemplate, TemplatePart};
pub use while_skeleton::WhileSkeleton;

/// Errors from skeleton construction.
#[derive(Debug, Clone, PartialEq)]
pub enum SkeletonError {
    /// The source failed to parse.
    Parse(spe_minic::ParseError),
    /// Scope analysis failed (e.g. undeclared variable).
    Sema(spe_minic::SemaError),
}

impl fmt::Display for SkeletonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkeletonError::Parse(e) => write!(f, "skeleton: {e}"),
            SkeletonError::Sema(e) => write!(f, "skeleton: {e}"),
        }
    }
}

impl std::error::Error for SkeletonError {}

impl From<spe_minic::ParseError> for SkeletonError {
    fn from(e: spe_minic::ParseError) -> Self {
        SkeletonError::Parse(e)
    }
}

impl From<spe_minic::SemaError> for SkeletonError {
    fn from(e: spe_minic::SemaError) -> Self {
        SkeletonError::Sema(e)
    }
}

/// Enumeration granularity (§4.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// One enumeration unit per function; the function's parameters and
    /// top-level locals join the file globals in the unit's global pool.
    /// This is what the paper's evaluation uses.
    Intra,
    /// One unit for the whole translation unit; only file-scope variables
    /// form the global pool and every function acts as a scope.
    Inter,
}

/// One hole of the skeleton.
#[derive(Debug, Clone)]
pub struct Hole {
    /// The use site.
    pub occ: OccId,
    /// The variable originally filling the hole.
    pub var: VarId,
    /// The hole variable set `v_i`: visible, type-compatible variables.
    pub allowed: Vec<VarId>,
    /// Enclosing function index (`None` for global initializers).
    pub func: Option<usize>,
}

/// Holes of one variable type within one enumeration unit, with both
/// instance encodings.
#[derive(Debug, Clone)]
pub struct TypeGroup {
    /// The shared variable type.
    pub ty: Type,
    /// Hole indices into [`Skeleton::holes`], in source order. Hole `i`
    /// of the instances refers to `holes[i]`.
    pub holes: Vec<usize>,
    /// Variables usable somewhere in this group, sorted; instance
    /// variable ids index into this.
    pub vars: Vec<VarId>,
    /// Exact per-hole allowed sets.
    pub general: GeneralInstance,
    /// The paper's normal form. Variable pools: `flat_global_vars` then
    /// one pool per flat scope.
    pub flat: FlatInstance,
    /// Variables of the flat global pool, sorted.
    pub flat_global_vars: Vec<VarId>,
    /// Variables of each flat local scope, parallel to `flat.scopes()`.
    pub flat_scope_vars: Vec<Vec<VarId>>,
    /// Whether the flat encoding captures the exact allowed sets (true
    /// for two-level programs without declaration-order or shadowing
    /// effects; the flat view is an approximation otherwise).
    pub flat_exact: bool,
}

impl TypeGroup {
    /// Whether every hole of the group sees the group's whole variable
    /// set. Unconstrained groups are the Bell-number regime: their
    /// canonical space is plain `Rgs(n, k)` and indexes in closed form
    /// ([`spe_combinatorics::rgs_unrank`]); constrained groups need the
    /// prefix-count DP ([`spe_combinatorics::ConstrainedRgs`]) instead.
    /// The shard-native canonical gate in `spe-core` dispatches on this.
    pub fn is_unconstrained(&self) -> bool {
        let k = self.general.num_vars;
        self.general.allowed.iter().all(|a| a.len() == k)
    }

    /// Exact size of the group's canonical solution space (the number of
    /// valid partitions of its holes), without enumerating it: the
    /// closed form for unconstrained groups, the prefix-count DP
    /// otherwise. This is the per-group radix of the mixed-radix
    /// emission-index space that sharded canonical enumeration cuts.
    ///
    /// Returns `None` when counting would exceed `max_states` DP states
    /// ([`spe_combinatorics::ConstrainedRgs::try_total_within`]):
    /// adversarial constraint structures (e.g. dozens of interleaved
    /// declaration-order prefixes) can make the exact count
    /// exponentially stateful even when budget-capped enumeration stays
    /// cheap, and callers like the shard-native gate must detect that
    /// and fall back rather than hang. Unconstrained groups always
    /// answer. A `Some` here also bounds every later unrank on the same
    /// instance, since the full count visits every reachable DP state.
    pub fn canonical_space_size(&self, max_states: usize) -> Option<spe_bignum::BigUint> {
        if self.is_unconstrained() {
            Some(spe_combinatorics::partitions_at_most(
                self.general.num_holes() as u32,
                self.general.num_vars as u32,
            ))
        } else {
            spe_combinatorics::ConstrainedRgs::new(&self.general).try_total_within(max_states)
        }
    }
}

/// An enumeration unit: the holes of one function (intra) or of the whole
/// file (inter), split by type.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Function index for intra-procedural units (`None` = file-level
    /// unit or global initializers).
    pub func: Option<usize>,
    /// Type groups, ordered by type name.
    pub groups: Vec<TypeGroup>,
}

/// Aggregate skeleton statistics (the columns of the paper's Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkeletonStats {
    /// Number of holes.
    pub holes: usize,
    /// Number of scopes (the scope-tree size, including global).
    pub scopes: usize,
    /// Number of function definitions.
    pub funcs: usize,
    /// Number of distinct variable types.
    pub types: usize,
    /// Average `|v_i|` over all holes (0.0 when there are no holes).
    pub vars_per_hole: f64,
}

/// A program viewed as a syntactic skeleton plus hole metadata.
#[derive(Debug, Clone)]
pub struct Skeleton {
    program: Program,
    table: SymbolTable,
    holes: Vec<Hole>,
    /// Interned candidate names; `var_names[v]` is the id of variable
    /// `VarId(v)`'s name (distinct variables may share one id under
    /// shadowing).
    names: NameTable,
    var_names: Vec<NameId>,
    /// Compiled render template, built lazily on first use and shared by
    /// all render calls thereafter.
    template: OnceLock<RenderTemplate>,
}

impl Skeleton {
    /// Parses and analyzes mini-C source into a skeleton.
    ///
    /// # Errors
    ///
    /// Returns [`SkeletonError`] on parse or scope-resolution failures.
    pub fn from_source(src: &str) -> Result<Skeleton, SkeletonError> {
        let program = spe_minic::parse(src)?;
        Skeleton::from_program(program)
    }

    /// Builds a skeleton from an already-parsed program.
    ///
    /// # Errors
    ///
    /// Returns [`SkeletonError::Sema`] when scope analysis fails.
    pub fn from_program(program: Program) -> Result<Skeleton, SkeletonError> {
        let table = spe_minic::analyze(&program)?;
        let holes = table
            .occurrences()
            .iter()
            .map(|occ| Hole {
                occ: occ.occ,
                var: occ.var,
                allowed: table.compatible_vars(occ),
                func: occ.func,
            })
            .collect();
        let mut names = NameTable::new();
        let var_names = table
            .vars()
            .iter()
            .map(|v| names.intern(&v.name))
            .collect();
        Ok(Skeleton {
            program,
            table,
            holes,
            names,
            var_names,
            template: OnceLock::new(),
        })
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The scope analysis results.
    pub fn table(&self) -> &SymbolTable {
        &self.table
    }

    /// All holes in source order.
    pub fn holes(&self) -> &[Hole] {
        &self.holes
    }

    /// Number of holes.
    pub fn num_holes(&self) -> usize {
        self.holes.len()
    }

    /// The occurrence id of every hole, in hole order: `out[h]` is the
    /// use site filled by `names[h]` in a variant. This is the binding
    /// contract an incremental oracle needs to splice a variant's names
    /// into a cached AST instead of reparsing the rendered source.
    pub fn hole_occs(&self) -> impl Iterator<Item = OccId> + '_ {
        self.holes.iter().map(|h| h.occ)
    }

    /// Statistics for the paper's Table 2.
    pub fn stats(&self) -> SkeletonStats {
        let mut types: Vec<String> = self.table.vars().iter().map(|v| v.ty.to_string()).collect();
        types.sort();
        types.dedup();
        let total_allowed: usize = self.holes.iter().map(|h| h.allowed.len()).sum();
        SkeletonStats {
            holes: self.holes.len(),
            scopes: self.table.scopes().len(),
            funcs: self.table.functions().len(),
            types: types.len(),
            vars_per_hole: if self.holes.is_empty() {
                0.0
            } else {
                total_allowed as f64 / self.holes.len() as f64
            },
        }
    }

    /// Splits the holes into enumeration units at the given granularity.
    pub fn units(&self, granularity: Granularity) -> Vec<Unit> {
        let mut by_unit: BTreeMap<Option<usize>, Vec<usize>> = BTreeMap::new();
        for (i, h) in self.holes.iter().enumerate() {
            let key = match granularity {
                Granularity::Intra => h.func,
                Granularity::Inter => None,
            };
            by_unit.entry(key).or_default().push(i);
        }
        by_unit
            .into_iter()
            .map(|(func, hole_ids)| Unit {
                func,
                groups: self.build_groups(&hole_ids, granularity),
            })
            .collect()
    }

    fn is_pool_global(&self, var: VarId, granularity: Granularity) -> bool {
        let v = self.table.var(var);
        match granularity {
            // Intra: file globals, parameters and function-top locals form
            // the unit's global pool v_f (§4.2's "function-wise
            // variables").
            Granularity::Intra => {
                v.kind == VarKind::Global
                    || matches!(self.table.scope(v.scope).kind, ScopeKind::Function(_))
            }
            Granularity::Inter => v.kind == VarKind::Global,
        }
    }

    fn build_groups(&self, hole_ids: &[usize], granularity: Granularity) -> Vec<TypeGroup> {
        let mut by_type: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for &hi in hole_ids {
            let ty = &self.table.var(self.holes[hi].var).ty;
            by_type.entry(ty.to_string()).or_default().push(hi);
        }
        let mut out = Vec::new();
        for (_, holes) in by_type {
            let ty = self.table.var(self.holes[holes[0]].var).ty.clone();
            // Variable universe of the group.
            let mut vars: Vec<VarId> = holes
                .iter()
                .flat_map(|&hi| self.holes[hi].allowed.iter().copied())
                .collect();
            vars.sort_unstable();
            vars.dedup();
            let var_index: HashMap<VarId, usize> =
                vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();

            // Exact instance.
            let allowed: Vec<Vec<usize>> = holes
                .iter()
                .map(|&hi| {
                    let mut a: Vec<usize> = self.holes[hi]
                        .allowed
                        .iter()
                        .map(|v| var_index[v])
                        .collect();
                    a.sort_unstable();
                    a
                })
                .collect();
            let general = GeneralInstance {
                allowed: allowed.clone(),
                num_vars: vars.len(),
            };

            // Flat (normal form) instance: pool split per granularity,
            // flat scopes keyed by the non-global portion of each hole's
            // allowed set.
            let global_pool: Vec<VarId> = vars
                .iter()
                .copied()
                .filter(|&v| self.is_pool_global(v, granularity))
                .collect();
            let mut scope_keys: Vec<Vec<VarId>> = Vec::new();
            let mut scope_holes: Vec<Vec<usize>> = Vec::new();
            let mut global_holes: Vec<usize> = Vec::new();
            let mut flat_exact = true;
            for (pos, &hi) in holes.iter().enumerate() {
                let h = &self.holes[hi];
                let locals: Vec<VarId> = h
                    .allowed
                    .iter()
                    .copied()
                    .filter(|&v| !self.is_pool_global(v, granularity))
                    .collect();
                // Exactness: the hole must see the whole global pool.
                let globals_seen = h.allowed.len() - locals.len();
                if globals_seen != global_pool.len() {
                    flat_exact = false;
                }
                if locals.is_empty() {
                    global_holes.push(pos);
                } else {
                    match scope_keys.iter().position(|k| *k == locals) {
                        Some(s) => scope_holes[s].push(pos),
                        None => {
                            scope_keys.push(locals);
                            scope_holes.push(vec![pos]);
                        }
                    }
                }
            }
            let scopes: Vec<FlatScope> = scope_keys
                .iter()
                .zip(&scope_holes)
                .map(|(k, hs)| FlatScope {
                    holes: hs.clone(),
                    vars: k.len(),
                })
                .collect();
            let flat = FlatInstance::new(global_holes, global_pool.len(), scopes);
            out.push(TypeGroup {
                ty,
                holes,
                vars,
                general,
                flat,
                flat_global_vars: global_pool,
                flat_scope_vars: scope_keys,
                flat_exact,
            });
        }
        out
    }

    /// The interned candidate-name table (all declared variable names).
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// The interned name of a variable.
    pub fn var_name(&self, var: VarId) -> NameId {
        self.var_names[var.0]
    }

    /// The compiled render template, built on first use by walking the
    /// program through the printer exactly once. Subsequent variant
    /// renders are pure segment/slot splices.
    pub fn template(&self) -> &RenderTemplate {
        self.template.get_or_init(|| {
            let hole_of_occ: HashMap<OccId, u32> = self
                .holes
                .iter()
                .enumerate()
                .map(|(i, h)| (h.occ, i as u32))
                .collect();
            // The table is frozen after construction, so every original
            // name is already interned; `lookup` cannot miss.
            RenderTemplate::from_pieces(
                spe_minic::print_template(&self.program),
                &hole_of_occ,
                |name| self.names.lookup(name).expect("declared names interned"),
            )
        })
    }

    /// Builds the flat rename vector realizing a paper/orbit solution of
    /// `group`: blocks drawing from the global pool get distinct global
    /// variables in block order; blocks of flat scope `s` get distinct
    /// variables of that scope. Each entry is `(hole index, chosen name)`,
    /// covering exactly the group's holes.
    ///
    /// # Panics
    ///
    /// Panics if the solution's blocks/pools are inconsistent with the
    /// group (more blocks in a pool than it has variables).
    pub fn rename_for_solution(
        &self,
        group: &TypeGroup,
        solution: &ScopedSolution,
    ) -> Vec<(u32, NameId)> {
        let mut next_global = 0usize;
        let mut next_local: Vec<usize> = vec![0; group.flat_scope_vars.len()];
        let mut rename = Vec::with_capacity(group.holes.len());
        for (block, pool) in solution.blocks.iter().zip(&solution.pools) {
            let var = match pool {
                PoolRef::Global => {
                    let v = group.flat_global_vars[next_global];
                    next_global += 1;
                    v
                }
                PoolRef::Local(s) => {
                    let v = group.flat_scope_vars[*s][next_local[*s]];
                    next_local[*s] += 1;
                    v
                }
            };
            let name = self.var_name(var);
            for &pos in block {
                rename.push((group.holes[pos] as u32, name));
            }
        }
        rename
    }

    /// Builds the flat rename vector realizing a canonical-partition
    /// solution (an RGS over the group's holes), using an SDR assignment.
    /// Returns `None` if the partition has no valid assignment.
    pub fn rename_for_rgs(&self, group: &TypeGroup, rgs: &[usize]) -> Option<Vec<(u32, NameId)>> {
        let assign = spe_combinatorics::assignment_for_rgs(&group.general, rgs)?;
        Some(
            rgs.iter()
                .enumerate()
                .map(|(pos, &block)| {
                    let var = group.vars[assign[block]];
                    (group.holes[pos] as u32, self.var_name(var))
                })
                .collect(),
        )
    }

    /// Renders the variant whose hole `h` is filled with `names[h]` into
    /// `out` (cleared first), via the compiled template. An empty slice
    /// renders the original program. The hot path of enumeration: with a
    /// reused buffer this performs no per-variant heap allocation.
    pub fn render_into(&self, names: &[NameId], out: &mut String) {
        self.template().render_into(names, &self.names, out);
    }

    /// [`render_into`](Self::render_into) allocating a fresh string.
    pub fn render(&self, names: &[NameId]) -> String {
        self.template().render(names, &self.names)
    }

    /// Converts a full hole-indexed rename vector into the legacy
    /// occurrence-keyed string map accepted by [`realize`](Self::realize).
    /// Only needed to cross-check the template path against the printer.
    pub fn rename_map(&self, names: &[NameId]) -> HashMap<OccId, String> {
        assert_eq!(names.len(), self.holes.len(), "one name per hole");
        self.holes
            .iter()
            .zip(names)
            .map(|(h, &n)| (h.occ, self.names.name(n).to_string()))
            .collect()
    }

    /// Emits source with the given use-site renaming by re-walking the
    /// AST — the legacy realization path, kept as the differential oracle
    /// for the template renderer. Maps from several groups can be merged
    /// into one before calling.
    pub fn realize(&self, rename: &HashMap<OccId, String>) -> String {
        spe_minic::print_renamed(&self.program, rename)
    }

    /// Emits the original source (identity realization).
    pub fn source(&self) -> String {
        spe_minic::print_program(&self.program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_bignum::BigUint;
    use spe_combinatorics::{canonical_count, paper_count};

    fn sk(src: &str) -> Skeleton {
        Skeleton::from_source(src).expect("skeleton builds")
    }

    /// Expands a group's rename pairs into a full hole-indexed name
    /// vector (uncovered holes keep their original names).
    fn apply(s: &Skeleton, pairs: &[(u32, NameId)]) -> Vec<NameId> {
        let mut names: Vec<NameId> = s.holes().iter().map(|h| s.var_name(h.var)).collect();
        for &(h, n) in pairs {
            names[h as usize] = n;
        }
        names
    }

    #[test]
    fn figure1_single_type_group() {
        let s = sk("int main() { int a, b = 1; b = b - a; if (a) a = a - b; return 0; }");
        assert_eq!(s.num_holes(), 7);
        let units = s.units(Granularity::Intra);
        assert_eq!(units.len(), 1);
        let g = &units[0].groups[0];
        // Both variables are function-top locals -> all holes global in
        // the flat view; 2 variables.
        assert_eq!(g.flat.global_vars(), 2);
        assert_eq!(g.flat.scopes().len(), 0);
        assert!(g.flat_exact);
        // Non-α-equivalent variants: {7 1} + {7 2} = 1 + 63 = 64.
        assert_eq!(paper_count(&g.flat).to_u64(), Some(64));
    }

    #[test]
    fn figure6_flat_structure_matches_paper() {
        let s = sk(r#"
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
        "#);
        assert_eq!(s.num_holes(), 6);
        let units = s.units(Granularity::Intra);
        let g = &units[0].groups[0];
        assert_eq!(g.flat.global_vars(), 2, "a, b are function-wise");
        assert_eq!(g.flat.scopes().len(), 1);
        assert_eq!(g.flat.scopes()[0].vars, 2, "c, d local");
        assert_eq!(g.flat.scopes()[0].holes.len(), 3, "b = c + d");
        assert!(g.flat_exact);
    }

    #[test]
    fn type_groups_split_incompatible_types() {
        let s = sk("int a, b; double x, y; void f() { a = b; x = y; }");
        let units = s.units(Granularity::Intra);
        assert_eq!(units[0].groups.len(), 2);
        for g in &units[0].groups {
            assert_eq!(g.vars.len(), 2);
            assert_eq!(g.holes.len(), 2);
        }
    }

    #[test]
    fn pointers_form_their_own_group() {
        let s = sk("int a; int *p; void f() { a = *p; }");
        let units = s.units(Granularity::Intra);
        assert_eq!(units[0].groups.len(), 2);
    }

    #[test]
    fn intra_units_split_by_function() {
        let s = sk("int g; void f() { g = 1; } void h() { g = 2; }");
        let units = s.units(Granularity::Intra);
        assert_eq!(units.len(), 2);
        let inter = s.units(Granularity::Inter);
        assert_eq!(inter.len(), 1);
        assert_eq!(inter[0].groups[0].holes.len(), 2);
    }

    #[test]
    fn inter_treats_function_locals_as_scopes() {
        let s = sk("int g; void f() { int x; x = g; } void h() { int y; y = g; }");
        let inter = s.units(Granularity::Inter);
        let g = &inter[0].groups[0];
        assert_eq!(g.flat.global_vars(), 1);
        assert_eq!(g.flat.scopes().len(), 2, "each function is a scope");
        let intra = s.units(Granularity::Intra);
        assert_eq!(intra.len(), 2);
        for u in &intra {
            assert_eq!(u.groups[0].flat.scopes().len(), 0);
        }
    }

    #[test]
    fn intra_count_is_product_of_functions() {
        let s = sk("int g; void f() { g = g; } void h() { g = g; }");
        let units = s.units(Granularity::Intra);
        let product: BigUint = units
            .iter()
            .flat_map(|u| u.groups.iter())
            .map(|g| paper_count(&g.flat))
            .fold(BigUint::one(), |acc, c| &acc * &c);
        // Each function: 2 holes, 1 var -> 1 partition; product 1.
        assert_eq!(product.to_u64(), Some(1));
    }

    #[test]
    fn realization_produces_valid_programs() {
        let s = sk("int main() { int a, b = 1; b = b - a; if (a) a = a - b; return 0; }");
        let units = s.units(Granularity::Intra);
        let g = &units[0].groups[0];
        let (sols, _) = spe_combinatorics::paper_solutions(&g.flat, 1000);
        assert_eq!(sols.len(), 64);
        for sol in &sols {
            let names = apply(&s, &s.rename_for_solution(g, sol));
            let src = s.render(&names);
            let reparsed = Skeleton::from_source(&src)
                .unwrap_or_else(|e| panic!("invalid realization: {e}\n{src}"));
            assert_eq!(reparsed.num_holes(), 7);
        }
    }

    #[test]
    fn template_render_matches_legacy_realize() {
        let s = sk(r#"
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
        "#);
        assert_eq!(s.template().num_slots(), s.num_holes());
        assert_eq!(s.render(&[]), s.source(), "identity render");
        let units = s.units(Granularity::Intra);
        let g = &units[0].groups[0];
        let (sols, _) = spe_combinatorics::paper_solutions(&g.flat, 1000);
        let mut buf = String::new();
        for sol in &sols {
            let names = apply(&s, &s.rename_for_solution(g, sol));
            s.render_into(&names, &mut buf);
            assert_eq!(buf, s.realize(&s.rename_map(&names)), "template drifted");
        }
    }

    #[test]
    fn realizations_are_distinct() {
        let s = sk("int main() { int a, b = 1; b = b - a; if (a) a = a - b; return 0; }");
        let units = s.units(Granularity::Intra);
        let g = &units[0].groups[0];
        let (sols, _) = spe_combinatorics::paper_solutions(&g.flat, 1000);
        let mut seen = std::collections::HashSet::new();
        for sol in &sols {
            let src = s.render(&apply(&s, &s.rename_for_solution(g, sol)));
            assert!(seen.insert(src.clone()), "duplicate realization:\n{src}");
        }
    }

    #[test]
    fn canonical_realization_respects_scoping() {
        let s = sk(r#"
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
        "#);
        let units = s.units(Granularity::Intra);
        let g = &units[0].groups[0];
        let (rgss, _) = spe_combinatorics::canonical_solutions(&g.general, 100_000);
        assert_eq!(BigUint::from(rgss.len()), canonical_count(&g.general));
        for rgs in &rgss {
            let rename = s.rename_for_rgs(g, rgs).expect("valid partition");
            let src = s.render(&apply(&s, &rename));
            Skeleton::from_source(&src).unwrap_or_else(|e| panic!("scoping violated: {e}\n{src}"));
        }
    }

    #[test]
    fn declaration_order_reduces_allowed_sets() {
        let s = sk("void f() { int a; a = 1; int b; b = a; }");
        // Hole 0 (a = 1) can only be `a`; holes of `b = a` can be both.
        assert_eq!(s.holes()[0].allowed.len(), 1);
        assert_eq!(s.holes()[1].allowed.len(), 2);
        let units = s.units(Granularity::Intra);
        let g = &units[0].groups[0];
        assert!(
            !g.flat_exact,
            "declaration order makes the flat view approximate"
        );
    }

    #[test]
    fn stats_match_structure() {
        let s = sk(r#"
            int g;
            double d;
            void f(int p) {
                int x;
                if (p) {
                    int y = x;
                    g = y + p;
                }
            }
        "#);
        let st = s.stats();
        assert_eq!(st.funcs, 1);
        assert_eq!(st.types, 2);
        assert_eq!(st.holes, 5); // p (cond), x (init of y), g, y, p
        assert!(st.scopes >= 3); // global, function, if-block
        assert!(st.vars_per_hole > 1.0);
    }

    #[test]
    fn global_initializer_holes_have_no_function() {
        let s = sk("int a = 0; int *p = &a; int main() { return 0; }");
        assert_eq!(s.holes().len(), 1);
        assert_eq!(s.holes()[0].func, None);
        let units = s.units(Granularity::Intra);
        assert!(units.iter().any(|u| u.func.is_none()));
    }

    #[test]
    fn unconstrained_detection_and_space_size() {
        // Figure 1: both variables function-top — unconstrained, Bell
        // regime, closed-form size.
        let s = sk("int main() { int a, b = 1; b = b - a; if (a) a = a - b; return 0; }");
        let units = s.units(Granularity::Intra);
        let g = &units[0].groups[0];
        assert!(g.is_unconstrained());
        assert_eq!(
            g.canonical_space_size(usize::MAX),
            Some(spe_combinatorics::partitions_at_most(7, 2))
        );
        // Unconstrained groups never consult the DP, so any state budget
        // answers.
        assert!(g.canonical_space_size(0).is_some());
        // Declaration order constrains the first hole — DP-sized.
        let s = sk("void f() { int a; a = 1; int b; b = a; }");
        let units = s.units(Granularity::Intra);
        let g = &units[0].groups[0];
        assert!(!g.is_unconstrained());
        assert_eq!(
            g.canonical_space_size(usize::MAX),
            Some(canonical_count(&g.general))
        );
        // A starved state budget reports "too stateful to count".
        assert_eq!(g.canonical_space_size(0), None);
    }

    #[test]
    fn while_figure5_skeleton() {
        let w =
            WhileSkeleton::from_source("a := 10; b := 1; while a do a := a - b").expect("parses");
        assert_eq!(w.num_holes(), 6);
        assert_eq!(w.variables().len(), 2);
        // Paper: 2^6 = 64 naive, {6 1} + {6 2} = 32 non-α-equivalent.
        assert_eq!(w.instance().naive_count().to_u64(), Some(64));
        assert_eq!(paper_count(w.instance()).to_u64(), Some(32));
    }
}
