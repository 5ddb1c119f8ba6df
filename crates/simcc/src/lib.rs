//! `simcc` — the simulated optimizing C compiler under test.
//!
//! The SPE paper's evaluation differential-tests GCC and Clang. This crate
//! is the workspace's stand-in (see `DESIGN.md` §3): a complete
//! mini-C toolchain with
//!
//! * a strict **reference interpreter** with UB detection ([`interp`],
//!   playing CompCert's oracle role),
//! * an **optimizing pipeline** (constant folding, constant propagation,
//!   DCE, alias-based reordering, loop clean-up; [`passes`]),
//! * a **bytecode backend and VM** ([`vm`]),
//! * per-pass **coverage accounting** ([`coverage`]), and
//! * a registry of **seeded defects** with bug-report metadata
//!   ([`bugs`]), gated by compiler family and version, so one campaign
//!   reproduces both the stable-release and the trunk experiments.
//!
//! # Quick start
//!
//! ```
//! use spe_simcc::{Compiler, CompilerId};
//!
//! let cc = Compiler::new(CompilerId::gcc(485), 2); // "gcc-sim 4.8.5 -O2"
//! let prog = spe_minic::parse("int main() { return 2 + 3; }")?;
//! let compiled = cc.compile(&prog)?;
//! let out = compiled.execute(100_000)?;
//! assert_eq!(out.exit_code, 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The differential oracle itself is pluggable: [`backend`] abstracts
//! [`Compiler::observe`] behind the [`backend::CompilerBackend`] trait,
//! so campaigns can drive this in-process simulator or external compiler
//! binaries (the `spe-subproc` crate) through one interface.

#![warn(missing_docs)]

pub mod backend;
pub mod bugs;
pub mod coverage;
pub mod incremental;
pub mod interp;
pub mod passes;
pub mod vm;

use bugs::{registry, BugKind, BugSpec};
use coverage::Coverage;
use spe_minic::ast::Program;
use std::fmt;

pub(crate) use passes::const_arith as passes_const_arith;

/// Identity of a compiler under test: family plus version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompilerId {
    /// `"gcc-sim"` or `"clang-sim"`.
    pub family: &'static str,
    /// Version number (e.g. 485 = 4.8.5, 700 = trunk).
    pub version: u32,
}

impl CompilerId {
    /// A gcc-sim of the given version.
    pub fn gcc(version: u32) -> CompilerId {
        CompilerId {
            family: "gcc-sim",
            version,
        }
    }

    /// A clang-sim of the given version.
    pub fn clang(version: u32) -> CompilerId {
        CompilerId {
            family: "clang-sim",
            version,
        }
    }
}

impl fmt::Display for CompilerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (v{})", self.family, self.version)
    }
}

/// An internal compiler error: the observable form of a crash bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ice {
    /// Registry id of the seeded defect.
    pub bug_id: &'static str,
    /// Crash signature (what the harness deduplicates on).
    pub signature: &'static str,
    /// Pass that crashed.
    pub pass: &'static str,
}

impl fmt::Display for Ice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.signature)
    }
}

impl std::error::Error for Ice {}

/// Compilation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The compiler crashed (a seeded crash defect fired).
    Ice(Ice),
    /// The program uses constructs outside the lowerable subset.
    Unsupported(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Ice(i) => write!(f, "{i}"),
            CompileError::Unsupported(w) => write!(f, "unsupported: {w}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// A successful compilation.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The executable image.
    pub image: vm::Image,
    /// Coverage recorded during compilation.
    pub coverage: Coverage,
    /// Ids of wrong-code defects whose rewrite applied (ground truth for
    /// triage tests; the harness discovers miscompiles differentially).
    pub miscompiled_by: Vec<&'static str>,
    /// Ids of performance defects that fired.
    pub slow_compile_bugs: Vec<&'static str>,
}

impl Compiled {
    /// Runs the image.
    ///
    /// # Errors
    ///
    /// Returns a [`vm::Trap`] on runtime faults.
    pub fn execute(&self, fuel: u64) -> Result<vm::VmExecution, vm::Trap> {
        vm::execute(&self.image, fuel)
    }
}

/// The compiler under test: a [`CompilerId`] plus optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Compiler {
    id: CompilerId,
    opt: u8,
}

impl Compiler {
    /// Creates a compiler instance.
    ///
    /// # Panics
    ///
    /// Panics if `opt > 3`.
    pub fn new(id: CompilerId, opt: u8) -> Compiler {
        assert!(opt <= 3, "optimization levels are 0..=3");
        Compiler { id, opt }
    }

    /// The compiler's identity.
    pub fn id(&self) -> CompilerId {
        self.id
    }

    /// The optimization level.
    pub fn opt(&self) -> u8 {
        self.opt
    }

    /// The seeded defects live in this compiler at this optimization
    /// level.
    pub fn live_bugs(&self) -> Vec<BugSpec> {
        registry()
            .into_iter()
            .filter(|b| {
                b.compiler == self.id.family && b.live_in(self.id.version) && b.fires_at(self.opt)
            })
            .collect()
    }

    /// Compiles a program: structural bug diagnosis, optimization
    /// pipeline, lowering.
    ///
    /// # Errors
    ///
    /// [`CompileError::Ice`] when a seeded crash defect triggers;
    /// [`CompileError::Unsupported`] for non-lowerable constructs.
    pub fn compile(&self, p: &Program) -> Result<Compiled, CompileError> {
        let live = self.live_bugs();
        // One structural scan answers every live trigger (previously
        // each trigger re-walked the whole AST).
        let facts = bugs::scan_facts(p);
        let triggered: Vec<&BugSpec> = live
            .iter()
            .filter(|b| facts.matches(b.trigger))
            .collect();
        if let Some(crash) = triggered.iter().find_map(|b| match b.kind {
            BugKind::Crash(sig) => Some(Ice {
                bug_id: b.id,
                signature: sig,
                pass: b.pass,
            }),
            _ => None,
        }) {
            return Err(CompileError::Ice(crash));
        }
        let slow_compile_bugs: Vec<&'static str> = triggered
            .iter()
            .filter(|b| matches!(b.kind, BugKind::Performance))
            .map(|b| b.id)
            .collect();
        let wrong_code: Vec<&BugSpec> = triggered
            .iter()
            .copied()
            .filter(|b| matches!(b.kind, BugKind::WrongCode))
            .collect();

        let mut coverage = Coverage::new();
        let mut ctx = passes::PassCtx {
            opt: self.opt,
            wrong_code,
            coverage: &mut coverage,
            miscompiled_by: Vec::new(),
        };
        let image = optimize_and_lower(p, &mut ctx).map_err(|e| CompileError::Unsupported(e.0))?;
        let miscompiled_by = ctx.miscompiled_by;
        Ok(Compiled {
            image,
            coverage,
            miscompiled_by,
            slow_compile_bugs,
        })
    }
}

/// The pipeline [`Compiler::compile`] and [`coverage_probe`] share:
/// structural coverage, the optimization passes, lowering, then the
/// back end's size-bucket coverage. `ctx.coverage` keeps the points hit
/// before a lowering failure.
fn optimize_and_lower(
    p: &Program,
    ctx: &mut passes::PassCtx<'_>,
) -> Result<vm::Image, vm::LowerError> {
    structural_coverage(p, ctx.coverage);
    let optimized = passes::optimize(p, ctx);
    let coverage = &mut *ctx.coverage;
    coverage.hit("lower", 0);
    let image = vm::lower(&optimized)?;
    coverage.hit("regalloc", 0);
    coverage.hit("emit", 0);
    // Backend coverage scales with code-size buckets.
    let size_bucket = (image.instrs.len() / 16).min(5) as u32;
    coverage.hit("lower", 1 + size_bucket);
    coverage.hit("regalloc", 1 + size_bucket.min(6));
    coverage.hit("emit", 1 + size_bucket.min(4));
    Ok(image)
}

/// The bug-relevant outcome of compiling (and, differentially, running)
/// one program under one compiler configuration.
///
/// This is the oracle entry point shared by the campaign harness and the
/// `spe-reduce` test-case reducer: "does this program still reproduce the
/// same kind of defect with the same bug id?" is answered entirely from
/// one `Observation` (see `spe_harness::reduction`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Observation {
    /// The internal compiler error, when a seeded crash defect fired.
    pub ice: Option<Ice>,
    /// The program fell outside the lowerable subset (no verdict).
    pub unsupported: bool,
    /// Wrong-code defects whose rewrite applied during optimization.
    pub miscompiled_by: Vec<&'static str>,
    /// Performance defects that fired (compilation still succeeded).
    pub slow_compile: Vec<&'static str>,
    /// The reference interpreter hit undefined behaviour or ran out of
    /// fuel, so the differential verdict is vacuous (§5.4's skip rule).
    pub reference_ub: bool,
    /// Differential mismatch against the reference on a UB-free input
    /// (exit code, output, or a runtime trap of the compiled image).
    pub wrong_code: bool,
    /// How the compiled image diverged when [`Observation::wrong_code`]
    /// is set (`None` otherwise) — the observable divergence class the
    /// harness's trigger-aware duplicate folding keys on.
    pub divergence: Option<Divergence>,
}

/// The observable way a compiled image disagreed with the UB-free
/// reference execution. Classes are checked in this order; the first
/// difference wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Divergence {
    /// Different exit code.
    ExitCode,
    /// Same exit code, different program output.
    Output,
    /// The compiled image trapped (or ran out of fuel) where the
    /// reference did not.
    Trap,
}

impl Divergence {
    /// Stable label, used in trigger signatures.
    pub fn label(self) -> &'static str {
        match self {
            Divergence::ExitCode => "exit-code",
            Divergence::Output => "output",
            Divergence::Trap => "trap",
        }
    }
}

/// The reference-interpreter limits the campaign harness and the
/// reduction oracle share: `fuel` interpreter steps, call depth 64.
pub fn reference_limits(fuel: u64) -> interp::Limits {
    interp::Limits {
        fuel,
        max_depth: 64,
    }
}

/// Differential verdict on a VM image: *how* running `image` (with the
/// campaign's `4 * fuel` VM allowance) disagreed with the UB-free
/// reference execution `expected` — by exit code, output, or a runtime
/// trap — or `None` when the executions agree. The incremental oracle
/// calls it on the images it memoizes per pass-pipeline key.
pub fn divergence_from_image(
    image: &vm::Image,
    expected: &interp::Execution,
    fuel: u64,
) -> Option<Divergence> {
    match vm::execute(image, fuel * 4) {
        Ok(run) if run.exit_code != expected.exit_code => Some(Divergence::ExitCode),
        Ok(run) if run.output != expected.output => Some(Divergence::Output),
        Ok(_) => None,
        Err(_) => Some(Divergence::Trap),
    }
}

impl Compiler {
    /// Observes what this configuration does on `p`.
    ///
    /// With `wrong_code_fuel: Some(fuel)` and a successful compile, the
    /// UB-checking reference interpreter runs with `fuel` (and the
    /// compiled image with `4 * fuel`, mirroring the campaign harness) to
    /// fill the differential fields; with `None` only the compile-time
    /// fields are observed — the cheap mode for crash and performance
    /// oracles.
    pub fn observe(&self, p: &Program, wrong_code_fuel: Option<u64>) -> Observation {
        observe_each(p, std::slice::from_ref(self), wrong_code_fuel)
            .pop()
            .expect("one observation per configuration")
    }
}

/// Observes `p` under every configuration of `compilers`, in order: the
/// one observation loop behind [`Compiler::observe`] and
/// [`backend::SimccBackend`]. The reference interpreter runs at most
/// once, at the first successful compile that needs it, so every
/// configuration is compared against the same execution.
pub(crate) fn observe_each(
    p: &Program,
    compilers: &[Compiler],
    wrong_code_fuel: Option<u64>,
) -> Vec<Observation> {
    let mut reference = None;
    compilers
        .iter()
        .map(|cc| match cc.compile(p) {
            Err(CompileError::Ice(ice)) => Observation {
                ice: Some(ice),
                ..Observation::default()
            },
            Err(CompileError::Unsupported(_)) => Observation {
                unsupported: true,
                ..Observation::default()
            },
            Ok(Compiled {
                image,
                miscompiled_by,
                slow_compile_bugs,
                ..
            }) => {
                let mut obs = Observation {
                    miscompiled_by,
                    slow_compile: slow_compile_bugs,
                    ..Observation::default()
                };
                if let Some(fuel) = wrong_code_fuel {
                    match reference.get_or_insert_with(|| interp::run(p, reference_limits(fuel))) {
                        Err(_) => obs.reference_ub = true,
                        Ok(expected) => {
                            obs.divergence = divergence_from_image(&image, expected, fuel);
                            obs.wrong_code = obs.divergence.is_some();
                        }
                    }
                }
                obs
            }
        })
        .collect()
}

/// Compiles only for coverage: runs the full pipeline with every seeded
/// defect disabled and reports the coverage even if lowering fails.
/// Used by the Figure 9 coverage experiments.
pub fn coverage_probe(p: &Program, opt: u8) -> Coverage {
    let mut coverage = Coverage::new();
    let _ = optimize_and_lower(
        p,
        &mut passes::PassCtx {
            opt,
            wrong_code: Vec::new(),
            coverage: &mut coverage,
            miscompiled_by: Vec::new(),
        },
    );
    coverage
}

/// Records frontend coverage points keyed by which constructs appear.
fn structural_coverage(p: &Program, cov: &mut Coverage) {
    use spe_minic::ast::{ExprKind, Item, Stmt};
    cov.hit("parse", 0);
    cov.hit("sema", 0);
    pattern_coverage(p, cov);
    fn stmt(s: &Stmt, cov: &mut Coverage) {
        match s {
            Stmt::If(..) => cov.hit("parse", 1),
            Stmt::While(..) => cov.hit("parse", 2),
            Stmt::For(..) => cov.hit("parse", 3),
            Stmt::DoWhile(..) => cov.hit("parse", 4),
            Stmt::Goto(_) => cov.hit("parse", 5),
            Stmt::Label(..) => cov.hit("parse", 6),
            Stmt::Return(_) => cov.hit("parse", 7),
            Stmt::Decl(_) => cov.hit("sema", 1),
            Stmt::Block(_) => cov.hit("sema", 2),
            _ => {}
        }
        match s {
            Stmt::Block(b) => b.iter().for_each(|s| stmt(s, cov)),
            Stmt::If(c, t, e) => {
                expr(c, cov);
                stmt(t, cov);
                if let Some(e) = e {
                    stmt(e, cov);
                }
            }
            Stmt::While(c, b) | Stmt::DoWhile(b, c) => {
                expr(c, cov);
                stmt(b, cov);
            }
            Stmt::For(_, c, st, b) => {
                if let Some(c) = c {
                    expr(c, cov);
                }
                if let Some(st) = st {
                    expr(st, cov);
                }
                stmt(b, cov);
            }
            Stmt::Expr(e) => expr(e, cov),
            Stmt::Return(Some(e)) => expr(e, cov),
            Stmt::Label(_, inner) => stmt(inner, cov),
            _ => {}
        }
    }
    fn expr(e: &spe_minic::ast::Expr, cov: &mut Coverage) {
        match &e.kind {
            ExprKind::Ternary(..) => cov.hit("parse", 8),
            ExprKind::Call(..) => cov.hit("parse", 9),
            ExprKind::Index(..) => cov.hit("parse", 10),
            ExprKind::Unary(spe_minic::ast::UnaryOp::Deref | spe_minic::ast::UnaryOp::Addr, _) => {
                cov.hit("parse", 11)
            }
            ExprKind::Assign(_, lhs, rhs) => {
                cov.hit("sema", 3);
                // Dependence shape: does the target feed itself?
                if let ExprKind::Ident(l) = &lhs.kind {
                    let mut self_dep = false;
                    let mut reads = 0u32;
                    rhs.for_each_ident(&mut |id| {
                        reads += 1;
                        if id.name == l.name {
                            self_dep = true;
                        }
                    });
                    cov.hit("sema", if self_dep { 8 } else { 9 });
                    cov.hit("sema", 10 + reads.min(5));
                }
            }
            ExprKind::Binary(op, a, b) => {
                cov.hit("sema", 4);
                // Operand shape: same variable on both sides exercises
                // the compiler's operand-equality paths.
                if let (ExprKind::Ident(x), ExprKind::Ident(y)) = (&a.kind, &b.kind) {
                    cov.hit("sema", if x.name == y.name { 16 } else { 17 });
                    let _ = op;
                }
            }
            _ => {}
        }
        match &e.kind {
            ExprKind::Unary(_, a) | ExprKind::Post(_, a) | ExprKind::Cast(_, a) => expr(a, cov),
            ExprKind::Binary(_, a, b)
            | ExprKind::Assign(_, a, b)
            | ExprKind::Index(a, b)
            | ExprKind::Comma(a, b) => {
                expr(a, cov);
                expr(b, cov);
            }
            ExprKind::Ternary(c, t, e2) => {
                expr(c, cov);
                expr(t, cov);
                expr(e2, cov);
            }
            ExprKind::Call(_, args) => args.iter().for_each(|a| expr(a, cov)),
            ExprKind::Member(a, _, _) => expr(a, cov),
            _ => {}
        }
    }
    for item in &p.items {
        match item {
            Item::Func(f) => {
                cov.hit("sema", 5);
                f.body.iter().for_each(|s| stmt(s, cov));
            }
            Item::Global(_) => cov.hit("sema", 6),
            Item::Struct(_) => cov.hit("sema", 7),
        }
    }
}

/// One coverage point per distinct variable-usage pattern of each
/// statement: the canonical form is the statement's operator skeleton
/// plus the restricted-growth encoding of its variable occurrences
/// (which holes share a variable), hashed into the "gimple" point space.
fn pattern_coverage(p: &Program, cov: &mut Coverage) {
    use spe_minic::ast::{Expr, Item, Stmt};
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn op_skeleton(e: &Expr, out: &mut String) {
        use spe_minic::ast::ExprKind as K;
        match &e.kind {
            K::IntLit(_) => out.push('n'),
            K::CharLit(_) => out.push('c'),
            K::StrLit(_) => out.push('s'),
            K::Ident(_) => out.push('v'),
            K::Unary(op, a) => {
                out.push('u');
                out.push_str(op.as_str());
                op_skeleton(a, out);
            }
            K::Post(op, a) => {
                out.push('p');
                out.push_str(op.as_str());
                op_skeleton(a, out);
            }
            K::Binary(op, a, b) => {
                out.push('b');
                out.push_str(op.as_str());
                op_skeleton(a, out);
                op_skeleton(b, out);
            }
            K::Assign(op, a, b) => {
                out.push('=');
                out.push_str(op.as_str());
                op_skeleton(a, out);
                op_skeleton(b, out);
            }
            K::Ternary(c, t, e2) => {
                out.push('?');
                op_skeleton(c, out);
                op_skeleton(t, out);
                op_skeleton(e2, out);
            }
            K::Call(name, args) => {
                out.push('(');
                out.push_str(name);
                for a in args {
                    op_skeleton(a, out);
                }
            }
            K::Index(a, i) => {
                out.push('[');
                op_skeleton(a, out);
                op_skeleton(i, out);
            }
            K::Member(a, f, _) => {
                out.push('.');
                out.push_str(f);
                op_skeleton(a, out);
            }
            K::Cast(_, a) => {
                out.push('t');
                op_skeleton(a, out);
            }
            K::Comma(a, b) => {
                out.push(',');
                op_skeleton(a, out);
                op_skeleton(b, out);
            }
        }
    }

    fn stmt_patterns(s: &Stmt, cov: &mut Coverage) {
        let mut exprs: Vec<&Expr> = Vec::new();
        match s {
            Stmt::Expr(e) | Stmt::Return(Some(e)) => exprs.push(e),
            Stmt::If(c, t, e2) => {
                exprs.push(c);
                stmt_patterns(t, cov);
                if let Some(e2) = e2 {
                    stmt_patterns(e2, cov);
                }
            }
            Stmt::While(c, b) | Stmt::DoWhile(b, c) => {
                exprs.push(c);
                stmt_patterns(b, cov);
            }
            Stmt::For(_, c, st, b) => {
                if let Some(c) = c {
                    exprs.push(c);
                }
                if let Some(st) = st {
                    exprs.push(st);
                }
                stmt_patterns(b, cov);
            }
            Stmt::Block(b) => b.iter().for_each(|s| stmt_patterns(s, cov)),
            Stmt::Label(_, inner) => stmt_patterns(inner, cov),
            Stmt::Decl(ds) => {
                for d in ds {
                    if let Some(i) = &d.init {
                        exprs.push(i);
                    }
                }
            }
            _ => {}
        }
        for e in exprs {
            let mut skeleton = String::new();
            op_skeleton(e, &mut skeleton);
            // RGS of the expression's variable occurrences: the usage
            // partition SPE enumerates.
            let mut labels: Vec<usize> = Vec::new();
            let mut order: Vec<String> = Vec::new();
            e.for_each_ident(&mut |id| {
                let idx = match order.iter().position(|n| *n == id.name) {
                    Some(i) => i,
                    None => {
                        order.push(id.name.clone());
                        order.len() - 1
                    }
                };
                labels.push(idx);
            });
            let mut h = DefaultHasher::new();
            skeleton.hash(&mut h);
            labels.hash(&mut h);
            cov.hit("gimple", (h.finish() % 4096) as u32);
        }
    }

    for item in &p.items {
        if let Item::Func(f) = item {
            f.body.iter().for_each(|s| stmt_patterns(s, cov));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_minic::parse;

    #[test]
    fn clean_compile_and_run() {
        let cc = Compiler::new(CompilerId::gcc(485), 2);
        let p = parse("int main() { int a = 6, b = 7; return a * b; }").expect("parses");
        let c = cc.compile(&p).expect("compiles");
        assert_eq!(c.execute(100_000).expect("runs").exit_code, 42);
        assert!(c.miscompiled_by.is_empty());
    }

    #[test]
    fn figure3_crashes_trunk_gcc_at_all_levels() {
        let src =
            "int d, e, b, c; int main(void) { e ? (d==0 ? b : c) : (d==0 ? b : c); return 0; }";
        let p = parse(src).expect("parses");
        for opt in 0..=3 {
            let cc = Compiler::new(CompilerId::gcc(700), opt);
            match cc.compile(&p) {
                Err(CompileError::Ice(ice)) => {
                    assert_eq!(ice.bug_id, "gcc-69801");
                    assert!(ice.signature.contains("operand_equal_p"));
                }
                other => panic!("expected ICE at -O{opt}, got {other:?}"),
            }
        }
        // The stable 4.8.5 release predates the defect (at -O1, where
        // the 4-distinct-variables register-allocator bug does not fire).
        let stable = Compiler::new(CompilerId::gcc(485), 1);
        assert!(stable.compile(&p).is_ok());
    }

    #[test]
    fn figure2_miscompiles_with_alias_bug() {
        let src = "int a = 0; int main() { int *p = &a, *q = &a; *p = 1; *q = 2; return a; }";
        let p = parse(src).expect("parses");
        let reference = interp::run(&p, interp::Limits::default()).expect("UB-free");
        assert_eq!(reference.exit_code, 2);
        // Buggy gcc-sim at -O1+ returns 1 instead — the Figure 2 report.
        let cc = Compiler::new(CompilerId::gcc(485), 2);
        let compiled = cc.compile(&p).expect("compiles");
        assert_eq!(compiled.miscompiled_by, vec!["gcc-69951"]);
        let out = compiled.execute(100_000).expect("runs");
        assert_eq!(out.exit_code, 1, "miscompiled exit code");
    }

    #[test]
    fn version_gating_controls_bugs() {
        let src = "int x, y, z, w, v; int main() { v = x + y * z - w + v; return 0; }";
        let p = parse(src).expect("parses");
        // gcc-lra-1281 (DistinctVars(4), opt>=2) lives in [485, 600).
        assert!(matches!(
            Compiler::new(CompilerId::gcc(485), 2).compile(&p),
            Err(CompileError::Ice(ice)) if ice.bug_id == "gcc-lra-1281"
        ));
        assert!(Compiler::new(CompilerId::gcc(485), 1).compile(&p).is_ok());
        assert!(Compiler::new(CompilerId::gcc(440), 2).compile(&p).is_ok());
        // The same program has 5 distinct vars, tripping clang-distinct5.
        assert!(matches!(
            Compiler::new(CompilerId::clang(390), 2).compile(&p),
            Err(CompileError::Ice(ice)) if ice.bug_id == "clang-distinct5"
        ));
    }

    #[test]
    fn optimized_output_matches_reference_when_no_bugs() {
        let srcs = [
            "int main() { int a = 3, b = 4; if (a < b) a = b; return a; }",
            "int g = 2; int main() { int s = 0; for (int i = 0; i < 4; i++) s += g; return s; }",
            "int f(int n) { return n * 2; } int main() { return f(f(5)); }",
        ];
        let cc = Compiler::new(CompilerId::gcc(440), 3);
        for src in srcs {
            let p = parse(src).expect("parses");
            let reference = interp::run(&p, interp::Limits::default()).expect("UB-free");
            let compiled = cc.compile(&p).expect("compiles");
            assert!(compiled.miscompiled_by.is_empty(), "{src}");
            let out = compiled.execute(1_000_000).expect("runs");
            assert_eq!(reference.exit_code, out.exit_code, "{src}");
        }
    }

    /// A declaration initializer or assignment right-hand side that
    /// stores to a propagated global (by a call, an assignment or an
    /// increment) must not leave the old constant behind for later reads.
    #[test]
    fn clean_ccp_respects_writes_in_initializers_and_right_hand_sides() {
        let cc = Compiler::new(CompilerId::gcc(485), 2);
        for (rhs, exit_code) in [("f()", 5), ("(g = 3)", 3), ("g++", 2)] {
            for stmt in [format!("int a = {rhs};"), format!("int a; a = {rhs};")] {
                let src = format!(
                    "int g; int f() {{ g = 5; return 0; }} int main() {{ g = 1; {stmt} return g; }}"
                );
                let p = parse(&src).expect("parses");
                assert_eq!(
                    cc.observe(&p, Some(50_000)),
                    Observation::default(),
                    "{src}"
                );
                let out = cc.compile(&p).expect("compiles").execute(100_000);
                assert_eq!(out.expect("runs").exit_code, exit_code, "{src}");
            }
        }
    }

    #[test]
    fn performance_bugs_are_reported_not_fatal() {
        // Expression nesting depth >= 8 triggers gcc-deep-expr.
        let src = "int a; int main() { a = ((((((((a + 1) + 2) + 3) + 4) + 5) + 6) + 7) + 8); return 0; }";
        let p = parse(src).expect("parses");
        let cc = Compiler::new(CompilerId::gcc(485), 1);
        let c = cc.compile(&p).expect("compiles despite slowness");
        assert!(c.slow_compile_bugs.contains(&"gcc-deep-expr"));
    }

    #[test]
    fn struct_frontend_ice() {
        let src = "struct s { int x; }; int main() { return 0; }";
        let p = parse(src).expect("parses");
        match Compiler::new(CompilerId::gcc(485), 0).compile(&p) {
            Err(CompileError::Ice(ice)) => assert_eq!(ice.bug_id, "gcc-struct-fe"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn observe_matches_compile_and_differential_run() {
        // Crash observation (no fuel needed).
        let fig3 =
            parse("int d, e, b, c; int main(void) { e ? (d==0 ? b : c) : (d==0 ? b : c); return 0; }")
                .expect("parses");
        let obs = Compiler::new(CompilerId::gcc(700), 2).observe(&fig3, None);
        assert_eq!(obs.ice.as_ref().map(|i| i.bug_id), Some("gcc-69801"));
        assert!(!obs.wrong_code);

        // Differential observation reproduces the Figure 2 miscompile.
        let fig2 =
            parse("int a = 0; int main() { int *p = &a, *q = &a; *p = 1; *q = 2; return a; }")
                .expect("parses");
        let obs = Compiler::new(CompilerId::gcc(485), 2).observe(&fig2, Some(50_000));
        assert!(obs.ice.is_none());
        assert!(obs.wrong_code, "exit code mismatch observed");
        assert!(obs.miscompiled_by.contains(&"gcc-69951"));

        // Compile-only mode leaves the differential fields untouched.
        let obs = Compiler::new(CompilerId::gcc(485), 2).observe(&fig2, None);
        assert!(!obs.wrong_code && !obs.reference_ub);

        // UB variants are marked vacuous, not wrong.
        let ub = parse("int main() { int a = 0, b = 4; b = b / a; return b; }").expect("parses");
        let obs = Compiler::new(CompilerId::gcc(440), 1).observe(&ub, Some(10_000));
        assert!(obs.reference_ub);
        assert!(!obs.wrong_code);
    }

    #[test]
    fn coverage_reported_per_compilation() {
        let cc = Compiler::new(CompilerId::gcc(440), 3);
        let p1 = parse("int main() { return 0; }").expect("parses");
        let p2 = parse(
            "int g; int main() { int *p = &g; for (int i = 0; i < 3; i++) *p += i ? 1 : 2; return g; }",
        )
        .expect("parses");
        let c1 = cc.compile(&p1).expect("compiles");
        let c2 = cc.compile(&p2).expect("compiles");
        assert!(
            c2.coverage.points_hit() > c1.coverage.points_hit(),
            "richer programs cover more of the compiler"
        );
    }
}
