//! Differential test of `spe_simcc::passes::optimize`, whose passes
//! rewrite one owned copy of the program in place (and borrow it at
//! -O0), against a test-only copy of the earlier implementation, in
//! which every pass rebuilt the whole program and cloned each subtree it
//! did not touch.
//!
//! The copy carries the two ccp soundness fixes (a write in a declaration
//! initializer or in an assignment's right-hand side ends propagation),
//! so the test isolates the ownership change. Both pipelines must return
//! the same `Program` (expression ids included), the same
//! `miscompiled_by` (order included) and the same `Coverage`. They are
//! compared on Table-3 corpus variants at -O0..3, with no defect, each
//! wrong-code defect alone and all five together, and on targeted
//! programs that reach every rewrite.

use spe::core::{Algorithm, Enumerator, EnumeratorConfig, Granularity, Skeleton};
use spe::corpus::{generate, seeds, CorpusConfig};
use spe::minic::ast::Program;
use spe::simcc::bugs::{registry, BugSpec};
use spe::simcc::coverage::Coverage;
use spe::simcc::passes::{optimize, PassCtx};
use std::borrow::Cow;
use std::ops::ControlFlow;

/// The rebuilding pass pipeline, copied from before the in-place rewrite
/// (plus the two ccp fixes).
mod rebuilding {
    use spe::minic::ast::*;
    use spe::simcc::bugs::{exprs_equal, Trigger};
    use spe::simcc::passes::PassCtx;
    use std::collections::{HashMap, HashSet};

    trait BugActive {
        fn bug_active(&self, trigger: Trigger) -> Option<&'static str>;
    }

    impl BugActive for PassCtx<'_> {
        fn bug_active(&self, trigger: Trigger) -> Option<&'static str> {
            self.wrong_code
                .iter()
                .find(|b| b.trigger == trigger)
                .map(|b| b.id)
        }
    }

    /// Runs the optimization pipeline for the configured level, returning the
    /// transformed program.
    pub fn optimize(p: &Program, ctx: &mut PassCtx<'_>) -> Program {
        if ctx.opt == 0 {
            return p.clone();
        }
        let mut prog = fold_pass(p, ctx);
        prog = dce_pass(&prog, ctx);
        if ctx.opt >= 2 {
            prog = ccp_pass(&prog, ctx);
            prog = alias_pass(&prog, ctx);
        }
        if ctx.opt >= 3 {
            prog = loop_pass(&prog, ctx);
        }
        prog
    }

    /// Rebuilds `p` with every function body replaced by `body(function)`;
    /// only the other function fields are cloned.
    fn map_functions(p: &Program, mut body: impl FnMut(&Function) -> Vec<Stmt>) -> Program {
        Program {
            items: p
                .items
                .iter()
                .map(|i| match i {
                    Item::Func(f) => Item::Func(Function {
                        name: f.name.clone(),
                        ret: f.ret.clone(),
                        params: f.params.clone(),
                        body: body(f),
                        is_static: f.is_static,
                    }),
                    other => other.clone(),
                })
                .collect(),
            max_occ: p.max_occ,
            max_expr: p.max_expr,
        }
    }

    // ----- fold ---------------------------------------------------------------

    fn fold_pass(p: &Program, ctx: &mut PassCtx<'_>) -> Program {
        ctx.coverage.hit("fold", 0);
        map_functions(p, |f| f.body.iter().map(|s| fold_stmt(s, ctx)).collect())
    }

    fn fold_stmt(s: &Stmt, ctx: &mut PassCtx<'_>) -> Stmt {
        match s {
            Stmt::Expr(e) => Stmt::Expr(fold_expr(e, ctx)),
            Stmt::Decl(ds) => Stmt::Decl(
                ds.iter()
                    .map(|d| VarDeclarator {
                        init: d.init.as_ref().map(|i| fold_expr(i, ctx)),
                        ..d.clone()
                    })
                    .collect(),
            ),
            Stmt::Block(b) => Stmt::Block(b.iter().map(|s| fold_stmt(s, ctx)).collect()),
            Stmt::If(c, t, e) => Stmt::If(
                fold_expr(c, ctx),
                Box::new(fold_stmt(t, ctx)),
                e.as_ref().map(|e| Box::new(fold_stmt(e, ctx))),
            ),
            Stmt::While(c, b) => Stmt::While(fold_expr(c, ctx), Box::new(fold_stmt(b, ctx))),
            Stmt::DoWhile(b, c) => Stmt::DoWhile(Box::new(fold_stmt(b, ctx)), fold_expr(c, ctx)),
            Stmt::For(init, c, st, b) => Stmt::For(
                init.as_ref().map(|i| match i {
                    ForInit::Decl(ds) => ForInit::Decl(
                        ds.iter()
                            .map(|d| VarDeclarator {
                                init: d.init.as_ref().map(|i| fold_expr(i, ctx)),
                                ..d.clone()
                            })
                            .collect(),
                    ),
                    ForInit::Expr(e) => ForInit::Expr(fold_expr(e, ctx)),
                }),
                c.as_ref().map(|c| fold_expr(c, ctx)),
                st.as_ref().map(|s| fold_expr(s, ctx)),
                Box::new(fold_stmt(b, ctx)),
            ),
            Stmt::Return(e) => Stmt::Return(e.as_ref().map(|e| fold_expr(e, ctx))),
            Stmt::Label(l, inner) => Stmt::Label(l.clone(), Box::new(fold_stmt(inner, ctx))),
            other => other.clone(),
        }
    }

    fn lit(e: &Expr) -> Option<i64> {
        match e.kind {
            ExprKind::IntLit(v) => Some(v),
            ExprKind::CharLit(c) => Some(c as i64),
            _ => None,
        }
    }

    fn is_pure_var(e: &Expr) -> bool {
        matches!(e.kind, ExprKind::Ident(_))
    }

    fn fold_expr(e: &Expr, ctx: &mut PassCtx<'_>) -> Expr {
        // Variable-multiplicity buckets: enumeration rewires which variables
        // repeat inside one expression, steering the folder down different
        // canonicalization paths.
        {
            let mut names: Vec<&str> = Vec::new();
            e.for_each_ident(&mut |id| names.push(&id.name));
            if !names.is_empty() {
                let total = names.len();
                names.sort();
                names.dedup();
                let distinct = names.len();
                let max_same = total - distinct + 1;
                ctx.coverage.hit("fold", 18 + (max_same as u32).min(5));
                ctx.coverage.hit("ccp", 3 + (distinct as u32).min(8));
            }
        }
        let rebuild = |kind: ExprKind| Expr { id: e.id, kind };
        match &e.kind {
            ExprKind::Binary(op, a, b) => {
                let a = fold_expr(a, ctx);
                let b = fold_expr(b, ctx);
                if let (Some(x), Some(y)) = (lit(&a), lit(&b)) {
                    if let Some(v) = const_arith(*op, x, y) {
                        ctx.coverage.hit("fold", 1 + (op.precedence() % 8) as u32);
                        return rebuild(ExprKind::IntLit(v));
                    }
                }
                // x - x => 0 for pure operands (or 1 under the seeded
                // wrong-code defect).
                if *op == BinaryOp::Sub && is_pure_var(&a) && exprs_equal(&a, &b) {
                    ctx.coverage.hit("fold", 9);
                    if let Some(id) = ctx.bug_active(Trigger::SubSelf) {
                        ctx.miscompiled_by.push(id);
                        return rebuild(ExprKind::IntLit(1));
                    }
                    return rebuild(ExprKind::IntLit(0));
                }
                // Algebraic identities.
                match (op, lit(&a), lit(&b)) {
                    (BinaryOp::Add, Some(0), _) => {
                        ctx.coverage.hit("fold", 10);
                        return b;
                    }
                    (BinaryOp::Add, _, Some(0)) | (BinaryOp::Sub, _, Some(0)) => {
                        ctx.coverage.hit("fold", 11);
                        return a;
                    }
                    (BinaryOp::Mul, _, Some(1)) => {
                        ctx.coverage.hit("fold", 12);
                        return a;
                    }
                    (BinaryOp::Mul, Some(1), _) => {
                        ctx.coverage.hit("fold", 12);
                        return b;
                    }
                    (BinaryOp::Mul, _, Some(0)) if is_pure_var(&a) => {
                        ctx.coverage.hit("fold", 13);
                        return rebuild(ExprKind::IntLit(0));
                    }
                    (BinaryOp::Mul, Some(0), _) if is_pure_var(&b) => {
                        ctx.coverage.hit("fold", 13);
                        return rebuild(ExprKind::IntLit(0));
                    }
                    _ => {}
                }
                rebuild(ExprKind::Binary(*op, Box::new(a), Box::new(b)))
            }
            ExprKind::Unary(op, inner) => {
                let inner = fold_expr(inner, ctx);
                if let (UnaryOp::Neg, Some(v)) = (op, lit(&inner)) {
                    if let Some(n) = v.checked_neg() {
                        ctx.coverage.hit("fold", 14);
                        return rebuild(ExprKind::IntLit(n));
                    }
                }
                if let (UnaryOp::Not, Some(v)) = (op, lit(&inner)) {
                    ctx.coverage.hit("fold", 15);
                    return rebuild(ExprKind::IntLit((v == 0) as i64));
                }
                rebuild(ExprKind::Unary(*op, Box::new(inner)))
            }
            ExprKind::Ternary(c, t, els) => {
                let c = fold_expr(c, ctx);
                let t = fold_expr(t, ctx);
                let els = fold_expr(els, ctx);
                if let Some(v) = lit(&c) {
                    ctx.coverage.hit("fold", 16);
                    return if v != 0 { t } else { els };
                }
                if exprs_equal(&t, &els) {
                    // The operand_equal_p comparison site (Figure 3); the
                    // crash variant is handled before the pipeline runs.
                    ctx.coverage.hit("fold", 17);
                }
                rebuild(ExprKind::Ternary(Box::new(c), Box::new(t), Box::new(els)))
            }
            ExprKind::Assign(op, lhs, rhs) => rebuild(ExprKind::Assign(
                *op,
                lhs.clone(),
                Box::new(fold_expr(rhs, ctx)),
            )),
            ExprKind::Post(op, inner) => rebuild(ExprKind::Post(*op, inner.clone())),
            ExprKind::Call(name, args) => rebuild(ExprKind::Call(
                name.clone(),
                args.iter().map(|a| fold_expr(a, ctx)).collect(),
            )),
            ExprKind::Index(a, i) => {
                rebuild(ExprKind::Index(a.clone(), Box::new(fold_expr(i, ctx))))
            }
            ExprKind::Comma(a, b) => rebuild(ExprKind::Comma(
                Box::new(fold_expr(a, ctx)),
                Box::new(fold_expr(b, ctx)),
            )),
            ExprKind::Cast(t, inner) => {
                rebuild(ExprKind::Cast(t.clone(), Box::new(fold_expr(inner, ctx))))
            }
            _ => e.clone(),
        }
    }

    /// Compile-time arithmetic: wrapping like the target machine, `None` for
    /// division by zero (left for runtime).
    fn const_arith(op: BinaryOp, x: i64, y: i64) -> Option<i64> {
        Some(match op {
            BinaryOp::Add => x.wrapping_add(y),
            BinaryOp::Sub => x.wrapping_sub(y),
            BinaryOp::Mul => x.wrapping_mul(y),
            BinaryOp::Div => {
                if y == 0 {
                    return None;
                }
                x.wrapping_div(y)
            }
            BinaryOp::Rem => {
                if y == 0 {
                    return None;
                }
                x.wrapping_rem(y)
            }
            BinaryOp::Lt => (x < y) as i64,
            BinaryOp::Gt => (x > y) as i64,
            BinaryOp::Le => (x <= y) as i64,
            BinaryOp::Ge => (x >= y) as i64,
            BinaryOp::Eq => (x == y) as i64,
            BinaryOp::Ne => (x != y) as i64,
            BinaryOp::BitAnd => x & y,
            BinaryOp::BitOr => x | y,
            BinaryOp::BitXor => x ^ y,
            BinaryOp::Shl => {
                if !(0..64).contains(&y) {
                    return None;
                }
                x.wrapping_shl(y as u32)
            }
            BinaryOp::Shr => {
                if !(0..64).contains(&y) {
                    return None;
                }
                x.wrapping_shr(y as u32)
            }
            BinaryOp::LogAnd => ((x != 0) && (y != 0)) as i64,
            BinaryOp::LogOr => ((x != 0) || (y != 0)) as i64,
        })
    }

    // ----- dce ------------------------------------------------------------------

    fn dce_pass(p: &Program, ctx: &mut PassCtx<'_>) -> Program {
        ctx.coverage.hit("dce", 0);
        map_functions(p, |f| {
            let has_back_goto = function_has_backward_goto(&f.body);
            dce_stmts(&f.body, ctx, has_back_goto, false)
        })
    }

    fn function_has_backward_goto(body: &[Stmt]) -> bool {
        let mut labels: HashSet<String> = HashSet::new();
        let mut found = false;
        fn walk(stmts: &[Stmt], labels: &mut HashSet<String>, found: &mut bool) {
            for s in stmts {
                match s {
                    Stmt::Label(l, inner) => {
                        labels.insert(l.clone());
                        walk(std::slice::from_ref(inner), labels, found);
                    }
                    Stmt::Goto(l) if labels.contains(l) => *found = true,
                    Stmt::Block(b) => walk(b, labels, found),
                    Stmt::If(_, t, e) => {
                        walk(std::slice::from_ref(t), labels, found);
                        if let Some(e) = e {
                            walk(std::slice::from_ref(e), labels, found);
                        }
                    }
                    Stmt::While(_, b) | Stmt::DoWhile(b, _) | Stmt::For(_, _, _, b) => {
                        walk(std::slice::from_ref(b), labels, found);
                    }
                    _ => {}
                }
            }
        }
        walk(body, &mut labels, &mut found);
        found
    }

    fn dce_stmts(
        stmts: &[Stmt],
        ctx: &mut PassCtx<'_>,
        back_goto: bool,
        after_label: bool,
    ) -> Vec<Stmt> {
        let mut out = Vec::new();
        let mut seen_label = after_label;
        for s in stmts {
            if let Stmt::Label(_, _) = s {
                seen_label = true
            }
            match s {
                // `if (0)` / `if (non-zero-literal)` simplification.
                Stmt::If(c, t, e) => {
                    if let Some(v) = lit(c) {
                        ctx.coverage.hit("dce", 1);
                        if v != 0 {
                            out.push(dce_one(t, ctx, back_goto, seen_label));
                        } else if let Some(e) = e {
                            out.push(dce_one(e, ctx, back_goto, seen_label));
                        }
                        continue;
                    }
                    out.push(Stmt::If(
                        c.clone(),
                        Box::new(dce_one(t, ctx, back_goto, seen_label)),
                        e.as_ref()
                            .map(|e| Box::new(dce_one(e, ctx, back_goto, seen_label))),
                    ));
                }
                Stmt::While(c, b) => {
                    if lit(c) == Some(0) {
                        ctx.coverage.hit("dce", 2);
                        continue;
                    }
                    out.push(Stmt::While(
                        c.clone(),
                        Box::new(dce_one(b, ctx, back_goto, seen_label)),
                    ));
                }
                // Self-assignment removal: `x = x;`.
                Stmt::Expr(e)
                    if matches!(&e.kind, ExprKind::Assign(AssignOp::Assign, l, r)
                        if is_pure_var(l) && exprs_equal(l, r)) =>
                {
                    ctx.coverage.hit("dce", 3);
                }
                // The Clang 26994 lifetime defect: drop initializers of
                // declarations that follow a label in a function with a
                // backward goto.
                Stmt::Decl(ds) if back_goto && seen_label => {
                    if let Some(id) = ctx.bug_active(Trigger::DeclAfterLabelWithBackGoto) {
                        ctx.coverage.hit("dce", 4);
                        ctx.miscompiled_by.push(id);
                        out.push(Stmt::Decl(
                            ds.iter()
                                .map(|d| VarDeclarator {
                                    init: None,
                                    ..d.clone()
                                })
                                .collect(),
                        ));
                        continue;
                    }
                    out.push(s.clone());
                }
                Stmt::Block(b) => {
                    out.push(Stmt::Block(dce_stmts(b, ctx, back_goto, seen_label)));
                }
                Stmt::Label(l, inner) => {
                    out.push(Stmt::Label(
                        l.clone(),
                        Box::new(dce_one(inner, ctx, back_goto, true)),
                    ));
                }
                other => out.push(other.clone()),
            }
        }
        out
    }

    fn dce_one(s: &Stmt, ctx: &mut PassCtx<'_>, back_goto: bool, after_label: bool) -> Stmt {
        let v = dce_stmts(std::slice::from_ref(s), ctx, back_goto, after_label);
        match v.len() {
            0 => Stmt::Empty,
            1 => v.into_iter().next().expect("one statement"),
            _ => Stmt::Block(v),
        }
    }

    // ----- ccp ------------------------------------------------------------------

    fn ccp_pass(p: &Program, ctx: &mut PassCtx<'_>) -> Program {
        ctx.coverage.hit("ccp", 0);
        map_functions(p, |f| {
            let mut addressed = HashSet::new();
            collect_addressed(&f.body, &mut addressed);
            let mut consts: HashMap<String, i64> = HashMap::new();
            ccp_stmts(&f.body, &mut consts, &addressed, ctx)
        })
    }

    fn collect_addressed(stmts: &[Stmt], out: &mut HashSet<String>) {
        fn expr(e: &Expr, out: &mut HashSet<String>) {
            if let ExprKind::Unary(UnaryOp::Addr, inner) = &e.kind {
                if let ExprKind::Ident(id) = &inner.kind {
                    out.insert(id.name.clone());
                }
            }
            match &e.kind {
                ExprKind::Unary(_, a) | ExprKind::Post(_, a) | ExprKind::Cast(_, a) => expr(a, out),
                ExprKind::Binary(_, a, b)
                | ExprKind::Assign(_, a, b)
                | ExprKind::Index(a, b)
                | ExprKind::Comma(a, b) => {
                    expr(a, out);
                    expr(b, out);
                }
                ExprKind::Ternary(c, t, e2) => {
                    expr(c, out);
                    expr(t, out);
                    expr(e2, out);
                }
                ExprKind::Call(_, args) => args.iter().for_each(|a| expr(a, out)),
                ExprKind::Member(a, _, _) => expr(a, out),
                _ => {}
            }
        }
        for s in stmts {
            match s {
                Stmt::Expr(e) => expr(e, out),
                Stmt::Decl(ds) => {
                    for d in ds {
                        if let Some(i) = &d.init {
                            expr(i, out);
                        }
                    }
                }
                Stmt::Block(b) => collect_addressed(b, out),
                Stmt::If(c, t, e) => {
                    expr(c, out);
                    collect_addressed(std::slice::from_ref(t), out);
                    if let Some(e) = e {
                        collect_addressed(std::slice::from_ref(e), out);
                    }
                }
                Stmt::While(c, b) => {
                    expr(c, out);
                    collect_addressed(std::slice::from_ref(b), out);
                }
                Stmt::DoWhile(b, c) => {
                    expr(c, out);
                    collect_addressed(std::slice::from_ref(b), out);
                }
                Stmt::For(init, c, st, b) => {
                    match init {
                        Some(ForInit::Decl(ds)) => {
                            for d in ds {
                                if let Some(i) = &d.init {
                                    expr(i, out);
                                }
                            }
                        }
                        Some(ForInit::Expr(e)) => expr(e, out),
                        None => {}
                    }
                    if let Some(c) = c {
                        expr(c, out);
                    }
                    if let Some(st) = st {
                        expr(st, out);
                    }
                    collect_addressed(std::slice::from_ref(b), out);
                }
                Stmt::Return(Some(e)) => expr(e, out),
                Stmt::Label(_, inner) => collect_addressed(std::slice::from_ref(inner), out),
                _ => {}
            }
        }
    }

    /// Straight-line constant propagation. Any control flow or call clears
    /// the known-constants map (sound but conservative).
    fn ccp_stmts(
        stmts: &[Stmt],
        consts: &mut HashMap<String, i64>,
        addressed: &HashSet<String>,
        ctx: &mut PassCtx<'_>,
    ) -> Vec<Stmt> {
        let mut out = Vec::new();
        for s in stmts {
            match s {
                Stmt::Decl(ds) => {
                    let mut nds = Vec::new();
                    for d in ds {
                        let init = d.init.as_ref().map(|i| ccp_expr(i, consts, ctx));
                        if let Some(i) = &init {
                            if let Some(v) = lit(i) {
                                if !addressed.contains(&d.name) {
                                    consts.insert(d.name.clone(), v);
                                }
                            } else if contains_write(i) {
                                consts.clear();
                            }
                        }
                        nds.push(VarDeclarator { init, ..d.clone() });
                    }
                    out.push(Stmt::Decl(nds));
                }
                Stmt::Expr(e) => {
                    let ne = ccp_expr(e, consts, ctx);
                    // Track `x = literal` and invalidate on other writes.
                    if let ExprKind::Assign(op, lhs, rhs) = &ne.kind {
                        if let ExprKind::Ident(id) = &lhs.kind {
                            if contains_write(rhs) {
                                consts.clear();
                            }
                            if *op == AssignOp::Assign {
                                match lit(rhs) {
                                    Some(v) if !addressed.contains(&id.name) => {
                                        ctx.coverage.hit("ccp", 1);
                                        consts.insert(id.name.clone(), v);
                                    }
                                    _ => {
                                        consts.remove(&id.name);
                                    }
                                }
                            } else {
                                consts.remove(&id.name);
                            }
                        } else {
                            // Store through pointer/array: globals and
                            // addressed locals may change.
                            consts.clear();
                        }
                    } else if contains_write(&ne) {
                        consts.clear();
                    }
                    out.push(Stmt::Expr(ne));
                }
                // Control flow: propagate into the condition, then clear.
                Stmt::If(c, t, e) => {
                    let c = ccp_expr(c, consts, ctx);
                    consts.clear();
                    let t2 = ccp_block(t, consts, addressed, ctx);
                    let e2 = e
                        .as_ref()
                        .map(|e| Box::new(ccp_block(e, consts, addressed, ctx)));
                    out.push(Stmt::If(c, Box::new(t2), e2));
                    consts.clear();
                }
                Stmt::While(c, b) => {
                    consts.clear();
                    let b2 = ccp_block(b, consts, addressed, ctx);
                    out.push(Stmt::While(c.clone(), Box::new(b2)));
                    consts.clear();
                }
                Stmt::DoWhile(b, c) => {
                    consts.clear();
                    let b2 = ccp_block(b, consts, addressed, ctx);
                    out.push(Stmt::DoWhile(Box::new(b2), c.clone()));
                    consts.clear();
                }
                Stmt::For(init, c, st, b) => {
                    consts.clear();
                    let b2 = ccp_block(b, consts, addressed, ctx);
                    out.push(Stmt::For(init.clone(), c.clone(), st.clone(), Box::new(b2)));
                    consts.clear();
                }
                Stmt::Return(Some(e)) => {
                    out.push(Stmt::Return(Some(ccp_expr(e, consts, ctx))));
                }
                Stmt::Block(b) => {
                    consts.clear();
                    let mut inner = HashMap::new();
                    out.push(Stmt::Block(ccp_stmts(b, &mut inner, addressed, ctx)));
                    consts.clear();
                }
                Stmt::Label(l, inner) => {
                    consts.clear();
                    let i2 = ccp_block(inner, consts, addressed, ctx);
                    out.push(Stmt::Label(l.clone(), Box::new(i2)));
                    consts.clear();
                }
                Stmt::Goto(_) => {
                    consts.clear();
                    out.push(s.clone());
                }
                other => out.push(other.clone()),
            }
        }
        out
    }

    fn ccp_block(
        s: &Stmt,
        consts: &mut HashMap<String, i64>,
        addressed: &HashSet<String>,
        ctx: &mut PassCtx<'_>,
    ) -> Stmt {
        let mut inner = HashMap::new();
        let _ = consts;
        let v = ccp_stmts(std::slice::from_ref(s), &mut inner, addressed, ctx);
        match v.len() {
            1 => v.into_iter().next().expect("one statement"),
            _ => Stmt::Block(v),
        }
    }

    fn contains_write(e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Assign(_, _, _) | ExprKind::Post(_, _) => true,
            ExprKind::Unary(UnaryOp::PreInc | UnaryOp::PreDec, _) => true,
            ExprKind::Call(_, _) => true,
            ExprKind::Unary(_, a) | ExprKind::Cast(_, a) => contains_write(a),
            ExprKind::Binary(_, a, b) | ExprKind::Index(a, b) | ExprKind::Comma(a, b) => {
                contains_write(a) || contains_write(b)
            }
            ExprKind::Ternary(c, t, e2) => {
                contains_write(c) || contains_write(t) || contains_write(e2)
            }
            ExprKind::Member(a, _, _) => contains_write(a),
            _ => false,
        }
    }

    fn ccp_expr(e: &Expr, consts: &HashMap<String, i64>, ctx: &mut PassCtx<'_>) -> Expr {
        // The gcc-samevar6-wc defect: in expressions reading one variable
        // many times, the (buggy) propagator replaces the reads with 0. The
        // read census feeds nothing else, so it runs only under the defect.
        if let Some(id) = ctx.bug_active(Trigger::SameVarTimes(6)) {
            // Counts in first-read order: a tie goes to the variable read
            // first, the same on every run (a hash map's order would not be).
            let mut counts: Vec<(&str, usize)> = Vec::new();
            e.for_each_ident(&mut |ident| match counts
                .iter_mut()
                .find(|(name, _)| *name == ident.name)
            {
                Some((_, n)) => *n += 1,
                None => counts.push((&ident.name, 1)),
            });
            let most = counts
                .into_iter()
                .reduce(|best, c| if c.1 > best.1 { c } else { best });
            if let Some((worst, n)) = most {
                if n >= 6 {
                    ctx.miscompiled_by.push(id);
                    return replace_var_reads(e, worst);
                }
            }
        }
        subst_consts(e, consts, ctx)
    }

    fn replace_var_reads(e: &Expr, name: &str) -> Expr {
        let rebuild = |kind: ExprKind| Expr { id: e.id, kind };
        match &e.kind {
            ExprKind::Ident(id) if id.name == name => rebuild(ExprKind::IntLit(0)),
            ExprKind::Assign(op, lhs, rhs) => rebuild(ExprKind::Assign(
                *op,
                lhs.clone(), // do not rewrite the store target
                Box::new(replace_var_reads(rhs, name)),
            )),
            ExprKind::Unary(UnaryOp::Addr, _) | ExprKind::Post(_, _) => e.clone(),
            ExprKind::Unary(op, a) => {
                rebuild(ExprKind::Unary(*op, Box::new(replace_var_reads(a, name))))
            }
            ExprKind::Binary(op, a, b) => rebuild(ExprKind::Binary(
                *op,
                Box::new(replace_var_reads(a, name)),
                Box::new(replace_var_reads(b, name)),
            )),
            ExprKind::Ternary(c, t, e2) => rebuild(ExprKind::Ternary(
                Box::new(replace_var_reads(c, name)),
                Box::new(replace_var_reads(t, name)),
                Box::new(replace_var_reads(e2, name)),
            )),
            ExprKind::Index(a, i) => rebuild(ExprKind::Index(
                a.clone(),
                Box::new(replace_var_reads(i, name)),
            )),
            ExprKind::Comma(a, b) => rebuild(ExprKind::Comma(
                Box::new(replace_var_reads(a, name)),
                Box::new(replace_var_reads(b, name)),
            )),
            _ => e.clone(),
        }
    }

    fn subst_consts(e: &Expr, consts: &HashMap<String, i64>, ctx: &mut PassCtx<'_>) -> Expr {
        let rebuild = |kind: ExprKind| Expr { id: e.id, kind };
        match &e.kind {
            ExprKind::Ident(id) => match consts.get(&id.name) {
                Some(v) => {
                    ctx.coverage.hit("ccp", 2);
                    rebuild(ExprKind::IntLit(*v))
                }
                None => e.clone(),
            },
            ExprKind::Assign(op, lhs, rhs) => rebuild(ExprKind::Assign(
                *op,
                lhs.clone(),
                Box::new(subst_consts(rhs, consts, ctx)),
            )),
            ExprKind::Unary(UnaryOp::Addr, _) => e.clone(),
            ExprKind::Unary(op, a) => {
                rebuild(ExprKind::Unary(*op, Box::new(subst_consts(a, consts, ctx))))
            }
            ExprKind::Post(_, _) => e.clone(),
            ExprKind::Binary(op, a, b) => rebuild(ExprKind::Binary(
                *op,
                Box::new(subst_consts(a, consts, ctx)),
                Box::new(subst_consts(b, consts, ctx)),
            )),
            ExprKind::Ternary(c, t, e2) => rebuild(ExprKind::Ternary(
                Box::new(subst_consts(c, consts, ctx)),
                Box::new(subst_consts(t, consts, ctx)),
                Box::new(subst_consts(e2, consts, ctx)),
            )),
            ExprKind::Call(name, args) => rebuild(ExprKind::Call(
                name.clone(),
                args.iter().map(|a| subst_consts(a, consts, ctx)).collect(),
            )),
            ExprKind::Index(a, i) => rebuild(ExprKind::Index(
                a.clone(),
                Box::new(subst_consts(i, consts, ctx)),
            )),
            ExprKind::Comma(a, b) => rebuild(ExprKind::Comma(
                Box::new(subst_consts(a, consts, ctx)),
                Box::new(subst_consts(b, consts, ctx)),
            )),
            ExprKind::Cast(t, a) => rebuild(ExprKind::Cast(
                t.clone(),
                Box::new(subst_consts(a, consts, ctx)),
            )),
            _ => e.clone(),
        }
    }

    // ----- alias ---------------------------------------------------------------

    /// Store reordering based on (buggy, when active) alias assumptions:
    /// consecutive `*p = …; *q = …;` through distinct pointer variables are
    /// swapped under the gcc-69951 defect — wrong exactly when `p` and `q`
    /// alias, reproducing the Figure 2 miscompilation.
    fn alias_pass(p: &Program, ctx: &mut PassCtx<'_>) -> Program {
        ctx.coverage.hit("alias", 0);
        let bug = ctx.bug_active(Trigger::AliasedPointerStores);
        map_functions(p, |f| alias_stmts(&f.body, bug, ctx))
    }

    fn is_deref_store(s: &Stmt) -> Option<&str> {
        if let Stmt::Expr(e) = s {
            if let ExprKind::Assign(AssignOp::Assign, lhs, rhs) = &e.kind {
                if let ExprKind::Unary(UnaryOp::Deref, inner) = &lhs.kind {
                    if let ExprKind::Ident(id) = &inner.kind {
                        if lit(rhs).is_some() {
                            return Some(&id.name);
                        }
                    }
                }
            }
        }
        None
    }

    fn alias_stmts(stmts: &[Stmt], bug: Option<&'static str>, ctx: &mut PassCtx<'_>) -> Vec<Stmt> {
        let mut out: Vec<Stmt> = Vec::new();
        let mut i = 0;
        while i < stmts.len() {
            if let (Some(p1), Some(p2)) = (
                is_deref_store(&stmts[i]),
                stmts.get(i + 1).and_then(is_deref_store),
            ) {
                ctx.coverage.hit("alias", 1);
                if p1 != p2 {
                    if let Some(id) = bug {
                        ctx.coverage.hit("alias", 2);
                        ctx.miscompiled_by.push(id);
                        out.push(stmts[i + 1].clone());
                        out.push(stmts[i].clone());
                        i += 2;
                        continue;
                    }
                }
            }
            match &stmts[i] {
                Stmt::Block(b) => out.push(Stmt::Block(alias_stmts(b, bug, ctx))),
                other => out.push(other.clone()),
            }
            i += 1;
        }
        out
    }

    // ----- loop -----------------------------------------------------------------

    /// Loop clean-up at `-O3`: removes loops whose condition folded to zero
    /// and hosts the self-indexed-array wrong-code defect (gcc-70138): the
    /// (buggy) "vectorizer" rewrites a self-indexed array subscript to zero.
    fn loop_pass(p: &Program, ctx: &mut PassCtx<'_>) -> Program {
        ctx.coverage.hit("loop", 0);
        let bug = ctx.bug_active(Trigger::SelfIndexedArray);
        map_functions(p, |f| {
            f.body.iter().map(|s| loop_stmt(s, bug, ctx)).collect()
        })
    }

    fn loop_stmt(s: &Stmt, bug: Option<&'static str>, ctx: &mut PassCtx<'_>) -> Stmt {
        match s {
            Stmt::For(_, Some(c), _, _) if lit(c) == Some(0) => {
                ctx.coverage.hit("loop", 1);
                Stmt::Empty
            }
            Stmt::While(c, b) => {
                ctx.coverage.hit("loop", 2);
                Stmt::While(c.clone(), Box::new(loop_stmt(b, bug, ctx)))
            }
            Stmt::For(i, c, st, b) => {
                ctx.coverage.hit("loop", 3);
                Stmt::For(
                    i.clone(),
                    c.clone(),
                    st.clone(),
                    Box::new(loop_stmt(b, bug, ctx)),
                )
            }
            Stmt::DoWhile(b, c) => Stmt::DoWhile(Box::new(loop_stmt(b, bug, ctx)), c.clone()),
            Stmt::Block(b) => Stmt::Block(b.iter().map(|s| loop_stmt(s, bug, ctx)).collect()),
            Stmt::If(c, t, e) => Stmt::If(
                c.clone(),
                Box::new(loop_stmt(t, bug, ctx)),
                e.as_ref().map(|e| Box::new(loop_stmt(e, bug, ctx))),
            ),
            Stmt::Label(l, inner) => Stmt::Label(l.clone(), Box::new(loop_stmt(inner, bug, ctx))),
            Stmt::Expr(e) => Stmt::Expr(vectorize_expr(e, bug, ctx)),
            other => other.clone(),
        }
    }

    fn vectorize_expr(e: &Expr, bug: Option<&'static str>, ctx: &mut PassCtx<'_>) -> Expr {
        let rebuild = |kind: ExprKind| Expr { id: e.id, kind };
        match &e.kind {
            ExprKind::Assign(op, lhs, rhs) => {
                if let ExprKind::Index(base, idx) = &lhs.kind {
                    let mut names: Vec<&str> = Vec::new();
                    idx.for_each_ident(&mut |id| names.push(&id.name));
                    names.sort();
                    let self_indexed = names.windows(2).any(|w| w[0] == w[1]);
                    if self_indexed {
                        ctx.coverage.hit("loop", 4);
                        if let Some(id) = bug {
                            ctx.miscompiled_by.push(id);
                            let zero = Expr {
                                id: idx.id,
                                kind: ExprKind::IntLit(0),
                            };
                            return rebuild(ExprKind::Assign(
                                *op,
                                Box::new(Expr {
                                    id: lhs.id,
                                    kind: ExprKind::Index(base.clone(), Box::new(zero)),
                                }),
                                rhs.clone(),
                            ));
                        }
                    }
                }
                e.clone()
            }
            _ => e.clone(),
        }
    }
}

/// The registry's five wrong-code defects.
const WRONG_CODE: [&str; 5] = [
    "clang-subself-wc",
    "clang-26994",
    "gcc-69951",
    "gcc-samevar6-wc",
    "gcc-70138",
];

/// No defect, each wrong-code defect alone, then all five together.
fn defect_sets(regs: &[BugSpec]) -> Vec<Vec<&BugSpec>> {
    let by_id = |id: &str| regs.iter().find(|b| b.id == id).expect("registered");
    let mut sets = vec![Vec::new()];
    sets.extend(WRONG_CODE.iter().map(|&id| vec![by_id(id)]));
    sets.push(WRONG_CODE.iter().map(|&id| by_id(id)).collect());
    sets
}

/// Result of one pipeline run: the optimized program, the defects whose
/// rewrite applied and the coverage.
type Run = (Program, Vec<&'static str>, Coverage);

/// Runs both pipelines on `p` and asserts equal results, and that the
/// in-place pipeline borrows `p` exactly at -O0.
fn assert_same(p: &Program, opt: u8, bugs: &[&BugSpec], what: &str) -> Run {
    let mut cov = Coverage::new();
    let mut ctx = PassCtx {
        opt,
        wrong_code: bugs.to_vec(),
        coverage: &mut cov,
        miscompiled_by: Vec::new(),
    };
    let out = optimize(p, &mut ctx);
    let by = ctx.miscompiled_by;
    assert_eq!(
        matches!(out, Cow::Borrowed(_)),
        opt == 0,
        "{what}: borrowed only at -O0"
    );
    let out = out.into_owned();

    let mut ref_cov = Coverage::new();
    let mut ref_ctx = PassCtx {
        opt,
        wrong_code: bugs.to_vec(),
        coverage: &mut ref_cov,
        miscompiled_by: Vec::new(),
    };
    let ref_out = rebuilding::optimize(p, &mut ref_ctx);
    let ref_by = ref_ctx.miscompiled_by;

    assert_eq!(out, ref_out, "{what}: program");
    assert_eq!(by, ref_by, "{what}: miscompiled_by");
    assert_eq!(cov, ref_cov, "{what}: coverage");
    (out, by, cov)
}

/// Every optimization level under every defect set; returns the union
/// coverage and the defects that applied.
fn assert_same_everywhere(p: &Program, what: &str) -> (Coverage, Vec<&'static str>) {
    let regs = registry();
    let (mut union, mut fired) = (Coverage::new(), Vec::new());
    for opt in 0..=3u8 {
        for bugs in defect_sets(&regs) {
            let ids: Vec<_> = bugs.iter().map(|b| b.id).collect();
            let (_, by, cov) = assert_same(p, opt, &bugs, &format!("{what} -O{opt} {ids:?}"));
            union.merge(&cov);
            fired.extend(by);
        }
    }
    (union, fired)
}

#[test]
fn in_place_pipeline_matches_rebuilding_on_corpus_variants() {
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig {
        files: 50,
        seed: 43,
    }));
    let enumerator = Enumerator::new(EnumeratorConfig {
        algorithm: Algorithm::Paper,
        granularity: Granularity::Intra,
        budget: 12,
    });
    let (mut variants, mut fired) = (0usize, Vec::new());
    let mut buf = String::new();
    for f in &files {
        let Ok(sk) = Skeleton::from_source(&f.source) else {
            continue;
        };
        enumerator.enumerate(&sk, &mut |v| {
            v.render_into(&sk, &mut buf);
            let Ok(p) = spe::minic::parse(&buf) else {
                return ControlFlow::Continue(());
            };
            variants += 1;
            let (_, by) = assert_same_everywhere(&p, &format!("{}:\n{buf}\n", f.name));
            fired.extend(by);
            ControlFlow::Continue(())
        });
    }
    fired.sort();
    fired.dedup();
    assert!(variants > 500, "only {variants} variants compared");
    // No corpus variant reads one variable six times in a statement; the
    // targeted programs below cover gcc-samevar6-wc.
    assert_eq!(
        fired,
        ["clang-26994", "clang-subself-wc", "gcc-69951", "gcc-70138"]
    );
}

/// Asserts that `cov` includes point `point` of `pass`.
fn assert_reached(cov: &Coverage, pass: &'static str, point: u32) {
    let mut with = cov.clone();
    with.hit(pass, point);
    assert_eq!(&with, cov, "{pass} point {point} never reached");
}

#[test]
fn in_place_pipeline_matches_rebuilding_on_every_rewrite() {
    let programs = [
        // Literal folds and algebraic identities.
        "int x; int main() { return (x + 0) + (0 + x) + (x * 1) + (1 * x) + (x * 0) + (0 * x) + (x - 0) + 2 * 3; }",
        "int main() { return -5 + !0 + !7 + -(1 << 2); }",
        "int x; int main() { return (1 ? x : 2) + (0 ? 3 : x + 0) + (x ? x : x); }",
        "int x; int main() { return x - x + (x - x) * 2; }",
        // Folds inside every statement and expression form.
        "int f(int a) { return a; } int main() { int a[3]; int i = 0 + 0; a[i + 0] = (1, 2 + 3); i++; \
         for (int j = 1 * 1; j < 2 + 0; j = j + 1) i = i + f((int) (i * 1)); do i--; while (i > 0 + 0); return a[0] + 'a'; }",
        // dce: literal conditions nested in blocks and labels, while (0),
        // self-assignment.
        "int g; int main() { { if (0) g = 1; else g = 2; if (1) { g = 3; } if (0) g = 4; { if (1) g = g; } } \
         l: if (1) g = 5; while (0) g = 6; while (g < 9) { if (0) g = 7; g++; } g = g; return g; }",
        // clang-26994: a declaration after a label in a function with a
        // backward goto.
        "int main() { int *p = 0; trick: if (p) return *p; int x = 0; p = &x; goto trick; return 0; }",
        "int main() { int n = 0; top: { int y = 3; n = n + y; } if (n < 9) goto top; return n; }",
        // ccp: straight-line constants, addressed locals, control flow.
        "int g; int main() { int b = 1; int a = b; int *p = &b; g = 2; a = g + a; a += 1; \
         if (a) { int c = 4; return c + b; } l: g = 3; goto m; m: return g + a; }",
        // ccp: writes in initializers and right-hand sides end propagation.
        "int g; int f() { g = 5; return 0; } int main() { g = 1; int a = f(); int b = g; g = 2; \
         a = (g = 3); b = b + g; g = 4; int c = g++; return a + b + c + g; }",
        // gcc-69951: store pairs, one swap inside a nested block, and a
        // pair through the same pointer.
        "int a; int b; int main() { int *p = &a, *q = &b; *p = 1; *q = 2; { *p = 3; { *q = 4; *p = 5; } *q = 6; *q = 7; } return a + b; }",
        // ... and a pair whose first value only ccp makes a literal.
        "int a; int b; int main() { int *p = &a, *q = &b; int x = 1; *p = x; *q = 2; return a + b; }",
        // gcc-samevar6-wc: six reads of one variable in a statement, a
        // declaration and a return.
        "int a; int main() { int b; b = a + a * a - a + a + a; int c = a + a + a + a + a + a; return b + c + (a + a + a + a + a + a); }",
        // loop: for (;0;) and the gcc-70138 self-indexed store.
        "int u[10]; int a; int main() { for (;0;) a = 1; while (a < 3) a++; \
         for (a = 0; a < 2; a++) { u[a + a] = 1; } do { a--; } while (a > 0); lab: u[a * a] = 7; \
         if (a) u[a + 2 * a] = 2; else { for (;0;) ; } return u[0]; }",
    ];
    let (mut union, mut fired) = (Coverage::new(), Vec::new());
    for src in programs {
        let p = spe::minic::parse(src).unwrap_or_else(|e| panic!("{src}: {e:?}"));
        let (cov, by) = assert_same_everywhere(&p, src);
        union.merge(&cov);
        fired.extend(by);
    }
    for point in 9..=17 {
        assert_reached(&union, "fold", point);
    }
    for (pass, points) in [
        ("dce", 1..=4),
        ("ccp", 1..=2),
        ("alias", 1..=2),
        ("loop", 1..=4),
    ] {
        for point in points {
            assert_reached(&union, pass, point);
        }
    }
    for id in WRONG_CODE {
        assert!(fired.contains(&id), "{id} never applied");
    }
}

/// Expression ids survive exactly as the folder leaves them: a kept
/// operand keeps its own id, a literal fold keeps its parent's.
#[test]
fn folds_keep_the_documented_ids() {
    let p = spe::minic::parse("int x; int main() { return x + 0; } int g() { return 2 + 3; }")
        .expect("parses");
    let (out, _, _) = assert_same(&p, 1, &[], "ids");
    let returned = |prog: &Program, f: &str| match &prog.function(f).expect("defined").body[0] {
        spe::minic::ast::Stmt::Return(Some(e)) => e.clone(),
        other => panic!("{other:?}"),
    };
    let (before, after) = (returned(&p, "main"), returned(&out, "main"));
    let spe::minic::ast::ExprKind::Binary(_, x, _) = &before.kind else {
        panic!("{before:?}")
    };
    assert_eq!(after, **x);
    let (before, after) = (returned(&p, "g"), returned(&out, "g"));
    assert_eq!(after.id, before.id);
    assert_eq!(after.kind, spe::minic::ast::ExprKind::IntLit(5));
}
