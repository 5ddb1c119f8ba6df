//! Differential test of `spe_simcc::vm::execute`, whose stack memory
//! grows lazily, against a test-only copy of the original eager
//! implementation that allocated and canary-filled the whole 2¹⁶-cell
//! stack on every run.
//!
//! Both engines must return the same `Result<VmExecution, Trap>` —
//! exit code, output and trap, including the trapping address — on
//! Table-3 corpus variants at -O0..=3 (with and without the trunk
//! compilers' seeded wrong-code defects) and on targeted programs that
//! probe the canary, the logical stack bound, negative addresses, call
//! depth and oversized frames.

use spe::core::{Algorithm, Enumerator, EnumeratorConfig, Granularity, Skeleton};
use spe::corpus::{generate, seeds, CorpusConfig};
use spe::minic::ast::{BinaryOp, Program, UnaryOp};
use spe::simcc::coverage::Coverage;
use spe::simcc::passes::{optimize, PassCtx};
use spe::simcc::vm::{execute, lower, Image, Instr, Trap, VmExecution, STACK_CANARY};
use spe::simcc::{Compiler, CompilerId};
use std::ops::ControlFlow;

/// The original `vm::execute` (arithmetic copied as `eager_arith`): the whole
/// 2¹⁶-cell stack is allocated and canary-filled up front.
fn eager_execute(image: &Image, fuel: u64) -> Result<VmExecution, Trap> {
    let mut mem = image.globals.clone();
    let stack_base = mem.len();
    mem.resize(stack_base + (1 << 16), STACK_CANARY);
    let mut values: Vec<i64> = Vec::new();
    let mut frames: Vec<(usize, usize)> = Vec::new(); // (return pc, fp)
    let mut output = Vec::new();

    let main = &image.funcs[image.main];
    let mut fp = stack_base;
    let mut sp_mem = stack_base + main.frame;
    let mut pc = main.entry;
    let mut remaining = fuel;

    macro_rules! pop {
        () => {
            values.pop().ok_or(Trap::StackUnderflow)?
        };
    }

    loop {
        if remaining == 0 {
            return Err(Trap::Timeout);
        }
        remaining -= 1;
        let instr = image.instrs.get(pc).ok_or(Trap::BadAddress(pc as i64))?;
        pc += 1;
        match instr {
            Instr::Push(v) => values.push(*v),
            Instr::AddrLocal(off) => values.push(fp as i64 + off),
            Instr::AddrGlobal(a) => values.push(*a),
            Instr::LoadInd => {
                let a = pop!();
                if a < 0 || a as usize >= mem.len() {
                    return Err(Trap::BadAddress(a));
                }
                values.push(mem[a as usize]);
            }
            Instr::StoreInd | Instr::StoreIndPush => {
                let v = pop!();
                let a = pop!();
                if a < 0 || a as usize >= mem.len() {
                    return Err(Trap::BadAddress(a));
                }
                mem[a as usize] = v;
                if matches!(instr, Instr::StoreIndPush) {
                    values.push(v);
                }
            }
            Instr::Dup => {
                let v = *values.last().ok_or(Trap::StackUnderflow)?;
                values.push(v);
            }
            Instr::Pop => {
                pop!();
            }
            Instr::Bin(op) => {
                let b = pop!();
                let a = pop!();
                values.push(eager_arith(*op, a, b)?);
            }
            Instr::Un(op) => {
                let a = pop!();
                values.push(match op {
                    UnaryOp::Neg => a.wrapping_neg(),
                    UnaryOp::Not => (a == 0) as i64,
                    UnaryOp::BitNot => !a,
                    _ => return Err(Trap::StackUnderflow),
                });
            }
            Instr::Jmp(t) => pc = *t,
            Instr::Jz(t) => {
                if pop!() == 0 {
                    pc = *t;
                }
            }
            Instr::Jnz(t) => {
                if pop!() != 0 {
                    pc = *t;
                }
            }
            Instr::Call { func, nargs } => {
                if frames.len() >= 64 {
                    return Err(Trap::StackOverflow);
                }
                let f = &image.funcs[*func];
                let new_fp = sp_mem;
                let new_sp = new_fp + f.frame;
                if new_sp > mem.len() {
                    return Err(Trap::StackOverflow);
                }
                for cell in &mut mem[new_fp..new_sp] {
                    *cell = STACK_CANARY;
                }
                for i in (0..*nargs).rev() {
                    let v = pop!();
                    mem[new_fp + i] = v;
                }
                frames.push((pc, fp));
                fp = new_fp;
                sp_mem = new_sp;
                pc = f.entry;
            }
            Instr::Ret => {
                let v = pop!();
                match frames.pop() {
                    Some((ret_pc, old_fp)) => {
                        sp_mem = fp;
                        fp = old_fp;
                        pc = ret_pc;
                        values.push(v);
                    }
                    None => {
                        return Ok(VmExecution {
                            exit_code: v & 0xff,
                            output,
                        });
                    }
                }
            }
            Instr::Print { fmt, nargs } => {
                let mut vals = Vec::new();
                for _ in 0..*nargs {
                    vals.push(pop!());
                }
                vals.reverse();
                let mut rendered = fmt.clone();
                if !vals.is_empty() {
                    rendered.push(':');
                    rendered.push_str(
                        &vals
                            .iter()
                            .map(|v| v.to_string())
                            .collect::<Vec<_>>()
                            .join(","),
                    );
                }
                output.push(rendered);
            }
            Instr::Halt => {
                return Ok(VmExecution {
                    exit_code: 0,
                    output,
                })
            }
        }
    }
}

fn eager_arith(op: BinaryOp, a: i64, b: i64) -> Result<i64, Trap> {
    Ok(match op {
        BinaryOp::Add => a.wrapping_add(b),
        BinaryOp::Sub => a.wrapping_sub(b),
        BinaryOp::Mul => a.wrapping_mul(b),
        BinaryOp::Div => {
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            a.wrapping_div(b)
        }
        BinaryOp::Rem => {
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            a.wrapping_rem(b)
        }
        BinaryOp::Lt => (a < b) as i64,
        BinaryOp::Gt => (a > b) as i64,
        BinaryOp::Le => (a <= b) as i64,
        BinaryOp::Ge => (a >= b) as i64,
        BinaryOp::Eq => (a == b) as i64,
        BinaryOp::Ne => (a != b) as i64,
        BinaryOp::BitAnd => a & b,
        BinaryOp::BitOr => a | b,
        BinaryOp::BitXor => a ^ b,
        BinaryOp::Shl => a.wrapping_shl((b & 63) as u32),
        BinaryOp::Shr => a.wrapping_shr((b & 63) as u32),
        BinaryOp::LogAnd => ((a != 0) && (b != 0)) as i64,
        BinaryOp::LogOr => ((a != 0) || (b != 0)) as i64,
    })
}

/// Runs `image` on both engines at each fuel level and asserts equal
/// results; returns the result at the largest fuel.
fn assert_same(image: &Image, what: &str) -> Result<VmExecution, Trap> {
    let mut last = Err(Trap::Timeout);
    for fuel in [50, 20_000] {
        let lazy = execute(image, fuel);
        assert_eq!(lazy, eager_execute(image, fuel), "{what} (fuel {fuel})");
        last = lazy;
    }
    last
}

/// Lowers `p` after the clean pass pipeline at `opt`.
fn clean_image(p: &Program, opt: u8) -> Option<Image> {
    let mut coverage = Coverage::new();
    let mut ctx = PassCtx {
        opt,
        wrong_code: Vec::new(),
        coverage: &mut coverage,
        miscompiled_by: Vec::new(),
    };
    lower(&optimize(p, &mut ctx)).ok()
}

#[test]
fn lazy_stack_matches_eager_on_corpus_variants() {
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig {
        files: 50,
        seed: 43,
    }));
    let trunk = [CompilerId::gcc(700), CompilerId::clang(390)];
    let enumerator = Enumerator::new(EnumeratorConfig {
        algorithm: Algorithm::Paper,
        granularity: Granularity::Intra,
        budget: 12,
    });
    let (mut images, mut traps) = (0usize, 0usize);
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
            for opt in 0..=3u8 {
                let buggy = trunk
                    .iter()
                    .filter_map(|&id| Compiler::new(id, opt).compile(&p).ok())
                    .map(|c| c.image);
                for image in clean_image(&p, opt).into_iter().chain(buggy) {
                    images += 1;
                    if assert_same(&image, &format!("{} -O{opt}:\n{buf}", f.name)).is_err() {
                        traps += 1;
                    }
                }
            }
            ControlFlow::Continue(())
        });
    }
    assert!(images > 1000, "only {images} images compared");
    assert!(traps > 0, "no trapping image among {images}");
}

/// Compiles `src` cleanly at -O0 and runs it on both engines.
fn run_both(src: &str) -> Result<VmExecution, Trap> {
    let p = spe::minic::parse(src).expect("parses");
    let image = clean_image(&p, 0).expect("lowers");
    assert_same(&image, src)
}

#[test]
fn uninitialized_reads_see_the_canary() {
    assert_eq!(
        run_both("int main() { int x; return x; }").map(|e| e.exit_code),
        Ok(STACK_CANARY)
    );
    // A frame reused after a deeper call returned is refilled with
    // canaries, not left holding the earlier frame's values.
    let src = r#"
        int set() { int a = 1, b = 2, c = 3; return a + b + c; }
        int peek() { int a, b, c; return a + b + c; }
        int main() { set(); return peek(); }
    "#;
    assert_eq!(
        run_both(src).map(|e| e.exit_code),
        Ok((3 * STACK_CANARY) & 0xff)
    );
    // Cells above the stack pointer keep what a returned frame stored:
    // main's frame is `x` and `p`, so `set`'s `a` lived at `&x + 2`.
    let src = r#"
        int set() { int a = 7; return a; }
        int main() { int x; set(); int *p = &x; return *(p + 2); }
    "#;
    assert_eq!(run_both(src).map(|e| e.exit_code), Ok(7));
}

/// With one global `g` at address 0 the stack spans addresses
/// 1..=65536, so `&g + 65536` is its last cell.
#[test]
fn stack_bound_is_logical() {
    let last = "int g; int main() { int *p = &g; p = p + 65536; *p = 7; return *p; }";
    assert_eq!(run_both(last).map(|e| e.exit_code), Ok(7));
    let last_read = "int g; int main() { int *p = &g; p = p + 65536; return *p; }";
    assert_eq!(run_both(last_read).map(|e| e.exit_code), Ok(STACK_CANARY));
    let past_store = "int g; int main() { int *p = &g; p = p + 65537; *p = 7; return 0; }";
    assert_eq!(run_both(past_store), Err(Trap::BadAddress(65537)));
    let past_load = "int g; int main() { int *p = &g; p = p + 65537; return *p; }";
    assert_eq!(run_both(past_load), Err(Trap::BadAddress(65537)));
}

#[test]
fn negative_addresses_trap() {
    let load = "int g; int main() { int *p = &g; p = p - 1; return *p; }";
    assert_eq!(run_both(load), Err(Trap::BadAddress(-1)));
    let store = "int g; int main() { int *p = &g; p = p - 5; *p = 1; return 0; }";
    assert_eq!(run_both(store), Err(Trap::BadAddress(-5)));
}

#[test]
fn deep_recursion_overflows() {
    let unbounded = "int f(int n) { return f(n + 1); } int main() { return f(0); }";
    assert_eq!(run_both(unbounded), Err(Trap::StackOverflow));
    // 63 nested calls below main still fit.
    let deep =
        "int f(int n) { if (n == 63) return n; return f(n + 1); } int main() { return f(1); }";
    assert_eq!(run_both(deep).map(|e| e.exit_code), Ok(63));
}

#[test]
fn oversized_frames_overflow_the_bound() {
    let callee =
        "int f() { int big[70000]; big[0] = 1; return big[0]; } int main() { return f(); }";
    assert_eq!(run_both(callee), Err(Trap::StackOverflow));
    // A callee frame that exactly fills the stack fits.
    let exact =
        "int f() { int big[65536]; big[65535] = 4; return big[65535]; } int main() { return f(); }";
    assert_eq!(run_both(exact).map(|e| e.exit_code), Ok(4));
    // Main's frame is not bound-checked on entry; its cells past the
    // bound trap on access.
    let main_frame = "int main() { int big[70000]; big[69999] = 1; return 0; }";
    assert_eq!(run_both(main_frame), Err(Trap::BadAddress(69999)));
    let main_then_call = "int f() { return 1; } int main() { int big[70000]; return f(); }";
    assert_eq!(run_both(main_then_call), Err(Trap::StackOverflow));
}

/// Surplus arguments are stored into the cells after the parameters:
/// here `x` receives 2 and the 3 lands past `f`'s two-cell frame.
#[test]
fn surplus_arguments_fill_cells_past_the_parameters() {
    let src = r#"
        int f(int a) { int x; return a + x; }
        int g() { int p, q, r; return r; }
        int main() { int s = f(1, 2, 3); return s * 10 + g(); }
    "#;
    assert_eq!(
        run_both(src).map(|e| e.exit_code),
        Ok((30 + STACK_CANARY) & 0xff)
    );
}
