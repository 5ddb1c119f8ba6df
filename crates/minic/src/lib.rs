//! Mini-C frontend for skeletal program enumeration.
//!
//! A from-scratch C-subset frontend standing in for the Clang-based
//! skeleton extractor of the SPE paper (PLDI 2017). It provides everything
//! SPE needs from a frontend:
//!
//! * [`lexer`] / [`parser`] — source to AST, with every variable use site
//!   tagged with a unique [`ast::OccId`];
//! * [`sema`] — scope tree, declaration resolution, and per-use-site
//!   visible/type-compatible variable sets (the hole variable sets `v_i`);
//! * [`printer`] — source emission with an occurrence rename map, which is
//!   how enumerated skeleton variants are realized as compilable programs.
//!
//! The subset covers the constructs in all of the paper's figures:
//! globals, pointers, arrays, structs, `if`/`while`/`for`/`do`, `goto` and
//! labels, the conditional operator, calls, compound assignment and
//! brace initializers.
//!
//! # Quick start
//!
//! ```
//! let src = "int a, b = 1; int main() { b = b - a; if (a) a = a - b; return 0; }";
//! let prog = spe_minic::parse(src)?;
//! let table = spe_minic::analyze(&prog)?;
//! // Figure 1 of the paper: 7 variable use sites (holes).
//! assert_eq!(table.occurrences().len(), 7);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod sema;

pub use ast::Program;
pub use parser::{parse, ParseError};
pub use printer::{print_program, print_renamed, print_template, TemplatePiece};
pub use sema::{analyze, SemaError, SymbolTable};
