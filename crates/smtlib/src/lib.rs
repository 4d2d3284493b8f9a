//! # qsmt-smtlib — SMT-LIB v2 front end for the quantum string solver
//!
//! Makes the system consumable as an *SMT solver*: scripts in the SMT-LIB
//! string-theory fragment are lexed, parsed, sort-checked, and compiled to
//! the QUBO constraint pipelines of `qsmt-core`.
//!
//! Supported fragment (one goal per declared constant):
//!
//! * `(= x "lit")` and ground transformation chains over literals —
//!   `str.++`, `str.rev`, `str.replace`, `str.replace_all` — which lower
//!   to the paper's §4.12 sequential pipelines;
//! * `(= p (str.rev p))` + `(= (str.len p) N)` → palindrome generation;
//! * `(str.in_re x ⟨re⟩)` + length → regex matching (with `str.to_re`,
//!   `re.+`, `re.*`, `re.opt`, `re.union`, `re.++`, `re.range`,
//!   `re.allchar`);
//! * `(str.contains x "s")` + length → substring matching;
//! * `(= i (str.indexof "hay" "needle" 0))` → string includes;
//! * a bare length assertion → printable string generation.
//!
//! ```
//! use qsmt_core::StringSolver;
//! use qsmt_smtlib::{SatStatus, Script};
//!
//! let script = Script::parse(r#"
//!     (set-logic QF_S)
//!     (declare-const x String)
//!     (assert (= x (str.rev "hello")))
//!     (check-sat)
//!     (get-model)
//! "#).unwrap();
//! let run = script.solve(&StringSolver::with_defaults().with_seed(3), true).unwrap();
//! assert_eq!(run.outcome.status, SatStatus::Sat);
//! assert_eq!(run.outcome.model[0].1.to_string(), "\"olleh\"");
//! assert_eq!(run.served_from(), "solver");
//! ```

#![warn(missing_docs)]

mod absint;
mod ast;
mod compile;
mod lexer;
mod script;
mod sexpr;

pub use absint::{apply_tightenings, lower, AbsintRun};

pub use ast::{AstError, Command, RegLan, Sort, Term};
pub use compile::{compile, reglan_to_regex, CompileError, Goal};
pub use lexer::{lex, LexError, Token};
pub use script::{GoalLint, ModelValue, SatStatus, Script, ScriptError, ScriptOutcome, ScriptRun};
pub use sexpr::{parse_sexprs, SExpr, SExprError};
