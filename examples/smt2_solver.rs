//! A miniature `z3`-style command-line SMT solver backed by the quantum
//! annealing pipeline.
//!
//! Run with a file: `cargo run --release --example smt2_solver -- file.smt2`
//! or with no arguments to solve the built-in demo script.

use qsmt::{Script, StringSolver};

const DEMO: &str = r#"
; Demo: the paper's Table 1 constraints as an SMT-LIB script.
(set-logic QF_S)

; row 1: reverse "hello" and replace 'e' with 'a'  => "ollah"
(declare-const row1 String)
(assert (= row1 (str.replace_all (str.rev "hello") "e" "a")))

; row 2: generate a palindrome of length 6
(declare-const row2 String)
(assert (= row2 (str.rev row2)))
(assert (= (str.len row2) 6))

; row 3: generate a string of length 5 matching a[bc]+
(declare-const row3 String)
(assert (str.in_re row3 (re.++ (str.to_re "a")
                               (re.+ (re.union (str.to_re "b") (str.to_re "c"))))))
(assert (= (str.len row3) 5))

; row 4: concat "hello" and "world" (space-joined) and replace all 'l' by 'x'
(declare-const row4 String)
(assert (= row4 (str.replace_all (str.++ "hello" " " "world") "l" "x")))

; row 5: a string of length 6 containing "hi"
(declare-const row5 String)
(assert (str.contains row5 "hi"))
(assert (= (str.len row5) 6))

; an integer query: where does "world" start?
(declare-const idx Int)
(assert (= idx (str.indexof "hello world" "world" 0)))

(check-sat)
(get-model)
"#;

fn main() {
    let source = match std::env::args().nth(1) {
        Some(path) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        }
        None => DEMO.to_string(),
    };

    let script = match Script::parse(&source) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(1);
        }
    };

    let solver = StringSolver::with_defaults().with_seed(99);
    match script.solve(&solver, false) {
        Ok(run) => {
            let outcome = run.outcome;
            println!("{}", outcome.status);
            if !outcome.model.is_empty() {
                println!("(model");
                for (name, value) in &outcome.model {
                    println!("  (define-fun {name} () _ {value})");
                }
                println!(")");
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
