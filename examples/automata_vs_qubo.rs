//! Classical automata methods vs QUBO annealing on regex-conjunction
//! constraints — the comparison behind the paper's motivation that
//! "automata-based techniques can suffer from the high computational cost
//! of operations like automata intersection" (§1).
//!
//! Both solvers answer the same query: *a string of length n matching
//! every pattern in a set*. The classical arm builds the product DFA (its
//! state count is the cost the paper warns about) and walks it; the
//! quantum arm merges the patterns' QUBOs and anneals.
//!
//! Run with: `cargo run --release --example automata_vs_qubo`

use qsmt::redex::{lowercase_ascii, parse, Dfa};
use qsmt::{Constraint, StringSolver};
use std::time::Instant;

fn main() {
    let queries: Vec<(&str, Vec<&str>, usize)> = vec![
        ("starts-a ∧ ends-z", vec!["a[a-z]+", "[a-z]+z"], 5),
        (
            "three patterns",
            vec!["[a-z]+", "[a-m][a-z]+", "[a-z]+[n-z]"],
            6,
        ),
        (
            "divisible runs",
            vec!["(aa)*b", "(aaa)*b"], // a^n b with 6 | n
            7,
        ),
    ];

    println!(
        "{:<22} {:>14} {:>12} {:>16} {:>12}",
        "query", "product-states", "dfa-time", "annealer-answer", "qubo-time"
    );
    for (name, patterns, len) in queries {
        // Classical: intersect all the DFAs, then walk for a witness.
        let t0 = Instant::now();
        let alphabet = lowercase_ascii();
        let mut product: Option<Dfa> = None;
        for p in &patterns {
            let d = Dfa::compile(&parse(p).expect("pattern parses"), &alphabet);
            product = Some(match product {
                None => d,
                Some(acc) => acc.intersect(&d),
            });
        }
        let product = product.expect("at least one pattern").minimize();
        let classical_answer = product.first_match(len);
        let dfa_time = t0.elapsed();

        // Quantum: merge the per-pattern QUBOs and anneal.
        let t1 = Instant::now();
        let conjunction = Constraint::All(
            patterns
                .iter()
                .map(|p| Constraint::Regex {
                    pattern: (*p).to_string(),
                    len,
                })
                .collect(),
        );
        let solver = StringSolver::with_defaults().with_seed(14);
        let qubo_answer = match solver.solve(&conjunction) {
            Ok((out, _)) if out.valid => out.solution.as_text().unwrap_or("").to_string(),
            Ok(_) => "(no valid sample)".to_string(),
            Err(e) => format!("unsat: {e}"),
        };
        let qubo_time = t1.elapsed();

        println!(
            "{:<22} {:>14} {:>11.1?} {:>16} {:>11.1?}",
            name,
            product.num_states(),
            dfa_time,
            qubo_answer,
            qubo_time,
        );

        // Cross-check: when both produced a witness, each must satisfy
        // every pattern.
        if let Some(cl) = &classical_answer {
            assert!(product.matches(cl));
        }
        if !qubo_answer.starts_with('(') && !qubo_answer.starts_with("unsat") {
            for p in &patterns {
                let d = Dfa::compile(&parse(p).expect("parses"), &alphabet);
                assert!(
                    d.matches(&qubo_answer),
                    "annealer answer {qubo_answer:?} must match /{p}/"
                );
            }
        }
    }
}
