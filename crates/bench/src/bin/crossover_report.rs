//! Bench S5 companion: prints the quantum-vs-classical crossover table —
//! annealer wall time vs pruned and blind classical search as the string
//! search space grows, with the exact accepting-fraction of each space
//! from `qsmt_redex::count_matches`.
//!
//! Run with: `cargo run --release -p qsmt-bench --bin crossover_report`

use qsmt_anneal::SimulatedAnnealer;
use qsmt_baseline::ClassicalSolver;
use qsmt_core::{Constraint, StringSolver};
use qsmt_redex::{count_matches, lowercase_ascii, parse};
use std::sync::Arc;
use std::time::Instant;

/// The annealer arm: more reads than the default solver because the
/// superposed-class encoding's ground degeneracy grows with the number of
/// class positions (documented relaxation, EXPERIMENTS.md) and
/// post-selection needs samples to choose from.
fn annealer() -> StringSolver {
    StringSolver::new(Arc::new(
        SimulatedAnnealer::new()
            .with_seed(9)
            .with_num_reads(512)
            .with_sweeps(512),
    ))
}

fn main() {
    println!(
        "{:<24} {:>16} {:>12} {:>14} {:>14} {:>16}",
        "workload", "search space", "accepting", "annealer", "classical+prune", "classical blind"
    );
    let alphabet = lowercase_ascii();

    // Regex workloads where the accepting fraction shrinks with length:
    // the blind solver's expected work grows like |Σ|^n / accepted.
    for len in [3usize, 5, 7] {
        let pattern = "z[yz]+";
        let re = parse(pattern).expect("parses");
        let space = 26u128.pow(len as u32);
        let accepting = count_matches(&re, len, &alphabet);
        let constraint = Constraint::Regex {
            pattern: pattern.into(),
            len,
        };

        let quantum = annealer();
        let t0 = Instant::now();
        let q = quantum.solve(&constraint).expect("encodes").0;
        let t_q = t0.elapsed();
        let q_tag = if q.valid { "" } else { " (invalid!)" };

        let pruned = ClassicalSolver::new();
        let t1 = Instant::now();
        let p = pruned.solve(&constraint);
        let t_p = t1.elapsed();
        assert!(p.solution.is_some());

        let blind = ClassicalSolver::new().without_pruning();
        let t2 = Instant::now();
        let b = blind.solve(&constraint);
        let t_b = t2.elapsed();

        println!(
            "{:<24} {:>16} {:>12} {:>12.1?}{} {:>14.1?} {:>13.1?} ({} nodes)",
            format!("/{pattern}/ len {len}"),
            space,
            accepting,
            t_q,
            q_tag,
            t_p,
            t_b,
            b.stats.nodes,
        );
    }

    // Substring workloads: the "zz" needle sits at the far end of the
    // blind solver's lexicographic order.
    for len in [3usize, 4, 5] {
        let constraint = Constraint::SubstringMatch {
            substring: "zz".into(),
            len,
        };
        let space = 26u128.pow(len as u32);

        let quantum = annealer();
        let t0 = Instant::now();
        let q = quantum.solve(&constraint).expect("encodes").0;
        let t_q = t0.elapsed();

        let pruned = ClassicalSolver::new();
        let t1 = Instant::now();
        let p = pruned.solve(&constraint);
        let t_p = t1.elapsed();

        let blind = ClassicalSolver::new().without_pruning();
        let t2 = Instant::now();
        let b = blind.solve(&constraint);
        let t_b = t2.elapsed();

        println!(
            "{:<24} {:>16} {:>12} {:>13.1?} {:>14.1?} {:>13.1?} ({} nodes)",
            format!("contains 'zz' len {len}"),
            space,
            "—",
            t_q,
            t_p,
            t_b,
            b.stats.nodes,
        );
        let _ = (q, p);
    }
}
