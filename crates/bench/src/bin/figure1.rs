//! Regenerates the paper's **Figure 1** ("Overview of our approach") as a
//! live end-to-end trace: operation + args → binary variables → objective
//! and penalty functions in a QUBO matrix → (simulated) annealer →
//! decoded string, rendered from one solve's outcome and report.
//!
//! Run with: `cargo run --release -p qsmt-bench --bin figure1`

use qsmt_core::{Constraint, SolveOutcome, StringSolver};
use qsmt_qubo::DenseQubo;
use qsmt_telemetry::SolveReport;

/// The five Figure 1 boxes, numbered, each with its indented payload.
fn render(outcome: &SolveOutcome, report: &SolveReport) -> String {
    let dense = DenseQubo::from_model(&outcome.problem.qubo);
    let n = report.qubo.num_vars;
    let stages = [
        ("operation + args", report.constraint.clone()),
        (
            "binary variables",
            format!("{n} binary variables ({})", report.compile.encoding),
        ),
        (
            "QUBO matrix",
            format!(
                "{n}×{n} matrix, {} off-diagonal interactions, diagonal: {}\n{}",
                report.qubo.num_interactions,
                if dense.is_diagonal() { "yes" } else { "no" },
                dense.abbreviated(4, 4)
            ),
        ),
        ("annealer", format!("sampler: {}", report.sampling.sampler)),
        (
            "decoded output",
            format!(
                "{} (energy {:.3}, valid: {})",
                outcome.solution, outcome.energy, outcome.valid
            ),
        ),
    ];
    let mut out = String::new();
    for (i, (label, detail)) in stages.iter().enumerate() {
        out += &format!("[{}] {label}\n", i + 1);
        for line in detail.lines() {
            out += &format!("      {line}\n");
        }
    }
    out
}

fn main() {
    let solver = StringSolver::with_defaults().with_seed(7);
    println!("=== Figure 1: Overview of our approach (live trace) ===\n");

    for constraint in [
        Constraint::Equality {
            target: "abc".into(),
        },
        Constraint::Palindrome { len: 4 },
        Constraint::Regex {
            pattern: "a[bc]+".into(),
            len: 4,
        },
    ] {
        let (outcome, report) = solver.solve(&constraint).expect("constraint encodes");
        println!("{}", render(&outcome, &report));
        println!(
            "result: {} (valid: {})\n{}",
            outcome.solution,
            outcome.valid,
            "=".repeat(72)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_all_figure1_stages() {
        let (outcome, report) = StringSolver::with_defaults()
            .with_seed(42)
            .solve(&Constraint::Equality {
                target: "ok".into(),
            })
            .unwrap();
        let rendered = render(&outcome, &report);
        let labels: Vec<&str> = rendered.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(labels.len(), 5);
        for (i, label) in labels.iter().enumerate() {
            assert!(label.starts_with(&format!("[{}] ", i + 1)), "{label}");
        }
        assert!(labels[0].contains("operation"));
        assert!(labels[2].contains("QUBO"));
        assert!(labels[4].contains("decoded"));
        assert!(rendered.contains("[1]"));
        assert!(rendered.contains("[5]"));
    }
}
