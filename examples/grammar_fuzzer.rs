//! Grammar-aware fuzzing with the QUBO solver — the "program testing"
//! application the paper's conclusion proposes as future work.
//!
//! A toy request parser accepts inputs shaped like `GET /xy` (a verb, a
//! space, a slash, a two-letter resource). The fuzzer asks the solver for
//! *many distinct* inputs matching the grammar (`solve_many` over the
//! regex encoder's degenerate ground states), replays them against the
//! parser, and tracks which parser branches were exercised — then asks
//! for near-miss inputs (mutated placements) to drive the error branches.
//!
//! Run with: `cargo run --release --example grammar_fuzzer`

use qsmt::{Constraint, StringSolver};
use std::collections::BTreeSet;

/// The system under test: a tiny request parser with observable branches.
fn parse_request(input: &str) -> Result<(&str, &str), &'static str> {
    let Some((verb, rest)) = input.split_once(' ') else {
        return Err("missing-space");
    };
    if verb != "GET" && verb != "PUT" {
        return Err("bad-verb");
    }
    let Some(resource) = rest.strip_prefix('/') else {
        return Err("missing-slash");
    };
    if resource.len() != 2 || !resource.chars().all(|c| c.is_ascii_lowercase()) {
        return Err("bad-resource");
    }
    Ok((verb, resource))
}

fn main() {
    let solver = StringSolver::with_defaults().with_seed(77).with_reads(256);
    let mut branches: BTreeSet<&'static str> = BTreeSet::new();

    // Happy-path inputs from the grammar /(GET|PUT) \/[a-z][a-z]/.
    let grammar = Constraint::Regex {
        pattern: "(GET|PUT) /[a-z][a-z]".into(),
        len: 7,
    };
    let witnesses = solver.solve_many(&grammar, 8).expect("grammar encodes");
    println!("happy-path inputs ({}):", witnesses.len());
    for w in &witnesses {
        let input = w.as_text().expect("text");
        match parse_request(input) {
            Ok((verb, resource)) => {
                println!("  {input:?} -> ok(verb={verb}, resource={resource})");
                branches.insert("ok");
            }
            Err(b) => {
                println!("  {input:?} -> err({b})");
                branches.insert(b);
            }
        }
    }
    assert!(
        witnesses.len() > 1,
        "degenerate grammar ground states should yield several witnesses"
    );

    // Error-path inputs: perturb the grammar to aim at each guard.
    let error_probes: Vec<(&str, Constraint)> = vec![
        (
            "bad-verb",
            Constraint::Regex {
                pattern: "XXX /[a-z][a-z]".into(),
                len: 7,
            },
        ),
        (
            "missing-slash",
            Constraint::Regex {
                pattern: "GET [a-z][a-z][a-z]".into(),
                len: 7,
            },
        ),
        (
            "bad-resource",
            Constraint::Regex {
                pattern: "GET /[A-Z][a-z]".into(),
                len: 7,
            },
        ),
        (
            "missing-space",
            Constraint::Regex {
                pattern: "[a-z]+".into(),
                len: 7,
            },
        ),
    ];
    println!("\nerror-path probes:");
    for (expect, probe) in error_probes {
        let (out, _) = solver.solve(&probe).expect("probe encodes");
        let input = out.solution.as_text().expect("text").to_string();
        let got = parse_request(&input).err().unwrap_or("ok");
        println!("  aiming at {expect:<14} input={input:?} -> err({got})");
        branches.insert(got);
    }

    println!("\nbranch coverage: {branches:?}");
    assert!(
        branches.contains("ok")
            && branches.contains("bad-verb")
            && branches.contains("missing-space"),
        "fuzzer must reach the main branches"
    );
}
