//! End-to-end tests for the simultaneous-conjunction extension and the
//! simulated quantum annealer: merged QUBOs solved across the full stack,
//! including through the SMT-LIB front end.

use qsmt::{Constraint, SatStatus, Script, SimulatedQuantumAnnealer, Solution, StringSolver};
use std::sync::Arc;

#[test]
fn merged_palindrome_with_pinned_char_solves() {
    let c = Constraint::All(vec![
        Constraint::Palindrome { len: 5 },
        Constraint::CharAt {
            ch: 'x',
            index: 0,
            len: 5,
        },
    ]);
    let out = StringSolver::with_defaults()
        .with_seed(21)
        .solve(&c)
        .expect("encodes")
        .0;
    assert!(out.valid, "conjunction must validate");
    let t = out.solution.as_text().expect("text");
    assert!(t.starts_with('x') && t.ends_with('x'));
    assert_eq!(t.chars().rev().collect::<String>(), t);
}

#[test]
fn merged_regex_with_suffix() {
    let c = Constraint::All(vec![
        Constraint::Regex {
            pattern: "a[bc]+".into(),
            len: 4,
        },
        Constraint::Suffix {
            suffix: "c".into(),
            len: 4,
        },
    ]);
    let out = StringSolver::with_defaults()
        .with_seed(5)
        .solve(&c)
        .expect("encodes")
        .0;
    assert!(out.valid);
    let t = out.solution.as_text().expect("text");
    assert!(t.starts_with('a') && t.ends_with('c'), "{t:?}");
}

#[test]
fn smtlib_conjunction_end_to_end() {
    let script = Script::parse(
        "(declare-const s String)\
         (assert (str.prefixof \"a\" s))\
         (assert (= s (str.rev s)))\
         (assert (= (str.len s) 3))",
    )
    .expect("parses");
    let out = script
        .solve(&StringSolver::with_defaults().with_seed(31), false)
        .expect("solves")
        .outcome;
    assert_eq!(out.status, SatStatus::Sat);
    let qsmt::smtlib::ModelValue::Str(s) = &out.model[0].1 else {
        panic!()
    };
    assert!(s.starts_with('a') && s.ends_with('a'));
    assert_eq!(s.chars().rev().collect::<String>(), *s);
}

#[test]
fn contradictory_conjunction_reports_unknown_not_sat() {
    // S[0] = 'a' and S[0] = 'b' cannot both hold; the merged QUBO still
    // anneals but validation must reject every sample.
    let script = Script::parse(
        "(declare-const s String)\
         (assert (= (str.at s 0) \"a\"))\
         (assert (= (str.at s 0) \"b\"))\
         (assert (= (str.len s) 2))",
    )
    .expect("parses");
    let out = script
        .solve(&StringSolver::with_defaults().with_seed(2), false)
        .expect("solves")
        .outcome;
    assert_eq!(out.status, SatStatus::Unknown);
}

#[test]
fn quantum_annealer_backend_solves_table1_style_rows() {
    let sqa = SimulatedQuantumAnnealer::new()
        .with_seed(17)
        .with_num_reads(24)
        .with_sweeps(384);
    let solver = StringSolver::new(Arc::new(sqa));
    assert_eq!(solver.sampler_name(), "simulated-quantum-annealing");

    let rev = solver
        .solve(&Constraint::Reverse {
            input: "hello".into(),
        })
        .expect("encodes")
        .0;
    assert_eq!(rev.solution.as_text(), Some("olleh"));
    assert!(rev.valid);

    let pal = solver
        .solve(&Constraint::Palindrome { len: 4 })
        .expect("encodes")
        .0;
    assert!(pal.valid, "SQA palindrome must validate");
}

#[test]
fn quantum_annealer_matches_exact_on_small_conjunction() {
    let c = Constraint::All(vec![
        Constraint::Prefix {
            prefix: "a".into(),
            len: 2,
        },
        Constraint::Suffix {
            suffix: "b".into(),
            len: 2,
        },
    ]);
    let p = c.encode().expect("encodes");
    let (ground, _) = qsmt::ExactSolver::new().ground_states(&p.qubo);
    let sqa = SimulatedQuantumAnnealer::new()
        .with_seed(9)
        .with_num_reads(16);
    let set = qsmt::Sampler::sample(&sqa, &p.qubo);
    assert!((set.lowest_energy().unwrap() - ground).abs() < 1e-9);
    let best = p.decode_state(&set.best().unwrap().state).expect("decodes");
    assert_eq!(best, Solution::Text("ab".into()));
}

#[test]
fn classical_baseline_solves_conjunctions_too() {
    let c = Constraint::All(vec![
        Constraint::Palindrome { len: 3 },
        Constraint::Prefix {
            prefix: "a".into(),
            len: 3,
        },
    ]);
    let r = qsmt::baseline::ClassicalSolver::new().solve(&c);
    let Some(Solution::Text(t)) = r.solution else {
        panic!("classical solver must find a witness")
    };
    assert!(c.validate(&Solution::Text(t)));
}
