//! SMT-LIB scripts through the whole stack, including agreement between
//! the quantum solver and the classical baseline on the same constraints.

use qsmt::baseline::ClassicalSolver;
use qsmt::{Constraint, SatStatus, Script, Solution, StringSolver};

fn solver() -> StringSolver {
    StringSolver::with_defaults().with_seed(12)
}

#[test]
fn full_script_with_every_goal_kind() {
    let script = Script::parse(
        r#"
        (set-logic QF_S)
        (declare-const a String)
        (assert (= a (str.replace_all (str.rev "hello") "e" "a")))
        (declare-const p String)
        (assert (= p (str.rev p)))
        (assert (= (str.len p) 4))
        (declare-const r String)
        (assert (str.in_re r (re.++ (str.to_re "a") (re.+ (re.range "b" "c")))))
        (assert (= (str.len r) 4))
        (declare-const s String)
        (assert (str.contains s "at"))
        (assert (= (str.len s) 3))
        (declare-const i Int)
        (assert (= i (str.indexof "the cat sat" "cat" 0)))
        (check-sat)
        (get-model)
        "#,
    )
    .expect("parses");
    let out = script.solve(&solver(), false).expect("solves").outcome;
    assert_eq!(out.status, SatStatus::Sat);
    let model: std::collections::HashMap<_, _> = out.model.into_iter().collect();
    assert_eq!(model["a"].to_string(), "\"ollah\"");
    assert_eq!(model["i"].to_string(), "4");
    let p = model["p"].to_string();
    assert_eq!(p.len(), 6); // 4 chars + quotes
    let r = model["r"].to_string();
    assert!(r.starts_with("\"a"));
}

#[test]
fn unsat_scripts_report_unsat() {
    for src in [
        // regex with impossible length
        "(declare-const r String)(assert (str.in_re r (str.to_re \"abcd\")))(assert (= (str.len r) 2))",
        // contains longer than length
        "(declare-const s String)(assert (str.contains s \"abcd\"))(assert (= (str.len s) 2))",
    ] {
        let out = Script::parse(src)
            .expect("parses")
            .solve(&solver(), false)
            .expect("solves").outcome;
        assert_eq!(out.status, SatStatus::Unsat, "script: {src}");
    }
}

#[test]
fn quantum_and_classical_agree_on_deterministic_constraints() {
    let classical = ClassicalSolver::new();
    let quantum = solver();
    for c in [
        Constraint::Reverse {
            input: "quantum".into(),
        },
        Constraint::ReplaceAll {
            input: "hello world".into(),
            from: 'l',
            to: 'x',
        },
        Constraint::ReplaceFirst {
            input: "aabb".into(),
            from: 'b',
            to: 'c',
        },
        Constraint::Concat {
            parts: vec!["ab".into(), "cd".into()],
            separator: String::new(),
        },
        Constraint::Includes {
            haystack: "mississippi".into(),
            needle: "ssi".into(),
        },
    ] {
        let q = quantum.solve(&c).expect("encodes").0.solution;
        let cl = classical.solve(&c).solution.expect("classical solves");
        assert_eq!(q, cl, "disagreement on {}", c.describe());
    }
}

#[test]
fn quantum_and_classical_agree_on_generated_validity() {
    // For generation constraints the answers differ (degenerate ground
    // states) but both must satisfy the constraint.
    let classical = ClassicalSolver::new();
    let quantum = solver();
    for c in [
        Constraint::Palindrome { len: 4 },
        Constraint::Regex {
            pattern: "a[bc]+".into(),
            len: 4,
        },
        Constraint::SubstringMatch {
            substring: "go".into(),
            len: 4,
        },
    ] {
        let q = quantum.solve(&c).expect("encodes").0;
        assert!(q.valid, "quantum answer invalid for {}", c.describe());
        let cl = classical.solve(&c).solution.expect("classical solves");
        assert!(
            c.validate(&cl),
            "classical answer invalid for {}",
            c.describe()
        );
    }
}

#[test]
fn model_shapes_survive_roundtrip_printing() {
    let script =
        Script::parse("(declare-const i Int)(assert (= i (str.indexof \"abc\" \"zz\" 0)))")
            .expect("parses");
    let out = script.solve(&solver(), false).expect("solves").outcome;
    // No occurrence: SMT-LIB prints −1.
    assert_eq!(out.model[0].1.to_string(), "(- 1)");
    // The decoded Solution equivalent:
    let c = Constraint::Includes {
        haystack: "abc".into(),
        needle: "zz".into(),
    };
    assert!(c.validate(&Solution::Index(None)));
}
