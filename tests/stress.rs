//! Stack-wide stress tests: randomly generated constraints pushed through
//! the full encode → anneal → decode → validate path, cross-checked
//! against the classical baseline and the exact solver where sizes allow.

use proptest::prelude::*;
use qsmt::baseline::ClassicalSolver;
use qsmt::{Constraint, ExactSolver, Solution, StringSolver};

fn short_word() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::char::range('a', 'e'), 1..=3)
        .prop_map(|v| v.into_iter().collect())
}

/// Random constraints kept small enough for the exact solver (≤ 26 bits
/// where exactness is asserted) yet spanning every deterministic variant.
fn arb_deterministic_constraint() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        short_word().prop_map(|target| Constraint::Equality { target }),
        (short_word(), short_word()).prop_map(|(a, b)| Constraint::Concat {
            parts: vec![a, b],
            separator: String::new(),
        }),
        short_word().prop_map(|input| Constraint::Reverse { input }),
        (
            short_word(),
            proptest::char::range('a', 'e'),
            proptest::char::range('a', 'e')
        )
            .prop_map(|(input, from, to)| Constraint::ReplaceAll { input, from, to }),
        (
            short_word(),
            proptest::char::range('a', 'e'),
            proptest::char::range('a', 'e')
        )
            .prop_map(|(input, from, to)| Constraint::ReplaceFirst { input, from, to }),
    ]
}

fn arb_generation_constraint() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        (1usize..=3).prop_map(|len| Constraint::Palindrome { len }),
        (short_word(), 0usize..=1).prop_map(|(s, extra)| {
            let len = s.len() + extra;
            Constraint::SubstringMatch { substring: s, len }
        }),
        (proptest::char::range('a', 'e'), 0usize..=2, 1usize..=3).prop_map(|(ch, index, extra)| {
            let len = index + extra;
            Constraint::CharAt {
                ch,
                index: index.min(len - 1),
                len,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn deterministic_constraints_agree_with_classical(c in arb_deterministic_constraint()) {
        let quantum = StringSolver::with_defaults().with_seed(8).solve(&c).expect("encodes").0;
        prop_assert!(quantum.valid, "{} must validate", c.describe());
        let classical = ClassicalSolver::new().solve(&c).solution.expect("classical solves");
        prop_assert_eq!(quantum.solution, classical);
    }

    #[test]
    fn generation_constraints_validate_end_to_end(c in arb_generation_constraint()) {
        let out = StringSolver::with_defaults().with_seed(6).solve(&c).expect("encodes").0;
        prop_assert!(out.valid, "{} produced invalid {}", c.describe(), out.solution);
    }

    #[test]
    fn annealer_matches_exact_ground_on_small_encodings(c in arb_deterministic_constraint()) {
        let p = c.encode().expect("encodes");
        prop_assume!(p.num_vars() <= 24);
        let (ground, _) = ExactSolver::new().ground_states(&p.qubo);
        let out = StringSolver::with_defaults().with_seed(4).solve(&c).expect("encodes").0;
        prop_assert!((out.energy - ground).abs() < 1e-9,
            "annealer energy {} vs exact {}", out.energy, ground);
    }

    #[test]
    fn conjunctions_of_pins_validate(pins in proptest::collection::vec(
        (proptest::char::range('a', 'e'), 0usize..3), 1..=2))
    {
        let len = 3usize;
        let parts: Vec<Constraint> = pins
            .iter()
            .map(|&(ch, index)| Constraint::CharAt { ch, index, len })
            .collect();
        // Conflicting pins at one index are allowed inputs; only require
        // a valid answer when the conjunction is actually satisfiable.
        let satisfiable = {
            let mut slots: Vec<Option<char>> = vec![None; len];
            let mut ok = true;
            for &(ch, index) in &pins {
                match slots[index] {
                    Some(prev) if prev != ch => ok = false,
                    _ => slots[index] = Some(ch),
                }
            }
            ok
        };
        let c = Constraint::All(parts);
        let out = StringSolver::with_defaults().with_seed(3).solve(&c).expect("encodes").0;
        if satisfiable {
            prop_assert!(out.valid, "{} should be satisfiable", c.describe());
            prop_assert!(c.validate(&out.solution));
        } else {
            prop_assert!(!out.valid, "contradictory pins cannot validate");
        }
    }

    #[test]
    fn classical_witnesses_satisfy_quantum_validation(c in arb_generation_constraint()) {
        let r = ClassicalSolver::new().solve(&c);
        if let Some(Solution::Text(t)) = r.solution {
            prop_assert!(c.validate(&Solution::Text(t)));
        }
    }
}
