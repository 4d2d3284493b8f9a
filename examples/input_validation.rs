//! Input-validation test generation — the workload the paper's
//! introduction motivates ("string constraints are ubiquitous in software,
//! particularly in applications dealing with input validation, and pattern
//! matching").
//!
//! A toy web service validates usernames and coupon codes. A symbolic
//! testing harness wants *concrete inputs* that drive each validator
//! branch; each branch condition becomes a string constraint solved on the
//! annealer, and the decoded strings are replayed against the real
//! validator as an end-to-end check.
//!
//! Run with: `cargo run --release --example input_validation`

use qsmt::{Constraint, StringSolver};

/// The system under test: a pair of classical validators.
mod service {
    /// Usernames: exactly 5 chars, must match `u[ab]+x?` … here encoded
    /// as a plain regex the validator checks character by character.
    pub fn valid_username(s: &str) -> bool {
        let b = s.as_bytes();
        s.len() == 5 && b[0] == b'u' && b[1..].iter().all(|&c| c == b'a' || c == b'b')
    }

    /// Coupon codes: 6 chars containing the campaign tag "GO".
    pub fn valid_coupon(s: &str) -> bool {
        s.len() == 6 && s.contains("GO")
    }

    /// Display names must read the same in the fancy mirrored banner.
    pub fn valid_banner(s: &str) -> bool {
        s.len() == 5 && s.chars().rev().collect::<String>() == s
    }
}

fn main() {
    let solver = StringSolver::with_defaults().with_seed(7);
    println!("generating branch-covering inputs with the QUBO solver\n");

    // Branch 1: a username the validator accepts.
    let (username, _) = solver
        .solve(&Constraint::Regex {
            pattern: "u[ab]+".into(),
            len: 5,
        })
        .expect("username constraint encodes");
    report(
        "username /u[ab]+/ len 5",
        username.solution.as_text().unwrap(),
        service::valid_username(username.solution.as_text().unwrap()),
    );

    // Branch 2: a coupon containing the campaign tag.
    let (coupon, _) = solver
        .solve(&Constraint::SubstringMatch {
            substring: "GO".into(),
            len: 6,
        })
        .expect("coupon constraint encodes");
    report(
        "coupon contains \"GO\" len 6",
        coupon.solution.as_text().unwrap(),
        service::valid_coupon(coupon.solution.as_text().unwrap()),
    );

    // Branch 3: a mirrored banner name.
    let (banner, _) = solver
        .solve(&Constraint::Palindrome { len: 5 })
        .expect("banner constraint encodes");
    report(
        "banner palindrome len 5",
        banner.solution.as_text().unwrap(),
        service::valid_banner(banner.solution.as_text().unwrap()),
    );

    // Negative test: ask the solver for an input that places the tag where
    // the validator would reject it (index 4 leaves no room: encode-time
    // unsat, the solver tells us the branch is dead).
    match solver.solve(&Constraint::IndexOfPlacement {
        substring: "GO".into(),
        index: 5,
        len: 6,
    }) {
        Err(e) => println!("dead branch detected (as expected): {e}"),
        Ok((out, _)) => println!("unexpected solution for dead branch: {}", out.solution),
    }
}

fn report(what: &str, input: &str, accepted: bool) {
    println!(
        "{:<30} -> {:?} — validator {}",
        what,
        input,
        if accepted {
            "ACCEPTS ✅"
        } else {
            "rejects ❌"
        }
    );
    assert!(accepted, "generated input must drive the accepting branch");
}
