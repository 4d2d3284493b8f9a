//! Soundness properties for presolve as a deciding stage of the solo
//! solve path (docs/OBSERVABILITY.md, the `"presolve"` sampler).
//!
//! Random deterministic transformations over printable ASCII — equality,
//! reverse, replace-all, replace-first and concat, each with and without
//! absint-style pins on its output — are solved by a solver whose
//! sampler counts its calls and which has a cache attached:
//!
//! * **Presolve decides** — persistency fixes every variable, so the
//!   sampler is never called and the cache is never read or written;
//! * **Soundness** — the presolve answer validates;
//! * **No witness lost** — it is the answer post-selection picks from a
//!   direct `SimulatedAnnealer` run of the encoded QUBO at the same seed.

use proptest::prelude::*;
use qsmt::anneal::{SampleSet, Sampler, SimulatedAnnealer};
use qsmt::core::{Constraint, SolveCache, StringSolver};
use qsmt::qubo::QuboModel;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The annealer the solver would run: the default 64 reads × 384 sweeps.
fn annealer(seed: u64) -> SimulatedAnnealer {
    SimulatedAnnealer::new()
        .with_num_reads(64)
        .with_sweeps(384)
        .with_seed(seed)
}

/// A real annealer that counts how often the solver calls it.
struct CountingSampler {
    inner: SimulatedAnnealer,
    calls: Arc<AtomicUsize>,
}

impl Sampler for CountingSampler {
    fn sample(&self, model: &QuboModel) -> SampleSet {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.sample(model)
    }

    fn name(&self) -> &'static str {
        "counting-sa"
    }
}

/// One deterministic transformation with its reference output.
#[derive(Debug, Clone)]
struct Case {
    constraint: Constraint,
    output: String,
}

fn ascii() -> impl Strategy<Value = char> {
    proptest::char::range(' ', '~')
}

fn text(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(ascii(), 1..=max).prop_map(|v| v.into_iter().collect())
}

/// `kind` picks the transformation; `from_at` picks the replaced
/// character among the input's own, so replacements do happen.
fn case(kind: usize, input: String, other: String, from_at: usize, to: char) -> Case {
    let from = input.chars().nth(from_at % input.len()).expect("non-empty");
    match kind {
        0 => Case {
            output: input.clone(),
            constraint: Constraint::Equality { target: input },
        },
        1 => Case {
            output: input.chars().rev().collect(),
            constraint: Constraint::Reverse { input },
        },
        2 => Case {
            output: input.replace(from, &to.to_string()),
            constraint: Constraint::ReplaceAll { input, from, to },
        },
        3 => Case {
            output: input.replacen(from, &to.to_string(), 1),
            constraint: Constraint::ReplaceFirst { input, from, to },
        },
        _ => {
            let separator = if from_at.is_multiple_of(2) { " " } else { "" };
            Case {
                output: format!("{input}{separator}{other}"),
                constraint: Constraint::Concat {
                    parts: vec![input, other],
                    separator: separator.to_string(),
                },
            }
        }
    }
}

/// Pins the output positions whose bit is set in `mask` (absint pins are
/// facts about the answer, so each pins the reference output's char).
fn pinned(case: Case, mask: u32) -> Case {
    let pins: Vec<(usize, char)> = case
        .output
        .chars()
        .enumerate()
        .filter(|&(i, _)| mask & (1 << i) != 0)
        .collect();
    if pins.is_empty() {
        return case;
    }
    Case {
        constraint: Constraint::Pinned {
            inner: Box::new(case.constraint),
            pins,
        },
        output: case.output,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn presolve_answers_validate_and_match_a_direct_anneal(
        kind in 0usize..5,
        input in text(5),
        other in text(3),
        from_at in 0usize..8,
        to in ascii(),
        pin in 0usize..2,
        mask in 0u32..256,
        seed in 0u64..1000,
    ) {
        let base = case(kind, input, other, from_at, to);
        let Case { constraint, output } = if pin == 1 { pinned(base, mask) } else { base };

        let calls = Arc::new(AtomicUsize::new(0));
        let counting = CountingSampler { inner: annealer(seed), calls: Arc::clone(&calls) };
        let cache = Arc::new(SolveCache::new(16));
        let solver = StringSolver::new(Arc::new(counting)).with_cache(Arc::clone(&cache));
        let (out, report) = solver.solve(&constraint).expect("encodes");

        prop_assert_eq!(report.sampling.sampler.as_str(), "presolve", "{:?}", &constraint);
        prop_assert_eq!(calls.load(Ordering::SeqCst), 0, "sampler called");
        prop_assert!(cache.is_empty(), "presolved solve touched the cache");
        prop_assert!(report.cache.is_none());
        prop_assert!(out.valid && constraint.validate(&out.solution));
        prop_assert_eq!(out.solution.as_text(), Some(output.as_str()));

        // Post-selection over a direct anneal of the same QUBO picks the
        // same answer: presolve lost no witness.
        let problem = solver.encode(&constraint).expect("encodes");
        let direct = annealer(seed).sample(&problem.qubo);
        let picked = direct.iter().find_map(|s| {
            problem.decode_state(&s.state).ok().filter(|sol| constraint.validate(sol))
        });
        prop_assert_eq!(Some(out.solution), picked, "{:?}", &constraint);
    }
}
