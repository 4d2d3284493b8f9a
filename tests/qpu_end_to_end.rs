//! String constraints through the full simulated-QPU hardware pipeline:
//! encode → minor-embed → chain → anneal → unembed → decode → validate.

use qsmt::core::ops::includes::Includes;
use qsmt::core::ops::palindrome::Palindrome;
use qsmt::{ChainBreakResolution, ChainStrength, Constraint, QpuSimulator, Sampler, Topology};
use std::sync::Arc;

#[test]
fn palindrome_survives_chimera_embedding() {
    let problem = Palindrome::new(3).encode().expect("encodes");
    let qpu = QpuSimulator::new(Topology::chimera(4, 4, 4))
        .with_seed(2)
        .with_num_reads(128)
        .with_sweeps(512);
    let resp = qpu.sample_qubo(&problem.qubo).expect("embeds");
    let best = resp.samples.best().expect("reads");
    let text = problem
        .decode_state(&best.state)
        .expect("decodes")
        .as_text()
        .expect("text")
        .to_string();
    assert_eq!(
        text.chars().rev().collect::<String>(),
        text,
        "best QPU sample must be a palindrome"
    );
    assert!(resp.embedding.max_chain_length() >= 1);
}

#[test]
fn includes_survives_embedding_with_one_hot_couplings() {
    let problem = Includes::new("abcabc", "abc").encode().expect("encodes");
    let qpu = QpuSimulator::new(Topology::chimera(2, 2, 4))
        .with_seed(4)
        .with_num_reads(64);
    let resp = qpu.sample_qubo(&problem.qubo).expect("embeds");
    let best = resp.samples.best().expect("reads");
    let idx = problem
        .decode_state(&best.state)
        .expect("decodes")
        .as_index();
    assert_eq!(idx, Some(0), "first match must win through the QPU path");
}

#[test]
fn qpu_as_string_solver_backend() {
    // The QpuSimulator implements Sampler, so it plugs straight into the
    // solver facade.
    let qpu = QpuSimulator::new(Topology::pegasus_like(4))
        .with_seed(8)
        .with_num_reads(96)
        .with_sweeps(512);
    let solver = qsmt::StringSolver::new(Arc::new(qpu));
    let out = solver
        .solve(&Constraint::Equality {
            target: "ok".into(),
        })
        .expect("encodes")
        .0;
    assert_eq!(out.solution.as_text(), Some("ok"));
    assert!(out.valid);
}

#[test]
fn chain_strength_sweep_affects_break_rate_monotonically_at_extremes() {
    let problem = Palindrome::new(3).encode().expect("encodes");
    let breaks = |strength: f64| {
        QpuSimulator::new(Topology::chimera(3, 3, 4))
            .with_seed(6)
            .with_num_reads(64)
            .with_chain_strength(ChainStrength::Fixed(strength))
            .sample_qubo(&problem.qubo)
            .expect("embeds")
            .chain_break_fraction
    };
    let weak = breaks(0.05);
    let strong = breaks(8.0);
    assert!(
        strong <= weak,
        "strong chains must not break more often than weak ones ({strong} vs {weak})"
    );
}

#[test]
fn discard_policy_never_reports_broken_reads() {
    let problem = Palindrome::new(2).encode().expect("encodes");
    let qpu = QpuSimulator::new(Topology::chimera(2, 2, 4))
        .with_seed(3)
        .with_num_reads(32)
        .with_resolution(ChainBreakResolution::Discard)
        // Deliberately weak chains to provoke breaks.
        .with_chain_strength(ChainStrength::Fixed(0.05));
    let resp = qpu.sample_qubo(&problem.qubo).expect("embeds");
    assert_eq!(
        resp.samples.total_reads() as usize + resp.discarded_reads,
        32
    );
}

#[test]
fn complete_topology_needs_no_chains() {
    let problem = Palindrome::new(2).encode().expect("encodes");
    let qpu = QpuSimulator::new(Topology::complete(problem.num_vars())).with_seed(1);
    let resp = qpu.sample_qubo(&problem.qubo).expect("embeds");
    assert_eq!(resp.embedding.max_chain_length(), 1);
    assert_eq!(resp.chain_break_fraction, 0.0);
}

#[test]
fn qpu_timing_is_reported() {
    let problem = Includes::new("aba", "ab").encode().expect("encodes");
    let qpu = QpuSimulator::new(Topology::chimera(1, 1, 4))
        .with_seed(1)
        .with_num_reads(10);
    let resp = qpu.sample_qubo(&problem.qubo).expect("embeds");
    assert!(resp.timing.total_us > 0.0);
    assert_eq!(resp.timing.num_reads, 10);
}

#[test]
fn sampler_trait_panics_gracefully_documented() {
    // Sampler::sample is the infallible trait path; for an embeddable
    // model it must return the same samples as sample_qubo.
    let problem = Includes::new("aba", "ab").encode().expect("encodes");
    let qpu = QpuSimulator::new(Topology::chimera(1, 1, 4)).with_seed(7);
    let via_trait = qpu.sample(&problem.qubo);
    let via_method = qpu.sample_qubo(&problem.qubo).expect("embeds").samples;
    assert_eq!(via_trait, via_method);
}
