//! The solver facade: constraint → QUBO → sampler → decoded, validated
//! answer, with a per-stage report reproducing the paper's Figure 1
//! pipeline.

use crate::cache::{CacheLookup, SolveCache};
use crate::constraint::Constraint;
use crate::error::ConstraintError;
use crate::ops::{BiasProfile, DEFAULT_STRENGTH};
use crate::portfolio::{Portfolio, ScriptFacts};
use crate::problem::{EncodedProblem, Solution};
use qsmt_anneal::{
    metrics, ProbeConfig, SampleSet, Sampler, SamplerDynamics, SamplerRunStats, SimulatedAnnealer,
};
use qsmt_lint::{lint_qubo, LintConfig, LintReport};
use qsmt_qubo::{ModelFingerprint, QuboModel, ReducedModel, StopFlag};
use qsmt_telemetry::{
    CacheStats, CompileStats, DynamicsStats, EmbeddingStats, HistogramSummary, PortfolioStats,
    PresolveStats, Recorder, SamplerStats, SelectStats, SolveReport, StageTiming, StallVerdict,
};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The quantum(-simulated) string SMT solver.
///
/// Implements the paper's Figure 1 pipeline: take a string operation and
/// its arguments, generate binary variables, encode objective and penalty
/// functions into a QUBO matrix, pass it to a (simulated) annealer, and
/// decode the output back to a string.
///
/// On top of the paper, the solver adds the *consistency check* that the
/// SMT architecture in the paper's §1 calls for: decoded candidates are
/// validated against the constraint's real semantics, and the reported
/// answer is the lowest-energy **valid** sample when one exists
/// (post-selection closes the known relaxations of the superposed-class
/// and degenerate-ground-state encodings).
///
/// ```
/// use qsmt_core::{Constraint, StringSolver};
///
/// let solver = StringSolver::with_defaults().with_seed(7);
/// let (out, report) = solver
///     .solve(&Constraint::Palindrome { len: 5 })
///     .unwrap();
/// let text = out.solution.as_text().unwrap();
/// assert_eq!(text.chars().rev().collect::<String>(), text);
/// assert!(out.valid);
/// assert!(report.stages.iter().any(|s| s.label == "sample"));
/// ```
#[derive(Clone)]
pub struct StringSolver {
    sampler: Arc<dyn Sampler>,
    strength: f64,
    bias: Option<BiasProfile>,
    seed: u64,
    reads: usize,
    lint_config: LintConfig,
    deny_lint_errors: bool,
    stop: Option<StopFlag>,
    cache: Option<Arc<SolveCache>>,
    portfolio: Option<Portfolio>,
    script_facts: ScriptFacts,
}

impl StringSolver {
    /// Builds a solver around any sampler.
    pub fn new(sampler: Arc<dyn Sampler>) -> Self {
        Self {
            sampler,
            strength: DEFAULT_STRENGTH,
            bias: None,
            seed: 0,
            reads: 64,
            lint_config: LintConfig::default(),
            deny_lint_errors: false,
            stop: None,
            cache: None,
            portfolio: None,
            script_facts: ScriptFacts::default(),
        }
    }

    /// Default configuration: simulated annealing with 64 reads — the
    /// paper's experimental setup.
    pub fn with_defaults() -> Self {
        Self::new(Arc::new(
            SimulatedAnnealer::new().with_num_reads(64).with_sweeps(384),
        ))
    }

    /// Overrides the penalty strength `A` for all encodings.
    pub fn with_strength(mut self, a: f64) -> Self {
        assert!(a > 0.0, "strength must be positive");
        self.strength = a;
        self
    }

    /// Forces a specific bias profile for all flexible encoders
    /// (otherwise each constraint's documented default applies).
    pub fn with_bias(mut self, bias: BiasProfile) -> Self {
        self.bias = Some(bias);
        self
    }

    /// Reseeds the default sampler (rebuilds it; a custom sampler passed
    /// via [`StringSolver::new`] keeps its own seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.rebuild_default_sampler();
        self
    }

    /// The base seed portfolio member streams are derived from.
    pub fn base_seed(&self) -> u64 {
        self.seed
    }

    pub(crate) fn outer_stop(&self) -> Option<&StopFlag> {
        self.stop.as_ref()
    }

    pub(crate) fn script_facts(&self) -> &ScriptFacts {
        &self.script_facts
    }

    /// Sets the default sampler's read count. Deeply degenerate encodings
    /// (regex classes over many positions) need more reads for
    /// post-selection to find a valid sample; shallow ones are fine with
    /// fewer. Only affects the built-in annealer, not a custom sampler.
    pub fn with_reads(mut self, reads: usize) -> Self {
        assert!(reads > 0, "need at least one read");
        self.reads = reads;
        self.rebuild_default_sampler();
        self
    }

    /// Overrides the formulation-linter configuration used by
    /// [`StringSolver::lint`] and the deny gate (precision model,
    /// chain-strength heuristic, tolerances).
    pub fn with_lint_config(mut self, cfg: LintConfig) -> Self {
        self.lint_config = cfg;
        self
    }

    /// Enables (or disables) deny-on-error mode: a solve refuses to
    /// sample when its lint stage reports any error-level diagnostic,
    /// returning [`ConstraintError::LintRejected`] instead of a
    /// silently-unsound answer.
    pub fn with_deny_lint_errors(mut self, deny: bool) -> Self {
        self.deny_lint_errors = deny;
        self
    }

    /// Attaches a cooperative deadline: the default annealer polls the
    /// flag at sweep granularity and winds down as soon as it trips,
    /// returning the best assignment reached so far (post-selection then
    /// validates it like any other sample). This is how the solve service
    /// cancels jobs whose deadline expires mid-anneal. Only the built-in
    /// sampler is rebuilt — a custom sampler passed to
    /// [`StringSolver::new`] must wire its own flag (e.g.
    /// `SimulatedAnnealer::with_stop`).
    pub fn with_stop(mut self, stop: StopFlag) -> Self {
        self.stop = Some(stop);
        self.rebuild_default_sampler();
        self
    }

    /// Attaches a shared [`SolveCache`]. Subsequent solves first consult
    /// the cache: an exact fingerprint hit — eligible only when the
    /// cached entry's read budget covers this solver's — replays the
    /// cached sample set through the (deterministic) post-selection path,
    /// bit-identical to the solve that populated it, no sampling; a shape
    /// hit seeds a short reverse-annealing refinement from the cached
    /// ground state through the configured sampler
    /// ([`Sampler::warm_started`]); a miss solves normally and inserts
    /// the result. Cancelled (stop-flagged) solves are never inserted,
    /// and a solve that presolve answers never reads or writes the cache.
    /// See `docs/CACHING.md`.
    pub fn with_cache(mut self, cache: Arc<SolveCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a routed [`Portfolio`]: every solve's sample stage then
    /// races the plan the portfolio's router picks for the compiled model
    /// instead of running the configured sampler. The race bypasses the
    /// cache, and its report carries a `portfolio` stage in place of
    /// `embed`/`sample`/`select`. See `docs/PORTFOLIO.md`.
    pub fn with_portfolio(mut self, portfolio: Portfolio) -> Self {
        self.portfolio = Some(portfolio);
        self
    }

    /// Sets the script-level facts (absint feature summary) the portfolio
    /// router reads alongside each compiled model's own structure. All
    /// zero unless a script driver supplies them.
    pub fn with_script_facts(mut self, facts: ScriptFacts) -> Self {
        self.script_facts = facts;
        self
    }

    /// This solver without its portfolio. Pipeline stages feed each
    /// other, so they never race.
    pub(crate) fn single_strategy(&self) -> Cow<'_, Self> {
        if self.portfolio.is_none() {
            return Cow::Borrowed(self);
        }
        Cow::Owned(Self {
            portfolio: None,
            ..self.clone()
        })
    }

    /// Caches a finished solve unless the cooperative stop flag cut it
    /// short: a cancelled solve carries a truncated sample set.
    fn cache_completed(&self, fp: ModelFingerprint, outcome: &SolveOutcome) {
        if let Some(cache) = &self.cache {
            if self.stop.as_ref().is_none_or(|s| !s.is_stopped()) {
                cache.insert(fp, outcome.problem.num_vars(), self.seed, &outcome.samples);
            }
        }
    }

    fn rebuild_default_sampler(&mut self) {
        let mut sampler = SimulatedAnnealer::new()
            .with_num_reads(self.reads)
            .with_sweeps(384)
            .with_seed(self.seed);
        if let Some(stop) = &self.stop {
            sampler = sampler.with_stop(stop.clone());
        }
        self.sampler = Arc::new(sampler);
    }

    /// The sampler's reported name.
    pub fn sampler_name(&self) -> &'static str {
        self.sampler.name()
    }

    /// Encodes a constraint using this solver's strength/bias settings.
    ///
    /// # Errors
    /// Propagates encoding failures.
    pub fn encode(&self, constraint: &Constraint) -> Result<EncodedProblem, ConstraintError> {
        match self.bias {
            Some(bias) => constraint.encode_with(self.strength, bias),
            None if self.strength == DEFAULT_STRENGTH => constraint.encode(),
            None => {
                // Custom strength, default per-constraint bias.
                constraint.encode_with(self.strength, Constraint::default_bias(constraint))
            }
        }
    }

    /// Runs the formulation linter ([`qsmt_lint`]) over the compiled QUBO
    /// without sampling: a static soundness analysis of the encoding
    /// itself (penalty gaps, dead variables, precision erosion, …).
    ///
    /// # Errors
    /// Propagates encoding failures — linting happens after compilation.
    pub fn lint(&self, constraint: &Constraint) -> Result<LintReport, ConstraintError> {
        let problem = self.encode(constraint)?;
        Ok(lint_qubo(&problem.qubo, &self.lint_config))
    }

    fn reject_on_errors(report: &LintReport) -> Result<(), ConstraintError> {
        if report.has_errors() {
            let codes = report.codes().join(", ");
            return Err(ConstraintError::LintRejected {
                summary: format!("{} [{codes}]", report.summary()),
            });
        }
        Ok(())
    }

    /// Solves a constraint end to end and reports every stage: per-stage
    /// timings, QUBO shape, lint, presolve and embedding statistics,
    /// sampler counters, and the raw span log (see
    /// `docs/OBSERVABILITY.md` for every field's meaning).
    ///
    /// The stages run in order: compile, lint (which the deny gate of
    /// [`StringSolver::with_deny_lint_errors`] reads), presolve, then
    /// either embed → sample → select → cache insert or — with a
    /// [`Portfolio`] attached — one `portfolio` race stage. On the solo
    /// path presolve decides: when persistency fixes every variable and
    /// the lifted state validates, a `select` stage over that one state
    /// answers the solve (`sampling.sampler` is `"presolve"`) and no
    /// sampler, embedding probe or cache runs. Lint, the embedding probe
    /// (a minor embedding onto a Chimera topology sized to fit the
    /// problem) and a presolve that leaves variables open are read-only:
    /// the sample set is bit-identical to running the sampler on the
    /// encoded QUBO directly.
    ///
    /// # Errors
    /// Propagates encoding failures, and — in deny-on-error mode — lint
    /// rejections. Sampling itself is infallible.
    pub fn solve(
        &self,
        constraint: &Constraint,
    ) -> Result<(SolveOutcome, SolveReport), ConstraintError> {
        let rec = Recorder::new();
        let mut stages = Vec::with_capacity(6);

        let (problem, compile_us) = stage(&rec, &mut stages, "compile", || self.encode(constraint));
        let problem = problem?;
        let qubo = problem.qubo.shape();
        rec.event(
            "encoded",
            format!("{} vars via {}", qubo.num_vars, problem.name),
        );
        let compile = CompileStats {
            constraint: constraint.describe(),
            encoding: problem.name.to_string(),
            time_us: compile_us,
        };

        let (lint_report, lint_us) = stage(&rec, &mut stages, "lint", || {
            lint_qubo(&problem.qubo, &self.lint_config)
        });
        rec.event("linted", lint_report.summary());
        if self.deny_lint_errors {
            Self::reject_on_errors(&lint_report)?;
        }

        let (reduced, presolve_us) = stage(&rec, &mut stages, "presolve", || {
            qsmt_qubo::presolve(&problem.qubo)
        });
        let fixed = reduced.num_fixed();
        let original = problem.qubo.num_vars();
        let presolve = PresolveStats {
            time_us: presolve_us,
            original_vars: original,
            fixed_vars: fixed,
            reduced_vars: original - fixed,
            reduction_ratio: if original == 0 {
                0.0
            } else {
                fixed as f64 / original as f64
            },
        };

        let sampled = match &self.portfolio {
            Some(portfolio) => self.race_stage(constraint, &problem, portfolio, &rec, &mut stages),
            None => self.solo_stages(constraint, problem, &reduced, &rec, &mut stages),
        };
        let outcome = sampled.outcome;
        let report = SolveReport {
            constraint: constraint.describe(),
            solution: outcome.solution.to_string(),
            energy: outcome.energy,
            valid: outcome.valid,
            total_us: rec.elapsed_us(),
            stages,
            compile,
            qubo,
            lint: Some(lint_report.to_stats(lint_us)),
            presolve,
            embedding: sampled.embedding,
            sampling: sampled.sampling,
            select: sampled.select,
            dynamics: sampled.dynamics,
            cache: sampled.cache,
            portfolio: sampled.portfolio,
            spans: rec.finish(),
        };
        Ok((outcome, report))
    }

    /// The solo half of [`StringSolver::solve`] past presolve, where
    /// presolve decides. When persistency fixed every variable, the
    /// lifted forced state is the model's only ground state, and a
    /// validating one answers the solve with no embedding probe, cache
    /// access or sampler call. Otherwise (variables remain, or the
    /// encoding's ground state fails validation) the solve anneals.
    fn solo_stages(
        &self,
        constraint: &Constraint,
        problem: EncodedProblem,
        reduced: &ReducedModel,
        rec: &Recorder,
        stages: &mut Vec<StageTiming>,
    ) -> Sampled {
        if reduced.model.num_vars() > 0 {
            return self.sample_stages(constraint, problem, rec, stages);
        }
        let presolved = self.presolved(constraint, problem, reduced, rec, stages);
        if presolved.outcome.valid {
            rec.event(
                "presolved",
                format!(
                    "all {} vars fixed: lifted state validates, no sampling",
                    presolved.outcome.problem.num_vars()
                ),
            );
            return presolved;
        }
        rec.event("presolve", "lifted state fails validation: annealing");
        self.sample_stages(constraint, presolved.outcome.problem, rec, stages)
    }

    /// Runs `select` over the lifted forced state of a fully fixed model
    /// as a one-read sample set reported under the `"presolve"` sampler.
    fn presolved(
        &self,
        constraint: &Constraint,
        problem: EncodedProblem,
        reduced: &ReducedModel,
        rec: &Recorder,
        stages: &mut Vec<StageTiming>,
    ) -> Sampled {
        let state = reduced.lift(&[]);
        let energy = problem.qubo.energy(&state);
        let samples = SampleSet::from_reads(vec![(state, energy)]);
        let ((outcome, decoded_states, valid_rank), select_us) =
            stage(rec, stages, "select", || {
                self.select(constraint, problem, samples)
            });
        Sampled {
            sampling: Self::sampler_stats(
                "presolve",
                &outcome.samples,
                SamplerRunStats::default(),
                0,
            ),
            outcome,
            embedding: None,
            select: SelectStats {
                time_us: select_us,
                decoded_states,
                valid_rank,
            },
            dynamics: None,
            cache: None,
            portfolio: None,
        }
    }

    /// The annealed half of the solo path: embed, sample behind the
    /// cache (when attached), select, and insert the result.
    fn sample_stages(
        &self,
        constraint: &Constraint,
        problem: EncodedProblem,
        rec: &Recorder,
        stages: &mut Vec<StageTiming>,
    ) -> Sampled {
        let (embedding, _) = stage(rec, stages, "embed", || self.probe_embedding(&problem.qubo));
        if let Some(e) = &embedding {
            rec.event(
                "embedded",
                format!(
                    "{} logical → {} physical on {}",
                    e.num_logical, e.num_physical_qubits, e.topology
                ),
            );
        }

        let start = rec.elapsed_us();
        // The trace span stays open until the per-read child spans are
        // spliced in below, so their intervals nest inside it.
        let trace_sample = qsmt_trace::span("sample");
        let trace_base_us = qsmt_trace::active().then(qsmt_trace::now_us);
        // Consult the cache (when attached) before paying for sampling:
        // an exact fingerprint hit replays the cached sample set, a shape
        // hit warm-starts a short reverse anneal, a miss samples cold.
        let lookup = self.cache.as_ref().map(|solve_cache| {
            let fp = problem.qubo.fingerprint();
            let t = Instant::now();
            let allow_warm = self.sampler.supports_initial_state();
            let found = solve_cache.lookup(fp, problem.num_vars(), self.reads as u64, allow_warm);
            (fp, found, t.elapsed().as_micros() as u64)
        });
        let cache_stats = |outcome: &str, lookup_us, source: Option<(u64, u64)>, warm_sweeps| {
            Some(CacheStats {
                outcome: outcome.to_string(),
                lookup_us,
                warm_sweeps,
                source_reads: source.map(|(reads, _)| reads),
                source_seed: source.map(|(_, seed)| seed),
            })
        };
        // `supports_initial_state` gated the warm lookup, so the configured
        // sampler provides the warm variant; fall back to a cold run if a
        // custom sampler breaks that contract. Trajectory probes observe,
        // never steer: the sample set is bit-identical to the un-probed
        // path (pinned by tests).
        let run = |warm_state: Option<Vec<u8>>| {
            let _s = rec.span("sample");
            let warm = warm_state.and_then(|state| self.sampler.warm_started(state));
            warm.as_deref()
                .unwrap_or(&*self.sampler)
                .sample_dynamics(&problem.qubo, &ProbeConfig::default())
        };
        let name = self.sampler.name();
        let (samples, run_stats, raw_dynamics, sampler_name, cache, insert_fp) = match lookup {
            Some((
                _,
                CacheLookup::Exact {
                    samples,
                    reads,
                    seed,
                },
                lookup_us,
            )) => {
                rec.event("cache", "exact hit: replaying cached sample set");
                let stats = cache_stats("exact-hit", lookup_us, Some((reads, seed)), None);
                let (run, raw) = (SamplerRunStats::default(), SamplerDynamics::default());
                (samples, run, raw, "cache", stats, None)
            }
            Some((fp, CacheLookup::Warm(state), lookup_us)) => {
                rec.event("cache", "shape hit: warm-starting reverse anneal");
                let (samples, run_stats, raw) = run(Some(state));
                let stats = cache_stats("warm-start", lookup_us, None, run_stats.sweeps);
                (samples, run_stats, raw, name, stats, Some(fp))
            }
            Some((fp, CacheLookup::Miss, lookup_us)) => {
                let (samples, run_stats, raw) = run(None);
                let stats = cache_stats("miss", lookup_us, None, None);
                (samples, run_stats, raw, name, stats, Some(fp))
            }
            None => {
                let (samples, run_stats, raw) = run(None);
                (samples, run_stats, raw, name, None, None)
            }
        };
        let sample_us = rec.elapsed_us() - start;
        stages.push(StageTiming {
            label: "sample".to_string(),
            start_us: start,
            dur_us: sample_us,
        });
        // Splice the sampler's per-read wall-clock intervals (measured
        // relative to its own start) onto the trace axis as children of
        // the still-open sample span. `trace_base_us` was captured just
        // before sampling began, so read intervals stay contained.
        if let Some(base_us) = trace_base_us {
            for (i, &(offset_us, dur_us)) in raw_dynamics.read_spans.iter().enumerate() {
                qsmt_trace::span_at(&format!("read {i}"), base_us + offset_us, dur_us);
            }
        }
        drop(trace_sample);
        let sampling = Self::sampler_stats(sampler_name, &samples, run_stats, sample_us);
        let dynamics = Self::dynamics_stats(raw_dynamics, run_stats.acceptance_rate());
        if let Some(d) = &dynamics {
            rec.event(
                "dynamics",
                format!("{} trajectory", d.stall_verdict.as_str()),
            );
        }

        let ((outcome, decoded_states, valid_rank), select_us) =
            stage(rec, stages, "select", || {
                self.select(constraint, problem, samples)
            });
        if let Some(fp) = insert_fp {
            self.cache_completed(fp, &outcome);
        }
        Sampled {
            outcome,
            embedding,
            sampling,
            select: SelectStats {
                time_us: select_us,
                decoded_states,
                valid_rank,
            },
            dynamics,
            cache,
            portfolio: None,
        }
    }

    /// Returns up to `limit` *distinct, valid* solutions ordered by
    /// energy — model enumeration for test-generation workloads, where
    /// one witness per branch is rarely enough. A filter over the sample
    /// set of one [`StringSolver::solve`], so it pays for that solve's
    /// whole report (lint, presolve, embedding probe, sampler dynamics),
    /// reads and writes an attached cache — a shape hit warm-starts a
    /// short reverse anneal, which can surface fewer distinct witnesses
    /// than a cold run — and races an attached portfolio, whose winner's
    /// sample set is the one filtered. A constraint that presolve
    /// answers on the solo path yields its single lifted witness:
    /// persistency fixed every variable, so that state is the model's
    /// only ground state.
    ///
    /// The degenerate ground states of the paper's generation encodings
    /// (palindromes, regexes, flexible fills) make this natural: one
    /// sampling pass usually surfaces many distinct witnesses.
    ///
    /// # Errors
    /// Propagates [`StringSolver::solve`] failures.
    pub fn solve_many(
        &self,
        constraint: &Constraint,
        limit: usize,
    ) -> Result<Vec<Solution>, ConstraintError> {
        let (outcome, _) = self.solve(constraint)?;
        let mut out = Vec::new();
        for sample in outcome.samples.iter() {
            if out.len() >= limit {
                break;
            }
            let Ok(solution) = outcome.problem.decode_state(&sample.state) else {
                continue;
            };
            if constraint.validate(&solution) && !out.contains(&solution) {
                out.push(solution);
            }
        }
        Ok(out)
    }

    /// Post-selection: lowest-energy sample whose decoding validates;
    /// falls back to the overall best sample when none validates. Also
    /// returns the counters telemetry wants: how many distinct states
    /// were decoded before the search stopped, and the energy-order rank
    /// of the chosen valid sample.
    pub(crate) fn select(
        &self,
        constraint: &Constraint,
        problem: EncodedProblem,
        samples: SampleSet,
    ) -> (SolveOutcome, usize, Option<usize>) {
        let mut best: Option<(Solution, f64)> = None;
        let mut valid_pick: Option<(Solution, f64)> = None;
        let mut decoded = 0usize;
        let mut valid_rank = None;
        for (rank, sample) in samples.iter().enumerate() {
            let Ok(solution) = problem.decode_state(&sample.state) else {
                continue;
            };
            decoded += 1;
            if best.is_none() {
                best = Some((solution.clone(), sample.energy));
            }
            if constraint.validate(&solution) {
                valid_pick = Some((solution, sample.energy));
                valid_rank = Some(rank);
                break;
            }
        }
        let (solution, energy, valid) = match (valid_pick, best) {
            (Some((s, e)), _) => (s, e, true),
            (None, Some((s, e))) => (s, e, false),
            (None, None) => (Solution::Text(String::new()), f64::NAN, false),
        };
        (
            SolveOutcome {
                problem,
                samples,
                solution,
                energy,
                valid,
            },
            decoded,
            valid_rank,
        )
    }

    /// Condenses raw probe observations into the report's `dynamics`
    /// section (schema v4). Returns `None` when the sampler produced no
    /// observations, keeping the section additive over v3 reports.
    fn dynamics_stats(
        raw: SamplerDynamics,
        final_acceptance: Option<f64>,
    ) -> Option<DynamicsStats> {
        if raw.is_empty() {
            return None;
        }
        let time_to_target = DynamicsStats::time_to_target_curve(&raw.energy_trace);
        let last_improvement_fraction = DynamicsStats::last_improvement_fraction(&raw.energy_trace);
        let stall_verdict = StallVerdict::classify(last_improvement_fraction, final_acceptance);
        Some(DynamicsStats {
            energy_trace: raw.energy_trace,
            beta_acceptance: raw.beta_acceptance,
            swap_acceptance: raw.swap_acceptance,
            ess_trace: raw.ess_trace,
            aspiration_hits: raw.aspiration_hits,
            proposal_latency_ns: HistogramSummary::from_samples(&raw.proposal_latency_ns),
            sweep_improvement: HistogramSummary::from_samples(&raw.sweep_improvement),
            time_to_target,
            last_improvement_fraction,
            stall_verdict,
        })
    }

    /// Summarizes a sample set plus sampler counters into telemetry form.
    pub(crate) fn sampler_stats(
        name: &str,
        samples: &SampleSet,
        run: SamplerRunStats,
        time_us: u64,
    ) -> SamplerStats {
        const TOL: f64 = 1e-9;
        let reads = samples.total_reads() as u64;
        let stats = samples.energy_stats();
        let (best, mean, std_dev, max) = match stats {
            Some(s) => (s.min, s.mean, s.std_dev, s.max),
            None => (f64::NAN, f64::NAN, f64::NAN, f64::NAN),
        };
        // Time-to-target: TTS(0.99) against the best energy *this run*
        // observed (the true ground energy is unknown in production).
        let tts99_us = if reads == 0 {
            None
        } else {
            let per_read = Duration::from_micros(time_us / reads.max(1));
            metrics::time_to_solution(samples, best, TOL, per_read, 0.99)
                .map(|d| d.as_micros() as u64)
        };
        // Prefer the sampler's own timing for throughput (it excludes
        // compile/aggregation overhead the stage clock includes); fall back
        // to the stage time when the sampler didn't time itself.
        let timed = SamplerRunStats {
            elapsed_us: run.elapsed_us.or(Some(time_us)),
            ..run
        };
        SamplerStats {
            sampler: name.to_string(),
            time_us,
            reads,
            distinct_states: samples.len(),
            sweeps: run.sweeps,
            proposals: run.proposals,
            accepted: run.accepted,
            replicas: run.replicas,
            acceptance_rate: run.acceptance_rate(),
            proposals_per_sec: timed.proposals_per_sec(),
            flips_per_sec: timed.flips_per_sec(),
            best_energy: best,
            mean_energy: mean,
            std_dev_energy: std_dev,
            max_energy: max,
            success_fraction: samples.success_fraction(TOL),
            tts99_us,
        }
    }

    /// Projects the logical QUBO onto the smallest Chimera topology that
    /// admits a minor embedding, yielding chain statistics for the report.
    /// Returns `None` for empty models, models too large to probe cheaply
    /// (> 512 variables), and problems the router cannot place within the
    /// size ladder. When a [`SolveCache`] is attached, embeddings are
    /// reused across structurally identical models via the shape hash —
    /// minor embedding depends only on the adjacency structure, so a
    /// coefficient change never invalidates it.
    fn probe_embedding(&self, model: &QuboModel) -> Option<EmbeddingStats> {
        let n = model.num_vars();
        if n == 0 || n > 512 {
            return None;
        }
        let start = Instant::now();
        let shape = self.cache.as_ref().map(|c| (c, model.fingerprint().shape));
        if let Some((cache, shape)) = &shape {
            if let Some((topology, emb)) = cache.embedding_get(*shape) {
                return Some(EmbeddingStats::from_chains(
                    topology,
                    emb.chains(),
                    start.elapsed().as_micros() as u64,
                ));
            }
        }
        let problem = qsmt_qpu::QpuSimulator::problem_graph(model);
        // Smallest C(m, m, 4) with at least n qubits, then grow the grid
        // until the router finds a placement (denser problems need slack).
        let mut m = 1usize;
        while 8 * m * m < n {
            m += 1;
        }
        for grid in m..m + 4 {
            let topo = qsmt_qpu::Topology::chimera(grid, grid, 4);
            if let Ok(emb) = qsmt_qpu::embed(&problem, topo.graph(), self.seed, 2) {
                let stats = EmbeddingStats::from_chains(
                    topo.name(),
                    emb.chains(),
                    start.elapsed().as_micros() as u64,
                );
                if let Some((cache, shape)) = shape {
                    cache.embedding_insert(shape, topo.name(), emb);
                }
                return Some(stats);
            }
        }
        None
    }
}

/// Runs one report stage: times it on the recorder's clock, records it
/// as a span on both the recorder and the active trace, and appends its
/// [`StageTiming`]. Returns the stage's value and duration.
pub(crate) fn stage<T>(
    rec: &Recorder,
    stages: &mut Vec<StageTiming>,
    label: &'static str,
    run: impl FnOnce() -> T,
) -> (T, u64) {
    let start_us = rec.elapsed_us();
    let value = {
        let _s = rec.span(label);
        let _t = qsmt_trace::span(label);
        run()
    };
    let dur_us = rec.elapsed_us() - start_us;
    stages.push(StageTiming {
        label: label.to_string(),
        start_us,
        dur_us,
    });
    (value, dur_us)
}

/// What the sampling half of a solve (solo or raced) hands the report.
pub(crate) struct Sampled {
    pub(crate) outcome: SolveOutcome,
    pub(crate) embedding: Option<EmbeddingStats>,
    pub(crate) sampling: SamplerStats,
    pub(crate) select: SelectStats,
    pub(crate) dynamics: Option<DynamicsStats>,
    pub(crate) cache: Option<CacheStats>,
    pub(crate) portfolio: Option<PortfolioStats>,
}

impl std::fmt::Debug for StringSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StringSolver")
            .field("sampler", &self.sampler.name())
            .field("strength", &self.strength)
            .field("bias", &self.bias)
            .finish()
    }
}

/// The result of one end-to-end solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The encoded problem (QUBO + decode scheme).
    pub problem: EncodedProblem,
    /// The full aggregated sample set from the sampler.
    pub samples: SampleSet,
    /// The reported answer (lowest-energy valid sample, or lowest-energy
    /// sample when nothing validated).
    pub solution: Solution,
    /// QUBO energy of the reported answer.
    pub energy: f64,
    /// Whether the reported answer passed semantic validation.
    pub valid: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsmt_anneal::ExactSolver;

    fn solver() -> StringSolver {
        StringSolver::with_defaults().with_seed(42)
    }

    #[test]
    fn solves_equality() {
        let (out, _) = solver()
            .solve(&Constraint::Equality {
                target: "hi".into(),
            })
            .unwrap();
        assert_eq!(out.solution.as_text(), Some("hi"));
        assert!(out.valid);
    }

    #[test]
    fn solves_reverse_and_replace() {
        let (out, _) = solver()
            .solve(&Constraint::Reverse {
                input: "abc".into(),
            })
            .unwrap();
        assert_eq!(out.solution.as_text(), Some("cba"));
        let (out, _) = solver()
            .solve(&Constraint::ReplaceAll {
                input: "aba".into(),
                from: 'a',
                to: 'z',
            })
            .unwrap();
        assert_eq!(out.solution.as_text(), Some("zbz"));
    }

    #[test]
    fn solves_palindrome_with_validation() {
        let (out, _) = solver().solve(&Constraint::Palindrome { len: 4 }).unwrap();
        assert!(out.valid, "post-selected palindrome must validate");
        let t = out.solution.as_text().unwrap();
        assert_eq!(t.chars().rev().collect::<String>(), t);
    }

    #[test]
    fn solves_regex_with_post_selection() {
        let (out, _) = solver()
            .solve(&Constraint::Regex {
                pattern: "a[bc]+".into(),
                len: 4,
            })
            .unwrap();
        assert!(out.valid, "post-selection must find an NFA-valid sample");
        let t = out.solution.as_text().unwrap();
        assert!(t.starts_with('a'));
        assert!(t[1..].chars().all(|c| c == 'b' || c == 'c'), "{t:?}");
    }

    #[test]
    fn solves_includes_index() {
        let (out, _) = solver()
            .solve(&Constraint::Includes {
                haystack: "hello world".into(),
                needle: "world".into(),
            })
            .unwrap();
        assert_eq!(out.solution.as_index(), Some(6));
        assert!(out.valid);
    }

    #[test]
    fn custom_sampler_is_used() {
        let s = StringSolver::new(Arc::new(ExactSolver::new()));
        assert_eq!(s.sampler_name(), "exact");
        let (out, _) = s
            .solve(&Constraint::Equality {
                target: "ab".into(),
            })
            .unwrap();
        assert_eq!(out.solution.as_text(), Some("ab"));
        assert!(out.valid);
    }

    #[test]
    fn with_reads_controls_sampling_depth() {
        let (out, _) = StringSolver::with_defaults()
            .with_seed(2)
            .with_reads(8)
            .solve(&Constraint::Palindrome { len: 2 })
            .unwrap();
        assert_eq!(out.samples.total_reads(), 8);
        assert!(out.valid);
    }

    #[test]
    fn solve_many_returns_distinct_valid_witnesses() {
        let sols = solver()
            .solve_many(&Constraint::Palindrome { len: 3 }, 5)
            .unwrap();
        assert!(sols.len() > 1, "palindromes are degenerate: expect several");
        let mut seen = std::collections::HashSet::new();
        for s in &sols {
            let t = s.as_text().expect("text").to_string();
            assert_eq!(t.chars().rev().collect::<String>(), t);
            assert!(seen.insert(t), "witnesses must be distinct");
        }
    }

    #[test]
    fn solve_many_respects_limit_and_unique_answers() {
        let sols = solver()
            .solve_many(
                &Constraint::Equality {
                    target: "ab".into(),
                },
                5,
            )
            .unwrap();
        // Equality has exactly one satisfying string.
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].as_text(), Some("ab"));
        let limited = solver()
            .solve_many(&Constraint::Palindrome { len: 3 }, 2)
            .unwrap();
        assert!(limited.len() <= 2);
    }

    #[test]
    fn sample_sets_match_a_direct_sampler_run_at_the_same_seed() {
        // Lint, a presolve that leaves variables open, the embedding
        // probe, trajectory probes and the cache are observational:
        // every annealed sample set `solve` reports is the one a bare
        // `Sampler::sample` of the encoded QUBO yields. A presolved
        // stage reports that run's ground state as its one read.
        let direct = |c: &Constraint| {
            SimulatedAnnealer::new()
                .with_num_reads(64)
                .with_sweeps(384)
                .with_seed(42)
                .sample(&solver().encode(c).unwrap().qubo)
        };
        let c = Constraint::Palindrome { len: 2 };
        let (solo, report) = solver().solve(&c).unwrap();
        assert_eq!(solo.samples, direct(&c), "solo solve");
        assert_eq!(report.solution, solo.solution.to_string());
        assert!(report.valid);

        let cached = solver().with_cache(Arc::new(SolveCache::new(4)));
        cached.solve(&c).unwrap();
        let (replay, report) = cached.solve(&c).unwrap();
        assert_eq!(report.cache.as_ref().unwrap().outcome, "exact-hit");
        assert_eq!(replay.samples, direct(&c), "exact-hit replay");

        let pipeline =
            crate::Pipeline::new(crate::Start::Generate(Constraint::Palindrome { len: 3 }))
                .then(crate::Step::Reverse)
                .then(crate::Step::ReplaceAll { from: 'a', to: 'b' });
        let run = pipeline.run(&solver()).unwrap();
        assert_eq!(run.stages.len(), 3);
        for stage in &run.stages {
            let direct = direct(&stage.constraint);
            if stage.report.sampling.sampler == "presolve" {
                let (lifted, ground) = (stage.outcome.samples.best(), direct.best());
                assert_eq!(lifted.map(|s| &s.state), ground.map(|s| &s.state));
                assert_eq!(lifted.map(|s| s.energy), ground.map(|s| s.energy));
            } else {
                assert_eq!(stage.outcome.samples, direct, "pipeline stage");
            }
        }
        let samplers: Vec<&str> = run
            .stages
            .iter()
            .map(|s| s.report.sampling.sampler.as_str())
            .collect();
        assert_eq!(samplers, ["simulated-annealing", "presolve", "presolve"]);
    }

    #[test]
    fn report_carries_dynamics_from_probed_sampler() {
        let (_, report) = solver().solve(&Constraint::Palindrome { len: 2 }).unwrap();
        let d = report.dynamics.as_ref().expect("SA exposes dynamics");
        assert!(!d.energy_trace.is_empty());
        assert!(!d.beta_acceptance.is_empty());
        assert!(d.proposal_latency_ns.is_some());
        assert!(d.sweep_improvement.is_some());
        assert!(d.last_improvement_fraction >= 0.0 && d.last_improvement_fraction <= 1.0);
        // TTT curve covers the gap fractions in order and ends at the
        // sweep where the final best energy was reached.
        assert!(!d.time_to_target.is_empty());
        assert!(d
            .time_to_target
            .windows(2)
            .all(|w| w[0].gap_fraction < w[1].gap_fraction && w[0].sweep <= w[1].sweep));
        // The verdict made it into the event stream too.
        assert!(report.spans.iter().any(|s| s.name == "dynamics"));
    }

    #[test]
    fn report_stages_are_ordered_and_timed() {
        let (_, report) = solver().solve(&Constraint::Palindrome { len: 2 }).unwrap();
        let labels: Vec<&str> = report.stages.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["compile", "lint", "presolve", "embed", "sample", "select"]
        );
        // Stage starts are monotone non-decreasing and fit in the total.
        for pair in report.stages.windows(2) {
            assert!(pair[0].start_us <= pair[1].start_us);
            assert!(pair[0].start_us + pair[0].dur_us <= pair[1].start_us);
        }
        let last = report.stages.last().unwrap();
        assert!(last.start_us + last.dur_us <= report.total_us);
        assert!(!report.spans.is_empty());
    }

    #[test]
    fn report_carries_qubo_sampler_and_embedding_stats() {
        let (out, report) = solver().solve(&Constraint::Palindrome { len: 4 }).unwrap();
        assert_eq!(report.qubo.num_vars, out.problem.num_vars());
        assert!(report.qubo.max_abs_coefficient > 0.0);
        let s = &report.sampling;
        assert_eq!(s.sampler, "simulated-annealing");
        assert_eq!(s.reads, 64);
        assert!(s.best_energy <= s.mean_energy);
        assert!(s.mean_energy <= s.max_energy);
        assert!(s.acceptance_rate.is_some(), "SA exposes move counters");
        assert!(s.proposals_per_sec.is_some(), "SA times its own run");
        assert!(s.flips_per_sec.is_some());
        assert!(s.success_fraction > 0.0);
        assert!(s.tts99_us.is_some());
        let e = report.embedding.as_ref().expect("small model embeds");
        assert_eq!(e.num_logical, out.problem.num_vars());
        assert!(e.num_physical_qubits >= e.num_logical);
        assert!(e.max_chain_length >= 1);
        let total: u64 = e.chain_length_histogram.iter().sum();
        assert_eq!(total as usize, e.num_logical);
        assert_eq!(report.select.valid_rank.is_some(), out.valid);
        assert!(report.select.decoded_states > 0);
    }

    #[test]
    fn lint_is_clean_on_sound_formulations() {
        let report = solver()
            .lint(&Constraint::Reverse {
                input: "abc".into(),
            })
            .unwrap();
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn deny_mode_passes_sound_encodings_and_reports_lint_stage() {
        // Solo and raced solves gate on the lint stage's own report.
        for s in [
            solver().with_deny_lint_errors(true),
            solver()
                .with_deny_lint_errors(true)
                .with_portfolio(Portfolio::new()),
        ] {
            let (out, report) = s
                .solve(&Constraint::Equality {
                    target: "hi".into(),
                })
                .unwrap();
            assert!(out.valid);
            let lint = report.lint.as_ref().expect("every solve lints");
            assert_eq!(lint.errors, 0);
            assert_eq!(report.stages[1].label, "lint");
        }
    }

    #[test]
    fn deny_gate_rejects_error_reports() {
        // Build an unsound model directly (under-weighted exactly-one
        // clique overwhelmed by reward terms) and check the gate logic.
        let mut m = QuboModel::new(3);
        qsmt_qubo::PenaltyBuilder::new(&mut m)
            .exactly_one(&[0, 1, 2], 1.0)
            .bit_target(0, true, 5.0)
            .bit_target(1, true, 5.0);
        let report = qsmt_lint::lint_qubo(&m, &LintConfig::default());
        assert!(report.has_errors());
        let err = StringSolver::reject_on_errors(&report).unwrap_err();
        match err {
            ConstraintError::LintRejected { summary } => {
                assert!(summary.contains("penalty-gap"), "{summary}");
            }
            other => panic!("expected LintRejected, got {other:?}"),
        }
    }

    #[test]
    fn encode_error_propagates() {
        assert!(solver()
            .solve(&Constraint::Equality {
                target: "héllo".into()
            })
            .is_err());
    }

    #[test]
    fn stop_flag_survives_builder_reordering_and_cancels_promptly() {
        use std::time::{Duration, Instant};
        // `with_stop` before `with_reads`/`with_seed`: every rebuild of
        // the default sampler must re-attach the flag.
        let stop = StopFlag::new();
        let s = StringSolver::with_defaults()
            .with_stop(stop.clone())
            .with_seed(9)
            .with_reads(4096);
        stop.stop();
        let started = Instant::now();
        // A tripped flag cancels before the first sweep: a read budget
        // this size would otherwise take far longer than the assertion
        // allows, and the call still returns a well-formed outcome.
        let (out, report) = s.solve(&Constraint::Palindrome { len: 5 }).unwrap();
        assert_eq!(report.sampling.sampler, "simulated-annealing");
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "tripped stop flag did not cut the solve short: {:?}",
            started.elapsed()
        );
        let _ = out.valid;
    }

    #[test]
    fn untripped_stop_flag_keeps_solves_bit_identical() {
        let c = Constraint::Palindrome { len: 3 };
        let plain = solver().solve(&c);
        let flagged = solver().with_stop(StopFlag::new()).solve(&c);
        let (plain, flagged) = (plain.unwrap().0, flagged.unwrap().0);
        assert_eq!(plain.solution, flagged.solution);
        assert_eq!(plain.energy, flagged.energy);
        assert_eq!(plain.samples, flagged.samples);
    }

    /// Delegates to a real annealer but counts invocations, so a test
    /// can prove an exact cache hit never reaches the sampler and a warm
    /// start goes through the configured sampler — not a silently
    /// substituted built-in. The name is deliberately custom: warm-start
    /// eligibility is a trait capability, not a name match.
    struct CountingSampler {
        inner: SimulatedAnnealer,
        calls: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl CountingSampler {
        fn with_defaults() -> Self {
            Self {
                inner: SimulatedAnnealer::new().with_num_reads(64).with_sweeps(384),
                calls: Arc::new(std::sync::atomic::AtomicUsize::new(0)),
            }
        }
    }

    impl Sampler for CountingSampler {
        fn sample(&self, model: &QuboModel) -> SampleSet {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.sample(model)
        }

        fn name(&self) -> &'static str {
            "counting-sa"
        }

        fn supports_initial_state(&self) -> bool {
            true
        }

        fn warm_started(&self, state: Vec<u8>) -> Option<Arc<dyn Sampler>> {
            // Keep the instrumentation: the warm variant shares this
            // sampler's call counter.
            Some(Arc::new(CountingSampler {
                inner: self.inner.clone().reverse_anneal_from(state),
                calls: Arc::clone(&self.calls),
            }))
        }
    }

    #[test]
    fn exact_cache_hit_replays_without_invoking_the_sampler() {
        let counting = Arc::new(CountingSampler::with_defaults());
        let calls = Arc::clone(&counting.calls);
        let cache = Arc::new(SolveCache::new(16));
        let s = StringSolver::new(counting).with_cache(cache);
        let c = Constraint::Palindrome { len: 2 };
        let (cold, _) = s.solve(&c).unwrap();
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        let (hit, _) = s.solve(&c).unwrap();
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "exact hit must not sample again"
        );
        // The cached sample set replays through deterministic
        // post-selection, so the hit is bit-identical to the cold solve.
        assert_eq!(hit.solution, cold.solution);
        assert_eq!(hit.energy, cold.energy);
        assert_eq!(hit.samples, cold.samples);
    }

    #[test]
    fn warm_starts_go_through_the_configured_sampler() {
        let counting = Arc::new(CountingSampler::with_defaults());
        let calls = Arc::clone(&counting.calls);
        let cache = Arc::new(SolveCache::new(16));
        let s = StringSolver::new(counting).with_cache(cache);
        s.solve(&Constraint::Prefix {
            prefix: "ab".into(),
            len: 3,
        })
        .unwrap();
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        // Same shape, different coefficients: a warm start. The counter
        // advancing proves the custom sampler (via its warm variant) ran
        // the refinement — not a silently substituted built-in annealer.
        let (warm, report) = s
            .solve(&Constraint::Prefix {
                prefix: "cd".into(),
                len: 3,
            })
            .unwrap();
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::SeqCst),
            2,
            "warm start must sample through the configured sampler"
        );
        assert_eq!(report.cache.unwrap().outcome, "warm-start");
        assert!(warm.valid);
        assert!(warm.solution.as_text().unwrap().starts_with("cd"));
    }

    #[test]
    fn presolve_answers_without_sampler_cache_or_embedding() {
        let counting = Arc::new(CountingSampler::with_defaults());
        let calls = Arc::clone(&counting.calls);
        let cache = Arc::new(SolveCache::new(16));
        let s = StringSolver::new(counting).with_cache(Arc::clone(&cache));
        let (out, report) = s
            .solve(&Constraint::Reverse {
                input: "abc".into(),
            })
            .unwrap();
        assert_eq!(out.solution.as_text(), Some("cba"));
        assert!(out.valid);
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 0);
        assert!(
            cache.is_empty(),
            "a presolved solve never touches the cache"
        );
        let labels: Vec<&str> = report.stages.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["compile", "lint", "presolve", "select"]);
        assert_eq!(report.sampling.sampler, "presolve");
        assert_eq!(report.sampling.reads, 1);
        assert_eq!(report.presolve.fixed_vars, report.presolve.original_vars);
        assert!(report.embedding.is_none() && report.cache.is_none());
        assert_eq!(report.select.valid_rank, Some(0));
        assert!(report.spans.iter().any(|s| s.name == "presolved"));
        assert_eq!(out.samples.total_reads(), 1);
        assert_eq!(
            out.energy,
            out.problem.qubo.energy(&out.samples.best().unwrap().state)
        );
    }

    #[test]
    fn presolved_state_that_fails_validation_falls_through_to_the_sampler() {
        // A hand-built problem whose diagonal QUBO forces the bits of
        // "a", posed against a constraint that wants "b": presolve fixes
        // every variable, the lifted state decodes to the wrong string,
        // and the solve must anneal rather than answer.
        let mut qubo = QuboModel::new(7);
        for (i, bit) in crate::encode::char_to_bits('a').unwrap().iter().enumerate() {
            qubo.add_linear(i as u32, if *bit == 1 { -1.0 } else { 1.0 });
        }
        let problem = EncodedProblem {
            qubo,
            decode: crate::problem::DecodeScheme::AsciiString { len: 1 },
            name: "hand-built",
            description: "forces \"a\"".into(),
        };
        let reduced = qsmt_qubo::presolve(&problem.qubo);
        assert_eq!(reduced.model.num_vars(), 0, "presolve fixes every bit");
        let constraint = Constraint::Equality { target: "b".into() };

        let counting = Arc::new(CountingSampler::with_defaults());
        let calls = Arc::clone(&counting.calls);
        let s = StringSolver::new(counting);
        let rec = Recorder::new();
        let mut stages = Vec::new();
        let sampled = s.solo_stages(&constraint, problem, &reduced, &rec, &mut stages);
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(sampled.sampling.sampler, "counting-sa");
        assert_eq!(sampled.sampling.reads, 64);
        // Every sample decodes to "a" or worse: nothing validates, and the
        // verdict says so instead of trusting presolve.
        assert!(!sampled.outcome.valid);
        let labels: Vec<&str> = stages.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["select", "embed", "sample", "select"]);
        let log = rec.finish();
        assert!(log.iter().all(|r| r.name != "presolved"));
        assert!(log
            .iter()
            .any(|r| r.name == "presolve" && r.detail.is_some()));
    }

    #[test]
    fn larger_read_budgets_are_not_answered_from_cache() {
        let cache = Arc::new(SolveCache::new(16));
        let c = Constraint::Palindrome { len: 2 };
        // Populate the cache with a small-budget solve …
        StringSolver::with_defaults()
            .with_seed(11)
            .with_reads(8)
            .with_cache(Arc::clone(&cache))
            .solve(&c)
            .unwrap();
        // … then ask for more reads: the cached 8-read set must not be
        // replayed; the shape entry warm-starts a solve at full budget.
        let (out, _) = StringSolver::with_defaults()
            .with_seed(11)
            .with_reads(64)
            .with_cache(cache)
            .solve(&c)
            .unwrap();
        assert_eq!(
            out.samples.total_reads(),
            64,
            "requested read budget must be honored, not the cached one"
        );
        assert!(out.valid);
    }

    #[test]
    fn cancelled_solves_are_never_cached() {
        let cache = Arc::new(SolveCache::new(16));
        let stop = StopFlag::new();
        let s = StringSolver::with_defaults()
            .with_cache(cache.clone())
            .with_stop(stop.clone());
        stop.stop();
        // A tripped flag truncates the anneal; whatever partial sample
        // set comes back must not poison the cache.
        let (_, report) = s.solve(&Constraint::Palindrome { len: 2 }).unwrap();
        assert_eq!(report.cache.unwrap().outcome, "miss");
        assert!(cache.is_empty(), "cancelled solve leaked into the cache");
    }

    #[test]
    fn reported_cache_outcomes_cover_miss_exact_hit_and_warm_start() {
        let cache = Arc::new(SolveCache::new(16));
        let s = StringSolver::with_defaults()
            .with_seed(11)
            .with_cache(cache);

        // Cold solve: a miss that runs the full 384-sweep schedule.
        let c = Constraint::Prefix {
            prefix: "ab".into(),
            len: 3,
        };
        let (cold_out, cold) = s.solve(&c).unwrap();
        let stats = cold.cache.as_ref().expect("cache attached");
        assert_eq!(stats.outcome, "miss");
        assert_eq!(stats.warm_sweeps, None);
        assert_eq!(stats.source_reads, None);
        let cold_sweeps = cold.sampling.sweeps.expect("SA reports sweeps");
        assert_eq!(cold_sweeps, 384);

        // Exact repeat: replayed from cache, sampler labelled as such.
        let (hit_out, hit) = s.solve(&c).unwrap();
        let stats = hit.cache.as_ref().expect("cache attached");
        assert_eq!(stats.outcome, "exact-hit");
        assert_eq!(hit.sampling.sampler, "cache");
        // The report discloses which solve populated the entry.
        assert_eq!(stats.source_reads, Some(64));
        assert_eq!(stats.source_seed, Some(11));
        assert_eq!(hit_out.solution, cold_out.solution);
        assert_eq!(hit_out.samples, cold_out.samples);

        // Same shape, different coefficients: the cached ground state
        // seeds a short reverse anneal instead of a cold run.
        let near = Constraint::Prefix {
            prefix: "cd".into(),
            len: 3,
        };
        let (warm_out, warm) = s.solve(&near).unwrap();
        let stats = warm.cache.as_ref().expect("cache attached");
        assert_eq!(stats.outcome, "warm-start");
        let warm_sweeps = stats.warm_sweeps.expect("warm starts report sweeps");
        assert!(
            warm_sweeps < cold_sweeps,
            "warm start ({warm_sweeps} sweeps) must beat the cold schedule ({cold_sweeps})"
        );
        assert!(warm_out.valid, "warm-started solve still post-selects");
        assert!(warm_out.solution.as_text().unwrap().starts_with("cd"));
    }

    #[test]
    fn invalid_outcome_is_flagged_not_hidden() {
        // Unsatisfiable semantics: includes over a haystack without the
        // needle — decoded index will not match find() == None unless the
        // annealer lands on the all-zero state; either way valid reflects
        // the truth.
        let (out, _) = solver()
            .solve(&Constraint::Includes {
                haystack: "xyz".into(),
                needle: "ab".into(),
            })
            .unwrap();
        if out.valid {
            assert_eq!(out.solution.as_index(), None);
        }
    }
}
