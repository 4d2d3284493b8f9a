//! Script driver: parse → compile → solve → model.

use crate::absint::{apply_tightenings, AbsintRun};
use crate::ast::{parse_command, Command};
use crate::compile::{compile, CompileError, Goal};
use crate::sexpr::{parse_sexprs, SExprError};
use qsmt_core::{ConstraintError, Portfolio, PortfolioPlan, ScriptFacts, StringSolver};
use qsmt_telemetry::{GoalKind, GoalReport, SolveReport};
use std::borrow::Cow;

/// A parsed SMT-LIB script.
#[derive(Debug, Clone)]
pub struct Script {
    commands: Vec<Command>,
}

/// Script-level error.
#[derive(Debug)]
pub enum ScriptError {
    /// Syntax error (lexing or S-expressions).
    Syntax(SExprError),
    /// Command/term parsing or sort checking failed.
    Ast(crate::ast::AstError),
    /// Compilation to QUBO goals failed.
    Compile(CompileError),
    /// Encoding a goal failed for a reason other than unsatisfiability.
    Encode(ConstraintError),
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScriptError::Syntax(e) => write!(f, "{e}"),
            ScriptError::Ast(e) => write!(f, "{e}"),
            ScriptError::Compile(e) => write!(f, "{e}"),
            ScriptError::Encode(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScriptError {}

/// check-sat verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatStatus {
    /// Every goal produced a validated model value.
    Sat,
    /// A goal is provably unsatisfiable (detected at encode time, e.g. a
    /// regex with no match of the asserted length).
    Unsat,
    /// The sampler failed to produce a validating assignment — the honest
    /// verdict for an incomplete, optimization-based decision procedure.
    Unknown,
}

impl std::fmt::Display for SatStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SatStatus::Sat => write!(f, "sat"),
            SatStatus::Unsat => write!(f, "unsat"),
            SatStatus::Unknown => write!(f, "unknown"),
        }
    }
}

/// A model value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelValue {
    /// A string assignment.
    Str(String),
    /// An integer assignment (`None` when the query had no answer, e.g.
    /// indexof over a haystack without the needle — SMT-LIB's −1).
    Int(Option<usize>),
}

impl std::fmt::Display for ModelValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelValue::Str(s) => write!(f, "{s:?}"),
            ModelValue::Int(Some(i)) => write!(f, "{i}"),
            ModelValue::Int(None) => write!(f, "(- 1)"),
        }
    }
}

/// The verdict and model of a script run.
#[derive(Debug, Clone)]
pub struct ScriptOutcome {
    /// The check-sat verdict.
    pub status: SatStatus,
    /// Variable assignments, in declaration order.
    pub model: Vec<(String, ModelValue)>,
}

/// Everything one run of a script produces ([`Script::solve`]).
#[derive(Debug, Clone)]
pub struct ScriptRun {
    /// The verdict and model.
    pub outcome: ScriptOutcome,
    /// One report per solved goal, in goal order.
    pub goals: Vec<GoalReport>,
    /// The abstract-interpretation run, when absint was on.
    pub absint: Option<AbsintRun>,
}

impl ScriptRun {
    fn unsat(goals: Vec<GoalReport>, absint: Option<AbsintRun>) -> Self {
        Self {
            outcome: ScriptOutcome {
                status: SatStatus::Unsat,
                model: Vec::new(),
            },
            goals,
            absint,
        }
    }

    /// The run's provenance — the report's `served_from` — in decision
    /// order: a confirmed static refutation never touches a sampler
    /// (`absint`); a raced run is attributed to the member that won its
    /// races (`portfolio:<member>`, or `portfolio:mixed` when goals were
    /// won by different members); a run is served from `cache` only when
    /// nothing sampled (at least one solve, every solve an exact hit),
    /// and from `presolve` by the same rule when every solve was answered
    /// by presolve's lifted state; anything else is the `solver`'s work.
    pub fn served_from(&self) -> String {
        if self.absint.as_ref().is_some_and(AbsintRun::is_refuted) {
            return "absint".to_string();
        }
        let solves = self.goals.iter().flat_map(|g| &g.solves);
        let mut winners: Vec<&str> = solves
            .clone()
            .filter_map(|s| s.portfolio.as_ref())
            .map(|p| p.winner.as_str())
            .collect();
        winners.sort_unstable();
        winners.dedup();
        let every_solve = |served: fn(&SolveReport) -> bool| {
            let mut solves = solves.clone().peekable();
            solves.peek().is_some() && solves.all(served)
        };
        match winners[..] {
            [one] => format!("portfolio:{one}"),
            [_, _, ..] => "portfolio:mixed".to_string(),
            [] if every_solve(|s| s.cache.as_ref().is_some_and(|c| c.outcome == "exact-hit")) => {
                "cache".to_string()
            }
            [] if every_solve(|s| s.sampling.sampler == "presolve") => "presolve".to_string(),
            [] => "solver".to_string(),
        }
    }
}

impl Script {
    /// Parses SMT-LIB source.
    ///
    /// # Errors
    /// Fails on lexical, syntactic, or unsupported-command errors.
    pub fn parse(src: &str) -> Result<Self, ScriptError> {
        let sexprs = parse_sexprs(src).map_err(ScriptError::Syntax)?;
        let commands = sexprs
            .iter()
            .map(parse_command)
            .collect::<Result<Vec<_>, _>>()
            .map_err(ScriptError::Ast)?;
        Ok(Self { commands })
    }

    /// The parsed commands.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Compiles the script to per-variable goals.
    ///
    /// # Errors
    /// Fails on sort errors or unsupported fragments.
    pub fn compile(&self) -> Result<Vec<Goal>, ScriptError> {
        compile(&self.commands).map_err(ScriptError::Compile)
    }

    /// Runs the abstract-interpretation pass over the script (see
    /// `docs/ABSINT.md`): lowering, fixpoint, certificate, tightenings,
    /// and routing features. Purely static — no QUBO is built.
    pub fn absint(&self) -> AbsintRun {
        AbsintRun::over(&self.commands)
    }

    /// Runs the script against a solver: the one entry point behind
    /// `qsmt solve` (every flag combination) and the serve loop.
    ///
    /// With `absint` on, the abstract-interpretation pass runs first. A
    /// statically refuted script (certificate confirmed by the replay
    /// checker) returns `unsat` without compiling anything; otherwise the
    /// derived domain tightenings are applied to the compiled goals so
    /// pinned positions never reach the sampler, and the absint feature
    /// summary reaches the portfolio router as the solver's
    /// [`ScriptFacts`].
    ///
    /// Every goal is then solved through [`StringSolver::solve`] (or
    /// [`qsmt_core::Pipeline::run`]), racing when the solver has a
    /// [`Portfolio`] attached. On an unsat verdict the goals reported so
    /// far are returned: the goal that proved unsat at encode time never
    /// ran a sampler, so it has no report.
    ///
    /// # Errors
    /// Propagates compilation errors and non-unsat encoding errors.
    pub fn solve(&self, solver: &StringSolver, absint: bool) -> Result<ScriptRun, ScriptError> {
        let mut run = absint.then(|| {
            let _t = qsmt_trace::span("absint");
            self.absint()
        });
        if run.as_ref().is_some_and(AbsintRun::is_refuted) {
            return Ok(ScriptRun::unsat(Vec::new(), run));
        }
        let mut goals = self.compile()?;
        let mut solver = Cow::Borrowed(solver);
        if let Some(run) = &mut run {
            (goals, run.vars_eliminated) = apply_tightenings(goals, &run.analysis);
            solver = Cow::Owned(
                solver
                    .into_owned()
                    .with_script_facts(Self::script_facts(run)),
            );
        }

        let mut model = Vec::with_capacity(goals.len());
        let mut reports = Vec::with_capacity(goals.len());
        let mut status = SatStatus::Sat;
        for goal in &goals {
            // Gate the label format behind an active trace so untraced
            // solves pay nothing here.
            let _goal_span =
                qsmt_trace::active().then(|| qsmt_trace::span_dyn(format!("goal {}", goal.name())));
            let solved = match goal {
                Goal::StringConstraint { constraint, .. } => {
                    solver.solve(constraint).map(|(out, report)| {
                        let text = out.solution.as_text().unwrap_or_default().to_string();
                        (
                            ModelValue::Str(text),
                            GoalKind::Constraint,
                            out.valid,
                            vec![report],
                        )
                    })
                }
                Goal::IndexQuery { constraint, .. } => {
                    solver.solve(constraint).map(|(out, report)| {
                        let value = ModelValue::Int(out.solution.as_index());
                        (value, GoalKind::IndexQuery, out.valid, vec![report])
                    })
                }
                Goal::StringPipeline { pipeline, .. } => pipeline.run(&solver).map(|run| {
                    let valid = run.all_valid();
                    let solves = run.stages.into_iter().map(|s| s.report).collect();
                    (
                        ModelValue::Str(run.final_text),
                        GoalKind::Pipeline,
                        valid,
                        solves,
                    )
                }),
            };
            let (value, kind, valid, solves) = match solved {
                Ok(solved) => solved,
                Err(e) if is_unsat(&e) => return Ok(ScriptRun::unsat(reports, run)),
                Err(e) => return Err(ScriptError::Encode(e)),
            };
            if !valid {
                status = SatStatus::Unknown;
            }
            reports.push(GoalReport {
                name: goal.name().to_string(),
                kind,
                answer: match &value {
                    ModelValue::Str(text) => text.clone(),
                    ModelValue::Int(_) => value.to_string(),
                },
                valid,
                total_us: solves.iter().map(|s| s.total_us).sum(),
                solves,
            });
            model.push((goal.name().to_string(), value));
        }
        Ok(ScriptRun {
            outcome: ScriptOutcome { status, model },
            goals: reports,
            absint: run,
        })
    }

    /// [`Script::solve`] with absint on, keeping only the model and the
    /// absint run. Kept because `perfbench/layers` links this signature.
    ///
    /// # Errors
    /// As [`Script::solve`].
    pub fn solve_absint(
        &self,
        solver: &StringSolver,
    ) -> Result<(ScriptOutcome, AbsintRun), ScriptError> {
        self.solve(solver, true)
            .map(|r| (r.outcome, r.absint.expect("absint ran")))
    }

    /// [`Script::solve`] with absint on, as a tuple. Kept because
    /// `perfbench/layers` links this signature.
    ///
    /// # Errors
    /// As [`Script::solve`].
    pub fn solve_reported_absint(
        &self,
        solver: &StringSolver,
    ) -> Result<(ScriptOutcome, Vec<GoalReport>, AbsintRun), ScriptError> {
        self.solve(solver, true)
            .map(|r| (r.outcome, r.goals, r.absint.expect("absint ran")))
    }

    /// [`Script::solve_reported_absint`] over the solver with `portfolio`
    /// attached. Kept because `perfbench/layers` links this signature.
    ///
    /// # Errors
    /// As [`Script::solve`].
    pub fn solve_portfolio_reported_absint(
        &self,
        solver: &StringSolver,
        portfolio: &Portfolio,
    ) -> Result<(ScriptOutcome, Vec<GoalReport>, AbsintRun), ScriptError> {
        self.solve_reported_absint(&solver.clone().with_portfolio(portfolio.clone()))
    }

    /// Lifts the absint feature vector into the core router's
    /// [`ScriptFacts`] so script-level structure (regex membership,
    /// pinned positions, admissible-character widths) can steer routing.
    pub fn script_facts(run: &AbsintRun) -> ScriptFacts {
        let f = &run.analysis.features;
        ScriptFacts {
            string_vars: f.string_vars,
            assertions: f.assertions,
            regexes: f.regexes,
            contains: f.contains,
            pinned_positions: f.pinned_positions,
            avg_position_width: f.avg_position_width,
        }
    }

    /// The routed portfolio plan for every goal a portfolio run would
    /// race, without racing anything: the deterministic routing record
    /// snapshotted by `benchmarks/portfolio_expected.json`. Uses the
    /// same absint-tightened goals and script facts as a raced
    /// [`Script::solve`]. Pipeline goals never
    /// race, so their plan is `None`; a statically refuted script
    /// returns an empty list.
    ///
    /// # Errors
    /// Propagates compilation errors and non-unsat encoding errors.
    pub fn portfolio_plans(
        &self,
        solver: &StringSolver,
        portfolio: &Portfolio,
    ) -> Result<Vec<(String, Option<PortfolioPlan>)>, ScriptError> {
        let run = self.absint();
        if run.is_refuted() {
            return Ok(Vec::new());
        }
        let solver = solver.clone().with_script_facts(Self::script_facts(&run));
        let goals = self.compile()?;
        let (goals, _) = apply_tightenings(goals, &run.analysis);
        let mut plans = Vec::with_capacity(goals.len());
        for goal in &goals {
            match goal {
                Goal::StringConstraint { name, constraint }
                | Goal::IndexQuery { name, constraint } => {
                    match solver.routing_features(constraint) {
                        Ok(features) => {
                            plans.push((name.clone(), Some(portfolio.router().route(&features))));
                        }
                        Err(e) if is_unsat(&e) => {
                            plans.push((name.clone(), None));
                        }
                        Err(e) => return Err(ScriptError::Encode(e)),
                    }
                }
                Goal::StringPipeline { name, .. } => plans.push((name.clone(), None)),
            }
        }
        Ok(plans)
    }
}

/// Per-goal result of a static lint pass over a script
/// ([`Script::lint`]).
#[derive(Debug, Clone)]
pub struct GoalLint {
    /// The goal's declared variable name.
    pub name: String,
    /// One lint report per solver invocation the goal would perform
    /// (pipelines produce one per stage). Empty when the goal proved
    /// unsatisfiable at encode time — there is no QUBO to lint.
    pub reports: Vec<qsmt_core::LintReport>,
    /// True when encoding proved the goal unsatisfiable.
    pub unsat: bool,
}

impl GoalLint {
    /// True when any stage of this goal carries an error-level diagnostic.
    pub fn has_errors(&self) -> bool {
        self.reports.iter().any(qsmt_core::LintReport::has_errors)
    }
}

impl Script {
    /// Statically lints every goal's compiled QUBO without sampling: the
    /// script-level entry point behind `qsmt lint`. Goals that prove
    /// unsatisfiable at encode time are reported with `unsat: true` and
    /// no lint reports (unsatisfiability is a property of the constraint,
    /// not a formulation defect).
    ///
    /// # Errors
    /// Propagates compilation errors and non-unsat encoding errors.
    pub fn lint(&self, solver: &StringSolver) -> Result<Vec<GoalLint>, ScriptError> {
        let goals = self.compile()?;
        let mut out = Vec::with_capacity(goals.len());
        for goal in &goals {
            let (name, linted) = match goal {
                Goal::StringConstraint { name, constraint }
                | Goal::IndexQuery { name, constraint } => {
                    (name, solver.lint(constraint).map(|r| vec![r]))
                }
                Goal::StringPipeline { name, pipeline } => (name, pipeline.lint(solver)),
            };
            match linted {
                Ok(reports) => out.push(GoalLint {
                    name: name.clone(),
                    reports,
                    unsat: false,
                }),
                Err(e) if is_unsat(&e) => out.push(GoalLint {
                    name: name.clone(),
                    reports: Vec::new(),
                    unsat: true,
                }),
                Err(e) => return Err(ScriptError::Encode(e)),
            }
        }
        Ok(out)
    }
}

/// Encoding errors that prove unsatisfiability of the asserted conjunction
/// (rather than a malformed script).
fn is_unsat(e: &ConstraintError) -> bool {
    matches!(
        e,
        ConstraintError::RegexUnsatisfiable { .. }
            | ConstraintError::SubstringTooLong { .. }
            | ConstraintError::IndexOutOfRange { .. }
            | ConstraintError::LengthOutOfRange { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solver() -> StringSolver {
        StringSolver::with_defaults().with_seed(5)
    }

    #[test]
    fn solves_equality_script() {
        let script = Script::parse(
            "(set-logic QF_S)\
             (declare-const x String)\
             (assert (= x \"hi\"))\
             (check-sat)(get-model)",
        )
        .unwrap();
        let out = script.solve(&solver(), false).unwrap().outcome;
        assert_eq!(out.status, SatStatus::Sat);
        assert_eq!(out.model, vec![("x".into(), ModelValue::Str("hi".into()))]);
    }

    #[test]
    fn solves_table1_row4_as_smtlib() {
        let script = Script::parse(
            "(declare-const x String)\
             (assert (= x (str.replace_all (str.++ \"hello\" \" \" \"world\") \"l\" \"x\")))",
        )
        .unwrap();
        let out = script.solve(&solver(), false).unwrap().outcome;
        assert_eq!(out.status, SatStatus::Sat);
        assert_eq!(
            out.model,
            vec![("x".into(), ModelValue::Str("hexxo worxd".into()))]
        );
    }

    #[test]
    fn solves_palindrome_script() {
        let script = Script::parse(
            "(declare-const p String)\
             (assert (= p (str.rev p)))\
             (assert (= (str.len p) 4))",
        )
        .unwrap();
        let out = script.solve(&solver(), false).unwrap().outcome;
        assert_eq!(out.status, SatStatus::Sat);
        let ModelValue::Str(p) = &out.model[0].1 else {
            panic!()
        };
        assert_eq!(p.chars().rev().collect::<String>(), *p);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn solves_regex_script() {
        let script = Script::parse(
            "(declare-const r String)\
             (assert (str.in_re r (re.++ (str.to_re \"a\") (re.+ (re.union (str.to_re \"b\") (str.to_re \"c\"))))))\
             (assert (= (str.len r) 4))",
        )
        .unwrap();
        let out = script.solve(&solver(), false).unwrap().outcome;
        assert_eq!(out.status, SatStatus::Sat);
        let ModelValue::Str(r) = &out.model[0].1 else {
            panic!()
        };
        assert!(r.starts_with('a'));
        assert!(r[1..].chars().all(|c| c == 'b' || c == 'c'));
    }

    #[test]
    fn indexof_script_reports_integer() {
        let script = Script::parse(
            "(declare-const i Int)\
             (assert (= i (str.indexof \"hello world\" \"world\" 0)))",
        )
        .unwrap();
        let out = script.solve(&solver(), false).unwrap().outcome;
        assert_eq!(out.status, SatStatus::Sat);
        assert_eq!(out.model, vec![("i".into(), ModelValue::Int(Some(6)))]);
    }

    #[test]
    fn solve_reports_every_goal_and_labels_goal_kinds() {
        let script = Script::parse(
            "(declare-const x String)\
             (assert (= x (str.rev \"ab\")))\
             (declare-const i Int)\
             (assert (= i (str.indexof \"hello\" \"llo\" 0)))",
        )
        .unwrap();
        let run = script.solve(&solver(), false).unwrap();
        assert_eq!(run.outcome.status, SatStatus::Sat);
        assert!(run.absint.is_none());
        let goals = &run.goals;
        assert_eq!(goals.len(), 2);
        assert_eq!(goals[0].kind, GoalKind::Pipeline);
        assert_eq!(goals[1].kind, GoalKind::IndexQuery);
        assert_eq!(goals[0].answer, "ba");
        assert_eq!(goals[1].answer, "2");
        assert_eq!(
            run.outcome.model,
            vec![
                ("x".into(), ModelValue::Str("ba".into())),
                ("i".into(), ModelValue::Int(Some(2)))
            ]
        );
        assert!(goals.iter().all(|g| g.valid));
        assert!(goals.iter().all(|g| !g.solves.is_empty()));
    }

    #[test]
    fn unsat_returns_partial_goal_reports() {
        let script = Script::parse(
            "(declare-const r String)\
             (assert (str.in_re r (str.to_re \"abc\")))\
             (assert (= (str.len r) 2))",
        )
        .unwrap();
        let run = script.solve(&solver(), false).unwrap();
        assert_eq!(run.outcome.status, SatStatus::Unsat);
        assert!(
            run.goals.is_empty(),
            "the unsat goal never reached the sampler"
        );
    }

    #[test]
    fn unsat_detected_for_impossible_regex_length() {
        let script = Script::parse(
            "(declare-const r String)\
             (assert (str.in_re r (str.to_re \"abc\")))\
             (assert (= (str.len r) 2))",
        )
        .unwrap();
        let out = script.solve(&solver(), false).unwrap().outcome;
        assert_eq!(out.status, SatStatus::Unsat);
    }

    #[test]
    fn lint_covers_every_goal_without_sampling() {
        let script = Script::parse(
            "(declare-const x String)\
             (assert (= x (str.rev \"ab\")))\
             (declare-const i Int)\
             (assert (= i (str.indexof \"hello\" \"llo\" 0)))",
        )
        .unwrap();
        let lints = script.lint(&solver()).unwrap();
        assert_eq!(lints.len(), 2);
        assert_eq!(lints[0].name, "x");
        assert_eq!(lints[1].name, "i");
        for goal in &lints {
            assert!(!goal.unsat);
            assert!(!goal.reports.is_empty());
            assert!(!goal.has_errors());
        }
    }

    #[test]
    fn lint_marks_encode_time_unsat_goals() {
        let script = Script::parse(
            "(declare-const r String)\
             (assert (str.in_re r (str.to_re \"abc\")))\
             (assert (= (str.len r) 2))",
        )
        .unwrap();
        let lints = script.lint(&solver()).unwrap();
        assert_eq!(lints.len(), 1);
        assert!(lints[0].unsat);
        assert!(lints[0].reports.is_empty());
    }

    #[test]
    fn solve_absint_refutes_statically_without_compiling() {
        // Compilation alone would also catch this (contains longer than
        // the length), but the absint path decides before compile and
        // carries a checkable certificate.
        let script = Script::parse(
            "(declare-const s String)\
             (assert (str.contains s \"toolong\"))\
             (assert (= (str.len s) 3))",
        )
        .unwrap();
        let run = script.solve(&solver(), true).unwrap();
        assert_eq!(run.outcome.status, SatStatus::Unsat);
        assert!(run.outcome.model.is_empty());
        assert!(run.goals.is_empty());
        let absint = run.absint.as_ref().expect("absint ran");
        assert!(absint.is_refuted());
        assert!(absint.analysis.verify_certificate().is_ok());
        assert_eq!(run.served_from(), "absint");
    }

    #[test]
    fn solve_absint_tightens_sat_scripts_and_keeps_answers_valid() {
        let script = Script::parse(
            "(declare-const s String)\
             (assert (= (str.at s 0) \"q\"))\
             (assert (= (str.at s 2) \"z\"))\
             (assert (= (str.len s) 4))",
        )
        .unwrap();
        let (out, run) = script.solve_absint(&solver()).unwrap();
        assert_eq!(out.status, SatStatus::Sat);
        assert_eq!(run.vars_eliminated, 14);
        // The other kept signatures agree with the one entry point.
        let (reported, goals, _) = script.solve_reported_absint(&solver()).unwrap();
        assert_eq!(reported.model, out.model);
        assert_eq!(goals.len(), 1);
        let ModelValue::Str(s) = &out.model[0].1 else {
            panic!("string model expected");
        };
        assert_eq!(s.len(), 4);
        assert!(s.starts_with('q') && s.as_bytes()[2] == b'z', "{s:?}");
    }

    #[test]
    fn served_from_covers_solver_cache_presolve_and_portfolio_attribution() {
        // Two small goals absint leaves open: both route to (and are won
        // by) the exact enumerator when raced.
        let script = Script::parse(
            "(declare-const x String)\
             (assert (= x (str.rev x)))\
             (assert (= (str.len x) 2))\
             (declare-const y String)\
             (assert (= y (str.rev y)))\
             (assert (= (str.len y) 2))",
        )
        .unwrap();
        let plain = script.solve(&solver(), true).unwrap();
        assert_eq!(plain.goals.len(), 2);
        assert_eq!(plain.served_from(), "solver");

        let cached = solver().with_cache(std::sync::Arc::new(qsmt_core::SolveCache::new(8)));
        assert_eq!(script.solve(&cached, true).unwrap().served_from(), "solver");
        assert_eq!(script.solve(&cached, true).unwrap().served_from(), "cache");

        let raced = solver().with_portfolio(Portfolio::new());
        let mut run = script.solve(&raced, true).unwrap();
        assert_eq!(run.served_from(), "portfolio:exact");
        let race = run.goals[1].solves[0].portfolio.as_mut().expect("raced");
        race.winner = "sa".to_string();
        assert_eq!(run.served_from(), "portfolio:mixed");

        // A deterministic goal is answered by presolve, never by the
        // cache; beside a sampled goal the run is the solver's work.
        let determined = "(declare-const z String)(assert (= z (str.rev \"ab\")))";
        let script = Script::parse(determined).unwrap();
        assert_eq!(
            script.solve(&cached, true).unwrap().served_from(),
            "presolve"
        );
        assert_eq!(
            script.solve(&cached, true).unwrap().served_from(),
            "presolve"
        );
        let mixed = format!("{determined}(declare-const x String)(assert (= x (str.rev x)))(assert (= (str.len x) 2))");
        let run = Script::parse(&mixed)
            .unwrap()
            .solve(&solver(), true)
            .unwrap();
        assert_eq!(run.served_from(), "solver");
    }

    #[test]
    fn syntax_error_reported() {
        assert!(Script::parse("(assert (= x \"hi\")").is_err());
        assert!(Script::parse("(bogus-command)").is_err());
    }

    #[test]
    fn model_value_display() {
        assert_eq!(ModelValue::Int(None).to_string(), "(- 1)");
        assert_eq!(ModelValue::Int(Some(3)).to_string(), "3");
        assert_eq!(ModelValue::Str("a".into()).to_string(), "\"a\"");
        assert_eq!(SatStatus::Sat.to_string(), "sat");
    }
}
