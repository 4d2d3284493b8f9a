//! §4.12 Combining constraints: strictly sequential solving.
//!
//! "We perform each operation sequentially. … we then will take the output
//! solution of the first iteration of our solver, and pass it through as
//! the input to the second solver." A [`Pipeline`] starts from either a
//! literal string or a generation constraint (palindrome, regex, …) and
//! threads the decoded output through a chain of transformation steps,
//! each compiled and solved as its own QUBO.

use crate::constraint::Constraint;
use crate::error::ConstraintError;
use crate::solver::{SolveOutcome, StringSolver};
use qsmt_telemetry::SolveReport;

/// Where the pipeline's initial string comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum Start {
    /// A known input string (most Table 1 rows).
    Literal(String),
    /// The solved output of a generation constraint (e.g. generate a
    /// palindrome, then transform it).
    Generate(Constraint),
}

/// One string-to-string transformation step.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// §4.9 — reverse the current string.
    Reverse,
    /// §4.7 — replace all occurrences of a character.
    ReplaceAll {
        /// Character to replace.
        from: char,
        /// Replacement.
        to: char,
    },
    /// §4.8 — replace the first occurrence of a character.
    ReplaceFirst {
        /// Character to replace.
        from: char,
        /// Replacement.
        to: char,
    },
    /// §4.2 — append a suffix (with an optional separator, matching the
    /// paper's space-joined concat examples).
    Append {
        /// The string appended after the current value.
        suffix: String,
        /// Separator inserted between them.
        separator: String,
    },
}

impl Step {
    /// Lowers the step to a constraint over the current string.
    pub fn to_constraint(&self, input: &str) -> Constraint {
        match self {
            Step::Reverse => Constraint::Reverse {
                input: input.to_string(),
            },
            Step::ReplaceAll { from, to } => Constraint::ReplaceAll {
                input: input.to_string(),
                from: *from,
                to: *to,
            },
            Step::ReplaceFirst { from, to } => Constraint::ReplaceFirst {
                input: input.to_string(),
                from: *from,
                to: *to,
            },
            Step::Append { suffix, separator } => Constraint::Concat {
                parts: vec![input.to_string(), suffix.clone()],
                separator: separator.clone(),
            },
        }
    }
}

/// A sequential multi-constraint solve (paper §4.12).
///
/// ```
/// use qsmt_core::{Pipeline, Start, Step, StringSolver};
///
/// // Table 1 row 1: reverse "hello", then replace 'e' with 'a'.
/// let report = Pipeline::new(Start::Literal("hello".into()))
///     .then(Step::Reverse)
///     .then(Step::ReplaceAll { from: 'e', to: 'a' })
///     .run(&StringSolver::with_defaults().with_seed(1))
///     .unwrap();
/// assert_eq!(report.final_text, "ollah");
/// assert!(report.all_valid());
/// assert!(report.stages.iter().all(|s| s.report.total_us > 0));
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    start: Start,
    steps: Vec<Step>,
}

impl Pipeline {
    /// Starts a pipeline.
    pub fn new(start: Start) -> Self {
        Self {
            start,
            steps: Vec::new(),
        }
    }

    /// Appends a transformation step.
    pub fn then(mut self, step: Step) -> Self {
        self.steps.push(step);
        self
    }

    /// Number of solver invocations this pipeline will perform.
    pub fn num_stages(&self) -> usize {
        let start_solves = matches!(self.start, Start::Generate(_)) as usize;
        start_solves + self.steps.len()
    }

    /// Runs every stage through the solver, threading decoded outputs.
    /// Each stage record carries its solve's [`SolveReport`], which
    /// `qsmt solve --report` aggregates into the goal's `solves` array.
    /// A pipeline never races a portfolio attached to the solver: each
    /// stage feeds the next, so there is no independent race to win.
    ///
    /// # Errors
    /// Propagates the first encoding failure. A stage whose decoded output
    /// fails semantic validation still feeds the next stage (and is
    /// reported in the per-stage outcomes), matching the paper's
    /// best-effort sequential composition.
    pub fn run(&self, solver: &StringSolver) -> Result<PipelineReport, ConstraintError> {
        let solver = solver.single_strategy();
        let mut stages: Vec<StageReport> = Vec::with_capacity(self.num_stages());
        let mut solve = |constraint: Constraint| -> Result<String, ConstraintError> {
            let (outcome, report) = solver.solve(&constraint)?;
            let output = outcome.solution.as_text().unwrap_or_default().to_string();
            stages.push(StageReport {
                constraint,
                output: output.clone(),
                valid: outcome.valid,
                energy: outcome.energy,
                outcome,
                report,
            });
            Ok(output)
        };
        let mut current = match &self.start {
            Start::Literal(s) => s.clone(),
            Start::Generate(c) => solve(c.clone())?,
        };
        for step in &self.steps {
            current = solve(step.to_constraint(&current))?;
        }
        Ok(PipelineReport {
            final_text: current,
            stages,
        })
    }
}

impl Pipeline {
    /// Statically lints every stage's compiled QUBO without sampling.
    ///
    /// Transformation steps are threaded using the steps' *classical*
    /// string semantics (reverse, replace, concat are deterministic), so
    /// every stage lints exactly the QUBO that [`Pipeline::run`] would
    /// compile. A [`Start::Generate`] pipeline lints the generation
    /// constraint only and stops: the generated text is not known without
    /// sampling, so downstream step QUBOs cannot be reproduced statically.
    ///
    /// ```
    /// use qsmt_core::{Pipeline, Start, Step, StringSolver};
    ///
    /// let reports = Pipeline::new(Start::Literal("hello".into()))
    ///     .then(Step::Reverse)
    ///     .lint(&StringSolver::with_defaults())
    ///     .unwrap();
    /// assert_eq!(reports.len(), 1);
    /// assert!(!reports[0].has_errors());
    /// ```
    ///
    /// # Errors
    /// Propagates the first encoding failure.
    pub fn lint(
        &self,
        solver: &StringSolver,
    ) -> Result<Vec<qsmt_lint::LintReport>, ConstraintError> {
        let mut reports = Vec::with_capacity(self.num_stages());
        let mut current: String = match &self.start {
            Start::Literal(s) => s.clone(),
            Start::Generate(c) => {
                reports.push(solver.lint(c)?);
                return Ok(reports);
            }
        };
        for step in &self.steps {
            let constraint = step.to_constraint(&current);
            reports.push(solver.lint(&constraint)?);
            current = match step {
                Step::Reverse => current.chars().rev().collect(),
                Step::ReplaceAll { from, to } => current.replace(*from, &to.to_string()),
                Step::ReplaceFirst { from, to } => current.replacen(*from, &to.to_string(), 1),
                Step::Append { suffix, separator } => {
                    format!("{current}{separator}{suffix}")
                }
            };
        }
        Ok(reports)
    }
}

/// One stage's record within a pipeline run.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// The constraint solved at this stage.
    pub constraint: Constraint,
    /// The decoded output string fed to the next stage.
    pub output: String,
    /// Whether the stage's answer validated semantically.
    pub valid: bool,
    /// Energy of the reported answer.
    pub energy: f64,
    /// The full solve outcome.
    pub outcome: SolveOutcome,
    /// The stage's solve report.
    pub report: SolveReport,
}

/// The result of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Output of the final stage.
    pub final_text: String,
    /// Per-stage records in execution order.
    pub stages: Vec<StageReport>,
}

impl PipelineReport {
    /// True when every stage validated.
    pub fn all_valid(&self) -> bool {
        self.stages.iter().all(|s| s.valid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solver() -> StringSolver {
        StringSolver::with_defaults().with_seed(11)
    }

    #[test]
    fn table1_row1_reverse_then_replace() {
        let report = Pipeline::new(Start::Literal("hello".into()))
            .then(Step::Reverse)
            .then(Step::ReplaceAll { from: 'e', to: 'a' })
            .run(&solver())
            .unwrap();
        assert_eq!(report.final_text, "ollah");
        assert_eq!(report.stages.len(), 2);
        assert!(report.all_valid());
        assert_eq!(report.stages[0].output, "olleh");
    }

    #[test]
    fn table1_row4_concat_then_replace_all() {
        let report = Pipeline::new(Start::Literal("hello".into()))
            .then(Step::Append {
                suffix: "world".into(),
                separator: " ".into(),
            })
            .then(Step::ReplaceAll { from: 'l', to: 'x' })
            .run(&solver())
            .unwrap();
        assert_eq!(report.final_text, "hexxo worxd");
        assert!(report.all_valid());
    }

    #[test]
    fn generated_start_feeds_steps() {
        let report = Pipeline::new(Start::Generate(Constraint::Regex {
            pattern: "ab+".into(),
            len: 3,
        }))
        .then(Step::Reverse)
        .run(&solver())
        .unwrap();
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.final_text, "bba");
    }

    #[test]
    fn replace_first_step() {
        let report = Pipeline::new(Start::Literal("aa".into()))
            .then(Step::ReplaceFirst { from: 'a', to: 'b' })
            .run(&solver())
            .unwrap();
        assert_eq!(report.final_text, "ba");
    }

    #[test]
    fn empty_pipeline_returns_start() {
        let report = Pipeline::new(Start::Literal("abc".into()))
            .run(&solver())
            .unwrap();
        assert_eq!(report.final_text, "abc");
        assert!(report.stages.is_empty());
        assert!(report.all_valid());
    }

    #[test]
    fn stage_records_carry_their_reports_and_never_race() {
        let p = Pipeline::new(Start::Literal("hello".into()))
            .then(Step::Reverse)
            .then(Step::ReplaceAll { from: 'e', to: 'a' });
        // An attached portfolio is ignored: each stage feeds the next.
        let raced = solver().with_portfolio(crate::Portfolio::new());
        for s in [solver(), raced] {
            let run = p.run(&s).unwrap();
            assert_eq!(run.final_text, "ollah");
            assert_eq!(run.stages.len(), 2);
            for stage in &run.stages {
                assert_eq!(stage.report.valid, stage.valid);
                let labels: Vec<&str> = stage
                    .report
                    .stages
                    .iter()
                    .map(|s| s.label.as_str())
                    .collect();
                assert_eq!(
                    labels,
                    vec!["compile", "lint", "presolve", "embed", "sample", "select"]
                );
            }
            assert_eq!(run.stages[0].report.solution, "\"olleh\"");
        }
    }

    #[test]
    fn lint_covers_every_literal_stage() {
        let p = Pipeline::new(Start::Literal("hello".into()))
            .then(Step::Reverse)
            .then(Step::ReplaceAll { from: 'e', to: 'a' })
            .then(Step::Append {
                suffix: "!".into(),
                separator: "".into(),
            });
        let reports = p.lint(&solver()).unwrap();
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(!r.has_errors(), "{}", r.render());
        }
    }

    #[test]
    fn lint_of_generated_start_stops_after_generation() {
        let p =
            Pipeline::new(Start::Generate(Constraint::Palindrome { len: 3 })).then(Step::Reverse);
        let reports = p.lint(&solver()).unwrap();
        assert_eq!(reports.len(), 1, "generated text is unknown statically");
    }

    #[test]
    fn num_stages_counts_generation() {
        let p =
            Pipeline::new(Start::Generate(Constraint::Palindrome { len: 2 })).then(Step::Reverse);
        assert_eq!(p.num_stages(), 2);
        let q = Pipeline::new(Start::Literal("x".into())).then(Step::Reverse);
        assert_eq!(q.num_stages(), 1);
    }
}
