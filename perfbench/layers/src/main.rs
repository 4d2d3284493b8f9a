//! `perfbench-layers`: the traced run of the end-to-end benchmark.
//!
//! It prepares and measures a workload exactly like the untraced driver
//! (same scripts, same surface), then replays every script in process
//! through the layer crates' public functions, timing each call and
//! reading the stage timings and counters the program writes into its
//! run reports and trace spans. It prints the per-layer metrics, fails
//! the run when an in-process verdict differs from the surface verdict,
//! and checks that each workload still exercises the layers it was
//! chosen for.
//!
//! ```text
//! perfbench-layers --workload W --seed N --seconds S --trace 1 --qsmt PATH
//! ```

use qsmt::core::{Portfolio, SolveCache};
use qsmt::smtlib::{apply_tightenings, AbsintRun, SatStatus, Script};
use qsmt::telemetry::{self, GoalReport, Json, SolveReport};
use qsmt::trace::{self, TraceId};
use qsmt::StringSolver;
use qsmt_perfbench::check::Verdict;
use qsmt_perfbench::stats::mean;
use qsmt_perfbench::surface::solve_cli;
use qsmt_perfbench::{
    family_summary, measure, parse_args, prepare, print_result, tally, Args, Item, Metric, Pass,
    Workload,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-layers: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The serve queue-wait histogram (`qsmt_serve_job_wait_us`): sum, count.
fn queue_wait(metrics: &str) -> (f64, f64) {
    let read = |suffix: &str| {
        metrics
            .lines()
            .find(|l| l.starts_with(&format!("qsmt_serve_job_wait_us_{suffix}")))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    (read("sum"), read("count"))
}

fn run(args: &Args) -> Result<(), String> {
    if !args.trace {
        return Err("untraced runs are made by perfbench".into());
    }
    let prepared = prepare(args)?;
    let scrape = |p: &qsmt_perfbench::Prepared| {
        p.server
            .as_ref()
            .and_then(|s| s.get("/metrics").ok())
            .map_or((0.0, 0.0), |(_, body)| queue_wait(&body))
    };
    let wait_before = scrape(&prepared);
    let pass = measure(args, &prepared, &prepared.items);
    let wait_after = scrape(&prepared);
    let (items, warm) = (prepared.items.clone(), prepared.warm.clone());
    prepared.finish()?;
    let pass = pass?;
    let mut t = tally(args.workload, &items, &pass.obs);
    family_summary(&items, &pass);

    let mut layers = Layers::default();
    let replay = replay(args.workload, &warm, &items, &mut layers)?;

    // Cross-check: every in-process verdict equals the surface verdict.
    let mut correct = true;
    for ((item, obs), got) in items.iter().zip(&pass.obs).zip(&replay) {
        let Ok(answer) = &obs.answer else { continue };
        if got.verdicts.iter().any(|v| *v != answer.verdict) {
            t.failed += 1;
            t.failures.push(format!(
                "{}: surface verdict {:?}, in-process {:?}",
                item.file.display(),
                answer.verdict,
                got.verdicts
            ));
        }
        if let Some(served) = &obs.served {
            if served.cache != got.cache {
                t.failed += 1;
                t.failures.push(format!(
                    "{}: served cache outcomes {:?}, in-process {:?}",
                    item.file.display(),
                    served.cache,
                    got.cache
                ));
            }
        }
    }
    let mut problems = character_checks(args.workload, &layers, &pass);
    if args.workload != Workload::ServeRepeat {
        problems.extend(cli_cache_check(args, &items));
    }
    for problem in problems {
        eprintln!("WORKLOAD CHECK FAILED {problem}");
        correct = false;
    }
    let metrics = layers.metrics(args.workload, &pass, &replay, (wait_before, wait_after));
    print_result(correct && t.failed == 0, &t, &metrics);
    Ok(())
}

/// What the in-process replay of one script produced.
struct Replayed {
    /// Verdicts of every in-process call made for the script.
    verdicts: Vec<Verdict>,
    /// Wall time of the call the surface itself makes, µs.
    mirror_us: f64,
    /// Cache outcome of each solve, in order (serve only).
    cache: Vec<String>,
}

fn verdict(status: SatStatus) -> Verdict {
    match status {
        SatStatus::Sat => Verdict::Sat,
        SatStatus::Unsat => Verdict::Unsat,
        SatStatus::Unknown => Verdict::Unknown,
    }
}

/// Replays every measured script in process; on `serve-repeat` the
/// warm-up goes first (untimed), so the cache holds what the service's
/// cache held.
fn replay(
    workload: Workload,
    warm: &[Item],
    items: &[Item],
    layers: &mut Layers,
) -> Result<Vec<Replayed>, String> {
    let portfolio = qsmt::default_portfolio();
    // The serve default: one solution cache shared by every job.
    let cache = Arc::new(SolveCache::new(256));
    let warm = if workload == Workload::ServeRepeat {
        warm
    } else {
        &[]
    };
    let mut out = Vec::with_capacity(items.len());
    for (k, item) in warm.iter().chain(items).enumerate() {
        let measured = k >= warm.len();
        let src = &item.case.source;
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", item.file.display());
        let mut solver = StringSolver::with_defaults().with_seed(item.case.seed);
        if workload == Workload::ServeRepeat {
            solver = solver.with_cache(Arc::clone(&cache));
        }

        // The surface's own call, timed from the bytes (the CLI parses
        // too). Serve jobs run under a trace, so on serve-repeat this
        // call is traced and yields the reports; a second call would
        // find the cache changed. The CLI runs untraced, so on the CLI
        // workloads this call is untraced and a second, traced call
        // yields the reports.
        let id = TraceId::derive(0x7e5 ^ k as u64);
        let serve = workload == Workload::ServeRepeat;
        let started = Instant::now();
        let guard = serve.then(|| trace::enter(id, "script"));
        let script = Script::parse(src).map_err(|e| err(&e))?;
        let first = match workload {
            Workload::SoloDetermined => script
                .solve_absint(&solver)
                .map(|(outcome, run)| (outcome.status, Vec::new(), run))
                .map_err(|e| err(&e))?,
            _ => reported(workload, &script, &solver, &portfolio).map_err(|e| err(&e))?,
        };
        let mirror_us = started.elapsed().as_secs_f64() * 1e6;
        drop(guard);
        if !measured {
            continue;
        }
        let mut verdicts = vec![verdict(first.0)];
        let (goals, absint) = if serve {
            (first.1, first.2)
        } else {
            let guard = trace::enter(id, "script");
            let again = reported(workload, &script, &solver, &portfolio).map_err(|e| err(&e))?;
            drop(guard);
            verdicts.push(verdict(again.0));
            (again.1, again.2)
        };
        layers.script(&script, src, absint.vars_eliminated)?;
        let spans = trace::registry()
            .chrome_json(id)
            .ok_or_else(|| err(&"trace evicted before it was read"))?;
        layers.goals(&goals, &spans);
        let cache = goals
            .iter()
            .flat_map(|g| &g.solves)
            .filter_map(|s| s.cache.as_ref().map(|c| c.outcome.clone()))
            .collect();
        out.push(Replayed {
            verdicts,
            mirror_us,
            cache,
        });
    }
    Ok(out)
}

/// The reported library call behind the workload's surface: verdict,
/// per-goal run reports, and the script-level absint run.
fn reported(
    workload: Workload,
    script: &Script,
    solver: &StringSolver,
    portfolio: &Portfolio,
) -> Result<(SatStatus, Vec<GoalReport>, AbsintRun), qsmt::smtlib::ScriptError> {
    let (outcome, goals, run) = if workload == Workload::PortfolioSearch {
        script.solve_portfolio_reported_absint(solver, portfolio)?
    } else {
        script.solve_reported_absint(solver)?
    };
    Ok((outcome.status, goals, run))
}

/// Per-layer accumulators over the measured scripts.
#[derive(Default)]
struct Layers {
    scripts: usize,
    parse_us: Vec<f64>,
    compile_us: Vec<f64>,
    goals: usize,
    absint_us: Vec<f64>,
    refuted: usize,
    vars_eliminated: u64,
    solves: usize,
    encode_us: Vec<f64>,
    qubo_vars: Vec<f64>,
    select_us: Vec<f64>,
    decoded: Vec<f64>,
    lint_us: Vec<f64>,
    presolve_us: Vec<f64>,
    presolve_fixed: usize,
    presolve_vars: usize,
    full_fix: usize,
    embed_us: Vec<f64>,
    setup_us: Vec<f64>,
    sweep_us: Vec<f64>,
    sweeps: Vec<f64>,
    flips_per_s: Vec<f64>,
    read_success: Vec<f64>,
    race_us: Vec<f64>,
    winner_us: Vec<f64>,
    overrun_us: Vec<f64>,
    exact_wins: usize,
    annealer_wins: usize,
    losers: usize,
    cancelled: usize,
    cache_solves: usize,
    cache_exact: usize,
    cache_warm: usize,
    cache_lookup_us: Vec<f64>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = std::hint::black_box(f());
    (value, started.elapsed().as_secs_f64() * 1e6)
}

impl Layers {
    /// Script-level layers, each timed around its public entry point.
    fn script(&mut self, script: &Script, src: &str, eliminated: u64) -> Result<(), String> {
        self.scripts += 1;
        let (parsed, us) = timed(|| Script::parse(src));
        parsed.map_err(|e| e.to_string())?;
        self.parse_us.push(us);
        let (run, us) = timed(|| script.absint());
        self.absint_us.push(us);
        self.vars_eliminated += eliminated;
        if run.is_refuted() {
            self.refuted += 1;
            return Ok(());
        }
        let (goals, us) = timed(|| {
            script
                .compile()
                .map(|g| apply_tightenings(g, &run.analysis))
        });
        self.compile_us.push(us);
        self.goals += goals.map_err(|e| e.to_string())?.0.len();
        Ok(())
    }

    /// Solve-level layers, from the run reports and trace spans.
    fn goals(&mut self, goals: &[GoalReport], spans: &Json) {
        let events = spans
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        fn span(e: &Json) -> Option<(&str, f64, f64)> {
            let name = e.get("name")?.as_str()?;
            Some((name, e.get("ts")?.as_f64()?, e.get("dur")?.as_f64()?))
        }
        let spans: Vec<(&str, f64, f64)> = events.iter().filter_map(span).collect();
        for sample in spans.iter().filter(|s| s.0 == "sample") {
            // Sweeps: the union of the per-read spans nested in this
            // sample span. Setup: the rest of the sample span.
            let (start, end) = (sample.1, sample.1 + sample.2);
            let mut reads: Vec<(f64, f64)> = spans
                .iter()
                .filter(|s| s.0.starts_with("read ") && s.1 >= start && s.1 + s.2 <= end)
                .map(|s| (s.1, s.1 + s.2))
                .collect();
            if reads.is_empty() {
                continue;
            }
            reads.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, f64::MIN);
            for (lo, hi) in reads {
                covered += (hi - lo.max(reach)).max(0.0);
                reach = reach.max(hi);
            }
            self.sweep_us.push(covered);
            self.setup_us.push(sample.2 - covered);
        }
        for solve in goals.iter().flat_map(|g| &g.solves) {
            self.solve(solve);
        }
    }

    fn solve(&mut self, r: &SolveReport) {
        self.solves += 1;
        let stage = |label: &str| {
            r.stages
                .iter()
                .find(|s| s.label == label)
                .map(|s| s.dur_us as f64)
        };
        self.encode_us.push(r.compile.time_us as f64);
        self.qubo_vars.push(r.qubo.num_vars as f64);
        self.lint_us.extend(stage("lint"));
        self.presolve_us.push(r.presolve.time_us as f64);
        self.presolve_fixed += r.presolve.fixed_vars;
        self.presolve_vars += r.presolve.original_vars;
        if r.presolve.original_vars > 0 && r.presolve.fixed_vars == r.presolve.original_vars {
            self.full_fix += 1;
        }
        self.embed_us.extend(stage("embed"));
        if let Some(us) = stage("select") {
            self.select_us.push(us);
        }
        self.decoded.push(r.select.decoded_states as f64);
        let s = &r.sampling;
        if s.sampler != "cache" {
            self.sweeps.extend(s.sweeps.map(|n| n as f64));
            self.flips_per_s.extend(s.flips_per_sec);
            self.read_success.push(s.success_fraction);
        }
        if let Some(c) = &r.cache {
            self.cache_solves += 1;
            self.cache_exact += usize::from(c.outcome == "exact-hit");
            self.cache_warm += usize::from(c.outcome == "warm-start");
            self.cache_lookup_us.push(c.lookup_us as f64);
        }
        if let Some(p) = &r.portfolio {
            self.race_us.push(p.time_us as f64);
            let winner = &p.members[p.winner_index as usize];
            self.winner_us.push(winner.elapsed_us as f64);
            let slowest = p.members.iter().map(|m| m.elapsed_us).max().unwrap_or(0);
            self.overrun_us
                .push(slowest.saturating_sub(winner.elapsed_us) as f64);
            if p.winner == "exact" {
                self.exact_wins += 1;
            } else if matches!(p.winner.as_str(), "sa" | "sqa") {
                self.annealer_wins += 1;
            }
            for m in &p.members {
                if m.outcome != "won" {
                    self.losers += 1;
                    self.cancelled += usize::from(m.outcome == "cancelled");
                }
            }
        }
    }

    fn metrics(
        &self,
        workload: Workload,
        pass: &Pass,
        replay: &[Replayed],
        (wait_before, wait_after): ((f64, f64), (f64, f64)),
    ) -> Vec<Metric> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let per_script = |x: f64| ratio(x, self.scripts as f64);
        let solves = self.solves as f64;
        let races = self.race_us.len() as f64;
        let served: Vec<_> = pass.obs.iter().filter_map(|o| o.served.as_ref()).collect();
        let n_served = served.len() as f64;
        let serve_mean = |f: &dyn Fn(&qsmt_perfbench::surface::Served) -> f64| {
            mean(&served.iter().map(|s| f(s)).collect::<Vec<_>>())
        };
        let submit_us = serve_mean(&|s| s.submit_us);
        let job_run_us = serve_mean(&|s| s.job_run_us);
        let queue_wait_us = ratio(wait_after.0 - wait_before.0, wait_after.1 - wait_before.1);
        let served_obs = pass.obs.iter().filter(|o| o.served.is_some());
        let from_send: Vec<f64> = served_obs
            .clone()
            .map(|o| o.latency_us - o.send_lag_us)
            .collect();
        let send_lag: Vec<f64> = served_obs.map(|o| o.send_lag_us).collect();
        let poll_overhead_us = if served.is_empty() {
            0.0
        } else {
            (mean(&from_send) - submit_us - queue_wait_us - job_run_us).max(0.0)
        };
        let cli_overhead_us = if workload == Workload::ServeRepeat {
            0.0
        } else {
            let outside: Vec<f64> = pass.obs.iter().map(|o| o.latency_us).collect();
            let inside: Vec<f64> = replay.iter().map(|r| r.mirror_us).collect();
            mean(&outside) - mean(&inside)
        };
        let m = Metric::new;
        vec![
            m("smtlib.parse_us", mean(&self.parse_us), "us"),
            m("smtlib.compile_us", mean(&self.compile_us), "us"),
            m(
                "smtlib.goals_per_script",
                per_script(self.goals as f64),
                "count",
            ),
            m("absint.analyze_us", mean(&self.absint_us), "us"),
            m(
                "absint.refuted_fraction",
                per_script(self.refuted as f64),
                "fraction",
            ),
            m(
                "absint.vars_eliminated_per_script",
                per_script(self.vars_eliminated as f64),
                "count",
            ),
            m("core.encode_us", mean(&self.encode_us), "us"),
            m("core.qubo_vars_per_goal", mean(&self.qubo_vars), "count"),
            m("core.select_us", mean(&self.select_us), "us"),
            m("core.select_decoded_per_goal", mean(&self.decoded), "count"),
            m("lint.lint_us", mean(&self.lint_us), "us"),
            m("qubo.presolve_us", mean(&self.presolve_us), "us"),
            m(
                "qubo.presolve_fixed_fraction",
                ratio(self.presolve_fixed as f64, self.presolve_vars as f64),
                "fraction",
            ),
            m(
                "qubo.presolve_full_fix_fraction",
                ratio(self.full_fix as f64, solves),
                "fraction",
            ),
            m("qpu.embed_us", mean(&self.embed_us), "us"),
            m("anneal.setup_us", mean(&self.setup_us), "us"),
            m("anneal.sweep_us", mean(&self.sweep_us), "us"),
            m("anneal.sweeps_per_goal", mean(&self.sweeps), "count"),
            m("anneal.flips_per_s", mean(&self.flips_per_s), "1/s"),
            m(
                "anneal.read_success_fraction",
                mean(&self.read_success),
                "fraction",
            ),
            m("portfolio.race_us", mean(&self.race_us), "us"),
            m("portfolio.winner_us", mean(&self.winner_us), "us"),
            m("portfolio.loser_overrun_us", mean(&self.overrun_us), "us"),
            m(
                "portfolio.exact_win_fraction",
                ratio(self.exact_wins as f64, races),
                "fraction",
            ),
            m(
                "portfolio.cancelled_fraction",
                ratio(self.cancelled as f64, self.losers as f64),
                "fraction",
            ),
            m(
                "cache.exact_hit_fraction",
                ratio(self.cache_exact as f64, self.cache_solves as f64),
                "fraction",
            ),
            m(
                "cache.warm_hit_fraction",
                ratio(self.cache_warm as f64, self.cache_solves as f64),
                "fraction",
            ),
            m("cache.lookup_us", mean(&self.cache_lookup_us), "us"),
            m("serve.submit_us", submit_us, "us"),
            m("serve.queue_wait_us", queue_wait_us, "us"),
            m("serve.job_run_us", job_run_us, "us"),
            m("serve.poll_overhead_us", poll_overhead_us, "us"),
            m("serve.send_lag_us", mean(&send_lag), "us"),
            m(
                "serve.rejected_fraction",
                ratio(
                    served.iter().filter(|s| s.rejected).count() as f64,
                    n_served,
                ),
                "fraction",
            ),
            m(
                "serve.timed_out_fraction",
                ratio(
                    served.iter().filter(|s| s.timed_out).count() as f64,
                    n_served,
                ),
                "fraction",
            ),
            m("cli.process_overhead_us", cli_overhead_us, "us"),
        ]
    }
}

/// Each workload must keep exercising the layers it was chosen for.
fn character_checks(workload: Workload, layers: &Layers, pass: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    let full_fix = if layers.solves == 0 {
        0.0
    } else {
        layers.full_fix as f64 / layers.solves as f64
    };
    let served_hits = |kind: &str| {
        pass.obs
            .iter()
            .filter_map(|o| o.served.as_ref())
            .flat_map(|s| &s.cache)
            .filter(|c| *c == kind)
            .count()
    };
    match workload {
        Workload::SoloDetermined => {
            if full_fix < 0.9 {
                problems.push(format!(
                    "solo-determined: presolve fully fixes only {full_fix:.3} of goals (want >= 0.9)"
                ));
            }
        }
        Workload::PortfolioSearch => {
            if full_fix > 0.5 {
                problems.push(format!(
                    "portfolio-search: presolve fully fixes {full_fix:.3} of goals (want <= 0.5)"
                ));
            }
            if layers.exact_wins == 0 || layers.annealer_wins == 0 {
                problems.push(format!(
                    "portfolio-search: {} exact and {} annealer wins (want both)",
                    layers.exact_wins, layers.annealer_wins
                ));
            }
        }
        Workload::ServeRepeat => {
            if served_hits("exact-hit") == 0 || served_hits("warm-start") == 0 {
                problems.push("serve-repeat: no exact cache hits or no warm starts".into());
            }
        }
    }
    problems
}

/// Measured scripts solved once more through the CLI with `--report`.
const REPORT_CHECKS: usize = 32;

/// Cache hits occur only on `serve-repeat`: solves the first
/// [`REPORT_CHECKS`] measured scripts again with `qsmt solve --report`
/// and checks that the CLI's own run report shows no cache, in the
/// top-level `served_from` and in every solve's `cache` section.
fn cli_cache_check(args: &Args, items: &[Item]) -> Vec<String> {
    let portfolio = args.workload == Workload::PortfolioSearch;
    let mut problems = Vec::new();
    for item in items.iter().take(REPORT_CHECKS) {
        let path = item.file.with_extension("report.json");
        let fail = |why: String| format!("{}: {why}", item.file.display());
        let (answer, _) = solve_cli(
            &args.qsmt,
            &item.file,
            item.case.seed,
            portfolio,
            Some(&path),
        );
        let doc = answer.and_then(|_| {
            let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            telemetry::parse(&text).map_err(|e| e.to_string())
        });
        let doc = match doc {
            Ok(doc) => doc,
            Err(e) => {
                problems.push(fail(format!("no CLI run report ({e})")));
                continue;
            }
        };
        if doc.get("served_from").and_then(Json::as_str) == Some("cache") {
            problems.push(fail("the CLI served a script from a cache".into()));
        }
        let mut solves = doc
            .get("goals")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .flat_map(|g| g.get("solves").and_then(Json::as_arr).unwrap_or(&[]));
        if solves.any(|s| !matches!(s.get("cache"), None | Some(Json::Null))) {
            problems.push(fail("a CLI solve consulted a cache".into()));
        }
    }
    problems
}
