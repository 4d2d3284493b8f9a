//! End-to-end benchmark of the `qsmt` binary.
//!
//! A run generates a fixed, seeded list of SMT-LIB scripts, sends each
//! through a user-facing surface (`qsmt solve`, with or without
//! `--portfolio`, or `qsmt serve` over loopback HTTP), checks every
//! answer against the script's ground truth, and reports latency,
//! throughput, decided fraction, CPU and memory. See `../README.md`.

pub mod check;
pub mod gen;
pub mod stats;
pub mod surface;

use check::{score, Answer, Score};
use gen::{cycle_cases, serve_cases, Case, DETERMINED, SEARCH, SERVE_PATTERN, SHAPES};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use surface::{
    allowed_cpus, children_usage, host_steal_ticks, pin_self, solve_cli, Served, Server,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-shot `qsmt solve` over deterministic-transformation scripts.
    SoloDetermined,
    /// One-shot `qsmt solve --portfolio` over search scripts.
    PortfolioSearch,
    /// `qsmt serve --workers 1` under a fixed-rate open loop.
    ServeRepeat,
}

/// Time between `serve-repeat` request due times: twice the slowest
/// job's time and about ten times the mean, so one worker keeps up, no
/// backlog grows, and a slow phase of the host does not push one job
/// into the next request's slot.
pub const SERVE_INTERVAL: Duration = Duration::from_millis(50);

/// Scripts sent in each untimed warm-up.
const WARM_UP: usize = 16;

/// Seed of the warm-up scripts, the same in every run, so that every
/// set-up does the same work and `setup_s` does not vary with `--seed`.
const WARM_SEED: u64 = 0x5741_524D_5550;

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "solo-determined" => Some(Workload::SoloDetermined),
            "portfolio-search" => Some(Workload::PortfolioSearch),
            "serve-repeat" => Some(Workload::ServeRepeat),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloDetermined => "solo-determined",
            Workload::PortfolioSearch => "portfolio-search",
            Workload::ServeRepeat => "serve-repeat",
        }
    }

    /// Length of the fixed script list for a run of `seconds`: sized
    /// from the rate this workload runs at, so a run takes about
    /// `seconds` while the work done never depends on timing. Whole
    /// periods of the family cycle and shape ladder keep the mix exact,
    /// and at least 100 scripts give the 90th percentile ten samples
    /// beyond it.
    pub fn scripts(self, seconds: u64) -> usize {
        let (per_second, period) = match self {
            Workload::SoloDetermined => (37.0, DETERMINED.len() * SHAPES),
            Workload::PortfolioSearch => (30.0, SEARCH.len() * SHAPES),
            Workload::ServeRepeat => (
                1000.0 / SERVE_INTERVAL.as_millis() as f64,
                SERVE_PATTERN.len(),
            ),
        };
        let periods = (seconds as f64 * per_second / period as f64).round() as usize;
        periods.max(100usize.div_ceil(period)) * period
    }

    /// A script counts as on time when decided within this limit.
    pub fn latency_limit_ms(self) -> f64 {
        match self {
            Workload::SoloDetermined | Workload::PortfolioSearch => 500.0,
            Workload::ServeRepeat => 1000.0,
        }
    }

    /// The generated scripts for `seed`.
    pub fn cases(self, seed: u64, n: usize) -> Vec<Case> {
        match self {
            Workload::SoloDetermined => cycle_cases(&DETERMINED, seed, n),
            Workload::PortfolioSearch => cycle_cases(&SEARCH, seed, n),
            Workload::ServeRepeat => serve_cases(seed, n),
        }
    }

    /// The untimed warm-up scripts: same families, a fixed seed.
    pub fn warm_cases(self) -> Vec<Case> {
        self.cases(WARM_SEED, WARM_UP)
    }
}

/// Command-line arguments shared by the untraced and traced drivers.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Intended run length; sets the script count.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// The release `qsmt` binary.
    pub qsmt: PathBuf,
    /// Scratch directory for generated scripts.
    pub work: PathBuf,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1 --qsmt PATH
/// [--work DIR]`.
///
/// # Errors
/// Names the missing or malformed argument.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<String> {
        let at = argv.iter().position(|a| a == flag)?;
        argv.get(at + 1).cloned()
    };
    let number = |raw: Option<String>, flag: &str| -> Result<u64, String> {
        raw.ok_or(format!("missing {flag}"))?
            .parse()
            .map_err(|_| format!("{flag} expects a whole number"))
    };
    let name = value("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = number(value("--seed"), "--seed")?;
    let seconds = number(value("--seconds"), "--seconds")?.max(1);
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace expects 0 or 1, not {other:?}")),
    };
    let qsmt = PathBuf::from(value("--qsmt").ok_or("missing --qsmt")?);
    if !qsmt.is_file() {
        return Err(format!("no qsmt binary at {}", qsmt.display()));
    }
    let work = value("--work").map_or_else(
        || {
            let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
            Path::new(&target).join("perfbench-work")
        },
        PathBuf::from,
    );
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        qsmt,
        work: work.join(workload.name()),
    })
}

/// One script of the measured list, written to disk.
#[derive(Debug, Clone)]
pub struct Item {
    /// The script and its answer key.
    pub case: Case,
    /// Where it was written.
    pub file: PathBuf,
}

/// A prepared run: scripts on disk, warm-up done, server up (serve).
pub struct Prepared {
    /// The measured scripts, in send order.
    pub items: Vec<Item>,
    /// The warm-up scripts, already sent.
    pub warm: Vec<Item>,
    /// The running service (serve-repeat only).
    pub server: Option<Server>,
    /// Wall time of this preparation, seconds.
    pub setup_s: f64,
}

impl Prepared {
    /// Stops the service, if one runs.
    ///
    /// # Errors
    /// The service did not drain cleanly.
    pub fn finish(self) -> Result<(), String> {
        self.server.map_or(Ok(()), Server::shutdown)
    }
}

fn name_items(dir: &Path, stem: &str, cases: Vec<Case>) -> Vec<Item> {
    cases
        .into_iter()
        .enumerate()
        .map(|(i, case)| Item {
            case,
            file: dir.join(format!("{stem}-{i:04}.smt2")),
        })
        .collect()
}

/// Everything a run needs before its first timed script: generate the
/// scripts, start `qsmt serve` (serve-repeat), and push the warm-up
/// scripts through the surface. Warm-up answers are checked too.
///
/// A script reaches the disk only where `qsmt solve` reads it, just
/// before its process starts ([`solve_cli_all`]). Writing a thousand
/// files here made up little of a set-up on a quiet disk, but while
/// other tenants loaded the shared disk it added up to a few hundred
/// ms, and `setup_s` moved with the neighbours' I/O instead of with the
/// program. The directory is reused; each file is rewritten before use.
///
/// # Errors
/// I/O failures, a service that does not start, or a wrong warm-up answer.
pub fn prepare(args: &Args) -> Result<Prepared, String> {
    let started = Instant::now();
    let w = args.workload;
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))?;
    let items = name_items(
        &args.work,
        "run",
        w.cases(args.seed, w.scripts(args.seconds)),
    );
    let warm = name_items(&args.work, "warm", w.warm_cases());
    let server = match w {
        Workload::ServeRepeat => Some(Server::start(&args.qsmt, args.seed)?),
        _ => None,
    };
    let answers: Vec<Result<Answer, String>> = match &server {
        // All warm-up jobs at once: a set-up then costs a fixed number
        // of round trips, not one poll per 5 ms the jobs take, so
        // `setup_s` does not jump when the host runs a job slower.
        Some(server) => {
            let jobs: Vec<(&str, u64)> = warm
                .iter()
                .map(|item| (item.case.source.as_str(), item.case.seed))
                .collect();
            server
                .solve_batch(&jobs)
                .into_iter()
                .map(|served| served.answer)
                .collect()
        }
        None => solve_cli_all(args, &warm)
            .into_iter()
            .map(|a| a.0)
            .collect(),
    };
    for (item, answer) in warm.iter().zip(answers) {
        let answer = answer.map_err(|e| format!("warm-up {}: {e}", item.file.display()))?;
        if let Score::Wrong(why) = score(&item.case.truth, &item.case.var, &answer) {
            return Err(format!("warm-up {}: {why}", item.file.display()));
        }
    }
    Ok(Prepared {
        items,
        warm,
        server,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// One measured script.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The answer, or why there is none.
    pub answer: Result<Answer, String>,
    /// CLI: process wall time. Serve: from the request's due time to
    /// the job observed in a terminal state. Microseconds.
    pub latency_us: f64,
    /// Serve details (serve-repeat only).
    pub served: Option<Served>,
    /// How late the request was sent after its due time, µs (serve).
    pub send_lag_us: f64,
}

/// The measured pass over a prepared list, or over consecutive parts
/// of it.
pub struct Pass {
    /// One observation per item, in order.
    pub obs: Vec<Observation>,
    /// Wall time of the pass, seconds.
    pub wall_s: f64,
    /// CPU time (user + sys) of the `qsmt` processes during the pass, µs.
    pub cpu_us: f64,
    /// Peak RSS of the `qsmt` processes, KiB.
    pub peak_rss_kb: f64,
    /// Host-wide stolen and total CPU time during the pass, clock ticks.
    /// Their ratio, the share the hypervisor stole, is a diagnostic for
    /// runs slowed by other tenants, not a metric.
    pub steal_ticks: (f64, f64),
}

impl Pass {
    /// Appends the pass over the next part of the list.
    pub fn append(&mut self, next: Pass) {
        self.obs.extend(next.obs);
        self.wall_s += next.wall_s;
        self.cpu_us += next.cpu_us;
        self.peak_rss_kb = self.peak_rss_kb.max(next.peak_rss_kb);
        self.steal_ticks.0 += next.steal_ticks.0;
        self.steal_ticks.1 += next.steal_ticks.1;
    }
}

/// Sends `items`, a part of the prepared list, through the workload's
/// surface, timing each script from outside.
///
/// # Errors
/// The OS accounting of the `qsmt` processes is unreadable.
pub fn measure(args: &Args, prepared: &Prepared, items: &[Item]) -> Result<Pass, String> {
    let steal0 = host_steal_ticks();
    let mut pass = measure_surface(args, prepared, items)?;
    let steal1 = host_steal_ticks();
    pass.steal_ticks = (steal1.0 - steal0.0, steal1.1 - steal0.1);
    Ok(pass)
}

fn measure_surface(args: &Args, prepared: &Prepared, items: &[Item]) -> Result<Pass, String> {
    let mut obs = Vec::with_capacity(items.len());
    let started = Instant::now();
    if let Some(server) = &prepared.server {
        // Open loop: request i is due at i × interval; one request in
        // flight from this client, latency counted from the due time.
        let cpu0 = server.cpu_us()?;
        let mut last = started;
        for (i, item) in items.iter().enumerate() {
            let due = started + SERVE_INTERVAL * i as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let send_lag_us = Instant::now().duration_since(due).as_secs_f64() * 1e6;
            let served = server.solve(&item.case.source, item.case.seed);
            last = served.done;
            obs.push(Observation {
                answer: served.answer.clone(),
                latency_us: served.done.duration_since(due).as_secs_f64() * 1e6,
                served: Some(served),
                send_lag_us,
            });
        }
        return Ok(Pass {
            obs,
            wall_s: last.duration_since(started).as_secs_f64(),
            cpu_us: server.cpu_us()? - cpu0,
            peak_rss_kb: server.peak_rss_kb()?,
            steal_ticks: (0.0, 0.0),
        });
    }
    let (cpu0, _) = children_usage();
    for (answer, latency_us) in solve_cli_all(args, items) {
        obs.push(Observation {
            answer,
            latency_us,
            served: None,
            send_lag_us: 0.0,
        });
    }
    let wall_s = started.elapsed().as_secs_f64();
    let (cpu1, peak_rss_kb) = children_usage();
    Ok(Pass {
        obs,
        wall_s,
        cpu_us: cpu1 - cpu0,
        peak_rss_kb,
        steal_ticks: (0.0, 0.0),
    })
}

/// Writes each item's script to its file and runs `qsmt solve` (with
/// `--portfolio` on portfolio-search) on it, in order, returning each
/// answer and the process's wall time in µs.
///
/// The solo CLI path is single-threaded, and on a shared host one CPU
/// can run measurably slower than another for minutes at a time.
/// Pinning solo scripts to the allowed CPUs in turn gives every run the
/// same mix of them, instead of whatever the scheduler picked.
/// Portfolio races use every CPU and stay unpinned.
pub fn solve_cli_all(args: &Args, items: &[Item]) -> Vec<(Result<Answer, String>, f64)> {
    let portfolio = args.workload == Workload::PortfolioSearch;
    let cpus = allowed_cpus();
    let rotate = !portfolio && cpus.len() > 1;
    let out = items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            if let Err(e) = std::fs::write(&item.file, &item.case.source) {
                return (Err(format!("cannot write the script: {e}")), 0.0);
            }
            if rotate {
                pin_self(&[cpus[i % cpus.len()]]);
            }
            solve_cli(&args.qsmt, &item.file, item.case.seed, portfolio, None)
        })
        .collect();
    if rotate {
        pin_self(&cpus);
    }
    out
}

/// Scored observations.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Scripts attempted.
    pub attempted: usize,
    /// Errors, refusals, timeouts, wrong verdicts and bad models.
    pub failed: usize,
    /// Sat with a checked model, or unsat on an unsat script.
    pub decided: usize,
    /// Decided within the workload's latency limit.
    pub on_time: usize,
    /// One line per failure.
    pub failures: Vec<String>,
}

/// Scores every observation against its script's ground truth.
pub fn tally(workload: Workload, items: &[Item], obs: &[Observation]) -> Tally {
    let mut t = Tally {
        attempted: obs.len(),
        ..Tally::default()
    };
    for (item, o) in items.iter().zip(obs) {
        let result = o
            .answer
            .as_ref()
            .map(|a| score(&item.case.truth, &item.case.var, a))
            .map_err(String::clone);
        match result {
            Ok(Score::Decided) => {
                t.decided += 1;
                if o.latency_us <= workload.latency_limit_ms() * 1e3 {
                    t.on_time += 1;
                }
            }
            Ok(Score::Undecided) => {}
            Ok(Score::Wrong(why)) | Err(why) => {
                t.failed += 1;
                t.failures.push(format!("{}: {why}", item.file.display()));
            }
        }
    }
    t
}

/// Prints, per template, the script count, decided count and median
/// latency to standard error: where a run's time went, by family.
pub fn family_summary(items: &[Item], pass: &Pass) {
    let obs = &pass.obs;
    let (stolen, total) = pass.steal_ticks;
    eprintln!(
        "host steal during the pass: {:.2}%",
        if total > 0.0 {
            stolen / total * 100.0
        } else {
            0.0
        }
    );
    let mut names: Vec<&str> = items.iter().map(|i| i.case.template.name()).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let (mut lat, mut decided) = (Vec::new(), 0);
        for (item, o) in items.iter().zip(obs) {
            if item.case.template.name() == name {
                lat.push(o.latency_us / 1e3);
                let s = o
                    .answer
                    .as_ref()
                    .map(|a| score(&item.case.truth, &item.case.var, a));
                decided += usize::from(matches!(s, Ok(Score::Decided)));
            }
        }
        eprintln!(
            "{name:>16}: {:>4} scripts, {decided:>4} decided, p50 {:>8.3} ms, p90 {:>8.3} ms",
            lat.len(),
            stats::percentile(&lat, 50.0),
            stats::percentile(&lat, 90.0)
        );
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The end-to-end metrics of one untraced run.
pub fn e2e_metrics(pass: &Pass, t: &Tally, setup_s: f64) -> Vec<Metric> {
    let latencies: Vec<f64> = pass.obs.iter().map(|o| o.latency_us / 1e3).collect();
    let n = t.attempted.max(1) as f64;
    vec![
        Metric::new("latency_p50_ms", stats::percentile(&latencies, 50.0), "ms"),
        Metric::new("latency_p90_ms", stats::percentile(&latencies, 90.0), "ms"),
        Metric::new("latency_samples", latencies.len() as f64, "count"),
        Metric::new("scripts_per_s", t.attempted as f64 / pass.wall_s, "1/s"),
        Metric::new("decided_fraction", t.decided as f64 / n, "fraction"),
        Metric::new("on_time_fraction", t.on_time as f64 / n, "fraction"),
        Metric::new("cpu_ms_per_script", pass.cpu_us / 1e3 / n, "ms"),
        Metric::new("peak_rss_mb", pass.peak_rss_kb / 1024.0, "MB"),
        Metric::new("setup_s", setup_s, "s"),
    ]
}

/// Prints the result line the benchmark contract asks for, as the last
/// line of standard output.
pub fn print_result(correct: bool, t: &Tally, metrics: &[Metric]) {
    for f in &t.failures {
        eprintln!("FAILED {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted,
        t.failed,
        body.join(", ")
    );
}
