//! `perfbench`: the untraced end-to-end run, and a self-check mode that
//! repeats every workload and reports each metric's spread against the
//! bound in `BENCHMARK.json`.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0 --qsmt PATH
//! perfbench --self-check --qsmt PATH [--runs N] [--seconds S] [--workload W]
//! ```

use qsmt_perfbench::{
    e2e_metrics, measure, parse_args, prepare, print_result, stats, tally, Args, Pass,
};
use qsmt_telemetry::json::{self, Json};
use std::process::{Command, ExitCode};

/// Complete set-ups per run: one before the measured pass, and one
/// after each of `SETUPS - 1` equal parts of it, so that the set-ups
/// sample the host across the whole run, as the measured scripts do.
/// `setup_s` reports their median.
const SETUPS: usize = 5;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.iter().any(|a| a == "--self-check") {
        self_check(&argv)
    } else {
        parse_args(&argv).and_then(|args| run(&args))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    if args.trace {
        return Err("traced runs are made by perfbench-layers".into());
    }
    let prepared = prepare(args)?;
    let mut setups = vec![prepared.setup_s];
    let mut pass: Option<Pass> = None;
    for part in prepared
        .items
        .chunks(prepared.items.len().div_ceil(SETUPS - 1))
    {
        let next = measure(args, &prepared, part)?;
        match &mut pass {
            Some(pass) => pass.append(next),
            None => pass = Some(next),
        }
        // A fresh set-up of its own (on serve-repeat a second service,
        // beside the idle measured one), rewriting the same scripts.
        let extra = prepare(args)?;
        setups.push(extra.setup_s);
        extra.finish()?;
    }
    let items = prepared.items.clone();
    prepared.finish()?;
    let pass = pass.expect("at least one script");
    eprintln!("set-ups (s): {setups:.4?}");
    let t = tally(args.workload, &items, &pass.obs);
    qsmt_perfbench::family_summary(&items, &pass);
    let metrics = e2e_metrics(&pass, &t, stats::percentile(&setups, 50.0));
    print_result(t.failed == 0, &t, &metrics);
    Ok(())
}

/// Repeats each workload `--runs` times with seeds 1..=runs and prints,
/// per end-to-end metric, the median and the quartile spread as a share
/// of the median, against the metric's bound. Fails when any spread
/// exceeds its bound.
fn self_check(argv: &[String]) -> Result<(), String> {
    let value = |flag: &str| {
        let at = argv.iter().position(|a| a == flag)?;
        argv.get(at + 1).cloned()
    };
    let spec_text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("run from the repository root: BENCHMARK.json: {e}"))?;
    let spec = json::parse(&spec_text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let runs: u64 = value("--runs")
        .map_or(Ok(10), |r| r.parse())
        .map_err(|_| "bad --runs")?;
    let seconds = value("--seconds")
        .or_else(|| {
            spec.get("run_seconds")
                .and_then(Json::as_f64)
                .map(|s| s.to_string())
        })
        .ok_or("no --seconds and no run_seconds")?;
    let qsmt = value("--qsmt").ok_or("missing --qsmt")?;
    let only = value("--workload");
    let metrics = spec.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut noisy = Vec::new();
    for w in spec.get("workloads").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without name")?;
        if only.as_deref().is_some_and(|o| o != name) {
            continue;
        }
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); metrics.len()];
        for seed in 1..=runs {
            let out = Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds, "--trace", "0", "--qsmt", &qsmt])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let doc = json::parse(last)
                .map_err(|e| format!("{name} seed {seed}: no result line ({e})"))?;
            if doc.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("{name} seed {seed}: incorrect: {last}"));
            }
            for (m, vals) in metrics.iter().zip(&mut values) {
                let key = m.get("name").and_then(Json::as_str).unwrap_or("");
                let v = doc
                    .get("metrics")
                    .and_then(|ms| ms.get(key))
                    .and_then(|x| x.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name} seed {seed}: no metric {key}"))?;
                vals.push(v);
            }
            let stderr = String::from_utf8_lossy(&out.stderr);
            let notes: Vec<&str> = stderr
                .lines()
                .filter(|l| l.starts_with("host steal") || l.starts_with("set-ups"))
                .collect();
            eprintln!("{name} seed {seed}: {last} [{}]", notes.join("; "));
        }
        println!("{name} ({runs} runs, {seconds} s)");
        for (m, vals) in metrics.iter().zip(&values) {
            let key = m.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let median = stats::percentile(vals, 50.0);
            let (q1, q3) = stats::quartiles(vals);
            let spread = if median == 0.0 {
                0.0
            } else {
                (q3 - q1) / median
            };
            let verdict = if spread <= bound / 3.0 {
                "steady"
            } else if spread <= bound {
                "within bound"
            } else {
                noisy.push(format!("{name}/{key}"));
                "TOO NOISY"
            };
            println!(
                "  {key:<20} median {median:>12.4}  spread {:>6.2}%  bound {:>5.1}%  {verdict}",
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    if noisy.is_empty() {
        Ok(())
    } else {
        Err(format!("spread above bound: {}", noisy.join(", ")))
    }
}
