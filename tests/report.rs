//! Integration tests for the observability surface: `qsmt solve --report`
//! must emit a JSON run report whose schema downstream tooling can rely
//! on. The report is parsed back with `qsmt::telemetry::parse` and
//! checked field by field against docs/OBSERVABILITY.md.

use qsmt::telemetry::{parse, Json};
use std::process::Command;

fn qsmt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qsmt"))
}

fn corpus(name: &str) -> String {
    format!("{}/benchmarks/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn report_for(bench: &str, extra: &[&str]) -> Json {
    let dir = std::env::temp_dir().join(format!("qsmt-report-{bench}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("report.json");
    let path_str = path.to_str().expect("utf8 path");
    let mut args = vec![
        "solve",
        &*corpus(bench).leak(),
        "--seed",
        "7",
        "--report",
        path_str,
    ];
    args.extend_from_slice(extra);
    let out = qsmt().args(&args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("report file written");
    std::fs::remove_dir_all(&dir).ok();
    parse(&text).expect("report is valid JSON")
}

#[test]
fn table1_palindrome_report_has_documented_schema() {
    let doc = report_for("table1_row2_palindrome.smt2", &[]);

    // Top level.
    assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(9));
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("sat"));
    // No trace entered on the plain CLI path (schema v8): the id is
    // null but the per-stage span_us rollup is always populated.
    assert_eq!(doc.get("trace_id"), Some(&Json::Null));
    assert!(
        matches!(doc.get("span_us"), Some(Json::Obj(map)) if map.contains_key("sample")),
        "span_us rollup missing the sample stage"
    );
    // The one-shot CLI path runs cache-less: a sat run is always served
    // by the solver, and the per-solve cache section is present-but-null.
    assert_eq!(
        doc.get("served_from").and_then(Json::as_str),
        Some("solver")
    );
    // Abstract-interpretation section (schema v6): the palindrome script
    // is not statically refutable, so the verdict is "unknown" — but the
    // stage ran and its stats are populated.
    let absint = doc.get("absint").expect("absint section");
    assert_ne!(absint, &Json::Null, "absint runs by default");
    assert_eq!(
        absint.get("verdict").and_then(Json::as_str),
        Some("unknown")
    );
    assert!(absint.get("iterations").and_then(Json::as_u64).unwrap() >= 1);
    assert!(absint.get("features").is_some(), "routing features present");
    assert_eq!(
        doc.get("sampler").and_then(Json::as_str),
        Some("simulated-annealing")
    );
    assert!(doc.get("elapsed_us").and_then(Json::as_u64).unwrap() > 0);
    assert!(doc
        .get("source")
        .and_then(Json::as_str)
        .unwrap()
        .ends_with("table1_row2_palindrome.smt2"));

    // One goal, one solve.
    let goals = doc.get("goals").and_then(Json::as_arr).expect("goals");
    assert_eq!(goals.len(), 1);
    let goal = &goals[0];
    assert_eq!(goal.get("name").and_then(Json::as_str), Some("p"));
    assert_eq!(goal.get("valid").and_then(Json::as_bool), Some(true));
    let solves = goal.get("solves").and_then(Json::as_arr).expect("solves");
    assert_eq!(solves.len(), 1);
    let solve = &solves[0];

    // Stage set and monotonic, in-bounds timings.
    let stages = solve.get("stages").and_then(Json::as_arr).expect("stages");
    let labels: Vec<&str> = stages
        .iter()
        .map(|s| s.get("label").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        labels,
        vec!["compile", "lint", "presolve", "embed", "sample", "select"]
    );
    let total_us = solve.get("total_us").and_then(Json::as_u64).unwrap();
    let mut prev_end = 0u64;
    for stage in stages {
        let start = stage.get("start_us").and_then(Json::as_u64).unwrap();
        let dur = stage.get("dur_us").and_then(Json::as_u64).unwrap();
        assert!(start >= prev_end, "stages must not overlap");
        prev_end = start + dur;
    }
    assert!(prev_end <= total_us, "stages fit inside the solve");

    // QUBO shape: the §4.10 palindrome over 6 chars uses 7·6 = 42 vars.
    let qubo = solve.get("qubo").expect("qubo");
    assert_eq!(qubo.get("num_vars").and_then(Json::as_u64), Some(42));
    assert!(qubo.get("num_interactions").and_then(Json::as_u64).unwrap() > 0);
    assert!(qubo.get("density").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(
        qubo.get("max_abs_coefficient")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0
    );

    // Lint stats (schema v2): the palindrome formulation is clean of
    // errors and the stage timing is recorded.
    let lint = solve.get("lint").expect("lint");
    assert_ne!(lint, &Json::Null, "reported solves always lint");
    assert_eq!(lint.get("errors").and_then(Json::as_u64), Some(0));
    let codes = lint.get("codes").and_then(Json::as_arr).expect("codes");
    assert!(codes.iter().all(|c| c.as_str().is_some()));

    // Embedding chain statistics are present for this small model.
    let emb = solve.get("embedding").expect("embedding");
    assert_ne!(emb, &Json::Null, "small models must embed");
    assert_eq!(emb.get("num_logical").and_then(Json::as_u64), Some(42));
    assert!(
        emb.get("num_physical_qubits")
            .and_then(Json::as_u64)
            .unwrap()
            >= 42
    );
    assert!(emb.get("max_chain_length").and_then(Json::as_u64).unwrap() >= 1);
    let hist = emb
        .get("chain_length_histogram")
        .and_then(Json::as_arr)
        .expect("histogram");
    let chains: u64 = hist.iter().map(|h| h.as_u64().unwrap()).sum();
    assert_eq!(chains, 42, "every logical var has exactly one chain");
    assert!(emb
        .get("topology")
        .and_then(Json::as_str)
        .unwrap()
        .starts_with("chimera"));

    // Sampler statistics: populated energies and SA move counters.
    let sampling = solve.get("sampling").expect("sampling");
    assert_eq!(sampling.get("reads").and_then(Json::as_u64), Some(64));
    assert_eq!(sampling.get("sweeps").and_then(Json::as_u64), Some(384));
    // Schema v7: SA bit-slices its 64 reads into one word-wide batch.
    assert_eq!(sampling.get("replicas").and_then(Json::as_u64), Some(64));
    let best = sampling.get("best_energy").and_then(Json::as_f64).unwrap();
    let mean = sampling.get("mean_energy").and_then(Json::as_f64).unwrap();
    let max = sampling.get("max_energy").and_then(Json::as_f64).unwrap();
    assert!(best.is_finite() && mean.is_finite() && max.is_finite());
    assert!(best <= mean && mean <= max);
    assert!(
        sampling
            .get("std_dev_energy")
            .and_then(Json::as_f64)
            .unwrap()
            >= 0.0
    );
    let rate = sampling
        .get("acceptance_rate")
        .and_then(Json::as_f64)
        .expect("SA reports acceptance");
    assert!(rate > 0.0 && rate < 1.0);
    assert!(
        sampling
            .get("success_fraction")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0
    );
    assert!(sampling.get("tts99_us").and_then(Json::as_u64).is_some());

    // Throughput counters (schema v3): SA times its own run, so both
    // rates are present and positive.
    let pps = sampling
        .get("proposals_per_sec")
        .and_then(Json::as_f64)
        .expect("SA reports proposal throughput");
    assert!(pps > 0.0 && pps.is_finite());
    let fps = sampling
        .get("flips_per_sec")
        .and_then(Json::as_f64)
        .expect("SA reports flip throughput");
    assert!(fps > 0.0 && fps <= pps, "accepted flips are a subset");

    // Dynamics section (schema v4): trajectory probes ran under the
    // default SA sampler, so the section is populated.
    let dynamics = solve.get("dynamics").expect("dynamics");
    assert_ne!(dynamics, &Json::Null, "SA emits trajectory dynamics");
    let trace = dynamics
        .get("energy_trace")
        .and_then(Json::as_arr)
        .expect("energy trace");
    assert!(!trace.is_empty());
    let energies: Vec<f64> = trace
        .iter()
        .map(|p| p.get("best_energy").and_then(Json::as_f64).unwrap())
        .collect();
    assert!(
        energies.windows(2).all(|w| w[1] <= w[0] + 1e-9),
        "best-so-far trace is non-increasing"
    );
    let betas = dynamics
        .get("beta_acceptance")
        .and_then(Json::as_arr)
        .expect("per-beta acceptance");
    assert!(!betas.is_empty());
    for entry in betas {
        let proposals = entry.get("proposals").and_then(Json::as_u64).unwrap();
        let accepted = entry.get("accepted").and_then(Json::as_u64).unwrap();
        assert!(accepted <= proposals);
    }
    let ttt = dynamics
        .get("time_to_target")
        .and_then(Json::as_arr)
        .expect("time-to-target curve");
    assert!(!ttt.is_empty());
    let verdict = dynamics
        .get("stall_verdict")
        .and_then(Json::as_str)
        .expect("stall verdict");
    assert!(["improving", "converged", "stalled"].contains(&verdict));
    assert!(dynamics
        .get("proposal_latency_ns")
        .and_then(|h| h.get("p50"))
        .and_then(Json::as_f64)
        .is_some());

    // Cache section (schema v5): present as a key, null when the solver
    // had no cache attached (the CLI path).
    assert_eq!(solve.get("cache"), Some(&Json::Null));

    // Select stage found a valid answer.
    let select = solve.get("select").expect("select");
    assert!(select.get("valid_rank").and_then(Json::as_u64).is_some());

    // The reported energy matches the best sampled energy (post-selection
    // picked a valid sample; for the palindrome that is the ground state).
    assert_eq!(solve.get("valid").and_then(Json::as_bool), Some(true));

    // Span log is present and covers the sample stage.
    let spans = solve.get("spans").and_then(Json::as_arr).expect("spans");
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(Json::as_str) == Some("sample")));
}

#[test]
fn pipeline_report_has_one_solve_per_stage() {
    let doc = report_for("table1_row1_reverse_replace.smt2", &[]);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("sat"));
    let goals = doc.get("goals").and_then(Json::as_arr).unwrap();
    assert_eq!(goals.len(), 1);
    assert_eq!(
        goals[0].get("kind").and_then(Json::as_str),
        Some("pipeline")
    );
    let solves = goals[0].get("solves").and_then(Json::as_arr).unwrap();
    assert_eq!(solves.len(), 2, "reverse then replace_all");
    // Goal total aggregates the per-step solve totals.
    let goal_total = goals[0].get("total_us").and_then(Json::as_u64).unwrap();
    let sum: u64 = solves
        .iter()
        .map(|s| s.get("total_us").and_then(Json::as_u64).unwrap())
        .sum();
    assert_eq!(goal_total, sum);
}

#[test]
fn stats_flag_prints_stage_timings_without_breaking_model_output() {
    let solve = |path: &str, extra: &[&str]| {
        let out = qsmt()
            .args(["solve", path, "--seed", "7"])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{path} {extra:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let dir = format!("{}/benchmarks", env!("CARGO_MANIFEST_DIR"));
    let mut benches: Vec<_> = std::fs::read_dir(dir)
        .expect("benchmarks dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "smt2"))
        .collect();
    benches.sort();
    assert!(benches.len() > 10, "corpus present");
    for path in &benches {
        let path = path.to_str().expect("utf8 path");
        let plain = solve(path, &[]);
        let stdout = solve(path, &["--stats"]);
        // Stats lines are SMT-LIB comments, so the output stays
        // parseable: dropping them leaves exactly the plain output.
        let models: String = stdout
            .lines()
            .filter(|l| !l.starts_with(';'))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(models, plain, "{path}: --stats changed the model output");
        assert!(
            stdout.lines().count() > plain.lines().count(),
            "{path}: --stats printed nothing"
        );
        if path.ends_with("table1_row2_palindrome.smt2") {
            assert!(stdout.starts_with("sat"), "model output comes first");
            for needle in [
                "compile",
                "sample",
                "select",
                "sampling: 64 reads",
                "accepted",
            ] {
                assert!(stdout.contains(needle), "missing {needle:?} in: {stdout}");
            }
        }
    }
}

#[test]
fn trace_flag_prints_span_log() {
    let out = qsmt()
        .args([
            "solve",
            &corpus("table1_row1_reverse_replace.smt2"),
            "--seed",
            "7",
            "--trace",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("; trace for goal"));
    assert!(stdout.contains("compile"));
    assert!(stdout.contains("ms"));
}

#[test]
fn unsat_report_has_status_and_no_goals() {
    let doc = report_for("unsat_regex_length.smt2", &[]);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("unsat"));
    let goals = doc.get("goals").and_then(Json::as_arr).unwrap();
    assert!(
        goals.is_empty(),
        "statically-refuted scripts never reach the sampler"
    );
    // Schema v6: the refutation is attributed to the abstract
    // interpreter, with a non-empty checked certificate.
    assert_eq!(
        doc.get("served_from").and_then(Json::as_str),
        Some("absint")
    );
    let absint = doc.get("absint").expect("absint section");
    assert_eq!(absint.get("verdict").and_then(Json::as_str), Some("unsat"));
    assert!(
        absint
            .get("certificate_steps")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );
}

#[test]
fn no_absint_flag_disables_the_stage_and_keeps_schema_additive() {
    let doc = report_for("table1_row2_palindrome.smt2", &["--no-absint"]);
    assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(9));
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("sat"));
    // The key stays present (additive schema) but is null when opted out.
    assert_eq!(doc.get("absint"), Some(&Json::Null));
}
