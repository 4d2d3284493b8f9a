//! Corpus gate for presolve answers: every script in `benchmarks/` is
//! solved through the `qsmt` binary at seeds 1–3, plain and with
//! `--portfolio`.
//!
//! * The run report's `served_from` is `presolve` for exactly the
//!   scripts whose every solve persistency fixes completely
//!   ([`PRESOLVED`]), and each of their solves ran only the stages
//!   `compile`, `lint`, `presolve`, `select`. A race is never
//!   presolved, so under `--portfolio` only scripts of pipeline goals
//!   (which never race) can be.
//! * Plain `qsmt solve` stdout — verdict and model — is byte-identical to
//!   the checked-in snapshot (`benchmarks/presolve_expected.json`), taken
//!   from the solver before presolve could answer a goal, and the
//!   portfolio verdict equals it.
//!
//! To regenerate the snapshot after an intentional change of answers:
//!
//! ```text
//! QSMT_BLESS=1 cargo test --test presolve_corpus
//! ```

use qsmt::telemetry::{parse, Json};
use std::collections::BTreeMap;
use std::process::Command;

/// The scripts presolve answers in full.
const PRESOLVED: [&str; 5] = [
    "bounded_repetition.smt2",
    "nested_pipeline.smt2",
    "table1_row1_reverse_replace.smt2",
    "table1_row4_concat_replace.smt2",
    "table1_row5_substring.smt2",
];

const SEEDS: [u64; 3] = [1, 2, 3];

fn benchmarks_dir() -> String {
    format!("{}/benchmarks", env!("CARGO_MANIFEST_DIR"))
}

fn snapshot_path() -> String {
    format!("{}/presolve_expected.json", benchmarks_dir())
}

fn corpus_files() -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(benchmarks_dir())
        .expect("benchmarks dir")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.ends_with(".smt2").then_some(name)
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus must not be empty");
    files
}

/// Runs `qsmt solve` on one corpus script, returning its stdout and run
/// report.
fn solve(name: &str, seed: u64, portfolio: bool) -> (String, Json) {
    let report_path = std::env::temp_dir().join(format!(
        "qsmt-presolve-corpus-{}-{name}-{seed}-{portfolio}.json",
        std::process::id()
    ));
    let seed = seed.to_string();
    let mut args = vec![
        "solve".to_string(),
        format!("{}/{name}", benchmarks_dir()),
        "--seed".to_string(),
        seed,
        "--report".to_string(),
        report_path.to_str().expect("utf8 path").to_string(),
    ];
    if portfolio {
        args.push("--portfolio".to_string());
    }
    let out = Command::new(env!("CARGO_BIN_EXE_qsmt"))
        .args(&args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{name}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&report_path).expect("report written");
    std::fs::remove_file(&report_path).ok();
    let report = parse(&text).expect("report is valid JSON");
    (String::from_utf8(out.stdout).expect("utf8"), report)
}

fn served_from(report: &Json) -> &str {
    report
        .get("served_from")
        .and_then(Json::as_str)
        .expect("served_from")
}

/// Stage labels of every solve in the run.
fn stage_labels(report: &Json) -> Vec<Vec<String>> {
    let goals = report.get("goals").and_then(Json::as_arr).unwrap_or(&[]);
    goals
        .iter()
        .flat_map(|g| g.get("solves").and_then(Json::as_arr).unwrap_or(&[]))
        .map(|s| {
            s.get("stages")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|t| t.get("label").and_then(Json::as_str))
                .map(str::to_string)
                .collect()
        })
        .collect()
}

#[test]
fn presolve_answers_exactly_the_determined_scripts_without_changing_answers() {
    let mut actual = BTreeMap::new();
    for name in corpus_files() {
        let mut by_seed = BTreeMap::new();
        for seed in SEEDS {
            let (stdout, report) = solve(&name, seed, false);
            let presolved = PRESOLVED.contains(&name.as_str());
            assert_eq!(
                served_from(&report) == "presolve",
                presolved,
                "{name} seed {seed}: served_from {}",
                served_from(&report)
            );
            if presolved {
                for labels in stage_labels(&report) {
                    assert_eq!(labels, ["compile", "lint", "presolve", "select"], "{name}");
                }
            }
            // Races are never presolved, but pipeline stages never race,
            // so a pipeline-only script is presolved under `--portfolio`
            // too.
            let (raced, raced_report) = solve(&name, seed, true);
            if served_from(&raced_report) == "presolve" {
                assert!(presolved, "{name} seed {seed}: raced run presolved");
            }
            assert_eq!(
                raced.lines().next(),
                stdout.lines().next(),
                "{name} seed {seed}: portfolio verdict diverged"
            );
            by_seed.insert(seed.to_string(), Json::Str(stdout));
        }
        actual.insert(name, Json::Obj(by_seed));
    }
    let actual = Json::Obj(actual);

    if std::env::var("QSMT_BLESS").is_ok() {
        std::fs::write(snapshot_path(), actual.pretty()).expect("write snapshot");
        eprintln!("blessed {}", snapshot_path());
        return;
    }
    let expected_text = std::fs::read_to_string(snapshot_path()).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `QSMT_BLESS=1 cargo test --test presolve_corpus` \
             to generate it",
            snapshot_path()
        )
    });
    let expected = parse(&expected_text).expect("snapshot is valid JSON");
    if actual != expected {
        let actual_pretty = actual.pretty();
        let expected_pretty = expected.pretty();
        for (a, e) in actual_pretty.lines().zip(expected_pretty.lines()) {
            if a != e {
                eprintln!("- {e}\n+ {a}");
            }
        }
        panic!(
            "corpus answers drifted from the snapshot; if the change is intentional run \
             `QSMT_BLESS=1 cargo test --test presolve_corpus` and commit the result"
        );
    }
}
