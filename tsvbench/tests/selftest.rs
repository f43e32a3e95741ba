//! The benchmark's own tests: the smoke mode emits every metric that
//! `BENCHMARK.json` names, and a corrupted reference makes every operation
//! fail, which shows the correctness checks can fail.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

fn tsvbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tsvbench"))
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

fn result_line(output: &Output) -> json::Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("the run prints a result line");
    json::parse(last).expect("the result line is JSON")
}

fn count(result: &json::Value, key: &str) -> f64 {
    match result.get(key) {
        Some(json::Value::Number(n)) => *n,
        other => panic!("{key} is {other:?}"),
    }
}

#[test]
fn smoke_emits_every_benchmark_metric_with_its_unit() {
    let output = tsvbench(&["--smoke"]);
    assert!(
        output.status.success(),
        "smoke failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn corrupted_reference_drives_the_error_rate_to_one() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let reference = std::fs::read_to_string(manifest.join("reference.txt")).unwrap();
    // Shift every stored value by 0.1%, far outside the 1e-6 tolerance.
    let corrupted: String = reference
        .lines()
        .map(|line| {
            if line.starts_with('#') {
                return format!("{line}\n");
            }
            let mut fields = line.split_whitespace();
            let head = [fields.next().unwrap(), fields.next().unwrap()].join(" ");
            let values: Vec<String> = fields
                .map(|v| format!("{:e}", v.parse::<f64>().unwrap() * 1.001 + 1.0e-300))
                .collect();
            format!("{head} {}\n", values.join(" "))
        })
        .collect();
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("corrupted_reference.txt");
    std::fs::write(&path, corrupted).unwrap();

    let output = tsvbench(&[
        "--workload",
        "plug_sweep",
        "--seed",
        "0",
        "--seconds",
        "0",
        "--trace",
        "0",
        "--reference",
        path.to_str().unwrap(),
    ]);
    assert!(!output.status.success(), "a failed check must fail the run");
    let result = result_line(&output);
    assert_eq!(result.get("correct"), Some(&json::Value::Bool(false)));
    let attempted = count(&result, "attempted");
    assert!(attempted >= 1.0);
    assert_eq!(
        count(&result, "failed"),
        attempted,
        "error_rate must be 1.0"
    );
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &[
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "plug_sweep",
            "--seed",
            "1",
            "--trace",
            "2",
            "--seconds",
            "1",
        ][..],
        &["--seed", "1", "--seconds", "1", "--trace", "0"][..],
    ] {
        let output = tsvbench(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
