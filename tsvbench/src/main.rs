//! The repository benchmark: three TSV workloads run as closed loops with
//! one client, checked against stored references, reported as end-to-end
//! metrics; or, with `--trace 1`, one operation replayed through the public
//! calls of each solver crate, reported as per-layer metrics.
//!
//! ```text
//! tsvbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--reference <file>]
//! tsvbench --smoke
//! tsvbench --write-reference <file>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The lines before it are
//! the run record (host, build, inputs, operation count) and, when traced,
//! the spans of one replay with their self times.

mod json;
mod reference;
mod trace;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::quote;
use reference::Reference;
use trace::Trace;
use workloads::{span_metrics, variant_of, Layers, OpOutput, Workload, LAYER_METRICS, NAMES};

const USAGE: &str = "usage: tsvbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--reference <file>] | --smoke | --write-reference <file>";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Least number of operations a tail percentile must leave beyond it.
const TAIL_OPS_BEYOND: usize = 10;

/// The benchmark's own definition, checked by `--smoke`.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Knobs of the solver crates that would change the work; the benchmark
/// clears them so the program receives only the generated inputs.
const CLEARED_KNOBS: [&str; 2] = ["VAEM_CHUNK", "VAEM_FAULTS"];

/// End-to-end metrics of an untraced run, with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("solves_per_s", "1/s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of the traced run besides the layers: the latency tail of its
/// untraced operations (it does not repeat closely enough between runs to
/// gate on) and the cost and coverage of the trace itself.
const TRACE_METRICS: [(&str, &str); 3] = [
    ("latency_tail_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.op_coverage", "ratio"),
];

/// Least share of the `array_nominal_4x4` operation its child spans must
/// cover, so the breakdown describes the operation.
const MIN_NOMINAL_COVERAGE: f64 = 0.9;

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    reference: Option<String>,
}

enum Mode {
    Run(Options),
    Smoke,
    WriteReference(String),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut reference = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--smoke" {
            return Ok(Mode::Smoke);
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--reference" => reference = Some(value),
            "--write-reference" => return Ok(Mode::WriteReference(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
        i += 2;
    }
    Ok(Mode::Run(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
        reference,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&args) {
        Ok(Mode::Run(options)) => run_cli(&options),
        Ok(Mode::Smoke) => smoke(),
        Ok(Mode::WriteReference(path)) => write_reference(&path),
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tsvbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One metric of a run's result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Outcome of one benchmark run.
struct Outcome {
    attempted: usize,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Run-record fields, each value already JSON.
    record: Vec<(&'static str, String)>,
    /// JSON lines of one replay's spans (traced runs).
    spans: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; returns its output when it passed.
    fn tally(&mut self, checked: Result<OpOutput, String>) -> Option<OpOutput> {
        self.attempted += 1;
        match checked {
            Ok(op) => Some(op),
            Err(e) => {
                self.failures.push(e);
                None
            }
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn run_cli(options: &Options) -> Result<ExitCode, String> {
    let reference = match &options.reference {
        Some(path) => Reference::parse(
            &std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
        )?,
        None => Reference::parse(reference::BUILT_IN)?,
    };
    let outcome = run(options, &reference)?;
    let record: Vec<String> = outcome
        .record
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    println!("{{\"record\": {{{}}}}}", record.join(", "));
    for line in &outcome.spans {
        println!("{line}");
    }
    for failure in outcome.failures.iter().take(5) {
        eprintln!("tsvbench: failed operation: {failure}");
    }
    println!("{}", outcome.result_line());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload for `options.seconds` (at least one operation).
/// Configuration problems are errors; failed operations are counted.
fn run(options: &Options, reference: &Reference) -> Result<Outcome, String> {
    let harness_start = Instant::now();
    let name = options.workload.as_str();
    let variant = variant_of(name, options.seed);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workload = Workload::setup(name, variant)?;
    let threads = workload.threads();
    if threads > nproc {
        return Err(format!(
            "{name} runs at VAEM_THREADS={threads} but this host has {nproc} CPUs"
        ));
    }
    for knob in CLEARED_KNOBS {
        std::env::remove_var(knob);
    }
    set_threads(threads);

    let checker = Checker {
        name,
        variant,
        reference,
    };
    let mut outcome = Outcome {
        attempted: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        record: vec![
            ("workload", quote(name)),
            ("seed", options.seed.to_string()),
            ("variant", variant.to_string()),
            ("input", quote(&workload.input())),
            ("traced", options.traced.to_string()),
            ("nproc", nproc.to_string()),
            ("vaem_threads", threads.to_string()),
            ("cleared_knobs", quote(&CLEARED_KNOBS.join(","))),
            ("rustc", quote(env!("TSVBENCH_RUSTC"))),
            ("git_commit", quote(&git_commit())),
            ("source_digest", quote(env!("TSVBENCH_SOURCE_DIGEST"))),
            ("run_seconds", number(options.seconds)),
        ],
        spans: Vec::new(),
    };
    if options.traced {
        traced_run(&workload, options.seconds, &checker, &mut outcome);
    } else {
        untraced_run(
            workload,
            options.seconds,
            &checker,
            &mut outcome,
            harness_start,
        );
    }
    let attempted = outcome.attempted.max(1);
    outcome
        .record
        .push(("attempted", outcome.attempted.to_string()));
    outcome
        .record
        .push(("failed", outcome.failures.len().to_string()));
    outcome.record.push((
        "error_rate",
        number(outcome.failures.len() as f64 / attempted as f64),
    ));
    Ok(outcome)
}

fn set_threads(threads: usize) {
    std::env::set_var("VAEM_THREADS", threads.to_string());
}

/// Per-operation correctness checks against the invariants and the
/// stored reference.
struct Checker<'a> {
    name: &'a str,
    variant: usize,
    reference: &'a Reference,
}

impl Checker<'_> {
    fn check(&self, op: Result<OpOutput, String>) -> Result<OpOutput, String> {
        let op = op?;
        if let Some(problem) = op.problems.first() {
            return Err(problem.clone());
        }
        self.reference
            .check(self.name, self.variant, &op.values)
            .map_err(|e| format!("reference mismatch: {e}"))?;
        Ok(op)
    }
}

fn untraced_run(
    mut workload: Workload,
    seconds: f64,
    checker: &Checker<'_>,
    outcome: &mut Outcome,
    harness_start: Instant,
) {
    // Set-up: build the workload and run one untimed, checked warm-up
    // operation, several times; the first set-up is timed from the start of
    // the harness and the last one is kept for the timed run.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_start = harness_start;
    for _ in 0..SETUP_REPEATS {
        match Workload::setup(checker.name, checker.variant) {
            Ok(fresh) => workload = fresh,
            Err(e) => {
                outcome.failures.push(format!("setup: {e}"));
                return;
            }
        }
        outcome.tally(checker.check(workload.run_op()));
        setups.push(setup_start.elapsed().as_secs_f64());
        setup_start = Instant::now();
    }

    let mut latencies = Vec::new();
    let mut solves = 0;
    let run_start = Instant::now();
    while latencies.is_empty() || run_start.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        let op = workload.run_op();
        latencies.push(start.elapsed().as_secs_f64() * 1.0e3);
        if let Some(op) = outcome.tally(checker.check(op)) {
            solves += op.solves;
        }
    }
    let elapsed = run_start.elapsed().as_secs_f64();

    let error_rate = outcome.failures.len() as f64 / outcome.attempted as f64;
    let values = [
        percentile(&setups, 50.0),
        percentile(&latencies, 50.0),
        solves as f64 / elapsed,
        1.0 - error_rate,
        peak_rss_mb(),
    ];
    for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
        outcome.metrics.push(Metric { name, value, unit });
    }
    let listed: Vec<String> = latencies.iter().map(|&v| number(v)).collect();
    outcome.record.extend([
        ("operations", latencies.len().to_string()),
        ("solves", solves.to_string()),
        (
            "setups_s",
            format!(
                "[{}]",
                setups
                    .iter()
                    .map(|&v| number(v))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("latencies_ms", format!("[{}]", listed.join(", "))),
    ]);
}

fn traced_run(workload: &Workload, seconds: f64, checker: &Checker<'_>, outcome: &mut Outcome) {
    outcome.tally(checker.check(workload.run_op()));
    let mut replays: Vec<Layers> = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut coverages = Vec::new();
    let mut last_trace = None;
    let mut digests = (String::new(), String::new());
    let run_start = Instant::now();
    while replays.is_empty() || run_start.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        let op = workload.run_op();
        untraced_ms.push(start.elapsed().as_secs_f64() * 1.0e3);
        let untraced_digest = outcome
            .tally(checker.check(op))
            .map_or(String::new(), |op| op.digest());

        let mut tr = Trace::new();
        let mut layers: Layers = LAYER_METRICS.iter().map(|&(name, _)| (name, 0.0)).collect();
        let replayed = workload.replay(&mut tr, &mut layers);
        span_metrics(&tr, &mut layers);
        let (op_index, op_span) = tr.find("op").expect("every replay records an op span");
        traced_ms.push(op_span.seconds() * 1.0e3);
        let coverage = 1.0 - tr.self_seconds(op_index) / op_span.seconds();
        coverages.push(coverage);
        let replayed = checker.check(replayed).and_then(|op| {
            if op.digest() != untraced_digest {
                Err(format!(
                    "replay digest {} differs from the untraced operation's {untraced_digest}",
                    op.digest()
                ))
            } else if checker.name == workloads::NOMINAL && coverage < MIN_NOMINAL_COVERAGE {
                Err(format!(
                    "spans cover {coverage:.3} of the operation, below {MIN_NOMINAL_COVERAGE}"
                ))
            } else {
                Ok(op)
            }
        });
        if let Some(op) = outcome.tally(replayed.map_err(|e| format!("replay: {e}"))) {
            digests = (untraced_digest, op.digest());
        }
        replays.push(layers);
        last_trace = Some(tr);
    }

    // Parallel speed-up: one operation at 1 thread over one at every CPU;
    // both must give the same result.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut timed_at = |threads: usize| {
        set_threads(threads);
        let start = Instant::now();
        let op = workload.run_op();
        let seconds = start.elapsed().as_secs_f64();
        (
            seconds,
            outcome.tally(checker.check(op)).map(|op| op.digest()),
        )
    };
    let (serial, serial_digest) = timed_at(1);
    let (parallel, parallel_digest) = timed_at(nproc);
    if matches!((&serial_digest, &parallel_digest), (Some(a), Some(b)) if a != b) {
        outcome
            .failures
            .push("result differs between 1 thread and all CPUs".to_string());
    }
    set_threads(workload.threads());

    for &(name, unit) in LAYER_METRICS {
        let value = match name {
            "parallel.threads" => workload.threads() as f64,
            "parallel.speedup" => serial / parallel,
            _ => percentile(&replays.iter().map(|l| l[name]).collect::<Vec<_>>(), 50.0),
        };
        outcome.metrics.push(Metric { name, value, unit });
    }
    let tail = tail_percentile(untraced_ms.len());
    let trace_values = [
        percentile(&untraced_ms, tail),
        percentile(&traced_ms, 50.0) - percentile(&untraced_ms, 50.0),
        percentile(&coverages, 50.0),
    ];
    for ((name, unit), value) in TRACE_METRICS.into_iter().zip(trace_values) {
        outcome.metrics.push(Metric { name, value, unit });
    }

    let zero: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|m| m.value == 0.0)
        .map(|m| quote(m.name))
        .collect();
    outcome.record.extend([
        ("replays", replays.len().to_string()),
        ("tail_percentile", number(tail)),
        ("untraced_digest", quote(&digests.0)),
        ("replay_digest", quote(&digests.1)),
        ("zero_metrics", format!("[{}]", zero.join(", "))),
    ]);
    if let Some(tr) = last_trace {
        outcome.spans = tr
            .spans()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"span\": {}, \"id\": {i}, \"parent\": {}, \"start_ms\": {}, \"end_ms\": {}, \"self_ms\": {}}}",
                    quote(s.name),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    number(s.start * 1.0e3),
                    number(s.end * 1.0e3),
                    number(tr.self_seconds(i) * 1.0e3)
                )
            })
            .collect();
    }
}

/// The highest whole percentile that leaves at least
/// [`TAIL_OPS_BEYOND`] operations above it, or the median when the run
/// has too few operations for a tail.
fn tail_percentile(operations: usize) -> f64 {
    if operations <= 2 * TAIL_OPS_BEYOND {
        return 50.0;
    }
    (100 * (operations - TAIL_OPS_BEYOND) / operations) as f64
}

/// Nearest-rank percentile of unsorted values.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit of the repository the benchmark was built in, when it is a
/// git checkout.
fn git_commit() -> String {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !repo.join(".git").exists() {
        return "unavailable".to_string();
    }
    Command::new("git")
        .arg("-C")
        .arg(&repo)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unavailable".to_string(), |s| s.trim().to_string())
}

/// Runs every workload for one operation, untraced and traced, and checks
/// that each emits exactly the metrics `BENCHMARK.json` names, with their
/// units, and that every operation passes its checks.
fn smoke() -> Result<ExitCode, String> {
    let spec = json::parse(BENCHMARK_JSON)?;
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .map(|v| v.as_array())
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let (end_to_end, per_layer) = (listed("end_to_end"), listed("per_layer"));
    let workloads: Vec<String> = spec
        .get("workloads")
        .map(|v| v.as_array())
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(|n| n.as_str()).map(str::to_string))
        .collect();
    let reference = Reference::parse(reference::BUILT_IN)?;
    let mut problems = Vec::new();
    if workloads != NAMES {
        problems.push(format!(
            "BENCHMARK.json workloads {workloads:?}, harness runs {NAMES:?}"
        ));
    }
    for name in NAMES {
        for (traced, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let options = Options {
                workload: name.to_string(),
                seed: 1,
                seconds: 0.0,
                traced,
                reference: None,
            };
            let outcome = run(&options, &reference)?;
            let emitted: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            let mode = if traced { "traced" } else { "untraced" };
            if &emitted != expected {
                problems.push(format!(
                    "{name} {mode}: emitted {emitted:?}, BENCHMARK.json lists {expected:?}"
                ));
            }
            if !outcome.correct() {
                problems.push(format!("{name} {mode}: {:?}", outcome.failures));
            }
            println!("smoke {name} {mode}: {}", outcome.result_line());
        }
    }
    for problem in &problems {
        eprintln!("tsvbench smoke: {problem}");
    }
    Ok(if problems.is_empty() {
        println!("smoke: every workload emits every BENCHMARK.json metric with its unit");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Computes the reference values of every workload input variant.
fn write_reference(path: &str) -> Result<ExitCode, String> {
    for knob in CLEARED_KNOBS {
        std::env::remove_var(knob);
    }
    let mut reference = Reference::default();
    for name in NAMES {
        let variants = if name == workloads::PLUG {
            1
        } else {
            workloads::VARIANTS
        };
        for variant in 0..variants {
            let workload = Workload::setup(name, variant)?;
            set_threads(workload.threads());
            let op = workload.run_op()?;
            if let Some(problem) = op.problems.first() {
                return Err(format!("{name} variant {variant}: {problem}"));
            }
            eprintln!("{name} variant {variant}: digest {}", op.digest());
            reference.insert(name, variant, op.values);
        }
    }
    std::fs::write(path, reference.render()).map_err(|e| format!("writing {path}: {e}"))?;
    Ok(ExitCode::SUCCESS)
}
