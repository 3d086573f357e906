//! Benchmark command.
//!
//! ```text
//! rshuffle-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    [--drop-batch]
//! ```
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero when any output check failed.
//! `--drop-batch` discards one delivered batch before the check, so the
//! self-test can prove the check catches it.
//!
//! Every batch runs in a child process of its own (this binary with
//! `--batch plain|traced`), so its peak memory and CPU time are its own
//! and memory the simulator keeps until exit cannot pile up across
//! batches.

use std::process::{Command, ExitCode, Stdio};

use rshuffle_perfbench::workloads::{Batch, Inputs, Kind, Workload};
use rshuffle_perfbench::{batch_record, parse_batch_record, run, trace, Options};

/// Where a traced batch writes its spans.
const SPAN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Runs one batch in this process and prints its record.
fn child(opts: &Options, traced: bool) -> ExitCode {
    let workload = Workload {
        kind: opts.kind,
        inputs: opts.inputs.clone(),
    };
    let tracer = traced.then(trace::Tracer::new);
    let batch = workload.batch(tracer.as_ref());
    if traced {
        let path = format!(
            "{SPAN_DIR}/trace-{}-seed{}.json",
            opts.kind.name(),
            opts.inputs.seed
        );
        let written = std::fs::create_dir_all(SPAN_DIR)
            .and_then(|_| std::fs::write(&path, trace::spans_json(&batch.spans)));
        if let Err(e) = written {
            eprintln!("perfbench: could not write {path}: {e}");
        }
    }
    print!("{}", batch_record(&batch));
    ExitCode::SUCCESS
}

/// Runs one batch in a child process and reads its record back.
fn spawn_batch(opts: &Options, traced: bool) -> Batch {
    let failed = |why: String| Batch {
        attempted: 1,
        failures: vec![why],
        ..Batch::default()
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return failed(format!("cannot find own executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", opts.kind.name()])
        .args(["--seed", &opts.inputs.seed.to_string()])
        .args(["--batch", if traced { "traced" } else { "plain" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        // glibc raises its mmap threshold each time a large block is
        // freed, after which large allocations come from recycled heap
        // memory that is already resident. Which blocks get recycled
        // depends on when simulated threads exit, so the peak RSS of the
        // same batch flipped between about 250 and 530 MiB. Pinning the
        // threshold at glibc's own initial value makes it reproducible.
        .env("MALLOC_MMAP_THRESHOLD_", "131072");
    if opts.inputs.drop_batch {
        cmd.arg("--drop-batch");
    }
    match cmd.output() {
        Ok(out) if out.status.success() => {
            parse_batch_record(&String::from_utf8_lossy(&out.stdout))
                .unwrap_or_else(|e| failed(format!("unreadable batch record: {e}")))
        }
        Ok(out) => failed(format!("batch process failed: {}", out.status)),
        Err(e) => failed(format!("cannot start batch process: {e}")),
    }
}

fn parse(args: &[String]) -> Result<(Options, Option<bool>), String> {
    let mut kind = None;
    let mut inputs = Inputs {
        seed: 1,
        drop_batch: false,
    };
    let mut seconds = 10.0;
    let mut traced = false;
    let mut batch = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => inputs.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => traced = value()? == "1",
            "--drop-batch" => inputs.drop_batch = true,
            "--batch" => batch = Some(value()? == "traced"),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let opts = Options {
        kind: kind.ok_or("--workload is required")?,
        inputs,
        seconds,
        trace: traced,
    };
    Ok((opts, batch))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, batch) = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
            eprintln!("perfbench: {e}\nworkloads: {}", names.join(", "));
            return ExitCode::from(2);
        }
    };
    if let Some(traced) = batch {
        return child(&opts, traced);
    }
    println!(
        "workload {} seed {} seconds {} trace {} ({} CPUs available)",
        opts.kind.name(),
        opts.inputs.seed,
        opts.seconds,
        opts.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = run(&opts, &mut |traced| spawn_batch(&opts, traced));
    println!(
        "batches: {} untraced, {} traced; host figures are medians over them",
        outcome.batches.0, outcome.batches.1
    );
    println!(
        "  host_s of each untraced batch: {:.3?}",
        outcome.host_samples
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    for (name, value) in &outcome.fingerprint {
        println!("  virtual {name:<26} {value:>16}");
    }
    println!(
        "checks: {} attempted, {} failed, error rate {:.4}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for f in &outcome.failures {
        println!("  FAILED: {f}");
    }
    if opts.trace {
        println!("spans of the last traced batch are in {SPAN_DIR}/");
    }
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
