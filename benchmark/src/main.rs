//! `utcq_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints a detail object, then as the
//! last line of stdout the result object: `correct`, `attempted`,
//! `failed`, and `metrics` (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). Exits non-zero, printing no result, when the
//! repository cannot be built or the run cannot complete.

use std::fmt::Write as _;
use std::process::ExitCode;

use utcq_benchmark::run::{run, Args, Report, END_TO_END, PER_LAYER};
use utcq_benchmark::stats::valid_metric_name;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn render(report: &Report, trace: bool) -> Result<(String, String), String> {
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    let want: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    if names != want {
        return Err(format!(
            "metrics {names:?} differ from the declared {want:?}"
        ));
    }
    let mut detail = String::from("{");
    for (i, (k, v)) in report.detail.iter().enumerate() {
        let _ = write!(detail, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
    }
    detail.push('}');
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.correct, report.attempted, report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        if !valid_metric_name(m.name) || !m.value.is_finite() {
            return Err(format!(
                "metric {} has no valid value ({})",
                m.name, m.value
            ));
        }
        let _ = write!(
            line,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if i > 0 { "," } else { "" },
            m.name,
            m.value,
            m.unit
        );
    }
    line.push_str("}}");
    Ok((detail, line))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        let root = std::env::current_dir().map_err(|e| e.to_string())?;
        if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
            return Err(format!(
                "{} is not the repository root (no Cargo.toml and crates/)",
                root.display()
            ));
        }
        run(&root, &args).and_then(|r| render(&r, args.trace))
    });
    match result {
        Ok((detail, line)) => {
            println!("{detail}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::FAILURE
        }
    }
}
