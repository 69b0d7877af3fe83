//! Benchmark command.
//!
//! ```text
//! perfbench --workload <replay-open|des-closed|live-closed> [--seed N]
//!           [--seconds S] [--trace 0|1] [--size full|tiny] [--out DIR]
//! ```
//!
//! Prints every metric by name with its unit, the run's deterministic
//! counts, and as the last line one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` —
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. With `--trace 1` the spans are written to
//! `DIR/<workload>-seed<N>.trace.json` (Chrome trace-event format).
//! Exit code 1 when a correctness check failed, 2 on bad arguments or
//! when the trace cannot be written.

use mdbs_perfbench::{run, RunConfig, Size, Workload, DEFAULT_SEED, HOLDOUT_SEED};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    cfg: RunConfig,
    out_dir: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N (default {DEFAULT_SEED}; holdout {HOLDOUT_SEED})] \
         [--seconds S] [--trace 0|1] [--size full|tiny] [--out DIR]",
        Workload::ALL.map(Workload::name).join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("--size takes full or tiny, not {v}")),
                }
            }
            "--out" => out_dir = PathBuf::from(value()?),
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        cfg: RunConfig {
            workload,
            seed,
            seconds,
            trace,
            size,
        },
        out_dir,
    })
}

fn write_trace(
    path: &Path,
    tracer: &mdbs_perfbench::trace::Tracer,
    label: &str,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(File::create(path)?);
    tracer.write_chrome(&mut w, label)?;
    w.flush()
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cfg = args.cfg;
    let name = cfg.workload.name();
    let out = run(&cfg);

    println!(
        "# perfbench workload={name} seed={} seconds={} trace={} size={:?}",
        cfg.seed, cfg.seconds, cfg.trace as u8, cfg.size
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for (n, v) in &out.counts {
        println!("count {n} {v}");
    }
    let metrics = out.metrics(cfg.trace);
    for (n, v, unit) in &metrics {
        println!("metric {n} {v} {unit}");
    }
    if let Some(tracer) = &out.tracer {
        let path = args
            .out_dir
            .join(format!("{name}-seed{}.trace.json", cfg.seed));
        let label = format!("{name} seed {}", cfg.seed);
        if let Err(e) = write_trace(&path, tracer, &label) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "# {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    for p in &out.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, unit)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
