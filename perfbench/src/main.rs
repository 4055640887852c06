//! The hinn benchmark: one workload per invocation.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload session_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! recorder installed; with `--trace 1` it records spans around every call
//! the benchmark makes, reads the program's own counters from one installed
//! `SessionRecorder`, replays layer functions, and reports per-layer
//! metrics. Either way it checks every outcome, prints a digest, and ends
//! with one JSON line; any failed check makes the exit code nonzero.

mod calib;
mod check;
mod cold;
mod gen;
mod layers;
mod report;
mod session;
mod stats;
mod stream;
mod trace;
mod wire;

use check::Ledger;
use report::{Report, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::time::Duration;
use trace::Tracer;

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const WORKLOADS: &[&str] = &["session_cold", "wire_shared", "stream_ingest"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (known: {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one workload run produced.
pub struct Outcome {
    pub report: Report,
    pub ledger: Ledger,
    pub tracer: Tracer,
    /// `key=value` workload parameters for the provenance stamp.
    pub params: Vec<(String, String)>,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit when run inside a git work tree, else `unknown`.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV digest of the program's sources (`src/`, `crates/`, the root
/// manifests): identifies the code measured where no git metadata is.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut d = check::Digest::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            d.write_u64(bytes.len() as u64);
            for chunk in bytes.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                d.write_u64(u64::from_le_bytes(w));
            }
        }
    }
    d.hex()
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn provenance(args: &Args, params: &[(String, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.as_secs().to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("commit".to_string(), json_str(&commit())),
        ("source_digest".to_string(), json_str(&source_digest())),
        ("cpu".to_string(), json_str(&cpu_model())),
        ("nproc".to_string(), nproc.to_string()),
        (
            "hinn_simd".to_string(),
            json_str(hinn::linalg::active_backend().name()),
        ),
        (
            "hinn_threads".to_string(),
            hinn::par::Parallelism::default().threads().to_string(),
        ),
        (
            "measured_threads".to_string(),
            cold::measured_budget().threads().to_string(),
        ),
    ];
    fields.extend(params.iter().map(|(k, v)| (k.clone(), json_str(v))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Outcome {
        report,
        mut ledger,
        tracer,
        params,
    } = match args.workload.as_str() {
        "session_cold" => cold::run(&args),
        "wire_shared" => wire::run(&args),
        _ => stream::run(&args),
    };
    let prov = provenance(&args, &params);
    println!("provenance {prov}");
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "digest {} over {} sessions",
        ledger.digest_all.hex(),
        ledger.digested
    );
    ledger.check(ledger.attempted > 0, || "no operation was attempted".into());
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let result = report.result_json(catalog, &mut ledger, args.trace);
    for (name, unit) in catalog {
        println!(
            "{name} = {} {unit}",
            report.values.get(name).copied().unwrap_or(0.0)
        );
    }
    for b in &ledger.broken {
        println!("CHECK FAILED: {b}");
    }
    let out = Path::new("perfbench/out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(out).and_then(|()| {
        std::fs::write(
            out.join(format!("{stem}.json")),
            format!("{{\"provenance\": {prov}, \"result\": {result}}}\n"),
        )
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not write the report: {e}");
    }
    if args.trace {
        if let Err(e) = tracer.write_jsonl(&out.join(format!("{stem}.spans.jsonl"))) {
            eprintln!("perfbench: could not write spans: {e}");
        }
    }
    println!("{result}");
    if !ledger.correct() {
        std::process::exit(1);
    }
}
