//! `vbench` — the compiled half of the verdict benchmark: input
//! generation, the known-answer oracle, the daemon client loop and the
//! traced in-process replay. `run.py` drives it; see `README.md`.
//!
//! USAGE:
//!     vbench gen <workload> <seed> <dir> [--smoke]
//!     vbench oracle <dir>
//!     vbench spawn <satverify> <dir> --seconds <s> | --rounds <n>
//!     vbench drive <endpoint> <dir> --seconds <s> | --rounds <n> [--probe-pid <pid>]
//!     vbench hostref
//!     vbench trace <dir> <repeats>

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use satverify::obs::json::{self, Json};

mod drive;
mod gen;
mod hostref;
mod oracle;
mod spawn;
mod trace;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("vbench: {msg}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let arg = |i: usize| args.get(i).map(String::as_str).ok_or("missing argument");
    match arg(0)? {
        "gen" => {
            let seed = arg(2)?.parse().map_err(|_| "bad seed")?;
            let dir = Path::new(arg(3)?);
            std::fs::create_dir_all(dir.join("out")).map_err(|e| e.to_string())?;
            let smoke = args.iter().any(|a| a == "--smoke");
            let manifest = gen::generate(arg(1)?, seed, smoke, dir)?;
            write_json(&dir.join("manifest.json"), &manifest)
        }
        "oracle" => {
            let dir = Path::new(arg(1)?);
            let n = oracle::run(dir, &read_manifest(dir)?)?;
            eprintln!("vbench: oracle replayed {n} certificates");
            Ok(())
        }
        "drive" => {
            let dir = Path::new(arg(2)?);
            let pid = flag(args, "--probe-pid")?;
            let out = drive::run(arg(1)?, dir, &read_manifest(dir)?, stop(args)?, pid)?;
            println!("{}", out.to_compact_string());
            Ok(())
        }
        "spawn" => {
            let dir = Path::new(arg(2)?);
            let out = spawn::run(arg(1)?, dir, &read_manifest(dir)?, stop(args)?)?;
            println!("{}", out.to_compact_string());
            Ok(())
        }
        "trace" => {
            let dir = Path::new(arg(1)?);
            let repeats = arg(2)?
                .parse::<usize>()
                .map_err(|_| "bad repeat count")?
                .max(1);
            let out = trace::run(dir, &read_manifest(dir)?, repeats)?;
            println!("{}", out.to_compact_string());
            Ok(())
        }
        "hostref" => {
            println!("{}", hostref::run().to_compact_string());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// When a closed loop stops starting rounds; a started round always
/// finishes, so every run holds whole rounds.
#[derive(Clone, Copy)]
enum Stop {
    After(Duration),
    Rounds(u64),
}

impl Stop {
    /// Whether a loop begun at `started` starts round `round`.
    fn another_round(self, started: Instant, round: u64) -> bool {
        match self {
            Stop::After(limit) => started.elapsed() < limit,
            Stop::Rounds(n) => round < n,
        }
    }
}

/// The number following `name`, if the flag is given.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse::<T>().map_err(|_| format!("bad {name} {v:?}")))
        .transpose()
}

/// `--seconds <s>` (closed loop for a time) or `--rounds <n>`.
fn stop(args: &[String]) -> Result<Stop, String> {
    match (
        flag::<f64>(args, "--seconds")?,
        flag::<f64>(args, "--rounds")?,
    ) {
        (Some(s), None) => Ok(Stop::After(Duration::from_secs_f64(s))),
        (None, Some(n)) => Ok(Stop::Rounds(n as u64)),
        _ => Err("give exactly one of --seconds, --rounds".into()),
    }
}

/// The string field `key` of a manifest object; empty when absent.
fn field<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key).and_then(Json::as_str).unwrap_or("")
}

fn read_manifest(dir: &Path) -> Result<Json, String> {
    let path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.to_compact_string() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
