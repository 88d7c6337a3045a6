//! The `check-files` and `stream-large` load: a closed loop that spawns
//! one `satverify` process per job, waits for it, and reads its verdict
//! from the exit code and the `s ...` status line.
//!
//! The loop lives in this small process rather than in `run.py`
//! because the kernel's peak-RSS figure for a child includes the
//! high-water mark of the process that spawned it: reaped from a
//! Python parent every job would read as Python's ~14 MB.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use satverify::obs::json::Json;

use crate::{field, Stop};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

#[cfg(not(target_pointer_width = "64"))]
compile_error!("`Rusage` mirrors the 64-bit layout of `struct rusage`");

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `pid`, returning its wait status and peak resident set (KiB).
fn reap(pid: u32) -> std::io::Result<(i32, i64)> {
    let pid = i32::try_from(pid).map_err(std::io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is a child this process spawned and has not
        // reaped; both pointers are to live, aligned locals that wait4
        // only writes through for the duration of the call.
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            return Ok((status, usage.maxrss));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// The command line of one job of the manifest round.
fn argv(job: &Json, dir: &Path) -> Vec<String> {
    let path = |key: &str| dir.join(field(job, key)).to_string_lossy().into_owned();
    let mut args = vec![field(job, "kind").to_string(), path("cnf"), path("proof")];
    if field(job, "format") == "drat" {
        args.extend(["--proof-format".into(), "drat".into()]);
    }
    if job.get("all") == Some(&Json::Bool(true)) {
        args.push("--all".into());
    }
    if job.get("emit_lrat").and_then(Json::as_str).is_some() {
        args.extend(["--emit-lrat".into(), path("emit_lrat")]);
    }
    if job.get("emit_binary") == Some(&Json::Bool(true)) {
        args.push("--emit-binary".into());
    }
    if let Some(mb) = job.get("stream_mb").and_then(Json::as_int) {
        args.extend(["--stream".into(), "--memory-budget".into(), mb.to_string()]);
        args.extend(["--checkpoint".into(), path("checkpoint")]);
    }
    args
}

/// Maps the CLI's exit-code contract and status line to a verdict;
/// anything else (malformed, exhausted, crashed) is not a verdict.
fn verdict(status: i32, stdout: &str) -> String {
    let exited = status & 0x7f == 0;
    let code = (status >> 8) & 0xff;
    let line = |s: &str| stdout.lines().any(|l| l.trim_end() == s);
    match (exited, code) {
        (true, 0) if line("s VERIFIED") => "verified".into(),
        (true, 1) if line("s NOT VERIFIED") => "rejected".into(),
        (true, 4) => "exhausted".into(),
        (true, 3) => "malformed".into(),
        (true, code) => format!("exit:{code}"),
        (false, _) => format!("signal:{}", status & 0x7f),
    }
}

pub fn run(satverify: &str, dir: &Path, manifest: &Json, stop: Stop) -> Result<Json, String> {
    let round = manifest
        .get("round")
        .and_then(Json::as_array)
        .ok_or("manifest has no job round")?;
    let started = Instant::now();
    let mut records = Vec::new();
    for r in (0..).take_while(|&r| stop.another_round(started, r)) {
        for job in round {
            if let Some(ckpt) = job.get("checkpoint").and_then(Json::as_str) {
                let _ = std::fs::remove_file(dir.join(ckpt));
            }
            let args = argv(job, dir);
            let t0 = Instant::now();
            let mut child = Command::new(satverify)
                .args(&args)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot spawn {satverify}: {e}"))?;
            let mut stdout = String::new();
            child
                .stdout
                .take()
                .expect("stdout is piped")
                .read_to_string(&mut stdout)
                .map_err(|e| format!("reading the checker's output: {e}"))?;
            let (status, maxrss_kb) = reap(child.id()).map_err(|e| format!("wait4: {e}"))?;
            let us = t0.elapsed().as_micros() as u64;
            let mut obj = Json::object();
            for key in ["id", "class", "expect"] {
                obj.push(key, job.get(key).cloned().unwrap_or(Json::Null));
            }
            obj.push("got", verdict(status, &stdout));
            obj.push("us", us);
            obj.push("rss_kb", maxrss_kb);
            obj.push("round", r);
            records.push(obj);
        }
    }
    let mut out = Json::object();
    out.push("wall_us", started.elapsed().as_micros() as u64);
    out.push("jobs", Json::Array(records));
    Ok(out)
}
