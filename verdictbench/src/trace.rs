//! The traced run: a workload's jobs replayed in-process, with every
//! call into a layer's public functions wrapped in a span named after
//! the layer metric it feeds. The program itself carries no tracing;
//! the spans are taken here, from outside.
//!
//! Each job is replayed untraced and then traced, `repeats` times; the
//! gap between the two totals is the tracing overhead. Spans stay in
//! memory and are written to `spans.jsonl` when the run ends. A span's
//! self time is its duration minus its children's; a layer metric
//! `X_us` is the mean, over the jobs that enter the layer, of the
//! per-job self time of spans named `X` or `X.*` (median over repeats).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use satverify::cnf::{parse_dimacs_str, CnfFormula};
use satverify::obs::json::Json;
use satverify::proofver::{
    check_lrat, decode_proof, encode_lrat, parse_drat, parse_lrat, parse_proof_str,
    verify_drat_backward_harnessed, verify_drat_stream, verify_harnessed, write_lrat, Budget,
    CheckMode, ConflictClauseProof, DratOutcome, Harness, Outcome, PropagatorChoice, StreamConfig,
    StreamOutcome, MAGIC,
};
use satverifyd::cache::CacheKey;

use crate::field;
use satverifyd::{job, Request, Response, VerifyRequest};

struct Span {
    job: usize,
    rep: usize,
    parent: Option<usize>,
    name: &'static str,
    start_us: f64,
    end_us: f64,
}

/// In-memory span recorder; when off, `begin`/`end` record nothing.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: usize,
    rep: usize,
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            job: self.job,
            rep: self.rep,
            parent: self.open.last().copied(),
            name,
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        Some(id)
    }

    fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_us = self.now_us();
            self.open.pop();
        }
    }

    fn span<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = call();
        self.end(id);
        out
    }
}

/// Work counts a replay reports, summed over one round of jobs.
#[derive(Default)]
struct Counts {
    clause_visits: u64,
    verify_checked: u64,
    verify_total: u64,
    drat_checked: u64,
    drat_adds: u64,
    parse_bytes: u64,
    protocol_bytes: u64,
    stream_windows: u64,
    stream_shrinks: u64,
    stream_rebuilds: u64,
    stream_peak_residency: u64,
}

fn read(dir: &Path, name: &str) -> Result<Vec<u8>, String> {
    std::fs::read(dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"))
}

fn parse_formula(bytes: &[u8], name: &str) -> Result<CnfFormula, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("{name}: {e}"))?;
    parse_dimacs_str(text).map_err(|e| format!("{name}: {e}"))
}

fn parse_native(bytes: &[u8], name: &str) -> Result<ConflictClauseProof, String> {
    if bytes.starts_with(&MAGIC) {
        decode_proof(bytes).map_err(|e| format!("{name}: {e}"))
    } else {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("{name}: {e}"))?;
        parse_proof_str(text).map_err(|e| format!("{name}: {e}"))
    }
}

/// Replays one spawned-CLI job (`check`, `check --stream`, `lrat`) the
/// way the CLI runs it; returns the verdict.
fn replay_file_job(
    tr: &mut Tracer,
    dir: &Path,
    job: &Json,
    counts: &mut Counts,
) -> Result<String, String> {
    let (cnf, proof) = (field(job, "cnf"), field(job, "proof"));
    let bytes = tr.span("read", || read(dir, cnf))?;
    let formula = tr.span("cnf.parse_dimacs", || parse_formula(&bytes, cnf))?;
    let harness = Harness::default();
    let engine = PropagatorChoice::Watched;
    if let Some(mb) = job.get("stream_mb").and_then(Json::as_int) {
        let checkpoint = dir.join(field(job, "checkpoint"));
        let _ = std::fs::remove_file(&checkpoint);
        let config = StreamConfig {
            memory_budget: mb as u64 * 1024 * 1024,
            checkpoint: Some(checkpoint),
            ..StreamConfig::default()
        };
        let path = dir.join(proof);
        let outcome = tr.span("proofver.stream", || {
            verify_drat_stream(&formula, &path, &harness, &config, engine, None, None)
        });
        return Ok(match outcome {
            StreamOutcome::Verified(v) => {
                counts.clause_visits += v.clause_visits;
                counts.stream_windows += v.windows;
                counts.stream_shrinks += v.window_shrinks;
                counts.stream_rebuilds += v.arena_rebuilds;
                counts.stream_peak_residency = counts.stream_peak_residency.max(v.peak_residency);
                "verified".into()
            }
            StreamOutcome::Rejected { .. } => "rejected".into(),
            other => format!("failed:{other:?}"),
        });
    }
    let bytes = tr.span("read", || read(dir, proof))?;
    counts.parse_bytes += bytes.len() as u64;
    match field(job, "format") {
        "native" => {
            let proof = tr.span("proofver.parse", || parse_native(&bytes, proof))?;
            let mode = if job.get("all") == Some(&Json::Bool(true)) {
                CheckMode::All
            } else {
                CheckMode::MarkedOnly
            };
            let outcome = tr.span("proofver.verify", || {
                verify_harnessed(&formula, &proof, mode, &harness)
            });
            Ok(match outcome {
                Outcome::Verified(v) => {
                    counts.clause_visits += v.report.clause_visits;
                    counts.verify_checked += v.report.num_checked as u64;
                    counts.verify_total += v.report.num_conflict_clauses as u64;
                    "verified".into()
                }
                Outcome::Rejected { .. } => "rejected".into(),
                Outcome::Exhausted { reason, .. } => format!("exhausted:{}", reason.as_str()),
            })
        }
        "drat" => {
            let drat = tr
                .span("proofver.parse", || parse_drat(&bytes))
                .map_err(|e| format!("{proof}: {e}"))?;
            let outcome = tr.span("proofver.drat_backward", || {
                verify_drat_backward_harnessed(&formula, &drat, &harness, engine)
            });
            let v = match outcome {
                DratOutcome::Verified(v) => v,
                DratOutcome::Rejected { .. } => return Ok("rejected".into()),
                DratOutcome::Exhausted { reason, .. } => {
                    return Ok(format!("exhausted:{}", reason.as_str()))
                }
            };
            counts.clause_visits += v.clause_visits;
            counts.drat_checked += v.num_checked as u64;
            counts.drat_adds += drat.num_adds() as u64;
            if let Some(cert) = job.get("emit_lrat").and_then(Json::as_str) {
                let binary = job.get("emit_binary") == Some(&Json::Bool(true));
                tr.span("proofver.lrat_write", || {
                    let mut out = Vec::new();
                    if binary {
                        encode_lrat(&mut out, &v.lrat)
                    } else {
                        write_lrat(&mut out, &v.lrat)
                    }
                    .and_then(|()| std::fs::write(dir.join(cert), &out))
                })
                .map_err(|e| format!("cannot write {cert}: {e}"))?;
            }
            Ok("verified".into())
        }
        _ => {
            let lrat = tr
                .span("proofver.parse", || parse_lrat(&bytes))
                .map_err(|e| format!("{proof}: {e}"))?;
            let checked = tr.span("proofver.check_lrat", || check_lrat(&formula, &lrat));
            Ok(if checked.is_ok() {
                "verified"
            } else {
                "rejected"
            }
            .into())
        }
    }
}

/// The index-only pass of a streamed job: zero propagation fuel stops
/// the run right after the granule index is built (as `trajectory`
/// measures it). Outside the job's root span: the CLI never runs it.
fn probe_stream_index(tr: &mut Tracer, dir: &Path, job: &Json) -> Result<(), String> {
    let Some(mb) = job.get("stream_mb").and_then(Json::as_int) else {
        return Ok(());
    };
    let cnf = field(job, "cnf");
    let formula = parse_formula(&read(dir, cnf)?, cnf)?;
    let config = StreamConfig {
        memory_budget: mb as u64 * 1024 * 1024,
        ..StreamConfig::default()
    };
    let harness = Harness::with_budget(Budget::unlimited().max_propagations(0));
    let path = dir.join(field(job, "proof"));
    let root = tr.begin("probe");
    let outcome = tr.span("proofver.stream_index", || {
        verify_drat_stream(
            &formula,
            &path,
            &harness,
            &config,
            PropagatorChoice::Watched,
            None,
            None,
        )
    });
    tr.end(root);
    match outcome {
        StreamOutcome::Exhausted { .. } => Ok(()),
        other => Err(format!(
            "index-only pass did not stop after indexing: {other:?}"
        )),
    }
}

/// One daemon job as the two ends of the socket process it: the client
/// encodes the request, the server parses it, keys the cache and (on a
/// miss) executes it, then encodes the response the client parses.
fn replay_daemon_job(tr: &mut Tracer, base: &Base, counts: &mut Counts) -> Result<String, String> {
    let Base {
        class,
        formula,
        proof,
    } = base;
    let request = Request::Verify(VerifyRequest {
        id: Some(format!("trace-{class}")),
        formula: Some(formula.clone()),
        proof: Some(proof.clone()),
        ..VerifyRequest::default()
    });
    let line = tr.span("satverifyd.protocol.encode.request", || request.to_line());
    let parsed = tr.span("satverifyd.protocol.parse.request", || {
        Request::parse(&line)
    })?;
    let Request::Verify(verify) = parsed else {
        return Err("request did not parse back as verify".into());
    };
    let key = tr.span("satverifyd.cache.key", || CacheKey::for_request(&verify));
    if key.is_none() {
        return Err(format!("{class}: inline job is not cacheable"));
    }
    let result = tr
        .span("satverifyd.job.execute", || {
            job::execute(&verify, &Harness::default())
        })
        .map_err(|(code, msg)| format!("{class}: {}: {msg}", code.as_str()))?;
    let verdict = result.outcome.clone();
    let reply = tr.span("satverifyd.protocol.encode.response", || {
        Response::Result(result).to_line()
    });
    tr.span("satverifyd.protocol.parse.response", || {
        Response::parse(&reply)
    })?;
    counts.protocol_bytes += (line.len() + reply.len()) as u64;
    Ok(verdict)
}

/// The layers `job::execute` runs inside, replayed on the same inputs:
/// execute reports no work counts and cannot be spanned from outside.
fn probe_daemon_layers(tr: &mut Tracer, base: &Base, counts: &mut Counts) -> Result<(), String> {
    let Base {
        class,
        formula,
        proof,
    } = base;
    let root = tr.begin("probe");
    let formula = tr.span("cnf.parse_dimacs", || {
        parse_formula(formula.as_bytes(), class)
    })?;
    let proof_bytes = proof.as_bytes();
    let proof = tr.span("proofver.parse", || parse_native(proof_bytes, class))?;
    let outcome = tr.span("proofver.verify", || {
        verify_harnessed(&formula, &proof, CheckMode::MarkedOnly, &Harness::default())
    });
    tr.end(root);
    counts.parse_bytes += proof_bytes.len() as u64;
    if let Outcome::Verified(v) = outcome {
        counts.clause_visits += v.report.clause_visits;
        counts.verify_checked += v.report.num_checked as u64;
        counts.verify_total += v.report.num_conflict_clauses as u64;
    }
    Ok(())
}

struct JobRun {
    id: String,
    expect: String,
    verdict: String,
    untraced_us: Vec<f64>,
    traced_us: Vec<f64>,
}

/// A daemon job: the base's class and its inline formula and proof.
struct Base {
    class: String,
    formula: String,
    proof: String,
}

/// One job of the replayed round.
enum Traced<'a> {
    /// A spawned-CLI job of the manifest round.
    File(&'a Json),
    /// A daemon base, submitted inline.
    Daemon(Base),
}

impl Traced<'_> {
    fn replay(&self, tr: &mut Tracer, dir: &Path, counts: &mut Counts) -> Result<String, String> {
        match self {
            Traced::File(job) => replay_file_job(tr, dir, job, counts),
            Traced::Daemon(base) => replay_daemon_job(tr, base, counts),
        }
    }

    fn probe(&self, tr: &mut Tracer, dir: &Path, counts: &mut Counts) -> Result<(), String> {
        match self {
            Traced::File(job) => probe_stream_index(tr, dir, job),
            Traced::Daemon(base) => probe_daemon_layers(tr, base, counts),
        }
    }
}

pub fn run(dir: &Path, manifest: &Json, repeats: usize) -> Result<Json, String> {
    let mut jobs = Vec::new();
    let mut runs = Vec::new();
    let text = |name: &str| {
        read(dir, name).and_then(|b| String::from_utf8(b).map_err(|e| format!("{name}: {e}")))
    };
    if let Some(bases) = manifest.get("bases").and_then(Json::as_array) {
        for b in bases {
            runs.push(job_run(field(b, "class"), field(b, "expect")));
            jobs.push(Traced::Daemon(Base {
                class: field(b, "class").to_string(),
                formula: text(field(b, "cnf"))?,
                proof: text(field(b, "proof"))?,
            }));
        }
    } else {
        let round = manifest
            .get("round")
            .and_then(Json::as_array)
            .ok_or("no job round")?;
        for job in round {
            runs.push(job_run(field(job, "id"), field(job, "expect")));
            jobs.push(Traced::File(job));
        }
    }

    let mut tr = Tracer {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        job: 0,
        rep: 0,
    };
    // work counts are taken from the last repeat, with its probes
    let mut counts = Counts::default();
    for rep in 0..repeats {
        let last = rep + 1 == repeats;
        for (j, job) in jobs.iter().enumerate() {
            (tr.job, tr.rep) = (j, rep);
            let mut scratch = Counts::default();
            let counts = if last { &mut counts } else { &mut scratch };
            timed_pair(
                &mut tr,
                &mut runs[j],
                |tr, c| job.replay(tr, dir, c),
                counts,
            )?;
            if last {
                tr.on = true;
                job.probe(&mut tr, dir, counts)?;
                tr.on = false;
            }
        }
    }
    write_spans(dir, &tr, &runs)?;
    Ok(summarise(&tr, &runs, &counts))
}

fn job_run(id: &str, expect: &str) -> JobRun {
    JobRun {
        id: id.to_string(),
        expect: expect.to_string(),
        verdict: String::new(),
        untraced_us: Vec::new(),
        traced_us: Vec::new(),
    }
}

/// Runs a job untraced and traced, recording both totals; the traced
/// run's root span is `job`. Odd repeats run the traced pass first, so
/// neither pass always finds the caches the other one warmed.
fn timed_pair(
    tr: &mut Tracer,
    run: &mut JobRun,
    mut replay: impl FnMut(&mut Tracer, &mut Counts) -> Result<String, String>,
    counts: &mut Counts,
) -> Result<(), String> {
    let order = if tr.rep.is_multiple_of(2) {
        [false, true]
    } else {
        [true, false]
    };
    let mut verdicts = Vec::with_capacity(2);
    for traced in order {
        let mut ignored = Counts::default();
        tr.on = traced;
        let started = Instant::now();
        let root = tr.begin("job");
        let verdict = replay(tr, if traced { &mut *counts } else { &mut ignored })?;
        tr.end(root);
        let us = started.elapsed().as_secs_f64() * 1e6;
        tr.on = false;
        if traced {
            run.traced_us.push(us);
        } else {
            run.untraced_us.push(us);
        }
        verdicts.push(verdict);
    }
    run.verdict = if verdicts[0] == verdicts[1] {
        verdicts.swap_remove(0)
    } else {
        format!("unstable:{}/{}", verdicts[0], verdicts[1])
    };
    Ok(())
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Per-span self time: duration minus the children's durations (spans
/// of one thread nest, so children never overlap).
fn self_times(tr: &Tracer) -> Vec<f64> {
    let mut own: Vec<f64> = tr.spans.iter().map(|s| s.end_us - s.start_us).collect();
    for s in &tr.spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_us - s.start_us;
        }
    }
    own
}

/// Layer metric names, each fed by spans named `X` or `X.*`.
const LAYERS: &[&str] = &[
    "cnf.parse_dimacs",
    "proofver.parse",
    "proofver.verify",
    "proofver.drat_backward",
    "proofver.lrat_write",
    "proofver.check_lrat",
    "proofver.stream",
    "proofver.stream_index",
    "satverifyd.protocol.encode",
    "satverifyd.protocol.parse",
    "satverifyd.cache.key",
    "satverifyd.job.execute",
];

fn layer_of(span: &str) -> Option<&'static str> {
    LAYERS.iter().copied().find(|l| {
        span == *l || (span.starts_with(l) && span.as_bytes().get(l.len()) == Some(&b'.'))
    })
}

fn summarise(tr: &Tracer, runs: &[JobRun], counts: &Counts) -> Json {
    let own = self_times(tr);
    // (span name, job, repeat) -> self time, then the median over the
    // repeats in which the span occurred
    let mut per_rep: BTreeMap<(&str, usize, usize), f64> = BTreeMap::new();
    for (s, t) in tr.spans.iter().zip(&own) {
        *per_rep.entry((s.name, s.job, s.rep)).or_default() += t;
    }
    let mut per_span: BTreeMap<(&str, usize), Vec<f64>> = BTreeMap::new();
    for ((name, job, _), us) in per_rep {
        per_span.entry((name, job)).or_default().push(us);
    }
    let mut span_us: BTreeMap<(&str, usize), f64> = BTreeMap::new();
    for (key, mut values) in per_span {
        span_us.insert(key, median(&mut values));
    }
    let mut layer_jobs: BTreeMap<(&str, usize), f64> = BTreeMap::new();
    for (&(name, job), &us) in &span_us {
        if let Some(layer) = layer_of(name) {
            *layer_jobs.entry((layer, job)).or_default() += us;
        }
    }
    let layer_total = |layer: &str| -> (f64, usize) {
        layer_jobs
            .iter()
            .filter(|((l, _), _)| *l == layer)
            .fold((0.0, 0), |(sum, n), (_, us)| (sum + us, n + 1))
    };
    let mut layers = Json::object();
    for layer in LAYERS {
        let (sum, n) = layer_total(layer);
        layers.push(
            format!("{layer}_us"),
            if n == 0 { 0.0 } else { sum / n as f64 },
        );
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let parse_us = layer_total("proofver.parse").0;
    layers.push(
        "proofver.parse_mb_per_s",
        ratio(counts.parse_bytes as f64, parse_us),
    );
    layers.push(
        "proofver.verify_tested_fraction",
        ratio(counts.verify_checked as f64, counts.verify_total as f64),
    );
    layers.push(
        "proofver.drat_checked_fraction",
        ratio(counts.drat_checked as f64, counts.drat_adds as f64),
    );
    let bcp_us: f64 = [
        "proofver.verify",
        "proofver.drat_backward",
        "proofver.stream",
    ]
    .iter()
    .map(|l| layer_total(l).0)
    .sum();
    layers.push("bcp.clause_visits", counts.clause_visits);
    layers.push(
        "bcp.visits_per_us",
        ratio(counts.clause_visits as f64, bcp_us),
    );
    layers.push("proofver.stream_windows", counts.stream_windows);
    layers.push("proofver.stream_shrinks", counts.stream_shrinks);
    layers.push("proofver.stream_rebuilds", counts.stream_rebuilds);
    layers.push(
        "proofver.stream_peak_residency_bytes",
        counts.stream_peak_residency,
    );
    let protocol_us =
        layer_total("satverifyd.protocol.encode").0 + layer_total("satverifyd.protocol.parse").0;
    layers.push(
        "satverifyd.protocol.mb_per_s",
        ratio(counts.protocol_bytes as f64, protocol_us),
    );

    let mut jobs = Vec::new();
    let (mut traced_sum, mut untraced_sum) = (0.0, 0.0);
    for (j, run) in runs.iter().enumerate() {
        let untraced = median(&mut run.untraced_us.clone());
        let traced = median(&mut run.traced_us.clone());
        untraced_sum += untraced;
        traced_sum += traced;
        let mut obj = Json::object();
        obj.push("id", run.id.as_str());
        obj.push("expect", run.expect.as_str());
        obj.push("verdict", run.verdict.as_str());
        obj.push("untraced_us", untraced);
        obj.push("traced_us", traced);
        let mut spans = Json::object();
        for (&(name, job), &us) in &span_us {
            if job == j {
                spans.push(name, us);
            }
        }
        obj.push("self_us", spans);
        jobs.push(obj);
    }
    let mut out = Json::object();
    out.push("layers", layers);
    out.push(
        "trace_overhead_pct",
        ratio(100.0 * (traced_sum - untraced_sum), untraced_sum),
    );
    out.push("jobs", Json::Array(jobs));
    out
}

fn write_spans(dir: &Path, tr: &Tracer, runs: &[JobRun]) -> Result<(), String> {
    let mut text = String::new();
    for (i, s) in tr.spans.iter().enumerate() {
        let mut obj = Json::object();
        obj.push("job", runs[s.job].id.as_str());
        obj.push("rep", s.rep);
        obj.push("span", i);
        obj.push("parent", s.parent.map_or(Json::Null, Json::from));
        obj.push("name", s.name);
        obj.push("start_us", s.start_us);
        obj.push("end_us", s.end_us);
        text.push_str(&obj.to_compact_string());
        text.push('\n');
    }
    std::fs::write(dir.join("spans.jsonl"), text)
        .map_err(|e| format!("cannot write spans.jsonl: {e}"))
}
