//! `trajectory` — the repo's recorded performance trajectory.
//!
//! Deterministically re-runs the wall-clock benchmark families
//! (`bcp`, `proof_io`, `verify`, `drat`, `stream`, `daemon`) on pinned
//! `cnfgen` inputs, repeats each N times, and writes one
//! schema-versioned JSON document per run — `BENCH_<date>.json` — so
//! successive PRs accumulate a comparable before/after ledger (see
//! `ROADMAP.md`). The criterion benches stay the interactive tool;
//! this binary is the recorded artefact.
//!
//! USAGE:
//!     trajectory [--smoke] [--out <path>] [--repeats <n>] [--only <family>]
//!     trajectory --validate <path>
//!
//! `--smoke` shrinks the pinned instances and repeat count so CI can
//! regenerate and validate a trajectory file in seconds. `--only`
//! restricts a run to one family (e.g. `--only daemon`) for focused
//! before/after comparisons. `--validate` checks an emitted file:
//! schema version, required fields, sample counts, and monotonic
//! benchmark timestamps. The schema is specified in
//! `docs/OBSERVABILITY.md`.

use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use satverify::bcp::{Attach, ClauseDb, CountingPropagator, WatchedPropagator};
use satverify::cdcl::{solve, SolverConfig};
use satverify::cnf::{CnfFormula, Lit, Var};
use satverify::cnfgen::{bmc_counter, pigeonhole, random_ksat};
use satverify::obs::json::{self, Json};
use satverify::proof_from_trace;
use satverify::proofver;
use satverify::proofver::{
    check_lrat, decode_proof, drat_to_string, encode_proof_to_vec, parse_drat,
    parse_proof_str, to_proof_string, verify, verify_all,
    verify_drat_backward_harnessed, ConflictClauseProof, DratOutcome, DratProof,
    Harness, PropagatorChoice,
};
use satverifyd::{
    Client, Endpoint, Request, Response, Server, ServerConfig, VerifyRequest,
};

/// Bumped on any incompatible change to the emitted document.
const SCHEMA_VERSION: u64 = 1;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    if let Some(path) = take_option(&mut args, "--validate") {
        if !args.is_empty() {
            return Err(format!("unexpected arguments {args:?}"));
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        return match validate(&text) {
            Ok(summary) => {
                println!("{path}: OK ({summary})");
                Ok(ExitCode::SUCCESS)
            }
            Err(msg) => {
                eprintln!("{path}: INVALID: {msg}");
                Ok(ExitCode::from(1))
            }
        };
    }
    let smoke = take_flag(&mut args, "--smoke");
    let out = take_option(&mut args, "--out")
        .unwrap_or_else(|| format!("BENCH_{}.json", today_utc()));
    let repeats = match take_option(&mut args, "--repeats") {
        Some(v) => v.parse::<usize>().map_err(|_| format!("bad --repeats {v:?}"))?,
        None if smoke => 3,
        None => 7,
    };
    let only = take_option(&mut args, "--only");
    if let Some(family) = &only {
        if !FAMILIES.iter().any(|(name, _)| name == family) {
            let known: Vec<&str> = FAMILIES.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown family {family:?}; known: {}",
                known.join(", ")
            ));
        }
    }
    if !args.is_empty() {
        return Err(format!("unexpected arguments {args:?}"));
    }
    let doc = record(smoke, repeats.max(1), only.as_deref());
    let mut text = doc.to_pretty_string();
    text.push('\n');
    validate(&text).map_err(|e| format!("generated an invalid document: {e}"))?;
    std::fs::write(&out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("trajectory written to {out}");
    Ok(ExitCode::SUCCESS)
}

fn take_option(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        return None;
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

// ---------------------------------------------------------------------------
// Recording

/// One benchmark's repeated wall-clock samples plus its position on the
/// run's monotonic clock.
struct Record {
    name: String,
    started_ts_us: u64,
    finished_ts_us: u64,
    samples_us: Vec<u64>,
}

struct Recorder {
    epoch: Instant,
    repeats: usize,
    records: Vec<Record>,
}

impl Recorder {
    /// Times `work` `repeats` times (after one untimed warm-up).
    fn measure(&mut self, name: &str, mut work: impl FnMut()) {
        let started_ts_us = self.epoch.elapsed().as_micros() as u64;
        work(); // warm-up: page in lazily-built state
        let samples_us = (0..self.repeats)
            .map(|_| {
                let t = Instant::now();
                work();
                t.elapsed().as_micros() as u64
            })
            .collect();
        self.records.push(Record {
            name: name.to_string(),
            started_ts_us,
            finished_ts_us: self.epoch.elapsed().as_micros() as u64,
            samples_us,
        });
    }
}

/// One benchmark family: its `--only` name and its recording function.
type Family = (&'static str, fn(&mut Recorder, bool));

/// The recordable families, in emission order (`validate` requires the
/// benchmarks to start in monotone order, so this order is the file
/// order).
const FAMILIES: &[Family] = &[
    ("bcp", record_bcp),
    ("proof_io", record_proof_io),
    ("verify", record_verification),
    ("drat", record_drat),
    ("stream", record_stream),
    ("daemon", record_daemon),
];

fn record(smoke: bool, repeats: usize, only: Option<&str>) -> Json {
    let mut recorder =
        Recorder { epoch: Instant::now(), repeats, records: Vec::new() };
    for (name, family) in FAMILIES {
        if only.is_none_or(|o| o == *name) {
            family(&mut recorder, smoke);
        }
    }

    let mut doc = Json::object();
    push_u64(&mut doc, "schema_version", SCHEMA_VERSION);
    doc.push("date", today_utc().as_str());
    push_u64(&mut doc, "generated_at_unix_ms", unix_ms());
    doc.push("mode", if smoke { "smoke" } else { "full" });
    push_u64(&mut doc, "repeats", repeats as u64);

    let mut env = Json::object();
    env.push("os", std::env::consts::OS);
    env.push("arch", std::env::consts::ARCH);
    push_u64(
        &mut env,
        "parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
    );
    env.push("package_version", env!("CARGO_PKG_VERSION"));
    doc.push("env", env);

    doc.push(
        "benchmarks",
        Json::Array(recorder.records.iter().map(render_record).collect()),
    );
    doc
}

fn render_record(r: &Record) -> Json {
    let mut sorted = r.samples_us.clone();
    sorted.sort_unstable();
    let quantile = |q: f64| -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    };
    let mut obj = Json::object();
    obj.push("name", r.name.as_str());
    push_u64(&mut obj, "repeats", r.samples_us.len() as u64);
    push_u64(&mut obj, "started_ts_us", r.started_ts_us);
    push_u64(&mut obj, "finished_ts_us", r.finished_ts_us);
    push_u64(&mut obj, "min_us", sorted[0]);
    push_u64(&mut obj, "median_us", quantile(0.50));
    push_u64(&mut obj, "p90_us", quantile(0.90));
    push_u64(&mut obj, "max_us", sorted[sorted.len() - 1]);
    obj.push(
        "samples_us",
        Json::Array(
            r.samples_us
                .iter()
                .map(|&us| Json::Int(i64::try_from(us).unwrap_or(i64::MAX)))
                .collect(),
        ),
    );
    obj
}

fn push_u64(obj: &mut Json, key: &str, value: u64) {
    obj.push(key, Json::Int(i64::try_from(value).unwrap_or(i64::MAX)));
}

// ---------------------------------------------------------------------------
// Workloads — pinned to the same inputs as the criterion benches

/// The `bcp_throughput` mixed workload: a seeded random 3-SAT skeleton
/// plus long clauses mimicking a conflict-clause proof suffix.
fn bcp_workload(num_vars: usize) -> CnfFormula {
    let mut f = random_ksat(3, num_vars, num_vars * 3, 99);
    for start in 0..(num_vars / 20) {
        let lits: Vec<i32> = (0..20)
            .map(|j| {
                let v = (start * 17 + j * 13) % num_vars + 1;
                if j % 2 == 0 { v as i32 } else { -(v as i32) }
            })
            .collect();
        f.add_dimacs_clause(&lits);
    }
    f
}

fn bcp_decisions(num_vars: usize) -> Vec<Lit> {
    (0..num_vars / 4)
        .map(|i| {
            let v = Var::new(((i * 7) % num_vars) as u32);
            v.lit(i % 3 == 0)
        })
        .collect()
}

fn bcp_watched(f: &CnfFormula, schedule: &[Lit]) -> u64 {
    let mut db = ClauseDb::from_formula(f);
    let mut p = WatchedPropagator::new(f.num_vars());
    let refs: Vec<_> = db.refs().collect();
    for r in refs {
        if let Attach::Unit(l) = p.attach_clause(&mut db, r) {
            let _ = p.enqueue_propagated(l, r);
        }
    }
    for &d in schedule {
        if p.assignment().is_unassigned(d) {
            p.decide(d);
            if p.propagate(&mut db).is_some() {
                p.backtrack_to(p.decision_level() - 1);
            }
        }
    }
    p.num_clause_visits()
}

fn bcp_counting(f: &CnfFormula, schedule: &[Lit]) -> u64 {
    let db = ClauseDb::from_formula(f);
    let mut p = CountingPropagator::new(f.num_vars());
    p.attach_all(&db);
    for r in db.refs() {
        if db.clause_len(r) == 1 {
            let _ = p.enqueue_unit(db.lits(r)[0], r);
        }
    }
    for &d in schedule {
        if p.assignment().is_unassigned(d) {
            p.decide(d);
            if p.propagate(&db).is_some() {
                p.backtrack_to(p.decision_level() - 1);
            }
        }
    }
    p.num_clause_visits()
}

fn record_bcp(recorder: &mut Recorder, smoke: bool) {
    let num_vars = if smoke { 200 } else { 1000 };
    let f = bcp_workload(num_vars);
    let schedule = bcp_decisions(num_vars);
    recorder.measure(&format!("bcp.watched.{num_vars}"), || {
        std::hint::black_box(bcp_watched(&f, &schedule));
    });
    recorder.measure(&format!("bcp.counting.{num_vars}"), || {
        std::hint::black_box(bcp_counting(&f, &schedule));
    });
}

fn prepared_proof(formula: &CnfFormula) -> ConflictClauseProof {
    let trace = solve(formula, SolverConfig::default())
        .into_proof()
        .expect("pinned instance is UNSAT");
    proof_from_trace(&trace)
}

fn record_proof_io(recorder: &mut Recorder, smoke: bool) {
    let holes = if smoke { 5 } else { 7 };
    let proof = prepared_proof(&pigeonhole(holes));
    let text = to_proof_string(&proof);
    let bytes = encode_proof_to_vec(&proof);
    let tag = format!("php{holes}");
    recorder.measure(&format!("proof_io.write_text.{tag}"), || {
        std::hint::black_box(to_proof_string(&proof));
    });
    recorder.measure(&format!("proof_io.write_binary.{tag}"), || {
        std::hint::black_box(encode_proof_to_vec(&proof));
    });
    recorder.measure(&format!("proof_io.parse_text.{tag}"), || {
        std::hint::black_box(parse_proof_str(&text).expect("parses"));
    });
    recorder.measure(&format!("proof_io.parse_binary.{tag}"), || {
        std::hint::black_box(decode_proof(bytes.as_slice()).expect("decodes"));
    });
}

fn record_verification(recorder: &mut Recorder, smoke: bool) {
    let instances: Vec<(&str, CnfFormula)> = if smoke {
        vec![("php5", pigeonhole(5))]
    } else {
        vec![("php6", pigeonhole(6)), ("bmc_cnt8_40", bmc_counter(8, 40))]
    };
    for (name, formula) in &instances {
        let proof = prepared_proof(formula);
        recorder.measure(&format!("verify.verify2.{name}"), || {
            std::hint::black_box(verify(formula, &proof).expect("valid"));
        });
        recorder.measure(&format!("verify.verify1.{name}"), || {
            std::hint::black_box(verify_all(formula, &proof).expect("valid"));
        });
        recorder.measure(&format!("verify.solve.{name}"), || {
            assert!(solve(formula, SolverConfig::default()).is_unsat());
        });
    }
}

/// The `drat.backward.*` family: the interop path end-to-end on a
/// pinned pigeonhole instance — parse the text encoding, run the
/// backward checker, and replay the captured LRAT certificate under the
/// strict checker — plus the in-memory backward pass over the chain
/// workload, whose live set stays small while the proof grows.
fn record_drat(recorder: &mut Recorder, smoke: bool) {
    let holes = if smoke { 5 } else { 6 };
    let tag = format!("php{holes}");
    let formula = pigeonhole(holes);
    let drat = DratProof::from(&prepared_proof(&formula));
    let text = drat_to_string(&drat);
    recorder.measure(&format!("drat.parse_text.{tag}"), || {
        std::hint::black_box(parse_drat(text.as_bytes()).expect("parses"));
    });
    let backward = || {
        let harness = Harness::default();
        match verify_drat_backward_harnessed(
            &formula,
            &drat,
            &harness,
            PropagatorChoice::Watched,
        ) {
            DratOutcome::Verified(v) => *v,
            other => panic!("pinned proof must verify: {other:?}"),
        }
    };
    recorder.measure(&format!("drat.backward.watched.{tag}"), || {
        std::hint::black_box(backward());
    });
    let lrat = backward().lrat;
    recorder.measure(&format!("drat.lrat_check.{tag}"), || {
        std::hint::black_box(check_lrat(&formula, &lrat).expect("replays"));
    });

    // a long proof over a small live set: the in-memory chain cost
    let links = if smoke { 2_000 } else { 10_000 };
    let (formula, chain) = proofver::chain_workload(links);
    recorder.measure(
        &format!("drat.backward.watched.chain{}k", links / 1000),
        || {
            let outcome = verify_drat_backward_harnessed(
                &formula,
                &chain,
                &Harness::default(),
                PropagatorChoice::Watched,
            );
            assert!(
                matches!(outcome, DratOutcome::Verified(_)),
                "the chain must verify"
            );
        },
    );
}

/// The `stream.backward.*` family: the windowed bounded-memory checker
/// on a chain proof at least 10× its residency budget, so the series
/// demonstrates — and the assertions enforce — verification of a proof
/// that could never be held in memory under the cap.
fn record_stream(recorder: &mut Recorder, smoke: bool) {
    let (links, budget) = if smoke {
        (60_000usize, 80 * 1024u64)
    } else {
        (200_000, 256 * 1024)
    };
    let (formula, proof) = proofver::chain_workload(links);
    let bytes = proofver::encode_drat_to_vec(&proof);
    assert!(
        bytes.len() as u64 >= 10 * budget,
        "workload must dwarf the budget: {} bytes vs {budget}",
        bytes.len()
    );
    let tag = format!("chain{}k", links / 1000);
    let config = proofver::StreamConfig {
        memory_budget: budget,
        window_bytes: 0,
        min_window_bytes: 2048,
        index_granule_bytes: if smoke { 2048 } else { 4096 },
        chunk_bytes: 8192,
        checkpoint: None,
    };
    let run = || {
        let harness = Harness::default();
        match proofver::verify_drat_stream_bytes(
            &formula,
            &bytes,
            &harness,
            &config,
            PropagatorChoice::Watched,
            None,
            None,
        ) {
            proofver::StreamOutcome::Verified(v) => {
                assert!(
                    v.peak_residency <= budget,
                    "residency {} broke the {budget} cap",
                    v.peak_residency
                );
                assert!(v.windows > 1, "must actually window");
                v
            }
            other => panic!("pinned stream proof must verify: {other:?}"),
        }
    };
    recorder.measure(&format!("stream.backward.watched.{tag}"), || {
        std::hint::black_box(run());
    });
    // the forward index-and-replay pass alone, to watch its share
    recorder.measure(&format!("stream.backward.index.{tag}"), || {
        let harness = Harness::with_budget(
            proofver::Budget::unlimited().max_propagations(0),
        );
        let outcome = proofver::verify_drat_stream_bytes(
            &formula,
            &bytes,
            &harness,
            &config,
            PropagatorChoice::Watched,
            None,
            None,
        );
        assert!(
            matches!(outcome, proofver::StreamOutcome::Exhausted { .. }),
            "zero fuel stops right after indexing"
        );
        std::hint::black_box(outcome);
    });
}

const XOR_SQUARE: &str = "p cnf 2 4\n1 2 0\n-1 -2 0\n1 -2 0\n-1 2 0\n";
const XOR_PROOF: &str = "2 0\n-2 0\n0\n";

fn daemon_round_trip(client: &mut Client) {
    let req = Request::verify_inline(XOR_SQUARE, XOR_PROOF);
    match client.request(&req).expect("round trip") {
        Response::Result(r) => assert_eq!(r.outcome, "verified"),
        other => panic!("unexpected response: {other:?}"),
    }
}

fn daemon_pipelined(client: &mut Client, batch: usize) {
    let req = Request::verify_inline(XOR_SQUARE, XOR_PROOF);
    for _ in 0..batch {
        client.send(&req).expect("send");
    }
    for _ in 0..batch {
        match client.recv().expect("recv") {
            Response::Result(r) => assert_eq!(r.outcome, "verified"),
            other => panic!("unexpected response: {other:?}"),
        }
    }
}

/// One `batch` submission line carrying `jobs`, then one response per
/// job — the wire-level counterpart of `daemon_pipelined`.
fn daemon_batch(client: &mut Client, jobs: &[VerifyRequest]) {
    client.send(&Request::Batch(jobs.to_vec())).expect("send batch");
    for _ in 0..jobs.len() {
        match client.recv().expect("recv") {
            Response::Result(r) => assert_eq!(r.outcome, "verified"),
            other => panic!("unexpected response: {other:?}"),
        }
    }
}

fn xor_job(id: String) -> VerifyRequest {
    VerifyRequest {
        id: Some(id),
        formula: Some(XOR_SQUARE.to_string()),
        proof: Some(XOR_PROOF.to_string()),
        ..VerifyRequest::default()
    }
}

/// The daemon runs with its lifecycle instrumentation present but the
/// event log detached — the disabled-path cost every production server
/// pays, which the trajectory tracks against the pre-instrumentation
/// baseline. Two servers back the family: a cache-off one (the library
/// default) keeping `round_trip`/`pipelined`/`serial`/`batch`
/// comparable across runs, and a cache-on one isolating the verdict
/// cache's cold-miss vs hit cost.
fn record_daemon(recorder: &mut Recorder, smoke: bool) {
    let config = ServerConfig::default().workers(4).queue_capacity(256);
    let server =
        Server::bind(&Endpoint::tcp("127.0.0.1:0"), config).expect("bind loopback");
    let mut client = Client::connect(&server.local_endpoint()).expect("connect");
    recorder.measure("daemon.round_trip", || daemon_round_trip(&mut client));
    let batch = if smoke { 8 } else { 64 };
    recorder.measure(&format!("daemon.pipelined.{batch}"), || {
        daemon_pipelined(&mut client, batch);
    });
    // the same eight jobs as blocking round trips and as one `batch`
    // line: the delta is the protocol overhead the batch op removes
    recorder.measure("daemon.serial.8", || {
        for _ in 0..8 {
            daemon_round_trip(&mut client);
        }
    });
    let jobs: Vec<VerifyRequest> =
        (0..8).map(|i| xor_job(format!("b-{i}"))).collect();
    recorder.measure("daemon.batch.8", || daemon_batch(&mut client, &jobs));
    drop(client);
    server.shutdown();
    server.join();

    // cold miss vs cache hit on a caching server, over a proof heavy
    // enough that the hit's constant-time lookup dominates: every cold
    // submission prefixes a fresh comment line (identical verification
    // work, different content bytes, so a guaranteed miss), while the
    // hit series resubmits the warmed bytes verbatim — the untimed
    // warm-up populates the cache, so every timed run is a hit. php7
    // in full mode: its verification dwarfs the wire cost of shipping
    // the proof, so the hit/cold ratio measures the cache, not the
    // socket.
    let holes = if smoke { 5 } else { 7 };
    let formula = pigeonhole(holes);
    let formula_text = satverify::cnf::to_dimacs_string(&formula);
    let proof_text = to_proof_string(&prepared_proof(&formula));
    let config = ServerConfig::default()
        .workers(4)
        .queue_capacity(256)
        .cache_enabled(true);
    let server =
        Server::bind(&Endpoint::tcp("127.0.0.1:0"), config).expect("bind loopback");
    let mut client = Client::connect(&server.local_endpoint()).expect("connect");
    let submit = |client: &mut Client, formula: &str| {
        let req = Request::verify_inline(formula, &proof_text);
        match client.request(&req).expect("round trip") {
            Response::Result(r) => assert_eq!(r.outcome, "verified"),
            other => panic!("unexpected response: {other:?}"),
        }
    };
    let mut cold = 0u64;
    recorder.measure(&format!("daemon.verify.cold.php{holes}"), || {
        cold += 1;
        submit(&mut client, &format!("c cold {cold}\n{formula_text}"));
    });
    recorder.measure(&format!("daemon.verify.cache_hit.php{holes}"), || {
        submit(&mut client, &formula_text);
    });
    drop(client);
    server.shutdown();
    server.join();
}

// ---------------------------------------------------------------------------
// Validation

/// Checks an emitted trajectory document: schema version, required
/// fields, per-benchmark sample counts and ordered summary statistics,
/// and monotonically non-decreasing benchmark timestamps.
fn validate(text: &str) -> Result<String, String> {
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let int = |doc: &Json, key: &str| -> Result<u64, String> {
        doc.get(key)
            .and_then(Json::as_int)
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| format!("missing integer field `{key}`"))
    };
    let version = int(&doc, "schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {SCHEMA_VERSION}"
        ));
    }
    int(&doc, "generated_at_unix_ms")?;
    for key in ["date", "mode"] {
        doc.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string field `{key}`"))?;
    }
    let env = doc.get("env").ok_or("missing `env`")?;
    for key in ["os", "arch"] {
        env.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("env missing `{key}`"))?;
    }
    let benchmarks = doc
        .get("benchmarks")
        .and_then(Json::as_array)
        .ok_or("missing `benchmarks` array")?;
    if benchmarks.is_empty() {
        return Err("empty `benchmarks` array".into());
    }
    let mut last_started = 0u64;
    for (i, bench) in benchmarks.iter().enumerate() {
        let name = bench
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("benchmark {i} missing `name`"))?;
        let at = |key: &str| {
            int(bench, key).map_err(|e| format!("benchmark `{name}`: {e}"))
        };
        let repeats = at("repeats")?;
        let samples = bench
            .get("samples_us")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("benchmark `{name}` missing `samples_us`"))?;
        if samples.len() as u64 != repeats {
            return Err(format!(
                "benchmark `{name}`: {} samples but repeats={repeats}",
                samples.len()
            ));
        }
        let (min, median, p90, max) =
            (at("min_us")?, at("median_us")?, at("p90_us")?, at("max_us")?);
        if !(min <= median && median <= p90 && p90 <= max) {
            return Err(format!(
                "benchmark `{name}`: summary not ordered: \
                 min={min} median={median} p90={p90} max={max}"
            ));
        }
        let (started, finished) = (at("started_ts_us")?, at("finished_ts_us")?);
        if finished < started {
            return Err(format!(
                "benchmark `{name}`: finished_ts_us {finished} < started_ts_us {started}"
            ));
        }
        if started < last_started {
            return Err(format!(
                "benchmark `{name}`: started_ts_us {started} not monotone \
                 (previous benchmark started at {last_started})"
            ));
        }
        last_started = started;
    }
    Ok(format!("{} benchmarks, schema v{version}", benchmarks.len()))
}

// ---------------------------------------------------------------------------
// Clock helpers (no chrono: civil date from days since the Unix epoch)

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// Today's UTC date as `YYYY-MM-DD`, via the days-from-epoch civil
/// calendar conversion (Howard Hinnant's `civil_from_days`).
fn today_utc() -> String {
    let days = (unix_ms() / 86_400_000) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}
