//! The `daemon-mix` load: a closed loop over two client connections
//! from one process, each sending its next job only after the previous
//! verdict arrived.
//!
//! Every round a connection submits, in a seeded order, the manifest's
//! number of misses and of hits per base job. A miss prefixes the
//! formula with a comment line never sent before, so the daemon
//! verifies it afresh; a hit resends the exact bytes of a base the
//! warm-up already answered, so the verdict cache serves it. A job is timed from the start of
//! `Client::send` (which encodes the request line) to the parsed
//! response, which is what `satverify client` pays.
//!
//! Given the daemon's pid, the loop also probes the daemon's memory at a
//! fixed point: once both connections have finished `PROBE_ROUNDS`
//! rounds and have nothing in flight, it reads the daemon's `VmHWM` and
//! `stats` counters. Every run and every commit thus measures the peak
//! over the same retained work (the warm-up plus `PROBE_ROUNDS` rounds of
//! cached misses), not over however many misses the run fitted into its
//! time.

use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

use satverify::obs::json::Json;
use satverifyd::{Client, Endpoint, Request, Response, VerifyRequest};

use crate::gen::Rng;
use crate::{field, Stop};

/// Two connections: the load comes from one process with at most two
/// in flight, matching the daemon's two workers on a two-core machine.
const CONNECTIONS: u64 = 2;

/// Rounds each connection completes before the memory probe; a timed
/// loop always runs at least this many.
const PROBE_ROUNDS: u64 = 3;

struct Base {
    class: String,
    /// Fresh submissions (cache misses) and resubmissions (hits) per round.
    misses: usize,
    hits: usize,
    formula: String,
    proof: String,
    expect: String,
}

struct Record {
    id: String,
    class: String,
    hit: bool,
    expect: String,
    got: String,
    us: u64,
    round: u64,
}

pub fn run(
    endpoint: &str,
    dir: &Path,
    manifest: &Json,
    stop: Stop,
    daemon_pid: Option<u32>,
) -> Result<Json, String> {
    let endpoint = Endpoint::parse(endpoint)?;
    let bases = load_bases(dir, manifest)?;
    let nonce = manifest.get("nonce").and_then(Json::as_int).unwrap_or(0);

    // warm-up: answer every base once so the timed hits find it cached
    let mut client = Client::connect(&endpoint).map_err(|e| format!("connect: {e}"))?;
    let mut records = Vec::new();
    for base in &bases {
        let id = format!("warm-{}", base.class);
        let (got, us) = submit(&mut client, &id, base.formula.clone(), base)?;
        records.push(Record {
            id,
            class: base.class.clone(),
            hit: false,
            expect: base.expect.clone(),
            got,
            us,
            round: u64::MAX,
        });
    }

    // the connections and this thread meet at the probe point twice:
    // once to stop sending, once to resume after the probe. A connection
    // that fails before the probe leaves the others waiting; run.py's
    // step timeout then fails the run.
    let probe_at = daemon_pid.map(|_| Barrier::new(CONNECTIONS as usize + 1));
    let started = Instant::now();
    let (per_connection, probe) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let (endpoint, bases, probe_at) = (&endpoint, &bases, probe_at.as_ref());
                scope.spawn(move || connection(endpoint, bases, nonce, conn, stop, probe_at))
            })
            .collect();
        let probe = probe_at.as_ref().zip(daemon_pid).map(|(barrier, pid)| {
            barrier.wait();
            let probe = memory_probe(&mut client, pid);
            barrier.wait();
            probe
        });
        let parts = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect::<Vec<_>>();
        (parts, probe.transpose())
    });
    let wall_us = started.elapsed().as_micros() as u64;
    for part in per_connection {
        records.extend(part?);
    }

    let mut out = Json::object();
    out.push("wall_us", wall_us);
    out.push("jobs", Json::array(records.iter().map(record_json)));
    out.push("counters", counters(&mut client)?);
    if let Some(probe) = probe? {
        out.push("probe", probe);
    }
    Ok(out)
}

/// The daemon's `stats` counters.
fn counters(client: &mut Client) -> Result<Json, String> {
    let stats = match client
        .request(&Request::Stats)
        .map_err(|e| format!("stats: {e}"))?
    {
        Response::Stats(s) => s,
        other => return Err(format!("stats: unexpected reply {other:?}")),
    };
    let mut counters = Json::object();
    for (name, value) in &stats.counters {
        counters.push(name.as_str(), *value);
    }
    Ok(counters)
}

/// The daemon's peak resident memory (`VmHWM`, kB) and its counters,
/// taken while no job is in flight.
fn memory_probe(client: &mut Client, pid: u32) -> Result<Json, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let hwm_kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or_else(|| format!("{path}: no VmHWM"))?;
    let mut probe = Json::object();
    probe.push("rounds", PROBE_ROUNDS);
    probe.push("vm_hwm_kb", hwm_kb);
    probe.push("counters", counters(client)?);
    Ok(probe)
}

fn connection(
    endpoint: &Endpoint,
    bases: &[Base],
    nonce: i64,
    conn: u64,
    stop: Stop,
    probe_at: Option<&Barrier>,
) -> Result<Vec<Record>, String> {
    let mut client = Client::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
    let mut rng = Rng::new(nonce as u64 ^ (conn << 56));
    let started = Instant::now();
    let mut records = Vec::new();
    // with a probe, every connection reaches the probe point
    let min_rounds = if probe_at.is_some() { PROBE_ROUNDS } else { 0 };
    for round in (0..).take_while(|&r| r < min_rounds || stop.another_round(started, r)) {
        let mut plan: Vec<(usize, bool)> = Vec::new();
        for (b, base) in bases.iter().enumerate() {
            plan.extend(std::iter::repeat_n((b, false), base.misses));
            plan.extend(std::iter::repeat_n((b, true), base.hits));
        }
        rng.shuffle(&mut plan);
        for (k, (b, hit)) in plan.into_iter().enumerate() {
            let base = &bases[b];
            let kind = if hit { "hit" } else { "miss" };
            let id = format!("c{conn}-r{round}-{k:02}-{}-{kind}", base.class);
            let formula = if hit {
                base.formula.clone()
            } else {
                format!("c fresh {nonce} {conn} {round} {k}\n{}", base.formula)
            };
            let (got, us) = submit(&mut client, &id, formula, base)?;
            records.push(Record {
                id,
                class: base.class.clone(),
                hit,
                expect: base.expect.clone(),
                got,
                us,
                round,
            });
        }
        if round + 1 == PROBE_ROUNDS {
            if let Some(barrier) = probe_at {
                barrier.wait();
                barrier.wait();
            }
        }
    }
    Ok(records)
}

/// One timed round trip; the outcome, or the error code of a refusal.
fn submit(
    client: &mut Client,
    id: &str,
    formula: String,
    base: &Base,
) -> Result<(String, u64), String> {
    let request = Request::Verify(VerifyRequest {
        id: Some(id.to_string()),
        formula: Some(formula),
        proof: Some(base.proof.clone()),
        ..VerifyRequest::default()
    });
    let started = Instant::now();
    client
        .send(&request)
        .map_err(|e| format!("{id}: send: {e}"))?;
    let response = client.recv().map_err(|e| format!("{id}: recv: {e}"))?;
    let us = started.elapsed().as_micros() as u64;
    let got = match response {
        Response::Result(r) => r.outcome,
        Response::Error { code, .. } => format!("error:{}", code.as_str()),
        other => format!("unexpected:{other:?}"),
    };
    Ok((got, us))
}

fn load_bases(dir: &Path, manifest: &Json) -> Result<Vec<Base>, String> {
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"))
    };
    manifest
        .get("bases")
        .and_then(Json::as_array)
        .ok_or("manifest has no daemon bases")?
        .iter()
        .map(|b| {
            let count = |key| b.get(key).and_then(Json::as_int).unwrap_or(0) as usize;
            Ok(Base {
                class: field(b, "class").to_string(),
                misses: count("misses"),
                hits: count("hits"),
                formula: read(field(b, "cnf"))?,
                proof: read(field(b, "proof"))?,
                expect: field(b, "expect").to_string(),
            })
        })
        .collect()
}

fn record_json(r: &Record) -> Json {
    let mut obj = Json::object();
    obj.push("id", r.id.as_str());
    obj.push("class", r.class.as_str());
    obj.push("hit", r.hit);
    obj.push("timed", r.round != u64::MAX);
    obj.push("expect", r.expect.as_str());
    obj.push("got", r.got.as_str());
    obj.push("us", r.us);
    obj
}
