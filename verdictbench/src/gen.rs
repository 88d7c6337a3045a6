//! Input generation: a workload's files and job list from its seed.
//!
//! Instances come from `cnfgen` and are solved by the repository's own
//! `cdcl` solver; the solver's trace is encoded as a native proof (text
//! and binary) and as DRAT carrying the solver's own deletions (text
//! and binary). The seed picks the job order and the daemon's
//! fresh-content nonces; it never changes an instance, so every seed
//! measures the same work.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use satverify::cdcl::{solve, ProofClauseId, ProofTrace, SolverConfig};
use satverify::cnf::{write_dimacs, Clause, CnfFormula};
use satverify::cnfgen::{bmc_counter, eqv_adder, pigeonhole, tseitin_grid};
use satverify::obs::json::Json;
use satverify::proof_from_trace;
use satverify::proofver::{
    chain_workload, encode_drat, encode_drat_to_vec, encode_proof, write_drat, write_proof,
    DratProof, DratStep,
};

/// splitmix64: a tiny seeded generator, so inputs depend on nothing but
/// the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Instance sizes. `FULL` is what the benchmark measures; `SMOKE` keeps
/// the same job classes at sizes the benchmark's own tests finish fast.
struct Sizes {
    small: usize,
    mid: usize,
    big: usize,
    bmc: (usize, usize),
    tseitin: (usize, usize),
    eqv: usize,
    chain_mem: usize,
    chain_stream: usize,
    big_stream_mb: u64,
}

const FULL: Sizes = Sizes {
    small: 6,
    mid: 7,
    big: 8,
    bmc: (8, 40),
    tseitin: (10, 3),
    eqv: 8,
    chain_mem: 10_000,
    chain_stream: 200_000,
    big_stream_mb: 8,
};

const SMOKE: Sizes = Sizes {
    small: 4,
    mid: 5,
    big: 6,
    bmc: (4, 12),
    tseitin: (4, 3),
    eqv: 4,
    chain_mem: 1_000,
    chain_stream: 80_000,
    big_stream_mb: 1,
};

/// The memory budget (MB) of the streamed chain job: the 200k-link
/// chain proof is ~2.8 MB, so it is windowed.
const CHAIN_STREAM_MB: u64 = 1;

/// One job of a workload round, serialised into the manifest.
#[derive(Clone, Default)]
struct Job {
    id: String,
    class: &'static str,
    /// `check` (spawned `satverify check`) or `lrat` (`satverify lrat`).
    kind: &'static str,
    cnf: String,
    proof: String,
    /// `native`, `drat` or `lrat` — the checking path.
    format: &'static str,
    all: bool,
    emit_lrat: Option<String>,
    emit_binary: bool,
    stream_mb: Option<u64>,
    checkpoint: Option<String>,
    expect: &'static str,
}

impl Job {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.push("id", self.id.as_str());
        obj.push("class", self.class);
        obj.push("kind", self.kind);
        obj.push("cnf", self.cnf.as_str());
        obj.push("proof", self.proof.as_str());
        obj.push("format", self.format);
        obj.push("all", self.all);
        obj.push(
            "emit_lrat",
            self.emit_lrat.as_deref().map_or(Json::Null, Json::from),
        );
        obj.push("emit_binary", self.emit_binary);
        obj.push("stream_mb", self.stream_mb.map_or(Json::Null, Json::from));
        obj.push(
            "checkpoint",
            self.checkpoint.as_deref().map_or(Json::Null, Json::from),
        );
        obj.push("expect", self.expect);
        obj
    }
}

struct Solved {
    formula: CnfFormula,
    trace: ProofTrace,
}

/// Writes files into the work directory, remembering each name once.
struct Gen<'a> {
    dir: &'a Path,
    files: Vec<String>,
    solve_us: u64,
    solved: BTreeMap<String, Solved>,
    twins: Vec<Json>,
    oracle: Vec<Json>,
}

impl<'a> Gen<'a> {
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<String, String> {
        if !self.files.iter().any(|f| f == name) {
            std::fs::write(self.dir.join(name), bytes)
                .map_err(|e| format!("cannot write {name}: {e}"))?;
            self.files.push(name.to_string());
        }
        Ok(name.to_string())
    }

    /// Solves `formula` with the repository's solver (timed into
    /// `cdcl.solve_us`) and writes `<label>.cnf`.
    fn unsat(&mut self, label: &str, formula: CnfFormula) -> Result<String, String> {
        if !self.solved.contains_key(label) {
            let started = Instant::now();
            let result = solve(&formula, SolverConfig::default());
            self.solve_us += started.elapsed().as_micros() as u64;
            let trace = result
                .into_proof()
                .ok_or_else(|| format!("{label}: the solver did not refute it"))?;
            self.solved
                .insert(label.to_string(), Solved { formula, trace });
        }
        let formula = &self.solved[label].formula;
        let mut text = Vec::new();
        write_dimacs(&mut text, formula).expect("writing to a Vec cannot fail");
        self.write(&format!("{label}.cnf"), &text)
    }

    /// `<label>.<ext>` holding the solver's proof in one encoding, and
    /// an oracle entry for the (formula, proof) pair.
    fn proof(&mut self, label: &str, ext: &str) -> Result<String, String> {
        let name = format!("{label}.{ext}");
        if self.files.contains(&name) {
            return Ok(name);
        }
        let solved = &self.solved[label];
        let mut bytes = Vec::new();
        match ext {
            "ccp" => write_proof(&mut bytes, &proof_from_trace(&solved.trace)),
            "ccpb" => encode_proof(&mut bytes, &proof_from_trace(&solved.trace)),
            "drat" => write_drat(&mut bytes, &drat_with_deletions(solved)),
            "dratb" => encode_drat(&mut bytes, &drat_with_deletions(solved)),
            other => unreachable!("unknown proof encoding {other}"),
        }
        .expect("writing to a Vec cannot fail");
        let format = if ext.starts_with("drat") {
            "drat"
        } else {
            "native"
        };
        self.oracle
            .push(oracle_entry(&format!("{label}.cnf"), &name, format, 0));
        self.write(&name, &bytes)
    }

    /// A satisfiable twin of pigeonhole `label`: the first pigeon's "sits
    /// somewhere" clause is dropped, and the model seating every other
    /// pigeon in its own hole is written beside it. The dropped clause
    /// is fixed, not seeded: which one is dropped moves the cost of the
    /// rejection up to 15x (php7: 12 ms without pigeon 0, 189 ms
    /// without pigeon 2), and every seed must measure the same work.
    fn php_twin(&mut self, label: &str, holes: usize) -> Result<String, String> {
        let skipped = 0;
        let parent = &self.solved[label].formula;
        let mut twin = CnfFormula::with_vars(parent.num_vars());
        for (i, clause) in parent.iter().enumerate() {
            if i != skipped {
                twin.add_clause(clause.clone());
            }
        }
        let var = |p: usize, h: usize| (p * holes + h + 1) as i64;
        let mut model = Vec::new();
        for p in 0..=holes {
            for h in 0..holes {
                let seated = p != skipped && h == if p < skipped { p } else { p - 1 };
                model.push(if seated { var(p, h) } else { -var(p, h) });
            }
        }
        let mut text = Vec::new();
        write_dimacs(&mut text, &twin).expect("writing to a Vec cannot fail");
        let cnf = self.write(&format!("{label}-twin.cnf"), &text)?;
        let mut obj = Json::object();
        obj.push("cnf", cnf.as_str());
        obj.push("parent", format!("{label}.cnf"));
        obj.push("model", Json::array(model.into_iter().map(Json::Int)));
        self.twins.push(obj);
        Ok(cnf)
    }

    /// The `stream-chain` workload with `links` links, as binary DRAT.
    fn chain(&mut self, links: usize) -> Result<(String, String), String> {
        let label = format!("chain{}k", links / 1000);
        let (formula, proof) = chain_workload(links);
        let mut text = Vec::new();
        write_dimacs(&mut text, &formula).expect("writing to a Vec cannot fail");
        let cnf = self.write(&format!("{label}.cnf"), &text)?;
        let name = format!("{label}.dratb");
        if !self.files.contains(&name) {
            self.oracle.push(oracle_entry(&cnf, &name, "chain", links));
        }
        let dratb = self.write(&name, &encode_drat_to_vec(&proof))?;
        Ok((cnf, dratb))
    }
}

fn oracle_entry(cnf: &str, proof: &str, format: &str, links: usize) -> Json {
    let mut obj = Json::object();
    obj.push("cnf", cnf);
    obj.push("proof", proof);
    obj.push("format", format);
    obj.push("links", links);
    obj
}

/// The solver's trace as DRAT: every learned clause in order, with each
/// database-reduction deletion placed where the solver performed it.
fn drat_with_deletions(solved: &Solved) -> DratProof {
    let trace = &solved.trace;
    let target = |id: ProofClauseId| -> Clause {
        match id {
            ProofClauseId::Original(k) => solved.formula.clauses()[k].clone(),
            ProofClauseId::Learned(j) => trace.steps[j].clause.clone(),
        }
    };
    let mut steps = Vec::with_capacity(trace.steps.len() + trace.deletions.len());
    let mut deletions = trace.deletions.iter().peekable();
    for (i, step) in trace.steps.iter().enumerate() {
        while let Some(d) = deletions.next_if(|d| d.after_step <= i) {
            steps.push(DratStep::delete(target(d.target)));
        }
        steps.push(DratStep::add(step.clause.clone()));
    }
    DratProof::new(steps)
}

/// Generates `workload`'s inputs into `dir` and returns the manifest.
pub fn generate(workload: &str, seed: u64, smoke: bool, dir: &Path) -> Result<Json, String> {
    let sizes = if smoke { &SMOKE } else { &FULL };
    let mut rng = Rng::new(seed);
    let mut g = Gen {
        dir,
        files: Vec::new(),
        solve_us: 0,
        solved: BTreeMap::new(),
        twins: Vec::new(),
        oracle: Vec::new(),
    };
    let small = format!("php{}", sizes.small);
    let mid = format!("php{}", sizes.mid);
    let bmc = format!("bmc{}x{}", sizes.bmc.0, sizes.bmc.1);
    let tseitin = format!("tseitin{}x{}", sizes.tseitin.0, sizes.tseitin.1);
    let eqv = format!("eqv{}", sizes.eqv);
    let mut manifest = Json::object();
    manifest.push("workload", workload);
    manifest.push("seed", seed);
    manifest.push("smoke", smoke);
    match workload {
        "check-files" => {
            g.unsat(&small, pigeonhole(sizes.small))?;
            g.unsat(&mid, pigeonhole(sizes.mid))?;
            g.unsat(&bmc, bmc_counter(sizes.bmc.0, sizes.bmc.1))?;
            g.unsat(&tseitin, tseitin_grid(sizes.tseitin.0, sizes.tseitin.1))?;
            g.unsat(&eqv, eqv_adder(sizes.eqv))?;
            // 19 jobs a round: eight light ones (under ~15 ms), three
            // tseitin jobs (~25-30 ms) and eight heavy ones (php7 and the
            // chain, ~200-400 ms). Equal light and heavy counts put the
            // median on the middle tseitin job, inside a class: a median
            // on the edge of a class jumps with its neighbours' tails.
            // units: a job, or an emit job with the replay that reads
            // its certificate, kept adjacent when the round is shuffled
            let mut units: Vec<Vec<Job>> = Vec::new();
            let check = |class, cnf: &str, proof: String, format, expect| Job {
                class,
                kind: "check",
                cnf: format!("{cnf}.cnf"),
                proof,
                format,
                expect,
                ..Job::default()
            };
            for label in [&mid, &tseitin, &eqv] {
                let p = g.proof(label, "ccp")?;
                units.push(vec![check("native-text", label, p, "native", "verified")]);
            }
            for label in [&mid, &bmc] {
                let p = g.proof(label, "ccpb")?;
                units.push(vec![check("native-binary", label, p, "native", "verified")]);
            }
            for (label, ext) in [(&mid, "ccp"), (&tseitin, "ccpb")] {
                let p = g.proof(label, ext)?;
                let mut job = check("native-all", label, p, "native", "verified");
                job.all = true;
                units.push(vec![job]);
            }
            for (label, ext) in [
                (&bmc, "drat"),
                (&small, "dratb"),
                (&tseitin, "dratb"),
                (&mid, "drat"),
                (&mid, "dratb"),
            ] {
                let p = g.proof(label, ext)?;
                let class = if ext == "drat" {
                    "drat-text"
                } else {
                    "drat-binary"
                };
                units.push(vec![check(class, label, p, "drat", "verified")]);
            }
            for (ext, binary) in [("drat", false), ("dratb", true)] {
                let p = g.proof(&mid, ext)?;
                let cert = format!("out/{mid}.{ext}.lrat");
                let class = if binary {
                    "drat-binary-emit"
                } else {
                    "drat-text-emit"
                };
                let mut emit = check(class, &mid, p, "drat", "verified");
                emit.emit_lrat = Some(cert.clone());
                emit.emit_binary = binary;
                let replay = Job {
                    class: "lrat-replay",
                    kind: "lrat",
                    cnf: format!("{mid}.cnf"),
                    proof: cert,
                    format: "lrat",
                    expect: "verified",
                    ..Job::default()
                };
                units.push(vec![emit, replay]);
            }
            let (cnf, proof) = g.chain(sizes.chain_mem)?;
            units.push(vec![Job {
                class: "chain-in-memory",
                kind: "check",
                cnf,
                proof,
                format: "drat",
                expect: "verified",
                ..Job::default()
            }]);
            let p = g.proof(&mid, "ccp")?;
            let cnf = g.php_twin(&mid, sizes.mid)?;
            units.push(vec![Job {
                cnf,
                ..check("rejected-native", &mid, p, "native", "rejected")
            }]);
            let p = g.proof(&small, "dratb")?;
            let cnf = g.php_twin(&small, sizes.small)?;
            units.push(vec![Job {
                cnf,
                ..check("rejected-drat", &small, p, "drat", "rejected")
            }]);
            rng.shuffle(&mut units);
            manifest.push("round", number_jobs(units.into_iter().flatten()));
        }
        "stream-large" => {
            let big = format!("php{}", sizes.big);
            g.unsat(&big, pigeonhole(sizes.big))?;
            let (cnf, proof) = g.chain(sizes.chain_stream)?;
            let chain = Job {
                class: "stream-chain",
                kind: "check",
                checkpoint: Some(format!("out/{}.ckpt", &proof)),
                cnf,
                proof,
                format: "drat",
                stream_mb: Some(CHAIN_STREAM_MB),
                expect: "verified",
                ..Job::default()
            };
            let proof = g.proof(&big, "dratb")?;
            let php = Job {
                class: "stream-php",
                kind: "check",
                cnf: format!("{big}.cnf"),
                checkpoint: Some(format!("out/{proof}.ckpt")),
                proof,
                format: "drat",
                stream_mb: Some(sizes.big_stream_mb),
                expect: "verified",
                ..Job::default()
            };
            // php8 twice: an odd round puts the median inside a class,
            // and the BCP-bound class is the steadier of the two
            let mut jobs = vec![chain, php.clone(), php];
            rng.shuffle(&mut jobs);
            manifest.push("round", number_jobs(jobs.into_iter()));
        }
        "daemon-mix" => {
            // inline native text jobs; run.py/drive resubmit the exact
            // bytes of these bases as cache hits and prefix a fresh
            // comment line for each miss
            let mut bases = Vec::new();
            for (label, formula) in [
                (&small, pigeonhole(sizes.small)),
                (&mid, pigeonhole(sizes.mid)),
                (&bmc, bmc_counter(sizes.bmc.0, sizes.bmc.1)),
                (&tseitin, tseitin_grid(sizes.tseitin.0, sizes.tseitin.1)),
                (&eqv, eqv_adder(sizes.eqv)),
            ] {
                let cnf = g.unsat(label, formula)?;
                let proof = g.proof(label, "ccp")?;
                // The repeat share is an assumption, not measured traffic:
                // 3 of a round's 17 jobs are exact resubmissions, all of
                // the php7 class (php7 and its twin share the 290 KB
                // proof). The counts centre each median inside one class
                // (see README.md): hits are the php7-class hit, the
                // overall median the middle of five twin misses, and p90
                // the lower quartile of the two php7 misses.
                let (misses, hits) = match label.as_str() {
                    l if l == mid => (2, 2),
                    l if l == tseitin => (4, 0),
                    _ => (1, 0),
                };
                bases.push(base(label, &cnf, &proof, "verified", misses, hits));
            }
            let proof = g.proof(&mid, "ccp")?;
            let cnf = g.php_twin(&mid, sizes.mid)?;
            bases.push(base(&format!("{mid}-twin"), &cnf, &proof, "rejected", 5, 1));
            manifest.push("bases", Json::Array(bases));
            manifest.push("nonce", rng.next_u64() >> 16);
        }
        other => return Err(format!("unknown workload {other:?}")),
    }
    manifest.push("cdcl_solve_us", g.solve_us);
    manifest.push(
        "files",
        Json::array(g.files.iter().map(|f| Json::from(f.as_str()))),
    );
    manifest.push("twins", Json::Array(g.twins));
    manifest.push("oracle", Json::Array(g.oracle));
    Ok(manifest)
}

fn base(class: &str, cnf: &str, proof: &str, expect: &str, misses: u64, hits: u64) -> Json {
    let mut obj = Json::object();
    obj.push("misses", misses);
    obj.push("hits", hits);
    obj.push("class", class);
    obj.push("cnf", cnf);
    obj.push("proof", proof);
    obj.push("expect", expect);
    obj
}

/// Gives each job of the round a stable id: its position plus class.
fn number_jobs(jobs: impl Iterator<Item = Job>) -> Json {
    Json::array(jobs.enumerate().map(|(i, mut job)| {
        let stem = job.cnf.trim_end_matches(".cnf").to_string();
        job.id = format!("j{i:02}-{}-{stem}", job.class);
        job.to_json()
    }))
}
