//! Golden outputs of every backward-checking path.
//!
//! Each case (a solver proof with deletions, the streaming chain
//! workload, unit-heavy variants of the chain, and three mutants of
//! each) runs through the native, harnessed, parallel, deletion-aware,
//! DRAT and streaming checkers.
//! The test pins what each path reports: the verdict and rejection
//! step, the core, the checked count, the marks, the kept deletions,
//! the RUP/RAT counters and a digest of the emitted LRAT certificate.
//! All walkers share one check-and-mark kernel, so a change to it shows
//! up here as a changed line; `walker_golden.txt` holds the table.

use cdcl::{SolveResult, Solver, SolverConfig};
use cnf::{Clause, CnfFormula};
use cnfgen::{bmc_counter, pigeonhole, tseitin_grid};
use proofver::{
    chain_workload, encode_drat_to_vec, encode_lrat_to_vec, resume_verification, verify,
    verify_all, verify_all_parallel, verify_drat_backward, verify_drat_backward_harnessed,
    verify_drat_stream_bytes, verify_harnessed, verify_implication, AnnotatedProof, Budget,
    CheckMode, Checker, ConflictClauseProof, DratOutcome, DratProof, DratStep, DratStepKind,
    Harness, Outcome, ProofClauseRef, ProofEvent, PropagatorChoice, StreamConfig, StreamOutcome,
    Verification, VerifyError,
};

/// 64-bit FNV-1a, the digest used for every pinned list.
fn fnv(bytes: &[u8]) -> u64 {
    obs::fnv1a(obs::FNV1A_OFFSET, bytes)
}

fn digest_indices(indices: &[usize]) -> String {
    let bytes: Vec<u8> = indices
        .iter()
        .flat_map(|&i| (i as u64).to_le_bytes())
        .collect();
    format!("{}#{:016x}", indices.len(), fnv(&bytes))
}

fn digest_bits(bits: &[bool]) -> String {
    let set: Vec<usize> = (0..bits.len()).filter(|&i| bits[i]).collect();
    format!("{}/{}", digest_indices(&set), bits.len())
}

/// One proof event with deletions addressed by index, the common
/// source of the native, annotated and DRAT forms of a case.
#[derive(Clone)]
enum Event {
    Add(Clause),
    Delete(ProofClauseRef),
}

struct Case {
    name: String,
    formula: CnfFormula,
    events: Vec<Event>,
    /// The case differs from its base in deletions only, so the
    /// deletion-blind native paths would repeat the base's lines.
    deletions_only: bool,
}

impl Case {
    fn adds(&self) -> Vec<Clause> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Add(c) => Some(c.clone()),
                Event::Delete(_) => None,
            })
            .collect()
    }

    fn native(&self) -> ConflictClauseProof {
        ConflictClauseProof::new(self.adds())
    }

    fn annotated(&self) -> AnnotatedProof {
        AnnotatedProof::new(
            self.events
                .iter()
                .map(|e| match e {
                    Event::Add(c) => ProofEvent::Add(c.clone()),
                    Event::Delete(r) => ProofEvent::Delete(*r),
                })
                .collect(),
        )
    }

    fn drat(&self) -> DratProof {
        let mut adds: Vec<Clause> = Vec::new();
        let mut steps = Vec::new();
        for e in &self.events {
            match e {
                Event::Add(c) => {
                    adds.push(c.clone());
                    steps.push(DratStep::add(c.clone()));
                }
                Event::Delete(ProofClauseRef::Original(i)) => {
                    let clause = self.formula.iter().nth(*i).expect("original");
                    steps.push(DratStep::delete(clause.clone()));
                }
                Event::Delete(ProofClauseRef::Learned(j)) => {
                    steps.push(DratStep::delete(adds[*j].clone()));
                }
            }
        }
        DratProof::new(steps)
    }
}

fn reducing_config() -> SolverConfig {
    SolverConfig {
        reduce_base: 50,
        reduce_growth: 25,
        ..SolverConfig::default()
    }
}

fn solved(name: &str, formula: CnfFormula) -> Case {
    let trace = match Solver::new(&formula, reducing_config()).solve() {
        SolveResult::Unsat(Some(trace)) => trace,
        other => panic!("{name}: expected UNSAT with proof, got {other:?}"),
    };
    let mut events = Vec::new();
    let mut deletions = trace.deletions.iter().peekable();
    let to_ref = |id: cdcl::ProofClauseId| match id {
        cdcl::ProofClauseId::Original(k) => ProofClauseRef::Original(k),
        cdcl::ProofClauseId::Learned(j) => ProofClauseRef::Learned(j),
    };
    for (i, step) in trace.steps.iter().enumerate() {
        while let Some(d) = deletions.next_if(|d| d.after_step <= i) {
            events.push(Event::Delete(to_ref(d.target)));
        }
        events.push(Event::Add(step.clause.clone()));
    }
    events.extend(deletions.map(|d| Event::Delete(to_ref(d.target))));
    Case {
        name: name.into(),
        formula,
        events,
        deletions_only: false,
    }
}

/// The chain workload.
fn chain(links: usize) -> Case {
    let (formula, proof) = chain_workload(links);
    from_drat(format!("chain{links}"), formula, &proof)
}

/// The unit-heavy variants of the chain, over its XOR square: each
/// link `i` adds a bridge `w_i ∨ ¬w_{i-1}`, derives the unit `w_i`, and
/// deletes the bridge and the previous unit, with a twist per variant.
#[derive(Clone, Copy)]
enum Twist {
    /// Every unit is derived twice; both copies are deleted.
    DuplicateUnit,
    /// Every unit is derived, deleted, and derived again.
    RederivedUnit,
    /// Before each bridge, clauses `¬w_i ∨ w_{i-1} ∨ y` and
    /// `¬w_i ∨ w_{i-1} ∨ z` are added: the bridge's RAT candidates. The
    /// first is deleted right after the bridge, the second after the
    /// unit, so the backward walk revives them, in reverse store order,
    /// before it checks the bridge.
    RevivedRatCandidate,
}

fn unit_heavy(twist: Twist, links: usize) -> Case {
    const REUSE: usize = 8;
    const Y: i32 = 3 + REUSE as i32;
    const Z: i32 = Y + 1;
    let formula =
        CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, 2]]);
    let add = |lits: &[i32]| DratStep::add(Clause::from_dimacs(lits));
    let delete = |lits: &[i32]| DratStep::delete(Clause::from_dimacs(lits));
    let mut steps = Vec::new();
    let mut prev = 2i32;
    for i in 1..=links {
        let w = (3 + (i - 1) % REUSE) as i32;
        if let Twist::RevivedRatCandidate = twist {
            steps.push(add(&[-w, prev, Y]));
            steps.push(add(&[-w, prev, Z]));
        }
        steps.push(add(&[w, -prev]));
        if let Twist::RevivedRatCandidate = twist {
            steps.push(delete(&[-w, prev, Y]));
        }
        steps.push(add(&[w]));
        match twist {
            Twist::DuplicateUnit => steps.push(add(&[w])),
            Twist::RederivedUnit => {
                steps.push(delete(&[w]));
                steps.push(add(&[w]));
            }
            Twist::RevivedRatCandidate => steps.push(delete(&[-w, prev, Z])),
        }
        steps.push(delete(&[w, -prev]));
        if i >= 2 {
            steps.push(delete(&[prev]));
            if let Twist::DuplicateUnit = twist {
                steps.push(delete(&[prev]));
            }
        }
        prev = w;
    }
    steps.push(add(&[-prev, 2]));
    steps.push(add(&[-prev, -2]));
    steps.push(DratStep::add(Clause::new(Vec::new())));
    let name = match twist {
        Twist::DuplicateUnit => "dup_units",
        Twist::RederivedUnit => "rederived_units",
        Twist::RevivedRatCandidate => "revived_rat",
    };
    from_drat(format!("{name}{links}"), formula, &DratProof::new(steps))
}

/// A DRAT proof as a case, its content-addressed deletions resolved to
/// the most recently added live copy (the DRAT rule).
fn from_drat(name: String, formula: CnfFormula, proof: &DratProof) -> Case {
    let key = |c: &Clause| {
        let mut k: Vec<i32> = c.lits().iter().map(|l| l.to_dimacs()).collect();
        k.sort_unstable();
        k
    };
    let mut live: Vec<(Vec<i32>, ProofClauseRef)> = formula
        .iter()
        .enumerate()
        .map(|(i, c)| (key(c), ProofClauseRef::Original(i)))
        .collect();
    let mut events = Vec::new();
    let mut num_adds = 0;
    for step in proof.steps() {
        match step.kind {
            DratStepKind::Add => {
                live.push((key(&step.clause), ProofClauseRef::Learned(num_adds)));
                num_adds += 1;
                events.push(Event::Add(step.clause.clone()));
            }
            DratStepKind::Delete => {
                let k = key(&step.clause);
                let pos = live.iter().rposition(|(c, _)| *c == k).expect("live");
                events.push(Event::Delete(live.remove(pos).1));
            }
        }
    }
    Case {
        name,
        formula,
        events,
        deletions_only: false,
    }
}

/// The lemma the mutants attack: the marked non-empty lemma nearest the
/// middle of the proof (at or after it, else before it).
fn victim(case: &Case) -> usize {
    let v = verify_drat_backward(&case.formula, &case.drat()).expect("base case verifies");
    let adds = case.adds();
    let usable = |j: usize| v.marked_adds[j] && !adds[j].is_empty();
    let mid = adds.len() / 2;
    (mid..adds.len())
        .find(|&j| usable(j))
        .or_else(|| (0..mid).rev().find(|&j| usable(j)))
        .expect("a marked lemma")
}

fn mutants(base: &Case) -> Vec<Case> {
    let k = victim(base);
    let mut out = Vec::new();

    // drop the lemma (and its deletion); later learned refs shift down
    let mut events = Vec::new();
    let mut add_no = 0;
    for e in &base.events {
        match e {
            Event::Add(c) => {
                if add_no != k {
                    events.push(Event::Add(c.clone()));
                }
                add_no += 1;
            }
            Event::Delete(ProofClauseRef::Learned(j)) if *j == k => {}
            Event::Delete(ProofClauseRef::Learned(j)) if *j > k => {
                events.push(Event::Delete(ProofClauseRef::Learned(j - 1)));
            }
            Event::Delete(r) => events.push(Event::Delete(*r)),
        }
    }
    out.push(Case {
        name: format!("{}/drop{k}", base.name),
        formula: base.formula.clone(),
        events,
        deletions_only: false,
    });

    // flip the lemma's first literal
    let mut add_no = 0;
    let events = base
        .events
        .iter()
        .map(|e| match e {
            Event::Add(c) => {
                add_no += 1;
                if add_no - 1 == k {
                    let mut lits = c.lits().to_vec();
                    lits[0] = !lits[0];
                    Event::Add(Clause::new(lits))
                } else {
                    Event::Add(c.clone())
                }
            }
            other => other.clone(),
        })
        .collect();
    out.push(Case {
        name: format!("{}/flip{k}", base.name),
        formula: base.formula.clone(),
        events,
        deletions_only: false,
    });

    // delete the lemma right after adding it, before its last use
    let mut events = Vec::new();
    let mut add_no = 0;
    for e in &base.events {
        match e {
            Event::Delete(ProofClauseRef::Learned(j)) if *j == k => {}
            Event::Add(c) => {
                events.push(Event::Add(c.clone()));
                if add_no == k {
                    events.push(Event::Delete(ProofClauseRef::Learned(k)));
                }
                add_no += 1;
            }
            other => events.push(other.clone()),
        }
    }
    out.push(Case {
        name: format!("{}/early_delete{k}", base.name),
        formula: base.formula.clone(),
        events,
        deletions_only: true,
    });
    out
}

fn native_line(result: Result<Verification, VerifyError>) -> String {
    match result {
        Ok(v) => format!(
            "verified core={} checked={} marked={}",
            digest_indices(v.core.indices()),
            v.report.num_checked,
            digest_bits(&v.marked_steps)
        ),
        Err(e) => format!("rejected step={:?} {e}", e.step()),
    }
}

fn outcome_line(outcome: Outcome) -> String {
    match outcome {
        Outcome::Verified(v) => native_line(Ok(v)),
        Outcome::Rejected { step, error } => {
            format!("rejected step={step:?} {error}")
        }
        Outcome::Exhausted {
            reason,
            progress,
            checkpoint,
        } => format!(
            "exhausted {reason} checked={} ckpt={:?}",
            progress.steps_checked,
            checkpoint.map(|c| (
                c.terminal_done,
                c.next_pos,
                c.num_checked,
                digest_bits(&c.marks)
            ))
        ),
    }
}

fn drat_line(outcome: DratOutcome) -> String {
    match outcome {
        DratOutcome::Verified(v) => format!(
            "verified core={} checked={} adds={} deletes={} stats={:?} lrat={:016x}",
            digest_indices(v.core.indices()),
            v.num_checked,
            digest_bits(&v.marked_adds),
            digest_bits(&v.kept_deletes),
            v.stats,
            fnv(&encode_lrat_to_vec(&v.lrat))
        ),
        DratOutcome::Rejected { step, error } => {
            format!("rejected step={step:?} {error}")
        }
        DratOutcome::Exhausted { reason, .. } => format!("exhausted {reason}"),
    }
}

fn stream_line(outcome: StreamOutcome) -> String {
    match outcome {
        StreamOutcome::Verified(v) => format!(
            "verified core={} checked={} stats={:?}",
            digest_indices(v.core.indices()),
            v.num_checked,
            v.stats
        ),
        StreamOutcome::Rejected { step, error } => {
            format!("rejected step={step:?} {error}")
        }
        other => format!("{other:?}"),
    }
}

fn stream_config(window_bytes: u64) -> StreamConfig {
    StreamConfig {
        window_bytes,
        min_window_bytes: 512,
        index_granule_bytes: 512,
        chunk_bytes: 4096,
        ..StreamConfig::default()
    }
}

/// Every path's report on one case, one `path: report` line each.
fn run_paths(case: &Case, k: usize) -> Vec<String> {
    let f = &case.formula;
    let native = case.native();
    let mut lines = Vec::new();
    let mut push = |path: &str, line: String| lines.push(format!("{} {path}: {line}", case.name));

    if !case.deletions_only {
        push("verify", native_line(verify(f, &native)));
        push("verify_all", native_line(verify_all(f, &native)));
        push(
            "all_forward",
            native_line(Checker::new(f, &native).run(CheckMode::AllForward)),
        );
        let adds = case.adds();
        let k = k.min(adds.len() - 1);
        let prefix = ConflictClauseProof::new(adds[..k].to_vec());
        push(
            "implication",
            native_line(verify_implication(f, &prefix, &adds[k])),
        );

        let capped = Harness::with_budget(Budget::unlimited().max_propagations(100));
        let first = verify_harnessed(f, &native, CheckMode::MarkedOnly, &capped);
        let resumed = match &first {
            Outcome::Exhausted {
                checkpoint: Some(c),
                ..
            } => Some(
                resume_verification(f, &native, c, &Harness::default())
                    .expect("checkpoint matches its inputs"),
            ),
            _ => None,
        };
        push("harnessed_cap", outcome_line(first));
        push("harnessed_resume", resumed.map_or("-".into(), outcome_line));

        for n in [1, 2] {
            push(
                &format!("parallel{n}"),
                native_line(verify_all_parallel(f, &native, n)),
            );
        }
    }

    push(
        "annotated",
        match case.annotated().verify(f) {
            Ok(v) => format!(
                "verified core={} checked={} adds={}",
                digest_indices(v.core.indices()),
                v.num_checked,
                digest_bits(&v.marked_adds)
            ),
            Err(e) => format!("rejected step={:?} {e}", e.step()),
        },
    );

    let drat = case.drat();
    let outcome =
        verify_drat_backward_harnessed(f, &drat, &Harness::default(), PropagatorChoice::Watched);
    push("drat_watched", drat_line(outcome));

    let bytes = encode_drat_to_vec(&drat);
    for window in [512, 0] {
        let outcome = verify_drat_stream_bytes(
            f,
            &bytes,
            &Harness::default(),
            &stream_config(window),
            PropagatorChoice::Watched,
            None,
            None,
        );
        push(&format!("stream{window}"), stream_line(outcome));
    }
    lines
}

fn corpus() -> Vec<(Case, usize)> {
    let bases = vec![
        solved("php5", pigeonhole(5)),
        solved("php6", pigeonhole(6)),
        solved("tseitin3x4", tseitin_grid(3, 4)),
        solved("bmc4_10", bmc_counter(4, 10)),
        chain(300),
    ];
    with_mutants(bases.into_iter().chain(unit_heavy_bases()))
}

fn unit_heavy_bases() -> Vec<Case> {
    [
        Twist::DuplicateUnit,
        Twist::RederivedUnit,
        Twist::RevivedRatCandidate,
    ]
    .into_iter()
    .map(|twist| unit_heavy(twist, 24))
    .collect()
}

/// Each base case followed by its mutants, with the mutants' victim.
fn with_mutants(bases: impl IntoIterator<Item = Case>) -> Vec<(Case, usize)> {
    let mut cases = Vec::new();
    for base in bases {
        let k = victim(&base);
        let muts = mutants(&base);
        cases.push((base, k));
        cases.extend(muts.into_iter().map(|m| (m, k)));
    }
    cases
}

/// One `case path: report` line per run.
const EXPECTED: &str = include_str!("walker_golden.txt");

#[test]
fn every_walker_matches_its_recorded_output() {
    let actual: Vec<String> = corpus()
        .iter()
        .flat_map(|(case, k)| run_paths(case, *k))
        .collect();
    let expected: Vec<&str> = EXPECTED.lines().filter(|l| !l.is_empty()).collect();
    let mismatches: Vec<String> = actual
        .iter()
        .zip(expected.iter().chain(std::iter::repeat(&"<missing>")))
        .filter(|(a, e)| a != e)
        .map(|(a, e)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        mismatches.is_empty() && actual.len() == expected.len(),
        "{} of {} lines differ ({} expected):\n{}\n-- full actual table --\n{}",
        mismatches.len(),
        actual.len(),
        expected.len(),
        mismatches.join("\n"),
        actual.join("\n")
    );
}

/// What the in-memory DRAT walk reports, in the streaming checker's
/// terms (the streaming checker emits no marks or certificate).
fn drat_as_stream_line(outcome: DratOutcome) -> String {
    match outcome {
        DratOutcome::Verified(v) => format!(
            "verified core={} checked={} stats={:?}",
            digest_indices(v.core.indices()),
            v.num_checked,
            v.stats
        ),
        DratOutcome::Rejected { step, error } => {
            format!("rejected step={step:?} {error}")
        }
        other => format!("{other:?}"),
    }
}

#[test]
fn unit_heavy_cases_agree_streamed_and_in_memory() {
    for (case, _) in with_mutants(unit_heavy_bases()) {
        let drat = case.drat();
        let in_memory = drat_as_stream_line(verify_drat_backward_harnessed(
            &case.formula,
            &drat,
            &Harness::default(),
            PropagatorChoice::Watched,
        ));
        let bytes = encode_drat_to_vec(&drat);
        for window in [512, 0] {
            let streamed = stream_line(verify_drat_stream_bytes(
                &case.formula,
                &bytes,
                &Harness::default(),
                &stream_config(window),
                PropagatorChoice::Watched,
                None,
                None,
            ));
            assert_eq!(streamed, in_memory, "{} stream{window}", case.name);
        }
    }
}
