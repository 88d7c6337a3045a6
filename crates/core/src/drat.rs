//! Standard DRAT interop: parsing, backward checking with core-first
//! marking, LRAT hint capture, and trimming.
//!
//! DRAT (Heule's drat-trim) is the de-facto interchange format for
//! unsatisfiability proofs: a sequence of clause *additions* and
//! content-addressed *deletions* (`d` lines), in a text and a binary
//! encoding. This module accepts both ([`parse_drat`]) and verifies
//! them the way drat-trim does — *backward*, checking only the clauses
//! that the refutation actually depends on (core-first marking), with
//! a RAT fallback for steps that are not plain RUP.
//!
//! The backward pass doubles as a certificate generator: every conflict
//! it finds yields the exact unit-propagation cone, which is recorded
//! as LRAT hints ([`DratVerification::lrat`]) and as a trimmed DRAT
//! proof ([`trim_drat`]). Budgets and cancellation follow the harness
//! contract: [`DratOutcome::Exhausted`] is always distinct from a
//! verdict.
//!
//! Both encodings, the tolerated edge cases, and the divergences from
//! drat-trim are specified in `docs/FORMATS.md`.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io::{self, Write};
use std::time::Instant;

use bcp::{
    ArenaWatchedPropagator, ClauseRef, ClauseStore, Fuel, Propagator, PropagatorChoice,
    Stopped, WatchedPropagator,
};
use cnf::{Clause, CnfFormula, Lit, Var};

use crate::binary::{read_varint, write_varint, VarintFault};
use crate::core_extract::UnsatCore;
use crate::harness::{ExhaustReason, Harness, Progress};
use crate::kernel::{Kernel, Lemma, Policy, StepHints};
use crate::lrat::{LratAdd, LratLine, LratProof};
use crate::proof::ConflictClauseProof;
use crate::rat::DratStats;

// ---------------------------------------------------------------------
// Model
// ---------------------------------------------------------------------

/// Whether a DRAT step introduces or deletes a clause.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DratStepKind {
    /// The clause joins the active set.
    Add,
    /// The (content-addressed) clause leaves the active set.
    Delete,
}

/// One step of a DRAT proof.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DratStep {
    /// Addition or deletion.
    pub kind: DratStepKind,
    /// The clause added or deleted. Deletions match by content.
    pub clause: Clause,
    /// Where the step came from: the 1-based line (text encoding) or
    /// the byte offset of the step prefix (binary encoding). Zero for
    /// programmatically built proofs.
    pub position: usize,
}

impl DratStep {
    /// An addition step with no source position.
    #[must_use]
    pub fn add(clause: Clause) -> Self {
        DratStep { kind: DratStepKind::Add, clause, position: 0 }
    }

    /// A deletion step with no source position.
    #[must_use]
    pub fn delete(clause: Clause) -> Self {
        DratStep { kind: DratStepKind::Delete, clause, position: 0 }
    }
}

/// A DRAT proof: additions and deletions in file order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DratProof {
    steps: Vec<DratStep>,
}

impl DratProof {
    /// Wraps a step sequence as a proof.
    #[must_use]
    pub fn new(steps: Vec<DratStep>) -> Self {
        DratProof { steps }
    }

    /// The steps, in file order.
    #[must_use]
    pub fn steps(&self) -> &[DratStep] {
        &self.steps
    }

    /// Number of addition steps.
    #[must_use]
    pub fn num_adds(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.kind == DratStepKind::Add)
            .count()
    }

    /// Number of deletion steps.
    #[must_use]
    pub fn num_deletes(&self) -> usize {
        self.steps.len() - self.num_adds()
    }

    /// The largest variable mentioned by any step.
    #[must_use]
    pub fn max_var(&self) -> Option<Var> {
        self.steps.iter().filter_map(|s| s.clause.max_var()).max()
    }

    /// The addition steps as a native conflict-clause proof (deletions
    /// are dropped) — the lossy direction of the interop bridge.
    #[must_use]
    pub fn to_conflict_proof(&self) -> ConflictClauseProof {
        ConflictClauseProof::new(
            self.steps
                .iter()
                .filter(|s| s.kind == DratStepKind::Add)
                .map(|s| s.clause.clone())
                .collect(),
        )
    }
}

impl From<&ConflictClauseProof> for DratProof {
    /// A native proof is a deletion-free DRAT proof.
    fn from(proof: &ConflictClauseProof) -> Self {
        DratProof::new(proof.iter().cloned().map(DratStep::add).collect())
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// An error produced while parsing a DRAT proof. Text-encoding variants
/// carry 1-based line numbers; binary-encoding variants carry byte
/// offsets — the same hardened-error convention as the DIMACS and CCP1
/// parsers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseDratError {
    /// A token was neither a literal, `0`, nor a leading `d` — text.
    BadToken {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// The input ended inside a clause (no closing `0`) — text.
    UnterminatedClause {
        /// 1-based line where the unterminated step started.
        line: usize,
    },
    /// A step started with a byte other than `'a'`/`'d'` — binary.
    BadPrefix {
        /// Byte offset of the prefix.
        offset: usize,
        /// The offending byte.
        byte: u8,
    },
    /// A varint was truncated or overlong — binary.
    BadVarint {
        /// Byte offset where the varint started.
        offset: usize,
    },
    /// A varint decoded to a value below 2 (no literal maps there) or
    /// above the representable literal range — binary.
    LiteralOutOfRange {
        /// Byte offset where the varint started.
        offset: usize,
    },
    /// The input ended in the middle of a step — binary.
    UnexpectedEof {
        /// Byte offset at which more input was required.
        offset: usize,
    },
}

impl fmt::Display for ParseDratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDratError::BadToken { line, token } => {
                write!(f, "bad token {token:?} on line {line}")
            }
            ParseDratError::UnterminatedClause { line } => {
                write!(f, "unterminated clause starting on line {line}")
            }
            ParseDratError::BadPrefix { offset, byte } => {
                write!(f, "bad step prefix byte 0x{byte:02x} at byte {offset}")
            }
            ParseDratError::BadVarint { offset } => {
                write!(f, "malformed varint at byte {offset}")
            }
            ParseDratError::LiteralOutOfRange { offset } => {
                write!(f, "literal out of range at byte {offset}")
            }
            ParseDratError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of input at byte {offset}")
            }
        }
    }
}

impl Error for ParseDratError {}

/// Whether a byte buffer holds *binary* DRAT. Heuristic (documented in
/// `docs/FORMATS.md`): a first byte `'a'` is binary (no text token
/// starts with it); a first byte `'d'` is ambiguous — both encodings
/// use it for deletions — and is resolved by looking for a NUL byte,
/// which terminates every binary step but can never occur in text.
/// Anything else — including an empty buffer — is text. The one input
/// the heuristic misreads is a binary proof truncated inside its first
/// step (no NUL yet); both parses fail on such a prefix anyway.
#[must_use]
pub fn is_binary_drat(bytes: &[u8]) -> bool {
    match bytes.first() {
        Some(&b'a') => true,
        Some(&b'd') => bytes.contains(&0),
        _ => false,
    }
}

/// Parses a DRAT proof, auto-detecting the encoding via
/// [`is_binary_drat`].
///
/// # Errors
///
/// Returns [`ParseDratError`] with a line number (text) or byte offset
/// (binary) on malformed input.
///
/// # Examples
///
/// ```
/// use proofver::parse_drat;
///
/// let proof = parse_drat(b"2 0\nd 1 2 0\n-2 0\n0\n")?;
/// assert_eq!(proof.num_adds(), 3);
/// assert_eq!(proof.num_deletes(), 1);
/// # Ok::<(), proofver::ParseDratError>(())
/// ```
pub fn parse_drat(bytes: &[u8]) -> Result<DratProof, ParseDratError> {
    if is_binary_drat(bytes) {
        parse_drat_binary(bytes)
    } else {
        parse_drat_text(bytes)
    }
}

/// Parses text DRAT. Tolerated SATLIB-style edge cases: comment lines
/// (`c …`), blank lines, CRLF endings, clauses spanning physical lines,
/// and a `%` line terminating the proof early.
///
/// # Errors
///
/// See [`parse_drat`]; errors carry 1-based line numbers.
pub fn parse_drat_text(bytes: &[u8]) -> Result<DratProof, ParseDratError> {
    let text = String::from_utf8_lossy(bytes);
    let mut steps = Vec::new();
    // (kind, literals, 1-based line where the step started)
    let mut current: Option<(DratStepKind, Vec<Lit>, usize)> = None;
    'outer: for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim_start();
        if trimmed.starts_with('c') {
            continue;
        }
        if trimmed.starts_with('%') {
            break; // SATLIB-style terminator: ignore the rest
        }
        for token in raw.split_ascii_whitespace() {
            if token == "d" {
                if current.is_some() {
                    return Err(ParseDratError::BadToken { line, token: token.into() });
                }
                current = Some((DratStepKind::Delete, Vec::new(), line));
                continue;
            }
            if token == "%" {
                break 'outer;
            }
            let value: i32 = token.parse().map_err(|_| ParseDratError::BadToken {
                line,
                token: token.into(),
            })?;
            let (kind, lits, start) =
                current.get_or_insert((DratStepKind::Add, Vec::new(), line));
            if value == 0 {
                steps.push(DratStep {
                    kind: *kind,
                    clause: Clause::new(std::mem::take(lits)),
                    position: *start,
                });
                current = None;
            } else {
                lits.push(Lit::from_dimacs(value));
            }
        }
    }
    if let Some((_, _, start)) = current {
        return Err(ParseDratError::UnterminatedClause { line: start });
    }
    Ok(DratProof::new(steps))
}

fn decode_drat_lit(bytes: &[u8], pos: &mut usize) -> Result<Lit, ParseDratError> {
    let start = *pos;
    let code = match read_varint(bytes, pos) {
        Ok(v) => v,
        Err(VarintFault::Overflow) => {
            return Err(ParseDratError::LiteralOutOfRange { offset: start });
        }
        Err(VarintFault::Truncated | VarintFault::TooLong) => {
            return Err(ParseDratError::BadVarint { offset: start });
        }
    };
    // standard binary-DRAT mapping: literal l ↦ 2l (positive), 2|l|+1
    // (negative); 0 is the terminator, 1 would be variable zero
    if code < 2 {
        return Err(ParseDratError::LiteralOutOfRange { offset: start });
    }
    let magnitude = (code >> 1) as i32;
    Ok(Lit::from_dimacs(if code & 1 == 1 { -magnitude } else { magnitude }))
}

/// Parses binary DRAT (drat-trim's compressed encoding): each step is
/// an `'a'`/`'d'` prefix byte followed by LEB128 varints of the mapped
/// literals and a `0` terminator.
///
/// # Errors
///
/// See [`parse_drat`]; errors carry the byte offset of the fault.
pub fn parse_drat_binary(bytes: &[u8]) -> Result<DratProof, ParseDratError> {
    let mut steps = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let step_start = pos;
        let kind = match bytes[pos] {
            b'a' => DratStepKind::Add,
            b'd' => DratStepKind::Delete,
            byte => return Err(ParseDratError::BadPrefix { offset: pos, byte }),
        };
        pos += 1;
        let mut lits = Vec::new();
        loop {
            if pos >= bytes.len() {
                return Err(ParseDratError::UnexpectedEof { offset: pos });
            }
            if bytes[pos] == 0 {
                pos += 1;
                break;
            }
            lits.push(decode_drat_lit(bytes, &mut pos)?);
        }
        steps.push(DratStep { kind, clause: Clause::new(lits), position: step_start });
    }
    Ok(DratProof::new(steps))
}

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

/// Writes the proof in text DRAT (`d` prefix for deletions, clauses as
/// DIMACS literals closed by `0`).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_drat<W: Write>(mut writer: W, proof: &DratProof) -> io::Result<()> {
    for step in &proof.steps {
        if step.kind == DratStepKind::Delete {
            write!(writer, "d")?;
            for &l in step.clause.lits() {
                write!(writer, " {}", l.to_dimacs())?;
            }
            writeln!(writer, " 0")?;
        } else {
            for &l in step.clause.lits() {
                write!(writer, "{} ", l.to_dimacs())?;
            }
            writeln!(writer, "0")?;
        }
    }
    Ok(())
}

/// Renders the proof as a text-DRAT string.
#[must_use]
pub fn drat_to_string(proof: &DratProof) -> String {
    let mut buf = Vec::new();
    write_drat(&mut buf, proof).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("text DRAT is ASCII")
}

fn drat_code(lit: Lit) -> u32 {
    let d = lit.to_dimacs();
    if d > 0 {
        (d as u32) << 1
    } else {
        (((-d) as u32) << 1) | 1
    }
}

/// Writes the proof in binary DRAT.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn encode_drat<W: Write>(mut writer: W, proof: &DratProof) -> io::Result<()> {
    for step in &proof.steps {
        writer.write_all(if step.kind == DratStepKind::Delete { b"d" } else { b"a" })?;
        for &l in step.clause.lits() {
            write_varint(&mut writer, drat_code(l))?;
        }
        writer.write_all(&[0])?;
    }
    Ok(())
}

/// Encodes the proof in binary DRAT to a byte vector.
#[must_use]
pub fn encode_drat_to_vec(proof: &DratProof) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_drat(&mut buf, proof).expect("writing to Vec cannot fail");
    buf
}

// ---------------------------------------------------------------------
// Backward checking
// ---------------------------------------------------------------------

/// Why a DRAT proof was rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DratError {
    /// The final live clause set does not propagate to a conflict: the
    /// proof establishes no refutation.
    NotARefutation,
    /// A marked addition is neither RUP nor RAT over the clauses live
    /// at its point.
    NotImplied {
        /// Zero-based index among the addition steps.
        step: usize,
        /// The failing clause.
        clause: Clause,
    },
    /// A deletion step's clause is not live at that point (drat-trim
    /// warns and ignores these; we reject — see `docs/FORMATS.md`).
    DeleteMissing {
        /// Source position of the deletion (line or byte offset).
        position: usize,
        /// The clause the deletion named.
        clause: Clause,
    },
}

impl fmt::Display for DratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DratError::NotARefutation => {
                write!(f, "proof does not establish a contradiction")
            }
            DratError::NotImplied { step, clause } => {
                write!(f, "addition step {step} is neither RUP nor RAT: {clause:?}")
            }
            DratError::DeleteMissing { position, clause } => {
                write!(f, "deletion at position {position} names a clause that is not live: {clause:?}")
            }
        }
    }
}

impl Error for DratError {}

/// The result of a successful backward DRAT verification.
#[derive(Clone, Debug)]
pub struct DratVerification {
    /// Marked original clauses. For RUP-only proofs this is an
    /// unsatisfiable core; RAT steps weaken the claim to "the clauses
    /// the certificate depends on" (RAT preserves satisfiability, not
    /// equivalence).
    pub core: UnsatCore,
    /// Addition steps actually checked (the marked ones).
    pub num_checked: usize,
    /// RUP/RAT/resolvent counters over the checked steps.
    pub stats: DratStats,
    /// For each addition step (in proof order), whether it was marked.
    pub marked_adds: Vec<bool>,
    /// For each deletion step (in proof order), whether its target is
    /// consumer-visible (an original or marked clause) and the deletion
    /// therefore survives trimming.
    pub kept_deletes: Vec<bool>,
    /// The LRAT certificate recorded during the backward pass.
    pub lrat: LratProof,
    /// Literals propagated across every check.
    pub propagations: u64,
    /// Watched-clause look-ups across every check.
    pub clause_visits: u64,
}

/// The three-way outcome of a harnessed backward DRAT check — the same
/// taxonomy as [`crate::Outcome`]: exhaustion is never a verdict.
#[derive(Debug)]
pub enum DratOutcome {
    /// Every required check passed.
    Verified(Box<DratVerification>),
    /// The proof is not a valid refutation.
    Rejected {
        /// Zero-based addition-step index, when a specific step failed.
        step: Option<usize>,
        /// The underlying error.
        error: DratError,
    },
    /// A budget cap, deadline, or cancellation stopped the run first.
    /// Backward checking does not checkpoint (the walk mutates the
    /// clause arena in place), so there is nothing to resume.
    Exhausted {
        /// What limit was hit.
        reason: ExhaustReason,
        /// How far the run got (checked steps count *marked* additions).
        progress: Progress,
    },
}

/// Verifies a DRAT proof backward with unlimited resources on the
/// default engine.
///
/// # Errors
///
/// Returns [`DratError`] when the proof is rejected.
pub fn verify_drat_backward(
    formula: &CnfFormula,
    proof: &DratProof,
) -> Result<DratVerification, DratError> {
    match verify_drat_backward_harnessed(
        formula,
        proof,
        &Harness::default(),
        PropagatorChoice::Watched,
    ) {
        DratOutcome::Verified(v) => Ok(*v),
        DratOutcome::Rejected { error, .. } => Err(error),
        DratOutcome::Exhausted { .. } => {
            unreachable!("an unlimited budget cannot exhaust")
        }
    }
}

/// Verifies a DRAT proof backward under a [`Harness`] on the chosen
/// engine.
///
/// Like [`crate::deletion::AnnotatedProof::verify_with_engine`], the
/// arena engine runs *without* compaction: the backward walk resurrects
/// deleted clauses, so their bodies must survive deletion.
pub fn verify_drat_backward_harnessed(
    formula: &CnfFormula,
    proof: &DratProof,
    harness: &Harness,
    engine: PropagatorChoice,
) -> DratOutcome {
    match engine {
        PropagatorChoice::Watched => {
            check_drat::<WatchedPropagator>(formula, proof, harness)
        }
        PropagatorChoice::ArenaWatched => {
            check_drat::<ArenaWatchedPropagator>(formula, proof, harness)
        }
    }
}

/// Checks a DRAT proof on the engine `P`: RAT allowed, certificate
/// recorded.
fn check_drat<P: Propagator>(
    formula: &CnfFormula,
    proof: &DratProof,
    harness: &Harness,
) -> DratOutcome {
    match load_drat::<P>(formula, proof) {
        Ok(walk) => walk.run(harness),
        Err(error) => DratOutcome::Rejected { step: None, error },
    }
}

/// Loads a DRAT proof into a backward walk, resolving each deletion by
/// content to the most recently added live copy.
fn load_drat<'p, P: Propagator>(
    formula: &CnfFormula,
    proof: &'p DratProof,
) -> Result<BackwardWalk<'p, P, DratProof>, DratError> {
    let mut walk = BackwardWalk::new(formula, proof, Policy::Rat, true);
    // content → stack of live refs, most recent last
    let mut live: HashMap<Vec<u32>, Vec<ClauseRef>> = HashMap::new();
    for (i, clause) in formula.iter().enumerate() {
        live.entry(content_key(clause.lits()))
            .or_default()
            .push(ClauseRef::from_index(i));
    }
    for step in proof.steps() {
        let key = content_key(step.clause.lits());
        match step.kind {
            DratStepKind::Add => live.entry(key).or_default().push(walk.add(&step.clause)),
            DratStepKind::Delete => {
                let r = live.get_mut(&key).and_then(Vec::pop).ok_or_else(|| {
                    DratError::DeleteMissing {
                        position: step.position,
                        clause: step.clause.clone(),
                    }
                })?;
                walk.delete(r);
            }
        }
    }
    Ok(walk)
}

/// Drops the unmarked steps of a verified proof: unmarked additions and
/// the deletions that targeted them. The result is a standalone DRAT
/// proof that re-verifies against the same formula.
#[must_use]
pub fn trim_drat(proof: &DratProof, verification: &DratVerification) -> DratProof {
    let (mut ai, mut di) = (0usize, 0usize);
    let mut steps = Vec::new();
    for step in proof.steps() {
        let keep = match step.kind {
            DratStepKind::Add => {
                ai += 1;
                verification.marked_adds[ai - 1]
            }
            DratStepKind::Delete => {
                di += 1;
                verification.kept_deletes[di - 1]
            }
        };
        if keep {
            steps.push(step.clone());
        }
    }
    DratProof::new(steps)
}

/// The sorted literal codes of a clause: its identity for DRAT's
/// content-addressed deletions.
pub(crate) fn content_key(lits: &[Lit]) -> Vec<u32> {
    let mut key: Vec<u32> = lits.iter().map(|l| l.code()).collect();
    key.sort_unstable();
    key
}

/// A proof the in-memory backward walk crosses, step by step: DRAT
/// proofs and deletion-annotated native proofs.
pub(crate) trait WalkSource {
    /// Number of steps, additions and deletions alike.
    fn num_steps(&self) -> usize;
    /// The clause step `pos` adds, or `None` when the step deletes.
    fn added(&self, pos: usize) -> Option<&Clause>;
}

impl WalkSource for DratProof {
    fn num_steps(&self) -> usize {
        self.steps.len()
    }

    fn added(&self, pos: usize) -> Option<&Clause> {
        let step = &self.steps[pos];
        (step.kind == DratStepKind::Add).then_some(&step.clause)
    }
}

/// The in-memory backward walk over a proof with deletions, shared by
/// DRAT and deletion-annotated native proofs: the whole proof is loaded
/// into the kernel (deleted clauses stay in the store), then the steps
/// are crossed newest first — a deletion revives its clause, an
/// addition retires its clause and, when marked, checks it. Only the
/// way a deletion names its clause differs between the proof types, so
/// the caller loads the steps in order with [`BackwardWalk::add`] and
/// [`BackwardWalk::delete`].
pub(crate) struct BackwardWalk<'p, P: Propagator, S: WalkSource> {
    kernel: Kernel<P>,
    source: &'p S,
    /// Store ref of each addition step (in proof order).
    add_refs: Vec<ClauseRef>,
    /// Resolved target of each deletion step (in proof order).
    delete_refs: Vec<ClauseRef>,
    /// The certificate sink: per-addition replay hints, when recorded.
    hints: Option<Vec<StepHints>>,
    num_original: usize,
}

impl<'p, P: Propagator, S: WalkSource> BackwardWalk<'p, P, S> {
    /// Loads the formula; with `certify`, the walk records LRAT hints.
    pub(crate) fn new(formula: &CnfFormula, source: &'p S, policy: Policy, certify: bool) -> Self {
        let added = || (0..source.num_steps()).filter_map(|pos| source.added(pos));
        let num_adds = added().count();
        let num_vars = added()
            .filter_map(Clause::max_var)
            .map(|v| v.idx() + 1)
            .fold(formula.num_vars(), usize::max);
        let mut kernel = Kernel::new(num_vars, policy);
        for clause in formula.iter() {
            let r = kernel.add(clause.lits(), false);
            kernel.attach(r);
        }
        BackwardWalk {
            kernel,
            source,
            add_refs: Vec::with_capacity(num_adds),
            delete_refs: Vec::with_capacity(source.num_steps() - num_adds),
            hints: certify.then(|| vec![StepHints::Unchecked; num_adds]),
            num_original: formula.num_clauses(),
        }
    }

    /// Loads the next addition step; returns the clause's store ref.
    pub(crate) fn add(&mut self, clause: &Clause) -> ClauseRef {
        let r = self.kernel.add(clause.lits(), true);
        self.kernel.attach(r);
        self.add_refs.push(r);
        r
    }

    /// Loads the next step, a deletion of the live clause `r`.
    pub(crate) fn delete(&mut self, r: ClauseRef) {
        self.kernel.retire(r);
        self.delete_refs.push(r);
    }

    /// Store refs of the additions loaded so far, in proof order.
    pub(crate) fn add_refs(&self) -> &[ClauseRef] {
        &self.add_refs
    }

    pub(crate) fn run(mut self, harness: &Harness) -> DratOutcome {
        let start = Instant::now();
        let steps_total = self.add_refs.len();
        let budget = &harness.budget;

        // the arena is fully allocated by now, so the memory cap is
        // decidable up front
        if self.kernel.arena_bytes() > budget.max_arena_bytes {
            return DratOutcome::Exhausted {
                reason: ExhaustReason::Memory,
                progress: Progress { steps_total, ..Progress::default() },
            };
        }
        let mut fuel = Fuel {
            used_propagations: 0,
            used_clause_visits: 0,
            max_propagations: budget.max_propagations,
            max_clause_visits: budget.max_clause_visits,
            deadline: budget.timeout.map(|t| start + t),
            cancel: Some(harness.cancel.flag()),
        };
        let mut num_checked = 0usize;
        let mut stats = DratStats::default();

        // A trailing live empty clause is the claim being established —
        // it must not witness its own check. The terminal check below
        // *is* its check; its hints become the empty clause's LRAT line.
        let trailing_empty = self.add_refs.last().copied().filter(|&last| {
            self.kernel.db.clause_len(last) == 0 && !self.kernel.db.is_deleted(last)
        });
        if let Some(last) = trailing_empty {
            self.kernel.db.delete_clause(last);
        }

        let mut terminal = StepHints::Unchecked;
        let sink = self.hints.is_some().then_some(&mut terminal);
        match self.kernel.check_lemma(&[], &mut fuel, &mut DratStats::default(), sink) {
            Lemma::Implied => {}
            Lemma::NotImplied => {
                return DratOutcome::Rejected {
                    step: None,
                    error: DratError::NotARefutation,
                }
            }
            Lemma::Interrupted(s) => return self.exhausted(s, num_checked, &fuel),
        }
        if let (Some(last), Some(hints)) = (trailing_empty, &mut self.hints) {
            // keep the claim itself in the trimmed proof and LRAT
            self.kernel.marked[last.index()] = true;
            *hints.last_mut().expect("trailing add exists") = terminal.clone();
        }

        // Walk the steps backward.
        let (mut add_index, mut delete_index) = (self.add_refs.len(), self.delete_refs.len());
        for pos in (0..self.source.num_steps()).rev() {
            let Some(clause) = self.source.added(pos) else {
                // stepping back across a deletion resurrects the clause
                delete_index -= 1;
                self.kernel.revive(self.delete_refs[delete_index]);
                continue;
            };
            add_index -= 1;
            let r = self.add_refs[add_index];
            // deactivate the clause being checked
            self.kernel.retire(r);
            let is_trailing_empty =
                clause.is_empty() && add_index == self.add_refs.len() - 1;
            if is_trailing_empty || !self.kernel.marked[r.index()] {
                continue;
            }
            num_checked += 1;
            let sink = self.hints.as_mut().map(|h| &mut h[add_index]);
            match self.kernel.check_lemma(clause.lits(), &mut fuel, &mut stats, sink) {
                Lemma::Implied => {}
                Lemma::NotImplied => {
                    return DratOutcome::Rejected {
                        step: Some(add_index),
                        error: DratError::NotImplied {
                            step: add_index,
                            clause: clause.clone(),
                        },
                    }
                }
                Lemma::Interrupted(s) => return self.exhausted(s, num_checked, &fuel),
            }
        }

        let marked = &self.kernel.marked;
        let core_indices: Vec<usize> =
            (0..self.num_original).filter(|&i| marked[i]).collect();
        let marked_adds: Vec<bool> = self.add_refs.iter().map(|r| marked[r.index()]).collect();
        let kept_deletes: Vec<bool> = self
            .delete_refs
            .iter()
            .map(|&r| r.index() < self.num_original || marked[r.index()])
            .collect();
        let lrat = match &self.hints {
            Some(hints) => self.emit_lrat(hints, &terminal, &marked_adds, &kept_deletes),
            None => LratProof::default(),
        };
        DratOutcome::Verified(Box::new(DratVerification {
            core: UnsatCore::new(core_indices, self.num_original),
            num_checked,
            stats,
            marked_adds,
            kept_deletes,
            lrat,
            propagations: fuel.used_propagations,
            clause_visits: fuel.used_clause_visits,
        }))
    }

    fn exhausted(&self, stopped: Stopped, num_checked: usize, fuel: &Fuel<'_>) -> DratOutcome {
        DratOutcome::Exhausted {
            reason: stopped.into(),
            progress: Progress {
                steps_checked: num_checked,
                steps_total: self.add_refs.len(),
                propagations: fuel.used_propagations,
                clause_visits: fuel.used_clause_visits,
            },
        }
    }

    /// Assembles the LRAT certificate from the recorded hints. Clause
    /// ids are dense insertion order (`ref.index() + 1`): originals get
    /// `1..=n`, additions continue upward — unmarked additions leave
    /// gaps, which LRAT permits (ids only have to increase).
    fn emit_lrat(
        &self,
        hints: &[StepHints],
        terminal: &StepHints,
        marked_adds: &[bool],
        kept_deletes: &[bool],
    ) -> LratProof {
        let id = |r: ClauseRef| (r.index() + 1) as u64;
        let hint_ids = |h: &StepHints| -> Vec<i64> {
            match h {
                StepHints::Rup(cone) => cone.iter().map(|&c| id(c) as i64).collect(),
                StepHints::Tautology => Vec::new(),
                StepHints::Rat(groups) => groups
                    .iter()
                    .flat_map(|(d, cone)| {
                        std::iter::once(-(id(*d) as i64))
                            .chain(cone.iter().map(|&c| id(c) as i64))
                    })
                    .collect(),
                StepHints::Unchecked => unreachable!("marked addition was checked"),
            }
        };
        let mut lines = Vec::new();
        let mut last_id = self.num_original as u64;
        let mut pending: Vec<u64> = Vec::new();
        let (mut ai, mut di) = (0usize, 0usize);
        let mut have_empty = false;
        for pos in 0..self.source.num_steps() {
            match self.source.added(pos) {
                None => {
                    if kept_deletes[di] {
                        pending.push(id(self.delete_refs[di]));
                    }
                    di += 1;
                }
                Some(clause) => {
                    if marked_adds[ai] {
                        if !pending.is_empty() {
                            lines.push(LratLine::Delete {
                                id: last_id,
                                ids: std::mem::take(&mut pending),
                            });
                        }
                        let r = self.add_refs[ai];
                        have_empty |= clause.is_empty();
                        lines.push(LratLine::Add(LratAdd {
                            id: id(r),
                            clause: clause.clone(),
                            hints: hint_ids(&hints[ai]),
                        }));
                        last_id = id(r);
                    }
                    ai += 1;
                }
            }
        }
        if !have_empty {
            // the proof never wrote the empty clause: the terminal
            // conflict over the final live set is the refutation — emit
            // it as a synthetic final line
            if !pending.is_empty() {
                lines.push(LratLine::Delete { id: last_id, ids: pending });
            }
            lines.push(LratLine::Add(LratAdd {
                id: self.kernel.db.len() as u64 + 1,
                clause: Clause::empty(),
                hints: hint_ids(terminal),
            }));
        }
        LratProof::new(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Budget, CancelToken};
    use crate::lrat::check_lrat;

    fn xor_square() -> CnfFormula {
        CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, 2]])
    }

    fn proof_of(text: &str) -> DratProof {
        parse_drat_text(text.as_bytes()).expect("parse")
    }

    // -- parsing ------------------------------------------------------

    #[test]
    fn parses_text_with_deletions_comments_and_crlf() {
        let p = proof_of("c comment\r\n2 0\r\nd 1 2 0\r\n\r\n-2 0\n0\n");
        assert_eq!(p.num_adds(), 3);
        assert_eq!(p.num_deletes(), 1);
        assert_eq!(p.steps()[1].kind, DratStepKind::Delete);
        assert_eq!(p.steps()[1].clause, Clause::from_dimacs(&[1, 2]));
        assert_eq!(p.steps()[1].position, 3); // 1-based source line
        assert!(p.steps()[3].clause.is_empty());
    }

    #[test]
    fn text_clauses_may_span_lines_and_percent_terminates() {
        let p = proof_of("1 2\n3 0\n%\nthis is not drat\n");
        assert_eq!(p.num_adds(), 1);
        assert_eq!(p.steps()[0].clause, Clause::from_dimacs(&[1, 2, 3]));
    }

    #[test]
    fn text_errors_carry_line_numbers() {
        match parse_drat_text(b"1 2 0\nbogus 0\n").unwrap_err() {
            ParseDratError::BadToken { line, token } => {
                assert_eq!(line, 2);
                assert_eq!(token, "bogus");
            }
            other => panic!("wrong error {other:?}"),
        }
        match parse_drat_text(b"1 2 0\n3 4\n").unwrap_err() {
            ParseDratError::UnterminatedClause { line } => assert_eq!(line, 2),
            other => panic!("wrong error {other:?}"),
        }
        // a `d` inside a clause is malformed
        match parse_drat_text(b"1 d 2 0\n").unwrap_err() {
            ParseDratError::BadToken { line, token } => {
                assert_eq!(line, 1);
                assert_eq!(token, "d");
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn binary_roundtrip_preserves_steps() {
        let p = proof_of("2 0\nd 1 2 0\n-2 0\n0\n");
        let bytes = encode_drat_to_vec(&p);
        assert!(is_binary_drat(&bytes));
        let q = parse_drat_binary(&bytes).expect("reparse");
        assert_eq!(q.num_adds(), p.num_adds());
        for (a, b) in p.steps().iter().zip(q.steps()) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.clause, b.clause);
        }
    }

    #[test]
    fn text_roundtrip_preserves_steps() {
        let p = proof_of("2 0\nd 1 2 0\n-2 0\n0\n");
        let q = parse_drat_text(drat_to_string(&p).as_bytes()).expect("reparse");
        assert_eq!(p.num_adds(), q.num_adds());
        assert_eq!(p.num_deletes(), q.num_deletes());
    }

    #[test]
    fn binary_errors_carry_byte_offsets() {
        // garbage prefix byte
        match parse_drat_binary(b"x\x02\x00").unwrap_err() {
            ParseDratError::BadPrefix { offset, byte } => {
                assert_eq!((offset, byte), (0, b'x'));
            }
            other => panic!("wrong error {other:?}"),
        }
        // truncated mid-clause: 'a' then a literal, no terminator
        match parse_drat_binary(&[b'a', 4]).unwrap_err() {
            ParseDratError::UnexpectedEof { offset } => assert_eq!(offset, 2),
            other => panic!("wrong error {other:?}"),
        }
        // truncated varint (continuation bit, then EOF)
        match parse_drat_binary(&[b'a', 0x80]).unwrap_err() {
            ParseDratError::BadVarint { offset } => assert_eq!(offset, 1),
            other => panic!("wrong error {other:?}"),
        }
        // varint value 1 maps to no literal
        match parse_drat_binary(&[b'a', 1, 0]).unwrap_err() {
            ParseDratError::LiteralOutOfRange { offset } => assert_eq!(offset, 1),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn detection_heuristic() {
        assert!(is_binary_drat(b"a\x04\x00"));
        assert!(is_binary_drat(b"d\x04\x00"));
        assert!(!is_binary_drat(b"d 1 2 0\n"));
        assert!(!is_binary_drat(b"1 2 0\n"));
        assert!(!is_binary_drat(b""));
    }

    // -- backward checking --------------------------------------------

    #[test]
    fn verifies_a_plain_rup_proof() {
        let p = proof_of("2 0\n-2 0\n0\n");
        let v = verify_drat_backward(&xor_square(), &p).expect("valid");
        assert_eq!(v.num_checked, 2);
        assert_eq!(v.stats.num_rup, 2);
        assert_eq!(v.core.len(), 4);
        assert_eq!(v.marked_adds, vec![true, true, true]);
    }

    #[test]
    fn verifies_with_deletions_and_respects_the_live_set() {
        // same scenario as the deletion checker's regression test:
        // clause (3) is RUP only while the learned (2) is alive
        let f = CnfFormula::from_dimacs_clauses(&[
            vec![1, 2],
            vec![-1, 2],
            vec![-2, 3, 5],
            vec![-2, 3, -5],
            vec![-2, -3, 6],
            vec![-2, -3, -6],
        ]);
        let good = proof_of("2 0\n3 0\nd 3 0\n");
        // final live set: F + (2): assume nothing… F+(2) propagates 2,
        // then 3 and ¬3 clauses conflict? (¬2∨3∨5) → needs more: add
        // the closing units so the terminal check conflicts.
        let good = {
            let mut steps = good.steps().to_vec();
            steps.push(DratStep::add(Clause::from_dimacs(&[3])));
            steps.push(DratStep::add(Clause::empty()));
            DratProof::new(steps)
        };
        verify_drat_backward(&f, &good).expect("valid with deletion");

        // deleting (1 3) before deriving (1) breaks both RUP (no
        // conflict) and RAT (the resolvent with (-1 2) under ¬1 ¬2
        // propagates nothing)
        let g = CnfFormula::from_dimacs_clauses(&[
            vec![-1, 2],
            vec![-1, -2],
            vec![1, 3],
            vec![1, -3],
        ]);
        verify_drat_backward(&g, &proof_of("1 0\n0\n")).expect("baseline valid");
        let bad = proof_of("d 1 3 0\n1 0\n0\n");
        match verify_drat_backward(&g, &bad).expect_err("deleted dependency") {
            DratError::NotImplied { step, .. } => assert_eq!(step, 0),
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn rejects_deletion_of_missing_clause_with_position() {
        let p = proof_of("2 0\nd 7 8 0\n-2 0\n0\n");
        match verify_drat_backward(&xor_square(), &p).expect_err("missing delete") {
            DratError::DeleteMissing { position, clause } => {
                assert_eq!(position, 2);
                assert_eq!(clause, Clause::from_dimacs(&[7, 8]));
            }
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn rejects_a_non_refutation() {
        // the final live set must propagate to a conflict; (5 6) adds
        // nothing and the xor square alone has no units
        let p = proof_of("5 6 0\n");
        assert_eq!(
            verify_drat_backward(&xor_square(), &p).expect_err("no refutation"),
            DratError::NotARefutation
        );
        assert_eq!(
            verify_drat_backward(&xor_square(), &DratProof::default())
                .expect_err("empty proof"),
            DratError::NotARefutation
        );
    }

    #[test]
    fn accepts_rat_steps_backward() {
        // (9) is a fresh-variable unit: RAT (vacuously, no ¬9 clauses)
        // but not RUP. Force it to be *marked* by making the refutation
        // use it: add (¬9 ∨ 2) so the cone pulls 9's unit in.
        let p = proof_of("9 0\n-9 2 0\n-2 0\n0\n");
        let v = verify_drat_backward(&xor_square(), &p).expect("valid");
        assert!(v.stats.num_rat >= 1, "{:?}", v.stats);
    }

    #[test]
    fn unmarked_additions_are_skipped() {
        // (77 78) is junk the refutation never touches
        let p = proof_of("77 78 0\n2 0\n-2 0\n0\n");
        let v = verify_drat_backward(&xor_square(), &p).expect("valid");
        assert!(!v.marked_adds[0]);
        assert_eq!(v.num_checked, 2);
    }

    #[test]
    fn arena_engine_agrees_with_watched() {
        let p = proof_of("2 0\nd 1 2 0\n-2 0\n0\n");
        let w = verify_drat_backward(&xor_square(), &p).expect("watched");
        let outcome = verify_drat_backward_harnessed(
            &xor_square(),
            &p,
            &Harness::default(),
            PropagatorChoice::ArenaWatched,
        );
        match outcome {
            DratOutcome::Verified(a) => {
                assert_eq!(a.marked_adds, w.marked_adds);
                assert_eq!(a.core.len(), w.core.len());
            }
            other => panic!("arena disagrees: {other:?}"),
        }
    }

    // -- budgets ------------------------------------------------------

    #[test]
    fn starved_budget_exhausts_without_a_verdict() {
        let p = proof_of("2 0\n-2 0\n0\n");
        let harness = Harness::with_budget(Budget::unlimited().max_propagations(1));
        match verify_drat_backward_harnessed(
            &xor_square(),
            &p,
            &harness,
            PropagatorChoice::Watched,
        ) {
            DratOutcome::Exhausted { reason, progress } => {
                assert_eq!(reason, ExhaustReason::Propagations);
                assert_eq!(progress.steps_total, 3);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn memory_cap_exhausts_up_front() {
        let p = proof_of("2 0\n-2 0\n0\n");
        let harness = Harness::with_budget(Budget::unlimited().max_arena_bytes(1));
        match verify_drat_backward_harnessed(
            &xor_square(),
            &p,
            &harness,
            PropagatorChoice::Watched,
        ) {
            DratOutcome::Exhausted { reason, .. } => {
                assert_eq!(reason, ExhaustReason::Memory);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_interrupts_the_run() {
        let p = proof_of("2 0\n-2 0\n0\n");
        let mut harness = Harness::default();
        let token = CancelToken::new();
        token.cancel();
        harness.cancel = token;
        match verify_drat_backward_harnessed(
            &xor_square(),
            &p,
            &harness,
            PropagatorChoice::Watched,
        ) {
            DratOutcome::Exhausted { reason, .. } => {
                assert_eq!(reason, ExhaustReason::Cancelled);
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    // -- LRAT emission & trimming -------------------------------------

    #[test]
    fn emitted_lrat_revalidates() {
        let f = xor_square();
        let p = proof_of("2 0\nd 1 2 0\n-2 0\n0\n");
        let v = verify_drat_backward(&f, &p).expect("valid");
        check_lrat(&f, &v.lrat).expect("emitted LRAT re-validates");
    }

    #[test]
    fn emitted_lrat_revalidates_without_trailing_empty() {
        let f = xor_square();
        let p = proof_of("2 0\n-2 0\n");
        let v = verify_drat_backward(&f, &p).expect("valid");
        check_lrat(&f, &v.lrat).expect("synthetic terminal line re-validates");
    }

    #[test]
    fn emitted_lrat_covers_rat_candidates() {
        let p = proof_of("9 0\n-9 2 0\n-2 0\n0\n");
        let f = xor_square();
        let v = verify_drat_backward(&f, &p).expect("valid");
        assert!(v.stats.num_rat >= 1);
        let stats = check_lrat(&f, &v.lrat).expect("RAT LRAT re-validates");
        assert!(stats.num_rat_lines >= 1);
    }

    #[test]
    fn trimmed_proof_reverifies_and_drops_junk() {
        let f = xor_square();
        let p = proof_of("77 78 0\n2 0\nd 77 78 0\nd 1 2 0\n-2 0\n0\n");
        let v = verify_drat_backward(&f, &p).expect("valid");
        let trimmed = trim_drat(&p, &v);
        // junk add and its deletion are gone; the original-clause
        // deletion survives
        assert_eq!(trimmed.num_adds(), 3);
        assert_eq!(trimmed.num_deletes(), 1);
        let tv = verify_drat_backward(&f, &trimmed).expect("trimmed re-verifies");
        assert_eq!(tv.marked_adds.iter().filter(|&&m| m).count(), 3);
        check_lrat(&f, &tv.lrat).expect("trimmed LRAT re-validates");
    }

    #[test]
    fn native_proof_converts_and_agrees() {
        let native = ConflictClauseProof::new(vec![
            Clause::from_dimacs(&[2]),
            Clause::from_dimacs(&[-2]),
        ]);
        let drat = DratProof::from(&native);
        assert_eq!(drat.num_adds(), 2);
        assert_eq!(drat.to_conflict_proof(), native);
        verify_drat_backward(&xor_square(), &drat).expect("valid");
    }
}
