//! The conflict-clause proof verification procedures.
//!
//! This module implements §3 (`Proof_verification1`) and §4
//! (`Proof_verification2`) of the paper. Both view `F*` as a
//! chronologically ordered stack of conflict clauses and pop clauses off
//! the top: to check a clause `C` with falsifying assignment `R`, run
//! `BCP((F ∪ F*) | R)` — where `F*` is what remains below `C` on the
//! stack — and require a conflict. `Proof_verification2` additionally
//! *marks* the clauses responsible for each conflict, skips unmarked
//! (redundant) conflict clauses, and extracts an unsatisfiable core of
//! `F` from the marks.
//!
//! The checker deliberately shares no search code with the solver: its
//! only nontrivial machinery is the watched-literal BCP engine, which the
//! paper argues is "well established" and stable enough to trust.

use std::sync::atomic::AtomicBool;
use std::time::Instant;

use bcp::{BudgetedPropagation, ClauseRef, Conflict, Fuel, Stopped};
use cnf::{Clause, CnfFormula, Lit};

use crate::core_extract::UnsatCore;
use crate::error::VerifyError;
use crate::harness::{
    formula_fingerprint, proof_fingerprint, Budget, Checkpoint, Harness, Outcome, Progress,
};
use crate::kernel::{Kernel, Lemma, Policy};
use crate::proof::ConflictClauseProof;
use crate::rat::DratStats;
use crate::report::VerificationReport;

/// Which verification procedure to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CheckMode {
    /// `Proof_verification1`: check every conflict clause, newest first.
    All,
    /// `Proof_verification2`: check only clauses marked as contributing
    /// to the final conflict (the default — strictly less work, same
    /// guarantee for the refutation).
    #[default]
    MarkedOnly,
    /// Check every conflict clause in *chronological* order — the paper's
    /// §3 remark that "if one checks the correctness of all the clauses
    /// of F*, the order in which clauses are processed does not matter".
    /// Accepts and rejects exactly the same proofs as [`CheckMode::All`];
    /// marking (and thus the core) can differ, since conflict cones are
    /// discovered in a different order.
    AllForward,
}

/// The successful result of a verification run.
#[derive(Clone, Debug)]
pub struct Verification {
    /// Aggregate statistics (Table 1 / Table 2 inputs).
    pub report: VerificationReport,
    /// The unsatisfiable core of the original formula (§4).
    pub core: UnsatCore,
    /// For each proof step, whether it was marked as contributing to the
    /// refutation — the input to proof trimming.
    pub marked_steps: Vec<bool>,
}

/// Verifies `proof` against `formula` with `Proof_verification2`
/// (marking + core extraction).
///
/// # Errors
///
/// * [`VerifyError::NotImplied`] — some checked conflict clause is not
///   derivable by BCP from the clauses preceding it; the error pinpoints
///   the clause.
/// * [`VerifyError::NotARefutation`] — the formula plus the complete
///   proof does not propagate to a conflict, so unsatisfiability was
///   never established.
///
/// # Examples
///
/// ```
/// use cnf::{Clause, CnfFormula};
/// use proofver::verify;
///
/// let f = CnfFormula::from_dimacs_clauses(&[
///     vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, 2],
/// ]);
/// // a valid conflict-clause proof: (¬x2 from clauses 2,1), then units
/// let proof = vec![
///     Clause::from_dimacs(&[2]),
///     Clause::from_dimacs(&[-2]),
/// ].into();
/// let result = verify(&f, &proof)?;
/// assert_eq!(result.core.len(), 4);
/// # Ok::<(), proofver::VerifyError>(())
/// ```
pub fn verify(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
) -> Result<Verification, VerifyError> {
    Checker::new(formula, proof).run(CheckMode::MarkedOnly)
}

/// Verifies `proof` against `formula` with `Proof_verification1`
/// (every clause is checked; marking still runs so a core is produced).
///
/// # Errors
///
/// See [`verify`].
pub fn verify_all(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
) -> Result<Verification, VerifyError> {
    Checker::new(formula, proof).run(CheckMode::All)
}

/// Verifies that `F ∪ F* ⊨ target`: each conflict clause of `proof` is
/// checked as in [`verify`], and the *target* clause takes the place of
/// the final refutation — its negation, propagated over the formula plus
/// the whole proof, must conflict.
///
/// This is the building block for checking answers of *incremental*
/// queries (solving under assumptions): an UNSAT-under-assumptions
/// answer comes with a clause over the failed assumptions, which is
/// exactly such a target.
///
/// # Errors
///
/// See [`verify`]; `NotARefutation` means the target is not derivable.
///
/// # Examples
///
/// ```
/// use cnf::{Clause, CnfFormula};
/// use proofver::verify_implication;
///
/// // F = (¬1 ∨ 2) ∧ (¬2 ∨ 3): F ⊨ (¬1 ∨ 3)
/// let f = CnfFormula::from_dimacs_clauses(&[vec![-1, 2], vec![-2, 3]]);
/// let target = Clause::from_dimacs(&[-1, 3]);
/// let v = verify_implication(&f, &Default::default(), &target)?;
/// assert_eq!(v.core.len(), 2);
/// # Ok::<(), proofver::VerifyError>(())
/// ```
pub fn verify_implication(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
    target: &Clause,
) -> Result<Verification, VerifyError> {
    unlimited(Checker::new(formula, proof).walk(
        CheckMode::MarkedOnly,
        &Harness::default(),
        None,
        Some(target),
    ))
}

/// What one budgeted worker (a parallel slice or the terminal check)
/// reported back. Unlike a bare `Result`, an interrupted worker is kept
/// distinct from a failed one, so resource exhaustion can never merge
/// into a verdict.
pub(crate) enum WorkerOutcome {
    /// Every assigned check completed.
    Done {
        /// Mark bitmap over the whole arena.
        marks: Vec<bool>,
        /// Number of checks performed.
        checked: usize,
        /// Fuel spent (propagations).
        propagations: u64,
        /// Fuel spent (clause visits).
        clause_visits: u64,
    },
    /// A check found evidence against the proof.
    Failed(VerifyError),
    /// The budget ran out or the run was cancelled mid-slice.
    Interrupted(Stopped),
}

/// The proof checker, exposed for callers that want to reuse the arena
/// across modes or inspect intermediate state.
///
/// The checks and the marking are the shared backward kernel's. What
/// is native here is the clause layout: `F` is propagated once into a
/// persistent root level, and the proof is a stack of clauses behind
/// an activity horizon that each check moves, instead of a live set
/// maintained by deletions.
#[derive(Debug)]
pub struct Checker<'a> {
    formula: &'a CnfFormula,
    proof: &'a ConflictClauseProof,
    kernel: Kernel,
    /// Unit clauses of `F`, enqueued once at the root level.
    root_units: Vec<(ClauseRef, Lit)>,
    num_original: usize,
}

impl<'a> Checker<'a> {
    /// Builds the checker arena: the original clauses first, then the
    /// conflict clauses in chronological order.
    #[must_use]
    pub fn new(formula: &'a CnfFormula, proof: &'a ConflictClauseProof) -> Self {
        let num_vars = formula
            .num_vars()
            .max(proof.max_var().map_or(0, |v| v.idx() + 1));
        let mut kernel = Kernel::new(num_vars, Policy::Rup);

        // Only F is attached here; proof clauses are attached by the
        // walk *after* the root propagation, so the lazy watch cleanup
        // never sees a proof clause while it is below the activity
        // horizon it will later rise above.
        for clause in formula.iter() {
            let r = kernel.add(clause.lits(), false);
            kernel.attach(r);
        }
        let root_units = std::mem::take(&mut kernel.units);
        for clause in proof.iter() {
            let r = kernel.add(clause.lits(), true);
            match clause.len() {
                0 => kernel.empties.push(r),
                1 => kernel.units.push((r, clause[0])),
                _ => {}
            }
        }
        Checker {
            formula,
            proof,
            kernel,
            root_units,
            num_original: formula.num_clauses(),
        }
    }

    /// Runs the selected verification procedure.
    ///
    /// # Errors
    ///
    /// See [`verify`].
    pub fn run(self, mode: CheckMode) -> Result<Verification, VerifyError> {
        unlimited(self.walk(mode, &Harness::default(), None, None))
    }

    /// The verification walk: budgeted, cancellable and resumable.
    ///
    /// Without a `target` the proof must refute the formula; with one,
    /// the terminal check assumes `¬target` over `F ∪ F*` instead.
    ///
    /// Checkpoint discipline: marks and `num_checked` are updated only
    /// when a check *completes*; an interrupted check leaves no trace
    /// and is redone on resume. Checkpoints therefore always describe a
    /// state the uninterrupted run also passes through.
    pub(crate) fn walk(
        mut self,
        mode: CheckMode,
        harness: &Harness,
        resume: Option<&Checkpoint>,
        target: Option<&Clause>,
    ) -> Outcome {
        let start = Instant::now();
        let steps_total = self.proof.len();
        let budget = &harness.budget;

        // The arena is fully allocated by `Checker::new`, so the memory
        // cap is decidable up front.
        if self.kernel.arena_bytes() > budget.max_arena_bytes {
            return Outcome::Exhausted {
                reason: crate::harness::ExhaustReason::Memory,
                progress: Progress {
                    steps_checked: 0,
                    steps_total,
                    ..Progress::default()
                },
                checkpoint: None,
            };
        }

        let deadline = budget.timeout.map(|t| start + t);
        let mut fuel = Fuel {
            used_propagations: resume.map_or(0, |c| c.spent_propagations),
            used_clause_visits: resume.map_or(0, |c| c.spent_clause_visits),
            max_propagations: budget.max_propagations,
            max_clause_visits: budget.max_clause_visits,
            deadline,
            cancel: Some(harness.cancel.flag()),
        };

        let mut num_checked = resume.map_or(0, |c| c.num_checked);
        let mut terminal_done = resume.is_some_and(|c| c.terminal_done);
        let start_pos = resume.map_or(0, |c| c.next_pos);
        if let Some(ckpt) = resume {
            debug_assert_eq!(ckpt.marks.len(), self.kernel.marked.len());
            self.kernel.marked.copy_from_slice(&ckpt.marks);
        }
        // the target may mention variables beyond the formula's universe
        if let Some(v) = target.and_then(Clause::max_var) {
            self.kernel.ensure_vars(v.idx() + 1);
        }
        let target = target.map_or(&[][..], Clause::lits);

        // Root propagation runs on every (re)start — it reconstructs the
        // persistent level-0 state and is charged against the budget like
        // any other work. If F conflicts by unit propagation alone, every
        // check would conflict on this same cone: nothing else needs
        // testing.
        match self.propagate_root(&mut fuel) {
            Ok(None) => {}
            Ok(Some(conflict)) => {
                self.kernel.mark_cone(conflict, None);
                return Outcome::Verified(self.finish(num_checked, start, &fuel));
            }
            Err(stopped) => {
                return self.exhausted(
                    stopped,
                    mode,
                    terminal_done,
                    start_pos,
                    num_checked,
                    &fuel,
                );
            }
        }

        // The terminal check: BCP over F ∪ F* under the negated target
        // (no assumptions for a refutation) must conflict. This subsumes
        // the paper's "mark the final conflicting pair" initialisation:
        // the clauses responsible for the conflict become the initial
        // marks. If a refutation proof ends with an explicit empty
        // clause, this is exactly its check.
        let terminal_limit = self.terminal_limit(target.is_empty());
        // Backward checking shrinks the active horizon monotonically, so
        // all proof clauses can be watched up front (lazy cleanup sheds
        // them as they are popped). Forward checking grows the horizon,
        // which lazy cleanup cannot tolerate — each clause is attached
        // only after its own check instead. (§3: for all-clause checking
        // the order does not matter.)
        let forward = mode == CheckMode::AllForward;
        let order: Vec<usize> = if forward {
            (0..steps_total).collect()
        } else {
            (0..steps_total).rev().collect()
        };

        if !forward {
            self.attach_proof();
            if !terminal_done {
                match self.check_at(target, terminal_limit, &mut fuel) {
                    Lemma::Implied => {}
                    Lemma::NotImplied => {
                        return Outcome::Rejected {
                            step: None,
                            error: VerifyError::NotARefutation,
                        }
                    }
                    Lemma::Interrupted(stopped) => {
                        return self.exhausted(
                            stopped,
                            mode,
                            false,
                            start_pos,
                            num_checked,
                            &fuel,
                        )
                    }
                }
                terminal_done = true;
            }
        } else {
            // Reconstruct forward-mode state: clauses visited before the
            // checkpoint are attached (their checks are already done).
            for &step in &order[..start_pos] {
                self.attach_proof_clause(ClauseRef::from_index(self.num_original + step));
            }
        }

        for (pos, &step) in order.iter().enumerate().skip(start_pos) {
            let arena_index = self.num_original + step;
            let clause = &self.proof.clauses()[step];
            let skip = if clause.is_empty() && arena_index == terminal_limit {
                // the terminal check covers exactly this clause's check
                true
            } else {
                // redundant conflict clauses are skipped in marked mode (§4)
                mode == CheckMode::MarkedOnly && !self.kernel.marked[arena_index]
            };
            if !skip {
                // An empty clause mid-proof has the empty falsifying
                // assignment: BCP over the *preceding* clauses alone must
                // already conflict.
                match self.check_at(clause.lits(), arena_index, &mut fuel) {
                    Lemma::Implied => num_checked += 1,
                    Lemma::NotImplied => {
                        return Outcome::Rejected {
                            step: Some(step),
                            error: VerifyError::NotImplied {
                                step,
                                clause: clause.clone(),
                            },
                        }
                    }
                    Lemma::Interrupted(stopped) => {
                        return self.exhausted(
                            stopped,
                            mode,
                            terminal_done,
                            pos,
                            num_checked,
                            &fuel,
                        )
                    }
                }
            }
            if forward {
                self.attach_proof_clause(ClauseRef::from_index(arena_index));
            }
        }

        if forward && !terminal_done {
            match self.check_at(target, terminal_limit, &mut fuel) {
                Lemma::Implied => {}
                Lemma::NotImplied => {
                    return Outcome::Rejected {
                        step: None,
                        error: VerifyError::NotARefutation,
                    }
                }
                Lemma::Interrupted(stopped) => {
                    return self.exhausted(
                        stopped,
                        mode,
                        false,
                        order.len(),
                        num_checked,
                        &fuel,
                    )
                }
            }
        }

        Outcome::Verified(self.finish(num_checked, start, &fuel))
    }

    /// Checks the given steps under a private per-worker budget, with a
    /// shared deadline and cancellation flag; with `terminal`, the
    /// refutation check runs first. The parallel checker's worker body:
    /// panics (if any) are caught by the caller.
    pub(crate) fn check_slice(
        mut self,
        mut steps: Vec<usize>,
        terminal: bool,
        budget: &Budget,
        cancel: &AtomicBool,
        deadline: Option<Instant>,
        starved: bool,
    ) -> WorkerOutcome {
        let mut fuel = Fuel {
            used_propagations: 0,
            used_clause_visits: 0,
            max_propagations: if starved { 0 } else { budget.max_propagations },
            max_clause_visits: if starved { 0 } else { budget.max_clause_visits },
            deadline,
            cancel: Some(cancel),
        };
        let done = |checker: Self, checked: usize, fuel: &Fuel<'_>| WorkerOutcome::Done {
            marks: checker.kernel.marked,
            checked,
            propagations: fuel.used_propagations,
            clause_visits: fuel.used_clause_visits,
        };
        match self.propagate_root(&mut fuel) {
            Ok(None) => {}
            Ok(Some(conflict)) => {
                self.kernel.mark_cone(conflict, None);
                return done(self, 0, &fuel);
            }
            Err(stopped) => return WorkerOutcome::Interrupted(stopped),
        }
        self.attach_proof();
        if terminal {
            match self.check_at(&[], self.terminal_limit(true), &mut fuel) {
                Lemma::Implied => {}
                Lemma::NotImplied => return WorkerOutcome::Failed(VerifyError::NotARefutation),
                Lemma::Interrupted(stopped) => return WorkerOutcome::Interrupted(stopped),
            }
        }
        steps.sort_unstable_by(|a, b| b.cmp(a));
        let mut checked = 0usize;
        for step in steps {
            let clause = &self.proof.clauses()[step];
            match self.check_at(clause.lits(), self.num_original + step, &mut fuel) {
                Lemma::Implied => checked += 1,
                Lemma::NotImplied => {
                    return WorkerOutcome::Failed(VerifyError::NotImplied {
                        step,
                        clause: clause.clone(),
                    })
                }
                Lemma::Interrupted(stopped) => return WorkerOutcome::Interrupted(stopped),
            }
        }
        done(self, checked, &fuel)
    }

    /// Size of the clause arena in bytes — what one engine copy costs,
    /// the unit of the [`Budget::max_arena_bytes`] cap.
    pub(crate) fn arena_bytes(&self) -> u64 {
        self.kernel.arena_bytes()
    }

    /// Store index of the first clause the terminal check must not see:
    /// a refutation's trailing empty clause is the claim being checked.
    fn terminal_limit(&self, refutation: bool) -> usize {
        match self.proof.clauses().last() {
            Some(c) if c.is_empty() && refutation => self.num_original + self.proof.len() - 1,
            _ => self.num_original + self.proof.len(),
        }
    }

    /// One native check: the clauses below `horizon` must imply
    /// `clause`. A check never starts on drained fuel, so a checkpoint
    /// lands between checks.
    fn check_at(&mut self, clause: &[Lit], horizon: usize, fuel: &mut Fuel<'_>) -> Lemma {
        if let Some(stopped) = fuel.stop() {
            return Lemma::Interrupted(stopped);
        }
        self.kernel.set_horizon(horizon);
        self.kernel
            .check_lemma(clause, fuel, &mut DratStats::default(), None)
    }

    /// Establishes the permanent root level: the units of the original
    /// formula and everything they propagate through `F` alone. Returns
    /// a conflict if `F` refutes itself by propagation (including an
    /// empty clause in `F`).
    fn propagate_root(&mut self, fuel: &mut Fuel<'_>) -> Result<Option<Conflict>, Stopped> {
        let _span = obs::span!("proofver.root_propagate");
        if let Some(stopped) = fuel.stop() {
            return Err(stopped);
        }
        self.kernel.set_horizon(self.num_original);
        let kernel = &mut self.kernel;
        if let Some(&r) = kernel.empties.iter().find(|r| r.index() < self.num_original) {
            return Ok(Some(Conflict { clause: r }));
        }
        for &(r, l) in &self.root_units {
            if let Err(conflict) = kernel.prop.enqueue_propagated(l, r) {
                return Ok(Some(conflict));
            }
        }
        match kernel.prop.propagate_budgeted(&mut kernel.db, fuel) {
            BudgetedPropagation::Conflict(c) => Ok(Some(c)),
            BudgetedPropagation::Fixpoint => Ok(None),
            BudgetedPropagation::Interrupted(stopped) => Err(stopped),
        }
    }

    fn attach_proof(&mut self) {
        for step in 0..self.proof.len() {
            self.attach_proof_clause(ClauseRef::from_index(self.num_original + step));
        }
    }

    /// Attaches one proof clause *after* the persistent root level is in
    /// place. Watched literals must be non-false, so the literals are
    /// reordered; a clause that is unit under the root assignments joins
    /// the per-check unit list (it may NOT extend the root trail — that
    /// would leak its consequence into checks of earlier clauses), and a
    /// clause falsified outright by root assignments acts like an empty
    /// clause for every check that has it active.
    fn attach_proof_clause(&mut self, r: ClauseRef) {
        let kernel = &mut self.kernel;
        if kernel.db.clause_len(r) < 2 {
            return; // units/empties were collected at construction
        }
        // classification must see only the persistent root assignments,
        // not a preceding check's assumptions
        kernel.prop.backtrack_to(0);
        let assignment = kernel.prop.assignment();
        let lits = kernel.db.lits_mut(r);
        lits.sort_by_key(|&l| assignment.lit_value(l) == cnf::LBool::False);
        let non_false = lits
            .iter()
            .filter(|&&l| assignment.lit_value(l) != cnf::LBool::False)
            .count();
        let first = lits[0];
        match non_false {
            0 => kernel.empties.push(r),
            1 => {
                kernel.prop.attach_clause(&mut kernel.db, r);
                kernel.units.push((r, first));
            }
            _ => {
                kernel.prop.attach_clause(&mut kernel.db, r);
            }
        }
    }

    fn finish(&self, num_checked: usize, start: Instant, fuel: &Fuel<'_>) -> Verification {
        let marked = &self.kernel.marked;
        let core_indices: Vec<usize> =
            (0..self.num_original).filter(|&i| marked[i]).collect();
        let core = UnsatCore::new(core_indices, self.num_original);
        let marked_steps = marked[self.num_original..].to_vec();
        let report = VerificationReport {
            num_original: self.num_original,
            num_conflict_clauses: self.proof.len(),
            num_checked,
            proof_literals: self.proof.num_literals(),
            core_size: core.len(),
            verify_time: start.elapsed(),
            propagations: fuel.used_propagations,
            clause_visits: fuel.used_clause_visits,
        };
        Verification { report, core, marked_steps }
    }

    fn exhausted(
        &self,
        stopped: Stopped,
        mode: CheckMode,
        terminal_done: bool,
        next_pos: usize,
        num_checked: usize,
        fuel: &Fuel<'_>,
    ) -> Outcome {
        Outcome::Exhausted {
            reason: stopped.into(),
            progress: Progress {
                steps_checked: num_checked,
                steps_total: self.proof.len(),
                propagations: fuel.used_propagations,
                clause_visits: fuel.used_clause_visits,
            },
            checkpoint: Some(Box::new(Checkpoint {
                mode,
                formula_hash: formula_fingerprint(self.formula),
                formula_clauses: self.num_original,
                proof_hash: proof_fingerprint(self.proof),
                proof_clauses: self.proof.len(),
                terminal_done,
                next_pos,
                num_checked,
                spent_propagations: fuel.used_propagations,
                spent_clause_visits: fuel.used_clause_visits,
                marks: self.kernel.marked.clone(),
            })),
        }
    }
}

/// The verdict of a walk under an unlimited harness, which cannot
/// exhaust.
pub(crate) fn unlimited(outcome: Outcome) -> Result<Verification, VerifyError> {
    match outcome {
        Outcome::Verified(v) => Ok(v),
        Outcome::Rejected { error, .. } => Err(error),
        Outcome::Exhausted { .. } => unreachable!("an unlimited budget cannot exhaust"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Clause;

    fn f(clauses: &[Vec<i32>]) -> CnfFormula {
        CnfFormula::from_dimacs_clauses(clauses)
    }

    fn proof(clauses: &[Vec<i32>]) -> ConflictClauseProof {
        clauses.iter().map(|c| Clause::from_dimacs(c)).collect()
    }

    /// The XOR square: (1∨2)(−1∨−2)(1∨−2)(−1∨2) — UNSAT.
    fn xor_square() -> CnfFormula {
        f(&[vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, 2]])
    }

    #[test]
    fn accepts_final_pair_proof() {
        // BCP check of (2): assume ¬2; clauses (1∨2) → 1, (−1∨2) → conflict.
        let p = proof(&[vec![2], vec![-2]]);
        let v = verify(&xor_square(), &p).expect("valid proof");
        assert_eq!(v.report.num_checked, 2);
        assert_eq!(v.core.len(), 4, "all four clauses are needed");
    }

    #[test]
    fn accepts_empty_clause_terminal() {
        let p = proof(&[vec![2], vec![-2], vec![]]);
        let v = verify(&xor_square(), &p).expect("valid proof");
        assert!(v.marked_steps[0] && v.marked_steps[1]);
    }

    #[test]
    fn rejects_underivable_clause() {
        // (3) is not implied by the xor square (x3 unconstrained)
        let p = proof(&[vec![3], vec![2], vec![-2]]);
        let err = verify_all(&xor_square(), &p).expect_err("bogus step");
        match err {
            VerifyError::NotImplied { step, clause } => {
                assert_eq!(step, 0);
                assert_eq!(clause, Clause::from_dimacs(&[3]));
            }
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn verify2_skips_redundant_clause_that_verify1_rejects() {
        // (3) is bogus (x3 is unconstrained) but also redundant: it can
        // propagate nothing used in deriving the final pair, so verify2
        // never checks it, while verify1 checks and rejects it.
        // Note x3 appears in no other clause, so the unit (3) stays
        // outside every conflict cone.
        let p = proof(&[vec![3], vec![2], vec![-2]]);
        let v = verify(&xor_square(), &p).expect("marked-only run skips (3)");
        assert_eq!(v.report.num_checked, 2);
        assert!(!v.marked_steps[0]);
        assert!(verify_all(&xor_square(), &p).is_err());
    }

    #[test]
    fn rejects_non_refutation() {
        // (1 ∨ 2) adds no unit, so F ∪ F* propagates nothing: no conflict
        let p = proof(&[vec![1, 2]]);
        assert_eq!(
            verify(&xor_square(), &p).expect_err("no refutation"),
            VerifyError::NotARefutation
        );
        // empty proof over a satisfiable formula
        let sat = f(&[vec![1, 2]]);
        assert_eq!(
            verify(&sat, &ConflictClauseProof::default()).expect_err("sat"),
            VerifyError::NotARefutation
        );
    }

    #[test]
    fn single_unit_proof_refutes_by_propagation_alone() {
        // (2) together with F already propagates to a conflict, so the
        // terminal check succeeds without an explicit pair — the
        // generalisation of the paper's final-conflicting-pair rule.
        let p = proof(&[vec![2]]);
        let v = verify(&xor_square(), &p).expect("valid refutation");
        assert_eq!(v.report.num_checked, 1);
    }

    #[test]
    fn empty_proof_ok_when_formula_conflicts_at_root() {
        let trivial = f(&[vec![1], vec![-1]]);
        let v = verify(&trivial, &ConflictClauseProof::default()).expect("root conflict");
        assert_eq!(v.core.len(), 2);
        assert_eq!(v.report.num_checked, 0);
    }

    #[test]
    fn empty_clause_in_formula_gives_empty_core_check() {
        let mut formula = f(&[vec![1, 2]]);
        formula.add_clause(Clause::empty());
        let v = verify(&formula, &ConflictClauseProof::default()).expect("trivial");
        // the empty clause itself is the core
        assert_eq!(v.core.indices(), &[1]);
    }

    #[test]
    fn core_excludes_untouched_clauses() {
        // xor square + an irrelevant clause (3 ∨ 4)
        let mut formula = xor_square();
        formula.add_dimacs_clause(&[3, 4]);
        let p = proof(&[vec![2], vec![-2]]);
        let v = verify(&formula, &p).expect("valid");
        assert_eq!(v.core.len(), 4);
        assert!(!v.core.contains(4), "(3∨4) is not in the core");
    }

    #[test]
    fn duplicate_unit_conflict_clauses_are_fine() {
        let p = proof(&[vec![2], vec![2], vec![-2]]);
        // second (2) is redundant but harmless; terminal pair is (2),(−2)
        let v = verify(&xor_square(), &p).expect("valid");
        assert!(v.report.num_checked >= 2);
    }

    #[test]
    fn longer_derivation_chain() {
        // php(2): 3 pigeons, 2 holes
        let formula = f(&[
            vec![1, 2],
            vec![3, 4],
            vec![5, 6],
            vec![-1, -3],
            vec![-1, -5],
            vec![-3, -5],
            vec![-2, -4],
            vec![-2, -6],
            vec![-4, -6],
        ]);
        // hand-built RUP refutation for php(2)
        let p = proof(&[vec![-1, -4], vec![-1], vec![-3], vec![5], vec![]]);
        // check each by hand reasoning:
        //   (¬1∨¬4): assume 1,4 → ¬3(4),¬5(5? from ¬1∨¬5 needs 1) …
        let v = verify(&formula, &p);
        assert!(v.is_ok(), "{v:?}");
    }

    #[test]
    fn tautological_proof_clause_is_accepted() {
        let mut p = proof(&[vec![2, -2]]); // tautology: trivially implied
        p.push(Clause::from_dimacs(&[2]));
        p.push(Clause::from_dimacs(&[-2]));
        let v = verify_all(&xor_square(), &p);
        assert!(v.is_ok(), "{v:?}");
    }

    #[test]
    fn proof_clause_over_fresh_variable_extends_engine() {
        // conflict clause mentioning a variable absent from F: weird but
        // legal as long as the check conflicts (x9 ∨ 2 is RUP here: assume
        // ¬x9, ¬2 → clauses (1∨2) → 1 → (−1∨2) conflict).
        let p = proof(&[vec![9, 2], vec![2], vec![-2]]);
        let v = verify_all(&xor_square(), &p);
        assert!(v.is_ok(), "{v:?}");
    }

    #[test]
    fn proof_clauses_unit_under_root_assignments_propagate() {
        // Regression found by the deep soak: F's unit (5) is propagated
        // into the persistent root level; the proof's binary clauses
        // (¬6∨¬5) and (6∨¬5) are attached *afterwards* and are unit
        // under that root assignment — they must still participate in
        // the check of (¬5). (Duplicated literals in F exercise the
        // degenerate watched pairs as well.)
        let formula = f(&[vec![-6, -6, -5], vec![6, 6, -5], vec![5]]);
        let p = proof(&[vec![-6, -5], vec![6, -5], vec![-5], vec![]]);
        let v = verify_all(&formula, &p);
        assert!(v.is_ok(), "{v:?}");
        let v = verify(&formula, &p);
        assert!(v.is_ok(), "{v:?}");
        use crate::checker::CheckMode;
        let v = Checker::new(&formula, &p).run(CheckMode::AllForward);
        assert!(v.is_ok(), "{v:?}");
    }

    #[test]
    fn harnessed_unlimited_matches_plain_verify() {
        use crate::harness::{verify_harnessed, Harness};
        let p = proof(&[vec![2], vec![-2]]);
        let plain = verify(&xor_square(), &p).expect("valid");
        let outcome = verify_harnessed(
            &xor_square(),
            &p,
            CheckMode::MarkedOnly,
            &Harness::default(),
        );
        let v = outcome.verified().expect("verified");
        assert!(v.report.semantically_eq(&plain.report));
        assert_eq!(v.core.indices(), plain.core.indices());
        assert_eq!(v.marked_steps, plain.marked_steps);
    }

    #[test]
    fn harnessed_rejection_carries_the_step() {
        use crate::harness::{verify_harnessed, Harness, Outcome};
        let p = proof(&[vec![3], vec![2], vec![-2]]);
        match verify_harnessed(&xor_square(), &p, CheckMode::All, &Harness::default()) {
            Outcome::Rejected { step, error } => {
                assert_eq!(step, Some(0));
                assert_eq!(error.step(), Some(0));
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        let sat = proof(&[vec![1, 2]]);
        match verify_harnessed(&xor_square(), &sat, CheckMode::All, &Harness::default()) {
            Outcome::Rejected { step: None, error } => {
                assert_eq!(error, VerifyError::NotARefutation);
            }
            other => panic!("expected NotARefutation, got {other:?}"),
        }
    }

    #[test]
    fn tiny_budget_exhausts_and_never_reaches_a_verdict() {
        use crate::harness::{
            verify_harnessed, Budget, ExhaustReason, Harness, Outcome,
        };
        // valid proof AND a bogus proof: both must report Exhausted under
        // a starved budget — never Verified, never Rejected
        for clauses in [vec![vec![2], vec![-2]], vec![vec![3], vec![-3]]] {
            let p = proof(&clauses);
            let harness =
                Harness::with_budget(Budget::unlimited().max_propagations(0));
            match verify_harnessed(&xor_square(), &p, CheckMode::All, &harness) {
                Outcome::Exhausted { reason, progress, checkpoint } => {
                    assert_eq!(reason, ExhaustReason::Propagations);
                    assert_eq!(progress.steps_checked, 0);
                    assert!(checkpoint.is_some());
                }
                other => panic!("starved budget must exhaust, got {other:?}"),
            }
        }
    }

    #[test]
    fn cancellation_exhausts_immediately() {
        use crate::harness::{
            verify_harnessed, ExhaustReason, Harness, Outcome,
        };
        let p = proof(&[vec![2], vec![-2]]);
        let harness = Harness::default();
        harness.cancel.cancel();
        match verify_harnessed(&xor_square(), &p, CheckMode::MarkedOnly, &harness) {
            Outcome::Exhausted { reason, .. } => {
                assert_eq!(reason, ExhaustReason::Cancelled);
            }
            other => panic!("cancelled run must exhaust, got {other:?}"),
        }
    }

    #[test]
    fn memory_cap_exhausts_without_checkpoint() {
        use crate::harness::{
            verify_harnessed, Budget, ExhaustReason, Harness, Outcome,
        };
        let p = proof(&[vec![2], vec![-2]]);
        let harness =
            Harness::with_budget(Budget::unlimited().max_arena_bytes(1));
        match verify_harnessed(&xor_square(), &p, CheckMode::MarkedOnly, &harness) {
            Outcome::Exhausted { reason, checkpoint, .. } => {
                assert_eq!(reason, ExhaustReason::Memory);
                assert!(checkpoint.is_none(), "nothing to resume from");
            }
            other => panic!("expected memory exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_resume_reaches_the_uninterrupted_report() {
        use crate::harness::{
            resume_verification, verify_harnessed, Budget, Harness, Outcome,
        };
        // php(2) gives the checker enough work to interrupt mid-run
        let formula = f(&[
            vec![1, 2],
            vec![3, 4],
            vec![5, 6],
            vec![-1, -3],
            vec![-1, -5],
            vec![-3, -5],
            vec![-2, -4],
            vec![-2, -6],
            vec![-4, -6],
        ]);
        let p = proof(&[vec![-1, -4], vec![-1], vec![-3], vec![5], vec![]]);
        for mode in [CheckMode::All, CheckMode::MarkedOnly, CheckMode::AllForward] {
            let uninterrupted =
                verify_harnessed(&formula, &p, mode, &Harness::default());
            let expected = uninterrupted.verified().expect("valid proof");
            // walk the budget up from zero: every interruption point must
            // resume to the same semantic report
            let mut resumed_runs = 0usize;
            for cap in 0..200 {
                let harness = Harness::with_budget(
                    Budget::unlimited().max_propagations(cap),
                );
                let ckpt = match verify_harnessed(&formula, &p, mode, &harness) {
                    Outcome::Exhausted { checkpoint, .. } => {
                        checkpoint.expect("budget stop is resumable")
                    }
                    Outcome::Verified(v) => {
                        assert!(
                            v.report.semantically_eq(&expected.report),
                            "cap {cap} verified with a different report"
                        );
                        break; // caps beyond this finish too
                    }
                    other => panic!("cap {cap}: unexpected {other:?}"),
                };
                let resumed = resume_verification(
                    &formula,
                    &p,
                    &ckpt,
                    &Harness::default(),
                )
                .expect("checkpoint matches inputs");
                let v = resumed.verified().unwrap_or_else(|| {
                    panic!("cap {cap}: resume must verify")
                });
                assert!(
                    v.report.semantically_eq(&expected.report),
                    "cap {cap} ({mode:?}): resumed {:?} != {:?}",
                    v.report,
                    expected.report
                );
                assert_eq!(v.core.indices(), expected.core.indices(), "cap {cap}");
                assert_eq!(v.marked_steps, expected.marked_steps, "cap {cap}");
                resumed_runs += 1;
            }
            assert!(resumed_runs > 3, "budget walk exercised resumption ({mode:?})");
        }
    }

    #[test]
    fn resume_rejects_mismatched_inputs() {
        use crate::harness::{
            resume_verification, verify_harnessed, Budget, CheckpointError,
            Harness, Outcome,
        };
        let p = proof(&[vec![2], vec![-2]]);
        let harness =
            Harness::with_budget(Budget::unlimited().max_propagations(1));
        let ckpt = match verify_harnessed(&xor_square(), &p, CheckMode::All, &harness)
        {
            Outcome::Exhausted { checkpoint, .. } => checkpoint.expect("ckpt"),
            other => panic!("expected exhaustion, got {other:?}"),
        };
        // different formula, same clause count
        let other = f(&[vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, -2]]);
        assert_eq!(
            resume_verification(&other, &p, &ckpt, &Harness::default())
                .expect_err("mismatch"),
            CheckpointError::Mismatch("formula fingerprint")
        );
        // different proof length
        let longer = proof(&[vec![2], vec![-2], vec![]]);
        assert_eq!(
            resume_verification(&xor_square(), &longer, &ckpt, &Harness::default())
                .expect_err("mismatch"),
            CheckpointError::Mismatch("proof clause count")
        );
    }

    #[test]
    fn report_counts_are_consistent() {
        let p = proof(&[vec![2], vec![-2]]);
        let v = verify(&xor_square(), &p).expect("valid");
        assert_eq!(v.report.num_conflict_clauses, 2);
        assert_eq!(v.report.num_original, 4);
        assert_eq!(v.report.proof_literals, 2);
        assert_eq!(v.report.core_size, v.core.len());
        assert!(v.report.tested_fraction() > 0.99);
    }
}
