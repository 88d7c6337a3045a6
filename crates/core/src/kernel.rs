//! The check-and-mark kernel shared by every backward proof walker.
//!
//! The paper's `Proof_verification2` (§4) is one procedure: check a
//! clause by running BCP under its negation, then run
//! `Conflict_analysis` to mark the clauses the conflict depends on. The
//! native, deletion-aware, DRAT and streaming walkers differ only in
//! where their clauses come from and in the order they cross them, so
//! they all drive this one kernel:
//!
//! * **check** — assume `¬C`, enqueue the live unit clauses, and run a
//!   budgeted propagation ([`Kernel::check`]);
//! * **RAT fallback** — when the policy allows it, try RAT on the
//!   clause's first literal, with candidates from occurrence lists;
//! * **mark** — mark the conflict's cone and, when asked, record it as
//!   replay hints for an LRAT certificate ([`Kernel::mark_cone`]).
//!
//! A clause is *live* when it is not deleted and its store index is
//! below the activity horizon. Deletion-aware walkers leave the horizon
//! open and retire clauses by deletion; the native walker never deletes
//! and moves the horizon instead.

use std::sync::OnceLock;
use std::time::Instant;

use bcp::{
    Attach, BudgetedPropagation, ClauseRef, ClauseStore, Conflict, Fuel, Propagator, Reason,
    Stopped,
};
use cnf::{Lit, Var};

use crate::rat::DratStats;

/// Which redundancy notion a lemma check accepts. The proof format
/// decides it: native and annotated proofs are RUP-only, DRAT adds RAT.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Policy {
    /// Reverse unit propagation only.
    Rup,
    /// RUP, falling back to RAT on the first literal.
    Rat,
}

/// The result of one propagation check.
enum Check {
    /// Propagation conflicted on this clause.
    Conflict(Conflict),
    /// Two assumptions clash: the clause under test is a tautology. (An
    /// assumption falsified by the native root level is a conflict on
    /// that literal's reason clause instead.)
    Vacuous,
    /// Propagation reached a fixpoint without a conflict.
    NoConflict,
    /// The fuel ran out (or the run was cancelled) first.
    Interrupted(Stopped),
}

/// What a lemma check established.
pub(crate) enum Lemma {
    /// RUP (or, under [`Policy::Rat`], RAT) holds; the cone is marked.
    Implied,
    /// Neither holds over the live clauses.
    NotImplied,
    /// The check stopped before a verdict and must be redone.
    Interrupted(Stopped),
}

/// RAT replay hints: one `(candidate, cone)` group per live `¬pivot`
/// clause.
pub(crate) type RatGroups = Vec<(ClauseRef, Vec<ClauseRef>)>;

/// Replay hints recorded for one checked lemma.
#[derive(Clone, Debug)]
pub(crate) enum StepHints {
    /// Never checked (unmarked): no hints.
    Unchecked,
    /// RUP: the unit-propagation cone, in trail order, conflict last.
    Rup(Vec<ClauseRef>),
    /// The clause is tautological: vacuously implied, no hints.
    Tautology,
    /// RAT: the resolution candidates with their cones.
    Rat(RatGroups),
}

/// Registry handles for the kernel's metrics, resolved once and shared
/// by every walker (including parallel workers).
struct ObsHandles {
    checks: obs::metrics::Counter,
    check_ns: obs::metrics::Histogram,
    marking_passes: obs::metrics::Counter,
}

fn obs_handles() -> &'static ObsHandles {
    static HANDLES: OnceLock<ObsHandles> = OnceLock::new();
    HANDLES.get_or_init(|| ObsHandles {
        checks: obs::metrics::counter("proofver.checks"),
        check_ns: obs::metrics::histogram("proofver.check_ns"),
        marking_passes: obs::metrics::counter("proofver.marking_passes"),
    })
}

/// Clause store, engine, and marks of one backward walk.
#[derive(Debug)]
pub(crate) struct Kernel<P: Propagator> {
    pub(crate) db: P::Store,
    pub(crate) prop: P,
    /// Unit clauses (they cannot be watched; each check enqueues the
    /// live ones explicitly).
    pub(crate) units: Vec<(ClauseRef, Lit)>,
    /// Empty clauses: an immediate conflict whenever one is live.
    pub(crate) empties: Vec<ClauseRef>,
    /// Marked clauses, indexed by store position.
    pub(crate) marked: Vec<bool>,
    /// Occurrence lists over every attached clause (liveness is
    /// filtered at use); only kept under [`Policy::Rat`].
    occ: Vec<Vec<ClauseRef>>,
    policy: Policy,
    /// Scratch: variables touched by the current marking pass.
    seen: Vec<bool>,
    /// Clauses at or past this store index are inactive.
    horizon: usize,
}

impl<P: Propagator> Kernel<P> {
    pub(crate) fn new(num_vars: usize, policy: Policy) -> Self {
        Kernel {
            db: P::Store::new(),
            prop: P::new(num_vars),
            units: Vec::new(),
            empties: Vec::new(),
            marked: Vec::new(),
            occ: match policy {
                Policy::Rup => Vec::new(),
                Policy::Rat => vec![Vec::new(); 2 * num_vars],
            },
            policy,
            seen: vec![false; num_vars],
            horizon: usize::MAX,
        }
    }

    /// Grows the kernel to cover `num_vars` variables.
    pub(crate) fn ensure_vars(&mut self, num_vars: usize) {
        self.prop.ensure_vars(num_vars);
        if self.seen.len() < num_vars {
            self.seen.resize(num_vars, false);
        }
        if self.policy == Policy::Rat && self.occ.len() < 2 * num_vars {
            self.occ.resize(2 * num_vars, Vec::new());
        }
    }

    /// Stores a clause (unmarked, not yet attached).
    pub(crate) fn add(&mut self, lits: &[Lit], learned: bool) -> ClauseRef {
        self.marked.push(false);
        self.db.add_clause(lits, learned)
    }

    /// Attaches a stored clause to the engine: watched, or recorded as a
    /// unit or empty clause, and indexed for RAT candidates.
    pub(crate) fn attach(&mut self, r: ClauseRef) {
        match self.prop.attach_clause(&mut self.db, r) {
            Attach::Watched => {}
            Attach::Unit(l) => self.units.push((r, l)),
            Attach::Empty => self.empties.push(r),
        }
        if self.policy == Policy::Rat {
            for &l in self.db.lits(r) {
                self.occ[l.idx()].push(r);
            }
        }
    }

    /// Takes a live clause out of play. Watches are detached eagerly so
    /// a later [`Kernel::revive`] cannot duplicate them.
    pub(crate) fn retire(&mut self, r: ClauseRef) {
        if !self.db.is_deleted(r) {
            self.prop.detach_clause(&self.db, r);
            self.db.delete_clause(r);
        }
    }

    /// Undoes a [`Kernel::retire`]: stepping back across a deletion.
    pub(crate) fn revive(&mut self, r: ClauseRef) {
        self.db.undelete_clause(r);
        if self.db.clause_len(r) >= 2 {
            self.prop.attach_clause(&mut self.db, r);
        }
    }

    /// Moves the activity horizon: only clauses below `limit` take part
    /// in checks from now on.
    pub(crate) fn set_horizon(&mut self, limit: usize) {
        self.horizon = limit;
        self.db.set_active_limit(Some(limit));
    }

    fn is_live(&self, r: ClauseRef) -> bool {
        r.index() < self.horizon && !self.db.is_deleted(r)
    }

    /// One budgeted propagation check over the live clauses: assume the
    /// given literals, enqueue the live units, propagate. Assignments
    /// at decision level 0 (the native root level) persist across
    /// checks; everything above it is undone first.
    fn check(&mut self, assumptions: &[Lit], fuel: &mut Fuel<'_>) -> Check {
        if !obs::metrics::recording() {
            return self.propagate_under(assumptions, fuel);
        }
        let handles = obs_handles();
        let start = Instant::now();
        let outcome = self.propagate_under(assumptions, fuel);
        handles.checks.inc();
        handles.check_ns.record(start.elapsed().as_nanos() as u64);
        outcome
    }

    fn propagate_under(&mut self, assumptions: &[Lit], fuel: &mut Fuel<'_>) -> Check {
        // a live empty clause conflicts before any propagation
        if let Some(&r) = self.empties.iter().find(|&&r| self.is_live(r)) {
            return Check::Conflict(Conflict { clause: r });
        }
        self.prop.backtrack_to(0);
        self.prop.push_level();
        for &l in assumptions {
            if !self.prop.assume(l) {
                // ¬l is already true: by an earlier assumption (the
                // clause under test is a tautology), or by the root
                // level, in which case ¬l's reason clause conflicts
                return match self.prop.reason(l.var()) {
                    Reason::Propagated(r) => Check::Conflict(Conflict { clause: r }),
                    _ => Check::Vacuous,
                };
            }
        }
        for i in 0..self.units.len() {
            let (r, l) = self.units[i];
            if !self.is_live(r) {
                continue;
            }
            if let Err(conflict) = self.prop.enqueue_propagated(l, r) {
                return Check::Conflict(conflict);
            }
        }
        match self.prop.propagate_budgeted(&mut self.db, fuel) {
            BudgetedPropagation::Conflict(c) => Check::Conflict(c),
            BudgetedPropagation::Fixpoint => Check::NoConflict,
            BudgetedPropagation::Interrupted(s) => Check::Interrupted(s),
        }
    }

    /// Checks that `clause` is implied by the live clauses and marks
    /// what the proof of that depends on. With a hint sink, the
    /// justification is recorded there for LRAT emission.
    pub(crate) fn check_lemma(
        &mut self,
        clause: &[Lit],
        fuel: &mut Fuel<'_>,
        stats: &mut DratStats,
        hints: Option<&mut StepHints>,
    ) -> Lemma {
        let negated: Vec<Lit> = clause.iter().map(|&l| !l).collect();
        let recorded = match self.check(&negated, fuel) {
            Check::Conflict(conflict) => {
                stats.num_rup += 1;
                let mut cone = Vec::new();
                self.mark_cone(conflict, hints.is_some().then_some(&mut cone));
                StepHints::Rup(cone)
            }
            Check::Vacuous => {
                stats.num_rup += 1;
                StepHints::Tautology
            }
            Check::NoConflict if self.policy == Policy::Rat => {
                match self.rat(&negated, fuel, stats, hints.is_some()) {
                    Ok(Some(groups)) => {
                        stats.num_rat += 1;
                        StepHints::Rat(groups)
                    }
                    Ok(None) => return Lemma::NotImplied,
                    Err(stopped) => return Lemma::Interrupted(stopped),
                }
            }
            Check::NoConflict => return Lemma::NotImplied,
            Check::Interrupted(stopped) => return Lemma::Interrupted(stopped),
        };
        if let Some(sink) = hints {
            *sink = recorded;
        }
        Lemma::Implied
    }

    /// RAT fallback on the clause's first literal, in the
    /// LRAT-compatible formulation: for every live clause `D ∋ ¬pivot`,
    /// `F ∧ ¬C ∧ ¬(D \ {¬pivot})` must propagate to a conflict. The
    /// *full* `¬C`, pivot included, keeps the hints replayable verbatim
    /// by an LRAT consumer. `negated` is `¬C`; `Ok(None)` means some
    /// resolvent is not RUP.
    fn rat(
        &mut self,
        negated: &[Lit],
        fuel: &mut Fuel<'_>,
        stats: &mut DratStats,
        record: bool,
    ) -> Result<Option<RatGroups>, Stopped> {
        let Some(&not_pivot) = negated.first() else {
            return Ok(None); // no pivot to resolve on
        };
        // collect first: checks mutate watch lists
        let candidates: Vec<ClauseRef> = self.occ[not_pivot.idx()]
            .iter()
            .copied()
            .filter(|&r| self.is_live(r))
            .collect();
        let mut groups = Vec::new();
        for d in candidates {
            stats.num_resolvent_checks += 1;
            let mut assumptions = negated.to_vec();
            assumptions.extend(
                self.db
                    .lits(d)
                    .iter()
                    .filter(|&&l| l != not_pivot)
                    .map(|&l| !l),
            );
            let mut cone = Vec::new();
            match self.check(&assumptions, fuel) {
                Check::Conflict(conflict) => {
                    self.mark_cone(conflict, record.then_some(&mut cone));
                }
                // tautological resolvent: vacuously fine, no hints
                Check::Vacuous => {}
                Check::NoConflict => return Ok(None),
                Check::Interrupted(stopped) => return Err(stopped),
            }
            // the candidate itself is part of the certificate: an LRAT
            // consumer must see it to enumerate the same resolvents
            self.marked[d.index()] = true;
            if record {
                groups.push((d, cone));
            }
        }
        Ok(Some(groups))
    }

    /// The paper's `Conflict_analysis` (§4): marks every clause
    /// responsible for the conflict just found, walking the deduced
    /// assignments backward from the conflicting clause. With a sink,
    /// the cone is also recorded as replay hints: its reason clauses in
    /// *forward* trail order (each is unit when replayed left to right),
    /// then the conflicting clause.
    pub(crate) fn mark_cone(&mut self, conflict: Conflict, hints: Option<&mut Vec<ClauseRef>>) {
        let _span = obs::span!("proofver.mark");
        if obs::metrics::recording() {
            obs_handles().marking_passes.inc();
        }
        self.marked[conflict.clause.index()] = true;
        let mut touched: Vec<Var> = Vec::new();
        for &q in self.db.lits(conflict.clause) {
            if !self.seen[q.var().idx()] {
                self.seen[q.var().idx()] = true;
                touched.push(q.var());
            }
        }
        for idx in (0..self.prop.trail().len()).rev() {
            let lit = self.prop.trail()[idx];
            if !self.seen[lit.var().idx()] {
                continue;
            }
            match self.prop.reason(lit.var()) {
                // assumption literals belong to the clause under test
                Reason::Assumed | Reason::Decision => {}
                Reason::Propagated(c) => {
                    self.marked[c.index()] = true;
                    for &q in self.db.lits(c) {
                        if q != lit && !self.seen[q.var().idx()] {
                            self.seen[q.var().idx()] = true;
                            touched.push(q.var());
                        }
                    }
                }
            }
        }
        if let Some(hints) = hints {
            hints.clear();
            for &lit in self.prop.trail() {
                if !self.seen[lit.var().idx()] {
                    continue;
                }
                if let Reason::Propagated(c) = self.prop.reason(lit.var()) {
                    hints.push(c);
                }
            }
            hints.push(conflict.clause);
        }
        for v in touched {
            self.seen[v.idx()] = false;
        }
    }

    /// Size of the clause store in bytes — what one engine copy costs.
    pub(crate) fn arena_bytes(&self) -> u64 {
        (self.db.arena_len() * std::mem::size_of::<Lit>()) as u64
    }
}
