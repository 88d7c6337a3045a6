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
//!
//! The per-check lists (units, empty clauses, RAT occurrences) hold no
//! deleted clause for long: the scan that meets one drops it, and
//! [`Kernel::revive`] puts it back at its store-order position. A check
//! therefore costs the live set plus the entries retired since the
//! last scan, not every clause the proof ever added. Entries dead only
//! by the horizon stay, because the native walk raises it again.

use std::sync::OnceLock;
use std::time::Instant;

use bcp::{
    Attach, BudgetedPropagation, ClauseDb, ClauseRef, Conflict, Fuel, Reason, Stopped,
    WatchedPropagator,
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
    /// Unit, empty-clause and occurrence-list entries the checks scanned.
    list_entries: obs::metrics::Counter,
}

fn obs_handles() -> &'static ObsHandles {
    static HANDLES: OnceLock<ObsHandles> = OnceLock::new();
    HANDLES.get_or_init(|| ObsHandles {
        checks: obs::metrics::counter("proofver.checks"),
        check_ns: obs::metrics::histogram("proofver.check_ns"),
        marking_passes: obs::metrics::counter("proofver.marking_passes"),
        list_entries: obs::metrics::counter("proofver.list_entries"),
    })
}

/// Clause store, engine, and marks of one backward walk.
#[derive(Debug)]
pub(crate) struct Kernel {
    pub(crate) db: ClauseDb,
    pub(crate) prop: WatchedPropagator,
    /// Unit clauses (they cannot be watched; each check enqueues the
    /// live ones explicitly).
    pub(crate) units: Vec<(ClauseRef, Lit)>,
    /// Empty clauses: an immediate conflict whenever one is live.
    pub(crate) empties: Vec<ClauseRef>,
    /// Marked clauses, indexed by store position.
    pub(crate) marked: Vec<bool>,
    /// Occurrence lists of the attached clauses; only kept under
    /// [`Policy::Rat`].
    occ: Vec<Vec<ClauseRef>>,
    policy: Policy,
    /// Scratch: variables touched by the current marking pass.
    seen: Vec<bool>,
    /// Clauses at or past this store index are inactive.
    horizon: usize,
}

impl Kernel {
    pub(crate) fn new(num_vars: usize, policy: Policy) -> Self {
        Kernel {
            db: ClauseDb::new(),
            prop: WatchedPropagator::new(num_vars),
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
    /// The clause's unit, empty or occurrence entries go back at their
    /// store-order positions, unless no scan has dropped them yet. Only
    /// the deletion-aware walks revive, and they attach in store order.
    pub(crate) fn revive(&mut self, r: ClauseRef) {
        self.db.undelete_clause(r);
        match self.prop.attach_clause(&mut self.db, r) {
            Attach::Watched => {}
            Attach::Unit(l) => restore(&mut self.units, (r, l), |&(u, _)| u),
            Attach::Empty => restore(&mut self.empties, r, |&e| e),
        }
        if self.policy == Policy::Rat {
            // decide every list before inserting, so a repeated literal
            // gets back each of its entries
            let lits = self.db.lits(r);
            let dropped: Vec<bool> = lits
                .iter()
                .map(|l| self.occ[l.idx()].binary_search(&r).is_err())
                .collect();
            for (&l, dropped) in lits.iter().zip(dropped) {
                if dropped {
                    let list = &mut self.occ[l.idx()];
                    list.insert(list.partition_point(|&o| o < r), r);
                }
            }
        }
    }

    /// Moves the activity horizon: only clauses below `limit` take part
    /// in checks from now on.
    pub(crate) fn set_horizon(&mut self, limit: usize) {
        self.horizon = limit;
        self.db.set_active_limit(Some(limit));
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
        let mut empty = None;
        shed(
            &mut self.empties,
            &self.db,
            self.horizon,
            |&e| e,
            |&e| {
                empty.get_or_insert(e);
            },
        );
        if let Some(r) = empty {
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
        // enqueue the live units up to the first conflict
        let prop = &mut self.prop;
        let mut conflict = None;
        shed(
            &mut self.units,
            &self.db,
            self.horizon,
            |&(u, _)| u,
            |&(u, l)| {
                if conflict.is_none() {
                    conflict = prop.enqueue_propagated(l, u).err();
                }
            },
        );
        if let Some(conflict) = conflict {
            return Check::Conflict(conflict);
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
        let mut candidates = Vec::new();
        let occ = &mut self.occ[not_pivot.idx()];
        shed(occ, &self.db, self.horizon, |&o| o, |&o| candidates.push(o));
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

/// One scan of a per-check list: drops the entries of deleted clauses
/// in place and hands every entry below the horizon to `live`, in list
/// order. Entries above the horizon stay for a later, wider check.
fn shed<T>(
    list: &mut Vec<T>,
    db: &ClauseDb,
    horizon: usize,
    clause: impl Fn(&T) -> ClauseRef,
    mut live: impl FnMut(&T),
) {
    if obs::metrics::recording() {
        obs_handles().list_entries.add(list.len() as u64);
    }
    list.retain(|entry| {
        let r = clause(entry);
        if db.is_deleted(r) {
            return false;
        }
        if r.index() < horizon {
            live(entry);
        }
        true
    });
}

/// Puts a revived clause's entry back into a list kept in store order,
/// unless no scan has dropped it yet.
fn restore<T>(list: &mut Vec<T>, entry: T, clause: impl Fn(&T) -> ClauseRef) {
    let r = clause(&entry);
    let at = list.partition_point(|e| clause(e) < r);
    if list.get(at).is_none_or(|e| clause(e) != r) {
        list.insert(at, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(dimacs: &[i32]) -> Vec<Lit> {
        dimacs.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }

    /// Loads and attaches clauses in store order, as the deletion-aware
    /// walks do.
    fn kernel(clauses: &[&[i32]]) -> (Kernel, Vec<ClauseRef>) {
        let mut kernel = Kernel::new(8, Policy::Rat);
        let refs = clauses
            .iter()
            .map(|c| {
                let r = kernel.add(&lits(c), true);
                kernel.attach(r);
                r
            })
            .collect();
        (kernel, refs)
    }

    /// Runs one check (RUP, then RAT on the first literal), which scans
    /// the unit, empty and `occ[¬first]` lists.
    fn scan(kernel: &mut Kernel, clause: &[i32]) {
        let mut stats = DratStats::default();
        let _ = kernel.check_lemma(&lits(clause), &mut Fuel::unlimited(), &mut stats, None);
    }

    #[test]
    fn scans_drop_retired_entries_and_revive_restores_store_order() {
        let (mut k, r) = kernel(&[&[1], &[2], &[], &[3], &[-5, 1], &[-5, 2], &[-5, 3]]);
        for &i in &[0, 2, 4, 5] {
            k.retire(r[i]);
        }
        scan(&mut k, &[5]);
        assert_eq!(k.units, vec![(r[1], lits(&[2])[0]), (r[3], lits(&[3])[0])]);
        assert!(k.empties.is_empty());
        assert_eq!(k.occ[lits(&[-5])[0].idx()], vec![r[6]]);
        // revived out of store order, they return to their positions
        for &i in &[5, 2, 0, 4] {
            k.revive(r[i]);
        }
        let units: Vec<ClauseRef> = k.units.iter().map(|&(u, _)| u).collect();
        assert_eq!(units, vec![r[0], r[1], r[3]]);
        assert_eq!(k.empties, vec![r[2]]);
        assert_eq!(k.occ[lits(&[-5])[0].idx()], vec![r[4], r[5], r[6]]);
    }

    #[test]
    fn revive_before_any_scan_adds_no_duplicates() {
        let (mut k, r) = kernel(&[&[1], &[-5, 1, -5], &[-5, 2]]);
        k.retire(r[0]);
        k.retire(r[1]);
        k.revive(r[1]);
        k.revive(r[0]);
        assert_eq!(k.units, vec![(r[0], lits(&[1])[0])]);
        // a repeated literal keeps one entry per occurrence
        assert_eq!(k.occ[lits(&[-5])[0].idx()], vec![r[1], r[1], r[2]]);
        k.retire(r[1]);
        scan(&mut k, &[5]);
        assert_eq!(k.occ[lits(&[-5])[0].idx()], vec![r[2]]);
        k.revive(r[1]);
        assert_eq!(k.occ[lits(&[-5])[0].idx()], vec![r[1], r[1], r[2]]);
    }
}
