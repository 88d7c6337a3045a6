//! Differential tests: the watched-literal engine derives the same
//! forced assignments as the counting oracle (and the head-tail
//! ablation) and agrees on whether a conflict exists — on random
//! formulas and decision sequences, on the pigeonhole,
//! mutilated-chessboard and random 3-SAT families, and across clause
//! deletions.

use bcp::{
    Attach, BudgetedPropagation, ClauseDb, ClauseRef, Conflict, CountingPropagator, Fuel,
    HeadTailPropagator, WatchedPropagator,
};
use cnf::{CnfFormula, Lit, Var};
use cnfgen::{mutilated_chessboard, pigeonhole, random_ksat};
use proptest::prelude::*;

fn dimacs_lit(n: i32) -> impl Strategy<Value = i32> {
    (1..=n).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)])
}

fn formula_strategy(max_var: i32) -> impl Strategy<Value = CnfFormula> {
    prop::collection::vec(prop::collection::vec(dimacs_lit(max_var), 1..=4), 1..30)
        .prop_map(move |cs| {
            let mut f = CnfFormula::from_dimacs_clauses(&cs);
            // decisions range over all of 1..=max_var — declare them all
            f.ensure_var(Var::new(max_var as u32 - 1));
            f
        })
}

fn setup_watched(f: &CnfFormula) -> Option<(ClauseDb, WatchedPropagator)> {
    let mut db = ClauseDb::from_formula(f);
    let mut p = WatchedPropagator::new(f.num_vars());
    let refs: Vec<_> = db.refs().collect();
    for r in refs {
        match p.attach_clause(&mut db, r) {
            Attach::Watched => {}
            Attach::Unit(l) => {
                if p.enqueue_propagated(l, r).is_err() {
                    return None; // conflicting root units: skip case
                }
            }
            Attach::Empty => return None,
        }
    }
    Some((db, p))
}

fn setup_head_tail(f: &CnfFormula) -> Option<(ClauseDb, HeadTailPropagator)> {
    let db = ClauseDb::from_formula(f);
    let mut p = HeadTailPropagator::new(f.num_vars());
    p.attach_all(&db);
    for r in db.refs() {
        if db.clause_len(r) == 1 && p.enqueue_unit(db.lits(r)[0], r).is_err() {
            return None;
        }
    }
    Some((db, p))
}

fn setup_counting(f: &CnfFormula) -> Option<(ClauseDb, CountingPropagator)> {
    let db = ClauseDb::from_formula(f);
    let mut p = CountingPropagator::new(f.num_vars());
    p.attach_all(&db);
    for r in db.refs() {
        let conflicts = match db.clause_len(r) {
            0 => true, // as `setup_watched` does for `Attach::Empty`
            1 => p.enqueue_unit(db.lits(r)[0], r).is_err(),
            _ => false,
        };
        if conflicts {
            return None;
        }
    }
    Some((db, p))
}

/// Drives both engines through the same decision schedule, asserting
/// conflict parity and identical assignments after every propagation.
/// A conflict backtracks both engines one level and the schedule goes on;
/// the partial assignments at a conflict depend on propagation order, so
/// they are compared only after the backtrack.
fn drive_pair(
    db_w: &mut ClauseDb,
    w: &mut WatchedPropagator,
    db_c: &ClauseDb,
    c: &mut CountingPropagator,
    schedule: &[Lit],
) {
    for &lit in schedule {
        if !w.assignment().is_unassigned(lit) {
            continue;
        }
        w.decide(lit);
        c.decide(lit);
        let cw = w.propagate(db_w);
        let cc = c.propagate(db_c);
        assert_eq!(cw.is_some(), cc.is_some(), "conflict parity after {lit}");
        if cw.is_some() {
            let lvl = w.decision_level() - 1;
            w.backtrack_to(lvl);
            c.backtrack_to(lvl);
        }
        for v in 0..w.assignment().num_vars() {
            let l = Var::new(v as u32).positive();
            assert_eq!(w.value(l), c.value(l), "disagree on {l} after {lit}");
        }
    }
}

/// A fixed but var-count-aware decision schedule for the named families.
fn family_schedule(num_vars: usize) -> Vec<Lit> {
    (0..num_vars)
        .map(|i| {
            let v = Var::new(((i * 7) % num_vars) as u32);
            v.lit(i % 3 == 0)
        })
        .collect()
}

/// Runs the full differential harness (root propagation + schedule) on
/// one formula.
fn check_family(f: &CnfFormula) {
    let (sw, sc) = (setup_watched(f), setup_counting(f));
    // Degenerate at the root (conflicting units): both engines must
    // agree that setup itself fails.
    assert_eq!(sw.is_some(), sc.is_some(), "root setup parity");
    let (Some((mut db_w, mut w)), Some((db_c, mut c))) = (sw, sc) else {
        return;
    };
    let cw = w.propagate(&mut db_w);
    let cc = c.propagate(&db_c);
    assert_eq!(cw.is_some(), cc.is_some(), "root conflict parity");
    if cw.is_some() {
        return;
    }
    drive_pair(&mut db_w, &mut w, &db_c, &mut c, &family_schedule(f.num_vars()));
}

/// Propagates with unlimited fuel; a budgeted run can then only end in a
/// conflict or a fixpoint.
fn propagate_with_ample_fuel(
    p: &mut WatchedPropagator,
    db: &mut ClauseDb,
    fuel: &mut Fuel<'_>,
) -> Option<Conflict> {
    match p.propagate_budgeted(db, fuel) {
        BudgetedPropagation::Conflict(c) => Some(c),
        BudgetedPropagation::Fixpoint => None,
        BudgetedPropagation::Interrupted(_) => unreachable!("unlimited fuel"),
    }
}

#[test]
fn pigeonhole_family_agrees() {
    for holes in 2..=6 {
        check_family(&pigeonhole(holes));
    }
}

#[test]
fn chessboard_family_agrees() {
    for n in [2, 4, 6] {
        check_family(&mutilated_chessboard(n));
    }
}

#[test]
fn random_ksat_family_agrees() {
    for seed in 0..8 {
        check_family(&random_ksat(3, 50, 180, seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engines_agree(
        f in formula_strategy(8),
        decisions in prop::collection::vec(dimacs_lit(8), 1..8),
    ) {
        let (Some((mut db_w, mut w)), Some((db_c, mut c)), Some((db_h, mut h))) =
            (setup_watched(&f), setup_counting(&f), setup_head_tail(&f))
        else {
            return Ok(()); // degenerate root conflict; nothing to compare
        };
        let cw0 = w.propagate(&mut db_w);
        let cc0 = c.propagate(&db_c);
        let ch0 = h.propagate(&db_h);
        prop_assert_eq!(cw0.is_some(), cc0.is_some(), "root conflict parity (counting)");
        prop_assert_eq!(cw0.is_some(), ch0.is_some(), "root conflict parity (head-tail)");
        if cw0.is_some() {
            return Ok(());
        }
        for d in decisions {
            let lit = Lit::from_dimacs(d);
            if !w.assignment().is_unassigned(lit) {
                continue;
            }
            w.decide(lit);
            c.decide(lit);
            h.decide(lit);
            let cw = w.propagate(&mut db_w);
            let cc = c.propagate(&db_c);
            let ch = h.propagate(&db_h);
            prop_assert_eq!(cw.is_some(), cc.is_some(),
                "counting conflict parity after {}", d);
            prop_assert_eq!(cw.is_some(), ch.is_some(),
                "head-tail conflict parity after {}", d);
            if cw.is_some() {
                break;
            }
            for v in 0..f.num_vars() {
                let l = Var::new(v as u32).positive();
                prop_assert_eq!(w.value(l), c.value(l), "counting disagrees on {}", l);
                prop_assert_eq!(w.value(l), h.value(l), "head-tail disagrees on {}", l);
            }
        }
    }

    #[test]
    fn head_tail_backtracking_agrees_with_watched(
        f in formula_strategy(8),
        decisions in prop::collection::vec(dimacs_lit(8), 2..8),
        backtrack_after in 1usize..4,
    ) {
        // interleave decisions with backtracks to stress cursor undo
        let (Some((mut db_w, mut w)), Some((db_h, mut h))) =
            (setup_watched(&f), setup_head_tail(&f))
        else {
            return Ok(());
        };
        if w.propagate(&mut db_w).is_some() {
            return Ok(());
        }
        let _ = h.propagate(&db_h);
        let mut steps = 0usize;
        for d in decisions {
            let lit = Lit::from_dimacs(d);
            if !w.assignment().is_unassigned(lit) {
                continue;
            }
            w.decide(lit);
            h.decide(lit);
            let cw = w.propagate(&mut db_w);
            let ch = h.propagate(&db_h);
            prop_assert_eq!(cw.is_some(), ch.is_some(), "parity after {}", d);
            steps += 1;
            if cw.is_some() || steps.is_multiple_of(backtrack_after) {
                let target = w.decision_level().saturating_sub(1);
                w.backtrack_to(target);
                h.backtrack_to(target);
            }
            for v in 0..f.num_vars() {
                let l = Var::new(v as u32).positive();
                prop_assert_eq!(w.value(l), h.value(l), "post-undo disagree on {}", l);
            }
        }
    }

    #[test]
    fn propagation_is_sound(
        f in formula_strategy(8),
        decisions in prop::collection::vec(dimacs_lit(8), 1..6),
    ) {
        // Every literal forced by BCP is implied by the formula plus the
        // decisions: flipping it must falsify some clause under the trail.
        let Some((mut db, mut p)) = setup_watched(&f) else { return Ok(()); };
        if p.propagate(&mut db).is_some() {
            return Ok(());
        }
        let mut decided: Vec<Lit> = Vec::new();
        for d in decisions {
            let lit = Lit::from_dimacs(d);
            if !p.assignment().is_unassigned(lit) {
                continue;
            }
            decided.push(lit);
            p.decide(lit);
            if p.propagate(&mut db).is_some() {
                return Ok(());
            }
        }
        // check each propagated literal has a clause where it is the
        // sole non-false literal
        for &l in p.trail() {
            if decided.contains(&l) {
                continue;
            }
            let has_witness = f.iter().any(|clause| {
                clause.contains(l)
                    && clause
                        .lits()
                        .iter()
                        .all(|&x| x == l || p.assignment().is_false(x))
            });
            prop_assert!(has_witness, "forced literal {} lacks a unit witness", l);
        }
    }

    /// Agreement survives clause deletion: the watched engine drops
    /// deleted clauses lazily, the counting oracle skips them, and both
    /// keep propagating identically.
    #[test]
    fn watched_agrees_with_counting_after_deletions(
        f in formula_strategy(8),
        decisions in prop::collection::vec(dimacs_lit(8), 1..8),
        delete_mask in prop::collection::vec(any::<bool>(), 29),
    ) {
        let (Some((mut db_w, mut w)), Some((mut db_c, mut c))) =
            (setup_watched(&f), setup_counting(&f))
        else {
            return Ok(());
        };
        let cw = w.propagate(&mut db_w);
        prop_assert_eq!(cw.is_some(), c.propagate(&db_c).is_some(), "root conflict parity");
        if cw.is_some() {
            return Ok(());
        }
        for (i, &kill) in delete_mask.iter().enumerate() {
            if kill && i < db_w.len() {
                let r = ClauseRef::from_index(i);
                db_w.delete_clause(r);
                db_c.delete_clause(r);
            }
        }
        drive_pair(
            &mut db_w, &mut w, &db_c, &mut c,
            &decisions.iter().map(|&d| Lit::from_dimacs(d)).collect::<Vec<_>>(),
        );
    }

    /// Budgeted propagation with ample fuel reaches the same conflicts
    /// and the same assignments as plain propagation.
    #[test]
    fn budgeted_matches_unbudgeted(
        f in formula_strategy(8),
        decisions in prop::collection::vec(dimacs_lit(8), 1..6),
    ) {
        let (Some((mut db_a, mut a)), Some((mut db_b, mut b))) =
            (setup_watched(&f), setup_watched(&f))
        else {
            return Ok(());
        };
        let mut fuel = Fuel::unlimited();
        let ca = a.propagate(&mut db_a);
        let cb = propagate_with_ample_fuel(&mut b, &mut db_b, &mut fuel);
        prop_assert_eq!(ca.is_some(), cb.is_some());
        if ca.is_some() {
            return Ok(());
        }
        for d in decisions {
            let lit = Lit::from_dimacs(d);
            if !a.assignment().is_unassigned(lit) {
                continue;
            }
            a.decide(lit);
            b.decide(lit);
            let ca = a.propagate(&mut db_a);
            let cb = propagate_with_ample_fuel(&mut b, &mut db_b, &mut fuel);
            prop_assert_eq!(ca.is_some(), cb.is_some(), "budgeted parity after {}", d);
            if ca.is_some() {
                break;
            }
            for v in 0..f.num_vars() {
                let l = Var::new(v as u32).positive();
                prop_assert_eq!(a.value(l), b.value(l), "budgeted disagrees on {}", l);
            }
        }
    }
}
