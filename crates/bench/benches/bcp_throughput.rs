//! BCP engine comparison: the two-watched-literal scheme against the
//! counting baseline, on formulas with long clauses (the §6 observation:
//! watched literals are especially effective on conflict-clause proofs,
//! which contain many long clauses), with SATO's head-tail lists as the
//! historical middle step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use satverify::bcp::{
    Attach, ClauseDb, CountingPropagator, HeadTailPropagator, WatchedPropagator,
};
use satverify::cnf::{CnfFormula, Lit, Var};
use satverify::cnfgen::random_ksat;

/// Builds a mixed workload: a random 3-SAT skeleton plus long clauses
/// mimicking a conflict-clause proof suffix.
fn workload(num_vars: usize) -> CnfFormula {
    let mut f = random_ksat(3, num_vars, num_vars * 3, 99);
    // long clauses over spread-out variables
    for start in 0..(num_vars / 20) {
        let lits: Vec<i32> = (0..20)
            .map(|j| {
                let v = (start * 17 + j * 13) % num_vars + 1;
                if j % 2 == 0 {
                    v as i32
                } else {
                    -(v as i32)
                }
            })
            .collect();
        f.add_dimacs_clause(&lits);
    }
    f
}

/// A fixed decision schedule touching many variables.
fn decisions(num_vars: usize) -> Vec<Lit> {
    (0..num_vars / 4)
        .map(|i| {
            let v = Var::new(((i * 7) % num_vars) as u32);
            v.lit(i % 3 == 0)
        })
        .collect()
}

fn bench_watched(f: &CnfFormula, schedule: &[Lit]) -> u64 {
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

fn bench_counting(f: &CnfFormula, schedule: &[Lit]) -> u64 {
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

fn bench_head_tail(f: &CnfFormula, schedule: &[Lit]) -> u64 {
    let db = ClauseDb::from_formula(f);
    let mut p = HeadTailPropagator::new(f.num_vars());
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

fn bcp_benchmarks(c: &mut Criterion) {
    let mut group = c.benchmark_group("bcp");
    for num_vars in [500usize, 2000] {
        let f = workload(num_vars);
        let schedule = decisions(num_vars);
        group.bench_with_input(
            BenchmarkId::new("watched", num_vars),
            &num_vars,
            |b, _| b.iter(|| bench_watched(&f, &schedule)),
        );
        group.bench_with_input(
            BenchmarkId::new("head_tail", num_vars),
            &num_vars,
            |b, _| b.iter(|| bench_head_tail(&f, &schedule)),
        );
        group.bench_with_input(
            BenchmarkId::new("counting", num_vars),
            &num_vars,
            |b, _| b.iter(|| bench_counting(&f, &schedule)),
        );
    }
    group.finish();
}

criterion_group!(benches, bcp_benchmarks);
criterion_main!(benches);
