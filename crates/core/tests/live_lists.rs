//! The backward kernel's per-check work follows the live clause set.
//!
//! `chain_workload` keeps about two unit clauses live while the proof
//! grows, so a check must scan a bounded number of unit, empty-clause
//! and occurrence-list entries however long the chain is. Counted with
//! the `proofver.list_entries` metric; this file holds one test so the
//! process-wide registry sees only its run.

use proofver::{chain_workload, verify_drat_backward};

#[test]
fn chain_checks_scan_a_bounded_number_of_list_entries() {
    obs::metrics::set_recording(true);
    let (formula, proof) = chain_workload(2000);
    let verification = verify_drat_backward(&formula, &proof).expect("the chain verifies");
    assert!(verification.num_checked >= 2000);
    let metrics = obs::metrics::registry_snapshot();
    let checks = metrics.counter("proofver.checks").expect("checks recorded");
    let scanned = metrics
        .counter("proofver.list_entries")
        .expect("list entries recorded");
    assert!(checks >= 2000, "{checks} checks");
    assert!(
        scanned <= 8 * checks,
        "{scanned} list entries scanned over {checks} checks"
    );
}
