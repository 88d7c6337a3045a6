//! The known-answer oracle for the verified class: every (formula,
//! proof) pair a job expects to verify must come with an LRAT
//! certificate that the small strict checker (`check_lrat`) replays.
//!
//! Solver proofs get their certificate from the in-memory backward
//! pass; the chain proof's certificate is built here from the chain's
//! known shape, because the in-memory pass is quadratic on it.

use std::path::Path;

use crate::field;
use satverify::cnf::{parse_dimacs_str, Clause, CnfFormula};
use satverify::obs::json::Json;
use satverify::proofver::{
    check_lrat, decode_proof, parse_drat, parse_proof_str, verify_drat_backward_harnessed,
    DratOutcome, DratProof, Harness, LratAdd, LratLine, LratProof, PropagatorChoice, MAGIC,
};

/// Replays a certificate for every oracle entry of `manifest`.
pub fn run(dir: &Path, manifest: &Json) -> Result<usize, String> {
    let entries = manifest
        .get("oracle")
        .and_then(Json::as_array)
        .ok_or("manifest has no oracle list")?;
    for entry in entries {
        let (cnf, proof) = (field(entry, "cnf"), field(entry, "proof"));
        let read = |name: &str| {
            std::fs::read(dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"))
        };
        let text = String::from_utf8(read(cnf)?).map_err(|e| format!("{cnf}: {e}"))?;
        let formula = parse_dimacs_str(&text).map_err(|e| format!("{cnf}: {e}"))?;
        let lrat = match field(entry, "format") {
            "chain" => {
                let links = entry.get("links").and_then(Json::as_int).unwrap_or(0);
                chain_certificate(&formula, usize::try_from(links).unwrap_or(0))
            }
            "native" => {
                let bytes = read(proof)?;
                let native = if bytes.starts_with(&MAGIC) {
                    decode_proof(bytes.as_slice()).map_err(|e| format!("{proof}: {e}"))?
                } else {
                    let text = std::str::from_utf8(&bytes).map_err(|e| format!("{proof}: {e}"))?;
                    parse_proof_str(text).map_err(|e| format!("{proof}: {e}"))?
                };
                backward_certificate(&formula, &DratProof::from(&native), proof)?
            }
            _ => {
                let drat = parse_drat(&read(proof)?).map_err(|e| format!("{proof}: {e}"))?;
                backward_certificate(&formula, &drat, proof)?
            }
        };
        check_lrat(&formula, &lrat)
            .map_err(|e| format!("oracle: check_lrat refused {cnf} + {proof}: {e}"))?;
    }
    Ok(entries.len())
}

fn backward_certificate(
    formula: &CnfFormula,
    proof: &DratProof,
    name: &str,
) -> Result<LratProof, String> {
    match verify_drat_backward_harnessed(
        formula,
        proof,
        &Harness::default(),
        PropagatorChoice::Watched,
    ) {
        DratOutcome::Verified(v) => Ok(v.lrat),
        other => Err(format!("oracle: no certificate for {name}: {other:?}")),
    }
}

/// The LRAT certificate of `chain_workload(links)` over the XOR square
/// (clause ids 1-4: `1 2`, `-1 -2`, `1 -2`, `-1 2`). Each link adds a
/// blocked bridge `w -prev` (no hints: nothing holds `-w`), derives the
/// unit `w` from the bridge and the previous unit, then deletes the
/// bridge and the previous unit; the tail closes on `x2`.
fn chain_certificate(formula: &CnfFormula, links: usize) -> LratProof {
    const REUSE: u64 = 8;
    let mut lines = Vec::new();
    let mut next_id = formula.num_clauses() as u64 + 1;
    let mut add = |lines: &mut Vec<LratLine>, lits: &[i32], hints: Vec<i64>| {
        let id = next_id;
        next_id += 1;
        lines.push(LratLine::Add(LratAdd {
            id,
            clause: Clause::from_dimacs(lits),
            hints,
        }));
        id
    };
    let mut prev = 2i32;
    let mut prev_unit: Option<u64> = None;
    for i in 1..=links as u64 {
        let w = (3 + (i - 1) % REUSE) as i32;
        let bridge = add(&mut lines, &[w, -prev], Vec::new());
        // ¬w makes the bridge assert ¬prev, which the previous unit (or,
        // for x2, clauses 1 and 4) contradicts
        let hints = match prev_unit {
            Some(u) => vec![bridge as i64, u as i64],
            None => vec![bridge as i64, 1, 4],
        };
        let unit = add(&mut lines, &[w], hints);
        lines.push(LratLine::Delete {
            id: unit,
            ids: vec![bridge],
        });
        if let Some(u) = prev_unit {
            lines.push(LratLine::Delete {
                id: unit,
                ids: vec![u],
            });
        }
        prev = w;
        prev_unit = Some(unit);
    }
    let pos = add(&mut lines, &[-prev, 2], vec![1, 4]);
    let neg = add(&mut lines, &[-prev, -2], vec![2, 3]);
    let last = prev_unit.expect("the chain has at least one link");
    add(&mut lines, &[], vec![last as i64, pos as i64, neg as i64]);
    LratProof::new(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use satverify::proofver::chain_workload;

    #[test]
    fn chain_certificates_replay_and_mirror_the_proof() {
        for links in [1, 2, 8, 9, 100, 1000] {
            let (formula, proof) = chain_workload(links);
            let lrat = chain_certificate(&formula, links);
            check_lrat(&formula, &lrat)
                .unwrap_or_else(|e| panic!("{links} links: check_lrat refused: {e}"));
            assert_eq!(lrat.num_adds(), proof.num_adds(), "{links} links");
            assert_eq!(lrat.num_deletes(), proof.num_deletes(), "{links} links");
        }
    }
}
