//! Differential property tests for the DRAT interop layer: encoding
//! round-trips, native-proof conversion agreeing with the native
//! checker, and emitted LRAT re-validating under the strict replayer.

use cnf::CnfFormula;
use proofver::{
    check_lrat, drat_to_string, encode_drat_to_vec, parse_drat, trim_drat,
    verify, verify_drat_backward, ConflictClauseProof, DratProof, DratStep, DratStepKind,
    Harness, PropagatorChoice,
};
use proptest::prelude::*;

fn dimacs_lit(n: i32) -> impl Strategy<Value = i32> {
    (1..=n).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)])
}

fn formula_strategy(max_var: i32) -> impl Strategy<Value = CnfFormula> {
    prop::collection::vec(prop::collection::vec(dimacs_lit(max_var), 1..=3), 1..24)
        .prop_map(|cs| CnfFormula::from_dimacs_clauses(&cs))
}

/// Arbitrary step sequences — content need not make semantic sense for
/// encoding round-trips, only survive them byte-exactly.
fn steps_strategy() -> impl Strategy<Value = Vec<DratStep>> {
    prop::collection::vec(
        (any::<bool>(), prop::collection::vec(dimacs_lit(9), 0..5)),
        0..12,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(delete, lits)| {
                let clause = cnf::Clause::from_dimacs(&lits);
                if delete {
                    DratStep::delete(clause)
                } else {
                    DratStep::add(clause)
                }
            })
            .collect()
    })
}

/// Kinds and clauses survive a writer→parser trip (positions differ:
/// the parser records source locations, the builder records zero).
fn assert_same_steps(a: &DratProof, b: &DratProof) {
    assert_eq!(a.steps().len(), b.steps().len());
    for (x, y) in a.steps().iter().zip(b.steps()) {
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.clause, y.clause);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn text_encoding_roundtrips(steps in steps_strategy()) {
        let proof = DratProof::new(steps);
        let text = drat_to_string(&proof);
        let parsed = parse_drat(text.as_bytes()).expect("own output parses");
        assert_same_steps(&proof, &parsed);
    }

    #[test]
    fn binary_encoding_roundtrips(steps in steps_strategy()) {
        let proof = DratProof::new(steps);
        let bytes = encode_drat_to_vec(&proof);
        let parsed = parse_drat(&bytes).expect("own output parses");
        assert_same_steps(&proof, &parsed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Native solver proofs convert to DRAT, survive both encodings,
    /// and the backward checker agrees with the native verdict;
    /// the LRAT captured along the way replays under the strict
    /// checker, and the trimmed proof re-verifies.
    #[test]
    fn native_proofs_convert_and_agree(f in formula_strategy(6)) {
        let Some(trace) =
            cdcl::solve(&f, cdcl::SolverConfig::default()).into_proof()
        else {
            return Ok(());
        };
        let native = ConflictClauseProof::new(trace.clauses());
        if verify(&f, &native).is_err() {
            return Ok(());
        }

        let drat = DratProof::from(&native);
        // through the text encoding
        let reparsed =
            parse_drat(drat_to_string(&drat).as_bytes()).expect("parses");
        let v = verify_drat_backward(&f, &reparsed)
            .expect("native-verified proof passes the backward checker");
        check_lrat(&f, &v.lrat).expect("captured LRAT replays");

        // through the binary encoding
        let rebinary =
            parse_drat(&encode_drat_to_vec(&drat)).expect("parses");
        verify_drat_backward(&f, &rebinary).expect("binary agrees");

        // the trimmed proof stands alone
        let trimmed = trim_drat(&reparsed, &v);
        let tv = verify_drat_backward(&f, &trimmed)
            .expect("trimmed proof re-verifies");
        check_lrat(&f, &tv.lrat).expect("trimmed LRAT replays");
    }

    /// A random deletion of a still-live original clause keeps the
    /// proof well-formed for the parser/checker pipeline: the outcome
    /// is a verdict (verified or rejected), never a crash or a
    /// malformed-input error.
    #[test]
    fn deletions_of_live_clauses_always_get_a_verdict(
        f in formula_strategy(6),
        victim in 0usize..24,
    ) {
        let Some(trace) =
            cdcl::solve(&f, cdcl::SolverConfig::default()).into_proof()
        else {
            return Ok(());
        };
        let native = ConflictClauseProof::new(trace.clauses());
        if verify(&f, &native).is_err() {
            return Ok(());
        }
        let mut steps: Vec<DratStep> =
            DratProof::from(&native).steps().to_vec();
        let victim = victim % f.num_clauses();
        let victim_clause = f.iter().nth(victim).expect("in range").clone();
        steps.insert(0, DratStep::delete(victim_clause));
        let proof = DratProof::new(steps);
        // parse round-trip keeps the deletion
        let reparsed =
            parse_drat(drat_to_string(&proof).as_bytes()).expect("parses");
        prop_assert_eq!(
            reparsed.steps().iter().filter(|s| s.kind == DratStepKind::Delete).count(),
            proof.num_deletes()
        );
        if let Ok(v) = verify_drat_backward(&f, &reparsed) {
            // weakened formula still refuted: certificate must replay
            check_lrat(&f, &v.lrat).expect("LRAT replays");
        }
    }
}

/// The byte offset a binary-parse error points at, if it is one of the
/// binary (offset-carrying) variants.
fn error_offset(e: &proofver::ParseDratError) -> Option<usize> {
    use proofver::ParseDratError::*;
    match e {
        BadPrefix { offset, .. }
        | BadVarint { offset }
        | LiteralOutOfRange { offset }
        | UnexpectedEof { offset } => Some(*offset),
        BadToken { .. } | UnterminatedClause { .. } => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Truncating a binary DRAT proof anywhere either yields a valid
    /// shorter proof (the cut fell on a step boundary) or a *positioned*
    /// parse error whose byte offset is inside the input — never a
    /// panic, and never an error pointing past the bytes it was given.
    #[test]
    fn truncated_binary_drat_fails_with_a_position(
        steps in steps_strategy(),
        cut in 0usize..1_000_000,
    ) {
        let bytes = encode_drat_to_vec(&DratProof::new(steps));
        if bytes.len() < 2 {
            return Ok(());
        }
        // keep the 'd'/'a' sniff byte so the input stays binary-looking
        let cut = 1 + cut % (bytes.len() - 1);
        match proofver::parse_drat_binary(&bytes[..cut]) {
            Ok(shorter) => {
                prop_assert!(shorter.steps().len() <= bytes.len());
            }
            Err(e) => {
                let offset = error_offset(&e);
                prop_assert!(offset.is_some(), "binary error without offset: {e}");
                prop_assert!(offset.expect("checked") <= cut, "{e} past input end");
            }
        }
    }

    /// Flipping one bit anywhere in a binary DRAT proof either still
    /// parses (the flip landed in a literal's payload) or fails with a
    /// positioned error inside the input — never a panic.
    #[test]
    fn bit_flipped_binary_drat_never_panics(
        steps in steps_strategy(),
        at in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let mut bytes = encode_drat_to_vec(&DratProof::new(steps));
        if bytes.is_empty() {
            return Ok(());
        }
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        if !proofver::is_binary_drat(&bytes) {
            // the flip hit the sniff byte; text parsing is a different
            // grammar with line-based errors
            return Ok(());
        }
        if let Err(e) = proofver::parse_drat_binary(&bytes) {
            let offset = error_offset(&e);
            prop_assert!(offset.is_some(), "binary error without offset: {e}");
            prop_assert!(offset.expect("checked") <= bytes.len());
        }
    }

    /// The streaming checker's incremental scanner mirrors the
    /// in-memory binary parser on malformed input: same error, same
    /// byte offset — so a corrupt proof is diagnosed identically no
    /// matter which path reads it, and is never misreported as a
    /// Rejected verdict.
    #[test]
    fn streaming_scanner_matches_in_memory_parser_on_corrupt_input(
        steps in steps_strategy(),
        at in 0usize..1_000_000,
        bit in 0u8..8,
        cut in 0usize..1_000_000,
        truncate in any::<bool>(),
    ) {
        let mut bytes = encode_drat_to_vec(&DratProof::new(steps));
        if bytes.len() < 2 {
            return Ok(());
        }
        if truncate {
            let keep = 1 + cut % (bytes.len() - 1);
            bytes.truncate(keep);
        } else {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        if !proofver::is_binary_drat(&bytes) {
            return Ok(());
        }
        let Err(expected) = proofver::parse_drat_binary(&bytes) else {
            return Ok(());
        };
        let formula = CnfFormula::from_dimacs_clauses(&[vec![1], vec![-1]]);
        let outcome = proofver::verify_drat_stream_bytes(
            &formula,
            &bytes,
            &Harness::default(),
            &proofver::StreamConfig::default(),
            PropagatorChoice::Watched,
            None,
            None,
        );
        match outcome {
            proofver::StreamOutcome::Failed(
                proofver::StreamError::Parse(actual),
            ) => {
                prop_assert_eq!(actual, expected);
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "streaming gave {other:?}, parser gave {expected}"
                )));
            }
        }
    }
}
