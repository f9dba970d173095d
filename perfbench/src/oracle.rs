//! Known-answer checks that share no code with the verifier.
//!
//! The expected verdicts come from the generator's rule
//! ([`crate::gen::Program::known_unsafe`]). Each unsafe verdict's witness
//! is replayed by classical simulation (`qb_circuit`), and at widths where
//! the whole permutation is affordable the rule itself is checked against
//! Definition 3.1 (`qb_core::exact`, which works on the permutation, not
//! on formulas).

use crate::gen::Program;
use qb_circuit::{simulate_classical, BitState, Circuit};
use qb_lang::ElaboratedProgram;

/// Widest circuit whose permutation the exact check enumerates.
pub const EXACT_MAX_QUBITS: usize = 14;

/// One verdict as reported by a verifier path (library or daemon).
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    /// Register name of the verified qubit, e.g. `a[3]` or `anc`.
    pub name: String,
    /// `safe`, `unsafe` or `unknown`.
    pub verdict: String,
    /// The counterexample input, when the verdict is unsafe.
    pub witness: Option<Vec<bool>>,
}

/// Does `witness` exhibit that qubit `q` is not safely uncomputed, by
/// Definition 3.1 on the two basis inputs `x` and `x ⊕ e_q`? Either the
/// bit of `q` changes, or flipping the input bit of `q` changes some
/// other output bit.
pub fn witness_refutes(circuit: &Circuit, q: usize, witness: &[bool]) -> bool {
    if witness.len() != circuit.num_qubits() || q >= witness.len() {
        return false;
    }
    let x = BitState::from_bits(witness);
    let mut flipped = x.clone();
    flipped.flip(q);
    let (Ok(y), Ok(y_flipped)) = (
        simulate_classical(circuit, &x),
        simulate_classical(circuit, &flipped),
    ) else {
        return false;
    };
    if y.get(q) != x.get(q) {
        return true;
    }
    (0..circuit.num_qubits()).any(|i| {
        let expect = if i == q { !y.get(i) } else { y.get(i) };
        y_flipped.get(i) != expect
    })
}

/// Counts the verdicts that differ from the known answer: a verdict for
/// the wrong set of qubits, a safe/unsafe mismatch, an `unknown`, or an
/// unsafe verdict whose witness does not replay.
pub fn wrong_verdicts(
    program: &Program,
    elaborated: &ElaboratedProgram,
    got: &[Reported],
) -> usize {
    let expected_unsafe = program.known_unsafe();
    let names = program.verified_names();
    if got.len() != names.len() {
        return names.len().max(1);
    }
    got.iter()
        .zip(&names)
        .filter(|(r, name)| {
            if &r.name != *name {
                return true;
            }
            let should_be_unsafe = expected_unsafe.contains(name);
            match (r.verdict.as_str(), should_be_unsafe) {
                ("safe", false) => false,
                ("unsafe", true) => {
                    let Some(q) =
                        (0..elaborated.num_qubits()).find(|&q| elaborated.qubit_name(q) == r.name)
                    else {
                        return true;
                    };
                    !r.witness
                        .as_deref()
                        .is_some_and(|w| witness_refutes(&elaborated.circuit, q, w))
                }
                _ => true,
            }
        })
        .count()
}

/// Checks the generator's rule against Definition 3.1 on the whole
/// permutation: every verified qubit is unsafe exactly when the rule says
/// so. Returns the number of disagreements, or `None` when the circuit is
/// wider than [`EXACT_MAX_QUBITS`].
pub fn exact_disagreements(program: &Program, elaborated: &ElaboratedProgram) -> Option<usize> {
    if elaborated.num_qubits() > EXACT_MAX_QUBITS {
        return None;
    }
    let expected_unsafe = program.known_unsafe();
    Some(
        elaborated
            .qubits_to_verify()
            .into_iter()
            .filter(|&q| {
                let safe =
                    qb_core::exact::classical_circuit_safely_uncomputes(&elaborated.circuit, q)
                        .expect("generated programs are classical");
                let name = elaborated.qubit_name(q).to_string();
                safe == expected_unsafe.contains(&name)
            })
            .count(),
    )
}
