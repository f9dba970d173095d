//! Seeded program generator and its known-answer rule.
//!
//! Every program is one of the paper's benchmark families (the adder of
//! Fig. 6.2 and the MCX ladder of §10.4), safe by construction, plus up to
//! three seeded modifications whose effect on the verdicts is known
//! without running any verifier code:
//!
//! * `mid` — an identity pair `X[q[j]]; X[q[j]];` inserted between the
//!   compute and uncompute halves. The circuit's function is unchanged,
//!   but its gate sequence diverges mid-circuit.
//! * `mutant` — the injected unsafe `CNOT[a_k, w]` after the last gate
//!   that touches `a_k`, where `w` is a `borrow@` qubit (not itself
//!   verified). Exactly `a_k` becomes unsafe: `w` now depends on `a_k`,
//!   and no other output changes its dependence on any verified qubit.
//!   This is the misplaced-uncompute bug pattern of Zhao et al.,
//!   *Identifying Bug Patterns in Quantum Programs* (arXiv 2103.09069).
//! * `tail` — a trailing `CNOT[q[i], q[j]]` on `borrow@` qubits only. It
//!   permutes unverified outputs among themselves, so it changes no
//!   verdict.
//!
//! The program text is all the verifier ever sees.

use crate::rng::Rng;

/// Which paper benchmark a program is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// `adder_source(n)`: `q[1..n]` trusted, `a[1..n-1]` verified.
    Adder,
    /// `mcx_source(m)`: `q[1..2m-1]` and `t` trusted, `anc` verified.
    Mcx,
}

impl Family {
    /// Short name used in labels.
    pub fn name(self) -> &'static str {
        match self {
            Family::Adder => "adder",
            Family::Mcx => "mcx",
        }
    }
}

/// A generated program: a family, its size and the seeded modifications.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    /// The benchmark family.
    pub family: Family,
    /// `n` for the adder, `m` for MCX.
    pub width: usize,
    /// `Some(j)`: an identity pair on `q[j]` between compute and uncompute.
    pub mid: Option<usize>,
    /// `Some((k, j))`: the injected unsafe `CNOT[a_k, q[j]]` (`k` is
    /// ignored for MCX, whose only verified qubit is `anc`; there `j` = 0
    /// writes `t`).
    pub mutant: Option<(usize, usize)>,
    /// `Some((i, j))`: a trailing `CNOT[q[i], q[j]]`.
    pub tail: Option<(usize, usize)>,
    /// Revision counter rendered as a comment: bumping it changes the
    /// text but not the structure (a structural no-op edit).
    pub revision: u64,
}

impl Program {
    /// The unmodified, safe program.
    pub fn base(family: Family, width: usize) -> Program {
        Program {
            family,
            width,
            mid: None,
            mutant: None,
            tail: None,
            revision: 0,
        }
    }

    /// Number of `borrow@` qubits in the `q` register.
    pub fn trusted(&self) -> usize {
        match self.family {
            Family::Adder => self.width,
            Family::Mcx => 2 * self.width - 1,
        }
    }

    /// A uniformly drawn `q` index (1-based, as the language indexes).
    pub fn draw_trusted(&self, rng: &mut Rng) -> usize {
        1 + rng.below(self.trusted())
    }

    /// A drawn mutant: the verified qubit it breaks and the trusted qubit
    /// it writes; only the adder's trusted qubit is drawn. The rest is
    /// fixed, so that a run's cost does not depend on the seed: on the adder the broken qubit is the middle of the carry chain
    /// `a[1..n-1]` (refuting `a_k` under SAT costs about linearly more the
    /// later `a_k` sits: on adder-64, 20 ms at `a[9]` against 1.2 s at
    /// `a[60]`); on MCX the written qubit is `t` (`w = 0` renders as `t`),
    /// as the SAT cost of refuting `anc` moves by half with the `q[j]` it
    /// writes.
    pub fn draw_mutant(&self, rng: &mut Rng) -> (usize, usize) {
        match self.family {
            Family::Adder => (self.width.div_ceil(2).max(1), self.draw_trusted(rng)),
            Family::Mcx => (0, 0),
        }
    }

    /// A uniformly drawn trailing CNOT between two distinct trusted qubits.
    pub fn draw_tail(&self, rng: &mut Rng) -> (usize, usize) {
        let i = self.draw_trusted(rng);
        let mut j = self.draw_trusted(rng);
        while j == i {
            j = self.draw_trusted(rng);
        }
        (i, j)
    }

    /// The QBorrow source text.
    pub fn source(&self) -> String {
        let mut src = match self.family {
            Family::Adder => qb_lang::adder_source(self.width),
            Family::Mcx => qb_lang::mcx_source(self.width),
        };
        if let Some(j) = self.mid {
            let (anchor, after) = match self.family {
                Family::Adder => ("X[q[n]];\n", true),
                Family::Mcx => ("// third part\n", true),
            };
            insert_at(
                &mut src,
                anchor,
                &format!("X[q[{j}]];\nX[q[{j}]];\n"),
                after,
            );
        }
        if let Some((k, j)) = self.mutant {
            match self.family {
                Family::Adder => src.push_str(&format!("CNOT[a[{k}], q[{j}]];\n")),
                // `anc` is released before the final ladder, which never
                // touches `anc`; the CNOT goes just before the release.
                Family::Mcx => {
                    let w = if j == 0 {
                        "t".to_string()
                    } else {
                        format!("q[{j}]")
                    };
                    insert_at(
                        &mut src,
                        "release anc;\n",
                        &format!("CNOT[anc, {w}];\n"),
                        false,
                    )
                }
            }
        }
        if !src.ends_with('\n') {
            src.push('\n');
        }
        if let Some((i, j)) = self.tail {
            src.push_str(&format!("CNOT[q[{i}], q[{j}]];\n"));
        }
        if self.revision > 0 {
            src.push_str(&format!("// revision {}\n", self.revision));
        }
        src
    }

    /// The register names of the verified qubits, in qubit order.
    pub fn verified_names(&self) -> Vec<String> {
        match self.family {
            Family::Adder => (1..self.width).map(|k| format!("a[{k}]")).collect(),
            Family::Mcx => vec!["anc".to_string()],
        }
    }

    /// The known answer: names of the verified qubits that are unsafe.
    pub fn known_unsafe(&self) -> Vec<String> {
        match (self.family, self.mutant) {
            (_, None) => Vec::new(),
            (Family::Adder, Some((k, _))) => vec![format!("a[{k}]")],
            (Family::Mcx, Some(_)) => vec!["anc".to_string()],
        }
    }

    /// Short label: family, width, and which modifications are present.
    pub fn label(&self) -> String {
        format!(
            "{}-{}{}{}{}",
            self.family.name(),
            self.width,
            if self.mid.is_some() { "+mid" } else { "" },
            if self.mutant.is_some() { "+mutant" } else { "" },
            if self.tail.is_some() { "+tail" } else { "" },
        )
    }
}

fn insert_at(src: &mut String, anchor: &str, text: &str, after: bool) {
    let at = src
        .find(anchor)
        .unwrap_or_else(|| panic!("generator anchor {anchor:?} missing from the family source"));
    let at = if after { at + anchor.len() } else { at };
    src.insert_str(at, text);
}
