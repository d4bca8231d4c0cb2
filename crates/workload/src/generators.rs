//! The paper's benchmark kernels as [`Program`] constructors.

use qic_des::rng::{mix64, GOLDEN};

use crate::program::{Instruction, InstructionKind, LogicalQubit, Program};

impl Program {
    /// The **Quantum Fourier Transform** on `n` logical qubits.
    ///
    /// "Given n logical qubits, labeled 1, 2, … n, each logical qubit must
    /// interact once with each other logical qubit, in numerical order.
    /// Thus, the first few communications in QFT are 1-2, 1-3, (1-4, 2-3),
    /// (1-5, 2-4), (1-6, 2-5, 3-4), where communications in parentheses may
    /// occur simultaneously." (Section 5.2)
    ///
    /// Instructions are emitted in exactly that wavefront order — pairs
    /// `(i, j)` grouped by ascending `i + j` — which both respects each
    /// qubit's numerical order and exposes the maximal parallelism the
    /// paper describes. The gate attached to pair `(i, j)` is the
    /// controlled phase `R_{j−i+1}` of the standard QFT circuit.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn qft(n: u32) -> Program {
        assert!(n >= 2, "QFT needs at least two qubits");
        let mut instructions = Vec::with_capacity((n as usize) * (n as usize - 1) / 2);
        // 0-based: pairs (i, j), i < j, grouped by anti-diagonal i + j.
        for s in 1..=(2 * n - 3) {
            let i_min = s.saturating_sub(n - 1);
            let mut i = i_min;
            while 2 * i < s {
                let j = s - i;
                instructions.push(Instruction {
                    a: LogicalQubit(i),
                    b: LogicalQubit(j),
                    kind: InstructionKind::ControlledPhase { k: j - i + 1 },
                });
                i += 1;
            }
        }
        Program::new(n, instructions).expect("generated QFT is valid")
    }

    /// **Modular multiplication**: the bipartite pattern between register
    /// `A` (qubits `0..n`) and register `B` (qubits `n..2n`) — "all from
    /// one set communicating with all from the other set" (Section 5.2).
    ///
    /// Pairs are emitted in rotated rounds (round `r` pairs `A[i]` with
    /// `B[(i + r) mod n]`), so each round is fully parallel.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn modular_multiplication(n: u32) -> Program {
        assert!(n > 0, "registers must be non-empty");
        let mut instructions = Vec::with_capacity((n as usize) * (n as usize));
        for round in 0..n {
            for i in 0..n {
                let j = n + (i + round) % n;
                instructions.push(Instruction {
                    a: LogicalQubit(i),
                    b: LogicalQubit(j),
                    kind: InstructionKind::Interact,
                });
            }
        }
        Program::new(2 * n, instructions).expect("generated MM is valid")
    }

    /// **Modular exponentiation**: `steps` iterations of a squaring step
    /// (all-to-all within register `A`, a QFT-like pattern) followed by a
    /// multiplication step (bipartite `A`×`B`), per Section 5.2.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `steps` is zero.
    pub fn modular_exponentiation(n: u32, steps: u32) -> Program {
        assert!(n >= 2, "registers need at least two qubits");
        assert!(steps > 0, "at least one square-and-multiply step");
        let mut program = Program::new(2 * n, Vec::new()).expect("empty is valid");
        for _ in 0..steps {
            // Squaring: all-to-all inside A (same anti-diagonal order as
            // the QFT, but generic interactions).
            let mut sq = Vec::new();
            for s in 1..=(2 * n - 3) {
                let i_min = s.saturating_sub(n - 1);
                let mut i = i_min;
                while 2 * i < s {
                    sq.push(Instruction::interact(i, s - i));
                    i += 1;
                }
            }
            program = program.then(Program::new(2 * n, sq).expect("squaring is valid"));
            // Multiplication: bipartite A×B.
            let mm = Program::modular_multiplication(n);
            program = program.then(Program::new(2 * n, mm.instructions().to_vec()).expect("valid"));
        }
        program
    }

    /// The composed **Shor kernel**: modular exponentiation over registers
    /// `A`/`B` followed by a QFT over register `A` (Section 5.2 lists QFT,
    /// ME and MM as the three communication-intensive components).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `me_steps` is zero.
    pub fn shor_kernel(n: u32, me_steps: u32) -> Program {
        let me = Program::modular_exponentiation(n, me_steps);
        let qft = Program::qft(n);
        // Lift the QFT into the 2n-qubit space (it acts on register A).
        let lifted = Program::new(2 * n, qft.instructions().to_vec()).expect("A ⊂ A∪B");
        me.then(lifted)
    }

    /// A **synthetic** workload: `len` uniform-random two-qubit
    /// interactions over `n` qubits, derived deterministically from
    /// `seed` (SplitMix64, so the same spec always generates the same
    /// traffic on any platform or thread count).
    ///
    /// Unlike the structured kernels above, synthetic traffic has no
    /// exploitable locality, which makes it the stress case for layout
    /// and fabric comparisons.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn synthetic(n: u32, len: usize, seed: u64) -> Program {
        assert!(n >= 2, "synthetic traffic needs at least two qubits");
        // SplitMix64: the same generator the campaign engine uses for
        // per-point seed derivation (see qic-sweep's crate docs).
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(GOLDEN);
            mix64(state)
        };
        let instructions = (0..len)
            .map(|_| {
                let a = (next() % u64::from(n)) as u32;
                let b = (next() % u64::from(n - 1)) as u32;
                let b = if b >= a { b + 1 } else { b };
                Instruction::interact(a, b)
            })
            .collect();
        Program::new(n, instructions).expect("generated synthetic traffic is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qft_pair_count() {
        for n in [2u32, 3, 8, 16] {
            let p = Program::qft(n);
            assert_eq!(p.len() as u32, n * (n - 1) / 2, "n={n}");
            assert_eq!(p.n_qubits(), n);
        }
    }

    #[test]
    fn qft_matches_papers_listed_prefix() {
        // Paper (1-based): 1-2, 1-3, (1-4, 2-3), (1-5, 2-4), (1-6, 2-5, 3-4).
        // 0-based: (0,1), (0,2), (0,3), (1,2), (0,4), (1,3), (0,5), (1,4), (2,3).
        let p = Program::qft(6);
        let pairs: Vec<(u32, u32)> = p.iter().map(|i| (i.a.index(), i.b.index())).collect();
        assert_eq!(
            &pairs[..9],
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (0, 4),
                (1, 3),
                (0, 5),
                (1, 4),
                (2, 3)
            ]
        );
    }

    #[test]
    fn qft_every_pair_exactly_once() {
        let n = 10;
        let p = Program::qft(n);
        let mut seen = std::collections::HashSet::new();
        for ins in &p {
            let key = (
                ins.a.index().min(ins.b.index()),
                ins.a.index().max(ins.b.index()),
            );
            assert!(seen.insert(key), "duplicate pair {key:?}");
        }
        assert_eq!(seen.len() as u32, n * (n - 1) / 2);
    }

    #[test]
    fn qft_respects_per_qubit_numerical_order() {
        let p = Program::qft(9);
        for q in 0..9u32 {
            let partners: Vec<u32> = p
                .iter()
                .filter(|i| i.touches(LogicalQubit(q)))
                .map(|i| {
                    if i.a.index() == q {
                        i.b.index()
                    } else {
                        i.a.index()
                    }
                })
                .collect();
            // For qubit q the partners with larger index must appear in
            // increasing order (q interacts with q+1, then q+2, …).
            let later: Vec<u32> = partners.iter().copied().filter(|&x| x > q).collect();
            let mut sorted = later.clone();
            sorted.sort_unstable();
            assert_eq!(later, sorted, "qubit {q} out of numerical order");
        }
    }

    #[test]
    fn qft_gate_kinds() {
        let p = Program::qft(4);
        // Adjacent pairs get R2, distance-2 pairs R3, etc.
        for ins in &p {
            match ins.kind {
                InstructionKind::ControlledPhase { k } => {
                    assert_eq!(k, ins.b.index() - ins.a.index() + 1);
                }
                other => panic!("QFT uses controlled phases, got {other}"),
            }
        }
    }

    #[test]
    fn mm_is_complete_bipartite() {
        let n = 5;
        let p = Program::modular_multiplication(n);
        assert_eq!(p.len() as u32, n * n);
        assert_eq!(p.n_qubits(), 2 * n);
        let mut seen = std::collections::HashSet::new();
        for ins in &p {
            assert!(ins.a.index() < n, "left operand in A");
            assert!(ins.b.index() >= n, "right operand in B");
            assert!(seen.insert((ins.a.index(), ins.b.index())));
        }
        assert_eq!(seen.len() as u32, n * n);
    }

    #[test]
    fn mm_rounds_are_parallel() {
        // Within each round of n instructions, no qubit repeats.
        let n = 6;
        let p = Program::modular_multiplication(n);
        for round in p.instructions().chunks(n as usize) {
            let mut used = std::collections::HashSet::new();
            for ins in round {
                assert!(used.insert(ins.a));
                assert!(used.insert(ins.b));
            }
        }
    }

    #[test]
    fn me_interleaves_square_and_multiply() {
        let n = 4;
        let steps = 2;
        let p = Program::modular_exponentiation(n, steps);
        let square_len = (n * (n - 1) / 2) as usize;
        let mm_len = (n * n) as usize;
        assert_eq!(p.len(), steps as usize * (square_len + mm_len));
        // First squaring block touches only register A.
        for ins in &p.instructions()[..square_len] {
            assert!(ins.a.index() < n && ins.b.index() < n);
        }
        // Then a bipartite block.
        for ins in &p.instructions()[square_len..square_len + mm_len] {
            assert!(ins.b.index() >= n);
        }
    }

    #[test]
    fn shor_kernel_composes() {
        let p = Program::shor_kernel(4, 1);
        let me = Program::modular_exponentiation(4, 1);
        let qft = Program::qft(4);
        assert_eq!(p.len(), me.len() + qft.len());
        assert_eq!(p.n_qubits(), 8);
    }

    #[test]
    #[should_panic(expected = "at least two qubits")]
    fn qft_needs_two() {
        let _ = Program::qft(1);
    }

    #[test]
    fn synthetic_is_deterministic_and_valid() {
        let a = Program::synthetic(8, 40, 2006);
        let b = Program::synthetic(8, 40, 2006);
        assert_eq!(a, b, "same seed, same traffic");
        assert_eq!(a.len(), 40);
        assert_eq!(a.n_qubits(), 8);
        for ins in &a {
            assert_ne!(ins.a, ins.b);
            assert!(ins.a.index() < 8 && ins.b.index() < 8);
        }
        let c = Program::synthetic(8, 40, 2007);
        assert_ne!(a, c, "different seeds should diverge");
    }
}
