//! Logical programs: sequences of two-logical-qubit instructions.

use std::fmt;

/// Identifier of a logical qubit (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogicalQubit(pub u32);

impl LogicalQubit {
    /// The raw index.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for LogicalQubit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// What gate an instruction performs. The communication simulator only
/// cares that two logical qubits must meet; the kind is carried for
/// documentation, trace output and gate-latency modelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstructionKind {
    /// Controlled phase `R_k` (angle `2π/2^k`) — the QFT's gate family.
    ControlledPhase {
        /// The `k` in `R_k`.
        k: u32,
    },
    /// A controlled-NOT.
    Cnot,
    /// A generic two-logical-qubit interaction (modular-arithmetic steps
    /// are abstracted to this).
    Interact,
}

impl fmt::Display for InstructionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstructionKind::ControlledPhase { k } => write!(f, "R{k}"),
            InstructionKind::Cnot => f.write_str("CNOT"),
            InstructionKind::Interact => f.write_str("INT"),
        }
    }
}

/// One two-logical-qubit instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// First operand.
    pub a: LogicalQubit,
    /// Second operand.
    pub b: LogicalQubit,
    /// Gate kind.
    pub kind: InstructionKind,
}

impl Instruction {
    /// A generic interaction between qubits `a` and `b`.
    pub fn interact(a: u32, b: u32) -> Self {
        Instruction {
            a: LogicalQubit(a),
            b: LogicalQubit(b),
            kind: InstructionKind::Interact,
        }
    }

    /// Whether `q` is one of the operands.
    pub fn touches(&self, q: LogicalQubit) -> bool {
        self.a == q || self.b == q
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.kind, self.a, self.b)
    }
}

/// Errors raised by [`Program::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// An instruction names a qubit outside `0..n_qubits`.
    QubitOutOfRange {
        /// Index of the offending instruction.
        index: usize,
        /// The out-of-range qubit.
        qubit: LogicalQubit,
        /// Number of qubits the program declares.
        n_qubits: u32,
    },
    /// An instruction's two operands are the same qubit.
    SelfInteraction {
        /// Index of the offending instruction.
        index: usize,
        /// The repeated operand.
        qubit: LogicalQubit,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::QubitOutOfRange {
                index,
                qubit,
                n_qubits,
            } => {
                write!(
                    f,
                    "instruction {index} uses {qubit} but the program has {n_qubits} qubits"
                )
            }
            ProgramError::SelfInteraction { index, qubit } => {
                write!(f, "instruction {index} interacts {qubit} with itself")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A logical program: `n_qubits` logical qubits and an ordered instruction
/// list. Instructions touching a common qubit must execute in program
/// order; otherwise they may run concurrently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    n_qubits: u32,
    instructions: Vec<Instruction>,
}

impl Program {
    /// Creates a program, validating all operands.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if any instruction names an out-of-range
    /// qubit or interacts a qubit with itself.
    pub fn new(n_qubits: u32, instructions: Vec<Instruction>) -> Result<Self, ProgramError> {
        for (index, ins) in instructions.iter().enumerate() {
            for q in [ins.a, ins.b] {
                if q.0 >= n_qubits {
                    return Err(ProgramError::QubitOutOfRange {
                        index,
                        qubit: q,
                        n_qubits,
                    });
                }
            }
            if ins.a == ins.b {
                return Err(ProgramError::SelfInteraction {
                    index,
                    qubit: ins.a,
                });
            }
        }
        Ok(Program {
            n_qubits,
            instructions,
        })
    }

    /// Number of logical qubits.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instruction list in program order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Concatenates another program onto this one (qubit spaces must
    /// match).
    ///
    /// # Panics
    ///
    /// Panics if the two programs declare different qubit counts.
    pub fn then(mut self, next: Program) -> Program {
        assert_eq!(
            self.n_qubits, next.n_qubits,
            "cannot concatenate programs over different qubit counts"
        );
        self.instructions.extend(next.instructions);
        self
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_program() {
        let p = Program::new(
            3,
            vec![Instruction::interact(0, 1), Instruction::interact(1, 2)],
        )
        .unwrap();
        assert_eq!(p.n_qubits(), 3);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.iter().count(), 2);
        assert_eq!((&p).into_iter().count(), 2);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Program::new(2, vec![Instruction::interact(0, 5)]).unwrap_err();
        match err {
            ProgramError::QubitOutOfRange {
                index,
                qubit,
                n_qubits,
            } => {
                assert_eq!(index, 0);
                assert_eq!(qubit, LogicalQubit(5));
                assert_eq!(n_qubits, 2);
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn rejects_self_interaction() {
        let err = Program::new(2, vec![Instruction::interact(1, 1)]).unwrap_err();
        assert!(matches!(err, ProgramError::SelfInteraction { .. }));
        assert!(err.to_string().contains("itself"));
    }

    #[test]
    fn touches() {
        let i = Instruction::interact(3, 7);
        assert!(i.touches(LogicalQubit(3)));
        assert!(i.touches(LogicalQubit(7)));
        assert!(!i.touches(LogicalQubit(5)));
    }

    #[test]
    fn concatenation() {
        let a = Program::new(4, vec![Instruction::interact(0, 1)]).unwrap();
        let b = Program::new(4, vec![Instruction::interact(2, 3)]).unwrap();
        let c = a.then(b);
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "different qubit counts")]
    fn concatenation_checks_width() {
        let a = Program::new(4, vec![]).unwrap();
        let b = Program::new(5, vec![]).unwrap();
        let _ = a.then(b);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Instruction::interact(0, 1).to_string(), "INT q0 q1");
        let r = Instruction {
            a: LogicalQubit(1),
            b: LogicalQubit(2),
            kind: InstructionKind::ControlledPhase { k: 3 },
        };
        assert_eq!(r.to_string(), "R3 q1 q2");
        assert_eq!(InstructionKind::Cnot.to_string(), "CNOT");
    }
}
