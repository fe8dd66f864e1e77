//! Kernel programs and a label-aware program builder.

use crate::encode::{decode, encode};
use crate::instr::Instr;
use crate::reg::{Reg, VReg};
use ptsim_common::{Error, Result};
use std::fmt;

/// A compiled kernel: a name plus a finite instruction sequence ending in
/// `halt`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Kernel name, e.g. `"gemm_tile_m128_k128_n128"`.
    pub name: String,
    /// The instruction sequence.
    pub instrs: Vec<Instr>,
}

impl Program {
    /// Creates a program from instructions.
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> Self {
        Program { name: name.into(), instrs }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Assembles the program into 64-bit machine words.
    pub fn assemble(&self) -> Vec<u64> {
        self.instrs.iter().map(encode).collect()
    }

    /// Disassembles machine words back into a program.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IsaFault`] on any malformed word.
    pub fn disassemble(name: impl Into<String>, words: &[u64]) -> Result<Self> {
        let instrs = words.iter().map(|&w| decode(w)).collect::<Result<Vec<_>>>()?;
        Ok(Program { name: name.into(), instrs })
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.name)?;
        for (pc, instr) in self.instrs.iter().enumerate() {
            writeln!(f, "  {pc:4}: {instr}")?;
        }
        Ok(())
    }
}

/// A forward-referencable jump target used by [`ProgramBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Builds [`Program`]s with labels resolved to PC-relative offsets.
///
/// # Examples
///
/// ```
/// use ptsim_isa::program::ProgramBuilder;
/// use ptsim_isa::reg::Reg;
/// use ptsim_isa::instr::Instr;
///
/// let mut b = ProgramBuilder::new("count_to_three");
/// let (i, n) = (Reg::new(1), Reg::new(2));
/// b.emit(Instr::Li { rd: i, imm: 0 });
/// b.emit(Instr::Li { rd: n, imm: 3 });
/// let top = b.new_label();
/// b.bind(top)?;
/// b.emit(Instr::Addi { rd: i, rs1: i, imm: 1 });
/// b.blt(i, n, top);
/// b.emit(Instr::Halt);
/// let program = b.finish()?;
/// assert_eq!(program.len(), 5);
/// # Ok::<(), ptsim_common::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    name: String,
    instrs: Vec<Instr>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, Label)>,
}

impl ProgramBuilder {
    /// Creates a builder for a kernel with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder { name: name.into(), ..Self::default() }
    }

    /// Appends one instruction, returning its PC.
    pub fn emit(&mut self, instr: Instr) -> usize {
        self.instrs.push(instr);
        self.instrs.len() - 1
    }

    /// Allocates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IsaFault`] if the label was already bound.
    pub fn bind(&mut self, label: Label) -> Result<()> {
        if self.labels[label.0].is_some() {
            return Err(Error::IsaFault(format!("label {} bound twice", label.0)));
        }
        self.labels[label.0] = Some(self.instrs.len());
        Ok(())
    }

    /// Emits `bne rs1, rs2, label`.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        let pc = self.emit(Instr::Bne { rs1, rs2, offset: 0 });
        self.fixups.push((pc, label));
    }

    /// Emits `blt rs1, rs2, label`.
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        let pc = self.emit(Instr::Blt { rs1, rs2, offset: 0 });
        self.fixups.push((pc, label));
    }

    /// Current instruction count.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Resolves labels and returns the finished program.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IsaFault`] if any referenced label is unbound.
    pub fn finish(mut self) -> Result<Program> {
        for (pc, label) in &self.fixups {
            let target = self.labels[label.0]
                .ok_or_else(|| Error::IsaFault(format!("label {} never bound", label.0)))?;
            let offset = target as i64 - *pc as i64;
            let offset = i32::try_from(offset)
                .map_err(|_| Error::IsaFault("branch offset overflow".into()))?;
            match &mut self.instrs[*pc] {
                Instr::Bne { offset: o, .. } | Instr::Blt { offset: o, .. } => *o = offset,
                other => {
                    return Err(Error::IsaFault(format!("fixup on non-branch {other}")));
                }
            }
        }
        Ok(Program { name: self.name, instrs: self.instrs })
    }
}

/// A bump allocator for scratch registers, used by code generation.
///
/// Registers `x1..x31` and `v0..v31` are handed out in order; `reset`
/// returns to a checkpoint, giving simple stack discipline.
#[derive(Debug, Clone, Default)]
pub struct RegAlloc {
    next_scalar: u8,
    next_vector: u8,
}

impl RegAlloc {
    /// Creates an allocator with all registers free.
    pub fn new() -> Self {
        RegAlloc { next_scalar: 1, next_vector: 0 }
    }

    /// Allocates a fresh scalar register.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IsaFault`] when the register file is exhausted.
    pub fn scalar(&mut self) -> Result<Reg> {
        if self.next_scalar >= 32 {
            return Err(Error::IsaFault("out of scalar registers".into()));
        }
        let r = Reg::new(self.next_scalar);
        self.next_scalar += 1;
        Ok(r)
    }

    /// Allocates a fresh vector register.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IsaFault`] when the register file is exhausted.
    pub fn vector(&mut self) -> Result<VReg> {
        if self.next_vector >= 32 {
            return Err(Error::IsaFault("out of vector registers".into()));
        }
        let v = VReg::new(self.next_vector);
        self.next_vector += 1;
        Ok(v)
    }

    /// A checkpoint of the current allocation state.
    pub fn mark(&self) -> (u8, u8) {
        (self.next_scalar, self.next_vector)
    }

    /// Frees everything allocated after `mark`.
    pub fn reset(&mut self, mark: (u8, u8)) {
        self.next_scalar = mark.0;
        self.next_vector = mark.1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve_backward_and_forward() {
        let mut b = ProgramBuilder::new("t");
        let start = b.new_label();
        let end = b.new_label();
        b.bind(start).unwrap();
        b.emit(Instr::Addi { rd: Reg::new(1), rs1: Reg::new(1), imm: 1 });
        b.bne(Reg::new(1), Reg::new(2), end); // forward
        b.blt(Reg::new(1), Reg::new(2), start); // backward
        b.bind(end).unwrap();
        b.emit(Instr::Halt);
        let p = b.finish().unwrap();
        match p.instrs[1] {
            Instr::Bne { offset, .. } => assert_eq!(offset, 2),
            ref other => panic!("unexpected {other}"),
        }
        match p.instrs[2] {
            Instr::Blt { offset, .. } => assert_eq!(offset, -2),
            ref other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new("t");
        let l = b.new_label();
        b.bne(Reg::new(1), Reg::new(2), l);
        assert!(b.finish().is_err());
    }

    #[test]
    fn double_bind_is_an_error() {
        let mut b = ProgramBuilder::new("t");
        let l = b.new_label();
        b.bind(l).unwrap();
        assert!(b.bind(l).is_err());
    }

    #[test]
    fn assemble_disassemble_round_trips() {
        let p = Program::new(
            "k",
            vec![
                Instr::Li { rd: Reg::new(1), imm: 42 },
                Instr::Vle { vd: VReg::new(0), rs1: Reg::new(1) },
                Instr::Ivpush { vs: VReg::new(0) },
                Instr::Vpop { vd: VReg::new(1) },
                Instr::Halt,
            ],
        );
        let words = p.assemble();
        let back = Program::disassemble("k", &words).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn reg_alloc_respects_marks() {
        let mut a = RegAlloc::new();
        let r1 = a.scalar().unwrap();
        let mark = a.mark();
        let r2 = a.scalar().unwrap();
        assert_ne!(r1, r2);
        a.reset(mark);
        let r3 = a.scalar().unwrap();
        assert_eq!(r2, r3);
    }

    #[test]
    fn reg_alloc_exhaustion_is_an_error() {
        let mut a = RegAlloc::new();
        for _ in 0..31 {
            a.scalar().unwrap();
        }
        assert!(a.scalar().is_err());
    }

    #[test]
    fn program_display_lists_pcs() {
        let p = Program::new("demo", vec![Instr::Halt]);
        let s = p.to_string();
        assert!(s.contains("demo:"));
        assert!(s.contains("halt"));
    }
}
