//! The NPU instruction set (§3.4, Fig. 3).
//!
//! The ISA is RISC-V-flavoured: a scalar base, a vector-length-agnostic
//! vector extension, SFU instructions for transcendental functions, custom
//! DMA instructions (`mvin`/`mvout`/`config`), and VCIX-style dataflow-unit
//! instructions (`wvpush`/`ivpush`/`vpop`). Instructions are fixed 64-bit
//! words (a simulator simplification over RISC-V's 32-bit encoding; the
//! field structure mirrors Fig. 3).

use crate::reg::{Reg, VReg};
use std::fmt;

/// Which DMA descriptor field a `config` instruction sets (§3.4: "four
/// different config instructions that use parameters from the specified
/// configuration registers", extended with 4D fields per §3.6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DmaField {
    /// Tile shape: rows in `rs1`, columns (elements) in `rs2`.
    Shape2d = 0,
    /// Main-memory row stride in bytes (`rs1`); element size in `rs2`.
    StrideMm = 1,
    /// Scratchpad row stride in bytes (`rs1`); interleave granularity `rs2`.
    StrideSp = 2,
    /// Flags: bit 0 of `rs1` = transpose-on-the-fly (§3.3.3).
    Flags = 3,
    /// 4D outer shape: outer dims in `rs1`, `rs2`.
    OuterShape = 4,
    /// 4D outer main-memory strides (bytes) in `rs1`, `rs2`.
    OuterStrideMm = 5,
    /// 4D outer scratchpad strides (bytes) in `rs1`, `rs2`.
    OuterStrideSp = 6,
}

impl DmaField {
    /// Decodes a field selector.
    pub fn from_raw(raw: u8) -> Option<Self> {
        Some(match raw {
            0 => DmaField::Shape2d,
            1 => DmaField::StrideMm,
            2 => DmaField::StrideSp,
            3 => DmaField::Flags,
            4 => DmaField::OuterShape,
            5 => DmaField::OuterStrideMm,
            6 => DmaField::OuterStrideSp,
            _ => return None,
        })
    }
}

/// One NPU instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Instr {
    // --- Scalar base ---
    /// `rd <- imm` (sign-extended).
    Li { rd: Reg, imm: i32 },
    /// `rd <- rs1 + imm`.
    Addi { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd <- rs1 + rs2`.
    Add { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd <- rs1 - rs2`.
    Sub { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd <- rs1 * rs2`.
    Mul { rd: Reg, rs1: Reg, rs2: Reg },
    /// Scratchpad word load: `rd <- f32bits(sp[rs1 + imm])`.
    Lw { rd: Reg, rs1: Reg, imm: i32 },
    /// Scratchpad word store: `sp[rs1 + imm] <- low32(rs2)`.
    Sw { rs1: Reg, rs2: Reg, imm: i32 },
    /// Branch if `rs1 != rs2`, PC-relative in instruction words.
    Bne { rs1: Reg, rs2: Reg, offset: i32 },
    /// Branch if `rs1 < rs2` (signed), PC-relative in instruction words.
    Blt { rs1: Reg, rs2: Reg, offset: i32 },
    /// Stop execution of the kernel.
    Halt,

    // --- Vector extension (vector-length agnostic) ---
    /// Set VL to `min(rs1, VLMAX)`; `rd <- VL`.
    Vsetvl { rd: Reg, rs1: Reg },
    /// Unit-stride vector load of VL f32 from `sp[rs1]`.
    Vle { vd: VReg, rs1: Reg },
    /// Unit-stride vector store of VL f32 to `sp[rs1]`.
    Vse { vs: VReg, rs1: Reg },
    /// Strided vector load: element `i` from `sp[rs1 + i * rs2]`.
    Vlse { vd: VReg, rs1: Reg, rs2: Reg },
    /// Strided vector store: element `i` to `sp[rs1 + i * rs2]`.
    Vsse { vs: VReg, rs1: Reg, rs2: Reg },
    /// Broadcast `f32bits(low32(rs1))` to all elements of `vd`.
    Vbcast { vd: VReg, rs1: Reg },
    /// `vd <- vs1 + vs2`.
    Vadd { vd: VReg, vs1: VReg, vs2: VReg },
    /// `vd <- vs1 - vs2`.
    Vsub { vd: VReg, vs1: VReg, vs2: VReg },
    /// `vd <- vs1 * vs2`.
    Vmul { vd: VReg, vs1: VReg, vs2: VReg },
    /// `vd <- vs1 / vs2`.
    Vdiv { vd: VReg, vs1: VReg, vs2: VReg },
    /// `vd <- vd + vs1 * vs2` (multiply-accumulate).
    Vmacc { vd: VReg, vs1: VReg, vs2: VReg },
    /// `vd <- max(vs1, vs2)`.
    Vmax { vd: VReg, vs1: VReg, vs2: VReg },
    /// `vd[0] <- sum(vs1[0..VL])`.
    Vredsum { vd: VReg, vs1: VReg },
    /// `vd[0] <- max(vs1[0..VL])`.
    Vredmax { vd: VReg, vs1: VReg },
    /// Move element 0 of `vs1` to scalar `rd` (f32 bits, zero-extended).
    Vmvxs { rd: Reg, vs1: VReg },

    // --- SFU (Fig. 3e): transcendental vector functions ---
    /// `vd <- exp(vs1)`.
    Vexp { vd: VReg, vs1: VReg },
    /// `vd <- tanh(vs1)`.
    Vtanh { vd: VReg, vs1: VReg },
    /// `vd <- 1 / vs1`.
    Vrecip { vd: VReg, vs1: VReg },
    /// `vd <- 1 / sqrt(vs1)`.
    Vrsqrt { vd: VReg, vs1: VReg },

    // --- Tensor DMA engine (Fig. 3a–b) ---
    /// Sets one DMA descriptor field from two scalar registers.
    ConfigDma { field: DmaField, rs1: Reg, rs2: Reg },
    /// Starts a DRAM→scratchpad tile DMA: main-memory address in `rs_mm`,
    /// scratchpad address in `rs_sp`, geometry from the descriptor.
    Mvin { rs_mm: Reg, rs_sp: Reg },
    /// Starts a scratchpad→DRAM tile DMA.
    Mvout { rs_mm: Reg, rs_sp: Reg },
    /// Blocks until all outstanding DMAs of this core complete.
    DmaFence,

    // --- Dataflow unit, VCIX style (Fig. 3c–d, §3.5) ---
    /// Pushes VL elements of `vs` into the weight serializer FIFOs.
    Wvpush { vs: VReg },
    /// Pushes VL elements of `vs` into the input serializer FIFOs,
    /// implicitly triggering MACs as vectors complete.
    Ivpush { vs: VReg },
    /// Pops VL output elements from the deserializer FIFOs into `vd`;
    /// stalls until they are available.
    Vpop { vd: VReg },
}

impl Instr {
    /// True for instructions executed by the vector units (including SFU and
    /// dataflow-interface instructions, which move data through the VRF).
    pub fn is_vector(&self) -> bool {
        !matches!(
            self,
            Instr::Li { .. }
                | Instr::Addi { .. }
                | Instr::Add { .. }
                | Instr::Sub { .. }
                | Instr::Mul { .. }
                | Instr::Lw { .. }
                | Instr::Sw { .. }
                | Instr::Bne { .. }
                | Instr::Blt { .. }
                | Instr::Halt
                | Instr::ConfigDma { .. }
                | Instr::Mvin { .. }
                | Instr::Mvout { .. }
                | Instr::DmaFence
        )
    }

    /// True for the custom DMA instructions.
    pub fn is_dma(&self) -> bool {
        matches!(
            self,
            Instr::ConfigDma { .. } | Instr::Mvin { .. } | Instr::Mvout { .. } | Instr::DmaFence
        )
    }

    /// True for SFU (special function unit) instructions.
    pub fn is_sfu(&self) -> bool {
        matches!(
            self,
            Instr::Vexp { .. } | Instr::Vtanh { .. } | Instr::Vrecip { .. } | Instr::Vrsqrt { .. }
        )
    }

    /// True for VCIX dataflow-unit instructions.
    pub fn is_dataflow(&self) -> bool {
        matches!(self, Instr::Wvpush { .. } | Instr::Ivpush { .. } | Instr::Vpop { .. })
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Instr::Addi { rd, rs1, imm } => write!(f, "addi {rd}, {rs1}, {imm}"),
            Instr::Add { rd, rs1, rs2 } => write!(f, "add {rd}, {rs1}, {rs2}"),
            Instr::Sub { rd, rs1, rs2 } => write!(f, "sub {rd}, {rs1}, {rs2}"),
            Instr::Mul { rd, rs1, rs2 } => write!(f, "mul {rd}, {rs1}, {rs2}"),
            Instr::Lw { rd, rs1, imm } => write!(f, "lw {rd}, {imm}({rs1})"),
            Instr::Sw { rs1, rs2, imm } => write!(f, "sw {rs2}, {imm}({rs1})"),
            Instr::Bne { rs1, rs2, offset } => write!(f, "bne {rs1}, {rs2}, {offset}"),
            Instr::Blt { rs1, rs2, offset } => write!(f, "blt {rs1}, {rs2}, {offset}"),
            Instr::Halt => write!(f, "halt"),
            Instr::Vsetvl { rd, rs1 } => write!(f, "vsetvl {rd}, {rs1}"),
            Instr::Vle { vd, rs1 } => write!(f, "vle32.v {vd}, ({rs1})"),
            Instr::Vse { vs, rs1 } => write!(f, "vse32.v {vs}, ({rs1})"),
            Instr::Vlse { vd, rs1, rs2 } => write!(f, "vlse32.v {vd}, ({rs1}), {rs2}"),
            Instr::Vsse { vs, rs1, rs2 } => write!(f, "vsse32.v {vs}, ({rs1}), {rs2}"),
            Instr::Vbcast { vd, rs1 } => write!(f, "vbcast.v {vd}, {rs1}"),
            Instr::Vadd { vd, vs1, vs2 } => write!(f, "vadd.vv {vd}, {vs1}, {vs2}"),
            Instr::Vsub { vd, vs1, vs2 } => write!(f, "vsub.vv {vd}, {vs1}, {vs2}"),
            Instr::Vmul { vd, vs1, vs2 } => write!(f, "vmul.vv {vd}, {vs1}, {vs2}"),
            Instr::Vdiv { vd, vs1, vs2 } => write!(f, "vdiv.vv {vd}, {vs1}, {vs2}"),
            Instr::Vmacc { vd, vs1, vs2 } => write!(f, "vmacc.vv {vd}, {vs1}, {vs2}"),
            Instr::Vmax { vd, vs1, vs2 } => write!(f, "vmax.vv {vd}, {vs1}, {vs2}"),
            Instr::Vredsum { vd, vs1 } => write!(f, "vredsum.vs {vd}, {vs1}"),
            Instr::Vredmax { vd, vs1 } => write!(f, "vredmax.vs {vd}, {vs1}"),
            Instr::Vmvxs { rd, vs1 } => write!(f, "vmv.x.s {rd}, {vs1}"),
            Instr::Vexp { vd, vs1 } => write!(f, "sfu.exp {vd}, {vs1}"),
            Instr::Vtanh { vd, vs1 } => write!(f, "sfu.tanh {vd}, {vs1}"),
            Instr::Vrecip { vd, vs1 } => write!(f, "sfu.recip {vd}, {vs1}"),
            Instr::Vrsqrt { vd, vs1 } => write!(f, "sfu.rsqrt {vd}, {vs1}"),
            Instr::ConfigDma { field, rs1, rs2 } => {
                write!(f, "config {field:?}, {rs1}, {rs2}")
            }
            Instr::Mvin { rs_mm, rs_sp } => write!(f, "mvin {rs_mm}, {rs_sp}"),
            Instr::Mvout { rs_mm, rs_sp } => write!(f, "mvout {rs_mm}, {rs_sp}"),
            Instr::DmaFence => write!(f, "dma.fence"),
            Instr::Wvpush { vs } => write!(f, "wvpush {vs}"),
            Instr::Ivpush { vs } => write!(f, "ivpush {vs}"),
            Instr::Vpop { vd } => write!(f, "vpop {vd}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_is_consistent() {
        let v = Instr::Vadd { vd: VReg::new(1), vs1: VReg::new(2), vs2: VReg::new(3) };
        assert!(v.is_vector() && !v.is_dma() && !v.is_sfu() && !v.is_dataflow());
        let s = Instr::Add { rd: Reg::new(1), rs1: Reg::new(2), rs2: Reg::new(3) };
        assert!(!s.is_vector());
        let e = Instr::Vexp { vd: VReg::new(1), vs1: VReg::new(2) };
        assert!(e.is_sfu() && e.is_vector());
        let p = Instr::Ivpush { vs: VReg::new(4) };
        assert!(p.is_dataflow() && p.is_vector());
        let d = Instr::Mvin { rs_mm: Reg::new(1), rs_sp: Reg::new(2) };
        assert!(d.is_dma() && !d.is_vector());
    }

    #[test]
    fn display_looks_like_assembly() {
        let i = Instr::Vmacc { vd: VReg::new(0), vs1: VReg::new(1), vs2: VReg::new(2) };
        assert_eq!(i.to_string(), "vmacc.vv v0, v1, v2");
        assert_eq!(Instr::Halt.to_string(), "halt");
        assert_eq!(
            Instr::Mvin { rs_mm: Reg::new(10), rs_sp: Reg::new(11) }.to_string(),
            "mvin x10, x11"
        );
    }

    #[test]
    fn dma_field_round_trips() {
        for raw in 0..7u8 {
            let f = DmaField::from_raw(raw).unwrap();
            assert_eq!(f as u8, raw);
        }
        assert!(DmaField::from_raw(7).is_none());
    }
}
