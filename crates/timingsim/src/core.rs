//! The in-order pipelined core timing model.

use ptsim_common::config::NpuConfig;
use ptsim_common::{Cycle, Error, Result};
use ptsim_event::DrainFifo;
use ptsim_isa::instr::Instr;
use ptsim_isa::program::Program;
use ptsim_isa::reg::Reg;
use ptsim_obs::{CounterHub, QueueSite};

/// Microarchitectural timing parameters of the core model.
///
/// Defaults follow the generic NPU core of Fig. 2; they can be tuned to
/// model other cores (§3.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// Latency of scalar ALU operations, cycles.
    pub scalar_latency: u64,
    /// Extra cycles lost on a taken branch.
    pub branch_penalty: u64,
    /// Latency of a vector ALU operation, cycles (pipelined).
    pub valu_latency: u64,
    /// Latency of an SFU operation, cycles.
    pub sfu_latency: u64,
    /// Issue-to-issue occupancy of the SFU, cycles.
    pub sfu_occupancy: u64,
    /// Scratchpad access latency for loads, cycles.
    pub sp_load_latency: u64,
    /// Issue-to-issue occupancy of strided scratchpad accesses, cycles.
    pub strided_occupancy: u64,
    /// Scalar-pipe occupancy of issuing one DMA descriptor, cycles.
    pub dma_issue: u64,
    /// Depth of each serializer FIFO, in outstanding pushes.
    pub serializer_depth: usize,
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams {
            scalar_latency: 1,
            branch_penalty: 2,
            valu_latency: 4,
            sfu_latency: 12,
            sfu_occupancy: 4,
            sp_load_latency: 8,
            strided_occupancy: 4,
            dma_issue: 12,
            serializer_depth: 2,
        }
    }
}

/// The measured latency of one tile kernel, with a coarse breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileLatency {
    /// Total cycles from kernel start to completion of all issued work.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Input vectors streamed through the systolic array.
    pub sa_input_vectors: u64,
    /// Cycles the pipeline spent stalled on operands, FIFOs, or the array.
    pub stall_cycles: u64,
}

/// A serializer FIFO chain: pushes drain into the array at a fixed element
/// rate; a full FIFO stalls the pusher. Bounded admission is delegated to
/// [`DrainFifo::admit`]; the serializer itself only owns the drain-rate
/// arithmetic and the back-to-back serialization (`last_end`).
#[derive(Debug, Clone)]
struct Serializer {
    depth: usize,
    drain_rate: u64, // elements per cycle
    drains: DrainFifo<()>,
    last_end: u64,
}

impl Serializer {
    fn new(depth: usize, drain_rate: u64) -> Self {
        Serializer { depth, drain_rate, drains: DrainFifo::new(), last_end: 0 }
    }

    /// Pushes `elems` elements at time `t`; returns (issue time after any
    /// FIFO-full stall, drain completion time).
    fn push(&mut self, t: u64, elems: u64) -> (u64, u64) {
        let t = self.drains.admit(Cycle::new(t), self.depth).raw();
        let start = t.max(self.last_end);
        let end = start + elems.div_ceil(self.drain_rate).max(1);
        self.last_end = end;
        self.drains.push(Cycle::new(end), ());
        (t, end)
    }

    /// Outstanding (not yet drained) pushes.
    fn len(&self) -> usize {
        self.drains.len()
    }
}

/// Timing state of the systolic array.
#[derive(Debug, Clone, Default)]
struct SaTiming {
    /// Elements accumulated toward the current weight matrix.
    weight_elems: u64,
    /// Time the active weight matrix finished loading.
    weight_ready: u64,
    /// Elements accumulated toward the current input vector.
    input_elems: u64,
    /// Completion of the previous fired vector's shift-in (rate limit).
    last_fire: u64,
    /// Output elements keyed by ready time, oldest first; `Vpop` consumes
    /// them a vector at a time, possibly splitting the front entry.
    outputs: DrainFifo<u64>, // payload: elements
    fired_vectors: u64,
}

/// Cycle-accurate core timing simulator.
///
/// See the crate documentation for the modelling approach.
#[derive(Debug, Clone)]
pub struct TimingSim {
    params: TimingParams,
    units: u64,
    vlmax: usize,
    sa_rows: u64,
    sa_cols: u64,
    max_steps: u64,
}

impl TimingSim {
    /// Creates a timing model for the given NPU configuration.
    pub fn new(cfg: &NpuConfig) -> Self {
        TimingSim {
            params: TimingParams { dma_issue: cfg.dma_issue_cycles, ..TimingParams::default() },
            units: cfg.vector_units as u64,
            vlmax: cfg.total_vector_lanes(),
            sa_rows: cfg.systolic_rows as u64,
            sa_cols: cfg.logical_sa_cols() as u64,
            max_steps: 2_000_000_000,
        }
    }

    /// Overrides the runaway-loop guard.
    pub fn set_max_steps(&mut self, max_steps: u64) {
        self.max_steps = max_steps;
    }

    /// Measures the compute latency of a kernel, ignoring DMA transfer time
    /// (DMA instructions cost only their issue overhead, as in §3.8).
    ///
    /// # Errors
    ///
    /// Returns [`Error::IsaFault`] on malformed kernels (runaway loops,
    /// `vpop` with no produced data, missing `halt`).
    pub fn measure(&self, program: &Program) -> Result<TileLatency> {
        self.measure_inner(program, None)
    }

    /// Like [`TimingSim::measure`], additionally recording serializer
    /// `DrainFifo` depths (series index 0: weight path, 1: input path) and
    /// systolic-array output-FIFO depths into `counters`, stamped on the
    /// kernel's own measurement timeline (cycle 0 = kernel start).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TimingSim::measure`].
    pub fn measure_with_counters(
        &self,
        program: &Program,
        counters: &CounterHub,
    ) -> Result<TileLatency> {
        self.measure_inner(program, Some(counters))
    }

    fn measure_inner(
        &self,
        program: &Program,
        counters: Option<&CounterHub>,
    ) -> Result<TileLatency> {
        let p = &self.params;
        let mut regs = [0i64; 32];
        let mut sready = [0u64; 32]; // scalar register ready times
        let mut vready = [0u64; 32]; // vector register ready times
        let mut vl = self.vlmax as u64;
        let mut cycle: u64 = 0;
        let mut vec_free: u64 = 0;
        let mut stall: u64 = 0;
        let mut weight_ser = Serializer::new(p.serializer_depth, self.units);
        let mut input_ser = Serializer::new(p.serializer_depth, self.units);
        let mut sa = SaTiming::default();
        let mut pc: usize = 0;
        let mut steps: u64 = 0;
        let mut retired: u64 = 0;

        let reg = |regs: &[i64; 32], r: Reg| if r == Reg::ZERO { 0 } else { regs[r.index()] };

        loop {
            let instr = *program.instrs.get(pc).ok_or_else(|| {
                Error::IsaFault(format!("pc {pc} past end of kernel {}", program.name))
            })?;
            steps += 1;
            retired += 1;
            if steps > self.max_steps {
                return Err(Error::IsaFault(format!(
                    "kernel {} exceeded {} timing steps",
                    program.name, self.max_steps
                )));
            }
            let mut next_pc = pc + 1;
            match instr {
                Instr::Li { rd, imm } => {
                    let t = cycle;
                    if rd != Reg::ZERO {
                        regs[rd.index()] = imm as i64;
                        sready[rd.index()] = t + p.scalar_latency;
                    }
                    cycle = t + 1;
                }
                Instr::Addi { rd, rs1, imm } => {
                    let t = cycle.max(sready[rs1.index()]);
                    stall += t - cycle;
                    if rd != Reg::ZERO {
                        regs[rd.index()] = reg(&regs, rs1).wrapping_add(imm as i64);
                        sready[rd.index()] = t + p.scalar_latency;
                    }
                    cycle = t + 1;
                }
                Instr::Add { rd, rs1, rs2 }
                | Instr::Sub { rd, rs1, rs2 }
                | Instr::Mul { rd, rs1, rs2 } => {
                    let t = cycle.max(sready[rs1.index()]).max(sready[rs2.index()]);
                    stall += t - cycle;
                    let (a, b) = (reg(&regs, rs1), reg(&regs, rs2));
                    let v = match instr {
                        Instr::Add { .. } => a.wrapping_add(b),
                        Instr::Sub { .. } => a.wrapping_sub(b),
                        _ => a.wrapping_mul(b),
                    };
                    if rd != Reg::ZERO {
                        regs[rd.index()] = v;
                        sready[rd.index()] = t + p.scalar_latency;
                    }
                    cycle = t + 1;
                }
                Instr::Lw { rd, rs1, .. } => {
                    let t = cycle.max(sready[rs1.index()]);
                    stall += t - cycle;
                    // Data values are not modelled for timing; loads read 0.
                    if rd != Reg::ZERO {
                        regs[rd.index()] = 0;
                        sready[rd.index()] = t + p.sp_load_latency;
                    }
                    cycle = t + 1;
                }
                Instr::Sw { rs1, rs2, .. } => {
                    let t = cycle.max(sready[rs1.index()]).max(sready[rs2.index()]);
                    stall += t - cycle;
                    cycle = t + 1;
                }
                Instr::Bne { rs1, rs2, offset } | Instr::Blt { rs1, rs2, offset } => {
                    let t = cycle.max(sready[rs1.index()]).max(sready[rs2.index()]);
                    stall += t - cycle;
                    let (a, b) = (reg(&regs, rs1), reg(&regs, rs2));
                    let taken = match instr {
                        Instr::Bne { .. } => a != b,
                        _ => a < b,
                    };
                    if taken {
                        let target = pc as i64 + offset as i64;
                        if target < 0 {
                            return Err(Error::IsaFault("branch to negative pc".into()));
                        }
                        next_pc = target as usize;
                        cycle = t + 1 + p.branch_penalty;
                    } else {
                        cycle = t + 1;
                    }
                }
                Instr::Halt => {
                    // Completion: all register writes, serializer drains and
                    // array outputs must have landed.
                    let mut end = cycle;
                    for &r in sready.iter().chain(vready.iter()) {
                        end = end.max(r);
                    }
                    end = end.max(weight_ser.last_end).max(input_ser.last_end);
                    if let Some((t, _)) = sa.outputs.back() {
                        end = end.max(t.raw());
                    }
                    return Ok(TileLatency {
                        cycles: end,
                        instructions: retired,
                        sa_input_vectors: sa.fired_vectors,
                        stall_cycles: stall,
                    });
                }
                Instr::Vsetvl { rd, rs1 } => {
                    let t = cycle.max(sready[rs1.index()]);
                    stall += t - cycle;
                    vl = (reg(&regs, rs1).max(0) as u64).min(self.vlmax as u64);
                    if rd != Reg::ZERO {
                        regs[rd.index()] = vl as i64;
                        sready[rd.index()] = t + p.scalar_latency;
                    }
                    cycle = t + 1;
                }
                Instr::Vle { vd, rs1 } => {
                    let t = cycle.max(sready[rs1.index()]).max(vec_free);
                    stall += t - cycle;
                    vready[vd.index()] = t + p.sp_load_latency;
                    vec_free = t + 1;
                    cycle = t + 1;
                }
                Instr::Vse { vs, rs1 } => {
                    let t = cycle.max(sready[rs1.index()]).max(vready[vs.index()]).max(vec_free);
                    stall += t - cycle;
                    vec_free = t + 1;
                    cycle = t + 1;
                }
                Instr::Vlse { vd, rs1, rs2 } => {
                    let t = cycle.max(sready[rs1.index()]).max(sready[rs2.index()]).max(vec_free);
                    stall += t - cycle;
                    vready[vd.index()] = t + p.sp_load_latency + p.strided_occupancy;
                    vec_free = t + p.strided_occupancy;
                    cycle = t + 1;
                }
                Instr::Vsse { vs, rs1, rs2 } => {
                    let t = cycle
                        .max(sready[rs1.index()])
                        .max(sready[rs2.index()])
                        .max(vready[vs.index()])
                        .max(vec_free);
                    stall += t - cycle;
                    vec_free = t + p.strided_occupancy;
                    cycle = t + 1;
                }
                Instr::Vbcast { vd, rs1 } => {
                    let t = cycle.max(sready[rs1.index()]).max(vec_free);
                    stall += t - cycle;
                    vready[vd.index()] = t + 1;
                    vec_free = t + 1;
                    cycle = t + 1;
                }
                Instr::Vadd { vd, vs1, vs2 }
                | Instr::Vsub { vd, vs1, vs2 }
                | Instr::Vmul { vd, vs1, vs2 }
                | Instr::Vdiv { vd, vs1, vs2 }
                | Instr::Vmax { vd, vs1, vs2 } => {
                    let t = cycle.max(vready[vs1.index()]).max(vready[vs2.index()]).max(vec_free);
                    stall += t - cycle;
                    vready[vd.index()] = t + p.valu_latency;
                    vec_free = t + 1;
                    cycle = t + 1;
                }
                Instr::Vmacc { vd, vs1, vs2 } => {
                    let t = cycle
                        .max(vready[vd.index()])
                        .max(vready[vs1.index()])
                        .max(vready[vs2.index()])
                        .max(vec_free);
                    stall += t - cycle;
                    vready[vd.index()] = t + p.valu_latency;
                    vec_free = t + 1;
                    cycle = t + 1;
                }
                Instr::Vmvxs { rd, vs1 } => {
                    let t = cycle.max(vready[vs1.index()]).max(vec_free);
                    stall += t - cycle;
                    if rd != Reg::ZERO {
                        regs[rd.index()] = 0;
                        sready[rd.index()] = t + 2;
                    }
                    vec_free = t + 1;
                    cycle = t + 1;
                }
                Instr::Vredsum { vd, vs1 } | Instr::Vredmax { vd, vs1 } => {
                    // Tree reduction across lanes: log2(vl) stages.
                    let t = cycle.max(vready[vs1.index()]).max(vec_free);
                    stall += t - cycle;
                    let stages = 64 - vl.max(1).leading_zeros() as u64;
                    vready[vd.index()] = t + p.valu_latency + stages;
                    vec_free = t + 2;
                    cycle = t + 1;
                }
                Instr::Vexp { vd, vs1 }
                | Instr::Vtanh { vd, vs1 }
                | Instr::Vrecip { vd, vs1 }
                | Instr::Vrsqrt { vd, vs1 } => {
                    let t = cycle.max(vready[vs1.index()]).max(vec_free);
                    stall += t - cycle;
                    vready[vd.index()] = t + p.sfu_latency;
                    vec_free = t + p.sfu_occupancy;
                    cycle = t + 1;
                }
                Instr::ConfigDma { rs1, rs2, .. } => {
                    let t = cycle.max(sready[rs1.index()]).max(sready[rs2.index()]);
                    stall += t - cycle;
                    cycle = t + 1;
                }
                Instr::Mvin { rs_mm, rs_sp } | Instr::Mvout { rs_mm, rs_sp } => {
                    // Only the descriptor-issue overhead; transfer time is
                    // modelled online by TOGSim (§3.8: "ignoring DMAs").
                    let t = cycle.max(sready[rs_mm.index()]).max(sready[rs_sp.index()]);
                    stall += t - cycle;
                    cycle = t + p.dma_issue;
                }
                Instr::DmaFence => {
                    cycle += 1;
                }
                Instr::Wvpush { vs } => {
                    let t0 = cycle.max(vready[vs.index()]).max(vec_free);
                    let (t, end) = weight_ser.push(t0, vl);
                    if let Some(h) = counters {
                        h.record_queue_depth(
                            QueueSite::TimingSerializer,
                            0,
                            t,
                            weight_ser.len() as u64,
                        );
                    }
                    stall += t - cycle;
                    sa.weight_elems += vl;
                    let full = self.sa_rows * self.sa_cols;
                    while sa.weight_elems >= full {
                        sa.weight_elems -= full;
                        sa.weight_ready = end;
                    }
                    vec_free = t + 1;
                    cycle = t + 1;
                }
                Instr::Ivpush { vs } => {
                    let t0 = cycle.max(vready[vs.index()]).max(vec_free);
                    let (t, end) = input_ser.push(t0, vl);
                    if let Some(h) = counters {
                        h.record_queue_depth(
                            QueueSite::TimingSerializer,
                            1,
                            t,
                            input_ser.len() as u64,
                        );
                    }
                    stall += t - cycle;
                    sa.input_elems += vl;
                    // Vectors completed by this push fire at a rate of one
                    // per rows/units cycles, the array's shift-in rate.
                    let per_vec = self.sa_rows.div_ceil(self.units).max(1);
                    while sa.input_elems >= self.sa_rows {
                        sa.input_elems -= self.sa_rows;
                        let fire = end.max(sa.last_fire + per_vec).max(sa.weight_ready);
                        sa.last_fire = fire;
                        sa.fired_vectors += 1;
                        // Fill + drain skew of the array.
                        let ready = fire + self.sa_rows + self.sa_cols;
                        sa.outputs.push(Cycle::new(ready), self.sa_cols);
                        if let Some(h) = counters {
                            h.record_queue_depth(
                                QueueSite::TimingSaOutputs,
                                0,
                                fire,
                                sa.outputs.len() as u64,
                            );
                        }
                    }
                    vec_free = t + 1;
                    cycle = t + 1;
                }
                Instr::Vpop { vd } => {
                    let mut t = cycle.max(vec_free);
                    let mut need = vl;
                    let mut ready = t;
                    while need > 0 {
                        let (r, &avail) = sa.outputs.front().ok_or_else(|| {
                            Error::IsaFault(format!(
                                "vpop of {need} elements with no array output pending in {}",
                                program.name
                            ))
                        })?;
                        ready = ready.max(r.raw());
                        let take = need.min(avail);
                        need -= take;
                        if take == avail {
                            sa.outputs.pop_front();
                        } else {
                            *sa.outputs.front_mut().expect("checked above").1 = avail - take;
                        }
                    }
                    t = t.max(ready);
                    stall += t - cycle;
                    vready[vd.index()] = t + 1;
                    vec_free = t + 1;
                    cycle = t + 1;
                }
                other => {
                    return Err(Error::IsaFault(format!("unimplemented instruction {other}")));
                }
            }
            pc = next_pc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_isa::program::ProgramBuilder;
    use ptsim_isa::reg::VReg;

    fn tiny_cfg() -> NpuConfig {
        NpuConfig::tiny()
    }

    fn sim() -> TimingSim {
        TimingSim::new(&tiny_cfg())
    }

    #[test]
    fn empty_kernel_is_cheap() {
        let p = Program::new("nop", vec![Instr::Halt]);
        let lat = sim().measure(&p).unwrap();
        assert!(lat.cycles <= 1);
        assert_eq!(lat.instructions, 1);
    }

    #[test]
    fn dependent_scalar_chain_serializes() {
        let r = |i| Reg::new(i);
        let p = Program::new(
            "chain",
            vec![
                Instr::Li { rd: r(1), imm: 1 },
                Instr::Add { rd: r(2), rs1: r(1), rs2: r(1) },
                Instr::Add { rd: r(3), rs1: r(2), rs2: r(2) },
                Instr::Halt,
            ],
        );
        let lat = sim().measure(&p).unwrap();
        assert!(lat.cycles >= 3);
    }

    #[test]
    fn loops_execute_functionally() {
        // 10-iteration loop: timing must scale with trip count.
        let make = |n: i32| {
            let mut b = ProgramBuilder::new("loop");
            let (i, lim) = (Reg::new(1), Reg::new(2));
            b.emit(Instr::Li { rd: i, imm: 0 });
            b.emit(Instr::Li { rd: lim, imm: n });
            let top = b.new_label();
            b.bind(top).unwrap();
            b.emit(Instr::Addi { rd: i, rs1: i, imm: 1 });
            b.blt(i, lim, top);
            b.emit(Instr::Halt);
            b.finish().unwrap()
        };
        let l10 = sim().measure(&make(10)).unwrap();
        let l100 = sim().measure(&make(100)).unwrap();
        assert!(l100.cycles > 5 * l10.cycles);
    }

    #[test]
    fn vector_latency_exceeds_scalar() {
        let p = Program::new(
            "v",
            vec![
                Instr::Li { rd: Reg::new(1), imm: 0 },
                Instr::Vle { vd: VReg::new(0), rs1: Reg::new(1) },
                Instr::Vadd { vd: VReg::new(1), vs1: VReg::new(0), vs2: VReg::new(0) },
                Instr::Vse { vs: VReg::new(1), rs1: Reg::new(1) },
                Instr::Halt,
            ],
        );
        let lat = sim().measure(&p).unwrap();
        // load latency (8) + valu (4) + store.
        assert!(lat.cycles >= 12, "cycles {}", lat.cycles);
        assert!(lat.stall_cycles > 0);
    }

    /// A minimal GEMV kernel through the array: weights then one input.
    fn sa_kernel(input_vectors: usize) -> Program {
        let mut b = ProgramBuilder::new("sa");
        let t = Reg::new(1);
        // vl = 16 on the tiny config (4 units x 4 lanes), SA 8x8 = 64 weights.
        b.emit(Instr::Li { rd: t, imm: 16 });
        b.emit(Instr::Vsetvl { rd: Reg::ZERO, rs1: t });
        b.emit(Instr::Li { rd: Reg::new(2), imm: 0 });
        for _ in 0..4 {
            b.emit(Instr::Vle { vd: VReg::new(0), rs1: Reg::new(2) });
            b.emit(Instr::Wvpush { vs: VReg::new(0) });
        }
        // Each input vector is 8 elements; vl=8.
        b.emit(Instr::Li { rd: t, imm: 8 });
        b.emit(Instr::Vsetvl { rd: Reg::ZERO, rs1: t });
        for _ in 0..input_vectors {
            b.emit(Instr::Vle { vd: VReg::new(1), rs1: Reg::new(2) });
            b.emit(Instr::Ivpush { vs: VReg::new(1) });
            b.emit(Instr::Vpop { vd: VReg::new(2) });
            b.emit(Instr::Vse { vs: VReg::new(2), rs1: Reg::new(2) });
        }
        b.emit(Instr::Halt);
        b.finish().unwrap()
    }

    #[test]
    fn systolic_fill_drain_latency_is_visible() {
        let lat = sim().measure(&sa_kernel(1)).unwrap();
        // SA 8x8: fill+drain is at least rows + cols = 16 cycles on top of
        // weight load (64 elems / 4 units = 16 cycles).
        assert!(lat.cycles >= 32, "cycles {}", lat.cycles);
        assert_eq!(lat.sa_input_vectors, 1);
    }

    #[test]
    fn sa_throughput_amortizes_with_more_vectors() {
        let one = sim().measure(&sa_kernel(1)).unwrap();
        let many = sim().measure(&sa_kernel(32)).unwrap();
        assert_eq!(many.sa_input_vectors, 32);
        // 32 vectors must cost much less than 32x one vector (pipelining).
        assert!(many.cycles < 16 * one.cycles, "{} vs {}", many.cycles, one.cycles);
    }

    #[test]
    fn vpop_without_outputs_is_a_fault() {
        let p = Program::new("bad", vec![Instr::Vpop { vd: VReg::new(0) }, Instr::Halt]);
        assert!(sim().measure(&p).is_err());
    }

    #[test]
    fn dma_issue_overhead_is_charged() {
        let p = Program::new(
            "dma",
            vec![
                Instr::Li { rd: Reg::new(1), imm: 0 },
                Instr::Mvin { rs_mm: Reg::new(1), rs_sp: Reg::new(1) },
                Instr::Mvin { rs_mm: Reg::new(1), rs_sp: Reg::new(1) },
                Instr::Halt,
            ],
        );
        let lat = sim().measure(&p).unwrap();
        assert!(lat.cycles >= 2 * TimingParams::default().dma_issue);
    }

    #[test]
    fn runaway_loop_is_caught() {
        let mut b = ProgramBuilder::new("spin");
        let top = b.new_label();
        b.bind(top).unwrap();
        b.emit(Instr::Addi { rd: Reg::new(1), rs1: Reg::new(1), imm: 1 });
        b.bne(Reg::new(1), Reg::ZERO, top);
        b.emit(Instr::Halt);
        let mut s = sim();
        s.set_max_steps(100);
        assert!(s.measure(&b.finish().unwrap()).is_err());
    }
}
