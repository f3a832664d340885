//! Machine models and the execution engine.
//!
//! A [`Machine`] is a core (decode/execute/retire) driving a
//! [`crate::front::FrontEnd`] (fetch windows, I-cache, I-TLB, branch
//! prediction) and a [`crate::dmem::MemSystem`] (L1D/D-TLB/banks) over
//! explicit ports, with a shared unified L2 behind [`crate::ports::L2Port`].
//! Every production run dispatches whole basic blocks through the decoded
//! trace cache ([`KernelMode::Block`]); the per-instruction loop
//! ([`KernelMode::Collapsed`]) survives only as the test oracle that block
//! dispatch is differentially checked against.
//!
//! Three presets mirror the paper's experimental machines:
//!
//! * [`MachineConfig::core2`] — wide OoO core, large forgiving caches;
//! * [`MachineConfig::pentium4`] — long pipeline (expensive mispredicts),
//!   smaller lower-associativity L1D;
//! * [`MachineConfig::o3cpu`] — the m5 simulator's default-ish O3CPU with a
//!   2-way L1D, the machine the paper uses for causal analysis (low
//!   associativity makes layout conflicts easy to see).
//!
//! Everything is deterministic: the same executable, environment and
//! arguments produce bit-identical counters, on either execution path.

use std::fmt;

use biaslab_isa::{checksum_fold, Inst, Reg};
use biaslab_toolchain::link::Executable;
use biaslab_toolchain::load::Process;
use biaslab_toolchain::mem::RegionMem;

use crate::block::{
    BlockCache, BlockCacheStats, BlockEnd, DecodeParams, DecodedBlock, UopKind, REG_SLOTS,
};
use crate::branch::BranchConfig;
use crate::cache::{Cache, CacheConfig};
use crate::counters::Counters;
use crate::dmem::{MemParams, MemSystem};
use crate::front::FrontEnd;
use crate::geometry::{ConfigError, GeometryError};
use crate::ports::L2Port;
use crate::tlb::TlbConfig;

/// Complete parameterization of a simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable model name.
    pub name: String,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Main-memory latency (beyond L2) in cycles.
    pub memory_latency: u32,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// Branch prediction unit.
    pub branch: BranchConfig,
    /// Fetch window size in bytes: a new window is fetched whenever
    /// execution leaves the current aligned window.
    pub fetch_bytes: u32,
    /// Extra cycles for a multiply (beyond the base cycle).
    pub mul_latency: u32,
    /// Extra cycles for a divide/remainder.
    pub div_latency: u32,
    /// Number of L1D banks (power of two; banks interleave at 8-byte
    /// granularity). Two accesses issued back-to-back that hit the same
    /// bank in different lines conflict.
    pub l1d_banks: u32,
    /// Stall cycles charged for an L1D bank conflict.
    pub bank_conflict_penalty: u32,
    /// Two data accesses within this many retired instructions of each
    /// other are treated as issuing in the same group for the bank model.
    pub bank_window: u32,
    /// Next-line L1D prefetch: on a demand miss, also fill line+1. Off in
    /// the paper-machine presets (kept stable for the recorded figures);
    /// the `abl-prefetch` ablation studies its effect on bias.
    pub l1d_next_line_prefetch: bool,
    /// Fraction of memory-stall cycles hidden by out-of-order overlap
    /// (0 = fully exposed, in-order).
    pub overlap: f64,
    /// Instruction budget before a run aborts.
    pub max_instructions: u64,
}

impl MachineConfig {
    /// An Intel Core 2-like model.
    #[must_use]
    pub fn core2() -> MachineConfig {
        MachineConfig {
            name: "core2".into(),
            l1i: CacheConfig {
                size: 32 << 10,
                ways: 8,
                line: 64,
                hit_latency: 3,
            },
            l1d: CacheConfig {
                size: 32 << 10,
                ways: 8,
                line: 64,
                hit_latency: 3,
            },
            l2: CacheConfig {
                size: 2 << 20,
                ways: 8,
                line: 64,
                hit_latency: 15,
            },
            memory_latency: 200,
            itlb: TlbConfig {
                entries: 32,
                ways: 4,
                miss_penalty: 20,
            },
            dtlb: TlbConfig {
                entries: 64,
                ways: 4,
                miss_penalty: 30,
            },
            branch: BranchConfig {
                gshare_bits: 12,
                btb_entries: 512,
                ras_depth: 16,
                mispredict_penalty: 12,
                btb_miss_penalty: 2,
            },
            fetch_bytes: 16,
            mul_latency: 2,
            div_latency: 21,
            l1d_banks: 8,
            bank_conflict_penalty: 2,
            bank_window: 8,
            l1d_next_line_prefetch: false,
            overlap: 0.4,
            max_instructions: 1 << 33,
        }
    }

    /// An Intel Pentium 4-like model: long pipeline, small 4-way L1D.
    #[must_use]
    pub fn pentium4() -> MachineConfig {
        MachineConfig {
            name: "pentium4".into(),
            l1i: CacheConfig {
                size: 16 << 10,
                ways: 4,
                line: 64,
                hit_latency: 3,
            },
            l1d: CacheConfig {
                size: 16 << 10,
                ways: 4,
                line: 64,
                hit_latency: 4,
            },
            l2: CacheConfig {
                size: 1 << 20,
                ways: 8,
                line: 64,
                hit_latency: 20,
            },
            memory_latency: 250,
            itlb: TlbConfig {
                entries: 32,
                ways: 4,
                miss_penalty: 25,
            },
            dtlb: TlbConfig {
                entries: 64,
                ways: 4,
                miss_penalty: 35,
            },
            branch: BranchConfig {
                gshare_bits: 12,
                btb_entries: 256,
                ras_depth: 16,
                mispredict_penalty: 20,
                btb_miss_penalty: 3,
            },
            fetch_bytes: 16,
            mul_latency: 3,
            div_latency: 30,
            l1d_banks: 8,
            bank_conflict_penalty: 4,
            bank_window: 12,
            l1d_next_line_prefetch: false,
            overlap: 0.25,
            max_instructions: 1 << 33,
        }
    }

    /// An m5 O3CPU-like model with a 2-way L1D (the simulator the paper
    /// uses to explain *why* bias arises).
    #[must_use]
    pub fn o3cpu() -> MachineConfig {
        MachineConfig {
            name: "o3cpu".into(),
            l1i: CacheConfig {
                size: 32 << 10,
                ways: 2,
                line: 64,
                hit_latency: 2,
            },
            l1d: CacheConfig {
                size: 32 << 10,
                ways: 2,
                line: 64,
                hit_latency: 2,
            },
            l2: CacheConfig {
                size: 1 << 20,
                ways: 8,
                line: 64,
                hit_latency: 12,
            },
            memory_latency: 150,
            itlb: TlbConfig {
                entries: 32,
                ways: 4,
                miss_penalty: 20,
            },
            dtlb: TlbConfig {
                entries: 64,
                ways: 4,
                miss_penalty: 25,
            },
            branch: BranchConfig {
                gshare_bits: 13,
                btb_entries: 1024,
                ras_depth: 16,
                mispredict_penalty: 8,
                btb_miss_penalty: 1,
            },
            fetch_bytes: 32,
            mul_latency: 2,
            div_latency: 20,
            l1d_banks: 4,
            bank_conflict_penalty: 2,
            bank_window: 8,
            l1d_next_line_prefetch: false,
            overlap: 0.6,
            max_instructions: 1 << 33,
        }
    }

    /// The three paper machines, in the paper's order.
    #[must_use]
    pub fn all() -> Vec<MachineConfig> {
        vec![
            MachineConfig::pentium4(),
            MachineConfig::core2(),
            MachineConfig::o3cpu(),
        ]
    }

    /// Checks the configuration for geometric consistency, once, up front.
    /// [`Machine::try_new`] calls this; after construction no access-path
    /// code re-validates (or panics on) geometry.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency as a typed [`ConfigError`] naming
    /// the unit and the violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, c) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            c.try_sets().map_err(|e| ConfigError::new(name, e))?;
        }
        for (name, t) in [("itlb", &self.itlb), ("dtlb", &self.dtlb)] {
            t.try_sets().map_err(|e| ConfigError::new(name, e))?;
        }
        if !self.branch.btb_entries.is_power_of_two() {
            return Err(ConfigError::new(
                "btb",
                GeometryError::BtbNotPowerOfTwo {
                    entries: self.branch.btb_entries,
                },
            ));
        }
        if self.branch.gshare_bits == 0 || self.branch.gshare_bits > 24 {
            return Err(ConfigError::new(
                "gshare",
                GeometryError::GshareBitsOutOfRange {
                    bits: self.branch.gshare_bits,
                },
            ));
        }
        if !self.fetch_bytes.is_power_of_two() || self.fetch_bytes < 4 {
            return Err(ConfigError::new(
                "fetch",
                GeometryError::FetchWindowInvalid {
                    bytes: self.fetch_bytes,
                },
            ));
        }
        if self.l1d_banks > 1 && !self.l1d_banks.is_power_of_two() {
            return Err(ConfigError::new(
                "l1d_banks",
                GeometryError::BanksNotPowerOfTwo {
                    banks: self.l1d_banks,
                },
            ));
        }
        if !(0.0..1.0).contains(&self.overlap) {
            return Err(ConfigError::new(
                "overlap",
                GeometryError::OverlapOutOfRange {
                    overlap: self.overlap,
                },
            ));
        }
        Ok(())
    }

    /// Byte offset of `pc` within its fetch window.
    #[must_use]
    pub fn fetch_offset_of(&self, pc: u32) -> u32 {
        pc % self.fetch_bytes
    }

    /// The L1D bank `addr` maps to (8-byte interleave, the same mapping
    /// the execution engine applies); `0` when banking is disabled.
    #[must_use]
    pub fn l1d_bank_of(&self, addr: u32) -> u32 {
        if self.l1d_banks > 1 {
            (addr / 8) & (self.l1d_banks - 1)
        } else {
            0
        }
    }
}

/// The result of running a process to `halt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Event counters for the whole run.
    pub counters: Counters,
    /// Final architectural checksum.
    pub checksum: u64,
    /// `r1` at halt (the entry function's return value).
    pub return_value: u64,
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The program counter left the text segment.
    InvalidPc(u32),
    /// The instruction budget was exhausted.
    Budget(u64),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::InvalidPc(pc) => write!(f, "program counter {pc:#010x} outside text"),
            RunError::Budget(n) => write!(f, "instruction budget of {n} exhausted"),
        }
    }
}

impl std::error::Error for RunError {}

/// Core-side config-derived constants hoisted out of the execution loop:
/// penalties widened to `u64` once, and the overlap-scaled refill stalls
/// computed once per machine instead of once (or twice) per miss. The
/// front-end and memory-hierarchy components hoist their own shares at
/// construction. Everything here is a pure function of the
/// [`MachineConfig`], so precomputing it cannot change any counter.
#[derive(Debug, Clone, Copy)]
struct HotConfig {
    /// `log2(fetch_bytes)`: validation rejects non-power-of-two fetch
    /// windows, so the per-instruction window computation is always a
    /// shift — no per-access `Option` check survives in the run loop.
    fetch_shift: u32,
    /// `stall(l2.hit_latency)`: an L1 miss that hits in L2.
    stall_l2_hit: u64,
    /// `stall(l2.hit_latency + memory_latency)`: a miss to memory.
    stall_l2_miss: u64,
    mul_extra: u64,
    div_extra: u64,
    max_instructions: u64,
}

impl HotConfig {
    fn of(config: &MachineConfig) -> HotConfig {
        let stall = |raw: u32| ((f64::from(raw)) * (1.0 - config.overlap)).round() as u64;
        debug_assert!(
            config.fetch_bytes.is_power_of_two(),
            "validate() rejects non-power-of-two fetch windows"
        );
        HotConfig {
            fetch_shift: config.fetch_bytes.trailing_zeros(),
            stall_l2_hit: stall(config.l2.hit_latency),
            stall_l2_miss: stall(config.l2.hit_latency + config.memory_latency),
            mul_extra: u64::from(config.mul_latency),
            div_extra: u64::from(config.div_latency),
            max_instructions: config.max_instructions,
        }
    }

    #[inline]
    fn alu_extra(&self, op: biaslab_isa::AluOp) -> u64 {
        use biaslab_isa::AluOp;
        match op {
            AluOp::Mul => self.mul_extra,
            AluOp::Div | AluOp::Rem => self.div_extra,
            _ => 0,
        }
    }
}

/// The most machines one lockstep run ([`Machine::run_group`]) drives.
/// Each member holds its own caches, and larger groups would coarsen a
/// sweep's work items, so the executor is monomorphized for one to three.
pub const MAX_GROUP: usize = 3;

/// Which execution path [`Machine::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Basic-block dispatch through the decoded trace cache
    /// ([`crate::block::BlockCache`]): blocks decode once and replay
    /// precomputed summaries at block edges, with bit-identical counters.
    /// Every machine built by [`Machine::new`] runs this path.
    Block,
    /// The per-instruction loop: the test oracle that block dispatch is
    /// differentially checked against (`tests/block_differential.rs`).
    /// Reached only through [`Machine::with_kernel`].
    Collapsed,
}

/// A simulated machine instance (cold caches and predictors).
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    hot: HotConfig,
    front: FrontEnd,
    dmem: MemSystem,
    /// The shared unified L2, reached from both sides through
    /// [`L2Port`]s.
    l2: Cache,
    /// Decoded basic blocks for the block-dispatch path. Decode state,
    /// not timing state: [`Machine::reset`] keeps it, and it invalidates
    /// wholesale when the image generation changes.
    blocks: BlockCache,
    kernel: KernelMode,
}

impl Machine {
    /// Creates a cold machine, validating the configuration once. It runs
    /// block dispatch ([`KernelMode::Block`]).
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] for an inconsistent geometry —
    /// always at construction, never at access time.
    pub fn try_new(config: MachineConfig) -> Result<Machine, ConfigError> {
        config.validate()?;
        Ok(Machine {
            hot: HotConfig::of(&config),
            front: FrontEnd::new(config.l1i, config.itlb, config.branch),
            dmem: MemSystem::new(MemParams {
                l1d: config.l1d,
                dtlb: config.dtlb,
                banks: config.l1d_banks,
                bank_window: config.bank_window,
                bank_conflict_penalty: config.bank_conflict_penalty,
                next_line_prefetch: config.l1d_next_line_prefetch,
            }),
            l2: Cache::new(config.l2),
            blocks: BlockCache::new(),
            kernel: KernelMode::Block,
            config,
        })
    }

    /// Creates a cold machine.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; prefer [`Machine::try_new`]
    /// when the configuration comes from user input (e.g. an ablation
    /// sweep).
    #[must_use]
    pub fn new(config: MachineConfig) -> Machine {
        Machine::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a cold machine pinned to an execution path — what the
    /// differential tests use to check block dispatch against the
    /// per-instruction oracle ([`KernelMode::Collapsed`]).
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    #[must_use]
    pub fn with_kernel(config: MachineConfig, kernel: KernelMode) -> Machine {
        let mut m = Machine::new(config);
        m.kernel = kernel;
        m
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Lifetime hit/miss/invalidation counts of the basic-block trace
    /// cache (all zero unless a run used [`KernelMode::Block`]).
    #[must_use]
    pub fn block_stats(&self) -> BlockCacheStats {
        self.blocks.stats()
    }

    /// Number of decoded basic blocks currently live.
    #[must_use]
    pub fn blocks_live(&self) -> usize {
        self.blocks.blocks_live()
    }

    /// Returns all microarchitectural state to cold. The decoded-block
    /// cache survives: it holds decode results, not timing state, so
    /// keeping it cannot change any counter (the warm-repetition
    /// differential test pins this).
    pub fn reset(&mut self) {
        self.front.flush();
        self.dmem.flush();
        self.l2.flush();
    }

    /// Runs `process` against `exe` until `halt`: a lockstep group of one
    /// (see [`Machine::run_group`]).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InvalidPc`] if control leaves the text segment
    /// (a toolchain bug) or [`RunError::Budget`] if the configured
    /// instruction budget runs out (likely an infinite loop).
    pub fn run(&mut self, exe: &Executable, process: Process) -> Result<RunResult, RunError> {
        match self.kernel {
            KernelMode::Block => {
                Machine::run_lockstep::<1, false>([self], exe, process, None).map(|[result]| result)
            }
            KernelMode::Collapsed => self.run_loop::<false>(exe, process, None),
        }
    }

    /// Runs one process on every member machine at once: one functional
    /// pass (instructions, values, addresses, branch outcomes) drives each
    /// member's front end, memory hierarchy and shared L2, each in exactly
    /// the order it would see running the process alone, so every member's
    /// result is bit-identical to its own [`Machine::run`]. The results
    /// come back in member order.
    ///
    /// The members must share one instruction budget (`max_instructions`,
    /// which the functional pass checks), and a group of more than one runs
    /// block dispatch only: the per-instruction oracle stays a
    /// single-machine loop, so it shares no code with the lockstep path it
    /// checks.
    ///
    /// # Errors
    ///
    /// The run's [`RunError`], which is the same for every member: both
    /// kinds are properties of the functional pass.
    ///
    /// # Panics
    ///
    /// Panics on an empty group, a group of more than [`MAX_GROUP`]
    /// machines, members with different budgets, or a group of more than
    /// one that holds a [`KernelMode::Collapsed`] machine.
    pub fn run_group(
        members: &mut [Machine],
        exe: &Executable,
        process: Process,
    ) -> Result<Vec<RunResult>, RunError> {
        let budget = members.first().map(|m| m.hot.max_instructions);
        assert!(
            members
                .iter()
                .all(|m| Some(m.hot.max_instructions) == budget),
            "a lockstep group shares one instruction budget"
        );
        assert!(
            members.len() == 1 || members.iter().all(|m| m.kernel == KernelMode::Block),
            "a lockstep group of more than one runs block dispatch"
        );
        match members {
            [a] => a.run(exe, process).map(|r| vec![r]),
            [a, b] => Machine::run_lockstep::<2, false>([a, b], exe, process, None).map(Vec::from),
            [a, b, c] => {
                Machine::run_lockstep::<3, false>([a, b, c], exe, process, None).map(Vec::from)
            }
            _ => panic!(
                "a lockstep group holds 1 to {MAX_GROUP} machines, not {}",
                members.len()
            ),
        }
    }

    /// Like [`Machine::run`], additionally attributing every instruction's
    /// cycles to the function containing it: a group of one with
    /// attribution.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run_profiled(
        &mut self,
        exe: &Executable,
        process: Process,
    ) -> Result<(RunResult, crate::profile::Profile), RunError> {
        let mut attr = crate::profile::Attributor::new(exe);
        let result = match self.kernel {
            KernelMode::Block => {
                Machine::run_lockstep::<1, true>([self], exe, process, Some(&mut attr))
                    .map(|[result]| result)
            }
            KernelMode::Collapsed => self.run_loop::<true>(exe, process, Some(&mut attr)),
        }?;
        Ok((result, attr.finish()))
    }

    /// The per-instruction reference loop ([`KernelMode::Collapsed`]):
    /// every instruction is fetched, executed and charged on its own. It
    /// is the oracle the block executor is differentially tested
    /// against, so it takes none of the block path's shortcuts.
    fn run_loop<const PROFILE: bool>(
        &mut self,
        exe: &Executable,
        process: Process,
        mut attr: Option<&mut crate::profile::Attributor>,
    ) -> Result<RunResult, RunError> {
        let mut c = Counters::default();
        let mut mem = process.mem;
        let mut regs = [0u64; 32];
        regs[Reg::SP.index() as usize] = u64::from(process.sp);
        regs[Reg::GP.index() as usize] = u64::from(process.gp);
        for (i, &a) in process.args.iter().enumerate() {
            regs[1 + i] = a;
        }
        let mut pc = process.entry;
        let mut checksum = 0u64;
        let mut attributed: Option<(u32, u64)> = None;

        // The decoded text segment, addressed by word index: instruction
        // fetch is a subtract, a shift and one bounds check, replacing the
        // per-instruction `inst_at` call (base/alignment checks included —
        // a misaligned or out-of-text pc still reports `InvalidPc`, since
        // `wrapping_sub` sends addresses below the base past the end).
        let text = exe.text();
        let text_base = exe.text_base();
        let hot = self.hot;
        // Split-borrow the component graph once: the core drives the front
        // end and memory hierarchy through ports for the whole run.
        let Machine {
            ref mut front,
            ref mut dmem,
            ref mut l2,
            ..
        } = *self;
        front.begin_run();

        macro_rules! rd {
            ($r:expr) => {
                regs[$r.index() as usize]
            };
        }
        macro_rules! wr {
            ($r:expr, $v:expr) => {
                if !$r.is_zero() {
                    regs[$r.index() as usize] = $v;
                }
            };
        }
        macro_rules! l2_port {
            () => {
                L2Port::new(l2, hot.stall_l2_hit, hot.stall_l2_miss)
            };
        }

        loop {
            if PROFILE {
                if let Some(a) = attr.as_deref_mut() {
                    if let Some((prev_pc, prev_cycles)) = attributed {
                        a.record(prev_pc, c.cycles - prev_cycles);
                    }
                    attributed = Some((pc, c.cycles));
                }
            }
            if c.instructions >= hot.max_instructions {
                return Err(RunError::Budget(hot.max_instructions));
            }
            let word = pc.wrapping_sub(text_base);
            if word & 3 != 0 {
                return Err(RunError::InvalidPc(pc));
            }
            let Some(&inst) = text.get((word >> 2) as usize) else {
                return Err(RunError::InvalidPc(pc));
            };

            // --- front end (port) ------------------------------------------
            front.fetch(pc, pc >> hot.fetch_shift, &mut l2_port!(), &mut c);

            c.instructions += 1;
            c.cycles += 1;
            let next_pc = pc.wrapping_add(4);

            match inst {
                Inst::Alu { op, rd, rs1, rs2 } => {
                    wr!(rd, op.eval(rd!(rs1), rd!(rs2)));
                    let extra = hot.alu_extra(op);
                    c.cycles += extra;
                    c.stall_compute += extra;
                }
                Inst::AluImm { op, rd, rs1, imm } => {
                    wr!(rd, op.eval(rd!(rs1), op.extend_imm(imm)));
                    let extra = hot.alu_extra(op);
                    c.cycles += extra;
                    c.stall_compute += extra;
                }
                Inst::Lui { rd, imm } => wr!(rd, u64::from(imm) << 16),
                Inst::Load {
                    width,
                    rd,
                    base,
                    offset,
                } => {
                    let addr = (rd!(base) as u32).wrapping_add(offset as i32 as u32);
                    c.loads += 1;
                    let idx = c.instructions;
                    dmem.access(&mut c, addr, width.bytes(), false, idx, &mut l2_port!());
                    wr!(rd, mem.read_le(addr, width.bytes()));
                }
                Inst::Store {
                    width,
                    rs,
                    base,
                    offset,
                } => {
                    let addr = (rd!(base) as u32).wrapping_add(offset as i32 as u32);
                    c.stores += 1;
                    let idx = c.instructions;
                    dmem.access(&mut c, addr, width.bytes(), true, idx, &mut l2_port!());
                    mem.write_le(addr, width.bytes(), rd!(rs));
                }
                Inst::Branch {
                    cond,
                    rs1,
                    rs2,
                    offset,
                } => {
                    c.branches += 1;
                    let taken = cond.eval(rd!(rs1), rd!(rs2));
                    front.branch_direction(pc, taken, &mut c);
                    if taken {
                        let target = next_pc.wrapping_add(offset as u32);
                        front.taken_transfer(pc, target, &mut c);
                        pc = target;
                        continue;
                    }
                }
                Inst::Jal { rd, offset } => {
                    let target = next_pc.wrapping_add(offset as u32);
                    if rd == Reg::RA {
                        front.push_return(next_pc);
                    }
                    front.taken_transfer(pc, target, &mut c);
                    wr!(rd, u64::from(next_pc));
                    pc = target;
                    continue;
                }
                Inst::Jalr { rd, rs1, offset } => {
                    let target = (rd!(rs1) as u32).wrapping_add(offset as i32 as u32);
                    if rd.is_zero() && rs1 == Reg::RA {
                        // Return: predicted by the RAS.
                        front.predict_return(target, &mut c);
                    } else {
                        if rd == Reg::RA {
                            front.push_return(next_pc);
                        }
                        front.taken_transfer(pc, target, &mut c);
                    }
                    wr!(rd, u64::from(next_pc));
                    pc = target;
                    continue;
                }
                Inst::Chk { rs } => checksum = checksum_fold(checksum, rd!(rs)),
                Inst::Halt => {
                    return Ok(RunResult {
                        counters: c,
                        checksum,
                        return_value: regs[1],
                    });
                }
                Inst::Nop => {}
            }
            pc = next_pc;
        }
    }

    /// The block executor ([`KernelMode::Block`]) for a lockstep group of
    /// `N` members: decode each basic block once per member into its
    /// [`BlockCache`], then dispatch whole blocks over one [`RegionMem`]
    /// built from the process's pages. The first member's uops drive the
    /// one functional pass; every member replays its own block's timing
    /// summary and events. Monomorphized per group size and on `PROFILE`
    /// (profiled runs are groups of one), so a plain run carries no
    /// per-instruction bookkeeping at all.
    ///
    /// Bit-identity argument, piece by piece, for each member:
    ///
    /// * **Functional pass**: block boundaries are a function of the text
    ///   and its symbols alone (decode cuts at control transfers, symbol
    ///   starts, the length cap and the end of text), so every member
    ///   decodes the same blocks with the same uops, and one pass over the
    ///   first member's uops computes the values, addresses and branch
    ///   outcomes each member would compute alone. Only a member's fetch
    ///   tables and ALU extras depend on its configuration, so each member
    ///   decodes its own blocks for those.
    /// * **Member order**: members share no timing state. A member's
    ///   counters depend only on the order of its own events, and each
    ///   member's events below fire in its solo order; interleaving two
    ///   members' events changes neither.
    /// * **Memory**: a [`RegionMem`] holds the same bytes as the
    ///   [`PagedMem`](biaslab_toolchain::mem::PagedMem) it was built from
    ///   would after the same accesses (its property test pins this), and
    ///   no counter reads memory.
    /// * **Static counter sums** (`instructions`, base `cycles`, ALU
    ///   extras, `loads`/`stores`) are accumulated at block entry instead
    ///   of per instruction. Every counter is an order-independent sum and
    ///   nothing on this path reads an intermediate value, so hoisting is
    ///   an exact algebraic rewrite. (Profiled runs *do* read intermediate
    ///   cycles, so under `PROFILE` the statics stay per-instruction.)
    /// * **Fetch crossings** replay per I-cache line. The entry crossing
    ///   stays dynamic: whether it fires depends on the front end's
    ///   current window, exactly like the interpreted check. Every later
    ///   crossing's predecessor is the previous instruction of the block,
    ///   so it always fires; decode counts these and they join `fetches`
    ///   at block entry (no path reads `fetches` mid-block). A firing
    ///   fetch looks anything up only when its line or page differs from
    ///   the front end's, and the front end holds the previous crossing's
    ///   line and page: a firing fetch sets them, and an entry crossing
    ///   that does not fire finds them set by an earlier fetch from the
    ///   same window. Two crossings lie in different windows, so they can
    ///   share a line (or page) only if a window is smaller than one,
    ///   and then that earlier fetch shares the entry's line (or page).
    ///   So a crossing in its predecessor's line and page looks nothing
    ///   up, and decode drops it; the rest replay through
    ///   [`FrontEnd::fetch_line`] at their exact instruction positions,
    ///   preserving the I-side/D-side interleaving into the member's
    ///   shared (LRU-stateful) L2, and their lookups compare against the
    ///   front end's own line and page. A block body runs in segments cut
    ///   at every member's kept crossings, so each crossing fires before
    ///   the data access of its own instruction and after those of the
    ///   instructions before it. The block's last window is written back
    ///   after the block, where the interpreted loop leaves it. The plain,
    ///   profiled and budget paths all replay this one table.
    /// * **Bank conflicts** read the retired-instruction index; the
    ///   hoisted path reconstructs the interpreted value as
    ///   `entry_instructions + i + 1`, the same for every member.
    /// * **Budget**: members share one budget and retire the same
    ///   instructions, so one check serves them all. A block that would
    ///   cross `max_instructions` falls back to per-instruction execution
    ///   of every member with the interpreted check order, so the error
    ///   fires at the same instruction and leaves each member's warm state
    ///   identical to the interpreted path's (the window it leaves is not
    ///   warm state: every run starts by resetting it).
    /// * **Profile attribution** accrues one span per block (the entry
    ///   bucket covers the whole block because decode cuts at function
    ///   symbols); the deltas telescope to the per-instruction sums, with
    ///   the final halt's own fetch excluded via a cycle snapshot, exactly
    ///   as the interpreted attributor never records the halt.
    fn run_lockstep<const N: usize, const PROFILE: bool>(
        members: [&mut Machine; N],
        exe: &Executable,
        process: Process,
        mut attr: Option<&mut crate::profile::Attributor>,
    ) -> Result<[RunResult; N], RunError> {
        let mut mem = RegionMem::from(process.mem);
        // The uop executor's register file: 32 architectural slots, the
        // zero-write scratch slot, padded so masked indexing elides the
        // bounds check. Slots >= 32 are never read.
        let mut regs = [0u64; REG_SLOTS];
        regs[Reg::SP.index() as usize] = u64::from(process.sp);
        regs[Reg::GP.index() as usize] = u64::from(process.gp);
        for (i, &a) in process.args.iter().enumerate() {
            regs[1 + i] = a;
        }
        let mut pc = process.entry;
        let mut checksum = 0u64;
        // Current attribution span: (block entry pc, cycles at entry,
        // block length); recorded when the next block is entered.
        let mut span: Option<(u32, u64, u32)> = None;

        let text = exe.text();
        let text_base = exe.text_base();
        let max_instructions = members[0].hot.max_instructions;
        // Split-borrow each member once: its timing components become a
        // lane the core drives through ports for the whole run, and its
        // block cache a decoder.
        let (mut lanes, mut decoders) = unzip(members.map(|m| {
            m.blocks.sync(
                exe.image_generation(),
                text_base,
                text.len(),
                exe.symbols().iter().map(|s| s.addr),
            );
            m.front.begin_run();
            let dp = DecodeParams {
                text_base,
                fetch_shift: m.hot.fetch_shift,
                line_shift: m.config.l1i.line.trailing_zeros(),
                mul_extra: m.hot.mul_extra,
                div_extra: m.hot.div_extra,
            };
            let Machine {
                front,
                dmem,
                l2,
                blocks,
                hot,
                ..
            } = m;
            let lane = Lane {
                front,
                dmem,
                l2,
                hot: *hot,
                c: Counters::default(),
                li: 0,
            };
            (lane, (blocks, dp))
        }));

        macro_rules! rd {
            ($r:expr) => {
                regs[$r.index() as usize]
            };
        }
        macro_rules! wr {
            ($r:expr, $v:expr) => {
                if !$r.is_zero() {
                    regs[$r.index() as usize] = $v;
                }
            };
        }
        // One body (non-terminator) instruction on every member, with the
        // interpreted per-instruction accounting: the budget and profiled
        // paths.
        macro_rules! body_inst {
            ($inst:expr) => {{
                for lane in &mut lanes {
                    lane.c.instructions += 1;
                    lane.c.cycles += 1;
                }
                match $inst {
                    Inst::Alu { op, rd, rs1, rs2 } => {
                        wr!(rd, op.eval(rd!(rs1), rd!(rs2)));
                        for lane in &mut lanes {
                            lane.compute(op);
                        }
                    }
                    Inst::AluImm { op, rd, rs1, imm } => {
                        wr!(rd, op.eval(rd!(rs1), op.extend_imm(imm)));
                        for lane in &mut lanes {
                            lane.compute(op);
                        }
                    }
                    Inst::Lui { rd, imm } => wr!(rd, u64::from(imm) << 16),
                    Inst::Load {
                        width,
                        rd,
                        base,
                        offset,
                    } => {
                        let addr = (rd!(base) as u32).wrapping_add(offset as i32 as u32);
                        for lane in &mut lanes {
                            lane.c.loads += 1;
                            lane.data(addr, width.bytes(), false, lane.c.instructions);
                        }
                        wr!(rd, mem.read_le(addr, width.bytes()));
                    }
                    Inst::Store {
                        width,
                        rs,
                        base,
                        offset,
                    } => {
                        let addr = (rd!(base) as u32).wrapping_add(offset as i32 as u32);
                        for lane in &mut lanes {
                            lane.c.stores += 1;
                            lane.data(addr, width.bytes(), true, lane.c.instructions);
                        }
                        mem.write_le(addr, width.bytes(), rd!(rs));
                    }
                    Inst::Chk { rs } => checksum = checksum_fold(checksum, rd!(rs)),
                    Inst::Nop => {}
                    // Decode terminates blocks at control transfers, so
                    // none can appear in a body.
                    Inst::Branch { .. } | Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Halt => {
                        unreachable!("control instruction in block body")
                    }
                }
            }};
        }

        loop {
            // Same check order as the interpreted loop's block-entry
            // instruction: budget, then pc alignment/bounds. Members retire
            // the same instructions, so the first one's count serves all.
            let inst_base = lanes[0].c.instructions;
            if inst_base >= max_instructions {
                return Err(RunError::Budget(max_instructions));
            }
            let word = pc.wrapping_sub(text_base);
            if word & 3 != 0 {
                return Err(RunError::InvalidPc(pc));
            }
            let wi = word >> 2;
            if wi as usize >= text.len() {
                return Err(RunError::InvalidPc(pc));
            }
            let bs: [&DecodedBlock; N] = decoders
                .each_mut()
                .map(|(blocks, dp)| blocks.get_or_decode(wi, text, dp));
            // The first member's block drives the functional pass.
            let b = bs[0];
            if PROFILE {
                if let Some(a) = attr.as_deref_mut() {
                    if let Some((span_pc, span_cycles, span_len)) = span {
                        let cycles = lanes[0].c.cycles;
                        a.record_span(span_pc, cycles - span_cycles, u64::from(span_len));
                    }
                    span = Some((pc, lanes[0].c.cycles, b.len));
                }
            }
            for lane in &mut lanes {
                lane.li = 0;
            }
            if inst_base + u64::from(b.len) > max_instructions {
                // The budget expires inside this block: execute it per
                // instruction with the interpreted check order. The budget
                // trips before the terminator can execute (base + len >
                // max implies the check fails at index max - base < len),
                // so this path always errors — but the instructions before
                // the trip point must run in full, leaving warm machine
                // state identical to the interpreted path's.
                let body = &text[b.word as usize..(b.word + b.body_len) as usize];
                for (i, &inst) in body.iter().enumerate() {
                    if lanes[0].c.instructions >= max_instructions {
                        return Err(RunError::Budget(max_instructions));
                    }
                    for (lane, mb) in lanes.iter_mut().zip(bs) {
                        lane.crossing(mb, i as u32);
                    }
                    body_inst!(inst);
                }
                return Err(RunError::Budget(max_instructions));
            }
            for (lane, mb) in lanes.iter_mut().zip(bs) {
                lane.c.fetches += u64::from(mb.crossings);
                if !PROFILE {
                    // Replay the block's static summary in one step; see
                    // the method docs for why this is exact.
                    lane.c.instructions += u64::from(mb.len);
                    lane.c.cycles += u64::from(mb.len) + mb.extra_cycles;
                    lane.c.stall_compute += mb.extra_cycles;
                    lane.c.loads += u64::from(mb.loads);
                    lane.c.stores += u64::from(mb.stores);
                }
            }

            if PROFILE {
                // Profiled runs read intermediate cycles per instruction,
                // so they execute the raw text with full accounting.
                let body = &text[b.word as usize..(b.word + b.body_len) as usize];
                for (i, &inst) in body.iter().enumerate() {
                    for (lane, mb) in lanes.iter_mut().zip(bs) {
                        lane.crossing(mb, i as u32);
                    }
                    body_inst!(inst);
                }
            } else {
                // The uop fast path: one fused match per body instruction,
                // unconditional destination writes (decode remapped `ZERO`
                // to the scratch slot), immediates pre-extended. Each ALU
                // arm mirrors `AluOp::eval` exactly; `body_uops_match_text`
                // and the block differential tests pin the equivalence.
                macro_rules! a {
                    ($u:expr) => {
                        regs[$u.rs1 as usize & (REG_SLOTS - 1)]
                    };
                }
                macro_rules! b {
                    ($u:expr) => {
                        regs[$u.rs2 as usize & (REG_SLOTS - 1)]
                    };
                }
                macro_rules! set {
                    ($u:expr, $v:expr) => {
                        regs[$u.rd as usize & (REG_SLOTS - 1)] = $v
                    };
                }
                // Walk the body a segment at a time: replay the crossings
                // that open the segment, then run its uops in a tight
                // inner loop with no per-instruction fetch test. A segment
                // ends at the next kept crossing of any member. Order is
                // unchanged for every member — a crossing at index `idx`
                // fires immediately before the instruction at `idx`,
                // exactly as the interpreted loop interleaves them. A
                // crossing at `body_len` belongs to the terminator and
                // fires after.
                let uops = &b.uops[..];
                let mut seg_start = 0usize;
                while seg_start < uops.len() {
                    let mut seg_end = uops.len();
                    for (lane, mb) in lanes.iter_mut().zip(bs) {
                        lane.crossing(mb, seg_start as u32);
                        if let Some(f) = mb.lines.get(lane.li) {
                            seg_end = seg_end.min(f.idx as usize);
                        }
                    }
                    for (k, u) in uops[seg_start..seg_end].iter().enumerate() {
                        let i = seg_start + k;
                        match u.kind {
                            UopKind::Add => set!(u, a!(u).wrapping_add(b!(u))),
                            UopKind::Sub => set!(u, a!(u).wrapping_sub(b!(u))),
                            UopKind::Mul => set!(u, a!(u).wrapping_mul(b!(u))),
                            UopKind::Div => {
                                let d = b!(u);
                                set!(
                                    u,
                                    if d == 0 {
                                        u64::MAX
                                    } else {
                                        (a!(u) as i64).wrapping_div(d as i64) as u64
                                    }
                                );
                            }
                            UopKind::Rem => {
                                let d = b!(u);
                                set!(
                                    u,
                                    if d == 0 {
                                        a!(u)
                                    } else {
                                        (a!(u) as i64).wrapping_rem(d as i64) as u64
                                    }
                                );
                            }
                            UopKind::And => set!(u, a!(u) & b!(u)),
                            UopKind::Or => set!(u, a!(u) | b!(u)),
                            UopKind::Xor => set!(u, a!(u) ^ b!(u)),
                            UopKind::Sll => set!(u, a!(u).wrapping_shl(b!(u) as u32 & 63)),
                            UopKind::Srl => set!(u, a!(u).wrapping_shr(b!(u) as u32 & 63)),
                            UopKind::Sra => {
                                set!(u, (a!(u) as i64).wrapping_shr(b!(u) as u32 & 63) as u64);
                            }
                            UopKind::Slt => set!(u, u64::from((a!(u) as i64) < (b!(u) as i64))),
                            UopKind::Sltu => set!(u, u64::from(a!(u) < b!(u))),
                            UopKind::Seq => set!(u, u64::from(a!(u) == b!(u))),
                            UopKind::Sne => set!(u, u64::from(a!(u) != b!(u))),
                            UopKind::AddI => set!(u, a!(u).wrapping_add(u.imm)),
                            UopKind::SubI => set!(u, a!(u).wrapping_sub(u.imm)),
                            UopKind::MulI => set!(u, a!(u).wrapping_mul(u.imm)),
                            UopKind::DivI => {
                                set!(
                                    u,
                                    if u.imm == 0 {
                                        u64::MAX
                                    } else {
                                        (a!(u) as i64).wrapping_div(u.imm as i64) as u64
                                    }
                                );
                            }
                            UopKind::RemI => {
                                set!(
                                    u,
                                    if u.imm == 0 {
                                        a!(u)
                                    } else {
                                        (a!(u) as i64).wrapping_rem(u.imm as i64) as u64
                                    }
                                );
                            }
                            UopKind::AndI => set!(u, a!(u) & u.imm),
                            UopKind::OrI => set!(u, a!(u) | u.imm),
                            UopKind::XorI => set!(u, a!(u) ^ u.imm),
                            UopKind::SllI => set!(u, a!(u).wrapping_shl(u.imm as u32 & 63)),
                            UopKind::SrlI => set!(u, a!(u).wrapping_shr(u.imm as u32 & 63)),
                            UopKind::SraI => {
                                set!(u, (a!(u) as i64).wrapping_shr(u.imm as u32 & 63) as u64);
                            }
                            UopKind::SltI => set!(u, u64::from((a!(u) as i64) < (u.imm as i64))),
                            UopKind::SltuI => set!(u, u64::from(a!(u) < u.imm)),
                            UopKind::SeqI => set!(u, u64::from(a!(u) == u.imm)),
                            UopKind::SneI => set!(u, u64::from(a!(u) != u.imm)),
                            UopKind::Lui => set!(u, u.imm),
                            UopKind::Load => {
                                let addr = (a!(u) as u32).wrapping_add(u.imm as u32);
                                let idx = inst_base + i as u64 + 1;
                                let width = u32::from(u.width);
                                for lane in &mut lanes {
                                    lane.data(addr, width, false, idx);
                                }
                                set!(u, mem.read_le(addr, width));
                            }
                            UopKind::Store => {
                                let addr = (a!(u) as u32).wrapping_add(u.imm as u32);
                                let idx = inst_base + i as u64 + 1;
                                let width = u32::from(u.width);
                                for lane in &mut lanes {
                                    lane.data(addr, width, true, idx);
                                }
                                mem.write_le(addr, width, b!(u));
                            }
                            UopKind::Chk => checksum = checksum_fold(checksum, a!(u)),
                            UopKind::Nop => {}
                        }
                    }
                    seg_start = seg_end;
                }
            }

            // Cycles at the terminator's top, before its fetch: the halt
            // is never attributed, so its span ends here.
            let cycles_at_term = if PROFILE { lanes[0].c.cycles } else { 0 };
            // The terminator's crossing: the entry's when the body is
            // empty, else the one kept line crossing left, if any (a cut
            // block has none). Then the window the block leaves.
            for (lane, mb) in lanes.iter_mut().zip(bs) {
                if mb.body_len == 0 {
                    lane.fetch(mb.entry, mb.entry_window);
                } else if let Some(f) = mb.lines.get(lane.li) {
                    lane.fetch_line(f.pc);
                }
                lane.front.set_window(mb.last_window);
            }
            if b.body_len == b.len {
                // Cut block (symbol boundary, length cap, end of text):
                // no terminator, fall through.
                pc = b.next_pc;
                continue;
            }
            if PROFILE {
                for lane in &mut lanes {
                    lane.c.instructions += 1;
                    lane.c.cycles += 1;
                }
            }
            match b.end {
                BlockEnd::Branch {
                    cond,
                    rs1,
                    rs2,
                    taken_target,
                } => {
                    let taken = cond.eval(rd!(rs1), rd!(rs2));
                    for lane in &mut lanes {
                        lane.c.branches += 1;
                        lane.front.branch_direction(b.term_pc, taken, &mut lane.c);
                        if taken {
                            lane.front
                                .taken_transfer(b.term_pc, taken_target, &mut lane.c);
                        }
                    }
                    pc = if taken { taken_target } else { b.next_pc };
                }
                BlockEnd::Jal { rd, target } => {
                    for lane in &mut lanes {
                        if rd == Reg::RA {
                            lane.front.push_return(b.next_pc);
                        }
                        lane.front.taken_transfer(b.term_pc, target, &mut lane.c);
                    }
                    wr!(rd, u64::from(b.next_pc));
                    pc = target;
                }
                BlockEnd::Jalr { rd, rs1, offset } => {
                    let target = (rd!(rs1) as u32).wrapping_add(offset as i32 as u32);
                    for lane in &mut lanes {
                        if rd.is_zero() && rs1 == Reg::RA {
                            // Return: predicted by the RAS.
                            lane.front.predict_return(target, &mut lane.c);
                        } else {
                            if rd == Reg::RA {
                                lane.front.push_return(b.next_pc);
                            }
                            lane.front.taken_transfer(b.term_pc, target, &mut lane.c);
                        }
                    }
                    wr!(rd, u64::from(b.next_pc));
                    pc = target;
                }
                BlockEnd::Halt => {
                    if PROFILE {
                        if let Some(a) = attr.as_deref_mut() {
                            if let Some((span_pc, span_cycles, _)) = span {
                                a.record_span(
                                    span_pc,
                                    cycles_at_term - span_cycles,
                                    u64::from(b.body_len),
                                );
                            }
                        }
                    }
                    let return_value = regs[1];
                    return Ok(lanes.map(|lane| RunResult {
                        counters: lane.c,
                        checksum,
                        return_value,
                    }));
                }
                BlockEnd::FallThrough => unreachable!("cut blocks have no terminator"),
            }
        }
    }
}

/// One member of a lockstep run: the machine's timing components, the
/// counters they charge, and its cursor into the current block's kept
/// line crossings ([`DecodedBlock::lines`]).
struct Lane<'m> {
    front: &'m mut FrontEnd,
    dmem: &'m mut MemSystem,
    l2: &'m mut Cache,
    hot: HotConfig,
    c: Counters,
    li: usize,
}

impl Lane<'_> {
    /// The front end's fetch of `pc` in `window`, through the L2 port.
    #[inline(always)]
    fn fetch(&mut self, pc: u32, window: u32) {
        let mut l2 = L2Port::new(self.l2, self.hot.stall_l2_hit, self.hot.stall_l2_miss);
        self.front.fetch(pc, window, &mut l2, &mut self.c);
    }

    /// The front end's replay of a kept line crossing at `pc`.
    #[inline(always)]
    fn fetch_line(&mut self, pc: u32) {
        let mut l2 = L2Port::new(self.l2, self.hot.stall_l2_hit, self.hot.stall_l2_miss);
        self.front.fetch_line(pc, &mut l2, &mut self.c);
    }

    /// Replays the fetch crossing that belongs to instruction `i` of `b`,
    /// if any: the entry's same-window check at 0, a kept line crossing
    /// elsewhere.
    #[inline(always)]
    fn crossing(&mut self, b: &DecodedBlock, i: u32) {
        if i == 0 {
            self.fetch(b.entry, b.entry_window);
        } else if let Some(f) = b.lines.get(self.li).filter(|f| f.idx == i) {
            self.fetch_line(f.pc);
            self.li += 1;
        }
    }

    /// One data access of retired instruction `idx`: the fused fast path,
    /// and the L2 port only when it misses.
    #[inline(always)]
    fn data(&mut self, addr: u32, width: u32, is_store: bool, idx: u64) {
        if !self
            .dmem
            .access_fast(&mut self.c, addr, width, is_store, idx)
        {
            let mut l2 = L2Port::new(self.l2, self.hot.stall_l2_hit, self.hot.stall_l2_miss);
            self.dmem
                .access_lines(&mut self.c, addr, width, is_store, &mut l2);
        }
    }

    /// An ALU instruction's extra cycles on this member.
    #[inline(always)]
    fn compute(&mut self, op: biaslab_isa::AluOp) {
        let extra = self.hot.alu_extra(op);
        self.c.cycles += extra;
        self.c.stall_compute += extra;
    }
}

/// Splits an array of pairs into a pair of arrays.
fn unzip<A, B, const N: usize>(pairs: [(A, B); N]) -> ([A; N], [B; N]) {
    let mut seconds: [Option<B>; N] = std::array::from_fn(|_| None);
    let mut i = 0;
    let firsts = pairs.map(|(a, b)| {
        seconds[i] = Some(b);
        i += 1;
        a
    });
    (firsts, seconds.map(|b| b.expect("every pair was split")))
}

#[cfg(test)]
mod tests {
    use biaslab_toolchain::codegen::compile;
    use biaslab_toolchain::link::Linker;
    use biaslab_toolchain::load::{Environment, Loader};
    use biaslab_toolchain::opt::{optimize, OptLevel};
    use biaslab_toolchain::ModuleBuilder;

    use super::*;

    fn build_exe(level: OptLevel) -> Executable {
        let mut mb = ModuleBuilder::new();
        mb.function("main", 1, true, |fb| {
            let n = fb.param(0);
            let acc = fb.local_scalar();
            let z = fb.const_(0);
            fb.set(acc, z);
            let i = fb.local_scalar();
            fb.counted_loop(i, 0, n, 1, |fb, iv| {
                let a = fb.get(acc);
                let t = fb.mul_imm(iv, 3);
                let s = fb.add(a, t);
                fb.set(acc, s);
            });
            let r = fb.get(acc);
            fb.chk(r);
            fb.ret(Some(r));
        });
        let m = mb.finish().unwrap();
        Linker::new()
            .link(&compile(&optimize(&m, level), level), "main")
            .unwrap()
    }

    fn run(exe: &Executable, env: &Environment, args: &[u64]) -> RunResult {
        let process = Loader::new().load(exe, env, args).unwrap();
        Machine::new(MachineConfig::core2())
            .run(exe, process)
            .unwrap()
    }

    #[test]
    fn computes_correct_results() {
        let exe = build_exe(OptLevel::O0);
        let r = run(&exe, &Environment::new(), &[10]);
        // sum of 3*i for i in 0..10 = 3*45
        assert_eq!(r.return_value, 135);
    }

    #[test]
    fn all_levels_agree_on_semantics() {
        let expected = run(&build_exe(OptLevel::O0), &Environment::new(), &[50]);
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            let r = run(&build_exe(level), &Environment::new(), &[50]);
            assert_eq!(r.return_value, expected.return_value, "{level}");
            assert_eq!(r.checksum, expected.checksum, "{level}");
        }
    }

    #[test]
    fn o2_is_faster_than_o0() {
        let slow = run(&build_exe(OptLevel::O0), &Environment::new(), &[500]);
        let fast = run(&build_exe(OptLevel::O2), &Environment::new(), &[500]);
        assert!(
            fast.counters.cycles < slow.counters.cycles,
            "O2 {} vs O0 {}",
            fast.counters.cycles,
            slow.counters.cycles
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let exe = build_exe(OptLevel::O2);
        let env = Environment::of_total_size(512);
        let a = run(&exe, &env, &[100]);
        let b = run(&exe, &env, &[100]);
        assert_eq!(a, b);
    }

    #[test]
    fn environment_changes_only_timing_not_semantics() {
        let exe = build_exe(OptLevel::O2);
        let a = run(&exe, &Environment::of_total_size(0), &[100]);
        let b = run(&exe, &Environment::of_total_size(4000), &[100]);
        assert_eq!(a.return_value, b.return_value);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.counters.instructions, b.counters.instructions);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut mb = ModuleBuilder::new();
        mb.function("spin", 0, false, |fb| {
            let b = fb.new_block();
            fb.jump(b);
            fb.switch_to(b);
            fb.jump(b);
        });
        let m = mb.finish().unwrap();
        let exe = Linker::new()
            .link(&compile(&optimize(&m, OptLevel::O0), OptLevel::O0), "spin")
            .unwrap();
        let mut config = MachineConfig::core2();
        config.max_instructions = 10_000;
        let process = Loader::new().load(&exe, &Environment::new(), &[]).unwrap();
        let err = Machine::new(config).run(&exe, process).unwrap_err();
        assert_eq!(err, RunError::Budget(10_000));
    }

    #[test]
    fn presets_validate() {
        for m in MachineConfig::all() {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name));
        }
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let mut m = MachineConfig::core2();
        m.l1d.ways = 3;
        assert!(m.validate().is_err());
        let mut m = MachineConfig::core2();
        m.branch.btb_entries = 100;
        assert!(m.validate().is_err());
        let mut m = MachineConfig::core2();
        m.overlap = 1.5;
        assert!(m.validate().is_err());
        let mut m = MachineConfig::core2();
        m.fetch_bytes = 5;
        assert!(m.validate().is_err());
        let mut m = MachineConfig::core2();
        m.dtlb.ways = 3;
        assert!(m.validate().is_err());
    }

    #[test]
    fn bad_geometry_is_rejected_at_construction_not_access_time() {
        let mut bad = MachineConfig::core2();
        bad.l1d.size = 384 * 64; // 3 sets at 8 ways × 64 B lines
        let err = Machine::try_new(bad).expect_err("inconsistent geometry");
        assert_eq!(err.unit, "l1d");
        assert!(err.to_string().contains("power of two"));
        // A validated machine simulates with no geometry checks left on
        // the access path — the whole point of construction-time
        // validation.
        let exe = build_exe(OptLevel::O2);
        let process = Loader::new()
            .load(&exe, &Environment::new(), &[50])
            .unwrap();
        Machine::try_new(MachineConfig::core2())
            .expect("presets are valid")
            .run(&exe, process)
            .expect("valid machine runs");
    }

    #[test]
    fn machines_differ_in_cycle_counts() {
        let exe = build_exe(OptLevel::O2);
        let mut cycles = Vec::new();
        for config in MachineConfig::all() {
            let process = Loader::new()
                .load(&exe, &Environment::new(), &[200])
                .unwrap();
            let r = Machine::new(config).run(&exe, process).unwrap();
            cycles.push(r.counters.cycles);
        }
        assert!(cycles.windows(2).any(|w| w[0] != w[1]), "{cycles:?}");
    }

    #[test]
    fn block_dispatch_matches_the_per_instruction_loop_bit_for_bit() {
        // Block dispatch is an optimization, not a semantic: the
        // per-instruction oracle must reproduce every counter exactly.
        let exe = build_exe(OptLevel::O2);
        for config in MachineConfig::all() {
            let run_with = |mode: KernelMode| {
                let process = Loader::new()
                    .load(&exe, &Environment::of_total_size(512), &[300])
                    .unwrap();
                Machine::with_kernel(config.clone(), mode)
                    .run(&exe, process)
                    .unwrap()
            };
            let block = run_with(KernelMode::Block);
            let oracle = run_with(KernelMode::Collapsed);
            assert_eq!(block, oracle, "{}", config.name);
        }
    }

    #[test]
    #[should_panic(expected = "one instruction budget")]
    fn a_lockstep_group_shares_one_budget() {
        let exe = build_exe(OptLevel::O2);
        let process = Loader::new()
            .load(&exe, &Environment::new(), &[10])
            .unwrap();
        let mut short = MachineConfig::core2();
        short.max_instructions = 1_000;
        let mut members = [Machine::new(MachineConfig::core2()), Machine::new(short)];
        let _ = Machine::run_group(&mut members, &exe, process);
    }

    #[test]
    fn new_machines_run_block_dispatch() {
        let exe = build_exe(OptLevel::O2);
        let process = Loader::new()
            .load(&exe, &Environment::new(), &[50])
            .unwrap();
        let mut m = Machine::new(MachineConfig::core2());
        m.run(&exe, process).unwrap();
        assert!(m.block_stats().misses > 0, "no block was decoded");
    }

    #[test]
    fn profiling_attributes_cycles_to_functions() {
        let exe = build_exe(OptLevel::O2);
        let process = Loader::new()
            .load(&exe, &Environment::new(), &[200])
            .unwrap();
        let (result, profile) = Machine::new(MachineConfig::core2())
            .run_profiled(&exe, process)
            .unwrap();
        assert_eq!(profile.hottest(), Some("main"));
        let attributed = profile.total_cycles();
        // Everything except the final halt instruction is attributed.
        assert!(attributed <= result.counters.cycles);
        assert!(
            attributed >= result.counters.cycles - 10,
            "attributed {attributed} vs total {}",
            result.counters.cycles
        );
        // Profiling must not change the measurement itself.
        let process = Loader::new()
            .load(&exe, &Environment::new(), &[200])
            .unwrap();
        let plain = Machine::new(MachineConfig::core2())
            .run(&exe, process)
            .unwrap();
        assert_eq!(plain.counters, result.counters);
    }

    #[test]
    fn stall_categories_account_for_all_extra_cycles() {
        let exe = build_exe(OptLevel::O0);
        let process = Loader::new()
            .load(&exe, &Environment::new(), &[300])
            .unwrap();
        let r = Machine::new(MachineConfig::pentium4())
            .run(&exe, process)
            .unwrap();
        let c = &r.counters;
        // cycles = 1 per instruction + attributed stalls, exactly.
        assert_eq!(c.cycles, c.instructions + c.stall_total());
    }

    #[test]
    fn next_line_prefetch_reduces_streaming_misses() {
        let exe = build_exe(OptLevel::O2);
        let run_with = |prefetch: bool| {
            let mut config = MachineConfig::core2();
            config.l1d_next_line_prefetch = prefetch;
            let process = Loader::new()
                .load(&exe, &Environment::new(), &[400])
                .unwrap();
            Machine::new(config).run(&exe, process).unwrap()
        };
        let off = run_with(false);
        let on = run_with(true);
        assert_eq!(on.checksum, off.checksum, "prefetch never changes results");
        assert!(
            on.counters.l1d_misses <= off.counters.l1d_misses,
            "prefetch must not add demand misses ({} vs {})",
            on.counters.l1d_misses,
            off.counters.l1d_misses
        );
    }

    #[test]
    fn counters_are_internally_consistent() {
        let exe = build_exe(OptLevel::O2);
        let r = run(&exe, &Environment::new(), &[100]);
        let c = &r.counters;
        assert!(c.cycles >= c.instructions);
        assert!(c.l1d_misses <= c.l1d_accesses);
        assert!(c.mispredicts <= c.branches);
        assert!(c.loads + c.stores <= c.l1d_accesses);
        assert!(c.instructions > 0);
    }
}
