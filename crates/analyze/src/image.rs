//! Address-space analyses of a linked process image.
//!
//! Layer 2 of the analyzer: every metric here is a pure function of the
//! image's addresses and the machine's indexing geometry (exposed by the
//! `biaslab-uarch` configuration types) — no instruction is decoded for
//! its semantics beyond identifying control transfers, and nothing runs.
//!
//! The metrics mirror the simulator's bias channels one-to-one:
//! hotness-weighted L1I/L2 set pressure (conflict misses),
//! BTB/gshare index collisions between hot branch sites (mispredict and
//! refill churn), fetch-window straddles at function entries and loop
//! headers (front-end waste), and stack-placement residue classes as a
//! function of the environment size (the env-size channel).

use std::collections::BTreeMap;

use biaslab_isa::Inst;
use biaslab_toolchain::layout::{align_down, PAGE_SIZE, STACK_ALIGN, STACK_TOP};
use biaslab_toolchain::link::Executable;
use biaslab_toolchain::load::Environment;
use biaslab_uarch::MachineConfig;

use crate::hotness::ModuleHotness;

/// A static control-transfer site in the linked text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchSite {
    /// Address of the transfer instruction.
    pub pc: u32,
    /// Taken-path target address.
    pub target: u32,
    /// `true` for conditional branches (gshare-predicted), `false` for
    /// direct jumps/calls (BTB only).
    pub conditional: bool,
    /// Compressed hotness weight of the containing function.
    pub weight: f64,
}

/// Weighted set pressure: how much of the hot code mapped to a cache's
/// sets cannot co-reside.
#[derive(Debug, Clone)]
pub struct SetPressure {
    /// Weighted fraction of lines that exceed their set's associativity
    /// (each set keeps its `ways` heaviest lines; the rest overflow).
    pub overflow: f64,
}

/// Everything layer 2 extracts from one linked image.
#[derive(Debug, Clone)]
pub struct ImageFacts {
    /// Text segment size in bytes.
    pub text_bytes: u32,
    /// Total compressed weight of analyzed functions.
    pub total_weight: f64,
    /// L1I set pressure.
    pub l1i: SetPressure,
    /// L2 set pressure (code footprint only).
    pub l2: SetPressure,
    /// I-TLB set pressure over code pages.
    pub itlb: SetPressure,
    /// Hot control-transfer sites found in the text.
    pub branch_sites: Vec<BranchSite>,
    /// Weighted fraction of transfer executions predicted to collide in
    /// the direct-mapped BTB (two hot sites sharing a slot).
    pub btb_conflict: f64,
    /// Weighted fraction of conditional-branch executions whose gshare
    /// index collides with another hot branch for every history value.
    pub gshare_conflict: f64,
    /// Weighted mean fetch-window offset of hot entry points (function
    /// entries and loop headers), in `[0, 1)`: `0` means every hot
    /// target starts a full window, values near `1` waste most of the
    /// first fetch.
    pub entry_straddle: f64,
    /// Weighted mean *excess* fetch windows spanned by hot loop bodies,
    /// relative to the best possible alignment: a loop of `k`
    /// instructions needs `⌈4k / fetch⌉` windows at best; starting it
    /// mid-window costs one more every iteration. In `[0, 1]`.
    pub loop_fetch_excess: f64,
    /// Same, for I-cache lines: excess lines spanned by hot loop bodies
    /// relative to perfect line alignment. In `[0, 1]`.
    pub loop_line_excess: f64,
    /// Weighted fraction of hot functions whose body crosses a page
    /// boundary (extra I-TLB reach).
    pub page_crossers: f64,
}

/// Computes every address-space metric for `exe` under `machine`,
/// weighting by the IR-derived `hotness` (symbol names match function
/// names).
///
/// # Panics
///
/// Panics if the machine geometry is inconsistent (non-power-of-two set
/// counts).
#[must_use]
pub fn image_facts(
    exe: &Executable,
    hotness: &ModuleHotness,
    machine: &MachineConfig,
) -> ImageFacts {
    // Function address ranges, heaviest-first not needed: keep symbol order.
    let text_end = exe.text_base() + exe.text_size();
    let funcs: Vec<(&str, u32, u32, f64)> = exe
        .symbols()
        .iter()
        .filter(|s| s.addr >= exe.text_base() && s.addr < text_end && s.size > 0)
        .map(|s| {
            (
                s.name.as_str(),
                s.addr,
                s.size,
                hotness.image_weight(&s.name),
            )
        })
        .collect();
    let total_weight: f64 = funcs.iter().map(|f| f.3).sum();

    // --- cache-set and TLB-set pressure ---------------------------------
    let l1i = set_pressure(
        machine.l1i.ways as usize,
        &funcs,
        |addr| (machine.l1i.set_of(addr), machine.l1i.tag_of(addr)),
        machine.l1i.line,
    );
    let l2 = set_pressure(
        machine.l2.ways as usize,
        &funcs,
        |addr| (machine.l2.set_of(addr), machine.l2.tag_of(addr)),
        machine.l2.line,
    );
    let itlb = set_pressure(
        machine.itlb.ways as usize,
        &funcs,
        |addr| (machine.itlb.set_of(addr), machine.itlb.tag_of(addr)),
        PAGE_SIZE,
    );

    // --- control-transfer sites ----------------------------------------
    let weight_at = |pc: u32| -> f64 {
        funcs
            .iter()
            .find(|&&(_, addr, size, _)| pc >= addr && pc < addr + size)
            .map_or(0.0, |f| f.3)
    };
    let mut branch_sites = Vec::new();
    for (i, inst) in exe.text().iter().enumerate() {
        let pc = exe.text_base() + 4 * i as u32;
        match *inst {
            Inst::Branch { offset, .. } => branch_sites.push(BranchSite {
                pc,
                target: pc.wrapping_add(4).wrapping_add(offset as u32),
                conditional: true,
                weight: weight_at(pc),
            }),
            Inst::Jal { offset, .. } => branch_sites.push(BranchSite {
                pc,
                target: pc.wrapping_add(4).wrapping_add(offset as u32),
                conditional: false,
                weight: weight_at(pc),
            }),
            _ => {}
        }
    }

    let btb_conflict = index_conflict(
        branch_sites
            .iter()
            .map(|s| (machine.branch.btb_index(s.pc), s.weight)),
    );
    let gshare_conflict = index_conflict(
        branch_sites
            .iter()
            .filter(|s| s.conditional)
            .map(|s| (machine.branch.gshare_index(s.pc, 0), s.weight)),
    );

    // --- fetch-window straddles at hot entry points --------------------
    // Hot targets: function entries, plus loop headers (targets of
    // backward transfers — the only way this ISA forms a loop).
    let mut targets: Vec<(u32, f64)> = funcs.iter().map(|&(_, addr, _, w)| (addr, w)).collect();
    targets.extend(
        branch_sites
            .iter()
            .filter(|s| s.target <= s.pc)
            .map(|s| (s.target, s.weight)),
    );
    let mut straddle = 0.0;
    let mut straddle_w = 0.0;
    for &(t, w) in &targets {
        straddle += w * f64::from(machine.fetch_offset_of(t)) / f64::from(machine.fetch_bytes);
        straddle_w += w;
    }
    let entry_straddle = if straddle_w > 0.0 {
        straddle / straddle_w
    } else {
        0.0
    };

    // --- loop-body footprint vs best alignment -------------------------
    // A backward transfer `pc → t` closes a loop body `[t, pc+4)`; the
    // number of fetch windows (and I-cache lines) that body spans depends
    // on where the linker put `t` modulo the window (line) size — the
    // front-end cost the link order and text offset actually move on
    // small codes.
    let (loop_fetch_excess, loop_line_excess) = {
        let mut fe = 0.0;
        let mut le = 0.0;
        let mut w_sum = 0.0;
        for s in branch_sites.iter().filter(|s| s.target <= s.pc) {
            let bytes = f64::from(s.pc + 4 - s.target);
            let spans = |granule: u32| -> f64 {
                let actual = f64::from(s.pc / granule - s.target / granule + 1);
                let best = (bytes / f64::from(granule)).ceil();
                (actual / best - 1.0).clamp(0.0, 1.0)
            };
            fe += s.weight * spans(machine.fetch_bytes);
            le += s.weight * spans(machine.l1i.line);
            w_sum += s.weight;
        }
        if w_sum > 0.0 {
            (fe / w_sum, le / w_sum)
        } else {
            (0.0, 0.0)
        }
    };

    let crossers = funcs
        .iter()
        .filter(|&&(_, addr, size, _)| addr / PAGE_SIZE != (addr + size - 1) / PAGE_SIZE)
        .map(|f| f.3)
        .sum::<f64>()
        // An empty sum is -0.0; `+ 0.0` normalizes the sign so the
        // report never prints "-0.0000".
        + 0.0;
    let page_crossers = if total_weight > 0.0 {
        crossers / total_weight
    } else {
        0.0
    };

    ImageFacts {
        text_bytes: exe.text_size(),
        total_weight,
        l1i,
        l2,
        itlb,
        branch_sites,
        btb_conflict,
        gshare_conflict,
        entry_straddle,
        loop_fetch_excess,
        loop_line_excess,
        page_crossers,
    }
}

/// Measures the weight of the lines (of `granule` bytes) covered by each
/// function range that exceeds their set's associativity, as a fraction
/// of the weight of all distinct lines. Only the sets the code maps to
/// are visited: the distinct `(set, tag)` lines, sorted.
fn set_pressure(
    ways: usize,
    funcs: &[(&str, u32, u32, f64)],
    index: impl Fn(u32) -> (u32, u32),
    granule: u32,
) -> SetPressure {
    let mut lines: Vec<(u32, u32, f64)> = Vec::new();
    for &(_, addr, size, w) in funcs {
        if w == 0.0 {
            continue;
        }
        let first = addr / granule;
        let last = (addr + size - 1) / granule;
        lines.extend((first..=last).map(|line| {
            let (set, tag) = index(line * granule);
            (set, tag, w)
        }));
    }
    // The same line touched twice is still one way, at its heaviest.
    lines.sort_unstable_by_key(|&(set, tag, _)| (set, tag));
    lines.dedup_by(|next, kept| {
        let same = (next.0, next.1) == (kept.0, kept.1);
        if same {
            kept.2 = kept.2.max(next.2);
        }
        same
    });
    let (mut total, mut over) = (0.0, 0.0);
    let mut ws: Vec<f64> = Vec::new();
    for set in lines.chunk_by(|a, b| a.0 == b.0) {
        ws.clear();
        ws.extend(set.iter().map(|l| l.2));
        total += ws.iter().sum::<f64>();
        if ws.len() > ways {
            ws.sort_by(|a, b| b.partial_cmp(a).expect("weights are finite"));
            over += ws[ways..].iter().sum::<f64>();
        }
    }
    SetPressure {
        overflow: if total > 0.0 { over / total } else { 0.0 },
    }
}

/// Weighted conflict mass of sites grouped by a direct-mapped index:
/// within each index, everything but the heaviest site is in conflict.
/// Returns the conflicting weight as a fraction of the total. Groups are
/// summed in index order, so the result is one function of the sites,
/// bit for bit.
fn index_conflict(sites: impl Iterator<Item = (u32, f64)>) -> f64 {
    let mut groups: BTreeMap<u32, (f64, f64)> = BTreeMap::new(); // (sum, max)
    for (idx, w) in sites {
        let g = groups.entry(idx).or_insert((0.0, 0.0));
        g.0 += w;
        g.1 = g.1.max(w);
    }
    let total: f64 = groups.values().map(|g| g.0).sum();
    if total == 0.0 {
        return 0.0;
    }
    groups.values().map(|g| g.0 - g.1).sum::<f64>() / total
}

/// How the initial stack placement responds to the environment size:
/// the loader's arithmetic (`sp = align_down(STACK_TOP - env_bytes -
/// shift, 16)`) evaluated over a grid of environment sizes, classified
/// by the machine's L1D line, set, and bank mappings.
#[derive(Debug, Clone)]
pub struct StackFacts {
    /// Distinct L1D bank residues of `sp` over the grid.
    pub bank_classes: u32,
    /// Distinct line offsets (`sp mod line`) over the grid.
    pub line_classes: u32,
    /// Distinct L1D set indices of the top stack line over the grid.
    pub set_classes: u32,
    /// Distinct D-TLB sets of the top stack page over the grid.
    pub dtlb_classes: u32,
    /// Hotness-weighted stack operations (locals traffic plus the
    /// implicit frame push/pop traffic of call executions).
    pub stack_traffic: f64,
    /// Hotness-weighted pointer memory operations (globals/heap traffic).
    pub mem_traffic: f64,
    /// Hotness-weighted conditional-branch executions.
    pub branch_traffic: f64,
    /// Hotness-weighted total operations.
    pub total_traffic: f64,
    /// Per-frame share of the hot stack traffic, keyed by
    /// `(function, frame bytes)` and sorted — the level's "frame
    /// profile". Two optimization levels whose profiles match keep
    /// their hot stack traffic in identically-shaped frames, so a stack
    /// shift moves both levels' residues in lockstep and the response
    /// cancels out of the O3/O2 ratio; inlining re-homes traffic and
    /// resizes frames, making the profiles diverge.
    pub stack_profile: Vec<((String, u32), f64)>,
}

impl StackFacts {
    /// Evaluates the loader's stack placement for every environment size
    /// in `env_sizes` (bytes, as accepted by
    /// [`Environment::of_total_size`]) on `machine`, and summarizes the
    /// module's static stack/memory traffic mix from `hotness`.
    ///
    /// # Panics
    ///
    /// Panics if the machine geometry is inconsistent.
    #[must_use]
    pub fn of(hotness: &ModuleHotness, machine: &MachineConfig, env_sizes: &[u32]) -> StackFacts {
        let mut banks = Vec::new();
        let mut lines = Vec::new();
        let mut sets = Vec::new();
        let mut dtlbs = Vec::new();
        for &bytes in env_sizes {
            let env = Environment::of_total_size(bytes);
            let sp = align_down(STACK_TOP - env.stack_bytes(), STACK_ALIGN);
            banks.push(machine.l1d_bank_of(sp));
            lines.push(sp % machine.l1d.line);
            sets.push(machine.l1d.set_of(sp));
            dtlbs.push(machine.dtlb.set_of(sp.saturating_sub(1)));
        }
        let distinct = |v: &mut Vec<u32>| -> u32 {
            v.sort_unstable();
            v.dedup();
            v.len() as u32
        };
        let (stack_traffic, mem_traffic, _call_traffic, branch_traffic, total_traffic) =
            hotness.traffic();
        let mut stack_profile: Vec<((String, u32), f64)> = hotness
            .functions
            .iter()
            .map(|f| ((f.name.clone(), f.frame), f.weight * f.stack_ops))
            .filter(|(_, s)| *s > 0.0)
            .collect();
        let profile_total: f64 = stack_profile.iter().map(|(_, s)| s).sum();
        if profile_total > 0.0 {
            for (_, s) in &mut stack_profile {
                *s /= profile_total;
            }
        }
        stack_profile.sort_by(|a, b| a.0.cmp(&b.0));
        StackFacts {
            bank_classes: distinct(&mut banks),
            line_classes: distinct(&mut lines),
            set_classes: distinct(&mut sets),
            dtlb_classes: distinct(&mut dtlbs),
            stack_traffic,
            mem_traffic,
            branch_traffic,
            total_traffic,
            stack_profile,
        }
    }

    /// The paired-stream intensity in `[0, 1]`: how much of the hot
    /// memory traffic alternates between stack and non-stack streams —
    /// the precondition for the bank/set ping-pong that makes the
    /// env-size channel bite.
    #[must_use]
    pub fn paired_traffic(&self) -> f64 {
        let total = self.stack_traffic + self.mem_traffic;
        if total == 0.0 {
            return 0.0;
        }
        2.0 * self.stack_traffic.min(self.mem_traffic) / total
    }

    /// Fraction of hot operations that touch memory at all (clamped:
    /// the implicit call traffic is counted on top of the IR ops).
    #[must_use]
    pub fn memory_intensity(&self) -> f64 {
        if self.total_traffic == 0.0 {
            return 0.0;
        }
        ((self.stack_traffic + self.mem_traffic) / self.total_traffic).min(1.0)
    }

    /// Fraction of hot operations that are conditional branches — how
    /// front-end-bound the hot code is, and therefore how much a
    /// fetch/alignment perturbation can move total cycles.
    #[must_use]
    pub fn branch_density(&self) -> f64 {
        if self.total_traffic == 0.0 {
            return 0.0;
        }
        self.branch_traffic / self.total_traffic
    }
}

#[cfg(test)]
mod tests {
    use biaslab_toolchain::codegen::compile;
    use biaslab_toolchain::link::Linker;
    use biaslab_toolchain::opt::{optimize, OptLevel};
    use biaslab_workloads::suite;

    use super::*;

    fn facts_for(bench: usize, machine: &MachineConfig) -> (ImageFacts, ModuleHotness) {
        let b = &suite()[bench];
        let opt = optimize(b.module(), OptLevel::O2);
        let hot = ModuleHotness::of(&opt, b.entry(), OptLevel::O2);
        let compiled = compile(&opt, OptLevel::O2);
        let exe = Linker::new().link(&compiled, b.entry()).expect("links");
        (image_facts(&exe, &hot, machine), hot)
    }

    #[test]
    fn finds_hot_branch_sites() {
        let (facts, _) = facts_for(0, &MachineConfig::core2());
        assert!(!facts.branch_sites.is_empty());
        assert!(facts.branch_sites.iter().any(|s| s.conditional));
        assert!(facts.branch_sites.iter().any(|s| s.weight > 0.0));
        // Loop back edges exist: some transfer goes backwards.
        assert!(facts.branch_sites.iter().any(|s| s.target <= s.pc));
    }

    #[test]
    fn metrics_are_normalized() {
        let (facts, _) = facts_for(0, &MachineConfig::core2());
        for v in [
            facts.l1i.overflow,
            facts.l2.overflow,
            facts.itlb.overflow,
            facts.btb_conflict,
            facts.gshare_conflict,
            facts.entry_straddle,
            facts.page_crossers,
        ] {
            assert!((0.0..=1.0).contains(&v), "metric {v} out of range");
        }
        assert!(facts.total_weight > 0.0);
    }

    /// The overflow a dense per-set table gives: one list of distinct
    /// tags per set, filled byte by byte, each line at its heaviest
    /// function's weight.
    fn dense_overflow(sets: u32, ways: usize, line: u32, funcs: &[(&str, u32, u32, f64)]) -> f64 {
        let mut table: Vec<Vec<(u32, f64)>> = vec![Vec::new(); sets as usize];
        for &(_, addr, size, w) in funcs.iter().filter(|f| f.3 != 0.0) {
            for byte in addr..addr + size {
                let tags = &mut table[(byte / line % sets) as usize];
                let tag = byte / line / sets;
                match tags.iter_mut().find(|t| t.0 == tag) {
                    Some(t) => t.1 = t.1.max(w),
                    None => tags.push((tag, w)),
                }
            }
        }
        let (mut total, mut over) = (0.0, 0.0);
        for tags in &mut table {
            tags.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            for (rank, &(_, w)) in tags.iter().enumerate() {
                total += w;
                if rank >= ways {
                    over += w;
                }
            }
        }
        if total > 0.0 {
            over / total
        } else {
            0.0
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 128,
            ..proptest::prelude::ProptestConfig::default()
        })]
        /// Weights are multiples of 1/16, so every sum is exact and the
        /// two sides must agree bit for bit whatever order they add in.
        #[test]
        fn set_pressure_overflow_matches_a_dense_table(
            set_bits in 0u32..7,
            ways in 1u32..9,
            line_bits in 2u32..8,
            spec in proptest::collection::vec((0u32..0x3000, 1u32..0x400, 0u32..17), 1..12),
        ) {
            let (sets, line) = (1u32 << set_bits, 1u32 << line_bits);
            let geometry = biaslab_uarch::cache::CacheConfig {
                size: sets * ways * line,
                ways,
                line,
                hit_latency: 1,
            };
            let funcs: Vec<(&str, u32, u32, f64)> = spec
                .iter()
                .map(|&(at, size, w)| ("f", 0x0040_0000 + at, size, f64::from(w) / 16.0))
                .collect();
            let sparse = set_pressure(
                ways as usize,
                &funcs,
                |addr| (geometry.set_of(addr), geometry.tag_of(addr)),
                line,
            );
            let dense = dense_overflow(sets, ways as usize, line, &funcs);
            proptest::prop_assert_eq!(
                sparse.overflow.to_bits(),
                dense.to_bits(),
                "{} vs {} on {} sets x {} ways of {} B: {:?}",
                sparse.overflow,
                dense,
                sets,
                ways,
                line,
                spec
            );
        }
    }

    /// Every float `image_facts` reports, named, as bits.
    fn fact_bits(f: &ImageFacts) -> Vec<(&'static str, u64)> {
        let mut bits = vec![
            ("total_weight", f.total_weight),
            ("l1i.overflow", f.l1i.overflow),
            ("l2.overflow", f.l2.overflow),
            ("itlb.overflow", f.itlb.overflow),
            ("btb_conflict", f.btb_conflict),
            ("gshare_conflict", f.gshare_conflict),
            ("entry_straddle", f.entry_straddle),
            ("loop_fetch_excess", f.loop_fetch_excess),
            ("loop_line_excess", f.loop_line_excess),
            ("page_crossers", f.page_crossers),
        ];
        bits.extend(
            f.branch_sites
                .iter()
                .map(|s| ("branch site weight", s.weight)),
        );
        bits.into_iter()
            .map(|(name, v)| (name, v.to_bits()))
            .collect()
    }

    #[test]
    fn image_facts_are_bit_identical_when_recomputed() {
        // Every suite image the analyzer reads: each benchmark at O2 and
        // O3, linked in the default layout, on all three machines. A sum
        // taken in a hash map's iteration order changes in its last bits
        // from one map to the next.
        let machines = MachineConfig::all();
        for b in suite() {
            for level in [OptLevel::O2, OptLevel::O3] {
                let opt = optimize(b.module(), level);
                let hot = ModuleHotness::of(&opt, b.entry(), level);
                let exe = Linker::new()
                    .link(&compile(&opt, level), b.entry())
                    .expect("links");
                for machine in &machines {
                    let first = fact_bits(&image_facts(&exe, &hot, machine));
                    for round in 0..8 {
                        let again = fact_bits(&image_facts(&exe, &hot, machine));
                        assert_eq!(again.len(), first.len());
                        if let Some((was, now)) = first.iter().zip(&again).find(|(x, y)| x != y) {
                            panic!(
                                "{} {level} on {}: recomputation {round} changed {} from {} to {}",
                                b.name(),
                                machine.name,
                                was.0,
                                f64::from_bits(was.1),
                                f64::from_bits(now.1),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stack_classes_follow_the_loader() {
        let b = &suite()[0];
        let opt = optimize(b.module(), OptLevel::O2);
        let hot = ModuleHotness::of(&opt, b.entry(), OptLevel::O2);
        let grid: Vec<u32> = (0..16).map(|i| i * 176).collect();
        let f = StackFacts::of(&hot, &MachineConfig::core2(), &grid);
        // 176 is not a multiple of 64: the env grid must visit several
        // line offsets and banks, which is exactly the bias channel.
        assert!(f.line_classes > 1, "line classes: {}", f.line_classes);
        assert!(f.bank_classes > 1, "bank classes: {}", f.bank_classes);
        assert!(f.stack_traffic >= 0.0 && f.total_traffic > 0.0);
        assert!((0.0..=1.0).contains(&f.paired_traffic()));
        assert!((0.0..=1.0).contains(&f.memory_intensity()));
    }

    #[test]
    fn index_conflict_counts_only_shared_slots() {
        // Two sites on one slot, one site alone: the lighter of the pair
        // is the conflicting mass.
        let c = index_conflict([(0, 1.0), (0, 0.5), (1, 1.0)].into_iter());
        let expect = 0.5 / 2.5;
        assert!((c - expect).abs() < 1e-12, "{c} vs {expect}");
        assert_eq!(index_conflict(std::iter::empty()), 0.0);
    }
}
