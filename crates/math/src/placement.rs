//! The per-op host-vs-PIM placement cost model.
//!
//! Host offload costs `host::preprocess` cycles **per element**
//! plus the per-stage DMA that refreshes the staged constants, so it
//! scales linearly with the shard size. The on-PIM sequence is pure
//! row-parallel intra-block arithmetic: every element block runs it
//! concurrently, so its per-stage latency is that of *one* element's
//! fragment regardless of shard size. The crossover sits near 1.3K
//! elements per chip with the default parameters; [`CostModel::resolve`]
//! finds it from the chip's own timing constants rather than a tuned
//! threshold, and falls back to the host for any op whose operands
//! leave the table's supported range. Both alternatives are priced
//! through [`pim_sim::OpCost`], the price list the chip itself charges,
//! so an on-PIM fragment costs here what it costs when it runs.

use pim_isa::{BlockId, Instr, InstrStream};
use pim_sim::{host, OpCost};

use crate::seq::{MathSite, RecipDest, SqrtDest};
use crate::table;

/// Where one transcendental op-site executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Host CPU preprocess + constants-refresh DMA (the seed behavior).
    Host,
    /// LUT-seeded Newton sequence inside the element blocks.
    OnPim,
}

/// Per-op placement for the two transcendentals of the wave kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MathPlacement {
    pub sqrt: Placement,
    pub reciprocal: Placement,
}

impl MathPlacement {
    pub fn all_host() -> Self {
        Self { sqrt: Placement::Host, reciprocal: Placement::Host }
    }

    pub fn all_onpim() -> Self {
        Self { sqrt: Placement::OnPim, reciprocal: Placement::OnPim }
    }

    pub fn any_onpim(&self) -> bool {
        self.sqrt == Placement::OnPim || self.reciprocal == Placement::OnPim
    }

    pub fn any_host(&self) -> bool {
        self.sqrt == Placement::Host || self.reciprocal == Placement::Host
    }
}

/// How the runtime treats transcendentals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MathMode {
    /// Seed behavior: host-exact constants, no per-stage charge. The
    /// default — bit-identical to the system before this subsystem.
    #[default]
    Off,
    /// Charge the per-stage host preprocess + constants refresh the
    /// analytic model (Fig. 13's "CPU Host: sqrt / inverse" lane)
    /// always priced — the measured "before" of `math_bench`.
    Host,
    /// Force every supported op onto the PIM sequence.
    OnPim,
    /// Let [`CostModel::resolve`] choose per op from the chip params.
    Auto,
}

/// Config switch carried by the compilers and the cluster runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MathConfig {
    pub mode: MathMode,
}

impl MathConfig {
    pub fn off() -> Self {
        Self { mode: MathMode::Off }
    }

    pub fn host() -> Self {
        Self { mode: MathMode::Host }
    }

    pub fn on_pim() -> Self {
        Self { mode: MathMode::OnPim }
    }

    pub fn auto() -> Self {
        Self { mode: MathMode::Auto }
    }
}

/// One shard's math op-sites, as the compiler sees them.
#[derive(Debug, Clone, Copy)]
pub struct SiteParams {
    /// Resident elements on the chip.
    pub elems: usize,
    /// Host sqrt calls per element per stage (from the op counter).
    pub sqrts_per_elem: u64,
    /// Host divisions per element per stage.
    pub divs_per_elem: u64,
    /// (min, max) operand of the sqrt sites (κρ for acoustic).
    pub sqrt_operands: (f64, f64),
    /// (min, max) operand of the reciprocal sites (ρ for acoustic).
    pub recip_operands: (f64, f64),
}

impl SiteParams {
    pub fn has_work(&self) -> bool {
        self.elems > 0 && (self.sqrts_per_elem > 0 || self.divs_per_elem > 0)
    }

    pub fn sqrt_supported(&self) -> bool {
        let (lo, hi) = self.sqrt_operands;
        self.sqrts_per_elem > 0 && lo <= hi && table::supported(lo) && table::supported(hi)
    }

    pub fn recip_supported(&self) -> bool {
        let (lo, hi) = self.recip_operands;
        self.divs_per_elem > 0 && lo <= hi && table::supported(lo) && table::supported(hi)
    }
}

/// The resolved decision for one shard.
#[derive(Debug, Clone, Copy)]
pub struct MathDecision {
    /// `None` means legacy behavior (mode Off, or no math work at all).
    pub placement: Option<MathPlacement>,
    /// Per-stage cost with everything on the host.
    pub host_stage: OpCost,
    /// Per-stage cost under the chosen placement.
    pub chosen_stage: OpCost,
    pub sqrt_supported: bool,
    pub recip_supported: bool,
}

/// Prices the two alternatives from the chip's timing/energy params.
#[derive(Debug, Clone, Copy)]
pub struct CostModel;

impl CostModel {
    /// Staged constants the host refreshes per element for its ops:
    /// one word for √(κρ), two for 1/ρ and its `−jac/ρ` product.
    fn refresh_bytes(p: MathPlacement, elems: usize) -> u64 {
        let mut words = 0u64;
        if p.sqrt == Placement::Host {
            words += 1;
        }
        if p.reciprocal == Placement::Host {
            words += 2;
        }
        words * 8 * elems as u64
    }

    /// Per-stage host cost of the ops `p` leaves on the host.
    pub fn host_stage_cost(&self, p: MathPlacement, site: &SiteParams) -> OpCost {
        let sqrts =
            if p.sqrt == Placement::Host { site.sqrts_per_elem * site.elems as u64 } else { 0 };
        let divs = if p.reciprocal == Placement::Host {
            site.divs_per_elem * site.elems as u64
        } else {
            0
        };
        if sqrts == 0 && divs == 0 {
            return OpCost::default();
        }
        let (seconds, joules) = host::preprocess(sqrts, divs);
        OpCost { seconds, joules } + OpCost::dma(Self::refresh_bytes(p, site.elems))
    }

    /// Per-stage cost of the on-PIM fragment `p` selects: the latency of
    /// one element's fragment (fragments overlap block-parallel), the
    /// energy of all of them.
    pub fn onpim_stage_cost(&self, p: MathPlacement, site: &SiteParams) -> OpCost {
        if !p.any_onpim() {
            return OpCost::default();
        }
        let probe = MathSite { block: BlockId(0), row: 514, aux_row: 515, math_block: 1 };
        let mut s = InstrStream::new();
        probe.emit_stage(
            &mut s,
            p,
            (p.sqrt == Placement::OnPim).then_some(SqrtDest { col: 3 }),
            (p.reciprocal == Placement::OnPim).then_some(RecipDest {
                inv_col: 7,
                neg_jac_col: 4,
                neg_col: 1,
            }),
        );
        let mut c = OpCost::default();
        for i in s.instrs() {
            let op = match *i {
                Instr::Arith { op, first_row, last_row, .. } => {
                    OpCost::arith(op, (last_row - first_row + 1) as u64)
                }
                Instr::Read { .. } => OpCost::read(),
                Instr::Write { words, .. } => OpCost::write(words as usize),
                _ => OpCost::default(),
            };
            c.seconds += op.seconds;
            c.joules += op.joules * site.elems as f64;
        }
        c
    }

    /// Total per-stage cost of a placement: host remainder + fragment.
    pub fn stage_cost(&self, p: MathPlacement, site: &SiteParams) -> OpCost {
        self.host_stage_cost(p, site) + self.onpim_stage_cost(p, site)
    }

    /// Resolves `mode` for one shard's op-sites.
    pub fn resolve(&self, mode: MathMode, site: &SiteParams) -> MathDecision {
        let sqrt_supported = site.sqrt_supported();
        let recip_supported = site.recip_supported();
        let host_stage = self.host_stage_cost(MathPlacement::all_host(), site);
        let pick = |p: MathPlacement| MathDecision {
            placement: Some(p),
            host_stage,
            chosen_stage: self.stage_cost(p, site),
            sqrt_supported,
            recip_supported,
        };
        if mode == MathMode::Off || !site.has_work() {
            return MathDecision {
                placement: None,
                host_stage,
                chosen_stage: OpCost::default(),
                sqrt_supported,
                recip_supported,
            };
        }
        match mode {
            MathMode::Off => unreachable!("handled above"),
            MathMode::Host => pick(MathPlacement::all_host()),
            MathMode::OnPim => pick(MathPlacement {
                sqrt: if sqrt_supported { Placement::OnPim } else { Placement::Host },
                reciprocal: if recip_supported { Placement::OnPim } else { Placement::Host },
            }),
            MathMode::Auto => {
                let mut best = MathPlacement::all_host();
                let mut best_cost = self.stage_cost(best, site).seconds;
                for sq in [Placement::Host, Placement::OnPim] {
                    for rc in [Placement::Host, Placement::OnPim] {
                        if (sq == Placement::OnPim && !sqrt_supported)
                            || (rc == Placement::OnPim && !recip_supported)
                        {
                            continue;
                        }
                        let p = MathPlacement { sqrt: sq, reciprocal: rc };
                        let cost = self.stage_cost(p, site).seconds;
                        // Strict improvement required: ties keep the
                        // host (the conservative default).
                        if cost < best_cost {
                            best = p;
                            best_cost = cost;
                        }
                    }
                }
                pick(best)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(elems: usize) -> SiteParams {
        SiteParams {
            elems,
            sqrts_per_elem: 1,
            divs_per_elem: 1,
            sqrt_operands: (1.0, 4.0),
            recip_operands: (0.8, 1.2),
        }
    }

    #[test]
    fn host_cost_is_linear_and_pim_cost_is_flat_in_elements() {
        let m = CostModel;
        let p = MathPlacement::all_onpim();
        let h1 = m.host_stage_cost(MathPlacement::all_host(), &site(1000));
        let h4 = m.host_stage_cost(MathPlacement::all_host(), &site(4000));
        assert!(h4.seconds > 3.9 * h1.seconds);
        let o1 = m.onpim_stage_cost(p, &site(1000));
        let o4 = m.onpim_stage_cost(p, &site(4000));
        assert_eq!(o1.seconds, o4.seconds, "row-parallel latency must not scale");
        assert!(o4.joules > o1.joules, "energy still scales with elements");
    }

    #[test]
    fn auto_crosses_over_from_host_to_pim_with_scale() {
        let m = CostModel;
        let small = m.resolve(MathMode::Auto, &site(64));
        assert_eq!(small.placement, Some(MathPlacement::all_host()), "tiny shard stays on host");
        let large = m.resolve(MathMode::Auto, &site(8192));
        assert_eq!(large.placement, Some(MathPlacement::all_onpim()), "large shard moves on-PIM");
        assert!(large.chosen_stage.seconds < large.host_stage.seconds);
        assert!(large.chosen_stage.joules < large.host_stage.joules);
    }

    #[test]
    fn out_of_range_operands_pin_an_op_to_the_host() {
        let m = CostModel;
        let mut s = site(8192);
        s.sqrt_operands = (0.001, 4.0); // below OPERAND_LO
        let d = m.resolve(MathMode::OnPim, &s);
        let p = d.placement.unwrap();
        assert_eq!(p.sqrt, Placement::Host);
        assert_eq!(p.reciprocal, Placement::OnPim);
        assert!(!d.sqrt_supported && d.recip_supported);
    }

    #[test]
    fn off_mode_and_central_flux_produce_no_placement() {
        let m = CostModel;
        assert!(m.resolve(MathMode::Off, &site(4096)).placement.is_none());
        let central = SiteParams { sqrts_per_elem: 0, divs_per_elem: 0, ..site(4096) };
        assert!(m.resolve(MathMode::Auto, &central).placement.is_none());
    }
}
