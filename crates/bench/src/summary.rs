//! Aggregate metrics: the paper's headline numbers (§7.3, §7.4, §8).

use gpu_model::energy::benchmark_joules;
use gpu_model::{benchmark_seconds, GpuImpl, GpuModel};
use pim_sim::{ChipCapacity, ProcessNode};
use wave_pim::estimate::PimSetup;
use wavesim_dg::opcount::Benchmark;

use crate::figures::{fig14_data, PricedPoints};

/// Arithmetic mean over the six benchmarks of `f`'s per-benchmark ratio
/// (the paper's "average … speedups on the six benchmarks" convention).
fn mean_over_benchmarks(f: impl Fn(Benchmark) -> f64) -> f64 {
    let total: f64 = Benchmark::ALL.iter().map(|&b| f(b)).sum();
    total / Benchmark::ALL.len() as f64
}

/// The aggregate results of the evaluation.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Average speedup of each PIM capacity (12 nm) over the unfused
    /// 1080Ti baseline (paper §7.3: 10.28×/35.80×/72.21×/172.76×).
    pub speedup_vs_unfused_1080ti: Vec<(ChipCapacity, f64)>,
    /// Average speedup of each PIM capacity (12 nm) over the fused V100
    /// (paper §7.3: 2.30×/7.89×/15.97×/37.39×).
    pub speedup_vs_fused_v100: Vec<(ChipCapacity, f64)>,
    /// Average energy savings of each PIM capacity (28 nm) over the
    /// unfused 1080Ti (paper §7.4: 26.62×/26.82×/14.28×/16.01×).
    pub energy_vs_unfused_1080ti: Vec<(ChipCapacity, f64)>,
    /// 16 GB PIM (12 nm) average speedup over each unfused GPU (paper §1:
    /// 45.31×/34.52×/15.89×).
    pub speedup_vs_each_gpu: Vec<(GpuModel, f64)>,
    /// 16 GB PIM (28 nm) average energy savings over each unfused GPU
    /// (paper §1: 13.75×/10.67×/5.66×).
    pub energy_vs_each_gpu: Vec<(GpuModel, f64)>,
    /// Grand averages across the three GPUs (paper §8: 41.98× and
    /// 12.66×).
    pub headline_speedup: f64,
    pub headline_energy: f64,
    /// Average H-tree time saving over the bus on the Fig. 14 flux-bound
    /// fetch phases (paper §1: ≈2.16×).
    pub htree_over_bus: f64,
}

/// Computes the full summary from the priced points.
pub fn headline(points: &PricedPoints) -> Summary {
    let pim = |b: Benchmark, c: ChipCapacity, n: ProcessNode| points.get(b, PimSetup::new(c, n));
    let seconds = |b, c| pim(b, c, ProcessNode::Nm12).total_seconds;
    let joules = |b, c| pim(b, c, ProcessNode::Nm28).total_joules();
    let per_capacity = |ratio: &dyn Fn(Benchmark, ChipCapacity) -> f64| {
        ChipCapacity::ALL.map(|c| (c, mean_over_benchmarks(|b| ratio(b, c)))).to_vec()
    };
    let per_gpu = |ratio: &dyn Fn(Benchmark, GpuModel) -> f64| {
        GpuModel::ALL.map(|g| (g, mean_over_benchmarks(|b| ratio(b, g)))).to_vec()
    };
    let unfused_seconds = |b, g| benchmark_seconds(b, g, GpuImpl::Unfused);
    let unfused_joules = |b, g| benchmark_joules(b, g, GpuImpl::Unfused);

    let speedup_vs_unfused_1080ti =
        per_capacity(&|b, c| unfused_seconds(b, GpuModel::Gtx1080Ti) / seconds(b, c));
    let speedup_vs_fused_v100 = per_capacity(&|b, c| {
        benchmark_seconds(b, GpuModel::TeslaV100, GpuImpl::Fused) / seconds(b, c)
    });
    let energy_vs_unfused_1080ti =
        per_capacity(&|b, c| unfused_joules(b, GpuModel::Gtx1080Ti) / joules(b, c));
    let speedup_vs_each_gpu =
        per_gpu(&|b, g| unfused_seconds(b, g) / seconds(b, ChipCapacity::Gb16));
    let energy_vs_each_gpu = per_gpu(&|b, g| unfused_joules(b, g) / joules(b, ChipCapacity::Gb16));

    let headline_speedup = speedup_vs_each_gpu.iter().map(|(_, s)| s).sum::<f64>() / 3.0;
    let headline_energy = energy_vs_each_gpu.iter().map(|(_, s)| s).sum::<f64>() / 3.0;

    // H-tree vs bus on the fetch-dominated phases of the Fig. 14 cases.
    let fig14 = fig14_data(points);
    let htree_over_bus =
        fig14.iter().map(|c| c.bus.1 / c.htree.1).sum::<f64>() / fig14.len() as f64;

    Summary {
        speedup_vs_unfused_1080ti,
        speedup_vs_fused_v100,
        energy_vs_unfused_1080ti,
        speedup_vs_each_gpu,
        energy_vs_each_gpu,
        headline_speedup,
        headline_energy,
        htree_over_bus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_points;

    #[test]
    fn speedups_grow_with_capacity() {
        let s = headline(test_points());
        let v: Vec<f64> = s.speedup_vs_unfused_1080ti.iter().map(|(_, x)| *x).collect();
        for w in v.windows(2) {
            assert!(w[1] >= w[0] * 0.999, "capacity scaling broke: {v:?}");
        }
        assert!(v[0] > 1.0, "even the 512 MB PIM must beat the baseline GPU");
    }

    #[test]
    fn fused_v100_is_the_hardest_baseline() {
        let s = headline(test_points());
        for ((_, a), (_, b)) in s.speedup_vs_unfused_1080ti.iter().zip(&s.speedup_vs_fused_v100) {
            assert!(b < a, "fused V100 must be harder to beat: {a} vs {b}");
        }
    }

    #[test]
    fn headline_numbers_are_in_the_paper_regime() {
        // Paper §8: 41.98× average speedup and 12.66× energy savings
        // against the three GPUs. Our independently-built models must land
        // in the same order of magnitude (the exact factors are pinned by
        // tests/paper_golden.rs).
        let s = headline(test_points());
        assert!(
            (5.0..300.0).contains(&s.headline_speedup),
            "headline speedup {}",
            s.headline_speedup
        );
        assert!((2.0..120.0).contains(&s.headline_energy), "headline energy {}", s.headline_energy);
    }

    #[test]
    fn gpu_ordering_matches_the_paper() {
        // Paper §1: speedups 45.31× (1080Ti) > 34.52× (P100) > 15.89×
        // (V100): the faster the GPU, the smaller the PIM margin.
        let s = headline(test_points());
        let v: Vec<f64> = s.speedup_vs_each_gpu.iter().map(|(_, x)| *x).collect();
        assert!(v[0] > v[1] && v[1] > v[2], "{v:?}");
        let e: Vec<f64> = s.energy_vs_each_gpu.iter().map(|(_, x)| *x).collect();
        assert!(e[0] > e[2], "{e:?}");
    }

    #[test]
    fn htree_saving_is_near_2x() {
        // Paper §1: "the H-tree results in approximately 2.16× time
        // savings in comparison to a bus architecture".
        let s = headline(test_points());
        assert!((1.3..6.0).contains(&s.htree_over_bus), "{}", s.htree_over_bus);
    }
}
