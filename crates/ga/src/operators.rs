//! Genetic operators: rank selection, one-point crossover, jump/creep
//! mutation with PIKAIA's adaptive mutation-rate control.

use rand::RngExt;
use rand_chacha::ChaCha8Rng;

use crate::encoding::Genome;

/// Rank-based roulette selection: individual with fitness rank r (1 = worst)
/// is chosen with probability ∝ r. `ranked` maps population index -> rank.
/// Returns an index into the population.
pub fn select_ranked(rng: &mut ChaCha8Rng, ranks: &[usize]) -> usize {
    let n = ranks.len();
    debug_assert!(n > 0);
    let total: u64 = (n as u64) * (n as u64 + 1) / 2;
    let mut pick = rng.random_range(0..total);
    for (i, &r) in ranks.iter().enumerate() {
        let w = r as u64;
        if pick < w {
            return i;
        }
        pick -= w;
    }
    n - 1
}

/// Compute selection ranks from fitnesses: the best individual gets rank n,
/// the worst rank 1. Ties broken by index for determinism.
pub fn fitness_ranks(fitness: &[f64]) -> Vec<usize> {
    let n = fitness.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| fitness[a].total_cmp(&fitness[b]).then(a.cmp(&b)));
    let mut ranks = vec![0usize; n];
    for (rank_minus_1, &idx) in order.iter().enumerate() {
        ranks[idx] = rank_minus_1 + 1;
    }
    ranks
}

/// One-point crossover on the digit strings, applied with probability
/// `pcross`; otherwise parents are copied through.
pub fn crossover(rng: &mut ChaCha8Rng, a: &Genome, b: &Genome, pcross: f64) -> (Genome, Genome) {
    debug_assert_eq!(a.digits.len(), b.digits.len());
    if rng.random_range(0.0..1.0) >= pcross || a.digits.len() < 2 {
        return (a.clone(), b.clone());
    }
    let cut = rng.random_range(1..a.digits.len());
    let mut c = a.clone();
    let mut d = b.clone();
    c.digits[cut..].copy_from_slice(&b.digits[cut..]);
    d.digits[cut..].copy_from_slice(&a.digits[cut..]);
    (c, d)
}

/// Mutation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationMode {
    /// Replace a digit with a uniform random digit.
    Jump,
    /// ±1 on a digit with decimal carry into more significant digits
    /// (PIKAIA's creep mode — small phenotype steps).
    Creep,
}

/// Mutate each digit independently with probability `pmut`.
pub fn mutate(rng: &mut ChaCha8Rng, g: &mut Genome, pmut: f64, mode: MutationMode) {
    let nd = g.nd;
    for i in 0..g.digits.len() {
        if rng.random_range(0.0..1.0) >= pmut {
            continue;
        }
        match mode {
            MutationMode::Jump => {
                g.digits[i] = rng.random_range(0..10) as u8;
            }
            MutationMode::Creep => {
                let up = rng.random_range(0..2) == 1;
                creep_digit(g, i, up, nd);
            }
        }
    }
}

/// Apply ±1 at digit position `i` with carry/borrow propagation confined to
/// the digit's own gene, saturating at the gene boundary.
fn creep_digit(g: &mut Genome, i: usize, up: bool, nd: usize) {
    let gene_start = (i / nd) * nd;
    let mut pos = i;
    loop {
        if up {
            if g.digits[pos] < 9 {
                g.digits[pos] += 1;
                return;
            }
            g.digits[pos] = 0;
        } else {
            if g.digits[pos] > 0 {
                g.digits[pos] -= 1;
                return;
            }
            g.digits[pos] = 9;
        }
        if pos == gene_start {
            // carry ran off the top of the gene: saturate instead of wrap
            for d in &mut g.digits[gene_start..gene_start + nd] {
                *d = if up { 9 } else { 0 };
            }
            return;
        }
        pos -= 1;
    }
}

/// PIKAIA's adaptive mutation control: when the population has converged
/// (best and median fitness close), raise pmut to reinject diversity; when
/// spread is large, lower it. Bounds [pmut_min, pmut_max].
pub fn adapt_pmut(
    pmut: f64,
    best_fitness: f64,
    median_fitness: f64,
    pmut_min: f64,
    pmut_max: f64,
) -> f64 {
    // Relative fitness difference, guarded for degenerate populations.
    let denom = (best_fitness + median_fitness).abs().max(1e-12);
    let rdif = ((best_fitness - median_fitness) / denom).abs();
    const RDIF_LO: f64 = 0.05; // converged below this -> more mutation
    const RDIF_HI: f64 = 0.25; // diverse above this -> less mutation
    const FACTOR: f64 = 1.5;
    let adjusted = if rdif < RDIF_LO {
        pmut * FACTOR
    } else if rdif > RDIF_HI {
        pmut / FACTOR
    } else {
        pmut
    };
    adjusted.clamp(pmut_min, pmut_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(17)
    }

    #[test]
    fn ranks_order_by_fitness() {
        let ranks = fitness_ranks(&[0.3, 0.9, 0.1]);
        assert_eq!(ranks, vec![2, 3, 1]);
    }

    #[test]
    fn rank_ties_deterministic() {
        let a = fitness_ranks(&[0.5, 0.5, 0.5]);
        let b = fitness_ranks(&[0.5, 0.5, 0.5]);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3]);
    }

    #[test]
    fn selection_prefers_fitter() {
        let mut rng = rng();
        let ranks = fitness_ranks(&[0.1, 0.9]);
        let mut counts = [0usize; 2];
        for _ in 0..3000 {
            counts[select_ranked(&mut rng, &ranks)] += 1;
        }
        // rank weights 1:2 -> fitter selected ~2/3 of the time
        assert!(counts[1] > counts[0]);
        let frac = counts[1] as f64 / 3000.0;
        assert!((frac - 2.0 / 3.0).abs() < 0.05, "frac {frac}");
    }

    #[test]
    fn crossover_preserves_digits_multiset_per_position() {
        let mut rng = rng();
        let a = Genome::encode(&[0.111111, 0.222222], 6);
        let b = Genome::encode(&[0.888888, 0.999999], 6);
        let (c, d) = crossover(&mut rng, &a, &b, 1.0);
        for i in 0..a.digits.len() {
            let orig = [a.digits[i], b.digits[i]];
            let new = [c.digits[i], d.digits[i]];
            let mut o = orig;
            let mut n = new;
            o.sort_unstable();
            n.sort_unstable();
            assert_eq!(o, n, "position {i}");
        }
        // with pcross=1 and len>=2 a swap must have occurred
        assert_ne!(c, a);
    }

    #[test]
    fn crossover_skipped_at_zero_rate() {
        let mut rng = rng();
        let a = Genome::encode(&[0.1], 6);
        let b = Genome::encode(&[0.9], 6);
        let (c, d) = crossover(&mut rng, &a, &b, 0.0);
        assert_eq!(c, a);
        assert_eq!(d, b);
    }

    #[test]
    fn jump_mutation_changes_digits_at_high_rate() {
        let mut rng = rng();
        let mut g = Genome::encode(&[0.5; 4], 6);
        let orig = g.clone();
        mutate(&mut rng, &mut g, 1.0, MutationMode::Jump);
        assert!(g.validate());
        assert_ne!(g, orig);
    }

    #[test]
    fn creep_is_small_in_phenotype() {
        let mut rng = rng();
        for _ in 0..100 {
            let mut g = Genome::encode(&[0.531234], 6);
            let before = g.decode()[0];
            mutate(&mut rng, &mut g, 0.2, MutationMode::Creep);
            assert!(g.validate());
            let after = g.decode()[0];
            // worst case: most-significant digit creeps -> 0.1 step; typical
            // steps are far smaller
            assert!((after - before).abs() <= 0.2, "{before} -> {after}");
        }
    }

    #[test]
    fn creep_carry_propagates() {
        // 0.199999 +1 on least significant digit -> 0.200000
        let mut g = Genome::encode(&[0.199999], 6);
        creep_digit(&mut g, 5, true, 6);
        assert!((g.decode()[0] - 0.2).abs() < 1e-9);
        // saturation at gene top: 0.999999 +1 -> stays 0.999999
        let mut g = Genome::encode(&[0.999999], 6);
        creep_digit(&mut g, 5, true, 6);
        assert!((g.decode()[0] - 0.999999).abs() < 1e-9);
        // borrow at zero saturates to zero
        let mut g = Genome::encode(&[0.0], 6);
        creep_digit(&mut g, 5, false, 6);
        assert_eq!(g.decode()[0], 0.0);
    }

    #[test]
    fn creep_stays_within_gene() {
        // carry in gene 1 must not spill into gene 0
        let mut g = Genome::encode(&[0.555555, 0.999999], 6);
        creep_digit(&mut g, 11, true, 6);
        assert!((g.decode()[0] - 0.555555).abs() < 1e-9);
    }

    #[test]
    fn pmut_adapts_both_ways_and_clamps() {
        let up = adapt_pmut(0.01, 1.0, 0.99, 0.0005, 0.25);
        assert!(up > 0.01);
        let down = adapt_pmut(0.01, 1.0, 0.3, 0.0005, 0.25);
        assert!(down < 0.01);
        let hold = adapt_pmut(0.01, 1.0, 0.8, 0.0005, 0.25);
        assert_eq!(hold, 0.01);
        assert_eq!(adapt_pmut(1.0, 1.0, 1.0, 0.0005, 0.25), 0.25);
        assert_eq!(adapt_pmut(1e-9, 1.0, 0.2, 0.0005, 0.25), 0.0005);
    }
}
