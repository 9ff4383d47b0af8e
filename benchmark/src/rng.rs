//! The benchmark's own pseudo-random generator. Every generated input
//! (page mix, identifiers, kind mix, parameters) is drawn from here, so
//! `--seed` alone decides the inputs and the program under test never
//! sees the generator, only what it produced.

/// xoshiro256** seeded through splitmix64.
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    /// An independent stream for one named purpose, so adding a draw in
    /// one place does not shift the inputs generated in another.
    pub fn fork(&self, stream: u64) -> Rng {
        Rng::new(self.0[0] ^ stream.wrapping_mul(0xd605_bbb5_8c8a_bc03))
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `len` items holding each class in exactly its share (largest
/// remainders), in seeded order. Exact shares keep the amount of work the
/// same from seed to seed; only the order and the identifiers change.
pub fn exact_mix<T: Copy>(rng: &mut Rng, shares: &[(T, f64)], len: usize) -> Vec<T> {
    let total: f64 = shares.iter().map(|s| s.1).sum();
    let mut counts: Vec<(usize, f64)> = shares
        .iter()
        .map(|s| {
            let exact = s.1 / total * len as f64;
            (exact.floor() as usize, exact.fract())
        })
        .collect();
    let mut short = len - counts.iter().map(|c| c.0).sum::<usize>();
    let mut by_remainder: Vec<usize> = (0..shares.len()).collect();
    by_remainder.sort_by(|&a, &b| counts[b].1.total_cmp(&counts[a].1));
    for &i in &by_remainder {
        if short == 0 {
            break;
        }
        counts[i].0 += 1;
        short -= 1;
    }
    let mut out = Vec::with_capacity(len);
    for (share, count) in shares.iter().zip(&counts) {
        out.extend(std::iter::repeat_n(share.0, count.0));
    }
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        let (mut f1, mut f2) = (a.fork(1), a.fork(2));
        assert_ne!(f1.next_u64(), f2.next_u64());
        let mut r = Rng::new(3);
        assert!((0..10_000).all(|_| r.below(7) < 7 && r.unit() < 1.0));
    }

    #[test]
    fn exact_mix_holds_its_shares_for_every_seed() {
        for seed in 0..20 {
            let mix = exact_mix(&mut Rng::new(seed), &[('a', 70.0), ('b', 20.0), ('c', 8.0), ('d', 2.0)], 50);
            let count = |c| mix.iter().filter(|&&x| x == c).count();
            assert_eq!((count('a'), count('b'), count('c'), count('d')), (35, 10, 4, 1));
        }
    }
}
