//! Seeded input generators. Everything the program under test receives —
//! which link fails, which VM moves where — is drawn here from
//! `(seed, workload, round)` before the first op runs; the program never
//! sees the seed.

/// SplitMix64: small, seedable, and independent of the repository's
/// vendored `rand` stand-in, so a change there cannot shift a schedule.
pub struct Rng(u64);

impl Rng {
    /// The stream of round `round` of `workload` under `seed`.
    pub fn for_round(seed: u64, workload: &str, round: u32) -> Self {
        // FNV-1a over the name keeps the four workloads' streams apart.
        let name_hash = workload.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        let mut rng = Self(seed ^ name_hash.rotate_left(17) ^ (u64::from(round) << 48));
        rng.next_u64(); // decorrelate neighbouring seeds
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// `count` link indices out of `num_links`, one per fault cycle. Faults are
/// healed one at a time, so the only way to have a link "in flight" twice
/// is to draw it twice in a row; drawing without replacement (reshuffling
/// only when the pool runs dry) rules that out and spreads a round's
/// samples over distinct cables.
pub fn link_schedule(rng: &mut Rng, num_links: usize, count: usize) -> Vec<usize> {
    assert!(num_links > 1, "a fault schedule needs at least two links");
    let mut pool: Vec<usize> = (0..num_links).collect();
    let mut out = Vec::with_capacity(count);
    let mut next = 0;
    while out.len() < count {
        if next == num_links {
            next = 0;
        }
        let pick = next + rng.below(num_links - next);
        pool.swap(next, pick);
        // A reshuffle may start with the link the last pass ended on.
        if out.last() == Some(&pool[next]) {
            pool.swap(next, num_links - 1);
        }
        out.push(pool[next]);
        next += 1;
    }
    out
}

/// One migration: VM index (creation order) and destination hypervisor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Move {
    pub vm: usize,
    pub dest: usize,
}

/// The generator's own model of where every VM sits, so it can draw
/// `dest` uniformly over *other hypervisors with a free VF* without asking
/// the data center. The correctness gate checks the model against the
/// program's placement after the last op.
pub struct Placement {
    /// Hypervisor of each VM, indexed by creation order.
    pub vm_host: Vec<usize>,
    free_vfs: Vec<usize>,
}

impl Placement {
    /// `vms_per_hyp` VMs on each of `hyps` hypervisors of `vfs` VFs, created
    /// hypervisor by hypervisor.
    pub fn new(hyps: usize, vfs: usize, vms_per_hyp: usize) -> Self {
        assert!(hyps > 1 && vms_per_hyp < vfs, "moves need a free VF");
        Self {
            vm_host: (0..hyps * vms_per_hyp).map(|i| i / vms_per_hyp).collect(),
            free_vfs: vec![vfs - vms_per_hyp; hyps],
        }
    }

    /// Draws the next move and applies it to the model.
    pub fn next_move(&mut self, rng: &mut Rng) -> Move {
        let vm = rng.below(self.vm_host.len());
        let src = self.vm_host[vm];
        // Rejection sampling: VMs fill at most `vms_per_hyp / vfs` of the
        // slots, so a draw is accepted with at least that complement.
        let dest = loop {
            let d = rng.below(self.free_vfs.len());
            if d != src && self.free_vfs[d] > 0 {
                break d;
            }
        };
        self.free_vfs[src] += 1;
        self.free_vfs[dest] -= 1;
        self.vm_host[vm] = dest;
        Move { vm, dest }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_for_the_same_seed_workload_and_round() {
        let draw = |seed, workload, round| {
            let mut rng = Rng::for_round(seed, workload, round);
            let links = link_schedule(&mut rng, 128, 65);
            let mut placement = Placement::new(36, 4, 2);
            let moves: Vec<Move> = (0..200).map(|_| placement.next_move(&mut rng)).collect();
            (links, moves)
        };
        let base = draw(1, "torus64_dfsssp_link_repair", 0);
        assert_eq!(base, draw(1, "torus64_dfsssp_link_repair", 0));
        assert_ne!(base, draw(2, "torus64_dfsssp_link_repair", 0));
        assert_ne!(base, draw(1, "ft5832_link_repair", 0));
        assert_ne!(base, draw(1, "torus64_dfsssp_link_repair", 1));
    }

    #[test]
    fn no_link_is_drawn_twice_in_a_row_or_twice_in_a_pass() {
        for seed in 0..50 {
            let mut rng = Rng::for_round(seed, "w", 0);
            // 3.5 passes over a 16-link pool.
            let s = link_schedule(&mut rng, 16, 56);
            assert!(s.iter().all(|&l| l < 16));
            assert!(s.windows(2).all(|w| w[0] != w[1]), "seed {seed}: {s:?}");
            for pass in s.chunks(16) {
                let mut seen = pass.to_vec();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), pass.len(), "seed {seed}: repeat in {pass:?}");
            }
        }
    }

    #[test]
    fn moves_always_target_another_hypervisor_with_a_free_vf() {
        let mut rng = Rng::for_round(7, "ft1728_vm_migrate", 2);
        let (hyps, vfs) = (12, 4);
        let mut placement = Placement::new(hyps, vfs, 2);
        let mut load = vec![2usize; hyps];
        for _ in 0..5000 {
            let src_of = placement.vm_host.clone();
            let m = placement.next_move(&mut rng);
            assert_ne!(src_of[m.vm], m.dest);
            load[src_of[m.vm]] -= 1;
            load[m.dest] += 1;
            assert!(load[m.dest] <= vfs);
        }
    }
}
