//! Seeded random irregular topologies.
//!
//! Irregular fabrics are where "topology agnostic" earns its name: the
//! builder produces a random connected switch graph (random spanning tree
//! plus extra chords) with hosts spread round-robin, deterministically from a
//! seed so tests and sweeps are reproducible.

use ib_types::PortNum;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::subnet::Subnet;

use super::BuiltTopology;

/// Parameters for a random irregular topology.
#[derive(Clone, Copy, Debug)]
pub struct IrregularSpec {
    /// Number of switches.
    pub num_switches: usize,
    /// Number of hosts, spread round-robin across switches.
    pub num_hosts: usize,
    /// Extra switch-switch chords beyond the spanning tree.
    pub extra_links: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IrregularSpec {
    fn default() -> Self {
        Self {
            num_switches: 8,
            num_hosts: 16,
            extra_links: 6,
            seed: 0xD1CE,
        }
    }
}

/// Builds a random connected irregular network.
#[must_use]
pub fn irregular(spec: IrregularSpec) -> BuiltTopology {
    assert!(spec.num_switches >= 1);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut subnet = Subnet::new();

    // Generous radix: tree degree + chords + hosts can all land on one
    // switch in the worst case.
    let radix =
        (spec.num_switches + spec.extra_links * 2 + spec.num_hosts / spec.num_switches.max(1) + 4)
            .min(250) as u8;

    let switches: Vec<_> = (0..spec.num_switches)
        .map(|i| subnet.add_switch(format!("sw-{i}"), radix))
        .collect();

    // Random spanning tree: attach each new switch to a random earlier one.
    for i in 1..spec.num_switches {
        let parent = rng.gen_range(0..i);
        subnet
            .connect_free(switches[i], switches[parent])
            .expect("irregular tree wiring");
    }

    // Extra chords between distinct random pairs (parallel cables allowed —
    // real IB fabrics have them).
    let mut added = 0;
    let mut attempts = 0;
    while added < spec.extra_links && attempts < spec.extra_links * 20 {
        attempts += 1;
        if spec.num_switches < 2 {
            break;
        }
        let a = rng.gen_range(0..spec.num_switches);
        let b = rng.gen_range(0..spec.num_switches);
        if a == b {
            continue;
        }
        if subnet.connect_free(switches[a], switches[b]).is_ok() {
            added += 1;
        }
    }

    let mut hosts = Vec::with_capacity(spec.num_hosts);
    for h in 0..spec.num_hosts {
        let sw = switches[h % spec.num_switches];
        let host = subnet.add_hca(format!("host-{h}"));
        let hp = subnet.first_free_port(sw).expect("irregular host port");
        subnet
            .connect(sw, hp, host, PortNum::new(1))
            .expect("irregular host wiring");
        hosts.push(host);
    }

    let built = BuiltTopology {
        subnet,
        hosts,
        switch_levels: vec![switches],
        name: format!("irregular-s{}-h{}", spec.num_switches, spec.num_hosts),
    };
    debug_assert!(built.subnet.validate(true).is_ok());
    built
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = irregular(IrregularSpec::default());
        let b = irregular(IrregularSpec::default());
        assert_eq!(a.subnet.num_links(), b.subnet.num_links());
        assert_eq!(a.num_hosts(), b.num_hosts());
    }

    #[test]
    fn different_seed_differs() {
        let a = irregular(IrregularSpec::default());
        let b = irregular(IrregularSpec {
            seed: 42,
            ..IrregularSpec::default()
        });
        // Same counts, but the wiring should differ for (almost) any seed
        // pair; compare the full link sets via the Debug rendering.
        let ja = format!("{:?}", a.subnet);
        let jb = format!("{:?}", b.subnet);
        assert_ne!(ja, jb);
    }

    #[test]
    fn always_connected() {
        for seed in 0..20 {
            let t = irregular(IrregularSpec {
                num_switches: 12,
                num_hosts: 24,
                extra_links: 8,
                seed,
            });
            t.subnet.validate(true).unwrap();
        }
    }

    #[test]
    fn single_switch_degenerate() {
        let t = irregular(IrregularSpec {
            num_switches: 1,
            num_hosts: 4,
            extra_links: 3,
            seed: 1,
        });
        t.subnet.validate(true).unwrap();
        assert_eq!(t.subnet.num_links(), 4);
    }
}
