//! Path-balance metrics over routing tables.
//!
//! §V-A argues prepopulated LIDs preserve the "balancing of the initial
//! routing" across live migrations (LID *swaps* permute LFT rows without
//! changing the multiset of paths), while §V-B concedes dynamic LID
//! assignment "compromises on the traffic balancing" (every VM rides its
//! hypervisor's PF path). These metrics quantify that trade-off.

use ib_subnet::Subnet;
use ib_types::IbResult;
use rustc_hash::FxHashMap;

use crate::graph::SwitchGraph;
use crate::tables::RoutingTables;

/// Per-directed-link load: how many destination LIDs route across each
/// switch-to-switch channel.
#[derive(Clone, Debug, Default)]
pub struct LinkLoad {
    /// `(switch index, out port raw)` → number of LIDs forwarded there.
    pub per_channel: FxHashMap<(u32, u8), u64>,
}

impl LinkLoad {
    /// Computes loads from explicit routing tables.
    pub fn from_tables(subnet: &Subnet, tables: &RoutingTables) -> IbResult<Self> {
        let g = SwitchGraph::build(subnet)?;
        Self::compute(subnet, &g, |s, lid| {
            tables
                .lfts
                .get(&g.node_id(s))
                .and_then(|lft| lft.get(lid))
                .map(|p| p.raw())
        })
    }

    /// Computes loads from the LFTs currently installed in the subnet —
    /// the right instrument after live migrations have edited tables in
    /// place.
    pub fn from_subnet(subnet: &Subnet) -> IbResult<Self> {
        let g = SwitchGraph::build(subnet)?;
        Self::compute(subnet, &g, |s, lid| {
            subnet
                .lft(g.node_id(s))
                .and_then(|lft| lft.get(lid))
                .map(|p| p.raw())
        })
    }

    fn compute(
        subnet: &Subnet,
        g: &SwitchGraph,
        port_of: impl Fn(usize, ib_types::Lid) -> Option<u8>,
    ) -> IbResult<Self> {
        let mut per_channel: FxHashMap<(u32, u8), u64> = FxHashMap::default();
        // Which ports of each physical switch lead to other *physical*
        // switches: fabric links are what balancing is about; the
        // vSwitch-internal hops inside an HCA are not shared resources in
        // the same sense.
        let switch_ports: Vec<FxHashMap<u8, ()>> = (0..g.len())
            .map(|s| {
                if !subnet.node(g.node_id(s)).is_physical_switch() {
                    return FxHashMap::default();
                }
                g.neighbors(s)
                    .iter()
                    .filter(|&&(v, _)| subnet.node(g.node_id(v as usize)).is_physical_switch())
                    .map(|&(_, p)| (p.raw(), ()))
                    .collect()
            })
            .collect();
        for dest in g.destinations() {
            for (s, ports) in switch_ports.iter().enumerate() {
                if s == dest.switch {
                    continue;
                }
                if let Some(p) = port_of(s, dest.lid) {
                    if ports.contains_key(&p) {
                        *per_channel.entry((s as u32, p)).or_insert(0) += 1;
                    }
                }
            }
        }
        Ok(Self { per_channel })
    }

    /// The heaviest channel load.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.per_channel.values().copied().max().unwrap_or(0)
    }

    /// Mean load over channels that carry anything.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.per_channel.is_empty() {
            return 0.0;
        }
        self.per_channel.values().sum::<u64>() as f64 / self.per_channel.len() as f64
    }

    /// Sorted multiset of loads — two routings with equal multisets are
    /// equally balanced, which is exactly what a LID swap preserves.
    #[must_use]
    pub fn load_multiset(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.per_channel.values().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhop::MinHop;
    use crate::testutil::assign_lids;
    use crate::RoutingEngine;
    use ib_subnet::topology::fattree::two_level;

    #[test]
    fn loads_counted_on_switch_links_only() {
        let mut t = two_level(2, 2, 2);
        assign_lids(&mut t);
        let tables = MinHop.compute(&t.subnet).unwrap();
        let load = LinkLoad::from_tables(&t.subnet, &tables).unwrap();
        assert!(load.max() > 0);
        // Host-facing ports never appear as channels.
        let g = SwitchGraph::build(&t.subnet).unwrap();
        for &(s, p) in load.per_channel.keys() {
            assert!(g.neighbors(s as usize).iter().any(|&(_, q)| q.raw() == p));
        }
    }

    #[test]
    fn from_subnet_matches_from_tables_after_install() {
        let mut t = two_level(2, 2, 2);
        assign_lids(&mut t);
        let tables = MinHop.compute(&t.subnet).unwrap();
        tables.install(&mut t.subnet).unwrap();
        let a = LinkLoad::from_tables(&t.subnet, &tables).unwrap();
        let b = LinkLoad::from_subnet(&t.subnet).unwrap();
        assert_eq!(a.load_multiset(), b.load_multiset());
    }

    #[test]
    fn stats_sane() {
        let mut t = two_level(3, 3, 2);
        assign_lids(&mut t);
        let tables = MinHop.compute(&t.subnet).unwrap();
        let load = LinkLoad::from_tables(&t.subnet, &tables).unwrap();
        assert!(load.mean() > 0.0);
        assert!(load.max() as f64 >= load.mean());
    }
}
