//! Compute-node resources and VM flavors.

use ib_types::{IbError, IbResult};

/// A compute node's resource envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeResources {
    /// CPU cores.
    pub cores: u32,
    /// RAM in GiB.
    pub ram_gb: u32,
}

/// A VM sizing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmFlavor {
    /// Flavor name (`"small"`, ...).
    pub name: String,
    /// Cores requested.
    pub cores: u32,
    /// RAM requested (GiB).
    pub ram_gb: u32,
}

impl VmFlavor {
    /// A 1-core / 2 GiB flavor.
    #[must_use]
    pub fn small() -> Self {
        Self {
            name: "small".into(),
            cores: 1,
            ram_gb: 2,
        }
    }

    /// A 2-core / 8 GiB flavor.
    #[must_use]
    pub fn medium() -> Self {
        Self {
            name: "medium".into(),
            cores: 2,
            ram_gb: 8,
        }
    }
}

#[derive(Clone, Debug)]
struct NodeState {
    total: NodeResources,
    used: NodeResources,
}

/// Resource accounting across compute nodes, indexed by hypervisor index.
#[derive(Clone, Debug)]
pub struct Inventory {
    nodes: Vec<NodeState>,
}

impl Inventory {
    /// Uniform inventory: every hypervisor gets the same envelope.
    #[must_use]
    pub fn uniform(hypervisors: usize, per_node: NodeResources) -> Self {
        Self {
            nodes: vec![
                NodeState {
                    total: per_node,
                    used: NodeResources {
                        cores: 0,
                        ram_gb: 0
                    },
                };
                hypervisors
            ],
        }
    }

    /// Heterogeneous inventory from explicit envelopes.
    #[must_use]
    pub fn from_nodes(nodes: Vec<NodeResources>) -> Self {
        Self {
            nodes: nodes
                .into_iter()
                .map(|total| NodeState {
                    total,
                    used: NodeResources {
                        cores: 0,
                        ram_gb: 0,
                    },
                })
                .collect(),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether there are no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `flavor` fits on node `idx` right now.
    #[must_use]
    pub fn fits(&self, idx: usize, flavor: &VmFlavor) -> bool {
        let n = &self.nodes[idx];
        n.used.cores + flavor.cores <= n.total.cores
            && n.used.ram_gb + flavor.ram_gb <= n.total.ram_gb
    }

    /// Claims `flavor` on node `idx`.
    pub fn allocate(&mut self, idx: usize, flavor: &VmFlavor) -> IbResult<()> {
        if !self.fits(idx, flavor) {
            return Err(IbError::Capacity(format!(
                "flavor {} does not fit node {idx}",
                flavor.name
            )));
        }
        self.nodes[idx].used.cores += flavor.cores;
        self.nodes[idx].used.ram_gb += flavor.ram_gb;
        Ok(())
    }

    /// Releases `flavor` from node `idx`.
    pub fn release(&mut self, idx: usize, flavor: &VmFlavor) -> IbResult<()> {
        let n = &mut self.nodes[idx];
        if n.used.cores < flavor.cores || n.used.ram_gb < flavor.ram_gb {
            return Err(IbError::Capacity(format!(
                "releasing more than allocated on node {idx}"
            )));
        }
        n.used.cores -= flavor.cores;
        n.used.ram_gb -= flavor.ram_gb;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_release_roundtrip() {
        let mut inv = Inventory::uniform(
            2,
            NodeResources {
                cores: 4,
                ram_gb: 32,
            },
        );
        let f = VmFlavor::medium();
        assert!(inv.fits(0, &f));
        inv.allocate(0, &f).unwrap();
        inv.allocate(0, &f).unwrap();
        assert!(!inv.fits(0, &f), "node full");
        assert!(inv.allocate(0, &f).is_err());
        inv.release(0, &f).unwrap();
        assert!(inv.fits(0, &f));
    }

    #[test]
    fn over_release_rejected() {
        let mut inv = Inventory::uniform(
            1,
            NodeResources {
                cores: 4,
                ram_gb: 8,
            },
        );
        assert!(inv.release(0, &VmFlavor::small()).is_err());
    }

    #[test]
    fn heterogeneous_nodes() {
        // The paper's testbed: 8-core and 4-core HP compute nodes.
        let inv = Inventory::from_nodes(vec![
            NodeResources {
                cores: 8,
                ram_gb: 32,
            },
            NodeResources {
                cores: 4,
                ram_gb: 32,
            },
        ]);
        let five = VmFlavor {
            name: "five".into(),
            cores: 5,
            ram_gb: 8,
        };
        assert!(inv.fits(0, &five));
        assert!(!inv.fits(1, &five));
    }
}
