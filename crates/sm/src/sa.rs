//! Subnet Administration: PathRecord queries and the query cache.
//!
//! §I of the paper describes the failure mode that motivates everything
//! else: when a VM migrates and its addresses change, "other nodes
//! communicating with the VM-in-migration lose connectivity and try to
//! find the new address to reconnect to by sending Subnet Administration
//! (SA) path record queries to the IB Subnet Manager" — a query storm that
//! loads the SM and the fabric. The authors' prior work (reference \[10\],
//! *A Novel Query Caching Scheme for Dynamic InfiniBand Subnets*) showed
//! that caching path records keyed by the peer's *GID* removes the
//! repetitive queries — **provided** the VM keeps its addresses across the
//! migration, which is exactly what the vSwitch architectures guarantee.
//!
//! This module provides both halves: [`SaService`], the SM-side resolver
//! that answers `PathRecord(src GID, dst GID)` queries and counts them,
//! and [`PathRecordCache`], the client-side cache whose hit rate collapses
//! to zero only when addresses actually change (the Shared Port baseline).

use ib_subnet::Subnet;
use ib_types::{Gid, IbError, IbResult, Lid};
use rustc_hash::FxHashMap;

/// A resolved path record: the addressing a consumer needs to open a
/// connection to a peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathRecord {
    /// Destination GID the record answers for.
    pub dgid: Gid,
    /// Destination LID to put on the wire.
    pub dlid: Lid,
    /// Source LID.
    pub slid: Lid,
    /// Hop count between the endpoints under the installed LFTs.
    pub hops: usize,
}

/// The SM-side SA: resolves GIDs against the live subnet and counts the
/// query load it absorbs.
#[derive(Debug, Default)]
pub struct SaService {
    /// GID -> LID directory, maintained by whoever assigns addresses.
    directory: FxHashMap<u128, Lid>,
    /// Total PathRecord queries served (the load §I worries about).
    pub queries_served: u64,
}

impl SaService {
    /// An empty SA.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-registers) a GID at a LID. Called at endpoint
    /// bring-up and again when addresses move.
    pub fn register(&mut self, gid: Gid, lid: Lid) {
        self.directory.insert(gid.as_u128(), lid);
    }

    /// Serves one `SubnAdmGet(PathRecord)` query.
    ///
    /// The hop count is measured by walking the installed LFTs from the
    /// source — the SA answers from fabric state, not topology intent.
    pub fn path_record(
        &mut self,
        subnet: &Subnet,
        src_lid: Lid,
        dgid: Gid,
    ) -> IbResult<PathRecord> {
        self.queries_served += 1;
        let dlid = self
            .directory
            .get(&dgid.as_u128())
            .copied()
            .ok_or_else(|| IbError::Management(format!("SA: no record for GID {dgid}")))?;
        let src_ep = subnet
            .endpoint_of(src_lid)
            .ok_or_else(|| IbError::Management(format!("SA: unknown source LID {src_lid}")))?;
        let path = subnet.trace_route(src_ep.node, dlid, 64)?;
        Ok(PathRecord {
            dgid,
            dlid,
            slid: src_lid,
            hops: path.len() - 1,
        })
    }
}

/// Client-side path-record cache (the reference-\[10\] scheme): records are
/// keyed by destination GID, so they stay valid exactly as long as the
/// peer's addresses do.
#[derive(Clone, Debug, Default)]
pub struct PathRecordCache {
    records: FxHashMap<u128, PathRecord>,
    /// Lookups answered locally.
    pub hits: u64,
    /// Lookups that had to query the SA.
    pub misses: u64,
}

impl PathRecordCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves `dgid`, consulting the SA only on a miss.
    pub fn resolve(
        &mut self,
        sa: &mut SaService,
        subnet: &Subnet,
        src_lid: Lid,
        dgid: Gid,
    ) -> IbResult<PathRecord> {
        if let Some(rec) = self.records.get(&dgid.as_u128()) {
            self.hits += 1;
            return Ok(*rec);
        }
        self.misses += 1;
        let rec = sa.path_record(subnet, src_lid, dgid)?;
        self.records.insert(dgid.as_u128(), rec);
        Ok(rec)
    }

    /// Validates a cached record against the live fabric: the record is
    /// *stale* if the GID no longer answers at the cached LID — which is
    /// what happens to every peer of a Shared-Port VM after it migrates.
    #[must_use]
    pub fn is_stale(&self, subnet: &Subnet, dgid: Gid) -> bool {
        match self.records.get(&dgid.as_u128()) {
            // Not cached yet: nothing to be stale.
            None => false,
            Some(rec) => subnet.endpoint_of(rec.dlid).is_none(),
        }
    }

    /// Cached record count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SmConfig, SubnetManager};
    use ib_subnet::topology::fattree::two_level;
    use ib_types::{Guid, PortNum};

    fn fabric() -> (ib_subnet::topology::BuiltTopology, SaService) {
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        sm.bring_up(&mut t.subnet).unwrap();
        let mut sa = SaService::new();
        for &h in &t.hosts {
            let lid = t.subnet.node(h).ports[1].lid.unwrap();
            let gid = Gid::link_local(t.subnet.node(h).guid);
            sa.register(gid, lid);
        }
        (t, sa)
    }

    fn gid_of(t: &ib_subnet::topology::BuiltTopology, i: usize) -> Gid {
        Gid::link_local(t.subnet.node(t.hosts[i]).guid)
    }

    fn lid_of(t: &ib_subnet::topology::BuiltTopology, i: usize) -> Lid {
        t.subnet.node(t.hosts[i]).ports[1].lid.unwrap()
    }

    #[test]
    fn path_record_resolves_and_measures_hops() {
        let (t, mut sa) = fabric();
        let rec = sa
            .path_record(&t.subnet, lid_of(&t, 0), gid_of(&t, 5))
            .unwrap();
        assert_eq!(rec.dlid, lid_of(&t, 5));
        // Cross-leaf: host -> leaf -> spine -> leaf -> host = 4 hops.
        assert_eq!(rec.hops, 4);
        assert_eq!(sa.queries_served, 1);
    }

    #[test]
    fn unknown_gid_is_an_error() {
        let (t, mut sa) = fabric();
        let bogus = Gid::link_local(Guid::from_raw(0xdead_beef));
        assert!(sa.path_record(&t.subnet, lid_of(&t, 0), bogus).is_err());
    }

    #[test]
    fn cache_eliminates_repeat_queries() {
        let (t, mut sa) = fabric();
        let mut cache = PathRecordCache::new();
        for _ in 0..10 {
            cache
                .resolve(&mut sa, &t.subnet, lid_of(&t, 0), gid_of(&t, 4))
                .unwrap();
        }
        assert_eq!(sa.queries_served, 1, "one miss, nine hits");
        assert_eq!(cache.hits, 9);
        assert_eq!(cache.misses, 1);
    }

    #[test]
    fn stale_detection_after_address_change() {
        let (mut t, mut sa) = fabric();
        let mut cache = PathRecordCache::new();
        let dgid = gid_of(&t, 4);
        cache
            .resolve(&mut sa, &t.subnet, lid_of(&t, 0), dgid)
            .unwrap();
        assert!(!cache.is_stale(&t.subnet, dgid));

        // Simulate a Shared-Port-style migration: host 4's LID changes,
        // and the SM reconfigures the fabric for the new LID (reference
        // [10] restarts OpenSM to the same effect).
        let old = lid_of(&t, 4);
        t.subnet.clear_lid(old).unwrap();
        t.subnet
            .assign_port_lid(t.hosts[4], PortNum::new(1), Lid::from_raw(40))
            .unwrap();
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        sm.full_reconfiguration(&mut t.subnet).unwrap();
        sa.register(dgid, Lid::from_raw(40));

        assert!(
            cache.is_stale(&t.subnet, dgid),
            "cached LID no longer answers"
        );
        // The consumer drops its stale record and asks again.
        cache = PathRecordCache::new();
        let rec = cache
            .resolve(&mut sa, &t.subnet, lid_of(&t, 0), dgid)
            .unwrap();
        assert_eq!(rec.dlid, Lid::from_raw(40));
        assert_eq!(
            sa.queries_served, 2,
            "the re-query the paper wants to avoid"
        );
    }
}
