//! Linear Forwarding Tables.
//!
//! Every switch routes unicast packets by indexing its LFT with the
//! destination LID. The management plane reads and writes LFTs in blocks of
//! [`LFT_BLOCK_SIZE`] (64) entries; one `SubnSet(LinearForwardingTable)` SMP
//! carries exactly one block. Consequently the *number of dirty blocks*, not
//! the number of changed entries, determines reconfiguration traffic — the
//! observation at the heart of the paper's one-or-two-SMPs-per-switch
//! live-migration reconfiguration.

use ib_types::{Lid, PortNum, LFT_BLOCK_SIZE};

/// A switch's Linear Forwarding Table.
///
/// Stored densely, indexed by raw LID, in multiples of the 64-entry block
/// size. Entries are `None` when the LID is unreachable from this switch
/// (the wire encoding would be port 255 or an uninitialized entry; we keep
/// "drop deliberately" — [`PortNum::DROP`] — distinct from "never set").
#[derive(Clone, Debug, Default)]
pub struct Lft {
    entries: Vec<Option<PortNum>>,
}

/// Equality is semantic: blocks that exist on one side but are entirely
/// unset are equal to absent blocks (growing a table without setting
/// anything does not change it).
impl PartialEq for Lft {
    fn eq(&self, other: &Self) -> bool {
        let common = self.entries.len().min(other.entries.len());
        self.entries[..common] == other.entries[..common]
            && self.entries[common..].iter().all(Option::is_none)
            && other.entries[common..].iter().all(Option::is_none)
    }
}

impl Eq for Lft {}

impl Lft {
    /// An empty LFT with no blocks allocated.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An LFT pre-sized to cover `topmost` (rounded up to a block boundary).
    #[must_use]
    pub fn with_topmost(topmost: Lid) -> Self {
        let blocks = topmost.lft_block() + 1;
        Self {
            entries: vec![None; blocks * LFT_BLOCK_SIZE],
        }
    }

    /// Number of 64-entry blocks currently allocated.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.entries.len() / LFT_BLOCK_SIZE
    }

    /// The whole table as one row indexed by raw LID (block-padded; LIDs
    /// past its end are unset) — what the verifier's flat kernels scan.
    #[inline]
    #[must_use]
    pub fn entries(&self) -> &[Option<PortNum>] {
        &self.entries
    }

    /// The forwarding port for `lid`, or `None` if unreachable/unset.
    #[must_use]
    pub fn get(&self, lid: Lid) -> Option<PortNum> {
        self.entries.get(lid.raw() as usize).copied().flatten()
    }

    /// Sets the forwarding port for `lid`, growing the table to the
    /// containing block if needed.
    pub fn set(&mut self, lid: Lid, port: PortNum) {
        // A covered LID is one bounds-checked store: routing engines fill
        // pre-sized tables ([`Lft::with_topmost`]) cell by cell.
        if let Some(e) = self.entries.get_mut(lid.raw() as usize) {
            *e = Some(port);
            return;
        }
        self.ensure_block(lid.lft_block());
        self.entries[lid.raw() as usize] = Some(port);
    }

    /// Clears the entry for `lid` (marks it unreachable).
    pub fn clear(&mut self, lid: Lid) {
        if let Some(e) = self.entries.get_mut(lid.raw() as usize) {
            *e = None;
        }
    }

    /// Writes the entry for `lid`: [`Lft::set`] for a port, [`Lft::clear`]
    /// for `None`.
    pub fn assign(&mut self, lid: Lid, port: Option<PortNum>) {
        match port {
            Some(p) => self.set(lid, p),
            None => self.clear(lid),
        }
    }

    /// Swaps the entries of two LIDs in place.
    ///
    /// This is the primitive of the prepopulated-LID reconfiguration
    /// (§V-C1): exchanging the row of the migrating VM's LID with the row of
    /// the destination VF's LID preserves the permutation — and therefore the
    /// balancing — of the initial routing.
    pub fn swap(&mut self, a: Lid, b: Lid) {
        self.ensure_block(a.lft_block().max(b.lft_block()));
        self.entries.swap(a.raw() as usize, b.raw() as usize);
    }

    /// Copies the entry of `src` into `dst`.
    ///
    /// This is the primitive of the dynamic-LID-assignment reconfiguration
    /// (§V-C2): a VM's LID adopts the forwarding port of the destination
    /// hypervisor's PF LID, because every VF shares the PF's uplink.
    pub fn copy(&mut self, src: Lid, dst: Lid) {
        self.ensure_block(src.lft_block().max(dst.lft_block()));
        self.entries[dst.raw() as usize] = self.entries[src.raw() as usize];
    }

    /// Read-only view of one 64-entry block.
    ///
    /// Returns `None` if the block is beyond the allocated range.
    #[must_use]
    pub fn block(&self, block: usize) -> Option<&[Option<PortNum>]> {
        let start = block * LFT_BLOCK_SIZE;
        let end = start + LFT_BLOCK_SIZE;
        self.entries.get(start..end)
    }

    /// Overwrites one 64-entry block (the receive side of a
    /// `SubnSet(LinearForwardingTable)` SMP).
    pub fn write_block(&mut self, block: usize, data: &[Option<PortNum>; LFT_BLOCK_SIZE]) {
        self.ensure_block(block);
        let start = block * LFT_BLOCK_SIZE;
        self.entries[start..start + LFT_BLOCK_SIZE].copy_from_slice(data);
    }

    /// Block indices whose contents differ between `self` and `other`.
    ///
    /// The subnet manager uses this to send only dirty blocks when
    /// distributing a recomputed LFT. Length differences count: blocks
    /// present on one side and absent on the other are dirty unless the
    /// present side is entirely unset.
    #[must_use]
    pub fn dirty_blocks(&self, other: &Lft) -> Vec<usize> {
        let max_blocks = self.num_blocks().max(other.num_blocks());
        let empty = [None; LFT_BLOCK_SIZE];
        let mut dirty = Vec::new();
        for b in 0..max_blocks {
            let lhs = self.block(b).unwrap_or(&empty);
            let rhs = other.block(b).unwrap_or(&empty);
            if lhs != rhs {
                dirty.push(b);
            }
        }
        dirty
    }

    /// Number of entries that are set.
    #[must_use]
    pub fn populated(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Iterator over `(lid, port)` pairs for all set entries.
    pub fn iter(&self) -> impl Iterator<Item = (Lid, PortNum)> + '_ {
        self.entries.iter().enumerate().filter_map(|(raw, e)| {
            let port = (*e)?;
            // Index 0 can never be set (LID 0 is unconstructible).
            Some((Lid::from_raw(raw as u16), port))
        })
    }

    /// A copy of this LFT padded to cover LIDs `1..=topmost`: unset entries
    /// in that range become [`PortNum::DROP`].
    ///
    /// OpenSM initializes every LFT entry up to the topmost assigned LID
    /// (unreachable ones to 255) and pushes *all* covered blocks on a virgin
    /// fabric — which is why a full distribution costs `n · m` SMPs even
    /// though most entries never change from "drop" (§VI-A, Table I).
    #[must_use]
    pub fn padded(&self, topmost: Lid) -> Lft {
        let mut out = self.clone();
        out.ensure_block(topmost.lft_block());
        for raw in 1..=topmost.raw() as usize {
            if out.entries[raw].is_none() {
                out.entries[raw] = Some(PortNum::DROP);
            }
        }
        out
    }

    /// A borrowed, lazily padded view of this LFT (see [`Lft::padded`]):
    /// entries `1..=topmost` read as [`PortNum::DROP`] when unset, without
    /// materializing a padded clone. With `topmost == None` the view reads
    /// exactly like the underlying table.
    ///
    /// This is the allocation-free form the SM's sweep uses: one padded
    /// clone per switch per sweep is the dominant cost of diffing a target
    /// LFT at fat-tree scale.
    #[must_use]
    pub fn padded_view(&self, topmost: Option<Lid>) -> PaddedLftView<'_> {
        PaddedLftView { lft: self, topmost }
    }

    fn ensure_block(&mut self, block: usize) {
        let needed = (block + 1) * LFT_BLOCK_SIZE;
        if self.entries.len() < needed {
            self.entries.resize(needed, None);
        }
    }
}

/// A read-only view of an [`Lft`] padded to a topmost LID, equivalent to
/// [`Lft::padded`] block for block but borrowing instead of cloning.
#[derive(Clone, Copy, Debug)]
pub struct PaddedLftView<'a> {
    lft: &'a Lft,
    topmost: Option<Lid>,
}

impl PaddedLftView<'_> {
    /// Number of 64-entry blocks the view covers: every allocated block of
    /// the underlying table, extended to cover `topmost`.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        let from_top = self.topmost.map_or(0, |t| t.lft_block() + 1);
        self.lft.num_blocks().max(from_top)
    }

    /// Materializes one 64-entry block into `out`, applying the padding
    /// rule: unset entries in `1..=topmost` become [`PortNum::DROP`],
    /// entries beyond stay unset.
    pub fn copy_block_into(&self, block: usize, out: &mut [Option<PortNum>; LFT_BLOCK_SIZE]) {
        match self.lft.block(block) {
            Some(src) => out.copy_from_slice(src),
            None => out.fill(None),
        }
        if let Some(top) = self.topmost {
            let start = block * LFT_BLOCK_SIZE;
            let top = top.raw() as usize;
            for (i, entry) in out.iter_mut().enumerate() {
                let raw = start + i;
                if raw >= 1 && raw <= top && entry.is_none() {
                    *entry = Some(PortNum::DROP);
                }
            }
        }
    }

    /// Block indices where `installed` differs from this (padded) view —
    /// identical to `installed.dirty_blocks(&lft.padded(topmost))` without
    /// building the padded copy.
    #[must_use]
    pub fn dirty_blocks_against(&self, installed: &Lft) -> Vec<usize> {
        self.dirty_among(installed, 0..installed.num_blocks().max(self.num_blocks()))
    }

    /// The subset of `blocks` (kept in order) where `installed` differs
    /// from this view: the diff restricted to candidate blocks, for callers
    /// that know where the changes are.
    #[must_use]
    pub fn dirty_among(
        &self,
        installed: &Lft,
        blocks: impl IntoIterator<Item = usize>,
    ) -> Vec<usize> {
        let empty = [None; LFT_BLOCK_SIZE];
        let mut buf = [None; LFT_BLOCK_SIZE];
        blocks
            .into_iter()
            .filter(|&b| {
                self.copy_block_into(b, &mut buf);
                installed.block(b).unwrap_or(&empty) != buf.as_slice()
            })
            .collect()
    }
}

/// Minimum number of LFT blocks a switch must hold to cover `topmost`.
///
/// Table I's "Min LFT Blocks/Switch" column: `ceil((topmost_lid + 1) / 64)`
/// — e.g. 360 consumed LIDs (topmost 360) need 6 blocks, 13284 need 208.
#[must_use]
pub fn min_blocks_for(topmost: Lid) -> usize {
    topmost.lft_block() + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lid(raw: u16) -> Lid {
        Lid::from_raw(raw)
    }

    fn port(raw: u8) -> PortNum {
        PortNum::new(raw)
    }

    #[test]
    fn set_get_roundtrip() {
        let mut lft = Lft::new();
        lft.set(lid(5), port(3));
        assert_eq!(lft.get(lid(5)), Some(port(3)));
        assert_eq!(lft.get(lid(6)), None);
        assert_eq!(lft.num_blocks(), 1);
    }

    #[test]
    fn growth_is_block_granular() {
        let mut lft = Lft::new();
        lft.set(lid(64), port(1));
        assert_eq!(lft.num_blocks(), 2);
        lft.set(lid(200), port(2));
        assert_eq!(lft.num_blocks(), 4); // LID 200 is in block 3.
    }

    #[test]
    fn swap_matches_fig5() {
        // Fig. 5: before migration LID 2 -> port 2 and LID 12 -> port 4;
        // after, LID 2 -> port 4 and LID 12 -> port 2.
        let mut lft = Lft::new();
        lft.set(lid(2), port(2));
        lft.set(lid(12), port(4));
        lft.swap(lid(2), lid(12));
        assert_eq!(lft.get(lid(2)), Some(port(4)));
        assert_eq!(lft.get(lid(12)), Some(port(2)));
    }

    #[test]
    fn swap_is_involution() {
        let mut lft = Lft::new();
        lft.set(lid(2), port(2));
        lft.set(lid(70), port(4));
        let before = lft.clone();
        lft.swap(lid(2), lid(70));
        lft.swap(lid(2), lid(70));
        assert_eq!(lft, before);
    }

    #[test]
    fn copy_duplicates_pf_path() {
        let mut lft = Lft::new();
        lft.set(lid(3), port(7)); // PF of destination hypervisor.
        lft.copy(lid(3), lid(9)); // VM LID inherits the PF port.
        assert_eq!(lft.get(lid(9)), Some(port(7)));
        assert_eq!(lft.get(lid(3)), Some(port(7)));
    }

    #[test]
    fn dirty_blocks_same_block_swap_is_one() {
        // LIDs 2 and 12 share block 0: a swap dirties exactly one block.
        let mut a = Lft::new();
        a.set(lid(2), port(2));
        a.set(lid(12), port(4));
        let mut b = a.clone();
        b.swap(lid(2), lid(12));
        assert_eq!(a.dirty_blocks(&b), vec![0]);
    }

    #[test]
    fn dirty_blocks_cross_block_swap_is_two() {
        // §V-C1: "If the LID of VF3 ... was 64 or greater, then two SMPs
        // would need to be sent as two LFT blocks would have to be updated."
        let mut a = Lft::new();
        a.set(lid(2), port(2));
        a.set(lid(64), port(4));
        let mut b = a.clone();
        b.swap(lid(2), lid(64));
        assert_eq!(a.dirty_blocks(&b), vec![0, 1]);
    }

    #[test]
    fn dirty_blocks_no_change_is_empty() {
        let mut a = Lft::new();
        a.set(lid(2), port(2));
        // Swapping two LIDs that forward through the same port is a no-op.
        a.set(lid(6), port(2));
        let mut b = a.clone();
        b.swap(lid(2), lid(6));
        assert!(a.dirty_blocks(&b).is_empty());
    }

    #[test]
    fn dirty_blocks_detects_length_difference() {
        let mut a = Lft::new();
        a.set(lid(2), port(2));
        let mut b = a.clone();
        b.set(lid(100), port(1));
        assert_eq!(a.dirty_blocks(&b), vec![1]);
    }

    #[test]
    fn write_block_applies_smp_payload() {
        let mut src = Lft::new();
        for raw in 1..64u16 {
            src.set(lid(raw), port((raw % 36) as u8 + 1));
        }
        let mut dst = Lft::new();
        let mut payload = [None; LFT_BLOCK_SIZE];
        payload.copy_from_slice(src.block(0).unwrap());
        dst.write_block(0, &payload);
        assert_eq!(dst, src);
    }

    #[test]
    fn min_blocks_matches_table1() {
        // Table I: 360 LIDs -> 6 blocks, 702 -> 11, 6804 -> 107, 13284 -> 208
        // (consumed LIDs are 1..=topmost in the paper's regular networks).
        assert_eq!(min_blocks_for(lid(360)), 6);
        assert_eq!(min_blocks_for(lid(702)), 11);
        assert_eq!(min_blocks_for(lid(6804)), 107);
        assert_eq!(min_blocks_for(lid(13284)), 208);
        // §VII-C: topmost unicast LID forces the full 768-block table.
        assert_eq!(min_blocks_for(lid(0xBFFF)), 768);
    }

    #[test]
    fn iter_yields_set_entries() {
        let mut lft = Lft::new();
        lft.set(lid(2), port(2));
        lft.set(lid(65), port(4));
        let got: Vec<(u16, u8)> = lft.iter().map(|(l, p)| (l.raw(), p.raw())).collect();
        assert_eq!(got, vec![(2, 2), (65, 4)]);
    }

    #[test]
    fn clear_marks_unreachable() {
        let mut lft = Lft::new();
        lft.set(lid(2), port(2));
        lft.clear(lid(2));
        assert_eq!(lft.get(lid(2)), None);
        assert_eq!(lft.populated(), 0);
    }

    #[test]
    fn padded_covers_every_block_up_to_topmost() {
        let mut lft = Lft::new();
        lft.set(lid(2), port(2));
        let padded = lft.padded(lid(130));
        assert_eq!(padded.num_blocks(), 3);
        assert_eq!(padded.get(lid(2)), Some(port(2)));
        assert_eq!(padded.get(lid(130)), Some(PortNum::DROP));
        assert_eq!(padded.get(lid(131)), None, "beyond topmost stays unset");
        // Against an empty LFT, every covered block is dirty: the n*m term.
        assert_eq!(Lft::new().dirty_blocks(&padded), vec![0, 1, 2]);
    }

    #[test]
    fn padded_view_matches_padded_clone() {
        let mut lft = Lft::new();
        lft.set(lid(2), port(2));
        lft.set(lid(70), port(4));
        for topmost in [None, Some(lid(2)), Some(lid(130)), Some(lid(70))] {
            let view = lft.padded_view(topmost);
            let clone = match topmost {
                Some(t) => lft.padded(t),
                None => lft.clone(),
            };
            assert_eq!(view.num_blocks(), clone.num_blocks(), "{topmost:?}");
            let mut buf = [None; LFT_BLOCK_SIZE];
            for b in 0..view.num_blocks() + 1 {
                view.copy_block_into(b, &mut buf);
                let expect = clone.block(b).unwrap_or(&[None; LFT_BLOCK_SIZE]);
                assert_eq!(&buf[..], expect, "block {b} under {topmost:?}");
            }
            // Dirty sets against assorted installed tables agree too.
            for installed in [Lft::new(), lft.clone(), clone.clone()] {
                assert_eq!(
                    view.dirty_blocks_against(&installed),
                    installed.dirty_blocks(&clone),
                    "{topmost:?}"
                );
            }
        }
    }

    #[test]
    fn padded_view_sees_blocks_beyond_topmost() {
        // The installed table is longer than the padded target: the extra
        // installed blocks must still show up dirty.
        let target = Lft::new();
        let mut installed = Lft::new();
        installed.set(lid(200), port(3));
        let view = target.padded_view(Some(lid(64)));
        assert_eq!(
            view.dirty_blocks_against(&installed),
            installed.dirty_blocks(&target.padded(lid(64)))
        );
    }

    #[test]
    fn drop_port_is_representable() {
        // §VI-C's partially-static variant forwards the migrating LID
        // through port 255 so traffic is dropped, distinct from unset.
        let mut lft = Lft::new();
        lft.set(lid(2), PortNum::DROP);
        assert_eq!(lft.get(lid(2)), Some(PortNum::DROP));
        assert_eq!(lft.populated(), 1);
    }
}
