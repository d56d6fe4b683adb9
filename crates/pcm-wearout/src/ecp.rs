//! ECP (Error-Correcting Pointers) adapted to MLC, the paper's wearout
//! mechanism for the 4LC design (Figure 14, after Schechter et al. \[27\]).
//!
//! Each ECP entry names a failed cell with an 8-bit pointer (enough for
//! the 256-cell data block) stored in four 2-bit cells, plus one
//! replacement cell holding the failed cell's 2-bit symbol: **five cells
//! per tolerated failure**. Six entries plus a one-cell full/valid flag
//! vector cost 31 cells per 64B block (§6.6).
//!
//! On read, entries are applied *after* transient-error correction (the
//! paper's Figure 9 ordering, mirrored for 4LC in §6.6): the pointed-to
//! cells' sensed states are overridden by their replacement cells.

/// ECP entry count for the paper's 64B block.
pub const PAPER_ENTRIES: usize = 6;

/// Cells per ECP entry: 8-bit pointer in 4 cells + 1 replacement cell.
pub const CELLS_PER_ENTRY: usize = 5;

/// ECP table error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcpError {
    /// All entries are in use; the block cannot absorb another failure.
    Full,
    /// Pointer out of range for the protected block.
    BadPointer {
        /// The offending pointer.
        ptr: usize,
        /// Cells in the protected block.
        block_cells: usize,
    },
}

impl std::fmt::Display for EcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcpError::Full => write!(f, "ECP table full"),
            EcpError::BadPointer { ptr, block_cells } => {
                write!(f, "pointer {ptr} outside block of {block_cells} cells")
            }
        }
    }
}

impl std::error::Error for EcpError {}

/// An ECP table protecting a block of MLC cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcpMlc {
    block_cells: usize,
    entries: Vec<Option<(usize, usize)>>, // (pointer, replacement state)
}

impl EcpMlc {
    /// Table with `n_entries` entries protecting `block_cells` cells.
    pub fn new(block_cells: usize, n_entries: usize) -> Self {
        // pcm-lint: allow(no-panic-lib) — constructor contract: ECP needs cells and at least one correction entry
        assert!(block_cells >= 1 && n_entries >= 1);
        Self {
            block_cells,
            entries: vec![None; n_entries],
        }
    }

    /// The paper's configuration: 256 data cells, 6 entries.
    pub fn paper() -> Self {
        Self::new(256, PAPER_ENTRIES)
    }

    /// Storage overhead in cells: 5 per entry + 1 full-flag cell (§6.6's
    /// 31 cells for six entries). Zero entries need no flag cell.
    pub fn overhead_cells(n_entries: usize) -> usize {
        if n_entries == 0 {
            0
        } else {
            CELLS_PER_ENTRY * n_entries + 1
        }
    }

    /// Entries still free.
    pub fn free_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.is_none()).count()
    }

    /// Whether every entry is consumed (the "full" flag of Figure 14).
    pub fn is_full(&self) -> bool {
        self.free_entries() == 0
    }

    /// Record a failed cell and the symbol it should read as. If the cell
    /// already has an entry (it failed again with new data), the entry is
    /// updated in place.
    pub fn mark(&mut self, ptr: usize, replacement_state: usize) -> Result<(), EcpError> {
        if ptr >= self.block_cells {
            return Err(EcpError::BadPointer {
                ptr,
                block_cells: self.block_cells,
            });
        }
        // pcm-lint: allow(no-panic-lib) — contract: MLC replacement symbols are 2 bits by the ECP layout
        assert!(replacement_state < 4, "MLC replacement symbol is 2 bits");
        if let Some(entry) = self.entries.iter_mut().flatten().find(|(p, _)| *p == ptr) {
            entry.1 = replacement_state;
            return Ok(());
        }
        match self.entries.iter_mut().find(|e| e.is_none()) {
            Some(slot) => {
                *slot = Some((ptr, replacement_state));
                Ok(())
            }
            None => Err(EcpError::Full),
        }
    }

    /// On a write, refresh the replacement values of already-marked cells
    /// (the pointed cells can't store the new data themselves).
    pub fn update_for_write<S: Copy + Into<usize>>(&mut self, states: &[S]) {
        assert_eq!(states.len(), self.block_cells);
        for entry in self.entries.iter_mut().flatten() {
            entry.1 = states[entry.0].into();
        }
    }

    /// Apply corrections to sensed states (the read-path MUX of
    /// Figure 14). Replacement symbols are 2-bit states.
    pub fn apply<S: From<u8>>(&self, states: &mut [S]) {
        assert_eq!(states.len(), self.block_cells);
        for &(ptr, replacement) in self.entries.iter().flatten() {
            states[ptr] = S::from(replacement as u8);
        }
    }

    /// Pointers currently covered.
    pub fn marked_cells(&self) -> Vec<usize> {
        self.entries.iter().flatten().map(|&(p, _)| p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_overhead_is_31_cells() {
        assert_eq!(EcpMlc::overhead_cells(PAPER_ENTRIES), 31);
        assert_eq!(EcpMlc::overhead_cells(0), 0);
        assert_eq!(EcpMlc::overhead_cells(1), 6);
    }

    #[test]
    fn mark_and_apply() {
        let mut ecp = EcpMlc::paper();
        ecp.mark(17, 2).unwrap();
        ecp.mark(255, 3).unwrap();
        let mut states = vec![0usize; 256];
        states[17] = 1; // garbage from the stuck cell
        ecp.apply(&mut states);
        assert_eq!(states[17], 2);
        assert_eq!(states[255], 3);
    }

    #[test]
    fn capacity_limit_enforced() {
        let mut ecp = EcpMlc::paper();
        for i in 0..PAPER_ENTRIES {
            ecp.mark(i, 0).unwrap();
        }
        assert!(ecp.is_full());
        assert_eq!(ecp.mark(100, 1), Err(EcpError::Full));
        // Re-marking an existing pointer is an update, not a new entry.
        assert_eq!(ecp.mark(3, 2), Ok(()));
    }

    #[test]
    fn bad_pointer_rejected() {
        let mut ecp = EcpMlc::paper();
        assert_eq!(
            ecp.mark(256, 0),
            Err(EcpError::BadPointer {
                ptr: 256,
                block_cells: 256
            })
        );
    }

    #[test]
    fn update_for_write_tracks_new_data() {
        let mut ecp = EcpMlc::paper();
        ecp.mark(5, 0).unwrap();
        let mut new_data = vec![0usize; 256];
        new_data[5] = 3;
        ecp.update_for_write(&new_data);
        let mut sensed = vec![0usize; 256];
        sensed[5] = 1; // stuck value
        ecp.apply(&mut sensed);
        assert_eq!(sensed[5], 3, "replacement must follow the latest write");
    }

    #[test]
    fn overhead_comparison_with_mark_and_spare() {
        // Table 3 / Figure 15's structural point: ECP pays 5 cells per
        // failure, mark-and-spare pays 2.
        let ecp_per_failure = CELLS_PER_ENTRY;
        let ms_per_failure = crate::mark_spare::MarkSpareCodec::cells_per_failure();
        assert_eq!(ecp_per_failure, 5);
        assert_eq!(ms_per_failure, 2);
    }
}
