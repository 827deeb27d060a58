//! Activities and the Figure 6 pointer-chase kernel.
//!
//! The paper's micro-benchmark alternates two *activities* (X and Y); the
//! memory activities differ **only in the pointer-chase mask**, so that any
//! observed modulation is attributable to where the accesses are served,
//! not to differences in surrounding code (§3). We reproduce that: every
//! memory activity runs the identical kernel with a different mask.

use crate::cache::{AccessLevel, MemoryHierarchy};
use crate::domains::DomainLoads;
use std::fmt;

/// One of the activity types used as X or Y in the alternation loop.
///
/// The paper's abbreviations: `LDM` = load from main memory (LLC miss),
/// `STM` = store to main memory, `LDL2` = L2 hit, `LDL1` = L1 hit, and
/// arithmetic activities (`ADD`, `MUL`, `DIV`) exercising the core only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// Load served by DRAM (LLC miss) — "LDM".
    LoadDram,
    /// Store stream forcing DRAM write-backs — "STM".
    StoreDram,
    /// Load served by the LLC.
    LoadLlc,
    /// Load served by the L2 — "LDL2".
    LoadL2,
    /// Load served by the L1 — "LDL1".
    LoadL1,
    /// Integer addition.
    Add,
    /// Integer multiplication.
    Mul,
    /// Integer division.
    Div,
    /// Idle spin (no-op loop).
    Nop,
}

impl Activity {
    /// All activities, for exhaustive tests.
    pub const ALL: [Activity; 9] = [
        Activity::LoadDram,
        Activity::StoreDram,
        Activity::LoadLlc,
        Activity::LoadL2,
        Activity::LoadL1,
        Activity::Add,
        Activity::Mul,
        Activity::Div,
        Activity::Nop,
    ];

    /// Pointer-chase footprint in bytes for a memory activity, derived from
    /// the hierarchy capacities so each activity is served at its intended
    /// level (half the target level's capacity; twice the LLC for DRAM).
    ///
    /// Returns `None` for non-memory activities.
    pub fn footprint_bytes(self, hierarchy: &MemoryHierarchy) -> Option<usize> {
        let (l1, l2, llc) = hierarchy.capacities();
        match self {
            Activity::LoadL1 => Some(l1 / 2),
            Activity::LoadL2 => Some(l2 / 2),
            Activity::LoadLlc => Some(llc / 2),
            Activity::LoadDram | Activity::StoreDram => Some(llc * 2),
            _ => None,
        }
    }

    /// Execution latency in CPU cycles for a non-memory activity.
    ///
    /// Returns `None` for memory activities (their latency comes from the
    /// hierarchy).
    pub fn alu_latency_cycles(self) -> Option<u64> {
        match self {
            Activity::Add => Some(1),
            Activity::Mul => Some(3),
            Activity::Div => Some(22),
            Activity::Nop => Some(1),
            _ => None,
        }
    }

    /// Per-domain load while one operation of this activity executes.
    ///
    /// For memory activities the load depends on which level actually
    /// served the access, so the serving level must be supplied.
    pub fn domain_loads(self, served: Option<AccessLevel>) -> DomainLoads {
        match (self, served) {
            (Activity::Add, _) => DomainLoads::new(0.85, 0.0, 0.0),
            (Activity::Mul, _) => DomainLoads::new(0.95, 0.0, 0.0),
            (Activity::Div, _) => DomainLoads::new(0.55, 0.0, 0.0),
            (Activity::Nop, _) => DomainLoads::new(0.15, 0.0, 0.0),
            // Core loads reflect the paper's observations: the benchmark
            // keeps the core "nearly 100% loaded" even while stalled on
            // DRAM (Fig. 11 shows the core regulator NOT modulated by
            // LDM/LDL1), while L2-hit loops retire far fewer core µops per
            // cycle than L1-hit loops (Fig. 13 shows LDL2/LDL1 modulating
            // the core regulator strongly).
            (_, Some(AccessLevel::L1)) => DomainLoads::new(1.0, 0.0, 0.0),
            (_, Some(AccessLevel::L2)) => DomainLoads::new(0.55, 0.05, 0.0),
            (_, Some(AccessLevel::Llc)) => DomainLoads::new(0.5, 0.6, 0.0),
            (_, Some(AccessLevel::Dram)) => DomainLoads::new(0.93, 1.0, 1.0),
            (_, None) => DomainLoads::IDLE,
        }
    }

    /// Short upper-case label matching the paper's notation.
    pub fn label(self) -> &'static str {
        match self {
            Activity::LoadDram => "LDM",
            Activity::StoreDram => "STM",
            Activity::LoadLlc => "LDLLC",
            Activity::LoadL2 => "LDL2",
            Activity::LoadL1 => "LDL1",
            Activity::Add => "ADD",
            Activity::Mul => "MUL",
            Activity::Div => "DIV",
            Activity::Nop => "NOP",
        }
    }
}

impl fmt::Display for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The pointer-update of Figure 6:
/// `ptr = (ptr & !mask) | ((ptr + offset) & mask)`.
///
/// The low `mask` bits walk through a power-of-two footprint with stride
/// `offset`; the high bits never change, so the walk stays inside its
/// buffer. With `offset` equal to one cache line, consecutive operations
/// touch consecutive lines and wrap at the footprint boundary.
///
/// # Examples
///
/// ```
/// use fase_sysmodel::activity::PointerChase;
/// let mut chase = PointerChase::new(0x10_0000, 4096, 64);
/// let a = chase.next_address();
/// let b = chase.next_address();
/// assert_eq!(b - a, 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointerChase {
    ptr: u64,
    mask: u64,
    offset: u64,
}

impl PointerChase {
    /// Creates a chase over `footprint_bytes` starting at `base`, striding
    /// by `offset_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `footprint_bytes` is not a power of two, or if `offset_bytes`
    /// is zero or at least the footprint.
    pub fn new(base: u64, footprint_bytes: usize, offset_bytes: u64) -> PointerChase {
        assert!(
            footprint_bytes.is_power_of_two() && footprint_bytes > 1,
            "footprint must be a power of two > 1, got {footprint_bytes}"
        );
        assert!(
            offset_bytes > 0 && (offset_bytes as usize) < footprint_bytes,
            "offset must be in 1..footprint"
        );
        let mask = footprint_bytes as u64 - 1;
        PointerChase {
            ptr: base & !mask,
            mask,
            offset: offset_bytes,
        }
    }

    /// Advances the pointer (the Figure 6 update) and returns the new
    /// address.
    pub fn next_address(&mut self) -> u64 {
        self.ptr = (self.ptr & !self.mask) | ((self.ptr.wrapping_add(self.offset)) & self.mask);
        self.ptr
    }

    /// The footprint mask.
    pub fn mask(&self) -> u64 {
        self.mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MemoryHierarchy;

    #[test]
    fn chase_stays_in_footprint() {
        let base = 0xABCD_0000;
        let mut chase = PointerChase::new(base, 1024, 64);
        for _ in 0..10_000 {
            let addr = chase.next_address();
            assert_eq!(addr & !1023, base & !1023, "escaped footprint: {addr:#x}");
        }
    }

    #[test]
    fn chase_covers_all_lines() {
        let mut chase = PointerChase::new(0, 1024, 64);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            seen.insert(chase.next_address());
        }
        assert_eq!(seen.len(), 16); // 1024/64 distinct lines before wrapping
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_footprint_panics() {
        let _ = PointerChase::new(0, 1000, 64);
    }

    #[test]
    fn footprints_target_intended_levels() {
        let h = MemoryHierarchy::core_i7();
        assert_eq!(Activity::LoadL1.footprint_bytes(&h), Some(16 << 10));
        assert_eq!(Activity::LoadL2.footprint_bytes(&h), Some(128 << 10));
        assert_eq!(Activity::LoadDram.footprint_bytes(&h), Some(16 << 20));
        assert_eq!(Activity::Add.footprint_bytes(&h), None);
    }

    #[test]
    fn alu_latency_classification() {
        assert_eq!(Activity::Add.alu_latency_cycles(), Some(1));
        assert_eq!(Activity::LoadL1.alu_latency_cycles(), None);
    }

    #[test]
    fn domain_loads_shape() {
        use crate::cache::AccessLevel;
        // DRAM accesses load the memory domains; L1 hits only the core.
        let dram = Activity::LoadDram.domain_loads(Some(AccessLevel::Dram));
        assert!(dram.dram > 0.9 && dram.memory_interface > 0.9);
        let l1 = Activity::LoadL1.domain_loads(Some(AccessLevel::L1));
        assert_eq!(l1.dram, 0.0);
        assert_eq!(l1.memory_interface, 0.0);
        assert!(l1.core > dram.core);
        // ALU activities never touch memory domains.
        for a in [Activity::Add, Activity::Mul, Activity::Div, Activity::Nop] {
            let l = a.domain_loads(None);
            assert_eq!(l.dram, 0.0);
            assert_eq!(l.memory_interface, 0.0);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Activity::LoadDram.label(), "LDM");
        assert_eq!(format!("{}", Activity::LoadL1), "LDL1");
    }
}
