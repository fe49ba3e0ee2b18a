//! NUMA topology discovery and memory placement for worker-owned storage.
//!
//! The workspace is offline (no `libc` crate), so — like `affinity` — this
//! module talks to the kernel directly: topology comes from sysfs
//! (`/sys/devices/system/node/node*/cpulist`), placement goes through raw
//! `mbind` / `get_mempolicy` syscalls on Linux, and everything degrades to a
//! single-node no-op elsewhere.
//!
//! Why it matters: each worker owns a `shmem::SlabArena` whose slots are
//! written by the owner (one copy per shipped message) and *read in place*
//! by consumers.  The arenas are allocated on the main thread before the workers
//! exist, so without intervention every arena's pages land on whichever node
//! the main thread ran on — and on a multi-socket host, workers pinned to
//! the other socket then pay a cross-socket hop for every slab they fill.
//! [`bind_region_to_node`] moves each arena's backing store to its owning
//! worker's node before the start barrier, which is equivalent to (and
//! stronger than) first-touch: `MPOL_MF_MOVE` migrates even pages the
//! allocator already touched.
//!
//! On a single-node host all of this flat-lines by construction: topology
//! detection reports one node, every worker maps to node 0, and the backend
//! skips the bind calls entirely.

use std::path::Path;

/// The host's NUMA topology: which node each CPU belongs to.
///
/// Detected once per run from sysfs; hosts without the sysfs tree (or
/// non-Linux platforms) report a single node covering every CPU.
#[derive(Debug, Clone)]
pub struct NumaTopology {
    /// `node_of_cpu[cpu]` is the node owning that CPU id; CPUs beyond the
    /// table (offline/unknown) default to node 0.
    node_of_cpu: Vec<u16>,
    /// Number of nodes observed (at least 1).
    nodes: u16,
}

impl NumaTopology {
    /// Detect the topology from `/sys/devices/system/node`.  Falls back to a
    /// single node when the tree is missing or unparsable.
    pub fn detect() -> Self {
        Self::from_sysfs(Path::new("/sys/devices/system/node"))
    }

    /// Parse a sysfs-style node tree rooted at `root` (separated from
    /// [`NumaTopology::detect`] so tests can point it at a fixture).
    fn from_sysfs(root: &Path) -> Self {
        let mut node_of_cpu: Vec<u16> = Vec::new();
        let mut nodes: u16 = 0;
        let entries = match std::fs::read_dir(root) {
            Ok(entries) => entries,
            Err(_) => return Self::single_node(),
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix("node"))
                .and_then(|n| n.parse::<u16>().ok())
            else {
                continue;
            };
            let Ok(cpulist) = std::fs::read_to_string(entry.path().join("cpulist")) else {
                continue;
            };
            for cpu in parse_cpulist(&cpulist) {
                if cpu >= node_of_cpu.len() {
                    node_of_cpu.resize(cpu + 1, 0);
                }
                node_of_cpu[cpu] = id;
            }
            nodes = nodes.max(id + 1);
        }
        if nodes == 0 || node_of_cpu.is_empty() {
            return Self::single_node();
        }
        Self { node_of_cpu, nodes }
    }

    /// The trivial topology: one node owning everything.
    fn single_node() -> Self {
        Self {
            node_of_cpu: Vec::new(),
            nodes: 1,
        }
    }

    /// Number of NUMA nodes (1 on non-NUMA hosts and unsupported platforms).
    pub fn nodes(&self) -> usize {
        self.nodes as usize
    }

    /// The node owning `cpu` (0 for unknown/offline CPUs).
    pub fn node_of_cpu(&self, cpu: usize) -> u16 {
        self.node_of_cpu.get(cpu).copied().unwrap_or(0)
    }
}

/// Parse the kernel's cpulist format: comma-separated entries, each a single
/// CPU id or an inclusive `a-b` range (e.g. `"0-3,8-11"`).
fn parse_cpulist(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (lo, hi) = match part.split_once('-') {
            Some((lo, hi)) => (lo.parse::<usize>(), hi.parse::<usize>()),
            None => (part.parse::<usize>(), part.parse::<usize>()),
        };
        if let (Ok(lo), Ok(hi)) = (lo, hi) {
            cpus.extend(lo..=hi.min(lo + 4096)); // cap: malformed input safety
        }
    }
    cpus
}

/// Bind the pages of `[ptr, ptr + bytes)` to NUMA `node`, migrating any
/// already-allocated pages (`MPOL_BIND | MPOL_MF_MOVE`).  The range is
/// aligned *inward* to page boundaries — partial edge pages are left where
/// they are, which is fine for a multi-megabyte arena.  Returns `true` if
/// the whole aligned range was bound (trivially true when it is empty) and
/// `false` on syscall failure or unsupported platforms.
pub fn bind_region_to_node(ptr: *const u8, bytes: usize, node: u16) -> bool {
    imp::bind_region_to_node(ptr, bytes, node)
}

/// The NUMA node currently holding the page at `ptr` (`get_mempolicy` with
/// `MPOL_F_NODE | MPOL_F_ADDR`).  `None` when the syscall fails or the
/// platform has no NUMA syscalls; diagnostics only.
pub fn node_of_address(ptr: *const u8) -> Option<u16> {
    imp::node_of_address(ptr)
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    /// Node mask of 1024 bits, matching the affinity module's CPU mask bound.
    const MASK_WORDS: usize = 16;
    const PAGE: usize = 4096;

    /// `mbind` policy mode: all allocations from the bound range must come
    /// from the given node set.
    const MPOL_BIND: usize = 2;
    /// `mbind` flag: migrate pages already allocated elsewhere.
    const MPOL_MF_MOVE: usize = 2;
    /// `get_mempolicy` flags: return the node *of the page at addr* instead
    /// of the policy (`MPOL_F_NODE | MPOL_F_ADDR`).
    const GET_NODE_OF_ADDR: usize = 1 | 2;

    #[cfg(target_arch = "x86_64")]
    const SYS_MBIND: usize = 237;
    #[cfg(target_arch = "x86_64")]
    const SYS_GET_MEMPOLICY: usize = 239;
    #[cfg(target_arch = "aarch64")]
    const SYS_MBIND: usize = 235;
    #[cfg(target_arch = "aarch64")]
    const SYS_GET_MEMPOLICY: usize = 236;

    pub(super) fn bind_region_to_node(ptr: *const u8, bytes: usize, node: u16) -> bool {
        if node as usize >= MASK_WORDS * 64 {
            return false;
        }
        // Align inward: mbind requires a page-aligned start address.
        let start = (ptr as usize).next_multiple_of(PAGE);
        let end = (ptr as usize + bytes) & !(PAGE - 1);
        if start >= end {
            return true;
        }
        let mut mask = [0u64; MASK_WORDS];
        mask[node as usize / 64] |= 1u64 << (node as usize % 64);
        // mbind(addr, len, mode, nodemask, maxnode, flags)
        let res = unsafe {
            syscall6(
                SYS_MBIND,
                start,
                end - start,
                MPOL_BIND,
                mask.as_ptr() as usize,
                MASK_WORDS * 64,
                MPOL_MF_MOVE,
            )
        };
        res == 0
    }

    pub(super) fn node_of_address(ptr: *const u8) -> Option<u16> {
        let mut node: i32 = -1;
        // get_mempolicy(mode_out, nodemask = NULL, maxnode = 0, addr, flags)
        let res = unsafe {
            syscall6(
                SYS_GET_MEMPOLICY,
                &mut node as *mut i32 as usize,
                0,
                0,
                ptr as usize,
                GET_NODE_OF_ADDR,
                0,
            )
        };
        if res == 0 && node >= 0 {
            Some(node as u16)
        } else {
            None
        }
    }

    /// Raw 6-argument syscall.
    ///
    /// # Safety
    /// The caller must pass a valid syscall number and arguments per the
    /// kernel ABI; `mbind`/`get_mempolicy` over an in-bounds range cannot
    /// corrupt process state (worst case they return an errno).
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: see the function contract; rcx/r11 are clobbered by the
        // `syscall` instruction per the ABI, and argument 4 rides in r10
        // (not rcx as in the userspace calling convention).
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// Raw 6-argument syscall (AArch64: number in `x8`, `svc #0`).
    ///
    /// # Safety
    /// As for the x86-64 variant.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: see the function contract.
        unsafe {
            core::arch::asm!(
                "svc #0",
                in("x8") nr,
                inlateout("x0") a1 as isize => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x4") a5,
                in("x5") a6,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    pub(super) fn bind_region_to_node(_ptr: *const u8, _bytes: usize, _node: u16) -> bool {
        false
    }

    pub(super) fn node_of_address(_ptr: *const u8) -> Option<u16> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpulist_parsing() {
        assert_eq!(parse_cpulist("0-3,8-11\n"), vec![0, 1, 2, 3, 8, 9, 10, 11]);
        assert_eq!(parse_cpulist("5"), vec![5]);
        assert_eq!(parse_cpulist("0,2-2, 7"), vec![0, 2, 7]);
        assert!(parse_cpulist("").is_empty());
        assert!(parse_cpulist("garbage,-,3-x").is_empty());
    }

    #[test]
    fn detection_reports_at_least_one_node() {
        let topo = NumaTopology::detect();
        assert!(topo.nodes() >= 1);
        // Unknown CPUs map to node 0; known CPUs map below the node count.
        assert!((topo.node_of_cpu(0) as usize) < topo.nodes());
        assert_eq!(topo.node_of_cpu(usize::MAX - 4096), 0);
    }

    #[test]
    fn missing_sysfs_tree_falls_back_to_single_node() {
        let topo = NumaTopology::from_sysfs(Path::new("/nonexistent/numa/tree"));
        assert_eq!(topo.nodes(), 1);
        assert_eq!(topo.node_of_cpu(3), 0);
    }

    #[test]
    fn binding_a_heap_region_to_node_zero() {
        // Node 0 always exists, and the buffer spans several pages so the
        // inward alignment leaves a non-empty range.  On supported platforms
        // the bind must succeed; elsewhere the stub returns false.
        let buf = vec![0u8; 64 * 1024];
        let supported = cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ));
        let bound = bind_region_to_node(buf.as_ptr(), buf.len(), 0);
        // Some sandboxes filter mbind; accept a clean failure there, but a
        // success must only happen on supported platforms.
        assert!(!bound || supported);
        // Sub-page ranges are trivially "bound" (nothing to do).
        if supported {
            assert!(bind_region_to_node(buf.as_ptr(), 16, 0));
        }
        // An out-of-range node id is rejected without a syscall.
        assert!(!bind_region_to_node(buf.as_ptr(), buf.len(), u16::MAX));
        let _ = node_of_address(buf.as_ptr());
    }
}
