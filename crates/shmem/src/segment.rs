//! Shared-memory segments for the multi-process backend.
//!
//! A [`Segment`] is one `memfd_create` + `mmap(MAP_SHARED)` mapping that a
//! supervisor creates *before* forking its workers: every child inherits the
//! mapping at the same virtual address, so in-segment control blocks can use
//! plain offsets (and, within one run, even raw pointers) across address
//! spaces.  The workspace is offline (no `libc` crate), so the mapping goes
//! through raw syscalls in the same style as `native-rt`'s `affinity.rs`.
//!
//! Layout rules for everything stored inside a segment:
//!
//! * every control block is `#[repr(C)]` with **explicit padding arrays** —
//!   layout must be identical in every process that attaches, so no
//!   `CachePadded` or other alignment-by-type tricks;
//! * cross-process handles are **offsets from the segment base**, never
//!   pointers, reserved through [`SegmentLayout`];
//! * offset 0 holds a [`SegHeader`] carrying magic/version/generation so a
//!   supervisor can recognise (and refuse or reclaim) segments it did not
//!   create.
//!
//! `memfd` segments are anonymous: when the last process holding the fd or
//! the mapping dies — even by SIGKILL — the kernel reclaims the memory, so a
//! crashed run cannot leak the segment itself.  What *can* leak is the
//! bookkeeping this module leaves in [`marker_dir`]: each live run drops one
//! small marker file there so `scan_orphans` (run at every supervisor start
//! and asserted empty by CI after the suite) can tell a concurrent live run
//! from the droppings of a killed one.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::io;
use std::path::{Path, PathBuf};
use std::ptr::NonNull;

/// `b"SMPAGGR1"` as a little-endian u64 — first field of every segment.
pub const SEGMENT_MAGIC: u64 = u64::from_le_bytes(*b"SMPAGGR1");

/// Bump whenever an in-segment control-block layout changes.
pub const SEGMENT_VERSION: u32 = 1;

/// Filename prefix for run marker files in [`marker_dir`].
pub const MARKER_PREFIX: &str = "smp-aggr-";

/// Environment variable overriding [`marker_dir`] (tests point this at a
/// private temp dir so concurrent test binaries cannot reclaim each other's
/// planted markers).
pub const MARKER_DIR_ENV: &str = "SMP_AGGR_SEG_DIR";

/// Validation header at offset 0 of every segment.
///
/// `#[repr(C)]` with explicit field order: all attaching processes must agree
/// on the layout byte for byte.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegHeader {
    /// [`SEGMENT_MAGIC`].
    pub magic: u64,
    /// [`SEGMENT_VERSION`].
    pub version: u32,
    _reserved: u32,
    /// Unique per run (creation time in nanoseconds); lets a supervisor tell
    /// its own segment from a stale one with the same name.
    pub generation: u64,
    /// Pid of the creating supervisor.
    pub owner_pid: u64,
}

impl SegHeader {
    /// Header for a segment created now by `owner_pid`.
    pub fn new(generation: u64, owner_pid: u32) -> Self {
        Self {
            magic: SEGMENT_MAGIC,
            version: SEGMENT_VERSION,
            _reserved: 0,
            generation,
            owner_pid: owner_pid as u64,
        }
    }

    /// Check magic/version/generation; `Err` carries a human-readable reason.
    pub fn validate(&self, expect_generation: u64) -> Result<(), String> {
        if self.magic != SEGMENT_MAGIC {
            return Err(format!(
                "segment magic mismatch: {:#018x} (expected {:#018x}) — not one of ours",
                self.magic, SEGMENT_MAGIC
            ));
        }
        if self.version != SEGMENT_VERSION {
            return Err(format!(
                "segment layout version {} (this binary speaks {})",
                self.version, SEGMENT_VERSION
            ));
        }
        if self.generation != expect_generation {
            return Err(format!(
                "segment generation {} is not this run's {} — stale segment from another run",
                self.generation, expect_generation
            ));
        }
        Ok(())
    }
}

/// Offset-reservation builder: call [`SegmentLayout::reserve`] once per
/// region while planning, `total()` for the allocation size, then use the
/// recorded offsets identically in every process.
#[derive(Debug, Clone)]
pub struct SegmentLayout {
    cursor: usize,
}

impl SegmentLayout {
    /// Start a layout with the [`SegHeader`] reserved at offset 0.
    pub fn new() -> Self {
        let mut layout = Self { cursor: 0 };
        layout.reserve(std::mem::size_of::<SegHeader>(), 64);
        layout
    }

    /// Reserve `bytes` at the next `align`-aligned offset; returns the offset.
    pub fn reserve(&mut self, bytes: usize, align: usize) -> usize {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let offset = (self.cursor + align - 1) & !(align - 1);
        self.cursor = offset + bytes;
        offset
    }

    /// Total bytes reserved so far, rounded up to whole pages.
    pub fn total(&self) -> usize {
        const PAGE: usize = 4096;
        self.cursor.div_ceil(PAGE) * PAGE
    }
}

impl Default for SegmentLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// One aligned heap allocation: the region a heap owner
/// ([`SpscRing`](crate::SpscRing), [`SlabArena`](crate::SlabArena),
/// [`ClaimBuffer`](crate::ClaimBuffer)) lays its view out in, where the
/// process engine uses a [`Segment`] offset.  Freed on drop.
///
/// The bytes start uninitialised and stay untouched until used: each
/// view's `init` writes its control block and metadata, and the protocols
/// write every slot before reading it.  The region is a plain byte
/// allocation `align` bytes longer than asked, aligned inside: through the
/// allocator's aligned path (`posix_memalign`), a threaded run's setup
/// built its arenas three to four times slower.
pub(crate) struct HeapRegion {
    raw: NonNull<u8>,
    layout: Layout,
    base: *mut u8,
}

// SAFETY: plain bytes with no thread affinity; the view laid out in them
// synchronises every access.
unsafe impl Send for HeapRegion {}
unsafe impl Sync for HeapRegion {}

impl HeapRegion {
    /// Allocate `bytes` bytes aligned to `align` (a power of two).
    pub(crate) fn new(bytes: usize, align: usize) -> Self {
        assert!(bytes > 0, "empty region");
        let layout = Layout::from_size_align(bytes + align, 1).expect("region layout");
        // SAFETY: the layout has a non-zero size.
        let raw =
            NonNull::new(unsafe { alloc(layout) }).unwrap_or_else(|| handle_alloc_error(layout));
        let addr = raw.as_ptr() as usize;
        // Less than `align` bytes of padding, so `bytes` fit after it.
        let pad = addr.next_multiple_of(align) - addr;
        let base = raw.as_ptr().wrapping_add(pad);
        Self { raw, layout, base }
    }

    /// First byte of the region.
    pub(crate) fn base(&self) -> *mut u8 {
        self.base
    }
}

impl Drop for HeapRegion {
    fn drop(&mut self) {
        // SAFETY: allocated in `new` with this very layout, freed only here.
        unsafe { dealloc(self.raw.as_ptr(), self.layout) }
    }
}

/// One shared mapping.  On Linux this is `memfd_create` + `mmap(MAP_SHARED)`
/// and survives `fork` as *shared* memory (children see each other's writes);
/// elsewhere it degrades to process-private heap memory so the in-segment
/// primitives stay unit-testable, and [`Segment::is_shared`] reports which
/// one you got (the process backend refuses to run on the fallback).
#[derive(Debug)]
pub struct Segment {
    base: *mut u8,
    len: usize,
    backing: Backing,
}

#[derive(Debug)]
enum Backing {
    /// memfd + MAP_SHARED mapping; fd kept open so /proc/pid/fd shows it.
    #[cfg_attr(
        not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )),
        allow(dead_code)
    )]
    Memfd { fd: i32 },
    /// Heap fallback for platforms without memfd (unit tests only).
    #[cfg_attr(
        all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ),
        allow(dead_code)
    )]
    Heap { layout: std::alloc::Layout },
}

// SAFETY: the base pointer refers to a mapping owned by this struct; all
// in-segment coordination is done through atomics by the primitives layered
// on top.  The segment itself is just bytes and may be moved across threads.
unsafe impl Send for Segment {}
unsafe impl Sync for Segment {}

impl Segment {
    /// Create a mapping of at least `len` bytes (rounded up to whole pages)
    /// and stamp `header` at offset 0.
    pub fn create(len: usize, header: SegHeader) -> io::Result<Self> {
        let len = SegmentLayout { cursor: len }.total().max(4096);
        let segment = Self::map(len)?;
        // SAFETY: the mapping is at least a page, zeroed, and 64-byte aligned
        // (page-aligned), so the header fits and is aligned.
        unsafe { std::ptr::write(segment.base.cast::<SegHeader>(), header) };
        Ok(segment)
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    fn map(len: usize) -> io::Result<Self> {
        let fd = sys::memfd_create(b"smp-aggr-seg\0")?;
        if let Err(e) = sys::ftruncate(fd, len) {
            sys::close(fd);
            return Err(e);
        }
        match sys::mmap_shared(len, fd) {
            Ok(base) => Ok(Self {
                base,
                len,
                backing: Backing::Memfd { fd },
            }),
            Err(e) => {
                sys::close(fd);
                Err(e)
            }
        }
    }

    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    fn map(len: usize) -> io::Result<Self> {
        let layout = std::alloc::Layout::from_size_align(len, 4096)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        // SAFETY: non-zero size, valid alignment.
        let base = unsafe { std::alloc::alloc_zeroed(layout) };
        if base.is_null() {
            return Err(io::Error::new(io::ErrorKind::OutOfMemory, "alloc failed"));
        }
        Ok(Self {
            base,
            len,
            backing: Backing::Heap { layout },
        })
    }

    /// Base address of the mapping (identical in parent and forked children).
    pub fn base(&self) -> *mut u8 {
        self.base
    }

    /// Mapping length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the mapping is empty (never — mappings are at least a page).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pointer into the segment at `offset` (must have been reserved through
    /// the same [`SegmentLayout`] in-bounds).
    pub fn at(&self, offset: usize) -> *mut u8 {
        assert!(offset < self.len, "offset {offset} out of segment bounds");
        // SAFETY: offset checked in bounds.
        unsafe { self.base.add(offset) }
    }

    /// The header stamped at creation.
    pub fn header(&self) -> SegHeader {
        // SAFETY: `create` wrote a valid header at offset 0.
        unsafe { std::ptr::read(self.base.cast::<SegHeader>()) }
    }

    /// True when the mapping is genuinely `MAP_SHARED` (fork-visible).  The
    /// heap fallback used on unsupported platforms returns false.
    pub fn is_shared(&self) -> bool {
        matches!(self.backing, Backing::Memfd { .. })
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        match self.backing {
            #[allow(unused_variables)]
            Backing::Memfd { fd } => {
                #[cfg(all(
                    target_os = "linux",
                    any(target_arch = "x86_64", target_arch = "aarch64")
                ))]
                {
                    sys::munmap(self.base, self.len);
                    sys::close(fd);
                }
            }
            Backing::Heap { layout } => {
                // SAFETY: allocated with this exact layout in `map`.
                unsafe { std::alloc::dealloc(self.base, layout) };
            }
        }
    }
}

/// Directory where live runs drop their marker files: `$SMP_AGGR_SEG_DIR` if
/// set, else `/dev/shm` when present (same tmpfs the kernel backs memfd
/// with), else the system temp dir.
pub fn marker_dir() -> PathBuf {
    if let Ok(dir) = std::env::var(MARKER_DIR_ENV) {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    let shm = Path::new("/dev/shm");
    if shm.is_dir() {
        return shm.to_path_buf();
    }
    std::env::temp_dir()
}

/// RAII marker for one live run: a small text file in [`marker_dir`] naming
/// the supervisor pid and segment generation.  Removed on drop; left behind
/// only if the *supervisor itself* is killed, in which case the next run's
/// [`scan_orphans`] sees a dead pid and reclaims it.
#[derive(Debug)]
pub struct MarkerGuard {
    path: PathBuf,
}

impl MarkerGuard {
    /// Write the marker for this process into `dir`.
    pub fn create(dir: &Path, generation: u64) -> io::Result<Self> {
        let pid = std::process::id();
        let path = dir.join(format!("{MARKER_PREFIX}{pid}-{generation}"));
        let body = format!(
            "magic=SMPAGGR1\nversion={SEGMENT_VERSION}\ngeneration={generation}\npid={pid}\n"
        );
        std::fs::write(&path, body)?;
        Ok(Self { path })
    }

    /// Path of the marker file (tests inspect it).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for MarkerGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// What [`scan_orphans`] found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrphanSweep {
    /// Markers whose owner pid is dead: unlinked, segment memory already
    /// reclaimed by the kernel when the owner died.
    pub reclaimed: u32,
    /// Markers whose owner is still alive (a concurrent run): left alone.
    pub active: u32,
}

/// Scan `dir` for `smp-aggr-*` markers left by previous runs.  Markers whose
/// owner pid is dead are reclaimed (unlinked); live ones are counted and left
/// alone.  A malformed marker or one written by an incompatible version makes
/// the scan **refuse** with an error naming the file — the operator must
/// remove it by hand, because guessing about unrecognised segment droppings
/// is how cleanup code corrupts a concurrent run.
pub fn scan_orphans(dir: &Path) -> Result<OrphanSweep, String> {
    let mut sweep = OrphanSweep::default();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        // A missing directory has no orphans.
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(sweep),
        Err(e) => return Err(format!("cannot scan {}: {e}", dir.display())),
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with(MARKER_PREFIX) {
            continue;
        }
        let path = entry.path();
        let pid = parse_marker(&path).map_err(|why| {
            format!(
                "refusing to start: stale segment marker {} is {why}; remove it manually",
                path.display()
            )
        })?;
        if pid == std::process::id() || pid_alive(pid) {
            sweep.active += 1;
        } else {
            std::fs::remove_file(&path)
                .map_err(|e| format!("cannot reclaim orphan marker {}: {e}", path.display()))?;
            sweep.reclaimed += 1;
        }
    }
    Ok(sweep)
}

/// Parse a marker file; returns the owner pid or a short reason it is bad.
fn parse_marker(path: &Path) -> Result<u32, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("unreadable ({e})"))?;
    let mut magic_ok = false;
    let mut version: Option<u32> = None;
    let mut pid: Option<u32> = None;
    for line in body.lines() {
        match line.split_once('=') {
            Some(("magic", v)) => magic_ok = v == "SMPAGGR1",
            Some(("version", v)) => version = v.trim().parse().ok(),
            Some(("pid", v)) => pid = v.trim().parse().ok(),
            _ => {}
        }
    }
    if !magic_ok {
        return Err("malformed (bad or missing magic)".to_string());
    }
    match version {
        Some(SEGMENT_VERSION) => {}
        Some(v) => return Err(format!("from incompatible layout version {v}")),
        None => return Err("malformed (missing version)".to_string()),
    }
    pid.ok_or_else(|| "malformed (missing pid)".to_string())
}

/// Best-effort liveness check via `/proc/<pid>`.  On platforms without
/// procfs every foreign pid reads as dead, which is the right answer for the
/// heap-backed fallback (nothing shared survives the owner anyway).
fn pid_alive(pid: u32) -> bool {
    Path::new("/proc").join(pid.to_string()).exists()
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use std::io;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub(super) const MEMFD_CREATE: usize = 319;
        pub(super) const FTRUNCATE: usize = 77;
        pub(super) const MMAP: usize = 9;
        pub(super) const MUNMAP: usize = 11;
        pub(super) const CLOSE: usize = 3;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub(super) const MEMFD_CREATE: usize = 279;
        pub(super) const FTRUNCATE: usize = 46;
        pub(super) const MMAP: usize = 222;
        pub(super) const MUNMAP: usize = 215;
        pub(super) const CLOSE: usize = 57;
    }

    const MFD_CLOEXEC: usize = 1;
    const PROT_READ_WRITE: usize = 0x1 | 0x2;
    const MAP_SHARED: usize = 0x1;

    fn check(ret: isize) -> io::Result<isize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    /// memfd_create(name, MFD_CLOEXEC).  `name` must be NUL-terminated.
    pub(super) fn memfd_create(name: &[u8]) -> io::Result<i32> {
        debug_assert_eq!(name.last(), Some(&0));
        // SAFETY: name is a valid NUL-terminated buffer for the call.
        let ret = unsafe {
            syscall6(
                nr::MEMFD_CREATE,
                name.as_ptr() as usize,
                MFD_CLOEXEC,
                0,
                0,
                0,
                0,
            )
        };
        check(ret).map(|fd| fd as i32)
    }

    pub(super) fn ftruncate(fd: i32, len: usize) -> io::Result<()> {
        // SAFETY: fd is a live memfd we just created.
        let ret = unsafe { syscall6(nr::FTRUNCATE, fd as usize, len, 0, 0, 0, 0) };
        check(ret).map(|_| ())
    }

    /// mmap(NULL, len, PROT_READ|PROT_WRITE, MAP_SHARED, fd, 0).
    pub(super) fn mmap_shared(len: usize, fd: i32) -> io::Result<*mut u8> {
        // SAFETY: the kernel picks the address; fd/len were just validated.
        let ret = unsafe {
            syscall6(
                nr::MMAP,
                0,
                len,
                PROT_READ_WRITE,
                MAP_SHARED,
                fd as usize,
                0,
            )
        };
        check(ret).map(|addr| addr as *mut u8)
    }

    pub(super) fn munmap(base: *mut u8, len: usize) {
        // SAFETY: unmapping a mapping this module created.
        let _ = unsafe { syscall6(nr::MUNMAP, base as usize, len, 0, 0, 0, 0) };
    }

    pub(super) fn close(fd: i32) {
        // SAFETY: closing an fd this module owns.
        let _ = unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) };
    }

    /// Raw 6-argument syscall.
    ///
    /// # Safety
    /// The caller must pass a valid syscall number and arguments per the
    /// kernel ABI.
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
        // `syscall` instruction per the ABI; args 4-6 ride r10/r8/r9.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn private_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smp-aggr-seg-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create private marker dir");
        dir
    }

    #[test]
    fn segment_roundtrips_bytes_and_header() {
        let header = SegHeader::new(42, std::process::id());
        let seg = Segment::create(10_000, header).expect("create segment");
        assert!(seg.len() >= 10_000);
        assert_eq!(seg.len() % 4096, 0);
        assert_eq!(seg.header(), header);
        assert!(seg.header().validate(42).is_ok());
        assert!(seg.header().validate(43).is_err());
        let supported = cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ));
        assert_eq!(seg.is_shared(), supported);
        // Write/read beyond the header.
        let p = seg.at(4096);
        // SAFETY: offset 4096 is in bounds of a >= 12 KiB mapping.
        unsafe {
            std::ptr::write_bytes(p, 0xAB, 128);
            assert_eq!(*p, 0xAB);
            assert_eq!(*p.add(127), 0xAB);
        }
    }

    #[test]
    fn header_validate_rejects_foreign_magic_and_version() {
        let mut h = SegHeader::new(7, 1);
        h.magic ^= 1;
        assert!(h.validate(7).unwrap_err().contains("magic"));
        let mut h = SegHeader::new(7, 1);
        h.version += 1;
        assert!(h.validate(7).unwrap_err().contains("version"));
    }

    #[test]
    fn layout_reserves_aligned_disjoint_regions() {
        let mut layout = SegmentLayout::new();
        let a = layout.reserve(10, 64);
        let b = layout.reserve(100, 64);
        let c = layout.reserve(8, 8);
        assert_eq!(a % 64, 0);
        assert!(a >= std::mem::size_of::<SegHeader>());
        assert_eq!(b % 64, 0);
        assert!(b >= a + 10);
        assert!(c >= b + 100);
        assert_eq!(layout.total() % 4096, 0);
        assert!(layout.total() >= c + 8);
    }

    #[test]
    fn marker_lifecycle_creates_and_removes() {
        let dir = private_dir("lifecycle");
        let marker = MarkerGuard::create(&dir, 99).expect("create marker");
        let path = marker.path().to_path_buf();
        assert!(path.exists());
        // Our own (live) marker must be counted active, not reclaimed.
        let sweep = scan_orphans(&dir).expect("scan");
        assert_eq!(
            sweep,
            OrphanSweep {
                reclaimed: 0,
                active: 1
            }
        );
        assert!(path.exists());
        drop(marker);
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_reclaims_markers_of_dead_owners() {
        // Leak a marker on purpose (the satellite test): a pid near u32::MAX
        // cannot be a live process (kernel pid_max caps at 2^22).
        let dir = private_dir("orphan");
        let dead_pid = u32::MAX - 1;
        let path = dir.join(format!("{MARKER_PREFIX}{dead_pid}-5"));
        std::fs::write(
            &path,
            format!("magic=SMPAGGR1\nversion={SEGMENT_VERSION}\ngeneration=5\npid={dead_pid}\n"),
        )
        .expect("plant orphan");
        let sweep = scan_orphans(&dir).expect("scan");
        assert_eq!(
            sweep,
            OrphanSweep {
                reclaimed: 1,
                active: 0
            }
        );
        assert!(!path.exists(), "orphan marker must be unlinked");
        // Second scan is clean.
        assert_eq!(scan_orphans(&dir).expect("rescan"), OrphanSweep::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_refuses_malformed_and_foreign_version_markers() {
        let dir = private_dir("malformed");
        let path = dir.join(format!("{MARKER_PREFIX}junk"));
        std::fs::write(&path, "not a marker at all").expect("plant junk");
        let err = scan_orphans(&dir).expect_err("must refuse");
        assert!(err.contains("refusing to start"), "got: {err}");
        assert!(err.contains("remove it manually"), "got: {err}");
        assert!(path.exists(), "refused markers must be left in place");
        std::fs::remove_file(&path).unwrap();

        let path = dir.join(format!("{MARKER_PREFIX}999-1"));
        std::fs::write(
            &path,
            "magic=SMPAGGR1\nversion=999\ngeneration=1\npid=999\n",
        )
        .expect("plant foreign version");
        let err = scan_orphans(&dir).expect_err("must refuse foreign version");
        assert!(err.contains("version 999"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_marker_dir_scans_clean() {
        let dir = std::env::temp_dir().join(format!(
            "smp-aggr-seg-test-{}-missing-never-created",
            std::process::id()
        ));
        assert_eq!(scan_orphans(&dir).expect("scan"), OrphanSweep::default());
    }

    #[test]
    fn marker_dir_honours_env_override() {
        // Read-only check of precedence: with the env var unset we must get
        // /dev/shm (Linux) or the temp dir, never an empty path.
        let dir = marker_dir();
        assert!(!dir.as_os_str().is_empty());
    }
}
