//! Graceful-shutdown signal plumbing: SIGINT/SIGTERM as pollable data.
//!
//! [`SignalGuard::install`] blocks SIGINT and SIGTERM for the calling thread
//! (and every thread or forked process created afterwards — the mask is
//! inherited) and opens a non-blocking `signalfd` that reads the blocked
//! signals as bytes.  The run monitor polls [`SignalGuard::pending`] at its
//! normal cadence; a delivered signal then quiesces the run — stop the load,
//! flush, drain, report `Degraded` — instead of killing the process with
//! half-flushed buffers and orphaned shared-memory segments.
//!
//! The guard restores the previous mask on drop, so a run that opted in
//! leaves the process's signal disposition exactly as it found it.  It is
//! **opt-in** per run ([`ResolvedRunSpec::graceful_signals`], set with
//! `RunSpec::graceful_signals`): the mask is process-wide state that an
//! embedding application — or a parallel test harness — must not have
//! changed under it.
//!
//! [`ResolvedRunSpec::graceful_signals`]:
//! runtime_api::ResolvedRunSpec::graceful_signals

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
use crate::sys;

/// Blocked-signal mask covering SIGINT and SIGTERM (bit `n-1` = signal `n`).
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
const MASK: u64 = (1 << (sys::SIGINT - 1)) | (1 << (sys::SIGTERM - 1));

/// An installed graceful-shutdown trap: SIGINT/SIGTERM blocked and readable.
/// Dropping it closes the fd and restores the pre-install mask.
#[derive(Debug)]
pub struct SignalGuard {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    fd: i32,
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    previous_mask: u64,
}

impl SignalGuard {
    /// Block SIGINT/SIGTERM and open the signalfd.  `None` when the platform
    /// has no signalfd (non-Linux) or either syscall fails — the run then
    /// simply proceeds without graceful shutdown.
    pub fn install() -> Option<Self> {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            let mut previous_mask = 0u64;
            sys::rt_sigprocmask(sys::SIG_BLOCK, MASK, Some(&mut previous_mask)).ok()?;
            match sys::signalfd(MASK, sys::SFD_NONBLOCK | sys::SFD_CLOEXEC) {
                Ok(fd) => Some(Self { fd, previous_mask }),
                Err(_) => {
                    let _ = sys::rt_sigprocmask(sys::SIG_SETMASK, previous_mask, None);
                    None
                }
            }
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            None
        }
    }

    /// Non-blocking poll: the number of the oldest pending SIGINT/SIGTERM,
    /// or `None` when nothing arrived since the last call.
    pub fn pending(&mut self) -> Option<i32> {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            // One signalfd_siginfo record is 128 bytes; ssi_signo is its
            // first little-endian u32.
            let mut info = [0u8; 128];
            match sys::read(self.fd, &mut info) {
                Ok(n) if n >= 4 => {
                    Some(u32::from_le_bytes([info[0], info[1], info[2], info[3]]) as i32)
                }
                _ => None,
            }
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            None
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl Drop for SignalGuard {
    fn drop(&mut self) {
        sys::close(self.fd);
        let _ = sys::rt_sigprocmask(sys::SIG_SETMASK, self.previous_mask, None);
    }
}

#[cfg(test)]
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;
    use crate::sys;

    #[test]
    fn delivered_sigterm_reads_back_as_data() {
        let mut guard = SignalGuard::install().expect("signalfd support");
        assert_eq!(guard.pending(), None, "nothing sent yet");
        // Target this exact thread: the blocked mask is per-thread, and the
        // test harness runs siblings concurrently.
        sys::tgkill(sys::getpid(), sys::gettid(), sys::SIGTERM).expect("tgkill");
        // Queued synchronously on this thread; one read surfaces it.
        let mut seen = None;
        for _ in 0..100 {
            seen = guard.pending();
            if seen.is_some() {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(seen, Some(sys::SIGTERM));
        assert_eq!(guard.pending(), None, "one signal, one record");
    }
}
