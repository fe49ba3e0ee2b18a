//! # transport — the inter-node wire tier
//!
//! Everything a node leader needs to ship sealed batches to its peers and
//! survive the network being a network:
//!
//! * [`frame`] — the length-prefixed wire protocol (magic/version/kind,
//!   session ids, per-connection sequence numbers, 32-byte items) and the
//!   incremental [`FrameReader`] reassembler;
//! * [`Transport`] — the pluggable byte-mover trait, implemented three
//!   ways: real TCP over loopback/ephemeral ports ([`TcpTransport`]),
//!   Unix-domain socket pairs ([`UdsTransport`]), and the `net-model`
//!   α–β-costed in-memory mesh ([`SimTransport`]) for deterministic
//!   multi-node sweeps without sockets;
//! * [`Backoff`] — bounded exponential retry with seeded jitter, used for
//!   both connects and retransmission;
//! * [`FailureDetector`] — heartbeat bookkeeping with per-peer miss counts
//!   and a configurable timeout;
//! * [`ReplayGuard`] — per-connection accept-once sequence filter that
//!   makes redelivery idempotent and yields the cumulative-ack value;
//! * [`WireFaultInjector`] — seeded wire faults
//!   (drop/delay/duplicate/disconnect/partition) triggered at exact batch
//!   send counts, mirroring the worker-side `FaultPlan` discipline.
//!
//! The crate knows nothing about workers, schemes or runtimes — `native-rt`
//! composes these pieces into its node-leader tier (see `docs/DESIGN.md`
//! §11 for the protocol and settlement math).

pub mod backoff;
pub mod dedup;
pub mod detector;
pub mod fault;
pub mod frame;
pub mod sim;
pub mod stream;

pub use backoff::{Backoff, SEND_RETRY_BASE_NS};
pub use dedup::ReplayGuard;
pub use detector::{FailureDetector, HeartbeatConfig};
pub use fault::{SendVerdict, WireFault, WireFaultInjector, WireFaultKind};
pub use frame::{Frame, FrameError, FrameKind, FrameReader, WireItem};
pub use sim::SimTransport;
#[cfg(unix)]
pub use stream::UdsTransport;
pub use stream::{connect_with_backoff, StreamMesh, TcpTransport};

/// Why a transport operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The peer's end of the link is gone (closed socket, dropped endpoint,
    /// or a send aimed at an invalid node).
    PeerClosed(u32),
    /// The peer's byte stream failed to parse as frames.
    Corrupt(u32, FrameError),
    /// An I/O error on the link to the given peer.
    Io(u32, std::io::ErrorKind),
}

impl TransportError {
    /// The peer the failure concerns.
    pub fn peer(&self) -> u32 {
        match self {
            TransportError::PeerClosed(p)
            | TransportError::Corrupt(p, _)
            | TransportError::Io(p, _) => *p,
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerClosed(p) => write!(f, "peer node {p} closed the link"),
            TransportError::Corrupt(p, e) => write!(f, "corrupt stream from node {p}: {e}"),
            TransportError::Io(p, kind) => write!(f, "i/o error on link to node {p}: {kind:?}"),
        }
    }
}

/// A byte mover between node leaders.
///
/// One endpoint per node; `send`/`try_recv` address peers by node id.
/// Implementations are driven by one thread at a time (`&mut self`
/// everywhere; `native-rt` keeps the endpoint behind its node's leader lock)
/// and must *surface* link failures as
/// [`TransportError`] rather than blocking forever — the leader turns
/// those into link cuts and ledger settlement.
pub trait Transport: Send {
    /// This endpoint's node id.
    fn node(&self) -> u32;
    /// Total nodes in the mesh.
    fn nodes(&self) -> u32;
    /// Short label for reports: `"tcp"`, `"uds"`, `"sim"`.
    fn label(&self) -> &'static str;
    /// Ship one frame to `dst`.
    fn send(&mut self, dst: u32, frame: &Frame) -> Result<(), TransportError>;
    /// Nonblocking receive of the next frame from any peer.
    fn try_recv(&mut self) -> Result<Option<Frame>, TransportError>;
    /// Stop reading from / writing to `peer` (after a link cut).
    fn close_peer(&mut self, peer: u32);
    /// Modeled one-way wire nanoseconds accumulated so far — nonzero only
    /// for the simulated transport (real sockets spend real time instead).
    fn modeled_wire_ns(&self) -> u64 {
        0
    }
    /// Push any buffered outbound bytes toward the wire without blocking.
    /// Returns `true` once nothing is left buffered.  Called in a bounded
    /// loop at teardown so a final `Bye` parked behind bulk data actually
    /// reaches the peer before the socket is dropped.
    fn flush_pending(&mut self) -> bool {
        true
    }
}
