//! Real-socket transports: TCP over loopback and Unix-domain socket pairs.
//!
//! Both are the same code — [`StreamMesh`] is generic over any nonblocking
//! byte stream — instantiated over [`std::net::TcpStream`]
//! ([`TcpTransport`]) and [`std::os::unix::net::UnixStream`]
//! ([`UdsTransport`]).  A mesh holds one full-duplex connection per peer.
//! Both directions are strictly nonblocking: receives reassemble frames
//! through [`FrameReader`], and a send that would block parks its remaining
//! bytes in a per-connection outbox, drained opportunistically by every
//! later send *and* receive poll.  Never blocking on a full socket buffer
//! is what keeps two leaders streaming large batches at each other from
//! write-write deadlocking (each wedged mid-send, neither draining); the
//! outbox is capped so a peer that stops reading altogether still surfaces
//! as an error in bounded space rather than unbounded memory.
//!
//! The loopback constructors build the full N×N mesh inside one process —
//! which is exactly what the node-tier tests and CI smoke need — but
//! nothing in the read/write paths assumes the peer is local: a multi-host
//! deployment only needs a different constructor that dials real addresses
//! (see [`connect_with_backoff`]).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use crate::backoff::Backoff;
use crate::frame::{Frame, FrameReader};
use crate::{Transport, TransportError};

/// Upper bound on bytes parked per connection waiting for socket-buffer
/// space.  A healthy peer leader drains its inbox every loop iteration, so
/// reaching this means the peer stopped reading for good.
const OUTBOX_CAP: usize = 64 * 1024 * 1024;

/// Read chunk size per `try_recv` poll.
const READ_CHUNK: usize = 64 * 1024;

struct Conn<S> {
    stream: S,
    reader: FrameReader,
    /// Bytes accepted by `send` but not yet written to the socket.
    outbox: VecDeque<u8>,
    open: bool,
}

/// A full mesh of framed, nonblocking byte streams — one connection per
/// peer node.
pub struct StreamMesh<S> {
    node: u32,
    nodes: u32,
    label: &'static str,
    conns: Vec<Option<Conn<S>>>,
    rr: usize,
    read_buf: Box<[u8]>,
    /// Encode scratch, reused by every `send`.
    encode_buf: Vec<u8>,
}

impl<S: Read + Write + Send> StreamMesh<S> {
    fn from_conns(node: u32, nodes: u32, label: &'static str, conns: Vec<Option<S>>) -> Self {
        StreamMesh {
            node,
            nodes,
            label,
            conns: conns
                .into_iter()
                .map(|s| {
                    s.map(|stream| Conn {
                        stream,
                        reader: FrameReader::new(),
                        outbox: VecDeque::new(),
                        open: true,
                    })
                })
                .collect(),
            rr: 0,
            read_buf: vec![0u8; READ_CHUNK].into_boxed_slice(),
            encode_buf: Vec::new(),
        }
    }

    /// Push parked outbox bytes into the socket.  Returns `Ok(true)` when
    /// the outbox is empty (more can be written directly), `Ok(false)` when
    /// the socket buffer is still full.
    fn flush_outbox(conn: &mut Conn<S>, peer: u32) -> Result<bool, TransportError> {
        while !conn.outbox.is_empty() {
            let (head, _) = conn.outbox.as_slices();
            match conn.stream.write(head) {
                Ok(0) => {
                    conn.open = false;
                    return Err(TransportError::PeerClosed(peer));
                }
                Ok(n) => {
                    conn.outbox.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    conn.open = false;
                    return Err(TransportError::Io(peer, e.kind()));
                }
            }
        }
        Ok(true)
    }

    /// Write `bytes` without ever blocking: whatever the socket refuses is
    /// parked in the outbox (FIFO after anything already parked).
    fn write_nonblocking(
        conn: &mut Conn<S>,
        peer: u32,
        bytes: &[u8],
    ) -> Result<(), TransportError> {
        let mut off = 0;
        if Self::flush_outbox(conn, peer)? {
            while off < bytes.len() {
                match conn.stream.write(&bytes[off..]) {
                    Ok(0) => {
                        conn.open = false;
                        return Err(TransportError::PeerClosed(peer));
                    }
                    Ok(n) => off += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        conn.open = false;
                        return Err(TransportError::Io(peer, e.kind()));
                    }
                }
            }
        }
        conn.outbox.extend(&bytes[off..]);
        if conn.outbox.len() > OUTBOX_CAP {
            // The peer has not drained tens of megabytes: it is wedged or
            // gone, and unbounded buffering would only hide that.
            conn.open = false;
            return Err(TransportError::Io(peer, io::ErrorKind::TimedOut));
        }
        Ok(())
    }
}

impl<S: Read + Write + Send> Transport for StreamMesh<S> {
    fn node(&self) -> u32 {
        self.node
    }

    fn nodes(&self) -> u32 {
        self.nodes
    }

    fn label(&self) -> &'static str {
        self.label
    }

    fn send(&mut self, dst: u32, frame: &Frame) -> Result<(), TransportError> {
        let conn = match self.conns.get_mut(dst as usize).and_then(Option::as_mut) {
            Some(c) if c.open => c,
            _ => return Err(TransportError::PeerClosed(dst)),
        };
        self.encode_buf.clear();
        frame.encode_into(&mut self.encode_buf);
        Self::write_nonblocking(conn, dst, &self.encode_buf)
    }

    fn try_recv(&mut self) -> Result<Option<Frame>, TransportError> {
        let n = self.conns.len();
        for step in 0..n {
            let peer = (self.rr + step) % n;
            let Some(conn) = self.conns[peer].as_mut() else {
                continue;
            };
            if !conn.open {
                continue;
            }
            // A receive poll is also a write opportunity: parked sends make
            // progress here even if the leader never sends again.
            Self::flush_outbox(conn, peer as u32)?;
            // Drain any frame already buffered before touching the socket.
            match conn.reader.next_frame() {
                Ok(Some(frame)) => {
                    self.rr = (peer + 1) % n;
                    return Ok(Some(frame));
                }
                Ok(None) => {}
                Err(e) => {
                    conn.open = false;
                    return Err(TransportError::Corrupt(peer as u32, e));
                }
            }
            loop {
                match conn.stream.read(&mut self.read_buf) {
                    Ok(0) => {
                        conn.open = false;
                        return Err(TransportError::PeerClosed(peer as u32));
                    }
                    Ok(got) => {
                        conn.reader.extend(&self.read_buf[..got]);
                        if got < self.read_buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        conn.open = false;
                        return Err(TransportError::Io(peer as u32, e.kind()));
                    }
                }
            }
            match conn.reader.next_frame() {
                Ok(Some(frame)) => {
                    self.rr = (peer + 1) % n;
                    return Ok(Some(frame));
                }
                Ok(None) => {}
                Err(e) => {
                    conn.open = false;
                    return Err(TransportError::Corrupt(peer as u32, e));
                }
            }
        }
        Ok(None)
    }

    fn close_peer(&mut self, peer: u32) {
        if let Some(Some(conn)) = self.conns.get_mut(peer as usize) {
            conn.open = false;
        }
    }

    fn flush_pending(&mut self) -> bool {
        let mut all_flushed = true;
        for (peer, conn) in self.conns.iter_mut().enumerate() {
            let Some(conn) = conn.as_mut() else { continue };
            if !conn.open || conn.outbox.is_empty() {
                continue;
            }
            // Errors here mean the peer is already gone; nothing to flush to.
            match Self::flush_outbox(conn, peer as u32) {
                Ok(true) | Err(_) => {}
                Ok(false) => all_flushed = false,
            }
        }
        all_flushed
    }
}

/// TCP transport (loopback or real addresses).
pub type TcpTransport = StreamMesh<TcpStream>;

/// Dial `addr` with seeded exponential backoff between attempts; gives up
/// when the retry budget is exhausted and returns the last error.
pub fn connect_with_backoff(addr: std::net::SocketAddr, seed: u64) -> io::Result<TcpStream> {
    let mut backoff = Backoff::connect_default(seed);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => match backoff.next_delay() {
                Some(delay_ns) => std::thread::sleep(Duration::from_nanos(delay_ns)),
                None => return Err(e),
            },
        }
    }
}

impl TcpTransport {
    /// Build the full N×N loopback mesh inside one process: one ephemeral
    /// listener per node, every ordered pair connected exactly once, all
    /// sockets `TCP_NODELAY` + nonblocking.  Returns one endpoint per node.
    pub fn loopback_mesh(nodes: u32, seed: u64) -> io::Result<Vec<TcpTransport>> {
        let n = nodes as usize;
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            addrs.push(listener.local_addr()?);
            listeners.push(listener);
        }
        let mut conns: Vec<Vec<Option<TcpStream>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        #[allow(clippy::needless_range_loop)] // `i`/`j` index four parallel tables
        for i in 0..n {
            for j in (i + 1)..n {
                // Deterministic pairing: j dials i, i accepts; done serially
                // so no preamble is needed to identify the dialer.
                let out = connect_with_backoff(addrs[i], seed ^ ((i as u64) << 32 | j as u64))?;
                let (inc, _) = listeners[i].accept()?;
                for s in [&out, &inc] {
                    s.set_nodelay(true)?;
                    s.set_nonblocking(true)?;
                }
                conns[j][i] = Some(out);
                conns[i][j] = Some(inc);
            }
        }
        Ok(conns
            .into_iter()
            .enumerate()
            .map(|(node, row)| StreamMesh::from_conns(node as u32, nodes, "tcp", row))
            .collect())
    }
}

/// Unix-domain-socket transport.
#[cfg(unix)]
pub type UdsTransport = StreamMesh<std::os::unix::net::UnixStream>;

#[cfg(unix)]
impl UdsTransport {
    /// Build the full N×N mesh from anonymous `UnixStream::pair`s — real
    /// kernel sockets, no filesystem paths to clean up.
    pub fn pair_mesh(nodes: u32) -> io::Result<Vec<UdsTransport>> {
        use std::os::unix::net::UnixStream;
        let n = nodes as usize;
        let mut conns: Vec<Vec<Option<UnixStream>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        #[allow(clippy::needless_range_loop)] // `i`/`j` index both mesh directions
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = UnixStream::pair()?;
                for s in [&a, &b] {
                    s.set_nonblocking(true)?;
                }
                conns[i][j] = Some(a);
                conns[j][i] = Some(b);
            }
        }
        Ok(conns
            .into_iter()
            .enumerate()
            .map(|(node, row)| StreamMesh::from_conns(node as u32, nodes, "uds", row))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameKind, WireItem};
    use std::time::Instant;

    fn batch(src: u32, dst: u32, seq: u64, n: u64) -> Frame {
        Frame {
            kind: FrameKind::Batch,
            session: 99,
            src,
            dst,
            seq,
            items: (0..n)
                .map(|i| WireItem {
                    dest: i,
                    a: i * 3,
                    b: i * 5,
                    created_at_ns: i,
                })
                .collect(),
        }
    }

    fn recv_one<T: Transport>(t: &mut T) -> Frame {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(f) = t.try_recv().expect("recv failed") {
                return f;
            }
            assert!(Instant::now() < deadline, "no frame within deadline");
            std::thread::yield_now();
        }
    }

    fn exercise_mesh(mut mesh: Vec<impl Transport>) {
        // 0 -> 2 and 2 -> 0 cross traffic plus 1 -> 0.
        let f02 = batch(0, 2, 1, 100);
        let f20 = batch(2, 0, 1, 3);
        let f10 = batch(1, 0, 1, 0);
        mesh[0].send(2, &f02).unwrap();
        mesh[2].send(0, &f20).unwrap();
        mesh[1].send(0, &f10).unwrap();
        assert_eq!(recv_one(&mut mesh[2]), f02);
        let mut got = vec![recv_one(&mut mesh[0]), recv_one(&mut mesh[0])];
        got.sort_by_key(|f| f.src);
        assert_eq!(got, vec![f10, f20]);
    }

    #[test]
    fn tcp_loopback_mesh_delivers() {
        exercise_mesh(TcpTransport::loopback_mesh(3, 7).unwrap());
    }

    #[cfg(unix)]
    #[test]
    fn uds_pair_mesh_delivers() {
        exercise_mesh(UdsTransport::pair_mesh(3).unwrap());
    }

    #[test]
    fn closed_peer_surfaces_as_error_not_hang() {
        let mut mesh = TcpTransport::loopback_mesh(2, 1).unwrap();
        let t1 = mesh.pop().unwrap();
        drop(t1);
        let t0 = &mut mesh[0];
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match t0.try_recv() {
                Err(TransportError::PeerClosed(1)) | Err(TransportError::Io(1, _)) => break,
                Ok(_) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
            assert!(Instant::now() < deadline, "close never surfaced");
        }
        assert!(matches!(
            t0.send(1, &batch(0, 1, 1, 1)),
            Err(TransportError::PeerClosed(1))
        ));
    }
}
