//! In-memory duplex byte pipes — the transport under the HTTP layer.
//!
//! A [`Connection`] is one endpoint of a pair of unidirectional byte
//! queues. Real HTTP/1.1 bytes flow through real framing code, but the
//! transport is in-process so the stack needs no sockets and stays
//! deterministic. Pipes support two modes of use:
//!
//! * **blocking** (the [`HttpClient`]): reads park on a condvar until
//!   bytes arrive, writes park when the peer's receive buffer is at
//!   capacity — the analogue of a full TCP send window;
//! * **non-blocking** (the event-driven engine): `Connection::try_read`
//!   / `Connection::try_write` never park; instead each pipe pushes
//!   readiness edges (bytes arrived, space freed, closed) to a
//!   registered [`Watcher`], the in-memory stand-in for what epoll
//!   would report for a socket fd.
//!
//! [`HttpClient`]: crate::server::HttpClient

use crate::poller::{Readiness, Watcher};
use bytes::BytesMut;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;

/// Outcome of a blocking read with a deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadStatus {
    /// Bytes were moved into the caller's buffer.
    Data,
    /// The pipe is closed and fully drained.
    Eof,
    /// The deadline elapsed with no bytes and no close.
    TimedOut,
}

/// Outcome of a non-blocking read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TryRead {
    /// This many bytes were moved into the caller's buffer.
    Data(usize),
    /// Nothing buffered right now; the pipe is still open.
    Empty,
    /// The pipe is closed and fully drained.
    Closed,
}

struct PipeState {
    buf: BytesMut,
    closed: bool,
    /// Notified when bytes arrive or the pipe closes (the reading side).
    reader: Option<Watcher>,
    /// Notified when buffer space frees below capacity or the pipe
    /// closes (the writing side).
    writer: Option<Watcher>,
}

/// One direction of an in-memory duplex connection.
struct Pipe {
    capacity: usize,
    state: Mutex<PipeState>,
    readable: Condvar,
    writable: Condvar,
}

impl Pipe {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Pipe {
            capacity,
            state: Mutex::new(PipeState {
                buf: BytesMut::new(),
                closed: false,
                reader: None,
                writer: None,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
        })
    }

    /// Non-blocking write: appends as much of `data` as capacity allows
    /// and returns the number of bytes accepted. A closed pipe accepts
    /// (and drops) everything, like writing into a TCP RST.
    fn try_write(&self, data: &[u8]) -> usize {
        let mut state = self.state.lock();
        if state.closed {
            return data.len(); // peer hung up; writes are silently dropped
        }
        let room = self.capacity.saturating_sub(state.buf.len());
        let n = room.min(data.len());
        if n == 0 {
            return 0;
        }
        state.buf.extend_from_slice(&data[..n]);
        if let Some(w) = &state.reader {
            w.notify(Readiness::READABLE);
        }
        self.readable.notify_all();
        n
    }

    /// Blocking write: parks until all of `data` is accepted, the pipe
    /// closes, or `timeout` elapses per stalled attempt. Returns whether
    /// everything was accepted (a closed pipe counts — bytes into a dead
    /// peer are dropped, not an error).
    fn write_all(&self, data: &[u8], timeout: Duration) -> bool {
        let mut offset = 0;
        while offset < data.len() {
            let n = self.try_write(&data[offset..]);
            offset += n;
            if offset >= data.len() {
                break;
            }
            if n == 0 {
                let mut state = self.state.lock();
                if state.closed {
                    return true;
                }
                if state.buf.len() >= self.capacity
                    && self.writable.wait_for(&mut state, timeout).timed_out()
                {
                    return false;
                }
            }
        }
        true
    }

    fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        if let Some(w) = &state.reader {
            w.notify(Readiness::READABLE);
        }
        if let Some(w) = &state.writer {
            w.notify(Readiness::WRITABLE);
        }
        self.readable.notify_all();
        self.writable.notify_all();
    }

    /// Blocking read with a deadline; moves everything buffered into
    /// `out`.
    fn read_with_timeout(&self, out: &mut BytesMut, timeout: Duration) -> ReadStatus {
        let mut state = self.state.lock();
        while state.buf.is_empty() && !state.closed {
            if self.readable.wait_for(&mut state, timeout).timed_out() {
                return ReadStatus::TimedOut;
            }
        }
        if state.buf.is_empty() {
            return ReadStatus::Eof;
        }
        out.extend_from_slice(&state.buf);
        state.buf.clear();
        self.notify_drained(&mut state);
        ReadStatus::Data
    }

    /// Non-blocking read; moves everything buffered into `out`.
    fn try_read(&self, out: &mut BytesMut) -> TryRead {
        let mut state = self.state.lock();
        if state.buf.is_empty() {
            return if state.closed {
                TryRead::Closed
            } else {
                TryRead::Empty
            };
        }
        let n = state.buf.len();
        out.extend_from_slice(&state.buf);
        state.buf.clear();
        self.notify_drained(&mut state);
        TryRead::Data(n)
    }

    /// After a drain, tell a parked / registered writer that space freed.
    fn notify_drained(&self, state: &mut PipeState) {
        if let Some(w) = &state.writer {
            w.notify(Readiness::WRITABLE);
        }
        self.writable.notify_all();
    }

    fn set_reader_watcher(&self, w: Watcher) {
        self.state.lock().reader = Some(w);
    }

    fn set_writer_watcher(&self, w: Watcher) {
        self.state.lock().writer = Some(w);
    }

    /// Current level-triggered readiness of this pipe *for its reader*.
    fn readable_level(&self) -> bool {
        let state = self.state.lock();
        !state.buf.is_empty() || state.closed
    }

    /// Current level-triggered readiness of this pipe *for its writer*.
    fn writable_level(&self) -> bool {
        let state = self.state.lock();
        state.buf.len() < self.capacity || state.closed
    }
}

/// One endpoint of a duplex in-memory connection.
pub struct Connection {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
}

impl Connection {
    /// Creates a connected pair (client end, server end) whose
    /// per-direction buffers are capped at `capacity` bytes: once a
    /// receiver stops draining, writers stall (blocking mode) or see
    /// partial writes (non-blocking mode).
    pub(crate) fn duplex_with_capacity(capacity: usize) -> (Connection, Connection) {
        let a = Pipe::new(capacity);
        let b = Pipe::new(capacity);
        (
            Connection {
                rx: a.clone(),
                tx: b.clone(),
            },
            Connection { rx: b, tx: a },
        )
    }

    /// Writes raw bytes to the peer, parking while the peer's receive
    /// buffer is at capacity. Gives up (dropping the tail) if the peer
    /// neither drains nor closes for `crate::server::READ_TIMEOUT`.
    pub fn send(&self, data: &[u8]) {
        self.tx.write_all(data, crate::server::READ_TIMEOUT);
    }

    /// Blocking read; returns `false` on EOF *or* after an idle timeout.
    pub fn read_into(&self, out: &mut BytesMut) -> bool {
        matches!(
            self.rx.read_with_timeout(out, crate::server::READ_TIMEOUT),
            ReadStatus::Data
        )
    }

    /// Non-blocking read of everything currently buffered.
    pub(crate) fn try_read(&self, out: &mut BytesMut) -> TryRead {
        self.rx.try_read(out)
    }

    /// Non-blocking write; returns the number of bytes accepted.
    pub(crate) fn try_write(&self, data: &[u8]) -> usize {
        self.tx.try_write(data)
    }

    /// Half-closes: the peer sees EOF after draining.
    pub fn close(&self) {
        self.tx.close();
    }

    /// Installs poller watchers: `reader` fires when inbound bytes (or
    /// EOF) arrive, `writer` when outbound space frees (or the peer
    /// closes).
    pub(crate) fn register(&self, reader: Watcher, writer: Watcher) {
        self.rx.set_reader_watcher(reader);
        self.tx.set_writer_watcher(writer);
    }

    /// Current level-triggered readiness (used to seed a freshly
    /// registered or re-enabled interest, where edges may already have
    /// passed).
    pub(crate) fn readiness_level(&self) -> Readiness {
        Readiness {
            readable: self.rx.readable_level(),
            writable: self.tx.writable_level(),
        }
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.tx.close();
        self.rx.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_pipes_carry_bytes_both_ways() {
        let (a, b) = Connection::duplex_with_capacity(1 << 16);
        a.send(b"ping");
        let mut buf = BytesMut::new();
        assert!(b.read_into(&mut buf));
        assert_eq!(&buf[..], b"ping");
        b.send(b"pong");
        let mut buf = BytesMut::new();
        assert!(a.read_into(&mut buf));
        assert_eq!(&buf[..], b"pong");
    }

    #[test]
    fn closed_pipe_reports_eof_after_drain() {
        let (a, b) = Connection::duplex_with_capacity(1 << 16);
        a.send(b"last");
        a.close();
        let mut buf = BytesMut::new();
        assert!(b.read_into(&mut buf));
        assert_eq!(&buf[..], b"last");
        assert!(!b.read_into(&mut buf), "drained + closed => EOF");
        assert_eq!(
            b.rx.read_with_timeout(&mut buf, Duration::from_millis(10)),
            ReadStatus::Eof
        );
    }

    #[test]
    fn write_after_peer_close_is_dropped() {
        let (a, b) = Connection::duplex_with_capacity(1 << 16);
        drop(b);
        a.send(b"into the void"); // must not panic
    }

    #[test]
    fn read_timeout_is_distinguished_from_eof() {
        let (_a, b) = Connection::duplex_with_capacity(1 << 16);
        let mut buf = BytesMut::new();
        assert_eq!(
            b.rx.read_with_timeout(&mut buf, Duration::from_millis(5)),
            ReadStatus::TimedOut
        );
    }

    #[test]
    fn capped_pipe_accepts_partial_writes() {
        let (a, b) = Connection::duplex_with_capacity(4);
        assert_eq!(a.try_write(b"abcdefgh"), 4);
        assert_eq!(a.try_write(b"x"), 0, "full pipe accepts nothing");
        let mut buf = BytesMut::new();
        assert_eq!(b.try_read(&mut buf), TryRead::Data(4));
        assert_eq!(&buf[..], b"abcd");
        assert_eq!(a.try_write(b"efgh"), 4, "drain frees capacity");
    }

    #[test]
    fn blocking_send_resumes_when_reader_drains() {
        let (a, b) = Connection::duplex_with_capacity(8);
        let writer = std::thread::spawn(move || {
            a.send(&[7u8; 32]); // 4x capacity: must park and resume
            a.close();
        });
        let mut got = 0usize;
        let mut buf = BytesMut::new();
        loop {
            buf.clear();
            match b.rx.read_with_timeout(&mut buf, Duration::from_secs(5)) {
                ReadStatus::Data => got += buf.len(),
                ReadStatus::Eof => break,
                ReadStatus::TimedOut => panic!("writer stalled"),
            }
        }
        assert_eq!(got, 32);
        writer.join().unwrap();
    }

    #[test]
    fn close_read_wakes_a_parked_reader() {
        let (a, b) = Connection::duplex_with_capacity(1 << 16);
        let reader = std::thread::spawn(move || {
            let mut buf = BytesMut::new();
            b.rx.read_with_timeout(&mut buf, Duration::from_secs(30))
        });
        std::thread::sleep(Duration::from_millis(20));
        a.close();
        let status = reader.join().unwrap();
        assert_eq!(status, ReadStatus::Eof, "close must wake the reader");
    }
}
