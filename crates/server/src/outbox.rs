//! A TCP connection's outbound half: the thread that produced the bytes
//! writes them.
//!
//! An [`Outbox`] is the connection's encoded-but-unsent frames in one
//! byte buffer under a small lock. The session's replies and the hub's
//! fan-out *append* to it; whoever filled it then [`flush`]es it with
//! **one non-blocking send per batch** — the reader after it has
//! dispatched every frame of one `read()`, the thread that ran a cycle at
//! the engine's end-of-batch signal. Neither waits for the socket: when
//! the send comes back short (or would block) the unsent tail stays in
//! the buffer, `writer_owns` goes up, and the connection's writer thread
//! — parked until then — drains it with ordinary timed blocking writes.
//!
//! Invariants (unit-tested below over a loopback pair):
//!
//! * **One writer at a time.** A direct send happens under the lock; the
//!   writer thread writes outside it but only while `writer_owns` is up,
//!   and while it is up nobody else sends. Bytes reach the socket in the
//!   order they were appended, so frames are never torn, interleaved or
//!   reordered, whichever threads appended them.
//! * **Pushes are shed, replies are not** (D13). A subscription push
//!   that finds `cap` frames queued behind a socket that did not take
//!   them is refused whole (the hub counts it in
//!   `evdb_server_updates_dropped_total`; a batch with more rows than
//!   `cap` is flushed as it goes, not shed); a reply waits for the
//!   writer to make room, which stalls the connection's reader — the
//!   back-pressure a slow peer has always had.
//! * **A stalled peer costs a cycle one failed syscall, never a wait**;
//!   a dead one fails the send (or the writer's timed write), the outbox
//!   goes `dead`, the socket is shut down so the reader tears the
//!   session down, and the hub prunes the subscription on its next push.
//! * Every completed write — direct or by the writer — touches
//!   [`Activity`] and counts its frames in `evdb_server_frames_tx_total`.
//!
//! [`flush`]: Outbox::flush

use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::frame::encode_frame;
use crate::hub::ServerMetrics;
use crate::tcp::Activity;

/// `send(2)` that returns instead of waiting for buffer space: the
/// count it took, or `WouldBlock` when it took nothing.
///
/// std has no per-call non-blocking write: `set_nonblocking` flips the
/// open file description, which the reader's `try_clone`d half shares,
/// and would turn its timed blocking `read` into a spin. `MSG_DONTWAIT`
/// is per call. `MSG_NOSIGNAL` keeps a closed peer an `EPIPE` error
/// rather than a signal in processes that have not ignored `SIGPIPE`.
#[cfg(any(target_os = "linux", target_os = "android"))]
pub(crate) fn send_nowait(stream: &TcpStream, buf: &[u8]) -> io::Result<usize> {
    use std::ffi::{c_int, c_void};
    use std::os::fd::AsRawFd;

    extern "C" {
        fn send(fd: c_int, buf: *const c_void, len: usize, flags: c_int) -> isize;
    }
    // <bits/socket.h>; the values are Linux's on every architecture.
    const MSG_DONTWAIT: c_int = 0x40;
    const MSG_NOSIGNAL: c_int = 0x4000;

    // SAFETY: `stream` is borrowed for the call, so its descriptor is
    // open and stays ours; `buf` is a live slice, so the pointer is
    // valid for reads of `buf.len()` bytes; `send` only reads them and
    // keeps neither the pointer nor the descriptor past its return.
    let sent = unsafe {
        send(
            stream.as_raw_fd(),
            buf.as_ptr().cast(),
            buf.len(),
            MSG_DONTWAIT | MSG_NOSIGNAL,
        )
    };
    if sent < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(sent as usize)
    }
}

/// Where the flag values are not known every send "would block", and
/// the writer thread — the fallback that has to exist anyway — does all
/// the writing.
#[cfg(not(any(target_os = "linux", target_os = "android")))]
pub(crate) fn send_nowait(_stream: &TcpStream, _buf: &[u8]) -> io::Result<usize> {
    Err(io::ErrorKind::WouldBlock.into())
}

/// What became of a subscription push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Push {
    /// Buffered. `first`: nothing was waiting for a flush before it, so
    /// the caller owes the outbox one [`Outbox::flush`] at end of batch.
    Queued { first: bool },
    /// `cap` frames were already queued: refused whole.
    Shed,
    /// The connection is closing or its peer is gone: prune it.
    Gone,
}

struct State {
    /// Encoded frames not yet handed to the socket, in order.
    buf: Vec<u8>,
    /// Frames appended and not yet counted as written: those in `buf`,
    /// those the writer thread has in hand, and after a short send the
    /// ones that went out ahead of the tail. What `cap` bounds.
    frames: usize,
    /// A push is buffered that no flush has covered yet.
    flush_pending: bool,
    /// A send came back short: the writer thread has the tail, and
    /// until it has drained nobody else writes.
    writer_owns: bool,
    /// The session is over; the writer sends what is queued, then shuts
    /// the socket down. Nothing more is accepted.
    closing: bool,
    /// A write failed: the peer is gone and queued frames are void.
    dead: bool,
    /// Replies parked in [`Outbox::reply`] until the writer makes room.
    replies_waiting: usize,
}

/// One connection's outbound buffer; see the module docs.
pub(crate) struct Outbox {
    /// The connection's write half.
    stream: TcpStream,
    state: Mutex<State>,
    /// Signaled on every change of `writer_owns`, `closing`, `dead` and
    /// on room made: the writer thread waits on it for work, the reader
    /// (in [`reply`](Self::reply)) for room.
    changed: Condvar,
    /// Most frames queued before pushes are shed (`session_buffer`).
    cap: usize,
    metrics: Arc<ServerMetrics>,
    activity: Arc<Activity>,
}

impl Outbox {
    pub(crate) fn new(
        stream: TcpStream,
        cap: usize,
        metrics: Arc<ServerMetrics>,
        activity: Arc<Activity>,
    ) -> Arc<Outbox> {
        Arc::new(Outbox {
            stream,
            state: Mutex::new(State {
                buf: Vec::with_capacity(4 * 1024),
                frames: 0,
                flush_pending: false,
                writer_owns: false,
                closing: false,
                dead: false,
                replies_waiting: 0,
            }),
            changed: Condvar::new(),
            cap: cap.max(1),
            metrics,
            activity,
        })
    }

    /// Append one reply frame. Never shed: with `cap` frames queued the
    /// caller first sends what it can and then waits for the writer
    /// thread to take the rest. Dropped only when the connection is
    /// closing or dead (nobody is left to read it).
    pub(crate) fn reply(&self, text: &str) {
        let mut st = self.state.lock();
        while st.frames >= self.cap && !st.closing && !st.dead {
            if st.writer_owns {
                st.replies_waiting += 1;
                st = self.changed.wait(st);
                st.replies_waiting -= 1;
            } else {
                self.flush_locked(&mut st);
            }
        }
        if st.closing || st.dead {
            return;
        }
        encode_frame(text.as_bytes(), &mut st.buf);
        st.frames += 1;
    }

    /// Append one already-encoded subscription frame, or refuse it.
    /// Never waits, and only buffers — unless the outbox is full of
    /// frames nobody has offered the socket yet (one batch with more rows
    /// than `cap`): those are sent now rather than the newcomer shed, so
    /// what is shed is what the *peer* did not take, never what the
    /// batch had not got round to sending.
    pub(crate) fn push(&self, encoded: &[u8]) -> Push {
        let mut st = self.state.lock();
        if st.frames >= self.cap && !st.writer_owns {
            self.flush_locked(&mut st);
        }
        if st.closing || st.dead {
            return Push::Gone;
        }
        if st.frames >= self.cap {
            return Push::Shed;
        }
        st.buf.extend_from_slice(encoded);
        st.frames += 1;
        let first = !std::mem::replace(&mut st.flush_pending, true);
        Push::Queued { first }
    }

    /// Send what is queued with one non-blocking `send`, on the calling
    /// thread. Whatever the socket does not take at once becomes the
    /// writer thread's; while the writer owns a tail this is a no-op
    /// (the writer will take the new frames with it).
    pub(crate) fn flush(&self) {
        self.flush_locked(&mut self.state.lock());
    }

    fn flush_locked(&self, st: &mut State) {
        st.flush_pending = false;
        if st.writer_owns || st.dead || st.buf.is_empty() {
            return;
        }
        match send_nowait(&self.stream, &st.buf) {
            Ok(n) if n == st.buf.len() => {
                st.buf.clear();
                self.wrote(std::mem::take(&mut st.frames));
                self.metrics.direct_flushes.inc();
                return;
            }
            Ok(n) => {
                st.buf.drain(..n);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => {
                self.fail(st);
                return;
            }
        }
        st.writer_owns = true;
        self.metrics.writer_handoffs.inc();
        self.changed.notify_all();
    }

    /// A write of `frames` whole frames completed: count them, and the
    /// peer draining its window is proof of life for the idle reaper.
    fn wrote(&self, frames: usize) {
        self.metrics.frames_tx.add(frames as u64);
        self.activity.touch();
    }

    /// The peer is gone: void the queue, and shut the socket down so the
    /// connection's reader sees the end and tears the session down.
    fn fail(&self, st: &mut State) {
        st.dead = true;
        st.buf = Vec::new();
        st.frames = 0;
        self.changed.notify_all();
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// End the session: nothing more is accepted, the writer thread
    /// sends what is queued (a `BYE`, an `ERR idle`) and shuts the
    /// socket down.
    pub(crate) fn close(&self) {
        self.state.lock().closing = true;
        self.changed.notify_all();
    }

    /// The connection's writer thread: parked until a flush leaves it a
    /// tail or the session closes, then plain blocking writes — bounded
    /// by the socket's write timeout, so a dead peer errors it out —
    /// until the buffer is empty again.
    pub(crate) fn writer_loop(&self) {
        let mut chunk = Vec::new();
        let mut st = self.state.lock();
        while !st.dead {
            if !(st.writer_owns || st.closing) {
                st = self.changed.wait(st);
                continue;
            }
            if st.buf.is_empty() {
                // Drained: direct sends may resume, waiting replies go on.
                st.writer_owns = false;
                self.changed.notify_all();
                if st.closing {
                    break;
                }
                continue;
            }
            // Take the whole queue and write it outside the lock;
            // `writer_owns` keeps everyone else off the socket meanwhile.
            // Its frames stay counted against `cap` until they are out.
            st.writer_owns = true;
            std::mem::swap(&mut chunk, &mut st.buf);
            let frames = st.frames;
            drop(st);
            let written = (&self.stream).write_all(&chunk);
            chunk.clear();
            st = self.state.lock();
            match written {
                Ok(()) => {
                    st.frames -= frames;
                    self.wrote(frames);
                    self.changed.notify_all();
                }
                Err(_) => self.fail(&mut st),
            }
        }
        drop(st);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame_vec, FrameDecoder};
    use crate::hub::Hub;
    use evdb_obs::Registry;
    use std::io::Read;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    /// Fix a socket's buffer size (`SO_SNDBUF` / `SO_RCVBUF`). A size
    /// set by hand is never grown by the kernel's autotuning, which would
    /// otherwise let a stalled writer's blocked write finish — and free
    /// outbox room — while the peer reads nothing.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    fn pin_buffer(stream: &TcpStream, option: std::ffi::c_int, bytes: std::ffi::c_int) {
        use std::ffi::{c_int, c_void};
        use std::os::fd::AsRawFd;

        extern "C" {
            fn setsockopt(
                fd: c_int,
                level: c_int,
                name: c_int,
                value: *const c_void,
                len: u32,
            ) -> c_int;
        }
        const SOL_SOCKET: c_int = 1;
        // SAFETY: the descriptor is borrowed open for the call, and
        // `value` points at a live `c_int` of the length passed.
        let rc = unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                option,
                (&bytes as *const c_int).cast(),
                std::mem::size_of::<c_int>() as u32,
            )
        };
        assert_eq!(rc, 0, "{}", io::Error::last_os_error());
    }

    /// A connected loopback pair: (the server's half, the peer's half),
    /// with our send and the peer's receive buffer pinned.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (ours, _) = listener.accept().unwrap();
        #[cfg(any(target_os = "linux", target_os = "android"))]
        {
            const SO_SNDBUF: std::ffi::c_int = 7;
            const SO_RCVBUF: std::ffi::c_int = 8;
            pin_buffer(&ours, SO_SNDBUF, 64 * 1024);
            pin_buffer(&peer, SO_RCVBUF, 64 * 1024);
        }
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        (ours, peer)
    }

    struct Rig {
        out: Arc<Outbox>,
        peer: TcpStream,
        metrics: Arc<ServerMetrics>,
        activity: Arc<Activity>,
        writer: std::thread::JoinHandle<()>,
    }

    fn rig(cap: usize) -> Rig {
        let (ours, peer) = socket_pair();
        let metrics = Arc::new(ServerMetrics::bind(&Registry::new(), &Hub::new()));
        let activity = Activity::new();
        let out = Outbox::new(ours, cap, Arc::clone(&metrics), Arc::clone(&activity));
        let writer = {
            let out = Arc::clone(&out);
            std::thread::spawn(move || out.writer_loop())
        };
        Rig {
            out,
            peer,
            metrics,
            activity,
            writer,
        }
    }

    impl Rig {
        fn push(&self, text: &str) -> Push {
            self.out.push(&encode_frame_vec(text.as_bytes()))
        }

        /// Close the session and see the peer's stream end cleanly.
        fn finish(mut self) {
            self.out.close();
            self.writer.join().unwrap();
            assert_eq!(
                self.peer.read(&mut [0u8; 16]).unwrap(),
                0,
                "clean end of stream"
            );
        }
    }

    /// Read frames off `peer`, `chunk` bytes at a time, until `n` have
    /// arrived. Frames read beyond the `n`th stay in `decoder` for the
    /// next call: a reply the writer sent right behind a backlog may come
    /// in the same chunk as the backlog's last frame.
    fn read_frames(
        peer: &mut TcpStream,
        decoder: &mut FrameDecoder,
        n: usize,
        chunk: usize,
    ) -> Vec<String> {
        let mut frames = Vec::new();
        let mut buf = vec![0u8; chunk];
        loop {
            while frames.len() < n {
                let Some(frame) = decoder.next_frame() else {
                    break;
                };
                frames.push(String::from_utf8(frame.unwrap()).unwrap());
            }
            if frames.len() >= n {
                return frames;
            }
            let read = peer.read(&mut buf).expect("frame before the read timeout");
            assert!(read > 0, "hung up after {} of {n} frames", frames.len());
            decoder.push(&buf[..read]);
        }
    }

    /// Frame `i` of a run: the index, then enough filler that a few
    /// hundred of them overrun the loopback socket buffers.
    fn big(i: usize) -> String {
        format!("UPDATE q + {i} {}", "x".repeat(64 * 1024))
    }

    /// Push-and-flush big frames until a send comes back short. Returns
    /// how many were queued.
    fn fill_until_handoff(rig: &Rig, handoffs_before: u64) -> usize {
        let mut queued = 0;
        while rig.metrics.writer_handoffs.get() == handoffs_before {
            assert!(queued < 4_096, "the socket never filled");
            assert_eq!(rig.push(&big(queued)), Push::Queued { first: true });
            queued += 1;
            rig.out.flush();
        }
        queued
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    #[test]
    fn send_nowait_reports_a_full_socket_and_leaves_blocking_reads_alone() {
        let (mut ours, _peer) = socket_pair();
        ours.set_read_timeout(Some(Duration::from_millis(60)))
            .unwrap();
        let block = vec![7u8; 256 * 1024];
        let mut sent = 0usize;
        let full = loop {
            assert!(sent < 1 << 30, "a socket nobody reads took 1 GiB");
            match send_nowait(&ours, &block) {
                Ok(n) => {
                    assert!(n > 0 && n <= block.len());
                    sent += n;
                }
                Err(e) => break e,
            }
        };
        assert_eq!(full.kind(), io::ErrorKind::WouldBlock);
        assert!(sent > 0);
        // The description is still a blocking one: the reader's timed
        // read waits out its timeout instead of spinning.
        let t0 = Instant::now();
        let err = ours.read(&mut [0u8; 8]).unwrap_err();
        assert!(matches!(
            err.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ));
        assert!(
            t0.elapsed() >= Duration::from_millis(50),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn frames_stay_whole_and_ordered_from_direct_write_to_writer_and_back() {
        let mut rig = rig(usize::MAX);
        let mut decoder = FrameDecoder::new();

        // Direct: one send, no writer, and the peer may take it in any
        // pieces it likes.
        let small: Vec<String> = (0..3).map(|i| format!("OK small {i}")).collect();
        assert_eq!(rig.push(&small[0]), Push::Queued { first: true });
        assert_eq!(rig.push(&small[1]), Push::Queued { first: false });
        rig.out.reply(&small[2]);
        rig.out.flush();
        assert_eq!(rig.metrics.direct_flushes.get(), 1);
        assert_eq!(rig.metrics.writer_handoffs.get(), 0);
        assert_eq!(read_frames(&mut rig.peer, &mut decoder, 3, 7), small);

        // Tail: nobody reads until a send goes short. From then on the
        // writer owns the socket; what is appended behind the tail is
        // not sent around it.
        let queued = fill_until_handoff(&rig, 0);
        let direct = rig.metrics.direct_flushes.get();
        for i in queued..queued + 5 {
            assert!(matches!(rig.push(&big(i)), Push::Queued { .. }));
            rig.out.flush();
        }
        assert_eq!(rig.metrics.direct_flushes.get(), direct);
        assert_eq!(rig.metrics.writer_handoffs.get(), 1);

        // The first stretch 7 bytes at a time (frame boundaries fall
        // anywhere), the rest as fast as it comes.
        let mut got = read_frames(&mut rig.peer, &mut decoder, 1, 7);
        got.extend(read_frames(
            &mut rig.peer,
            &mut decoder,
            queued + 5 - got.len(),
            256 * 1024,
        ));
        let want: Vec<String> = (0..queued + 5).map(big).collect();
        assert_eq!(got.len(), want.len());
        assert!(got == want, "a frame was torn, lost or reordered");

        // Drained: the writer steps back and the next flush is direct.
        let t0 = Instant::now();
        while rig.out.state.lock().writer_owns {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "writer never let go"
            );
            std::thread::yield_now();
        }
        rig.out.reply("OK direct again");
        rig.out.flush();
        assert_eq!(rig.metrics.direct_flushes.get(), direct + 1);
        assert_eq!(rig.metrics.writer_handoffs.get(), 1);
        assert_eq!(
            read_frames(&mut rig.peer, &mut decoder, 1, 7),
            ["OK direct again"]
        );
        assert_eq!(rig.metrics.frames_tx.get(), (3 + queued + 5 + 1) as u64);
        rig.finish();
    }

    #[test]
    fn pushes_past_the_cap_are_shed_whole_and_replies_wait_instead() {
        const CAP: usize = 4;
        let mut rig = rig(CAP);
        // Stall the peer: the writer thread is stuck in its write.
        let sent = fill_until_handoff(&rig, 0);
        // Behind it the outbox queues up to the cap and sheds the rest.
        let mut queued = sent;
        loop {
            match rig.push(&big(queued)) {
                Push::Queued { .. } => queued += 1,
                Push::Shed => break,
                Push::Gone => panic!("the peer is stalled, not gone"),
            }
            assert!(queued <= sent + 2 * CAP, "nothing was ever shed");
        }
        assert_eq!(rig.push("UPDATE q + shed"), Push::Shed);
        // A reply is not shed: it waits for room. It is seen parked on
        // the outbox with the cap still full, its frame not appended.
        let replier = {
            let out = Arc::clone(&rig.out);
            std::thread::spawn(move || out.reply("OK after the backlog"))
        };
        let t0 = Instant::now();
        loop {
            let st = rig.out.state.lock();
            if st.replies_waiting == 1 {
                assert!(st.writer_owns && st.frames >= CAP);
                break;
            }
            drop(st);
            assert!(
                !replier.is_finished(),
                "the reply did not wait for the writer"
            );
            assert!(t0.elapsed() < Duration::from_secs(10), "the reply never ran");
            std::thread::yield_now();
        }

        let mut decoder = FrameDecoder::new();
        let got = read_frames(&mut rig.peer, &mut decoder, queued, 256 * 1024);
        replier.join().unwrap();
        rig.out.flush();
        let tail = read_frames(&mut rig.peer, &mut decoder, 1, 7);
        let want: Vec<String> = (0..queued).map(big).collect();
        assert!(got == want, "a queued frame was torn, lost or reordered");
        assert_eq!(tail, ["OK after the backlog"]);
        assert_eq!(rig.metrics.frames_tx.get(), queued as u64 + 1);
        rig.finish();
    }

    #[test]
    fn a_batch_bigger_than_the_cap_is_sent_as_it_goes_not_shed() {
        const CAP: usize = 4;
        let mut rig = rig(CAP);
        let want: Vec<String> = (0..10 * CAP).map(|i| format!("UPDATE q + {i}")).collect();
        // No flush between the pushes: the peer's socket is empty, so
        // each time the cap is reached the queue goes out instead.
        for line in &want {
            assert!(
                matches!(rig.push(line), Push::Queued { .. }),
                "{line} was shed"
            );
        }
        rig.out.flush();
        assert_eq!(
            read_frames(&mut rig.peer, &mut FrameDecoder::new(), want.len(), 7),
            want
        );
        assert_eq!(rig.metrics.writer_handoffs.get(), 0);
        assert_eq!(rig.metrics.frames_tx.get(), want.len() as u64);
        rig.finish();
    }

    #[test]
    fn a_closed_peer_fails_a_flush_and_the_outbox_reports_it_gone() {
        let Rig {
            out, peer, writer, ..
        } = rig(64);
        drop(peer);
        // The first send after the close can still be taken (the reset
        // comes back later); one of the next ones fails.
        let frame = encode_frame_vec(b"UPDATE q + 1");
        let t0 = Instant::now();
        while out.push(&frame) != Push::Gone {
            assert!(t0.elapsed() < Duration::from_secs(10), "never noticed");
            out.flush();
            std::thread::sleep(Duration::from_millis(1));
        }
        out.reply("OK to nobody"); // dropped, not waited for
        writer.join().unwrap(); // the writer exits on its own
    }

    #[test]
    fn a_direct_write_is_proof_of_life() {
        let mut rig = rig(64);
        std::thread::sleep(Duration::from_millis(40));
        assert!(rig.activity.idle() >= Duration::from_millis(30));
        rig.out.reply("PONG");
        rig.out.flush();
        assert!(rig.activity.idle() < Duration::from_millis(30));
        assert_eq!(rig.metrics.writer_handoffs.get(), 0);
        assert_eq!(
            read_frames(&mut rig.peer, &mut FrameDecoder::new(), 1, 7),
            ["PONG"]
        );
        rig.finish();
    }

    #[test]
    fn close_sends_what_is_queued_then_ends_the_stream() {
        let mut rig = rig(64);
        rig.out.reply("BYE");
        rig.out.close();
        assert_eq!(rig.push("UPDATE q + late"), Push::Gone);
        assert_eq!(
            read_frames(&mut rig.peer, &mut FrameDecoder::new(), 1, 7),
            ["BYE"]
        );
        rig.finish();
    }
}
