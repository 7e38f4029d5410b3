//! The readiness-driven connection transport.
//!
//! One event-loop thread owns the listener and **every** client socket,
//! nonblocking, multiplexed through the vendored [`mio`] poller (epoll on
//! Linux) — no thread per connection, so ten thousand idle cameras cost ten
//! thousand small buffers, not ten thousand stacks, and there is no
//! `JoinHandle` to leak per connection ever accepted: a connection's entire
//! footprint dies with its slot in the event loop's table.
//!
//! Per connection the loop runs a byte-level state machine over one growable
//! input buffer: at each message boundary the first byte routes to either a
//! JSON line (always starts with `{`) or a binary frame (the magic byte),
//! mirroring the peek-based routing of the old blocking transport, including
//! resynchronisation — a binary frame whose header is readable but invalid
//! is skipped by its declared length, and only an unbounded declared payload
//! (or an oversized newline-free line) forces a disconnect.
//!
//! A valid binary header gets a payload buffer of its own, reserved with
//! `try_reserve_exact` at the declared length: a reservation the allocator
//! refuses is answered `bad-request` and the connection closed, never an
//! abort. The bytes already buffered behind the header move into it once,
//! and the rest is read from the socket straight into its spare capacity,
//! never past its end. So a payload never passes through the input buffer,
//! and resident memory still grows only with the bytes received.
//!
//! Inference never runs on the event loop, and JSON frames are mostly decoded
//! off it. The loop frames each line, finding its newline with std's
//! memchr-backed search; a frame line spelled exactly as
//! [`Request::encode_frame`] writes it, for a session this connection owns,
//! goes to the session's shard as the raw bytes it took from the input
//! buffer ([`JobPayload::Line`]), and the shard worker decodes it with the
//! same [`decode_line`] the loop runs on every other line. The router,
//! [`canonical_frame_session`], lives in [`crate::protocol`] next to the
//! frame writer and reader, the one module that knows that spelling.
//! Binary payloads are still checksummed here, with the four-lane
//! [`metaseg_data::crc32`]: moving the check to the workers measured no gain
//! on `hires` or `fleet`, because it stays on each frame's critical path.
//!
//! Frame, `stats`, `resume` and `close` operations become [`Job`]s on the
//! session's shard queue; the shard worker posts a [`Completion`] back
//! through a channel and wakes the poller. The loop keeps responses in
//! request order with a per-connection sequence of response slots: every
//! request allocates the next slot, inline operations fill theirs
//! immediately, queued operations fill theirs on completion, and the write
//! side only ever flushes the longest filled prefix.

use crate::protocol::{canonical_frame_session, ErrorCode, FrameFormat, Request, Response};
use crate::server::{
    bad_request, overloaded_error, shutting_down_error, unknown_session_error, ServerConfig, Shared,
};
use crate::shard::{check_probs, decode_line, Completion, ConnId, Job, JobKind, JobPayload, Shard};
use crate::wire::{self, BinaryFrameHeader, BINARY_FRAME_MAGIC, BINARY_HEADER_LEN};
use metaseg::stream::MetaSegStream;
use metaseg::DispersionPrecision;
use mio::{Events, Interest, Poll, Token, Waker};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::io::{self, BufRead, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Poll token of the listener.
const LISTENER: usize = 0;
/// Poll token of the cross-thread waker.
const WAKER: usize = 1;
/// First token handed to client connections.
const FIRST_CONN: usize = 2;

/// Poll timeout of the event loop. It bounds only how late
/// `enforce_deadlines` sweeps the read, idle and linger deadlines on a quiet
/// server: shutdown wakes the poller through the waker and never waits on it.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);

/// Deadline-heap entry kind: a connection's idle / mid-message deadline.
const DL_CONN: u8 = 0;
/// Deadline-heap entry kind: an orphaned session's linger expiry.
const DL_ORPHAN: u8 = 1;

/// One lazily-invalidated deadline-heap entry: `(when, kind, a, b)` where
/// `(a, b)` is `(token, generation)` for [`DL_CONN`] and `(session, 0)` for
/// [`DL_ORPHAN`]. Entries are never removed on activity — a popped entry is
/// revalidated against the live state and re-pushed at the true deadline,
/// so the heap stays O(log n) per event with no cancellation bookkeeping.
type DeadlineEntry = (Instant, u8, u64, u64);

/// A growable input buffer with an O(1) consume offset; compacts lazily so
/// steady-state parsing never memmoves per message.
struct ByteBuf {
    data: Vec<u8>,
    start: usize,
    /// Length of the buffered prefix already searched for a newline and
    /// known to hold none, so a line arriving over many reads is scanned
    /// once in total, not once per read.
    scanned: usize,
}

impl ByteBuf {
    fn new() -> ByteBuf {
        ByteBuf {
            data: Vec::new(),
            start: 0,
            scanned: 0,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..]
    }

    fn len(&self) -> usize {
        self.data.len() - self.start
    }

    fn extend(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    fn consume(&mut self, count: usize) {
        self.start += count;
        self.scanned = self.scanned.saturating_sub(count);
        debug_assert!(self.start <= self.data.len());
        if self.start == self.data.len() {
            self.data.clear();
            self.start = 0;
        } else if self.start > 4096 && self.start * 2 > self.data.len() {
            self.data.drain(..self.start);
            self.start = 0;
        }
    }

    /// Offset of the first buffered newline, searching only the bytes that
    /// arrived since the last search.
    fn find_newline(&mut self) -> Option<usize> {
        let unscanned = &self.as_slice()[self.scanned..];
        // std's memchr-backed search, many bytes per step. It stops after
        // the first newline, or at the end of the slice without one.
        let mut rest = unscanned;
        let searched = rest
            .skip_until(b'\n')
            .expect("reading a byte slice cannot fail");
        if unscanned[..searched].ends_with(b"\n") {
            Some(self.scanned + searched - 1)
        } else {
            self.scanned = self.len();
            None
        }
    }

    /// Copies out and consumes exactly `count` bytes.
    fn take(&mut self, count: usize) -> Vec<u8> {
        let taken = self.as_slice()[..count].to_vec();
        self.consume(count);
        taken
    }
}

/// Where the byte-level state machine stands between reads.
enum ReadState {
    /// At a message boundary: route on the first byte.
    Route,
    /// A valid binary header was consumed; its payload is read into
    /// `payload`, reserved at the declared length `needed`.
    BinaryPayload {
        header: BinaryFrameHeader,
        payload: Vec<u8>,
        needed: usize,
    },
    /// A rejected binary frame's payload is being discarded so the stream
    /// resynchronises at the next message boundary (the typed error response
    /// was already slotted when the header was consumed).
    BinarySkip { remaining: usize },
}

/// One client connection: socket, parse state, sessions, and the ordered
/// response slots.
struct Conn {
    stream: TcpStream,
    id: ConnId,
    inbuf: ByteBuf,
    outbuf: Vec<u8>,
    out_start: usize,
    read_state: ReadState,
    /// Ids of the sessions this connection currently owns; the session
    /// state itself lives in the transport's session table so it can
    /// outlive the connection (see [`SessionEntry`]).
    sessions: HashSet<u64>,
    /// When the socket last produced bytes; deadlines measure from here.
    last_activity: Instant,
    /// The earliest deadline-heap entry currently scheduled for this
    /// connection (`None` when none is); avoids pushing a heap entry per
    /// read.
    scheduled_deadline: Option<Instant>,
    /// Whether binary frame submissions have been negotiated.
    binary_frames: bool,
    /// Negotiated dispersion-scan precision for this connection's binary
    /// frames (JSON frames always scan at f64).
    dispersion: DispersionPrecision,
    /// Response slots in request order: `pending[i]` answers request
    /// `base_seq + i`. `None` slots await a shard completion.
    pending: VecDeque<Option<Response>>,
    base_seq: u64,
    /// Responses flushed, then close — set by unrecoverable protocol errors
    /// that still deserve an answer.
    closing: bool,
    /// Whether the poll registration currently includes write interest.
    write_interest: bool,
}

impl Conn {
    fn new(stream: TcpStream, id: ConnId) -> Conn {
        Conn {
            stream,
            id,
            inbuf: ByteBuf::new(),
            outbuf: Vec::new(),
            out_start: 0,
            read_state: ReadState::Route,
            sessions: HashSet::new(),
            last_activity: Instant::now(),
            scheduled_deadline: None,
            binary_frames: false,
            dispersion: DispersionPrecision::F64,
            pending: VecDeque::new(),
            base_seq: 0,
            closing: false,
            write_interest: false,
        }
    }

    /// Allocates the next response slot and returns its sequence number.
    fn alloc_slot(&mut self) -> u64 {
        self.pending.push_back(None);
        self.base_seq + self.pending.len() as u64 - 1
    }

    /// Fills a previously allocated slot.
    fn fill(&mut self, seq: u64, response: Response) {
        let index = seq.checked_sub(self.base_seq).map(|i| i as usize);
        if let Some(slot) = index.and_then(|i| self.pending.get_mut(i)) {
            *slot = Some(response);
        }
    }

    /// Moves every leading filled slot into the output buffer, in order.
    fn flush_ready(&mut self) {
        while matches!(self.pending.front(), Some(Some(_))) {
            let response = self
                .pending
                .pop_front()
                .expect("front checked above")
                .expect("front checked above");
            self.base_seq += 1;
            self.outbuf.extend_from_slice(response.encode().as_bytes());
            self.outbuf.push(b'\n');
        }
    }

    fn out_len(&self) -> usize {
        self.outbuf.len() - self.out_start
    }

    /// Writes as much of the output buffer as the socket accepts.
    /// `Ok(())` leaves the connection alive; `Err` means it is gone.
    fn write_pending(&mut self) -> Result<(), ()> {
        while self.out_start < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_start..]) {
                Ok(0) => return Err(()),
                Ok(written) => self.out_start += written,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        if self.out_start == self.outbuf.len() {
            self.outbuf.clear();
            self.out_start = 0;
        } else if self.out_start > 4096 && self.out_start * 2 > self.outbuf.len() {
            self.outbuf.drain(..self.out_start);
            self.out_start = 0;
        }
        Ok(())
    }

    /// Whether everything this connection will ever say has been said.
    fn finished_closing(&self) -> bool {
        self.closing && self.pending.is_empty() && self.out_len() == 0
    }

    /// When this connection's deadline clock would expire, under the
    /// configured timeouts: the (shorter) read deadline while a message is
    /// partially buffered, the idle deadline while truly quiet, and no
    /// deadline at all while a response is in flight on a shard — a
    /// connection waiting on *us* is not idle. `None` means "no deadline".
    fn effective_deadline(&self, config: &ServerConfig) -> Option<Instant> {
        let mid_message = self.inbuf.len() > 0 || !matches!(self.read_state, ReadState::Route);
        let millis = if mid_message {
            config.read_timeout_ms
        } else if self.pending.is_empty() {
            config.idle_timeout_ms
        } else {
            0
        };
        (millis > 0).then(|| self.last_activity + Duration::from_millis(millis))
    }
}

/// What driving a connection's read side concluded.
#[derive(PartialEq, Eq)]
enum ReadOutcome {
    Alive,
    /// EOF, transport error, or an unanswerable protocol violation (e.g. an
    /// oversized newline-free line): drop the connection without a response.
    Dead,
}

/// A session in the transport's table. Sessions are keyed by id — not by
/// connection — so a session survives the death of the connection that
/// opened it: the entry is *orphaned* (owner cleared, linger clock started)
/// and a reconnecting client re-attaches with `resume` any time before the
/// linger expires.
struct SessionEntry {
    state: Arc<Mutex<MetaSegStream>>,
    /// The connection currently allowed to drive this session; `None`
    /// while orphaned.
    owner: Option<ConnId>,
    /// When the owning connection died (`None` while owned).
    orphaned_at: Option<Instant>,
}

/// The event loop: owns the listener, the poller and every connection slot.
pub(crate) struct Transport {
    listener: TcpListener,
    poll: Poll,
    waker: Arc<Waker>,
    shared: Arc<Shared>,
    shards: Arc<[Shard]>,
    completions: Receiver<Completion>,
    /// Connection slots, indexed by `token - FIRST_CONN`; freed slots are
    /// reused (with a fresh generation) before the table grows.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    /// Jobs handed to shards whose completions have not come back yet; the
    /// drain phase of shutdown ends when this reaches zero.
    outstanding: usize,
    /// Every open session, keyed by id (see [`SessionEntry`]).
    sessions: HashMap<u64, SessionEntry>,
    /// Min-heap of pending deadlines, lazily invalidated (see
    /// [`DeadlineEntry`]), swept once per poll tick.
    deadlines: BinaryHeap<Reverse<DeadlineEntry>>,
}

impl Transport {
    pub(crate) fn new(
        listener: TcpListener,
        poll: Poll,
        waker: Arc<Waker>,
        shared: Arc<Shared>,
        shards: Arc<[Shard]>,
        completions: Receiver<Completion>,
    ) -> Transport {
        Transport {
            listener,
            poll,
            waker,
            shared,
            shards,
            completions,
            conns: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
            outstanding: 0,
            sessions: HashMap::new(),
            deadlines: BinaryHeap::new(),
        }
    }

    /// Runs until shutdown: poll, dispatch, pump completions. After the
    /// shutdown flag is raised the loop stops accepting and reading but
    /// keeps pumping completions and flushing writes until every job handed
    /// to the shards has been answered — no accepted frame is ever silently
    /// dropped.
    pub(crate) fn run(mut self) {
        let mut events = Events::with_capacity(256);
        loop {
            let draining = self.shared.shutting_down.load(Ordering::SeqCst);
            if draining && self.outstanding == 0 {
                self.final_flush();
                return;
            }
            if let Err(e) = self.poll.poll(&mut events, Some(POLL_TIMEOUT)) {
                if !fatal_poll_error(&e) {
                    continue;
                }
                // A persistently failing poller cannot be recovered, and
                // retrying it would busy-spin the loop at poll-interval
                // cadence forever: drain the completion channel directly
                // (blocking — there is no poller left to multiplex with),
                // flush what can be flushed, and exit.
                self.drain_without_poller();
                return;
            }
            let mut touched: Vec<usize> = Vec::new();
            for event in &events {
                match event.token() {
                    Token(LISTENER) => {
                        if !draining {
                            self.accept_all();
                        }
                    }
                    Token(WAKER) => self.waker.drain(),
                    Token(token) => {
                        self.conn_event(token, event.is_readable(), event.is_writable(), draining);
                        touched.push(token);
                    }
                }
            }
            touched.extend(self.pump_completions());
            if !draining {
                self.enforce_deadlines();
            }
            touched.sort_unstable();
            touched.dedup();
            for token in touched {
                self.after_io(token);
            }
        }
    }

    /// Sweeps every expired deadline-heap entry: kills connections whose
    /// idle / mid-message deadline truly passed, reaps orphaned sessions
    /// whose linger ran out, and re-schedules entries whose underlying
    /// clock moved (activity since the entry was pushed).
    fn enforce_deadlines(&mut self) {
        let now = Instant::now();
        let config = self.shared.config;
        while let Some(&Reverse((at, kind, a, b))) = self.deadlines.peek() {
            if at > now {
                break;
            }
            self.deadlines.pop();
            match kind {
                DL_CONN => {
                    let token = a as usize;
                    let index = token - FIRST_CONN;
                    let Some(conn) = self.conns.get_mut(index).and_then(Option::as_mut) else {
                        continue;
                    };
                    if conn.id.generation != b {
                        continue;
                    }
                    match conn.effective_deadline(&config) {
                        Some(effective) if effective <= now => {
                            let conn = self.conns[index].take().expect("checked above");
                            self.shared.timed_out.fetch_add(1, Ordering::Relaxed);
                            self.teardown(conn);
                        }
                        Some(effective) => {
                            conn.scheduled_deadline = Some(effective);
                            self.deadlines.push(Reverse((effective, DL_CONN, a, b)));
                        }
                        None => conn.scheduled_deadline = None,
                    }
                }
                _ => {
                    let session = a;
                    let linger = Duration::from_millis(config.session_linger_ms);
                    let Some(entry) = self.sessions.get(&session) else {
                        continue;
                    };
                    // Re-owned since this entry was pushed: drop it; a new
                    // orphaning pushes a fresh entry.
                    let Some(orphaned_at) = entry.orphaned_at.filter(|_| entry.owner.is_none())
                    else {
                        continue;
                    };
                    if orphaned_at + linger <= now {
                        self.sessions.remove(&session);
                        self.shared.sessions_expired.fetch_add(1, Ordering::Relaxed);
                        self.shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
                    } else {
                        // Orphaned again later than this entry anticipated.
                        self.deadlines
                            .push(Reverse((orphaned_at + linger, DL_ORPHAN, session, 0)));
                    }
                }
            }
        }
    }

    /// Ensures a deadline-heap entry exists at (or before) the
    /// connection's effective deadline. O(1) when one already is — the
    /// common case on every read.
    fn arm_deadline(
        deadlines: &mut BinaryHeap<Reverse<DeadlineEntry>>,
        config: &ServerConfig,
        conn: &mut Conn,
    ) {
        if let Some(at) = conn.effective_deadline(config) {
            if conn
                .scheduled_deadline
                .is_none_or(|scheduled| at < scheduled)
            {
                conn.scheduled_deadline = Some(at);
                deadlines.push(Reverse((
                    at,
                    DL_CONN,
                    conn.id.token as u64,
                    conn.id.generation,
                )));
            }
        }
    }

    /// The completion-channel drain used when the poller has died: without
    /// a poller no new bytes can be read, but jobs already handed to the
    /// shards still complete; wait (bounded per job) for each so no
    /// accepted frame is silently dropped, then flush best-effort.
    fn drain_without_poller(&mut self) {
        while self.outstanding > 0 {
            match self.completions.recv_timeout(Duration::from_secs(5)) {
                Ok(completion) => {
                    self.outstanding = self.outstanding.saturating_sub(1);
                    self.apply_completion(completion);
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.final_flush();
    }

    /// Accepts until the listener would block. Transient errors (aborted
    /// handshakes) must not kill the server; the next readiness event
    /// retries. At [`ServerConfig::max_connections`] occupancy the server
    /// load-sheds instead of admitting: one typed `overloaded` line goes
    /// out best-effort and the socket is dropped, so a connection flood
    /// can never grow the slab, the poller set, or per-connection buffers.
    fn accept_all(&mut self) {
        let limit = self.shared.config.max_connections.max(1);
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    if self.conns.len() - self.free.len() >= limit {
                        self.shared.shed_connections.fetch_add(1, Ordering::Relaxed);
                        let mut line = overloaded_error(limit).encode();
                        line.push('\n');
                        let _ = stream.write_all(line.as_bytes());
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let index = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    let token = index + FIRST_CONN;
                    if self
                        .poll
                        .register(&stream, Token(token), Interest::READABLE)
                        .is_err()
                    {
                        self.free.push(index);
                        continue;
                    }
                    self.next_generation += 1;
                    let id = ConnId {
                        token,
                        generation: self.next_generation,
                    };
                    self.shared.connections.fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .active_connections
                        .fetch_add(1, Ordering::Relaxed);
                    let mut conn = Conn::new(stream, id);
                    Self::arm_deadline(&mut self.deadlines, &self.shared.config, &mut conn);
                    self.conns[index] = Some(conn);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, token: usize, readable: bool, writable: bool, draining: bool) {
        let index = token - FIRST_CONN;
        let Some(mut conn) = self.conns.get_mut(index).and_then(Option::take) else {
            return;
        };
        let mut alive = true;
        if writable && conn.write_pending().is_err() {
            alive = false;
        }
        if alive && readable && !draining && !conn.closing {
            alive = self.drive_read(&mut conn) == ReadOutcome::Alive;
        }
        if alive {
            Self::arm_deadline(&mut self.deadlines, &self.shared.config, &mut conn);
            self.conns[index] = Some(conn);
        } else {
            self.teardown(conn);
        }
    }

    /// Reads until the socket would block, feeding the parse state machine
    /// after every chunk. A binary payload is read from the socket straight
    /// into its own buffer, never past its end; every other byte arrives
    /// through the input buffer.
    fn drive_read(&mut self, conn: &mut Conn) -> ReadOutcome {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            let (arrived, result) = match &mut conn.read_state {
                // `take` stops the read at the payload's end, and std reads
                // into the reserved capacity without zeroing it first.
                ReadState::BinaryPayload {
                    payload, needed, ..
                } => {
                    let before = payload.len();
                    let missing = (*needed - before) as u64;
                    let result = (&mut conn.stream).take(missing).read_to_end(payload);
                    (payload.len() - before, result.map(|_| ()))
                }
                _ => match conn.stream.read(&mut scratch) {
                    Ok(count) => {
                        conn.inbuf.extend(&scratch[..count]);
                        (count, Ok(()))
                    }
                    Err(e) => (0, Err(e)),
                },
            };
            if arrived > 0 {
                conn.last_activity = Instant::now();
            }
            match result {
                // End of stream, here or in mid-payload.
                Ok(()) if arrived == 0 => return ReadOutcome::Dead,
                Ok(()) => {
                    if self.parse_messages(conn) == ReadOutcome::Dead {
                        return ReadOutcome::Dead;
                    }
                    if conn.closing {
                        return ReadOutcome::Alive;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return ReadOutcome::Alive,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Dead,
            }
        }
    }

    /// Consumes every complete message currently buffered.
    fn parse_messages(&mut self, conn: &mut Conn) -> ReadOutcome {
        loop {
            if conn.closing {
                return ReadOutcome::Alive;
            }
            match conn.read_state {
                ReadState::Route => {
                    let buffered = conn.inbuf.as_slice();
                    let Some(&first) = buffered.first() else {
                        return ReadOutcome::Alive;
                    };
                    if first == BINARY_FRAME_MAGIC {
                        if buffered.len() < BINARY_HEADER_LEN {
                            return ReadOutcome::Alive;
                        }
                        self.route_binary_header(conn);
                    } else {
                        match conn.inbuf.find_newline() {
                            Some(position) => {
                                let line = conn.inbuf.take(position + 1);
                                self.handle_line(conn, line);
                            }
                            None => {
                                // The transport-level analogue of the JSON
                                // parser's nesting-depth cap: a peer that
                                // never sends a newline must not grow server
                                // memory without bound. No response — there
                                // is no parseable request to answer.
                                if conn.inbuf.len() > self.shared.config.max_line_bytes {
                                    return ReadOutcome::Dead;
                                }
                                return ReadOutcome::Alive;
                            }
                        }
                    }
                }
                ReadState::BinaryPayload {
                    header,
                    ref mut payload,
                    needed,
                } => {
                    // Bytes that arrived behind the header move in once;
                    // `drive_read` reads the rest straight into the payload.
                    let moved = (needed - payload.len()).min(conn.inbuf.len());
                    payload.extend_from_slice(&conn.inbuf.as_slice()[..moved]);
                    conn.inbuf.consume(moved);
                    if payload.len() < needed {
                        return ReadOutcome::Alive;
                    }
                    let payload = std::mem::take(payload);
                    conn.read_state = ReadState::Route;
                    self.submit_payload(conn, header, payload);
                }
                ReadState::BinarySkip { remaining } => {
                    let discard = remaining.min(conn.inbuf.len());
                    conn.inbuf.consume(discard);
                    let remaining = remaining - discard;
                    if remaining > 0 {
                        conn.read_state = ReadState::BinarySkip { remaining };
                        return ReadOutcome::Alive;
                    }
                    conn.read_state = ReadState::Route;
                }
            }
        }
    }

    /// Routes a buffered 36-byte binary header: a valid header either
    /// reserves its payload buffer or (for a frame doomed regardless of its
    /// contents — binary framing not negotiated, or an unknown session id)
    /// slots the typed rejection and discards the payload without ever
    /// buffering it for decode. An invalid header is answered and skipped by
    /// its declared length when that is bounded; otherwise, or when the
    /// payload buffer cannot be reserved, the connection is answered and
    /// closed (reading an unbounded payload would defeat the memory cap, and
    /// skipping terabytes is indistinguishable from a hung connection).
    fn route_binary_header(&mut self, conn: &mut Conn) {
        let mut header_bytes = [0u8; BINARY_HEADER_LEN];
        header_bytes.copy_from_slice(&conn.inbuf.as_slice()[..BINARY_HEADER_LEN]);
        conn.inbuf.consume(BINARY_HEADER_LEN);
        let cap = self.shared.config.max_line_bytes as u64;
        let validated = BinaryFrameHeader::parse(&header_bytes)
            .and_then(|header| header.checked_payload_len(cap).map(|len| (header, len)));
        match validated {
            Ok((header, payload_len)) => {
                let rejection = if !conn.binary_frames {
                    Some(bad_request(
                        "binary framing was not negotiated on this connection \
                         (send the negotiate op first)",
                    ))
                } else if self.owned_state(conn, header.session).is_none() {
                    Some(unknown_session_error(header.session))
                } else {
                    None
                };
                match rejection {
                    Some(response) => {
                        let seq = conn.alloc_slot();
                        conn.fill(seq, response);
                        conn.read_state = ReadState::BinarySkip {
                            remaining: payload_len,
                        };
                    }
                    None => {
                        // Reserved, not written: resident memory still
                        // grows only with the bytes received.
                        let mut payload = Vec::new();
                        if payload.try_reserve_exact(payload_len).is_ok() {
                            conn.read_state = ReadState::BinaryPayload {
                                header,
                                payload,
                                needed: payload_len,
                            };
                        } else {
                            let seq = conn.alloc_slot();
                            conn.fill(
                                seq,
                                bad_request(format!(
                                    "cannot allocate the declared {payload_len}-byte payload"
                                )),
                            );
                            conn.closing = true;
                        }
                    }
                }
            }
            Err(e) => {
                let seq = conn.alloc_slot();
                conn.fill(seq, bad_request(e));
                // The declared length sits at a fixed offset whatever else
                // is wrong with the header; use it to resynchronise if it
                // is bounded.
                let declared = wire::declared_payload_len(&header_bytes);
                if declared <= cap {
                    conn.read_state = ReadState::BinarySkip {
                        remaining: declared as usize,
                    };
                } else {
                    conn.closing = true;
                }
            }
        }
    }

    /// Checks a complete binary payload against its header and submits it.
    /// The shard gets the bytes as they came off the socket: dequantization
    /// happens in the worker, straight into the session's extraction
    /// scratch.
    fn submit_payload(&mut self, conn: &mut Conn, header: BinaryFrameHeader, payload: Vec<u8>) {
        let seq = conn.alloc_slot();
        let response = match header.verified_payload(payload) {
            Ok(payload) => {
                self.shared.binary_frames.fetch_add(1, Ordering::Relaxed);
                self.submit_frame(
                    conn,
                    seq,
                    header.session,
                    JobPayload::Encoded {
                        payload,
                        dispersion: conn.dispersion,
                    },
                )
            }
            Err(e) => Some(bad_request(e)),
        };
        if let Some(response) = response {
            conn.fill(seq, response);
        }
    }

    /// Handles one JSON request line (trailing newline included). A
    /// canonical frame line goes to its shard undecoded when
    /// [`Transport::offer_line`] takes it; every other line is decoded and
    /// answered here.
    fn handle_line(&mut self, conn: &mut Conn, line: Vec<u8>) {
        let seq = conn.alloc_slot();
        let line = match canonical_frame_session(&line) {
            Some(session) => match self.offer_line(conn, seq, session, line) {
                Ok(()) => return,
                Err(line) => line,
            },
            None => line,
        };
        let response = match decode_line(&line) {
            Ok(request) => self.handle_request(conn, seq, request),
            Err(response) => Some(response),
        };
        if let Some(response) = response {
            conn.fill(seq, response);
        }
    }

    /// Hands a canonical frame line to its session's shard undecoded, when
    /// the decoded frame would get there too: the server is not shutting
    /// down, this connection owns the session and the shard has room. The
    /// worker then runs the checks [`Transport::handle_line`] would. Any
    /// other time the line comes back and is answered inline, as any frame
    /// line is: `bad-request` when it does not decode, else `shutting-down`,
    /// `unknown-session` or `backpressure`.
    fn offer_line(
        &mut self,
        conn: &Conn,
        seq: u64,
        session: u64,
        line: Vec<u8>,
    ) -> Result<(), Vec<u8>> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return Err(line);
        }
        let Some(state) = self.owned_state(conn, session) else {
            return Err(line);
        };
        let job = Job {
            session_id: session,
            session: state,
            kind: JobKind::Frame(JobPayload::Line(line)),
            conn: conn.id,
            seq,
        };
        match self.shard_for(session).offer_frame(job) {
            Ok(()) => {
                self.outstanding += 1;
                Ok(())
            }
            Err(Job {
                kind: JobKind::Frame(JobPayload::Line(line)),
                ..
            }) => Err(line),
            Err(_) => unreachable!("a refused offer hands back the job it was given"),
        }
    }

    /// Executes one decoded request. `Some` is an immediate response for the
    /// allocated slot; `None` means the slot will be filled by a shard
    /// completion.
    fn handle_request(&mut self, conn: &mut Conn, seq: u64, request: Request) -> Option<Response> {
        match request {
            Request::Ping => Some(Response::Pong),
            Request::Negotiate { format, dispersion } => {
                // Binary framing is a per-connection capability switch;
                // control operations and responses stay JSON lines either
                // way. The payload encoding of each binary frame is
                // self-describing, so the server only needs to remember
                // "binary allowed". The dispersion precision applies to
                // binary frames only: a JSON frame decodes to an f64 field
                // and always scans at f64, so that is what a JSON
                // negotiation confirms.
                conn.binary_frames = matches!(format, FrameFormat::Binary(_));
                conn.dispersion = if conn.binary_frames {
                    dispersion
                } else {
                    DispersionPrecision::F64
                };
                Some(Response::Negotiated {
                    format,
                    dispersion: conn.dispersion,
                })
            }
            Request::Open { model, .. } => {
                if self.shared.shutting_down.load(Ordering::SeqCst) {
                    return Some(shutting_down_error());
                }
                let Some(entry) = self.shared.registry.get(&model) else {
                    return Some(Response::Error {
                        code: ErrorCode::UnknownModel,
                        message: format!("no model named `{model}` is registered"),
                    });
                };
                let engine = entry.open_stream();
                let series_length = engine.series_length();
                let session = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
                self.sessions.insert(
                    session,
                    SessionEntry {
                        state: Arc::new(Mutex::new(engine)),
                        owner: Some(conn.id),
                        orphaned_at: None,
                    },
                );
                conn.sessions.insert(session);
                self.shared.sessions_opened.fetch_add(1, Ordering::Relaxed);
                self.shared.open_sessions.fetch_add(1, Ordering::Relaxed);
                Some(Response::Opened {
                    session,
                    series_length,
                })
            }
            Request::Resume { session } => {
                if self.shared.shutting_down.load(Ordering::SeqCst) {
                    return Some(shutting_down_error());
                }
                let Some(entry) = self.sessions.get_mut(&session) else {
                    return Some(unknown_session_error(session));
                };
                // A session owned by another *live* connection is not up
                // for grabs; only orphaned sessions (and the owner itself,
                // idempotently) can be re-attached.
                if entry.owner.is_some_and(|owner| owner != conn.id) {
                    return Some(unknown_session_error(session));
                }
                entry.owner = Some(conn.id);
                entry.orphaned_at = None;
                let state = Arc::clone(&entry.state);
                conn.sessions.insert(session);
                self.shared.sessions_resumed.fetch_add(1, Ordering::Relaxed);
                // The frames-applied count must be authoritative with
                // respect to any frame of this session still in flight on
                // the shard, so it is answered by the shard worker through
                // the same FIFO rather than inline here.
                let job = Job {
                    session_id: session,
                    session: state,
                    kind: JobKind::Resume,
                    conn: conn.id,
                    seq,
                };
                if self.shard_for(session).submit_control(job) {
                    self.outstanding += 1;
                    None
                } else {
                    Some(shutting_down_error())
                }
            }
            Request::Frame { session, probs } => {
                self.submit_frame(conn, seq, session, JobPayload::Decoded(probs))
            }
            Request::Stats { session } => self.submit_control(conn, seq, session, JobKind::Stats),
            Request::Close { session } => {
                // Evict first so later requests get the honest
                // unknown-session answer even while the final counters are
                // still in flight on the shard.
                match self.owned_state(conn, session) {
                    Some(state) => {
                        conn.sessions.remove(&session);
                        self.sessions.remove(&session);
                        self.shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
                        let shard = self.shard_for(session);
                        let job = Job {
                            session_id: session,
                            session: state,
                            kind: JobKind::Close,
                            conn: conn.id,
                            seq,
                        };
                        if shard.submit_control(job) {
                            self.outstanding += 1;
                            None
                        } else {
                            Some(shutting_down_error())
                        }
                    }
                    None => Some(unknown_session_error(session)),
                }
            }
        }
    }

    /// The session state `conn` may operate on under id `session`: present
    /// only when the session exists *and* this connection owns it. A
    /// session orphaned or owned elsewhere answers as unknown — ownership
    /// is transferred explicitly by `resume`, never implicitly by use.
    fn owned_state(&self, conn: &Conn, session: u64) -> Option<Arc<Mutex<MetaSegStream>>> {
        self.sessions
            .get(&session)
            .filter(|entry| entry.owner == Some(conn.id))
            .map(|entry| Arc::clone(&entry.state))
    }

    fn shard_for(&self, session: u64) -> &Shard {
        &self.shards[(session % self.shards.len() as u64) as usize]
    }

    /// Submits one frame payload to the session's shard — the shared tail of
    /// the inline JSON and the binary submission paths.
    fn submit_frame(
        &mut self,
        conn: &mut Conn,
        seq: u64,
        session: u64,
        payload: JobPayload,
    ) -> Option<Response> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return Some(shutting_down_error());
        }
        let Some(state) = self.owned_state(conn, session) else {
            return Some(unknown_session_error(session));
        };
        if let JobPayload::Decoded(probs) = &payload {
            if let Err(response) = check_probs(probs) {
                return Some(response);
            }
        }
        let job = Job {
            session_id: session,
            session: state,
            kind: JobKind::Frame(payload),
            conn: conn.id,
            seq,
        };
        if self.shard_for(session).submit_frame(job) {
            self.outstanding += 1;
            None
        } else {
            Some(Response::Error {
                code: ErrorCode::Backpressure,
                message: format!(
                    "inference queue is full ({} jobs); retry after backing off",
                    self.shared.config.queue_depth.max(1)
                ),
            })
        }
    }

    /// Submits a `stats`-style control job, answering inline when the
    /// session is unknown.
    fn submit_control(
        &mut self,
        conn: &mut Conn,
        seq: u64,
        session: u64,
        kind: JobKind,
    ) -> Option<Response> {
        let Some(state) = self.owned_state(conn, session) else {
            return Some(unknown_session_error(session));
        };
        let job = Job {
            session_id: session,
            session: state,
            kind,
            conn: conn.id,
            seq,
        };
        if self.shard_for(session).submit_control(job) {
            self.outstanding += 1;
            None
        } else {
            Some(shutting_down_error())
        }
    }

    /// Drains the completion channel into connection response slots,
    /// returning the tokens that received something. Completions for
    /// connections that died in flight (or whose slot was reused — the
    /// generation check) are dropped after the accounting.
    fn pump_completions(&mut self) -> Vec<usize> {
        let mut touched = Vec::new();
        while let Ok(completion) = self.completions.try_recv() {
            self.outstanding = self.outstanding.saturating_sub(1);
            if let Some(token) = self.apply_completion(completion) {
                touched.push(token);
            }
        }
        touched
    }

    /// Slots one completion into its connection (generation-checked) and
    /// applies any eviction it carries to both the connection's session set
    /// and the transport's session table. Returns the touched token, if the
    /// connection is still the one that submitted the job.
    fn apply_completion(&mut self, completion: Completion) -> Option<usize> {
        if let Some(session) = completion.evict {
            if self
                .sessions
                .get(&session)
                .is_some_and(|entry| entry.owner == Some(completion.conn))
            {
                self.sessions.remove(&session);
                self.shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let index = completion.conn.token - FIRST_CONN;
        let conn = self.conns.get_mut(index).and_then(Option::as_mut)?;
        if conn.id != completion.conn {
            return None;
        }
        if let Some(session) = completion.evict {
            conn.sessions.remove(&session);
        }
        conn.fill(completion.seq, completion.response);
        Some(completion.conn.token)
    }

    /// Post-I/O bookkeeping for one connection: move ready responses to the
    /// output buffer, push bytes, settle write interest, and finish a
    /// deferred close once everything has been said.
    fn after_io(&mut self, token: usize) {
        let index = token - FIRST_CONN;
        let Some(mut conn) = self.conns.get_mut(index).and_then(Option::take) else {
            return;
        };
        conn.flush_ready();
        if conn.write_pending().is_err() || conn.finished_closing() {
            self.teardown(conn);
            return;
        }
        // Slow-consumer eviction: a peer that stops reading while responses
        // pile up past the cap loses its connection — the backlog it
        // refuses to drain must not grow server memory without bound.
        let cap = self.shared.config.max_outbuf_bytes;
        if cap > 0 && conn.out_len() > cap {
            self.shared.evicted_slow.fetch_add(1, Ordering::Relaxed);
            self.teardown(conn);
            return;
        }
        // A connection whose in-flight responses just drained re-enters
        // "idle" — make sure an idle deadline is armed for it.
        Self::arm_deadline(&mut self.deadlines, &self.shared.config, &mut conn);
        let want_write = conn.out_len() > 0;
        if want_write != conn.write_interest {
            conn.write_interest = want_write;
            let interest = if want_write {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            let _ = self.poll.reregister(&conn.stream, Token(token), interest);
        }
        self.conns[index] = Some(conn);
    }

    /// Releases a connection: deregister, free the slot (its generation is
    /// retired, so in-flight completions for it are dropped on receipt) and
    /// drop the socket. Sessions the connection owned are *orphaned* — left
    /// in the session table with a linger clock running so a reconnecting
    /// client can `resume` them — unless lingering is disabled, in which
    /// case they are reaped here.
    fn teardown(&mut self, conn: Conn) {
        let _ = self.poll.deregister(&conn.stream);
        self.free.push(conn.id.token - FIRST_CONN);
        self.shared
            .active_connections
            .fetch_sub(1, Ordering::Relaxed);
        let linger_ms = self.shared.config.session_linger_ms;
        let now = Instant::now();
        for session in conn.sessions {
            let Some(entry) = self.sessions.get_mut(&session) else {
                continue;
            };
            if entry.owner != Some(conn.id) {
                continue;
            }
            if linger_ms == 0 {
                self.sessions.remove(&session);
                self.shared.sessions_expired.fetch_add(1, Ordering::Relaxed);
                self.shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
            } else {
                entry.owner = None;
                entry.orphaned_at = Some(now);
                self.deadlines.push(Reverse((
                    now + Duration::from_millis(linger_ms),
                    DL_ORPHAN,
                    session,
                    0,
                )));
            }
        }
    }

    /// One best-effort flush of every connection on the way out: shutdown
    /// has drained all outstanding jobs, so anything still buffered is a
    /// complete response that the peer may be waiting on.
    fn final_flush(&mut self) {
        for slot in &mut self.conns {
            if let Some(conn) = slot.as_mut() {
                conn.flush_ready();
                let _ = conn.write_pending();
            }
        }
    }
}

/// Whether a surfaced poll failure is unrecoverable. The vendored poller
/// already swallows `EINTR` internally (a signal-interrupted wait reports
/// as an empty timeout), so anything that still surfaces here — `EBADF` /
/// `EINVAL` from a broken epoll fd, resource exhaustion — is persistent:
/// the same call will fail the same way on the next iteration, and treating
/// it as transient busy-spins the event loop at poll-interval cadence
/// forever. The `Interrupted` check is defensive belt-and-braces for any
/// future poller that does surface it.
fn fatal_poll_error(e: &io::Error) -> bool {
    e.kind() != ErrorKind::Interrupted
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Regression test for the poll-error branch: a persistent poller
    /// failure must classify as fatal (drain and exit the loop) — it used
    /// to be retried unconditionally, busy-spinning the transport thread —
    /// while a genuine `EINTR`, should a poller ever surface one, must
    /// stay non-fatal.
    #[test]
    fn persistent_poll_errors_are_fatal_and_eintr_is_not() {
        for kind in [
            ErrorKind::InvalidInput,
            ErrorKind::NotFound,
            ErrorKind::OutOfMemory,
            ErrorKind::Other,
        ] {
            assert!(fatal_poll_error(&io::Error::new(kind, "persistent")));
        }
        assert!(!fatal_poll_error(&io::Error::new(
            ErrorKind::Interrupted,
            "signal"
        )));
    }

    #[test]
    fn newline_search_resumes_where_the_last_one_stopped() {
        let mut buf = ByteBuf::new();
        buf.extend(b"{\"op\":");
        assert_eq!(buf.find_newline(), None);
        assert_eq!(buf.scanned, 6);
        buf.extend(b"\"ping\"}\n{\"op\"");
        assert_eq!(buf.find_newline(), Some(13));
        assert_eq!(buf.take(14), b"{\"op\":\"ping\"}\n");
        // Taking the line forgets the scanned prefix it covered.
        assert_eq!(buf.scanned, 0);
        assert_eq!(buf.find_newline(), None);
        assert_eq!(buf.scanned, 5);
        buf.extend(b":\"ping\"}\n");
        assert_eq!(buf.find_newline(), Some(13));
    }

    proptest! {
        #[test]
        fn prop_newline_search_finds_what_a_bytewise_scan_finds(
            bytes in proptest::collection::vec((0u32..8, 0u8..=255), 0..600),
            reads in proptest::collection::vec(1usize..80, 1..40)
        ) {
            // One byte in eight a newline, so lines of every length occur.
            let bytes: Vec<u8> = bytes
                .iter()
                .map(|&(kind, byte)| if kind == 0 { b'\n' } else { byte })
                .collect();
            let mut buf = ByteBuf::new();
            let mut fed = 0;
            // Feed the bytes in reads of the drawn sizes, cycling through
            // them, and take every complete line after each read.
            for &read in reads.iter().cycle() {
                if fed == bytes.len() {
                    break;
                }
                let end = (fed + read).min(bytes.len());
                buf.extend(&bytes[fed..end]);
                fed = end;
                loop {
                    let expected = buf.as_slice().iter().position(|&b| b == b'\n');
                    let found = buf.find_newline();
                    prop_assert_eq!(found, expected);
                    match found {
                        Some(offset) => {
                            buf.take(offset + 1);
                        }
                        None => {
                            prop_assert_eq!(buf.scanned, buf.len());
                            break;
                        }
                    }
                }
            }
        }
    }
}
