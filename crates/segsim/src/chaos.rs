//! Byte-level TCP fault injection for the serving layer.
//!
//! [`ChaosProxy`] is an in-process TCP proxy that sits between a client and
//! an upstream server and mangles the byte streams according to a seeded,
//! composable [`FaultPlan`]: trickle delivery (1-byte writes), slow-loris
//! stalls, abrupt mid-frame cuts, half-closes, duplicated bytes and garbage
//! preludes. It exists to prove the serve crate's defenses — read deadlines,
//! load shedding, slow-consumer eviction, client reconnect-and-resume —
//! against transport faults rather than content degradation (which
//! [`ScenarioSuite`](crate::ScenarioSuite) already covers).
//!
//! Faults are deterministic for a fixed `(plan, seed)` pair up to thread
//! scheduling: each accepted connection derives its per-direction fault
//! offsets from the proxy seed and a global connection counter. Plans with
//! [`FaultPlan::decay`] enabled double their fault-free windows on every
//! subsequent connection, which guarantees liveness for a
//! reconnect-and-resume client: retries land on progressively cleaner links
//! until every in-flight session completes.
//!
//! Corrupting faults (duplicated bytes, garbage preludes) are only injected
//! client→server, where checksummed binary framing rejects them; injecting
//! them server→client could silently rewrite a *valid* response into a
//! different valid response, which would make a differential harness blame
//! the server for the proxy's forgery.

use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How long shuttle threads sleep between polls of a quiet socket; bounds
/// how quickly they observe shutdown and peer-death flags.
const POLL_TICK: Duration = Duration::from_millis(10);

/// Upper bound on the decay shift so `1 << shift` cannot overflow.
const MAX_DECAY_SHIFT: u64 = 20;

/// A composable, seeded description of the faults to inject on every
/// connection through a [`ChaosProxy`].
///
/// All byte thresholds count per direction from the start of the
/// connection; `None`/`0` disables the corresponding fault. Use the named
/// constructors ([`FaultPlan::trickle`], [`FaultPlan::torn`], …) for the
/// standard suite, or build a custom plan from [`FaultPlan::benign`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Name of the plan, used in reports and `--plan` selection.
    pub name: &'static str,
    /// Forward at most this many bytes per write (1 = maximal
    /// fragmentation); `None` forwards whole chunks.
    pub trickle: Option<usize>,
    /// Stall (stop forwarding, keep the socket open) for
    /// [`FaultPlan::stall_for`] roughly every this many bytes.
    pub stall_every: Option<u64>,
    /// Duration of each slow-loris stall.
    pub stall_for: Duration,
    /// Abruptly kill the connection (both directions) after roughly this
    /// many bytes.
    pub cut_after: Option<u64>,
    /// Half-close the client→server direction after roughly this many
    /// bytes; responses keep flowing.
    pub half_close_after: Option<u64>,
    /// Duplicate one in-stream byte roughly every this many bytes
    /// (client→server only).
    pub duplicate_every: Option<u64>,
    /// Prepend this many random garbage bytes before the first real
    /// client→server byte of every connection.
    pub garbage_prelude: usize,
    /// Double every fault-free window on each subsequent connection, so a
    /// reconnecting client eventually sees a clean-enough link. Required
    /// for liveness under plans that kill connections.
    pub decay: bool,
}

impl FaultPlan {
    /// A passthrough plan: no faults at all.
    pub fn benign() -> Self {
        FaultPlan {
            name: "benign",
            trickle: None,
            stall_every: None,
            stall_for: Duration::ZERO,
            cut_after: None,
            half_close_after: None,
            duplicate_every: None,
            garbage_prelude: 0,
            decay: false,
        }
    }

    /// Maximal fragmentation: every byte crosses the wire as its own write.
    pub fn trickle() -> Self {
        FaultPlan {
            name: "trickle",
            trickle: Some(1),
            ..FaultPlan::benign()
        }
    }

    /// Torn wire frames: the connection dies abruptly mid-frame, early
    /// enough that the first attempts never complete a full payload.
    pub fn torn() -> Self {
        FaultPlan {
            name: "torn",
            cut_after: Some(16 * 1024),
            decay: true,
            ..FaultPlan::benign()
        }
    }

    /// Slow-loris: delivery stalls long enough to trip a mid-frame read
    /// deadline, then the client must reconnect and resume.
    pub fn stall() -> Self {
        FaultPlan {
            name: "stall",
            stall_every: Some(24 * 1024),
            stall_for: Duration::from_millis(2_200),
            decay: true,
            ..FaultPlan::benign()
        }
    }

    /// Duplicated bytes: an extra copy of an in-stream byte is inserted
    /// client→server, desynchronising unchecksummed framing.
    pub fn duplicate() -> Self {
        FaultPlan {
            name: "duplicate",
            duplicate_every: Some(12 * 1024),
            decay: true,
            ..FaultPlan::benign()
        }
    }

    /// Garbage prelude: random bytes arrive before the first real request
    /// of every connection.
    pub fn garbage() -> Self {
        FaultPlan {
            name: "garbage",
            garbage_prelude: 7,
            decay: true,
            ..FaultPlan::benign()
        }
    }

    /// Abrupt resets: like [`FaultPlan::torn`] but earlier and harsher.
    pub fn reset() -> Self {
        FaultPlan {
            name: "reset",
            cut_after: Some(10 * 1024),
            decay: true,
            ..FaultPlan::benign()
        }
    }

    /// Half-close: the client→server direction shuts down mid-stream while
    /// responses keep flowing.
    fn half_close() -> Self {
        FaultPlan {
            name: "half-close",
            half_close_after: Some(20 * 1024),
            decay: true,
            ..FaultPlan::benign()
        }
    }

    /// Everything at once: short stalls, cuts, duplicated bytes and
    /// garbage preludes layered on the same link.
    fn mayhem() -> Self {
        FaultPlan {
            name: "mayhem",
            stall_every: Some(96 * 1024),
            stall_for: Duration::from_millis(300),
            cut_after: Some(40 * 1024),
            duplicate_every: Some(32 * 1024),
            garbage_prelude: 5,
            decay: true,
            ..FaultPlan::benign()
        }
    }

    /// The full named suite, in escalation order.
    pub fn suite() -> Vec<FaultPlan> {
        vec![
            FaultPlan::benign(),
            FaultPlan::trickle(),
            FaultPlan::torn(),
            FaultPlan::stall(),
            FaultPlan::duplicate(),
            FaultPlan::garbage(),
            FaultPlan::reset(),
            FaultPlan::half_close(),
            FaultPlan::mayhem(),
        ]
    }

    /// Looks a plan up by its [`FaultPlan::name`].
    pub fn named(name: &str) -> Option<FaultPlan> {
        FaultPlan::suite().into_iter().find(|p| p.name == name)
    }

    /// Concrete per-direction fault offsets for the `attempt`-th accepted
    /// connection (jittered from `seed`, windows scaled by decay).
    fn realize(&self, attempt: u64, seed: u64, direction: Direction) -> DirectionFaults {
        let shift = if self.decay {
            attempt.min(MAX_DECAY_SHIFT)
        } else {
            0
        };
        let scale = 1u64 << shift;
        let mut rng = StdRng::seed_from_u64(
            seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ direction as u64,
        );
        let mut at = |base: Option<u64>| {
            base.map(|b| {
                let b = b.max(1);
                b.saturating_mul(scale)
                    .saturating_add(rng.gen_range(0..=b / 2))
            })
        };
        let stall_step = self.stall_every.unwrap_or(0).saturating_mul(scale).max(1);
        let duplicate_step = self
            .duplicate_every
            .unwrap_or(0)
            .saturating_mul(scale)
            .max(1);
        let corrupting = direction == Direction::Upstream;
        DirectionFaults {
            trickle: self.trickle,
            stall_for: self.stall_for,
            next_stall: at(self.stall_every),
            stall_step,
            next_duplicate: if corrupting {
                at(self.duplicate_every)
            } else {
                None
            },
            duplicate_step,
            cut_at: at(self.cut_after),
            half_close_at: if corrupting {
                at(self.half_close_after)
            } else {
                None
            },
            garbage: if corrupting {
                if self.decay {
                    self.garbage_prelude >> shift.min(usize::BITS as u64 - 1)
                } else {
                    self.garbage_prelude
                }
            } else {
                0
            },
            offset: 0,
            rng,
        }
    }
}

/// Which way bytes flow through a shuttle thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// client → server (carries requests; the corrupting direction).
    Upstream = 0,
    /// server → client (carries responses; never corrupted).
    Downstream = 1,
}

/// What a shuttle decided about its link after forwarding a chunk.
enum LinkState {
    Open,
    Cut,
    HalfClosed,
}

/// Realized fault offsets of one proxied direction.
struct DirectionFaults {
    trickle: Option<usize>,
    stall_for: Duration,
    next_stall: Option<u64>,
    stall_step: u64,
    next_duplicate: Option<u64>,
    duplicate_step: u64,
    cut_at: Option<u64>,
    half_close_at: Option<u64>,
    garbage: usize,
    offset: u64,
    rng: StdRng,
}

impl DirectionFaults {
    /// Sleeps for [`stall_for`](FaultPlan::stall_for) in small increments,
    /// bailing early when the proxy stops or the link dies.
    fn stall(&self, stop: &AtomicBool, dead: &AtomicBool) {
        let mut left = self.stall_for;
        while !left.is_zero() && !stop.load(Ordering::Relaxed) && !dead.load(Ordering::Relaxed) {
            let step = left.min(Duration::from_millis(50));
            thread::sleep(step);
            left -= step;
        }
    }

    /// Forwards `data` to `dst`, applying trickle, stalls, duplication and
    /// termination faults at their realized byte offsets.
    fn forward(
        &mut self,
        dst: &mut TcpStream,
        data: &[u8],
        counters: &ChaosCounters,
        stop: &AtomicBool,
        dead: &AtomicBool,
    ) -> io::Result<LinkState> {
        let mut i = 0;
        while i < data.len() {
            if stop.load(Ordering::Relaxed) || dead.load(Ordering::Relaxed) {
                return Ok(LinkState::Cut);
            }
            if self.cut_at.is_some_and(|cut| self.offset >= cut) {
                counters.cuts.fetch_add(1, Ordering::Relaxed);
                return Ok(LinkState::Cut);
            }
            if self.half_close_at.is_some_and(|hc| self.offset >= hc) {
                counters.half_closes.fetch_add(1, Ordering::Relaxed);
                return Ok(LinkState::HalfClosed);
            }
            if let Some(stall) = self.next_stall {
                if self.offset >= stall {
                    counters.stalls.fetch_add(1, Ordering::Relaxed);
                    self.stall(stop, dead);
                    self.next_stall = Some(stall.saturating_add(self.stall_step));
                }
            }
            let mut take = data.len() - i;
            if let Some(t) = self.trickle {
                take = take.min(t.max(1));
            }
            // Clip the chunk to the next fault boundary so every fault
            // lands at its exact realized offset.
            for boundary in [
                self.cut_at,
                self.half_close_at,
                self.next_stall,
                self.next_duplicate,
            ]
            .into_iter()
            .flatten()
            {
                if boundary > self.offset {
                    take = take.min((boundary - self.offset) as usize);
                }
            }
            let duplicate = self.next_duplicate.is_some_and(|d| d == self.offset);
            dst.write_all(&data[i..i + take])?;
            if duplicate {
                dst.write_all(&data[i..=i])?;
                counters.duplicated_bytes.fetch_add(1, Ordering::Relaxed);
                self.next_duplicate = Some(self.offset.saturating_add(self.duplicate_step));
            }
            self.offset += take as u64;
            i += take;
        }
        Ok(LinkState::Open)
    }
}

/// Fault counters shared across all connections of one proxy.
#[derive(Default)]
struct ChaosCounters {
    connections: AtomicU64,
    upstream_bytes: AtomicU64,
    downstream_bytes: AtomicU64,
    cuts: AtomicU64,
    half_closes: AtomicU64,
    stalls: AtomicU64,
    duplicated_bytes: AtomicU64,
    garbage_bytes: AtomicU64,
}

/// A point-in-time snapshot of everything a [`ChaosProxy`] did to the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosStats {
    /// Connections accepted from clients.
    pub connections: u64,
    /// Real client→server bytes received from clients (garbage excluded).
    pub upstream_bytes: u64,
    /// Server→client bytes received from the upstream server.
    pub downstream_bytes: u64,
    /// Abrupt full-connection kills injected.
    pub cuts: u64,
    /// Client→server half-closes injected.
    pub half_closes: u64,
    /// Slow-loris stalls injected.
    pub stalls: u64,
    /// Extra duplicated bytes inserted client→server.
    pub duplicated_bytes: u64,
    /// Garbage prelude bytes inserted client→server.
    pub garbage_bytes: u64,
}

/// An in-process TCP fault proxy: accepts connections on an ephemeral local
/// port, connects each to `upstream`, and shuttles bytes through a
/// [`FaultPlan`].
///
/// ```no_run
/// use metaseg_sim::{ChaosProxy, FaultPlan};
///
/// let upstream = "127.0.0.1:9000".parse().unwrap();
/// let proxy = ChaosProxy::spawn(upstream, FaultPlan::trickle(), 42).unwrap();
/// let addr = proxy.local_addr(); // point the client here instead
/// // ... run traffic ...
/// proxy.shutdown();
/// ```
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<ChaosCounters>,
    acceptor: Option<JoinHandle<()>>,
    links: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ChaosProxy {
    /// Starts the proxy in front of `upstream` under `plan`, faults seeded
    /// from `seed`.
    pub fn spawn(upstream: SocketAddr, plan: FaultPlan, seed: u64) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ChaosCounters::default());
        let links: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let acceptor = {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let links = Arc::clone(&links);
            thread::Builder::new()
                .name("chaos-acceptor".into())
                .spawn(move || {
                    let mut attempt: u64 = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let (client, _) = match listener.accept() {
                            Ok(pair) => pair,
                            Err(e)
                                if e.kind() == ErrorKind::WouldBlock
                                    || e.kind() == ErrorKind::Interrupted =>
                            {
                                thread::sleep(Duration::from_millis(5));
                                continue;
                            }
                            Err(_) => break,
                        };
                        counters.connections.fetch_add(1, Ordering::Relaxed);
                        let this_attempt = attempt;
                        attempt += 1;
                        if let Ok(handles) = ChaosProxy::link(
                            client,
                            upstream,
                            &plan,
                            this_attempt,
                            seed,
                            &stop,
                            &counters,
                        ) {
                            links.lock().expect("link registry").extend(handles);
                        }
                    }
                })
                .expect("spawning the chaos acceptor thread succeeds")
        };

        Ok(ChaosProxy {
            addr,
            stop,
            counters,
            acceptor: Some(acceptor),
            links,
        })
    }

    /// Wires one accepted client to the upstream server with two shuttle
    /// threads, one per direction.
    fn link(
        client: TcpStream,
        upstream: SocketAddr,
        plan: &FaultPlan,
        attempt: u64,
        seed: u64,
        stop: &Arc<AtomicBool>,
        counters: &Arc<ChaosCounters>,
    ) -> io::Result<Vec<JoinHandle<()>>> {
        let server = TcpStream::connect_timeout(&upstream, Duration::from_secs(5))?;
        // Accepted sockets do not inherit the listener's non-blocking mode
        // on every platform; force the mode the shuttles expect.
        client.set_nonblocking(false)?;
        client.set_nodelay(true)?;
        server.set_nodelay(true)?;
        let dead = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::with_capacity(2);
        for direction in [Direction::Upstream, Direction::Downstream] {
            let faults = plan.realize(attempt, seed, direction);
            let (src, dst) = match direction {
                Direction::Upstream => (client.try_clone()?, server.try_clone()?),
                Direction::Downstream => (server.try_clone()?, client.try_clone()?),
            };
            let stop = Arc::clone(stop);
            let dead = Arc::clone(&dead);
            let counters = Arc::clone(counters);
            handles.push(
                thread::Builder::new()
                    .name(format!("chaos-{attempt}-{direction:?}"))
                    .spawn(move || {
                        ChaosProxy::shuttle(src, dst, faults, direction, stop, dead, counters)
                    })
                    .expect("spawning a chaos shuttle thread succeeds"),
            );
        }
        Ok(handles)
    }

    /// Pumps one direction of one connection until EOF, a fault kills it,
    /// or the proxy stops.
    fn shuttle(
        mut src: TcpStream,
        mut dst: TcpStream,
        mut faults: DirectionFaults,
        direction: Direction,
        stop: Arc<AtomicBool>,
        dead: Arc<AtomicBool>,
        counters: Arc<ChaosCounters>,
    ) {
        let kill = |src: &TcpStream, dst: &TcpStream| {
            dead.store(true, Ordering::Relaxed);
            let _ = src.shutdown(Shutdown::Both);
            let _ = dst.shutdown(Shutdown::Both);
        };
        if src.set_read_timeout(Some(POLL_TICK)).is_err() {
            return kill(&src, &dst);
        }
        if faults.garbage > 0 {
            let garbage: Vec<u8> = (0..faults.garbage)
                .map(|_| (faults.rng.gen_range(0..256u64)) as u8)
                .collect();
            if dst.write_all(&garbage).is_err() {
                return kill(&src, &dst);
            }
            counters
                .garbage_bytes
                .fetch_add(garbage.len() as u64, Ordering::Relaxed);
        }
        let bytes_counter = match direction {
            Direction::Upstream => &counters.upstream_bytes,
            Direction::Downstream => &counters.downstream_bytes,
        };
        let mut buf = vec![0u8; 16 * 1024];
        loop {
            if stop.load(Ordering::Relaxed) || dead.load(Ordering::Relaxed) {
                return kill(&src, &dst);
            }
            match src.read(&mut buf) {
                Ok(0) => {
                    // Graceful EOF: propagate the half-close and stop; the
                    // reverse direction keeps running.
                    let _ = dst.shutdown(Shutdown::Write);
                    return;
                }
                Ok(n) => {
                    bytes_counter.fetch_add(n as u64, Ordering::Relaxed);
                    match faults.forward(&mut dst, &buf[..n], &counters, &stop, &dead) {
                        Ok(LinkState::Open) => {}
                        Ok(LinkState::Cut) | Err(_) => return kill(&src, &dst),
                        Ok(LinkState::HalfClosed) => {
                            let _ = dst.shutdown(Shutdown::Write);
                            return;
                        }
                    }
                }
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return kill(&src, &dst),
            }
        }
    }

    /// The address clients should connect to instead of the upstream.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the fault counters so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            connections: self.counters.connections.load(Ordering::Relaxed),
            upstream_bytes: self.counters.upstream_bytes.load(Ordering::Relaxed),
            downstream_bytes: self.counters.downstream_bytes.load(Ordering::Relaxed),
            cuts: self.counters.cuts.load(Ordering::Relaxed),
            half_closes: self.counters.half_closes.load(Ordering::Relaxed),
            stalls: self.counters.stalls.load(Ordering::Relaxed),
            duplicated_bytes: self.counters.duplicated_bytes.load(Ordering::Relaxed),
            garbage_bytes: self.counters.garbage_bytes.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, kills every live link, and joins all threads.
    pub fn shutdown(mut self) -> ChaosStats {
        self.halt();
        self.stats()
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.links.lock().expect("link registry"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    /// A single-shot echo server; answers each line with the same line.
    fn echo_upstream() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
        let addr = listener.local_addr().expect("local addr");
        let handle = thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                let mut reader = io::BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                let mut line = String::new();
                while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                    if writer.write_all(line.as_bytes()).is_err() {
                        break;
                    }
                    line.clear();
                }
            }
        });
        (addr, handle)
    }

    fn roundtrip_line(addr: SocketAddr, line: &str) -> String {
        let stream = TcpStream::connect(addr).expect("connect through proxy");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut writer = stream.try_clone().expect("clone");
        writer.write_all(line.as_bytes()).expect("write line");
        let mut reader = io::BufReader::new(stream);
        let mut echoed = String::new();
        reader.read_line(&mut echoed).expect("read echo");
        echoed
    }

    #[test]
    fn benign_plan_passes_bytes_through_unchanged() {
        let (upstream, server) = echo_upstream();
        let proxy = ChaosProxy::spawn(upstream, FaultPlan::benign(), 1).expect("spawn proxy");
        let line = "hello through the benign proxy\n";
        assert_eq!(roundtrip_line(proxy.local_addr(), line), line);
        let stats = proxy.shutdown();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.upstream_bytes, line.len() as u64);
        assert_eq!(stats.cuts + stats.stalls + stats.duplicated_bytes, 0);
        server.join().expect("echo server exits");
    }

    #[test]
    fn trickle_plan_preserves_content_under_maximal_fragmentation() {
        let (upstream, server) = echo_upstream();
        let proxy = ChaosProxy::spawn(upstream, FaultPlan::trickle(), 2).expect("spawn proxy");
        let line = format!("{}\n", "x".repeat(512));
        assert_eq!(roundtrip_line(proxy.local_addr(), &line), line);
        proxy.shutdown();
        server.join().expect("echo server exits");
    }

    #[test]
    fn cut_plan_kills_the_connection_mid_stream() {
        let (upstream, server) = echo_upstream();
        let plan = FaultPlan {
            cut_after: Some(64),
            decay: false,
            ..FaultPlan::benign()
        };
        let proxy = ChaosProxy::spawn(upstream, plan, 3).expect("spawn proxy");
        let stream = TcpStream::connect(proxy.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut writer = stream.try_clone().expect("clone");
        // Push well past the cut threshold; the write side may or may not
        // error depending on timing, but the read side must see the kill.
        let payload = vec![b'y'; 4096];
        for _ in 0..64 {
            if writer.write_all(&payload).is_err() {
                break;
            }
        }
        let mut reader = io::BufReader::new(stream);
        let mut sink = String::new();
        // Either EOF (Ok with no newline ever arriving terminates at 0) or
        // a reset error: both prove the link died rather than hanging.
        let outcome = reader.read_line(&mut sink);
        assert!(
            matches!(outcome, Ok(0) | Err(_)),
            "link must die: {outcome:?}"
        );
        let stats = proxy.shutdown();
        assert!(stats.cuts >= 1, "cut fault must have fired: {stats:?}");
        server.join().expect("echo server exits");
    }

    #[test]
    fn garbage_plan_prepends_random_bytes_upstream() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
        let upstream = listener.local_addr().expect("local addr");
        let receiver = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut bytes = Vec::new();
            stream.read_to_end(&mut bytes).expect("read all");
            bytes
        });
        let plan = FaultPlan {
            garbage_prelude: 7,
            ..FaultPlan::benign()
        };
        let proxy = ChaosProxy::spawn(upstream, plan, 4).expect("spawn proxy");
        {
            let mut stream = TcpStream::connect(proxy.local_addr()).expect("connect");
            stream.write_all(b"real payload").expect("write");
        }
        let seen = receiver.join().expect("receiver exits");
        assert_eq!(seen.len(), 7 + "real payload".len());
        assert_eq!(&seen[7..], b"real payload");
        let stats = proxy.shutdown();
        assert_eq!(stats.garbage_bytes, 7);
    }

    #[test]
    fn named_plans_cover_the_suite_and_reject_unknown_names() {
        for plan in FaultPlan::suite() {
            let found = FaultPlan::named(plan.name).expect("suite plans resolve by name");
            assert_eq!(found, plan);
        }
        assert!(FaultPlan::named("no-such-plan").is_none());
    }

    #[test]
    fn decay_doubles_fault_windows_per_connection() {
        let plan = FaultPlan::torn();
        let first = plan.realize(0, 9, Direction::Upstream);
        let fifth = plan.realize(4, 9, Direction::Upstream);
        let base = plan.cut_after.expect("torn cuts");
        assert!(first.cut_at.expect("realized") < base * 2);
        assert!(fifth.cut_at.expect("realized") >= base * 16);
    }
}
