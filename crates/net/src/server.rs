//! The multiplexed TCP server: one acceptor plus a reader/writer thread
//! pair per connection, and no other thread.
//!
//! ```text
//!            ┌──────────┐  stage, then admit (DRR)  submit_with ┌──────────┐
//! conn 1 ──▶ │ reader 1 │ ─────────────────────────────────────▶ │ service  │
//! conn 2 ──▶ │ reader 2 │ ──┐ tickets, in admission order        │ dispatch │
//!            └──────────┘   │                                    └────┬─────┘
//!            ┌──────────┐ ◀─┘                                         │
//! conn 1 ◀── │ writer 1 │  redeem → account → admit → write           │
//! conn 2 ◀── │ writer 2 │ ◀───────────────────────────── completions ─┘
//!            └──────────┘
//! ```
//!
//! * A **reader** decodes frames, stages requests under its connection's
//!   tenant and answers `Stats` inline.
//! * **Admission is a function, not a thread.** `admit` sweeps the
//!   per-tenant staging queues in deficit-round-robin order and calls
//!   [`ServiceHandle::submit_with`] (nonblocking) under the admission
//!   lock, so the service-side admission order — and the write barriers in
//!   it — is one deterministic sequence however many connections race.
//!   Readers run it after staging, writers after each completion, shutdown
//!   until staging is empty.
//! * A **writer** serves its connection's FIFO channel: frames, and the
//!   tickets of its admitted requests in admission order. It redeems and
//!   accounts each ticket and runs `admit` *before* writing the reply, so
//!   a client that has read a reply sees it counted. After a write error
//!   or a `Fatal` frame it keeps redeeming and accounting but writes
//!   nothing, so a connection that died mid-request leaks no completion.
//!
//! Tenants are declared at handshake. Each has a bounded **staging
//! queue** (overflow sheds as a `Retry` frame whose hint scales with
//! service congestion), a **weight**, and an **in-flight cap** on its
//! admitted-but-unredeemed tickets: its share of the service queue, and
//! all a connection that stops reading can hold. Requests cost their item
//! count, so a hot tenant cannot starve a light one, which keeps its
//! weighted share (see `tests/net_fairness.rs`). A `Full` intake queue
//! puts the request back at its tenant's head for the next completion to
//! retry; a queue filled only by in-process handles waits for the next
//! net event (shutdown's drain polls, so it cannot hang).

use crate::wire::{self, DecodeLimits, FatalCode, FrameReadError, RequestError};
use simspatial_service::{
    Consistency, LatencyHistogram, Request, ServiceHandle, ServiceStats, SpatialService,
    SubmitError, SubmitOptions, TenantStats, Ticket,
};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One tenant's admission contract, declared in [`NetConfig`] (or minted
/// from [`NetConfig::default_tenant`] at handshake for undeclared names).
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name, matched against the `Hello` declaration.
    pub name: String,
    /// Deficit-round-robin weight: the tenant's share of admission
    /// bandwidth under contention is `weight / total weight` (≥ 1).
    pub weight: u32,
    /// Maximum requests this tenant may have admitted-but-incomplete —
    /// bounds its share of the service's intake queue.
    pub max_in_flight: usize,
    /// Staging queue bound: requests arriving beyond it are shed with a
    /// `Retry` frame instead of queueing unboundedly.
    pub stage_cap: usize,
    /// Consistency applied to this tenant's requests that carry the
    /// tenant-default byte on the wire. Defaults to
    /// [`Consistency::Barrier`] — the pre-epoch semantics — so existing
    /// deployments observe no behaviour change until a tenant (or a
    /// request) opts into snapshot reads.
    pub default_consistency: Consistency,
}

impl TenantSpec {
    /// A spec with the default caps (256 in flight, 256 staged) and
    /// [`Consistency::Barrier`] as the tenant default.
    pub fn new(name: impl Into<String>, weight: u32) -> Self {
        TenantSpec {
            name: name.into(),
            weight: weight.max(1),
            max_in_flight: 256,
            stage_cap: 256,
            default_consistency: Consistency::Barrier,
        }
    }

    /// Overrides the in-flight and staging bounds.
    pub fn with_caps(mut self, max_in_flight: usize, stage_cap: usize) -> Self {
        self.max_in_flight = max_in_flight.max(1);
        self.stage_cap = stage_cap.max(1);
        self
    }

    /// Overrides the consistency applied when a request defers to the
    /// tenant default (the `0` consistency byte on the wire).
    pub fn with_consistency(mut self, consistency: Consistency) -> Self {
        self.default_consistency = consistency;
        self
    }
}

/// Server configuration: wire limits plus the multi-tenant admission
/// policy.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Largest accepted client→server frame payload, bytes.
    pub max_frame: usize,
    /// Largest accepted per-request item count (boxes/probes/updates).
    pub max_items: usize,
    /// Tenants declared up front with explicit weights and caps.
    pub tenants: Vec<TenantSpec>,
    /// Spec applied to tenants that connect without being declared
    /// (`name` is replaced by the declared one). `None` rejects unknown
    /// tenants at handshake with [`FatalCode::UnknownTenant`].
    pub default_tenant: Option<TenantSpec>,
    /// Deficit-round-robin quantum: deficit credited per weight unit per
    /// sweep round, in request items.
    pub quantum: u32,
    /// Base retry hint for shed requests; scaled up by observed service
    /// congestion before it goes on the wire.
    pub retry_hint_base: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_frame: 1 << 20,
            max_items: 4096,
            tenants: Vec::new(),
            default_tenant: Some(TenantSpec::new("default", 1)),
            quantum: 32,
            retry_hint_base: Duration::from_micros(200),
        }
    }
}

impl NetConfig {
    /// Declares tenants with explicit weights/caps.
    pub fn with_tenants(mut self, tenants: Vec<TenantSpec>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Rejects connections from tenants not declared in
    /// [`NetConfig::tenants`].
    pub fn reject_unknown_tenants(mut self) -> Self {
        self.default_tenant = None;
        self
    }

    /// Overrides the decode limits (frame bytes, request items).
    pub fn with_limits(mut self, max_frame: usize, max_items: usize) -> Self {
        self.max_frame = max_frame;
        self.max_items = max_items.max(1);
        self
    }

    fn limits(&self) -> DecodeLimits {
        DecodeLimits {
            max_frame: self.max_frame,
            max_items: self.max_items,
        }
    }
}

/// A staged request: decoded, accounted to a tenant, waiting for
/// [`admit`] to submit it.
struct Staged {
    corr: u64,
    request: Request,
    /// `None` defers to the tenant's configured default consistency.
    consistency: Option<Consistency>,
    writer: mpsc::Sender<Out>,
    staged_at: Instant,
}

/// What a connection's writer serves, in channel (FIFO) order.
enum Out {
    /// An encoded frame, written as is.
    Frame(Vec<u8>),
    /// An admitted request: redeemed, accounted, then written as its
    /// reply.
    Reply {
        ticket: Ticket,
        corr: u64,
        tenant: usize,
        staged_at: Instant,
    },
}

/// One tenant's live admission state.
struct TenantState {
    spec: TenantSpec,
    staged: VecDeque<Staged>,
    in_flight: usize,
    deficit: u64,
    admitted: u64,
    shed: u64,
    completed: u64,
    failed: u64,
    latency: LatencyHistogram,
}

impl TenantState {
    fn new(spec: TenantSpec) -> Self {
        TenantState {
            spec,
            staged: VecDeque::new(),
            in_flight: 0,
            deficit: 0,
            admitted: 0,
            shed: 0,
            completed: 0,
            failed: 0,
            latency: LatencyHistogram::default(),
        }
    }

    /// The head-of-line request's cost (its item count), or `None` when
    /// nothing is staged or the tenant sits at its in-flight cap.
    fn head_cost(&self) -> Option<u64> {
        if self.in_flight >= self.spec.max_in_flight {
            return None;
        }
        self.staged.front().map(|s| s.request.len().max(1) as u64)
    }
}

struct AdmissionInner {
    tenants: Vec<TenantState>,
    index: HashMap<String, usize>,
    cursor: usize,
    draining: bool,
}

impl AdmissionInner {
    /// One deficit-round-robin decision: the tenant whose head-of-line
    /// request to admit next, or `None` when nothing is admissible.
    ///
    /// Existing deficits are spent first. Otherwise every backlogged,
    /// uncapped tenant is credited `k x quantum x weight` and the cursor
    /// advances by `k`, for the fewest rounds `k` that make some head
    /// affordable: `k` classic DRR refreshes in one step. An idle
    /// tenant's deficit resets, so it cannot bank credit while absent.
    fn drr_next(&mut self, quantum: u64) -> Option<usize> {
        if let Some(i) = self.spend() {
            return Some(i);
        }
        let credit = |t: &TenantState| quantum * u64::from(t.spec.weight);
        let rounds = self
            .tenants
            .iter()
            .filter_map(|t| Some((t.head_cost()? - t.deficit).div_ceil(credit(t))))
            .min()
            .unwrap_or(0);
        for t in &mut self.tenants {
            if t.staged.is_empty() {
                t.deficit = 0;
            } else if t.head_cost().is_some() {
                t.deficit += rounds * credit(t);
            }
        }
        if rounds == 0 {
            return None;
        }
        let n = self.tenants.len();
        self.cursor = (self.cursor + (rounds % n as u64) as usize) % n;
        self.spend()
    }

    /// Spends existing deficits in round-robin order from the cursor: the
    /// first tenant whose deficit covers its head pays for it.
    fn spend(&mut self) -> Option<usize> {
        let n = self.tenants.len();
        for off in 0..n {
            let i = (self.cursor + off) % n;
            let t = &mut self.tenants[i];
            if let Some(cost) = t.head_cost().filter(|&cost| cost <= t.deficit) {
                t.deficit -= cost;
                // Stay on this tenant while its deficit lasts.
                self.cursor = i;
                return Some(i);
            }
        }
        None
    }

    fn tenant_stats(&self) -> Vec<TenantStats> {
        self.tenants
            .iter()
            .map(|t| TenantStats {
                name: t.spec.name.clone(),
                weight: t.spec.weight,
                admitted: t.admitted,
                shed: t.shed,
                completed: t.completed,
                failed: t.failed,
                latency: t.latency,
            })
            .collect()
    }
}

/// What every server thread shares: the admission state, the service it
/// admits into, and the configuration.
struct Admission {
    inner: Mutex<AdmissionInner>,
    /// Signalled by completions while draining.
    cv: Condvar,
    handle: ServiceHandle,
    cfg: NetConfig,
    /// DRR quantum, items per weight unit per refresh round (≥ 1).
    quantum: u64,
}

impl Admission {
    /// Service stats with the per-tenant counters attached.
    fn stats(&self) -> ServiceStats {
        let mut stats = self.handle.stats();
        stats.tenants = self.inner.lock().unwrap().tenant_stats();
        stats
    }
}

struct Registry {
    conns: Vec<TcpStream>,
    threads: Vec<JoinHandle<()>>,
}

/// A running TCP front end over one [`SpatialService`].
///
/// Accepts connections until [`NetServer::shutdown`], which performs an
/// orderly drain: stop accepting, close the read half of every
/// connection (no new requests), admit and complete everything already
/// staged, flush the replies, then shut the service down and return its
/// final [`ServiceStats`] with per-tenant counters attached.
pub struct NetServer {
    service: Option<SpatialService>,
    admission: Arc<Admission>,
    accepting: Arc<AtomicBool>,
    local_addr: SocketAddr,
    registry: Arc<Mutex<Registry>>,
    acceptor: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `service`.
    pub fn bind(
        service: SpatialService,
        addr: impl ToSocketAddrs,
        cfg: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        let mut tenants = Vec::new();
        let mut index = HashMap::new();
        for spec in &cfg.tenants {
            index.insert(spec.name.clone(), tenants.len());
            tenants.push(TenantState::new(spec.clone()));
        }
        let admission = Arc::new(Admission {
            inner: Mutex::new(AdmissionInner {
                tenants,
                index,
                cursor: 0,
                draining: false,
            }),
            cv: Condvar::new(),
            handle: service.handle(),
            quantum: u64::from(cfg.quantum.max(1)),
            cfg,
        });
        let accepting = Arc::new(AtomicBool::new(true));
        let registry = Arc::new(Mutex::new(Registry {
            conns: Vec::new(),
            threads: Vec::new(),
        }));

        let acceptor = {
            let admission = Arc::clone(&admission);
            let accepting = Arc::clone(&accepting);
            let registry = Arc::clone(&registry);
            std::thread::Builder::new()
                .name("net-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if !accepting.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let _ = stream.set_nodelay(true);
                        let (Ok(write_half), Ok(tracked)) =
                            (stream.try_clone(), stream.try_clone())
                        else {
                            continue;
                        };
                        let (tx, rx) = mpsc::channel::<Out>();
                        let shared = Arc::clone(&admission);
                        let writer = std::thread::Builder::new()
                            .name("net-writer".into())
                            .spawn(move || writer_loop(write_half, &rx, &shared));
                        // Without a writer nothing could redeem this
                        // connection's tickets: refuse it.
                        let Ok(writer) = writer else { continue };
                        let shared = Arc::clone(&admission);
                        let reader = std::thread::Builder::new()
                            .name("net-reader".into())
                            .spawn(move || reader_loop(stream, tx, &shared));
                        let mut reg = registry.lock().unwrap();
                        reg.conns.push(tracked);
                        reg.threads.push(writer);
                        if let Ok(h) = reader {
                            reg.threads.push(h);
                        }
                    }
                })?
        };

        Ok(NetServer {
            service: Some(service),
            admission,
            accepting,
            local_addr,
            registry,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live stats snapshot with per-tenant counters attached — the
    /// same payload a wire `Stats` request returns.
    pub fn stats(&self) -> ServiceStats {
        self.admission.stats()
    }

    /// Orderly drain: stop accepting, stop reading, complete everything
    /// already staged or in flight, flush replies, shut the service
    /// down, and return the final stats (with per-tenant counters).
    pub fn shutdown(mut self) -> ServiceStats {
        self.drain();
        let mut stats = match self.service.take() {
            Some(service) => service.shutdown(),
            None => self.admission.handle.stats(),
        };
        stats.tenants = self.admission.inner.lock().unwrap().tenant_stats();
        stats
    }

    fn drain(&mut self) {
        // 1. Stop accepting; a dummy connection unblocks `accept`.
        self.accepting.store(false, Ordering::Release);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // 2. Close the read half of every connection: readers see EOF
        // and exit; already-staged requests stay in the queues.
        let (conns, threads) = {
            let mut reg = self.registry.lock().unwrap();
            (
                std::mem::take(&mut reg.conns),
                std::mem::take(&mut reg.threads),
            )
        };
        for conn in &conns {
            let _ = conn.shutdown(Shutdown::Read);
        }
        // 3. Refuse new requests and admit everything staged. Writers'
        // completions admit too and wake this loop; the timed wait covers
        // an intake queue held full by in-process handles, which no
        // completion here would retry.
        let a = &self.admission;
        let mut inner = a.inner.lock().unwrap();
        inner.draining = true;
        loop {
            admit(&mut inner, &a.handle, a.quantum);
            if inner.tenants.iter().all(|t| t.staged.is_empty()) {
                break;
            }
            inner =
                a.cv.wait_timeout(inner, Duration::from_millis(5))
                    .unwrap()
                    .0;
        }
        drop(inner);
        // 4. Readers exit on EOF and staging is empty, so each writer's
        // channel holds its last tickets: it redeems, accounts and writes
        // them, and exits once the channel disconnects.
        for h in threads {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.service.is_some() {
            self.drain();
            if let Some(service) = self.service.take() {
                let _ = service.shutdown();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Connection threads.
// ---------------------------------------------------------------------

fn send_frame(tx: &mpsc::Sender<Out>, buf: &[u8]) {
    // Best effort: a dead connection just loses the frame.
    let _ = tx.send(Out::Frame(buf.to_vec()));
}

/// Per-connection write loop. Serves the channel in FIFO order, so the
/// connection's replies leave in admission order, and flushes only when
/// it is about to block: on an empty channel or a ticket not yet ready.
/// `w` is `None` in discard mode, entered on a write error or after a
/// `Fatal` frame: tickets are still redeemed and accounted, nothing is
/// written. Exits when the reader and every staged request of the
/// connection are gone.
fn writer_loop(stream: TcpStream, rx: &mpsc::Receiver<Out>, admission: &Admission) {
    let mut w = Some(BufWriter::new(stream));
    let mut buf = Vec::new();
    loop {
        let next = rx.try_recv().ok().or_else(|| {
            flush(&mut w);
            rx.recv().ok()
        });
        let Some(out) = next else { return };
        match out {
            Out::Frame(frame) => buf = frame,
            Out::Reply {
                ticket,
                corr,
                tenant,
                staged_at,
            } => {
                let reply = ticket.try_recv_reply().unwrap_or_else(|| {
                    flush(&mut w);
                    ticket.recv_reply()
                });
                // Account before writing: a client that has read this
                // reply must find it counted.
                let mut inner = admission.inner.lock().unwrap();
                let t = &mut inner.tenants[tenant];
                t.in_flight -= 1;
                if reply.is_ok() {
                    t.completed += 1;
                    t.latency.record(staged_at.elapsed());
                } else {
                    t.failed += 1;
                }
                admit(&mut inner, &admission.handle, admission.quantum);
                if inner.draining {
                    admission.cv.notify_all();
                }
                drop(inner);
                match reply {
                    Ok(r) => {
                        wire::encode_reply(&mut buf, corr, r.shards_skipped, r.epoch, &r.response)
                    }
                    Err(e) => wire::encode_error(&mut buf, corr, e.into()),
                }
            }
        }
        let Some(stream) = &mut w else { continue };
        if wire::write_frame(stream, &buf).is_err() {
            w = None;
        } else if buf.first() == Some(&wire::op::FATAL) {
            // A Fatal frame is always terminal: actively close so the
            // peer sees EOF now, not at server shutdown (other clones of
            // this stream — the shutdown registry's — stay open).
            let _ = stream.flush();
            let _ = stream.get_ref().shutdown(Shutdown::Both);
            w = None;
        }
    }
}

/// Flushes a live writer; a failed flush switches to discard mode.
fn flush(w: &mut Option<BufWriter<TcpStream>>) {
    if w.as_mut().is_some_and(|s| s.flush().is_err()) {
        *w = None;
    }
}

/// Per-connection read loop: handshake, then decode-and-stage until EOF
/// or a protocol violation (answered with a `Fatal` frame).
fn reader_loop(stream: TcpStream, frame_tx: mpsc::Sender<Out>, admission: &Admission) {
    let (handle, cfg) = (&admission.handle, &admission.cfg);
    let limits = cfg.limits();
    let mut r = BufReader::new(stream);
    let mut frame = Vec::new();
    let mut out = Vec::new();

    // Handshake: the first frame must be a well-formed `Hello` naming an
    // admissible tenant.
    let tenant = match read_client_msg(&mut r, &limits, &mut frame) {
        Ok(Some(wire::ClientMsg::Hello { tenant, .. })) => tenant,
        Ok(Some(_)) => {
            wire::encode_fatal(&mut out, FatalCode::BadHandshake, "expected Hello first");
            send_frame(&frame_tx, &out);
            return;
        }
        Ok(None) => return,
        Err(e) => {
            wire::encode_fatal(&mut out, FatalCode::for_wire_error(&e), &e.to_string());
            send_frame(&frame_tx, &out);
            return;
        }
    };
    let tenant_idx = {
        let mut inner = admission.inner.lock().unwrap();
        match inner.index.get(&tenant) {
            Some(&i) => i,
            None => match &cfg.default_tenant {
                Some(default) => {
                    let mut spec = default.clone();
                    spec.name = tenant.clone();
                    let i = inner.tenants.len();
                    inner.index.insert(tenant, i);
                    inner.tenants.push(TenantState::new(spec));
                    i
                }
                None => {
                    drop(inner);
                    wire::encode_fatal(
                        &mut out,
                        FatalCode::UnknownTenant,
                        "tenant not declared and defaults are disabled",
                    );
                    send_frame(&frame_tx, &out);
                    return;
                }
            },
        }
    };
    wire::encode_hello_ack(&mut out, cfg.max_frame as u32, cfg.max_items as u32);
    send_frame(&frame_tx, &out);

    loop {
        let msg = match read_client_msg(&mut r, &limits, &mut frame) {
            Ok(Some(msg)) => msg,
            Ok(None) => return, // clean close (or drain's Shutdown::Read)
            Err(e) => {
                wire::encode_fatal(&mut out, FatalCode::for_wire_error(&e), &e.to_string());
                send_frame(&frame_tx, &out);
                return;
            }
        };
        match msg {
            wire::ClientMsg::Hello { .. } => {
                wire::encode_fatal(&mut out, FatalCode::BadHandshake, "duplicate Hello");
                send_frame(&frame_tx, &out);
                return;
            }
            wire::ClientMsg::Stats { corr } => {
                // Telemetry bypasses admission: reads a snapshot, never
                // queues behind tenant backlogs.
                wire::encode_stats_reply(&mut out, corr, &admission.stats().to_json());
                send_frame(&frame_tx, &out);
            }
            wire::ClientMsg::Request {
                corr,
                consistency,
                request,
            } => {
                let mut inner = admission.inner.lock().unwrap();
                if inner.draining {
                    wire::encode_error(&mut out, corr, RequestError::ShutDown);
                    send_frame(&frame_tx, &out);
                    continue;
                }
                let t = &mut inner.tenants[tenant_idx];
                if t.staged.len() >= t.spec.stage_cap {
                    // Load shed: hint scales with how congested the
                    // service actually is, so a saturated queue backs
                    // clients off harder than a momentary blip.
                    t.shed += 1;
                    let depth = handle.queue_depth();
                    let capacity = handle.queue_capacity().max(1);
                    let congestion = (depth as f64 / capacity as f64).clamp(0.0, 1.0);
                    let after = cfg.retry_hint_base.mul_f64(1.0 + 3.0 * congestion);
                    drop(inner);
                    wire::encode_retry(&mut out, corr, after, depth as u32, capacity as u32);
                    send_frame(&frame_tx, &out);
                    continue;
                }
                t.staged.push_back(Staged {
                    corr,
                    request,
                    consistency,
                    writer: frame_tx.clone(),
                    staged_at: Instant::now(),
                });
                admit(&mut inner, handle, admission.quantum);
            }
        }
    }
}

fn read_client_msg(
    r: &mut impl std::io::Read,
    limits: &DecodeLimits,
    frame: &mut Vec<u8>,
) -> Result<Option<wire::ClientMsg>, wire::WireError> {
    match wire::read_frame(r, limits.max_frame, frame) {
        Ok(false) => Ok(None),
        Ok(true) => wire::decode_client_msg(frame, limits).map(Some),
        // EOF inside a frame is a protocol violation (the peer promised
        // more bytes), answered typed on the write half if it is still
        // open; a reset/aborted transport is just a gone peer.
        Err(FrameReadError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Err(wire::WireError::Truncated)
        }
        Err(FrameReadError::Io(_)) => Ok(None),
        Err(FrameReadError::Wire(e)) => Err(e),
    }
}

// ---------------------------------------------------------------------
// Admission.
// ---------------------------------------------------------------------

/// Admits staged requests in DRR order until nothing is admissible or the
/// service's intake queue is full. Callers hold the admission lock across
/// it (a nonblocking `submit_with` never blocks), which makes the
/// service-side admission order — and the write barriers in it — one
/// deterministic sequence. Each admitted ticket joins its connection's
/// writer channel.
fn admit(inner: &mut AdmissionInner, handle: &ServiceHandle, quantum: u64) {
    while let Some(i) = inner.drr_next(quantum) {
        let t = &mut inner.tenants[i];
        let s = t.staged.pop_front().expect("drr admitted a head");
        let cost = s.request.len().max(1) as u64;
        // Per-request consistency wins; the tenant-default byte resolves
        // here, where the tenant's spec is at hand.
        let consistency = s.consistency.unwrap_or(t.spec.default_consistency);
        let options = SubmitOptions {
            consistency,
            nonblocking: true,
            ..SubmitOptions::default()
        };
        let error = match handle.submit_with(s.request, options) {
            Ok(ticket) => {
                t.admitted += 1;
                t.in_flight += 1;
                // The writer outlives every sender, so this never fails.
                let _ = s.writer.send(Out::Reply {
                    ticket,
                    corr: s.corr,
                    tenant: i,
                    staged_at: s.staged_at,
                });
                continue;
            }
            Err(e @ SubmitError::Full { .. }) => {
                // Intake full: back to the head with its deficit refunded;
                // the next completion or staging retries it.
                t.deficit += cost;
                t.staged.push_front(Staged {
                    request: e.into_request(),
                    ..s
                });
                return;
            }
            Err(SubmitError::ReadOnly(_)) => RequestError::ReadOnly,
            Err(SubmitError::ShutDown(_)) => RequestError::ShutDown,
        };
        t.failed += 1;
        let mut out = Vec::new();
        wire::encode_error(&mut out, s.corr, error);
        send_frame(&s.writer, &out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simspatial_geom::{Aabb, Point3};

    fn staged(writer: &mpsc::Sender<Out>) -> Staged {
        staged_costing(writer, 1)
    }

    /// A staged `RangeCount` of `cost` boxes.
    fn staged_costing(writer: &mpsc::Sender<Out>, cost: u64) -> Staged {
        let unit = Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 1.0));
        Staged {
            corr: 0,
            request: Request::RangeCount(vec![unit; cost as usize]),
            consistency: None,
            writer: writer.clone(),
            staged_at: Instant::now(),
        }
    }

    fn admission_of(specs: Vec<TenantSpec>) -> AdmissionInner {
        AdmissionInner {
            tenants: specs.into_iter().map(TenantState::new).collect(),
            index: HashMap::new(),
            cursor: 0,
            draining: false,
        }
    }

    /// Classic DRR: at most one refresh round per call.
    fn one_refresh_next(inner: &mut AdmissionInner, quantum: u64) -> Option<usize> {
        if let Some(i) = inner.spend() {
            return Some(i);
        }
        let mut backlogged = false;
        for t in &mut inner.tenants {
            if t.staged.is_empty() {
                t.deficit = 0;
            } else if t.head_cost().is_some() {
                t.deficit += quantum * u64::from(t.spec.weight);
                backlogged = true;
            }
        }
        if !backlogged {
            return None;
        }
        inner.cursor = (inner.cursor + 1) % inner.tenants.len();
        inner.spend()
    }

    /// A lone head costing ten quanta is admitted by the first call, not
    /// after nine empty refresh rounds.
    #[test]
    fn drr_admits_a_lone_large_head_at_once() {
        let (tx, _rx) = mpsc::channel();
        let mut inner = admission_of(vec![TenantSpec::new("lone", 1)]);
        inner.tenants[0].staged.push_back(staged_costing(&tx, 320));
        assert_eq!(inner.drr_next(32), Some(0));
        assert_eq!(inner.tenants[0].deficit, 0, "credited exactly ten rounds");
    }

    /// Crediting `k` rounds at once admits the same sequence as `k`
    /// one-refresh calls: weights 3:1, head costs mixing 5q and q.
    #[test]
    fn drr_multi_round_credit_matches_one_refresh_rounds() {
        const Q: u64 = 4;
        let (tx, _rx) = mpsc::channel();
        let backlog = || {
            let mut inner = admission_of(vec![
                TenantSpec::new("heavy", 3),
                TenantSpec::new("light", 1),
            ]);
            for k in 0..300 {
                let (a, b) = if k % 3 == 0 { (Q, 5 * Q) } else { (5 * Q, Q) };
                inner.tenants[0].staged.push_back(staged_costing(&tx, a));
                inner.tenants[1].staged.push_back(staged_costing(&tx, b));
            }
            inner
        };
        let (mut fast, mut slow) = (backlog(), backlog());
        for n in 0..200 {
            let i = fast.drr_next(Q).expect("backlogged queues always admit");
            let j = (0..100)
                .find_map(|_| one_refresh_next(&mut slow, Q))
                .expect("one-refresh rule admits within 100 rounds");
            assert_eq!(i, j, "admission {n} differs");
            fast.tenants[i].staged.pop_front();
            slow.tenants[j].staged.pop_front();
        }
        assert_eq!(fast.cursor, slow.cursor);
        for (f, s) in fast.tenants.iter().zip(&slow.tenants) {
            assert_eq!(f.deficit, s.deficit, "tenant {}", f.spec.name);
        }
    }

    /// The DRR invariant, deterministically: with weights 9:1, equal
    /// unit-cost requests and both queues always backlogged, admissions
    /// split 9:1 (exactly, over any whole number of refresh rounds).
    #[test]
    fn drr_sweep_honours_weights() {
        let (tx, _rx) = mpsc::channel();
        let mut inner = AdmissionInner {
            tenants: vec![
                TenantState::new(TenantSpec::new("hot", 9)),
                TenantState::new(TenantSpec::new("trickle", 1)),
            ],
            index: HashMap::new(),
            cursor: 0,
            draining: false,
        };
        for _ in 0..600 {
            inner.tenants[0].staged.push_back(staged(&tx));
            inner.tenants[1].staged.push_back(staged(&tx));
        }
        let mut admitted = [0u64; 2];
        for _ in 0..500 {
            let i = inner.drr_next(1).expect("backlogged queues always admit");
            inner.tenants[i].staged.pop_front();
            admitted[i] += 1;
        }
        assert_eq!(admitted[0] + admitted[1], 500);
        // 9:1 within one refresh round of slack.
        assert!(
            admitted[0] >= 440 && admitted[0] <= 460,
            "hot tenant took {} of 500",
            admitted[0]
        );
        assert!(
            admitted[1] >= 40 && admitted[1] <= 60,
            "trickle tenant took {} of 500",
            admitted[1]
        );
    }

    /// An in-flight-capped tenant is skipped without losing its turn:
    /// when the cap clears it resumes at its weighted share.
    #[test]
    fn drr_skips_capped_tenants() {
        let (tx, _rx) = mpsc::channel();
        let mut inner = AdmissionInner {
            tenants: vec![
                TenantState::new(TenantSpec::new("a", 1).with_caps(1, 64)),
                TenantState::new(TenantSpec::new("b", 1)),
            ],
            index: HashMap::new(),
            cursor: 0,
            draining: false,
        };
        for _ in 0..100 {
            inner.tenants[0].staged.push_back(staged(&tx));
            inner.tenants[1].staged.push_back(staged(&tx));
        }
        // Tenant a sits at its in-flight cap: the sweep keeps serving b.
        inner.tenants[0].in_flight = 1;
        for _ in 0..10 {
            let i = inner.drr_next(1).expect("b stays admissible");
            assert_eq!(i, 1, "capped tenant must be skipped");
            inner.tenants[i].staged.pop_front();
        }
        // Completion clears the cap; a resumes.
        inner.tenants[0].in_flight = 0;
        let resumed = (0..10)
            .map(|_| {
                let i = inner.drr_next(1).unwrap();
                inner.tenants[i].staged.pop_front();
                i
            })
            .filter(|&i| i == 0)
            .count();
        assert!(resumed >= 4, "uncapped tenant resumed only {resumed}/10");
    }

    /// Empty queues reset deficits: a tenant cannot bank credit while
    /// idle and then burst past its weight when it returns.
    #[test]
    fn drr_resets_idle_deficit() {
        let (tx, _rx) = mpsc::channel();
        let mut inner = AdmissionInner {
            tenants: vec![
                TenantState::new(TenantSpec::new("idle", 9)),
                TenantState::new(TenantSpec::new("busy", 1)),
            ],
            index: HashMap::new(),
            cursor: 0,
            draining: false,
        };
        for _ in 0..50 {
            inner.tenants[1].staged.push_back(staged(&tx));
        }
        // Many rounds with `idle` absent: its deficit must stay 0.
        for _ in 0..20 {
            let i = inner.drr_next(1).unwrap();
            inner.tenants[i].staged.pop_front();
            assert_eq!(i, 1);
        }
        assert_eq!(inner.tenants[0].deficit, 0, "idle tenant banked deficit");
    }
}
