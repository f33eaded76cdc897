//! TCP front-end differential coverage: every reply that crosses the
//! wire must be **byte-identical** to what the same request stream
//! produces through the in-process service on an identical backend.
//!
//! * Single pipelined connection against the single-engine backend
//!   (read-only script) and the sharded writable backend (script with
//!   `Update`/`Step`/`StepDelta`/`Insert`/`Remove` write barriers
//!   interleaved) — the oracle encodes its in-process replies with the
//!   same codec and corr ids, and the raw reply frames must match byte
//!   for byte.
//! * Two concurrent connections: a lock-stepped writer/reader pair whose
//!   interleaving is serialized by the replies themselves, diffed
//!   against the equivalent serial in-process run — write barriers hold
//!   across connections.
//! * Two concurrent read-only connections pipelining at full depth:
//!   every reply matches the oracle regardless of arrival interleaving.

use simspatial::prelude::*;
use simspatial_net::wire;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;

fn soup(n: u32, seed: u32) -> Vec<Element> {
    (0..n)
        .map(|i| {
            let h = (i ^ seed).wrapping_mul(2654435761);
            let x = (h % 997) as f32 / 10.0;
            let y = ((h >> 10) % 997) as f32 / 10.0;
            let z = ((h >> 20) % 997) as f32 / 10.0;
            let r = if i % 31 == 0 { 4.0 } else { 0.4 };
            Element::new(i, Shape::Sphere(Sphere::new(Point3::new(x, y, z), r)))
        })
        .collect()
}

fn mix(h: u32) -> u32 {
    let mut h = h.wrapping_mul(0x9E3779B9) ^ 0x1357_9BDF;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^ (h >> 13)
}

fn hash_box(h: u32, span: f32) -> Aabb {
    let cx = (h % 900) as f32 / 9.0;
    let cy = ((h >> 8) % 900) as f32 / 9.0;
    let cz = ((h >> 16) % 900) as f32 / 9.0;
    Aabb::new(
        Point3::new(cx, cy, cz),
        Point3::new(cx + span, cy + span, cz + span),
    )
}

/// Deterministic request script. Read-only scripts mix the three query
/// families; writable scripts interleave all five write families as
/// barriers (including one full `Step` tick).
fn script(writable: bool, n_elements: u32, count: u32) -> Vec<Request> {
    (0..count)
        .map(|i| {
            let h = mix(i.wrapping_mul(7919));
            if writable && i % 5 == 4 {
                return match h % 5 {
                    0 => Request::Update(
                        (0..6)
                            .map(|j| (mix(h ^ j) % n_elements, hash_box(mix(h ^ (j << 9)), 1.2)))
                            .collect(),
                    ),
                    1 => Request::StepDelta(
                        (0..6)
                            .map(|j| (mix(h ^ j) % n_elements, hash_box(mix(h ^ (j << 7)), 0.9)))
                            .collect(),
                    ),
                    2 if i == 44 => Request::Step(
                        (0..n_elements)
                            .map(|e| hash_box(mix(e ^ 0xC0DE), 0.8))
                            .collect(),
                    ),
                    2 | 3 => Request::Insert((0..3).map(|j| hash_box(mix(h ^ j), 1.0)).collect()),
                    _ => Request::Remove(vec![mix(h) % n_elements, mix(h ^ 1) % n_elements]),
                };
            }
            match h % 3 {
                0 => Request::Range(
                    (0..(h % 3 + 1))
                        .map(|q| hash_box(mix(h ^ (q << 4)), 5.0 + (h % 7) as f32))
                        .collect(),
                ),
                1 => Request::RangeCount(vec![hash_box(h, 10.0)]),
                _ => Request::Knn(
                    (0..(h % 2 + 1))
                        .map(|q| {
                            let hb = hash_box(mix(h ^ (q << 5)), 0.0);
                            (hb.min, (h % 9) as usize)
                        })
                        .collect(),
                ),
            }
        })
        .collect()
}

/// Runs `requests` serially through an in-process service and returns
/// each reply encoded with the wire codec under corr `i + 1` — the byte
/// oracle for the TCP runs.
fn oracle_frames(service: SpatialService, requests: &[Request]) -> Vec<Vec<u8>> {
    let handle = service.handle();
    let frames = requests
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let reply = handle
                .submit(req.clone())
                .expect("oracle submit")
                .recv_reply()
                .expect("oracle reply");
            let mut buf = Vec::new();
            wire::encode_reply(
                &mut buf,
                i as u64 + 1,
                reply.shards_skipped,
                reply.epoch,
                &reply.response,
            );
            buf
        })
        .collect();
    service.shutdown();
    frames
}

struct RawConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    frame: Vec<u8>,
}

/// A raw protocol connection that keeps reply frames as bytes — the
/// differential tests compare those bytes directly, so the assertion
/// covers the codec and the framing, not just the decoded values.
impl RawConn {
    fn connect(addr: std::net::SocketAddr, tenant: &str) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        let mut conn = RawConn {
            writer: BufWriter::new(stream.try_clone().unwrap()),
            reader: BufReader::new(stream),
            frame: Vec::new(),
        };
        let mut buf = Vec::new();
        wire::encode_hello(&mut buf, tenant);
        wire::write_frame(&mut conn.writer, &buf).unwrap();
        conn.writer.flush().unwrap();
        match conn.recv() {
            wire::ServerMsg::HelloAck { .. } => conn,
            other => panic!("handshake failed: {other:?}"),
        }
    }

    fn enqueue(&mut self, corr: u64, request: &Request) {
        let mut buf = Vec::new();
        wire::encode_request(&mut buf, corr, None, request);
        wire::write_frame(&mut self.writer, &buf).unwrap();
    }

    fn flush(&mut self) {
        self.writer.flush().unwrap();
    }

    /// Reads one frame, returning the raw payload bytes.
    fn recv_raw(&mut self) -> Vec<u8> {
        assert!(
            wire::read_frame(&mut self.reader, 64 << 20, &mut self.frame).expect("read frame"),
            "server closed with replies outstanding"
        );
        self.frame.clone()
    }

    fn recv(&mut self) -> wire::ServerMsg {
        let raw = self.recv_raw();
        wire::decode_server_msg(&raw).expect("decodable server frame")
    }
}

/// Corr id of a reply/error frame (bytes 1..9 little-endian).
fn frame_corr(payload: &[u8]) -> u64 {
    u64::from_le_bytes(payload[1..9].try_into().unwrap())
}

/// Pipelines the whole script down one connection and diffs every raw
/// reply frame against the oracle bytes.
fn diff_single_connection(
    server: NetServer,
    requests: &[Request],
    oracle: &[Vec<u8>],
    label: &str,
) {
    let mut conn = RawConn::connect(server.local_addr(), "diff");
    for (i, req) in requests.iter().enumerate() {
        conn.enqueue(i as u64 + 1, req);
    }
    conn.flush();
    let mut last = 0;
    for _ in 0..requests.len() {
        let raw = conn.recv_raw();
        let corr = frame_corr(&raw) as usize;
        assert_eq!(
            raw,
            oracle[corr - 1],
            "{label}: reply for corr {corr} differs from the in-process oracle"
        );
        // One connection's replies leave in admission order.
        assert!(corr > last, "{label}: corr {corr} arrived after {last}");
        last = corr;
    }
    drop(conn);
    let stats = server.shutdown();
    assert_eq!(
        stats.completed,
        requests.len() as u64,
        "{label}: all completed"
    );
    assert_eq!(stats.failed_requests, 0, "{label}: no failures");
}

fn engine_service(data: &[Element]) -> SpatialService {
    let backend = EngineBackend::build(data.to_vec(), |d| {
        UniformGrid::build(d, GridConfig::auto(d))
    });
    SpatialService::spawn(backend, ServiceConfig::default())
}

fn sharded_service(data: &[Element]) -> SpatialService {
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let backend = ShardedBackend::spawn(ShardedEngine::build(data, 3, build).with_rebuild(build));
    SpatialService::spawn(backend, ServiceConfig::default())
}

#[test]
fn tcp_replies_match_in_process_engine_backend() {
    let data = soup(1200, 0xD1FF);
    let requests = script(false, data.len() as u32, 120);
    let oracle = oracle_frames(engine_service(&data), &requests);
    let server =
        NetServer::bind(engine_service(&data), "127.0.0.1:0", NetConfig::default()).expect("bind");
    diff_single_connection(server, &requests, &oracle, "engine backend");
}

#[test]
fn tcp_replies_match_in_process_sharded_backend_with_writes() {
    let data = soup(900, 0xFACE);
    let requests = script(true, data.len() as u32, 110);
    let oracle = oracle_frames(sharded_service(&data), &requests);
    let server =
        NetServer::bind(sharded_service(&data), "127.0.0.1:0", NetConfig::default()).expect("bind");
    diff_single_connection(server, &requests, &oracle, "sharded writable backend");
}

/// Two concurrent connections, write barriers across them: a writer
/// tenant and a reader tenant lock-step (each waits for its own reply
/// before the other proceeds), which pins the global admission order to
/// a serial interleaving the oracle replays exactly.
#[test]
fn write_barriers_hold_across_two_connections() {
    let data = soup(800, 0xBEEF);
    let rounds: u32 = 40;

    // The interleaved script, as one serial stream for the oracle:
    // write_i, probe_i, write_{i+1}, probe_{i+1}, ...
    let mut serial = Vec::new();
    for i in 0..rounds {
        let h = mix(i.wrapping_mul(31));
        let target = hash_box(h, 1.5);
        serial.push(Request::Update(vec![(mix(h) % 800, target)]));
        serial.push(Request::Range(vec![target]));
    }
    let oracle: Vec<Response> = {
        let service = sharded_service(&data);
        let handle = service.handle();
        let out = serial
            .iter()
            .map(|r| handle.submit(r.clone()).unwrap().recv().unwrap())
            .collect();
        service.shutdown();
        out
    };

    let server =
        NetServer::bind(sharded_service(&data), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut sim = NetClient::connect(addr, "sim").unwrap();
    let mut viz = NetClient::connect(addr, "viz").unwrap();
    for i in 0..rounds {
        let h = mix(i.wrapping_mul(31));
        let target = hash_box(h, 1.5);
        let id = mix(h) % 800;
        // Writer connection commits the barrier…
        match sim.call(&Request::Update(vec![(id, target)])).unwrap() {
            CallOutcome::Reply { response, .. } => {
                assert_eq!(response, oracle[i as usize * 2], "write ack differs");
            }
            other => panic!("write failed: {other:?}"),
        }
        // …and only then the reader connection probes: it must see the
        // post-write dataset, exactly like the serial oracle.
        match viz.call(&Request::Range(vec![target])).unwrap() {
            CallOutcome::Reply { response, .. } => {
                let expect = &oracle[i as usize * 2 + 1];
                assert_eq!(
                    &response, expect,
                    "round {i}: probe differs from serial oracle"
                );
                let hits = response.into_range().unwrap();
                assert!(hits[0].contains(&id), "round {i}: probe must see the write");
            }
            other => panic!("probe failed: {other:?}"),
        }
    }
    drop(sim);
    drop(viz);
    let stats = server.shutdown();
    assert_eq!(stats.completed, u64::from(rounds) * 2);
    assert_eq!(stats.tenants.len(), 2, "both tenants accounted");
}

/// Two read-only connections pipelining concurrently: arrival order is
/// unconstrained, but every reply must still match the oracle bytes for
/// its corr.
#[test]
fn concurrent_pipelined_connections_match_oracle() {
    let data = soup(1000, 0xAB1E);
    let requests = script(false, data.len() as u32, 80);
    let oracle = oracle_frames(engine_service(&data), &requests);
    let server =
        NetServer::bind(engine_service(&data), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for t in 0..2 {
            let requests = &requests;
            let oracle = &oracle;
            scope.spawn(move || {
                let mut conn = RawConn::connect(addr, if t == 0 { "a" } else { "b" });
                // Full-depth pipeline: every request in flight at once.
                for (i, req) in requests.iter().enumerate() {
                    conn.enqueue(i as u64 + 1, req);
                }
                conn.flush();
                let mut seen = HashMap::new();
                for _ in 0..requests.len() {
                    let raw = conn.recv_raw();
                    let corr = frame_corr(&raw);
                    assert_eq!(
                        raw,
                        oracle[corr as usize - 1],
                        "conn {t}: corr {corr} differs from oracle"
                    );
                    assert!(seen.insert(corr, ()).is_none(), "duplicate corr {corr}");
                }
            });
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.completed, requests.len() as u64 * 2);
}
