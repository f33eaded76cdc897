//! Protocol robustness: hostile and broken clients must fail **typed**
//! (a `Fatal` frame naming the violation), must never wedge the server,
//! and must never leak a ticket — every request the server admitted
//! completes, even when its connection is already gone.

use simspatial::prelude::*;
use simspatial_net::wire::{self, FatalCode, ServerMsg};
use simspatial_net::RequestError;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

fn tiny_service() -> SpatialService {
    tiny_service_with(ServiceConfig::default())
}

fn tiny_service_with(cfg: ServiceConfig) -> SpatialService {
    let data: Vec<Element> = (0..200)
        .map(|i| {
            let x = (i % 50) as f32;
            Element::new(
                i,
                Shape::Sphere(Sphere::new(Point3::new(x, x * 0.5, 1.0), 0.5)),
            )
        })
        .collect();
    let backend = EngineBackend::build(data, |d| UniformGrid::build(d, GridConfig::auto(d)));
    SpatialService::spawn(backend, cfg)
}

fn writable_service() -> SpatialService {
    let data: Vec<Element> = (0..200)
        .map(|i| {
            let x = (i % 50) as f32;
            Element::new(
                i,
                Shape::Sphere(Sphere::new(Point3::new(x, x * 0.5, 1.0), 0.5)),
            )
        })
        .collect();
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let backend = ShardedBackend::spawn(ShardedEngine::build(&data, 2, build).with_rebuild(build));
    SpatialService::spawn(backend, ServiceConfig::default())
}

struct Raw {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    stream: TcpStream,
}

impl Raw {
    fn connect(addr: std::net::SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Raw {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream.try_clone().unwrap()),
            stream,
        }
    }

    fn hello(mut self, tenant: &str) -> Raw {
        let mut buf = Vec::new();
        wire::encode_hello(&mut buf, tenant);
        self.send(&buf);
        match self.recv() {
            ServerMsg::HelloAck { .. } => self,
            other => panic!("handshake failed: {other:?}"),
        }
    }

    fn send(&mut self, payload: &[u8]) {
        wire::write_frame(&mut self.writer, payload).unwrap();
        self.writer.flush().unwrap();
    }

    /// Ships raw bytes without framing — for forging broken frames.
    fn send_bytes(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> ServerMsg {
        let mut frame = Vec::new();
        assert!(
            wire::read_frame(&mut self.reader, 64 << 20, &mut frame).expect("readable"),
            "server closed without the expected frame"
        );
        wire::decode_server_msg(&frame).expect("decodable")
    }

    /// Asserts the server answers with `Fatal { code }` then closes.
    fn expect_fatal(mut self, code: FatalCode) {
        match self.recv() {
            ServerMsg::Fatal { code: got, .. } => {
                assert_eq!(got, code, "wrong fatal code");
            }
            other => panic!("expected Fatal({code:?}), got {other:?}"),
        }
        // The connection must be closed afterwards (EOF, not a hang).
        let mut rest = Vec::new();
        assert_eq!(self.reader.read_to_end(&mut rest).unwrap_or(0), 0);
    }
}

fn range_req(corr: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::encode_request(
        &mut buf,
        corr,
        None,
        &Request::Range(vec![Aabb::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(60.0, 60.0, 60.0),
        )]),
    );
    buf
}

#[test]
fn malformed_handshakes_fail_typed() {
    let server = NetServer::bind(tiny_service(), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();

    // Bad magic.
    let mut conn = Raw::connect(addr);
    let mut hello = Vec::new();
    wire::encode_hello(&mut hello, "t");
    hello[1] ^= 0xFF;
    conn.send(&hello);
    conn.expect_fatal(FatalCode::BadHandshake);

    // First frame is not Hello.
    let mut conn = Raw::connect(addr);
    let req = range_req(1);
    conn.send(&req);
    conn.expect_fatal(FatalCode::BadHandshake);

    // Duplicate Hello after a successful handshake.
    let mut conn = Raw::connect(addr).hello("t");
    let mut hello = Vec::new();
    wire::encode_hello(&mut hello, "t");
    conn.send(&hello);
    conn.expect_fatal(FatalCode::BadHandshake);

    // The server is still healthy for well-behaved clients.
    let mut client = NetClient::connect(addr, "ok").unwrap();
    assert!(matches!(
        client.call(&Request::RangeCount(vec![Aabb::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(60.0, 60.0, 60.0),
        )])),
        Ok(CallOutcome::Reply { .. })
    ));
    drop(client);
    server.shutdown();
}

#[test]
fn unknown_tenant_rejected_when_defaults_disabled() {
    let cfg = NetConfig::default()
        .with_tenants(vec![TenantSpec::new("declared", 1)])
        .reject_unknown_tenants();
    let server = NetServer::bind(tiny_service(), "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();

    let mut conn = Raw::connect(addr);
    let mut hello = Vec::new();
    wire::encode_hello(&mut hello, "undeclared");
    conn.send(&hello);
    conn.expect_fatal(FatalCode::UnknownTenant);

    // The declared tenant connects fine.
    let client = NetClient::connect(addr, "declared");
    assert!(client.is_ok(), "declared tenant must be admitted");
    drop(client);
    server.shutdown();
}

#[test]
fn oversized_and_truncated_frames_fail_typed() {
    let cfg = NetConfig::default().with_limits(1 << 12, 64);
    let server = NetServer::bind(tiny_service(), "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();

    // A frame declaring more than max_frame: rejected from the length
    // prefix alone — the body is never read, never allocated.
    let mut conn = Raw::connect(addr).hello("t");
    conn.send_bytes(&(1u32 << 20).to_le_bytes());
    conn.expect_fatal(FatalCode::FrameTooLarge);

    // A frame that ends mid-payload (EOF inside a frame).
    let mut conn = Raw::connect(addr).hello("t");
    conn.send_bytes(&100u32.to_le_bytes());
    conn.send_bytes(&[0u8; 40]);
    conn.stream.shutdown(Shutdown::Write).unwrap();
    conn.expect_fatal(FatalCode::Malformed);

    // A complete frame whose payload is shorter than the message.
    let mut conn = Raw::connect(addr).hello("t");
    let req = range_req(1);
    conn.send(&req[..req.len() - 5]);
    conn.expect_fatal(FatalCode::Malformed);

    // Trailing bytes after a valid message.
    let mut conn = Raw::connect(addr).hello("t");
    let mut long = range_req(1);
    long.extend_from_slice(&[0xAA; 3]);
    conn.send(&long);
    conn.expect_fatal(FatalCode::Malformed);

    server.shutdown();
}

#[test]
fn unknown_opcodes_tags_and_limits_fail_typed() {
    let cfg = NetConfig::default().with_limits(1 << 20, 16);
    let server = NetServer::bind(tiny_service(), "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();

    // Unknown opcode.
    let mut conn = Raw::connect(addr).hello("t");
    conn.send(&[0x5A]);
    conn.expect_fatal(FatalCode::UnknownOpcode);

    // Unknown request tag.
    let mut conn = Raw::connect(addr).hello("t");
    let mut bad = Vec::new();
    bad.push(0x02); // REQUEST
    bad.extend_from_slice(&7u64.to_le_bytes());
    bad.push(0); // tenant-default consistency
    bad.push(99); // no such tag
    conn.send(&bad);
    conn.expect_fatal(FatalCode::UnknownOpcode);

    // Item count over the advertised limit (16): a Remove with 17 ids.
    let mut conn = Raw::connect(addr).hello("t");
    let mut over = Vec::new();
    wire::encode_request(&mut over, 3, None, &Request::Remove((0..17).collect()));
    conn.send(&over);
    conn.expect_fatal(FatalCode::LimitExceeded);

    server.shutdown();
}

#[test]
fn writes_to_read_only_backend_fail_typed_over_the_wire() {
    let server = NetServer::bind(tiny_service(), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr(), "t").unwrap();
    let target = Aabb::new(Point3::new(1.0, 1.0, 1.0), Point3::new(2.0, 2.0, 2.0));
    match client.call(&Request::Update(vec![(5, target)])).unwrap() {
        CallOutcome::Rejected(RequestError::ReadOnly) => {}
        other => panic!("expected typed ReadOnly rejection, got {other:?}"),
    }
    // The connection survives a per-request rejection.
    assert!(matches!(
        client.call(&Request::RangeCount(vec![target])),
        Ok(CallOutcome::Reply { .. })
    ));
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.failed_requests, 0, "rejected before admission");
}

/// A client that pipelines requests and vanishes without reading a
/// single reply must not leak anything: the server completes every
/// admitted ticket, drops the unroutable frames, and shuts down cleanly
/// (this test hanging IS the regression signal).
#[test]
fn mid_request_connection_drop_leaks_nothing() {
    let server = NetServer::bind(writable_service(), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();

    for round in 0..3 {
        let mut conn = Raw::connect(addr).hello("ghost");
        for corr in 0..20u64 {
            let payload = if corr % 4 == 3 {
                // Include write barriers so in-flight writes are covered.
                let mut buf = Vec::new();
                wire::encode_request(
                    &mut buf,
                    corr + 1,
                    None,
                    &Request::Update(vec![(
                        (round * 20 + corr as u32) % 200,
                        Aabb::new(Point3::new(1.0, 1.0, 1.0), Point3::new(2.0, 2.0, 2.0)),
                    )]),
                );
                buf
            } else {
                range_req(corr + 1)
            };
            wire::write_frame(&mut conn.writer, &payload).unwrap();
        }
        conn.writer.flush().unwrap();
        // Vanish abruptly: no reads, reset on drop.
        drop(conn);
    }

    // One extra connection drops *mid-frame*, with requests already
    // staged ahead of the break.
    let mut conn = Raw::connect(addr).hello("ghost");
    let req = range_req(100);
    wire::write_frame(&mut conn.writer, &req).unwrap();
    conn.writer.flush().unwrap();
    conn.send_bytes(&((req.len() as u32).to_le_bytes()));
    conn.send_bytes(&req[..4]); // frame never finishes
    drop(conn);

    // A healthy client still gets service while the ghosts' tickets
    // resolve in the background.
    let mut client = NetClient::connect(addr, "live").unwrap();
    assert!(matches!(
        client.call(&Request::RangeCount(vec![Aabb::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(60.0, 60.0, 60.0),
        )])),
        Ok(CallOutcome::Reply { .. })
    ));
    drop(client);

    // Shutdown drains everything the ghosts staged: if a ticket leaked,
    // its connection's writer (and therefore this join) would hang.
    let stats = server.shutdown();
    let ghost = stats
        .tenants
        .iter()
        .find(|t| t.name == "ghost")
        .expect("ghost tenant tracked");
    assert_eq!(
        ghost.admitted,
        ghost.completed + ghost.failed,
        "every admitted ghost request resolved exactly once"
    );
    assert!(ghost.admitted >= 1, "ghost requests were admitted");
    assert_eq!(
        stats.completed + stats.failed_requests,
        stats.submitted,
        "service-side: nothing in flight after drain"
    );
}

/// The `RangeCount` of one box through `service`'s in-process path.
fn in_process_count(service: &SpatialService, query: Aabb) -> u64 {
    let response = service.handle().submit(Request::RangeCount(vec![query]));
    response
        .unwrap()
        .recv()
        .unwrap()
        .into_range_counts()
        .unwrap()[0]
}

/// A lone request costing `max_items` (128 DRR quanta) is admitted by
/// the request that stages it: nothing retries admission on a timer, so
/// a rule that credits one quantum round per call hangs this test.
#[test]
fn lone_large_request_is_admitted_promptly() {
    let service = tiny_service();
    let everything = Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(60.0, 60.0, 60.0));
    let want = in_process_count(&service, everything);
    let cfg = NetConfig::default();
    let max_items = cfg.max_items;
    let server = NetServer::bind(service, "127.0.0.1:0", cfg).unwrap();
    let mut client = NetClient::connect(server.local_addr(), "bulk").unwrap();
    match client
        .call(&Request::RangeCount(vec![everything; max_items]))
        .unwrap()
    {
        CallOutcome::Reply { response, .. } => {
            assert_eq!(response.into_range_counts().unwrap(), vec![want; max_items]);
        }
        other => panic!("large request not served: {other:?}"),
    }
    drop(client);
    server.shutdown();
}

/// An intake queue of one rejects admissions as `Full` under three
/// pipelined connections; each rejected request goes back to its
/// tenant's head and a later completion admits it. Nothing is lost,
/// reordered or double-counted.
#[test]
fn full_intake_queue_retries_on_completion() {
    const CALLS: u64 = 40;
    let service = tiny_service_with(ServiceConfig::default().no_coalesce().with_queue_cap(1));
    let queries: Vec<Aabb> = (0..CALLS)
        .map(|i| {
            let x = (i % 45) as f32;
            Aabb::new(Point3::new(x, 0.0, 0.0), Point3::new(x + 5.0, 30.0, 2.0))
        })
        .collect();
    let want: Vec<u64> = queries
        .iter()
        .map(|&q| in_process_count(&service, q))
        .collect();
    let server = NetServer::bind(service, "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for c in 0..3 {
            let (queries, want) = (&queries, &want);
            scope.spawn(move || {
                let mut conn = NetClient::connect(addr, &format!("full-{c}")).unwrap();
                let corrs: Vec<u64> = queries
                    .iter()
                    .map(|&q| conn.enqueue(&Request::RangeCount(vec![q])).unwrap())
                    .collect();
                conn.flush().unwrap();
                for (k, &expect) in corrs.iter().enumerate() {
                    match conn.recv_msg().unwrap() {
                        ServerMsg::Reply { corr, response, .. } => {
                            assert_eq!(corr, expect, "conn {c}: reply out of corr order");
                            let counts = response.into_range_counts().unwrap();
                            assert_eq!(counts, vec![want[k]], "conn {c}: corr {corr}");
                        }
                        other => panic!("conn {c}: request {k} not served: {other:?}"),
                    }
                }
            });
        }
    });

    let stats = server.shutdown();
    assert!(stats.rejected > 0, "the intake queue never filled");
    assert_eq!(stats.tenants.len(), 3);
    for t in &stats.tenants {
        assert_eq!(t.admitted, CALLS, "tenant {}", t.name);
        assert_eq!(t.completed, CALLS, "tenant {}", t.name);
    }
}

/// A client that has read its replies finds them counted: the wire
/// `Stats` snapshot taken right after `CALLS` synchronous calls reports
/// exactly `CALLS` admitted and completed for the tenant.
#[test]
fn stats_over_the_wire_counts_completed_calls() {
    const CALLS: u64 = 12;
    let server = NetServer::bind(tiny_service(), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr(), "counted").unwrap();
    let query = Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(10.0, 10.0, 10.0));
    for _ in 0..CALLS {
        assert!(matches!(
            client.call(&Request::RangeCount(vec![query])),
            Ok(CallOutcome::Reply { .. })
        ));
    }
    let json = client.request_stats().unwrap();
    let tenant = format!(
        "{{\"name\":\"counted\",\"weight\":1,\"admitted\":{CALLS},\"shed\":0,\"completed\":{CALLS},"
    );
    assert!(json.contains(&tenant), "tenant counters missing: {json}");
    let (_, tail) = json
        .rsplit_once("\"element_tests\":")
        .expect("element_tests present");
    assert!(
        tail.strip_suffix('}')
            .is_some_and(|n| n.parse::<u64>().is_ok()),
        "stats JSON must end with element_tests: {json}"
    );
    drop(client);
    server.shutdown();
}
