//! Loopback integration tests: real TCP round trips between the pooled
//! client and the framed server over 127.0.0.1.
//!
//! Every test runs under BOTH I/O models (`threaded::*` and
//! `reactor::*` below) — the reactor replaces the socket machinery, not
//! the execution semantics, so typed overload, graceful drain,
//! connection-fatal frames, and correlation-id routing must be
//! indistinguishable across models.
//!
//! The headline test is the acceptance gate for this subsystem: 8
//! concurrent clients each pipeline 100+ point-lookup traversals over a
//! pooled connection set against a populated `NativeGraphStore`, and
//! every response must answer exactly the request that asked for it —
//! each lookup targets a distinct vertex and asserts the returned id,
//! so one misrouted correlation id fails the run.

use snb_core::{EdgeLabel, GraphBackend, PropKey, SnbError, Value, VertexLabel, Vid};
use snb_graph_native::NativeGraphStore;
use snb_gremlin::{wire, GremlinServer, ServerConfig, Traversal};
use snb_net::frame::{self, Frame, FrameKind};
use snb_net::{ClientConfig, IoModel, NetPool, NetServer, NetServerConfig};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const PERSONS: u64 = 64;

fn p(id: u64) -> Vid {
    Vid::new(VertexLabel::Person, id)
}

/// A populated store: a ring of persons with Knows edges.
fn backend() -> Arc<dyn GraphBackend> {
    let s = NativeGraphStore::new();
    for id in 0..PERSONS {
        s.add_vertex(
            VertexLabel::Person,
            id,
            &[(PropKey::FirstName, Value::str(&format!("p{id}")))],
        )
        .unwrap();
    }
    for id in 0..PERSONS {
        s.add_edge(EdgeLabel::Knows, p(id), p((id + 1) % PERSONS), &[]).unwrap();
    }
    Arc::new(s)
}

fn start_server(server_config: ServerConfig, net_config: NetServerConfig) -> NetServer {
    let gremlin = GremlinServer::start(backend(), server_config);
    NetServer::start(gremlin, net_config).unwrap()
}

fn default_server(io: IoModel) -> NetServer {
    start_server(ServerConfig::default(), NetServerConfig::default().with_io_model(io))
}

/// Instantiate every test once per I/O model.
macro_rules! io_model_suite {
    ($($name:ident),+ $(,)?) => {
        mod threaded {
            $(#[test] fn $name() { super::$name(snb_net::IoModel::Threaded); })+
        }
        mod reactor {
            $(#[test] fn $name() { super::$name(snb_net::IoModel::Reactor); })+
        }
    };
}

io_model_suite!(
    eight_clients_pipeline_100_lookups_each_no_misrouting,
    raw_frames_pipeline_and_responses_carry_matching_corr_ids,
    queue_overflow_surfaces_as_typed_overloaded_error,
    query_errors_come_back_typed_and_are_not_retried,
    mutations_roundtrip_over_the_socket,
    connection_limit_rejects_with_fatal_error_frame,
    malformed_frames_get_a_fatal_codec_error,
    client_reconnects_after_server_restart,
    graceful_shutdown_answers_in_flight_requests,
    batched_submission_round_trips_in_order,
    batch_tolerates_per_request_query_errors,
    unknown_frame_kind_gets_typed_error_and_connection_survives,
);

fn eight_clients_pipeline_100_lookups_each_no_misrouting(io: IoModel) {
    let server = default_server(io);
    let addr = server.local_addr();
    let mut handles = Vec::new();
    for client_id in 0..8u64 {
        handles.push(std::thread::spawn(move || {
            // One pooled connection per client...
            let pool = Arc::new(
                NetPool::connect(addr, ClientConfig { connections: 1, ..Default::default() })
                    .unwrap(),
            );
            // ...shared by 4 submitter threads, so requests genuinely
            // overlap in flight on a single TCP connection.
            let mut inner = Vec::new();
            for t in 0..4u64 {
                let pool = Arc::clone(&pool);
                inner.push(std::thread::spawn(move || {
                    for i in 0..25u64 {
                        let id = (client_id * 31 + t * 7 + i) % PERSONS;
                        let got = pool
                            .submit(&Traversal::v(p(id)).values(PropKey::Id))
                            .unwrap();
                        // The response must answer THIS request: the id it
                        // carries is the one we asked for.
                        assert_eq!(got, vec![Value::Int(id as i64)], "misrouted response");
                    }
                }));
            }
            for h in inner {
                h.join().unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

fn raw_frames_pipeline_and_responses_carry_matching_corr_ids(io: IoModel) {
    // 100 requests are written before any response is read, so the queue
    // must hold the whole burst (the default capacity of 64 would —
    // correctly — answer the overflow with Overloaded error frames).
    let server = start_server(
        ServerConfig { queue_capacity: 256, ..Default::default() },
        NetServerConfig::default().with_io_model(io),
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Write 100 request frames before reading a single response.
    let n = 100u64;
    for corr_id in 1..=n {
        let t = Traversal::v(p((corr_id - 1) % PERSONS)).values(PropKey::Id);
        let f = Frame { kind: FrameKind::Request, corr_id, payload: wire::encode_traversal(&t) };
        frame::write_frame(&mut stream, &f).unwrap();
    }
    // Read all 100 responses (any order) and check each one answers the
    // request its correlation id names.
    let mut seen = std::collections::HashSet::new();
    for _ in 0..n {
        let f = frame::read_frame(&mut stream).unwrap().expect("response frame");
        assert_eq!(f.kind, FrameKind::Response);
        assert!(seen.insert(f.corr_id), "duplicate response for {}", f.corr_id);
        let values = wire::decode_values(&f.payload).unwrap();
        assert_eq!(values, vec![Value::Int(((f.corr_id - 1) % PERSONS) as i64)]);
    }
    assert_eq!(seen.len(), n as usize, "no responses lost");
}

fn queue_overflow_surfaces_as_typed_overloaded_error(io: IoModel) {
    // One worker, capacity-1 queue: flooding must yield Overloaded error
    // frames (typed), never dropped connections or hangs. The heavy
    // traversal is a repeat-until search, which the reactor's inline
    // fast path must refuse (unbounded cost) — so saturation reaches
    // the bounded queue under both I/O models.
    let server = start_server(
        ServerConfig { workers: 1, queue_capacity: 1, request_timeout: Duration::from_secs(10) , ..Default::default() },
        NetServerConfig::default().with_io_model(io),
    );
    let addr = server.local_addr();
    let heavy =
        Traversal::v(p(0)).repeat_both_until(EdgeLabel::Knows, p(PERSONS / 2), 12).path_len();
    let mut handles = Vec::new();
    for _ in 0..16 {
        let heavy = heavy.clone();
        handles.push(std::thread::spawn(move || {
            let pool = NetPool::connect(
                addr,
                ClientConfig {
                    connections: 1,
                    request_timeout: Duration::from_secs(30),
                    ..Default::default()
                },
            )
            .unwrap();
            match pool.submit(&heavy) {
                Ok(_) => false,
                Err(SnbError::Overloaded(_)) => true,
                Err(e) => panic!("expected Overloaded, got {e}"),
            }
        }));
    }
    let overloaded =
        handles.into_iter().map(|h| h.join().unwrap()).filter(|&was_overloaded| was_overloaded).count();
    assert!(overloaded > 0, "at least one request must be rejected with Overloaded");
}

fn query_errors_come_back_typed_and_are_not_retried(io: IoModel) {
    let server = default_server(io);
    let pool = NetPool::connect(server.local_addr(), ClientConfig::default()).unwrap();
    // values() on a property then out_any() is an execution error.
    let r = pool.submit(&Traversal::v(p(1)).values(PropKey::FirstName).out_any());
    assert!(matches!(r, Err(SnbError::Exec(_))), "{r:?}");
    // The connection is still healthy afterwards.
    let ok = pool.submit(&Traversal::v(p(1)).values(PropKey::Id)).unwrap();
    assert_eq!(ok, vec![Value::Int(1)]);
}

fn mutations_roundtrip_over_the_socket(io: IoModel) {
    let server = default_server(io);
    let pool = NetPool::connect(server.local_addr(), ClientConfig::default()).unwrap();
    pool.submit(&Traversal::g().add_v(VertexLabel::Person, 9999, vec![])).unwrap();
    let r = pool.submit(&Traversal::v(p(9999)).count()).unwrap();
    assert_eq!(r, vec![Value::Int(1)]);
}

fn connection_limit_rejects_with_fatal_error_frame(io: IoModel) {
    let server = start_server(
        ServerConfig::default(),
        NetServerConfig { max_connections: 2, ..Default::default() }.with_io_model(io),
    );
    let addr = server.local_addr();
    // Occupy both slots with live pools.
    let a = NetPool::connect(addr, ClientConfig { connections: 1, ..Default::default() }).unwrap();
    let b = NetPool::connect(addr, ClientConfig { connections: 1, ..Default::default() }).unwrap();
    assert_eq!(a.submit(&Traversal::v(p(0)).count()).unwrap(), vec![Value::Int(1)]);
    assert_eq!(b.submit(&Traversal::v(p(0)).count()).unwrap(), vec![Value::Int(1)]);
    // The third connection gets a connection-fatal typed error frame
    // (correlation id 0) before the server hangs up.
    let mut extra = TcpStream::connect(addr).unwrap();
    let f = frame::read_frame(&mut extra).unwrap().expect("rejection frame");
    assert_eq!(f.kind, FrameKind::Error);
    assert_eq!(f.corr_id, 0);
    let err = wire::decode_error(&f.payload).unwrap();
    assert!(matches!(err, SnbError::Overloaded(_)), "{err}");
}

fn malformed_frames_get_a_fatal_codec_error(io: IoModel) {
    let server = default_server(io);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Garbage that cannot be a frame header (bad magic).
    use std::io::Write as _;
    stream.write_all(&[0u8; 64]).unwrap();
    stream.flush().unwrap();
    let f = frame::read_frame(&mut stream).unwrap().expect("fatal error frame");
    assert_eq!(f.kind, FrameKind::Error);
    assert_eq!(f.corr_id, 0);
    assert!(matches!(wire::decode_error(&f.payload).unwrap(), SnbError::Codec(_)));
    // ...and then the server hangs up.
    assert!(frame::read_frame(&mut stream).unwrap().is_none());
}

fn client_reconnects_after_server_restart(io: IoModel) {
    // A pool pointed at a dead server errors with Io after retries...
    let (addr, pool) = {
        let server = default_server(io);
        let addr = server.local_addr();
        let pool = NetPool::connect(
            addr,
            ClientConfig {
                connections: 1,
                max_retries: 2,
                backoff_base: Duration::from_millis(5),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(pool.submit(&Traversal::v(p(3)).count()).unwrap(), vec![Value::Int(1)]);
        (addr, pool)
        // server drops here: graceful shutdown.
    };
    let r = pool.submit(&Traversal::v(p(3)).count());
    assert!(matches!(r, Err(SnbError::Io(_))), "{r:?}");
    // ...and transparently reconnects once a server is back on the same
    // port (retry-with-backoff re-establishes the TCP connection).
    let gremlin = GremlinServer::start(backend(), ServerConfig::default());
    let _server = NetServer::start(
        gremlin,
        NetServerConfig { bind_addr: addr.to_string(), ..Default::default() }.with_io_model(io),
    )
    .unwrap();
    assert_eq!(pool.submit(&Traversal::v(p(3)).count()).unwrap(), vec![Value::Int(1)]);
}

fn graceful_shutdown_answers_in_flight_requests(io: IoModel) {
    let server = start_server(
        // Single worker so queued requests are genuinely in flight when
        // shutdown begins.
        ServerConfig { workers: 1, queue_capacity: 64, request_timeout: Duration::from_secs(10) , ..Default::default() },
        NetServerConfig::default().with_io_model(io),
    );
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    // Prime the connection with one round trip so the acceptor has
    // definitely spawned our handler before shutdown begins (TCP connect
    // succeeds via the backlog long before the server accepts).
    let prime = Traversal::v(p(0)).count();
    frame::write_frame(
        &mut stream,
        &Frame { kind: FrameKind::Request, corr_id: 1000, payload: wire::encode_traversal(&prime) },
    )
    .unwrap();
    let primed = frame::read_frame(&mut stream).unwrap().unwrap();
    assert_eq!(primed.corr_id, 1000);
    let n = 32u64;
    for corr_id in 1..=n {
        let t = Traversal::v(p(corr_id % PERSONS)).values(PropKey::Id);
        let f = Frame { kind: FrameKind::Request, corr_id, payload: wire::encode_traversal(&t) };
        frame::write_frame(&mut stream, &f).unwrap();
    }
    // Begin shutdown while responses are still streaming back.
    let shutdown_handle = std::thread::spawn(move || drop(server));
    let mut got = 0u64;
    while let Ok(Some(f)) = frame::read_frame(&mut stream) {
        assert_eq!(f.kind, FrameKind::Response);
        got += 1;
        if got == n {
            break;
        }
    }
    shutdown_handle.join().unwrap();
    assert_eq!(got, n, "every in-flight request was answered before close");
}

fn batched_submission_round_trips_in_order(io: IoModel) {
    // submit_batch writes all requests in one syscall; results come back
    // one per traversal, in submission order, each answering its own
    // request.
    let server = start_server(
        ServerConfig { queue_capacity: 256, ..Default::default() },
        NetServerConfig::default().with_io_model(io),
    );
    let pool = NetPool::connect(
        server.local_addr(),
        ClientConfig { connections: 1, ..Default::default() },
    )
    .unwrap();
    let batch: Vec<Traversal> =
        (0..PERSONS).map(|id| Traversal::v(p(id)).values(PropKey::Id)).collect();
    let results = pool.submit_batch(&batch).unwrap();
    assert_eq!(results.len(), PERSONS as usize);
    for (id, r) in results.into_iter().enumerate() {
        assert_eq!(r.unwrap(), vec![Value::Int(id as i64)], "batch slot {id} misrouted");
    }
    // An empty batch is a no-op, not an error.
    assert_eq!(pool.submit_batch(&[]).unwrap().len(), 0);
}

fn unknown_frame_kind_gets_typed_error_and_connection_survives(io: IoModel) {
    let server = default_server(io);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Frames with an unknown kind tag but a valid header and checksum:
    // the server must answer each with a typed error on ITS corr_id and
    // keep the connection — a client speaking a kind this server does
    // not know gets an error it can read, not a dropped socket. Tags 3
    // and 4 are the retired frontier and analytics kinds; 42 is a kind
    // no version has defined.
    for (corr_id, tag) in [(77u64, 3u8), (78, 4), (79, 42)] {
        let mut raw = frame::encode_frame(&Frame {
            kind: FrameKind::Request,
            corr_id,
            payload: b"unknown kind".to_vec(),
        });
        raw[5] = tag; // kind byte
        use std::io::Write as _;
        stream.write_all(&raw).unwrap();
        stream.flush().unwrap();
        let f = frame::read_frame(&mut stream).unwrap().expect("typed error frame");
        assert_eq!(f.kind, FrameKind::Error, "tag {tag}");
        assert_eq!(f.corr_id, corr_id, "tag {tag}: error must answer the offending frame");
        assert!(matches!(wire::decode_error(&f.payload).unwrap(), SnbError::Codec(_)), "tag {tag}");
        // The same connection still serves ordinary requests.
        let t = Traversal::v(p(5)).values(PropKey::Id);
        frame::write_frame(
            &mut stream,
            &Frame {
                kind: FrameKind::Request,
                corr_id: corr_id + 100,
                payload: wire::encode_traversal(&t),
            },
        )
        .unwrap();
        let ok = frame::read_frame(&mut stream).unwrap().expect("response frame");
        assert_eq!(ok.kind, FrameKind::Response, "tag {tag}");
        assert_eq!(ok.corr_id, corr_id + 100);
        assert_eq!(wire::decode_values(&ok.payload).unwrap(), vec![Value::Int(5)]);
    }
}

fn batch_tolerates_per_request_query_errors(io: IoModel) {
    // A query error in the middle of a batch fails that slot only; the
    // surrounding requests still answer, and the connection stays up.
    let server = default_server(io);
    let pool = NetPool::connect(
        server.local_addr(),
        ClientConfig { connections: 1, ..Default::default() },
    )
    .unwrap();
    let batch = vec![
        Traversal::v(p(1)).values(PropKey::Id),
        Traversal::v(p(1)).values(PropKey::FirstName).out_any(), // Exec error
        Traversal::v(p(2)).values(PropKey::Id),
    ];
    let results = pool.submit_batch(&batch).unwrap();
    assert_eq!(results[0], Ok(vec![Value::Int(1)]));
    assert!(matches!(results[1], Err(SnbError::Exec(_))), "{:?}", results[1]);
    assert_eq!(results[2], Ok(vec![Value::Int(2)]));
    // Connection still healthy.
    assert_eq!(pool.submit(&Traversal::v(p(3)).count()).unwrap(), vec![Value::Int(1)]);
}
