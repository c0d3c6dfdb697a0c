//! End-to-end protocol tests over real sockets: an in-process server,
//! the spec client, and raw frames for the violations a well-behaved
//! client cannot produce. Together with the dispatcher unit tests in
//! `src/server.rs`, every opcode and error code of `docs/PROTOCOL.md`
//! is exercised.

use facepoint_bench::transform_closure_workload as workload;
use facepoint_core::wire::Record;
use facepoint_core::{signature_key, Classifier};
use facepoint_engine::{Engine, EngineConfig};
use facepoint_serve::proto::{self, Status};
use facepoint_serve::{Client, ProtoError, Server, ServerConfig, ShutdownHandle};
use facepoint_sig::SignatureSet;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const DRAIN: Duration = Duration::from_secs(30);

fn spawn_server(
    cfg: EngineConfig,
) -> (
    SocketAddr,
    ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<Option<facepoint_engine::EngineReport>>>,
) {
    let engine = Engine::builder().config(cfg).build().unwrap();
    let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle();
    let run = std::thread::spawn(move || server.run());
    (addr, handle, run)
}

#[test]
fn full_session_matches_one_shot_classifier() {
    let fns = workload(5, 12, 8, 0xBEEF);
    let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
    let (addr, handle, run) = spawn_server(EngineConfig {
        workers: 2,
        chunk_size: 16,
        cache_capacity: 1 << 12,
        ..EngineConfig::default()
    });

    let mut client = Client::connect(addr).unwrap();
    let info = client.server_info().clone();
    assert_eq!(info.version, proto::PROTO_VERSION);
    assert_eq!(info.set, SignatureSet::all().to_string());
    assert!(!info.persistent);
    client.ping().unwrap();

    // One single submit, then the rest in batches.
    let lines: Vec<String> = fns
        .iter()
        .map(|f| format!("{}:{}", f.num_vars(), f.to_hex()))
        .collect();
    let seq = client.submit(&lines[0]).unwrap();
    assert_eq!(seq, 0);
    let mut next = 1;
    for chunk in lines[1..].chunks(17) {
        let (first, count) = client
            .submit_batch(chunk.iter().map(String::as_str))
            .unwrap();
        assert_eq!(first, next);
        assert_eq!(count, chunk.len() as u64);
        next += count;
    }
    let snap = client.wait_drained(DRAIN).unwrap();
    assert_eq!(snap.submitted, lines.len() as u64);
    assert_eq!(snap.processed, snap.submitted);
    assert_eq!(snap.backlog, 0);
    assert_eq!(snap.classes as usize, expected.num_classes());

    // TOP agrees with the one-shot partition: same keys, same sizes.
    let top = client.top(usize::MAX).unwrap();
    assert_eq!(top.len(), expected.num_classes());
    assert!(top.windows(2).all(|w| w[0].size >= w[1].size));
    let mut expected_sizes: Vec<(u128, u64)> = expected
        .classes()
        .iter()
        .map(|c| {
            (
                signature_key(c.representative(), SignatureSet::all()),
                c.size() as u64,
            )
        })
        .collect();
    let mut got_sizes: Vec<(u128, u64)> = top.iter().map(|c| (c.key, c.size)).collect();
    expected_sizes.sort_unstable();
    got_sizes.sort_unstable();
    assert_eq!(got_sizes, expected_sizes);
    // Representatives round-trip through the table grammar and carry
    // their own class key.
    for class in &top {
        let rep = proto::parse_table_line(&class.representative).unwrap();
        assert_eq!(signature_key(&rep, SignatureSet::all()), class.key);
    }

    let stats = client.stats().unwrap();
    assert!(stats.contains("workers"), "{stats}");
    assert_eq!(client.flush().unwrap(), 0); // in-memory: no barriers
    client.quit().unwrap();

    // Graceful shutdown returns the same census as the wire reported.
    handle.shutdown();
    let report = run.join().unwrap().unwrap().expect("engine report");
    assert_eq!(report.classification.num_classes(), expected.num_classes());
    assert_eq!(
        report.stats.functions_processed,
        expected.num_functions() as u64
    );
}

#[test]
fn error_replies_over_the_wire() {
    let (addr, handle, run) = spawn_server(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });

    // A spec client turns error statuses into typed errors.
    let mut client = Client::connect(addr).unwrap();
    match client.submit("zzz") {
        Err(ProtoError::Remote { status, message }) => {
            assert_eq!(status, Some(Status::Table));
            assert!(!message.is_empty());
        }
        other => panic!("expected ETABLE, got {other:?}"),
    }
    // The connection survives an ETABLE and keeps serving.
    client.ping().unwrap();
    client.quit().unwrap();

    // Raw frames: a version the server does not speak.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    proto::write_request(&mut writer, "HELLO 99").unwrap();
    writer.flush().unwrap();
    match proto::read_record(&mut reader).unwrap() {
        Some(Record::Response { status, body }) => {
            assert_eq!(status, Status::Version.code());
            assert!(body.contains("version 1"), "{body}");
        }
        other => panic!("expected EVERSION, got {other:?}"),
    }
    // EVERSION closes the connection.
    assert!(matches!(proto::read_record(&mut reader), Ok(None) | Err(_)));

    // Raw frames: an opcode before HELLO.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    proto::write_request(&mut writer, "STATS").unwrap();
    writer.flush().unwrap();
    match proto::read_record(&mut reader).unwrap() {
        Some(Record::Response { status, .. }) => assert_eq!(status, Status::Proto.code()),
        other => panic!("expected EPROTO, got {other:?}"),
    }

    // Raw frames: a CRC-valid frame of a non-request kind.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer
        .write_all(&Record::Bump { key: 7 }.to_frame())
        .unwrap();
    writer.flush().unwrap();
    match proto::read_record(&mut reader).unwrap() {
        Some(Record::Response { status, body }) => {
            assert_eq!(status, Status::Proto.code());
            assert!(body.contains("request"), "{body}");
        }
        other => panic!("expected EPROTO, got {other:?}"),
    }
    assert!(matches!(proto::read_record(&mut reader), Ok(None) | Err(_)));

    handle.shutdown();
    run.join().unwrap().unwrap();
}

#[test]
fn concurrent_clients_share_one_census() {
    let fns = workload(4, 8, 6, 0xF00D);
    let expected = Classifier::new(SignatureSet::all()).classify({
        // Both clients send the same stream: class count is unchanged,
        // sizes double.
        let mut doubled = fns.clone();
        doubled.extend(fns.iter().cloned());
        doubled
    });
    let (addr, handle, run) = spawn_server(EngineConfig {
        workers: 2,
        chunk_size: 8,
        ..EngineConfig::default()
    });
    let lines: Vec<String> = fns
        .iter()
        .map(|f| format!("{}:{}", f.num_vars(), f.to_hex()))
        .collect();
    let total = lines.len() as u64;

    let streams: Vec<_> = (0..2)
        .map(|_| {
            let lines = lines.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for chunk in lines.chunks(5) {
                    client
                        .submit_batch(chunk.iter().map(String::as_str))
                        .unwrap();
                }
                client.wait_drained(DRAIN).unwrap();
                client.quit().unwrap();
            })
        })
        .collect();
    for s in streams {
        s.join().unwrap();
    }

    let mut client = Client::connect(addr).unwrap();
    let snap = client.wait_drained(DRAIN).unwrap();
    assert_eq!(snap.submitted, 2 * total);
    assert_eq!(snap.classes as usize, expected.num_classes());
    let top = client.top(usize::MAX).unwrap();
    assert_eq!(
        top.iter().map(|c| c.size).sum::<u64>(),
        expected.num_functions() as u64
    );
    client.quit().unwrap();
    handle.shutdown();
    run.join().unwrap().unwrap();
}

/// A certified server: the census is the *exact* NPN partition, and
/// `CANON` answers with the class's member count and a witness that
/// really maps the query onto the proved representative.
#[test]
fn certified_server_proves_its_census_and_answers_canon() {
    let fns = workload(4, 6, 5, 0xCAFE);
    let expected = facepoint_exact::exact_classify(&fns);
    let (addr, handle, run) = spawn_server(
        EngineConfig::builder()
            .workers(2)
            .chunk_size(8)
            .certified()
            .build(),
    );

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.server_info().resolution, "certified");
    let lines: Vec<String> = fns
        .iter()
        .map(|f| format!("{}:{}", f.num_vars(), f.to_hex()))
        .collect();
    client
        .submit_batch(lines.iter().map(String::as_str))
        .unwrap();
    client.wait_drained(DRAIN).unwrap();

    // The served census is the exact partition, not just a digest one.
    let snap = client.snapshot().unwrap();
    assert_eq!(snap.classes as usize, expected.num_classes());

    // CANON per member: same exact class <=> same key, the size is the
    // class's member count, and the witness actually works.
    let mut key_by_label = std::collections::HashMap::new();
    for (i, line) in lines.iter().enumerate() {
        let reply = client.canon(line).unwrap();
        let label = expected.label(i);
        let class_size = expected.labels().iter().filter(|&&l| l == label).count() as u64;
        assert_eq!(reply.size, class_size, "member {i}: {reply:?}");
        assert_eq!(
            *key_by_label.entry(label).or_insert(reply.key),
            reply.key,
            "member {i} disagrees with its class on the key"
        );
        let rep = proto::parse_table_line(&reply.representative).unwrap();
        let perm: Vec<usize> = reply.perm.iter().map(|&v| v as usize).collect();
        let witness = facepoint_truth::NpnTransform::new(
            facepoint_truth::Permutation::from_slice(&perm).unwrap(),
            reply.neg,
            reply.out,
        );
        assert_eq!(witness.apply(&fns[i]), rep, "member {i}: witness is bogus");
    }
    assert_eq!(key_by_label.len(), expected.num_classes());

    client.quit().unwrap();
    handle.shutdown();
    let report = run.join().unwrap().unwrap().expect("engine report");
    assert_eq!(report.classification.num_classes(), expected.num_classes());
}

/// Regression: a [`ShutdownHandle`] still alive after [`Server::run`]
/// returns must not keep the durable store's advisory lock, or an
/// embedding process could never reopen its own census directory.
#[test]
fn live_shutdown_handle_does_not_pin_the_store_lock() {
    let dir = std::env::temp_dir().join(format!("facepoint-serve-handle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        Engine::builder()
            .config(EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            })
            .persist(&dir)
            .build()
    };
    let server = Server::bind("127.0.0.1:0", open().unwrap(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle();
    let run = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).unwrap();
    client.submit("3:e8").unwrap();
    client.wait_drained(DRAIN).unwrap();
    // Hang up first: `run` joins every connection thread before it
    // returns.
    drop(client);
    handle.shutdown();
    let report = run.join().unwrap().unwrap().unwrap();
    assert_eq!(report.stats.functions_processed, 1);

    // `handle` is still alive here.
    let reopened = open();
    assert!(
        reopened.is_ok(),
        "reopen refused while a shutdown handle is alive: {:?}",
        reopened.err()
    );
    let report = reopened.unwrap().finish();
    assert_eq!(report.stats.recovered_members, 1);
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}
