//! What a forward costs on the wire: the bytes each request puts on one
//! keep-alive connection to a real server, when every message is
//! front-coded against the one the connection carried before it.

mod fixture;

use std::sync::{Arc, Mutex};

use fixture::{notification_via, subscriber_granted, Capture, SUBSCRIBER};
use wsg_http::server::{HttpServerConfig, Service, SoapHttpServer, SoapReply, NODE_HEADER};
use wsg_http::{HttpClientConfig, SoapHttpClient};
use wsg_net::{NodeId, Pcg32, Protocol};
use wsg_obs::Registry;

/// What a disseminator granted all five of its peers forwards to `to` of
/// the first `count` 256-byte publications it receives.
fn forwards_to(to: NodeId, count: u64) -> Vec<String> {
    let mut ctx = Capture { me: SUBSCRIBER, rng: Pcg32::new(7, 7), sent: Vec::new() };
    let peers = [3, 4, 5, 6, 7].map(NodeId);
    let mut node = subscriber_granted(peers.len(), peers.into_iter(), &mut ctx);
    (0..count)
        .map(|seq| {
            ctx.sent.clear();
            let first = notification_via(NodeId(1), NodeId(1), seq, 256);
            node.on_message(NodeId(1), first, &mut ctx);
            let (_, forward) =
                ctx.sent.iter().find(|(peer, _)| *peer == to).expect("fanout 5 of 5");
            forward.clone()
        })
        .collect()
}

#[test]
fn a_forward_after_the_first_on_a_connection_is_what_it_adds() {
    let forwards = forwards_to(NodeId(4), 12);
    let received = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&received);
    #[allow(clippy::result_large_err)] // the Err size is fixed by the Service signature
    let service: Service = Arc::new(move |request| {
        log.lock().expect("not poisoned").push(request.raw);
        Ok(SoapReply::Accepted)
    });
    let registry = Arc::new(Registry::new());
    let mut server = SoapHttpServer::bind_observed(
        "127.0.0.1:0",
        service,
        HttpServerConfig::default(),
        Arc::clone(&registry),
    )
    .expect("bind loopback");
    let client = SoapHttpClient::new(1, HttpClientConfig::default());
    let node = [(NODE_HEADER.to_string(), SUBSCRIBER.0.to_string())];
    let bytes_in = registry.register_counter("wsg_http_server_bytes_in_total", "");

    // One forward per POST, as a fleet under light load sends them.
    let mut requests = Vec::new();
    for forward in &forwards {
        let before = bytes_in.get();
        let message = std::iter::once((None, [forward.as_str(), "", ""]));
        let outcome = client.post_batch(server.local_addr(), "/gossip", &node, message);
        assert_eq!(outcome.expect("delivered").response.status, 202);
        // The server counts what it reads before it answers.
        requests.push(bytes_in.get() - before);
    }
    server.shutdown();

    assert_eq!(*received.lock().expect("not poisoned"), forwards);
    // The first says everything: the 1 496-byte envelope, the HTTP head
    // (176 bytes) and the batch wrapper (~90).
    let whole = forwards[0].len() as u64;
    assert!((whole + 176..whole + 300).contains(&requests[0]), "{requests:?} (envelope {whole})");
    // Every later one says what it adds to the one before it: the ~900
    // bytes up to `wsg:Seq` are left out, what follows it — the round, the
    // `To` and `MessageID` of the copy, the 347-byte escaped payload —
    // travels (measured 883 per request; a bare POST of it was 1 672).
    assert!(requests[1..].iter().all(|&bytes| bytes <= 900), "{requests:?}");
    assert!(requests[1..].iter().all(|&bytes| bytes + 850 <= requests[0]), "{requests:?}");
}
