//! What a forward costs on the wire: the bytes each request puts on one
//! keep-alive connection to a real server, when every message is coded
//! against the one the connection carried before it.

mod fixture;

use std::sync::{Arc, Mutex};

use fixture::{notification_via, payload_text, subscriber_granted, Capture, SUBSCRIBER};
use wsg_http::server::{HttpServerConfig, Service, SoapHttpServer, SoapReply, NODE_HEADER};
use wsg_http::{HttpClientConfig, SoapHttpClient};
use wsg_net::{NodeId, Pcg32, Protocol};
use wsg_obs::Registry;

/// What a disseminator granted all five of its peers forwards to `to` of
/// the first `count` publications of `bytes` bytes it receives.
fn forwards_to(to: NodeId, count: u64, bytes: usize) -> Vec<String> {
    let mut ctx = Capture { me: SUBSCRIBER, rng: Pcg32::new(7, 7), sent: Vec::new() };
    let peers = [3, 4, 5, 6, 7].map(NodeId);
    let mut node = subscriber_granted(peers.len(), peers.into_iter(), &mut ctx);
    (0..count)
        .map(|seq| {
            ctx.sent.clear();
            let first = notification_via(NodeId(1), NodeId(1), seq, bytes);
            node.on_message(NodeId(1), first, &mut ctx);
            let (_, forward) =
                ctx.sent.iter().find(|(peer, _)| *peer == to).expect("fanout 5 of 5");
            forward.clone()
        })
        .collect()
}

/// The bytes each of `forwards` puts on one keep-alive connection to a
/// real server, one forward per POST — as a fleet under light load sends
/// them — checking that the server unwraps every one as it was sent.
fn bytes_per_request(forwards: &[String]) -> Vec<u64> {
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

    let mut requests = Vec::new();
    for forward in forwards {
        let before = bytes_in.get();
        let message = std::iter::once((None, forward.as_str()));
        let outcome = client.post_batch(server.local_addr(), "/gossip", &node, message);
        assert_eq!(outcome.expect("delivered").response.status, 202);
        // The server counts what it reads before it answers.
        requests.push(bytes_in.get() - before);
    }
    server.shutdown();
    assert_eq!(*received.lock().expect("not poisoned"), forwards);
    requests
}

#[test]
fn a_forward_after_the_first_on_a_connection_is_what_it_adds() {
    let forwards = forwards_to(NodeId(4), 12, 256);
    let requests = bytes_per_request(&forwards);
    // The first says everything: the 1 424-byte envelope, the HTTP head
    // (120 bytes: request line, `Content-Length`, `Host`, `Content-Type`,
    // `X-WSG-Node` — no `SOAPAction`, no `charset`), and the batch
    // wrapper less the envelope's declaration: the envelope is one literal
    // run, so its `Msg` adds ` ops="…"`, the CDATA delimiters and one split
    // `]]>`. Measured 1 621, the envelope + 197.
    let whole = forwards[0].len() as u64;
    assert!((whole + 120..whole + 200).contains(&requests[0]), "{requests:?} (envelope {whole})");
    // Every later one copies its envelope markup out of the one before it
    // in four copies — the ~900 bytes up to the `wsg:Seq` value, the tags
    // up to the `MessageID` value, those up to the payload, the closing
    // tail — and says the rest: the sequence number, the `MessageID`'s
    // 45 bytes, the payload as a 268-byte CDATA section (its `]]>` split
    // across two of the batch's sections) and the op list. Measured 594
    // per request: the HTTP head 120, the wrapper 58 and the `Msg` 416 (the
    // envelope alone is 1 424).
    assert!(requests[1..].iter().all(|&bytes| bytes <= 600), "{requests:?}");
    assert!(requests[1..].iter().all(|&bytes| bytes + 950 <= requests[0]), "{requests:?}");
}

#[test]
fn a_16_kib_forward_after_the_first_is_its_payload_and_a_fixed_cost() {
    let forwards = forwards_to(NodeId(4), 6, 16 * 1024);
    let requests = bytes_per_request(&forwards);
    // The payload escaping would grow travels as one CDATA section...
    let payload = format!("<![CDATA[{}]]>", payload_text(16 * 1024));
    assert!(forwards.iter().all(|forward| forward.contains(&payload)));
    let cdata = payload.len() as u64;
    // ...and a later forward is that section, its `]]>` split (12 bytes),
    // and what a 256-byte forward costs around its payload: the head, the
    // wrapper, the op list and the values the two do not share. Measured
    // 16 727 per request (CDATA + 331); the first, which copies nothing,
    // 17 751.
    let whole = forwards[0].len() as u64;
    assert!(requests[0] >= whole + 120, "{requests:?} (envelope {whole})");
    assert!(requests[1..].iter().all(|&bytes| bytes <= cdata + 350), "{requests:?} (CDATA {cdata})");
}
