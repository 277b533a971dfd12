//! The handler chain — the paper's "compliant middleware stack".
//!
//! In WS-Gossip (paper §3) a *Disseminator* is a node whose application is
//! oblivious to gossip: the gossip behaviour lives in "an additional
//! handler, the gossip layer, in the middleware stack, which intercepts the
//! outgoing message and re-routes it to selected destinations". This module
//! provides that stack: an ordered chain of [`Handler`]s through which every
//! message passes in both directions, with handlers able to pass, consume,
//! fault, or intercept-and-reroute.

use wsg_xml::QName;

use crate::envelope::Envelope;
use crate::fault::{Fault, FaultCode};

/// Direction a message is travelling through the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Arriving from the network towards the application.
    Inbound,
    /// Leaving the application towards the network.
    Outbound,
}

/// The message being processed, and what handlers asked to send with it.
#[derive(Debug)]
pub struct MessageContext {
    /// Which way the message is travelling.
    pub direction: Direction,
    /// The message; handlers may mutate it in place.
    pub envelope: Envelope,
    /// Address of the local endpoint processing the message.
    pub local_address: String,
    sends: Vec<Envelope>,
}

impl MessageContext {
    /// A context for a message at `local_address`.
    pub fn new(direction: Direction, envelope: Envelope, local_address: impl Into<String>) -> Self {
        MessageContext {
            direction,
            envelope,
            local_address: local_address.into(),
            sends: Vec::new(),
        }
    }

    /// Emit an additional envelope to be sent to the network once the
    /// chain finishes — the interception/re-routing primitive: the gossip
    /// layer queues copies addressed (via their `To` property) to selected
    /// peers, then either lets the original continue or consumes it.
    pub fn send_envelope(&mut self, envelope: Envelope) {
        self.sends.push(envelope);
    }
}

/// What a handler decided about the message.
#[derive(Debug)]
pub enum HandlerOutcome {
    /// Pass the (possibly mutated) message to the next handler.
    Continue,
    /// The handler consumed the message; stop the chain, nothing is
    /// delivered further (envelopes queued via
    /// [`MessageContext::send_envelope`] are still sent).
    Consumed,
    /// Abort processing with a fault.
    Abort(Fault),
}

/// A middleware handler.
///
/// Handlers are invoked in chain order for outbound messages and in the
/// same order for inbound ones (symmetric stacks keep reasoning simple; the
/// gossip layer works in either position).
pub trait Handler: Send {
    /// Short name used in traces ("gossip", "logging", ...).
    fn name(&self) -> &str;

    /// Process a message travelling through the stack.
    fn process(&mut self, ctx: &mut MessageContext) -> HandlerOutcome;

    /// Whether this handler understands the given header block name, for
    /// SOAP `mustUnderstand` enforcement.
    fn understands(&self, _header: &QName) -> bool {
        false
    }
}

/// How the chain left the original message.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Disposition {
    /// Deliver the message to its natural destination (application for
    /// inbound, network for outbound).
    Deliver(Envelope),
    /// A handler consumed the message.
    Consumed,
    /// Processing aborted with this fault.
    Faulted(Fault),
}

/// Final result of pushing a message through the chain: what happens to
/// the original, plus any envelopes handlers asked to send (re-routed
/// copies, protocol messages such as registrations).
#[derive(Debug)]
pub struct ChainResult {
    /// Fate of the original message.
    pub disposition: Disposition,
    /// Envelopes to hand to the network, in emission order.
    pub sends: Vec<Envelope>,
}

/// An ordered stack of handlers.
///
/// ```
/// use wsg_soap::{HandlerChain, Handler, HandlerOutcome, MessageContext};
/// use wsg_soap::{Envelope, MessageHeaders};
/// use wsg_soap::handler::{ChainResult, Direction};
/// use wsg_xml::Element;
///
/// struct Tag;
/// impl Handler for Tag {
///     fn name(&self) -> &str { "tag" }
///     fn process(&mut self, ctx: &mut MessageContext) -> HandlerOutcome {
///         ctx.envelope.push_header(Element::new("seen"));
///         HandlerOutcome::Continue
///     }
/// }
///
/// let mut chain = HandlerChain::new();
/// chain.push(Box::new(Tag));
/// let env = Envelope::request(MessageHeaders::new(), Element::new("op"));
/// let result = chain.process(Direction::Outbound, env, "http://me");
/// let wsg_soap::handler::Disposition::Deliver(delivered) = result.disposition else {
///     panic!("nothing consumed it");
/// };
/// assert_eq!(delivered.headers().len(), 1);
/// assert!(result.sends.is_empty());
/// ```
#[derive(Default)]
pub struct HandlerChain {
    handlers: Vec<Box<dyn Handler>>,
}

impl std::fmt::Debug for HandlerChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandlerChain")
            .field("handlers", &self.handlers.iter().map(|h| h.name().to_string()).collect::<Vec<_>>())
            .finish()
    }
}

impl HandlerChain {
    /// An empty chain (all messages pass through untouched).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a handler at the end of the chain.
    pub fn push(&mut self, handler: Box<dyn Handler>) {
        self.handlers.push(handler);
    }

    /// Number of installed handlers.
    pub fn len(&self) -> usize {
        self.handlers.len()
    }

    /// Whether the chain has no handlers.
    pub fn is_empty(&self) -> bool {
        self.handlers.is_empty()
    }

    /// Push a message through the chain.
    ///
    /// For [`Direction::Inbound`] messages, SOAP `mustUnderstand` is
    /// enforced first: any header block carrying
    /// `env:mustUnderstand="true"` must be claimed by some handler's
    /// [`Handler::understands`], otherwise the result is a
    /// `MustUnderstand` fault (WS-Addressing blocks are understood
    /// natively).
    pub fn process(
        &mut self,
        direction: Direction,
        envelope: Envelope,
        local_address: impl Into<String>,
    ) -> ChainResult {
        if direction == Direction::Inbound {
            if let Some(fault) = self.check_must_understand(&envelope) {
                return ChainResult {
                    disposition: Disposition::Faulted(fault),
                    sends: Vec::new(),
                };
            }
        }
        let mut ctx = MessageContext::new(direction, envelope, local_address);
        for handler in &mut self.handlers {
            match handler.process(&mut ctx) {
                HandlerOutcome::Continue => {}
                HandlerOutcome::Consumed => {
                    return ChainResult { disposition: Disposition::Consumed, sends: ctx.sends }
                }
                HandlerOutcome::Abort(fault) => {
                    return ChainResult {
                        disposition: Disposition::Faulted(fault),
                        sends: ctx.sends,
                    }
                }
            }
        }
        ChainResult {
            disposition: Disposition::Deliver(ctx.envelope),
            sends: ctx.sends,
        }
    }

    fn check_must_understand(&self, envelope: &Envelope) -> Option<Fault> {
        // The parse recorded which blocks carry the flag: an envelope
        // with none (every gossip message) is not looked into.
        envelope
            .must_understand()
            .find(|header| !self.handlers.iter().any(|h| h.understands(header)))
            .map(|header| {
                Fault::new(FaultCode::MustUnderstand, format!("header {header} not understood"))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addressing::MessageHeaders;
    use crate::SOAP_ENV_NS;
    use wsg_xml::Element;

    fn env() -> Envelope {
        Envelope::request(
            MessageHeaders::request("http://dest", "urn:op"),
            Element::new("op"),
        )
    }

    struct Sink;
    impl Handler for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn process(&mut self, _ctx: &mut MessageContext) -> HandlerOutcome {
            HandlerOutcome::Consumed
        }
    }

    /// Intercepts: queues two re-routed copies and consumes the original.
    struct Splitter;
    impl Handler for Splitter {
        fn name(&self) -> &str {
            "splitter"
        }
        fn process(&mut self, ctx: &mut MessageContext) -> HandlerOutcome {
            for peer in ["http://p1", "http://p2"] {
                let mut copy = ctx.envelope.clone();
                copy.addressing_mut().set_to(peer);
                ctx.send_envelope(copy);
            }
            HandlerOutcome::Consumed
        }
    }

    /// Forks: queues one copy but lets the original continue (the
    /// disseminator pattern: deliver to the app AND forward).
    struct Forker;
    impl Handler for Forker {
        fn name(&self) -> &str {
            "forker"
        }
        fn process(&mut self, ctx: &mut MessageContext) -> HandlerOutcome {
            let mut copy = ctx.envelope.clone();
            copy.addressing_mut().set_to("http://peer");
            ctx.send_envelope(copy);
            HandlerOutcome::Continue
        }
    }

    struct Understands(QName);
    impl Handler for Understands {
        fn name(&self) -> &str {
            "understander"
        }
        fn process(&mut self, _ctx: &mut MessageContext) -> HandlerOutcome {
            HandlerOutcome::Continue
        }
        fn understands(&self, header: &QName) -> bool {
            *header == self.0
        }
    }

    #[test]
    fn empty_chain_delivers() {
        let mut chain = HandlerChain::new();
        let result = chain.process(Direction::Outbound, env(), "http://me");
        assert!(matches!(result.disposition, Disposition::Deliver(_)));
        assert!(result.sends.is_empty());
    }

    #[test]
    fn consumed_stops_chain_but_keeps_sends() {
        let mut chain = HandlerChain::new();
        chain.push(Box::new(Splitter));
        chain.push(Box::new(Sink));
        let result = chain.process(Direction::Outbound, env(), "http://me");
        assert!(matches!(result.disposition, Disposition::Consumed));
        let tos: Vec<_> = result
            .sends
            .iter()
            .map(|e| e.addressing().to().unwrap().to_string())
            .collect();
        assert_eq!(tos, ["http://p1", "http://p2"]);
    }

    #[test]
    fn fork_delivers_and_sends() {
        let mut chain = HandlerChain::new();
        chain.push(Box::new(Forker));
        let result = chain.process(Direction::Inbound, env(), "http://me");
        assert!(matches!(result.disposition, Disposition::Deliver(_)));
        assert_eq!(result.sends.len(), 1);
        assert_eq!(result.sends[0].addressing().to(), Some("http://peer"));
    }

    #[test]
    fn must_understand_faults_without_claimer() {
        let header = Element::in_ns("g", "urn:gossip", "Gossip")
            .with_attr(QName::with_ns(SOAP_ENV_NS, "mustUnderstand").with_prefix("env"), "true");
        let message = env().with_header(header);
        let mut chain = HandlerChain::new();
        let result = chain.process(Direction::Inbound, message, "http://me");
        match result.disposition {
            Disposition::Faulted(f) => assert_eq!(f.code(), FaultCode::MustUnderstand),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn must_understand_satisfied_by_handler() {
        let name = QName::with_ns("urn:gossip", "Gossip");
        let header = Element::in_ns("g", "urn:gossip", "Gossip")
            .with_attr(QName::with_ns(SOAP_ENV_NS, "mustUnderstand").with_prefix("env"), "1");
        let message = env().with_header(header);
        let mut chain = HandlerChain::new();
        chain.push(Box::new(Understands(name)));
        let result = chain.process(Direction::Inbound, message, "http://me");
        assert!(matches!(result.disposition, Disposition::Deliver(_)));
    }

    #[test]
    fn must_understand_not_enforced_outbound() {
        let header = Element::in_ns("g", "urn:gossip", "Gossip")
            .with_attr(QName::with_ns(SOAP_ENV_NS, "mustUnderstand").with_prefix("env"), "true");
        let message = env().with_header(header);
        let mut chain = HandlerChain::new();
        let result = chain.process(Direction::Outbound, message, "http://me");
        assert!(matches!(result.disposition, Disposition::Deliver(_)));
    }

    #[test]
    fn handlers_run_in_order_and_share_the_message() {
        struct Mark;
        impl Handler for Mark {
            fn name(&self) -> &str {
                "mark"
            }
            fn process(&mut self, ctx: &mut MessageContext) -> HandlerOutcome {
                ctx.envelope.push_header(Element::new("marked"));
                HandlerOutcome::Continue
            }
        }
        struct Check;
        impl Handler for Check {
            fn name(&self) -> &str {
                "check"
            }
            fn process(&mut self, ctx: &mut MessageContext) -> HandlerOutcome {
                assert_eq!(ctx.envelope.headers().len(), 1, "the handler before this one ran");
                HandlerOutcome::Consumed
            }
        }
        let mut chain = HandlerChain::new();
        chain.push(Box::new(Mark));
        chain.push(Box::new(Check));
        let result = chain.process(Direction::Inbound, env(), "http://me");
        assert!(matches!(result.disposition, Disposition::Consumed));
    }

    #[test]
    fn abort_reports_fault_and_partial_sends() {
        struct Aborter;
        impl Handler for Aborter {
            fn name(&self) -> &str {
                "aborter"
            }
            fn process(&mut self, ctx: &mut MessageContext) -> HandlerOutcome {
                let copy = ctx.envelope.clone();
                ctx.send_envelope(copy);
                HandlerOutcome::Abort(Fault::new(FaultCode::Receiver, "boom"))
            }
        }
        let mut chain = HandlerChain::new();
        chain.push(Box::new(Aborter));
        let result = chain.process(Direction::Inbound, env(), "http://me");
        assert!(matches!(result.disposition, Disposition::Faulted(_)));
        assert_eq!(result.sends.len(), 1);
    }
}
