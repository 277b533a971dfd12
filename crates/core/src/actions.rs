//! WS-Addressing Action URIs of the WS-Gossip operations — each
//! `WSGOSSIP_NS` + `:` + the operation's name, spelled out because a
//! `const` cannot be concatenated from another (a test holds them to it).

/// Action of a `CreateCoordinationContext` request.
pub(crate) const CREATE_CONTEXT: &str = "urn:ws-gossip:2008:CreateCoordinationContext";

/// Action of a `CreateCoordinationContextResponse`.
pub(crate) const CREATE_CONTEXT_RESPONSE: &str =
    "urn:ws-gossip:2008:CreateCoordinationContextResponse";

/// Action of a `Register` request.
pub(crate) const REGISTER: &str = "urn:ws-gossip:2008:Register";

/// Action of a `RegisterResponse`.
pub const REGISTER_RESPONSE: &str = "urn:ws-gossip:2008:RegisterResponse";

/// Action of a `Subscribe` request.
pub(crate) const SUBSCRIBE: &str = "urn:ws-gossip:2008:Subscribe";

/// Action of a `SubscribeResponse` acknowledgement.
pub(crate) const SUBSCRIBE_RESPONSE: &str = "urn:ws-gossip:2008:SubscribeResponse";

/// Action of an application notification (the `op` of Figure 1).
pub const NOTIFY: &str = "urn:ws-gossip:2008:Notify";

/// Action of an `Unsubscribe` request.
pub(crate) const UNSUBSCRIBE: &str = "urn:ws-gossip:2008:Unsubscribe";

/// Action of a coordinator-to-coordinator state sync (distributed
/// coordinator mode).
pub(crate) const COORDINATOR_SYNC: &str = "urn:ws-gossip:2008:CoordinatorSync";

#[cfg(test)]
mod tests {
    use super::*;
    use wsg_coord::WSGOSSIP_NS;

    #[test]
    fn actions_are_distinct() {
        let all = [
            CREATE_CONTEXT,
            CREATE_CONTEXT_RESPONSE,
            REGISTER,
            REGISTER_RESPONSE,
            SUBSCRIBE,
            SUBSCRIBE_RESPONSE,
            NOTIFY,
            UNSUBSCRIBE,
            COORDINATOR_SYNC,
        ];
        for action in all {
            let operation = action.strip_prefix(WSGOSSIP_NS).and_then(|rest| rest.strip_prefix(':'));
            assert!(operation.is_some_and(|op| !op.is_empty()), "{action} is not in {WSGOSSIP_NS}");
        }
        let unique: std::collections::HashSet<&str> = all.into_iter().collect();
        assert_eq!(unique.len(), all.len());
    }
}
