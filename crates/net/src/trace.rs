//! Structured tracing of network-level events.

use crate::protocol::NodeId;
use crate::time::SimTime;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A message was handed to the network.
    Send,
    /// A message was delivered to its destination.
    Deliver,
    /// A message was dropped by the loss model.
    DropLoss,
    /// A message was discarded because the destination had crashed.
    DropCrashed,
    /// A message was discarded because source and destination are in
    /// different partitions.
    DropPartitioned,
    /// A message was duplicated by the network.
    Duplicate,
    /// A timer fired.
    TimerFired,
}

impl TraceKind {
    /// Fixed-width log label for this kind.
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::Send => "SEND",
            TraceKind::Deliver => "DELIVER",
            TraceKind::DropLoss => "DROPLOSS",
            TraceKind::DropCrashed => "DROPCRASHED",
            TraceKind::DropPartitioned => "DROPPARTITIONED",
            TraceKind::Duplicate => "DUPLICATE",
            TraceKind::TimerFired => "TIMER",
        }
    }
}

/// One trace record. `label` is produced by the run's label function (for
/// message-bearing events) so traces stay readable without making the
/// tracer generic over the message type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// What happened.
    pub kind: TraceKind,
    /// Sending node (or the node whose timer fired).
    pub from: NodeId,
    /// Receiving node (or the node whose timer fired).
    pub to: NodeId,
    /// Human-readable message label (empty for timer events).
    pub label: String,
}

impl TraceEvent {
    /// Render as a single log line.
    pub fn to_line(&self) -> String {
        let kind = self.kind.label();
        match self.kind {
            TraceKind::TimerFired => format!("{} {kind:<10} {}", self.time, self.to),
            _ => format!(
                "{} {kind:<10} {} -> {} : {}",
                self.time, self.from, self.to, self.label
            ),
        }
    }
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_line())
    }
}

/// A sink receiving trace events; installed on the simulator with
/// [`crate::sim::SimNet::set_tracer`].
pub(crate) type Tracer = Box<dyn FnMut(&TraceEvent)>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rendering() {
        let ev = TraceEvent {
            time: SimTime::from_millis(5),
            kind: TraceKind::Send,
            from: NodeId(0),
            to: NodeId(3),
            label: "Notify(seq=1)".into(),
        };
        let line = ev.to_line();
        assert!(line.contains("SEND"));
        assert!(line.contains("n0 -> n3"));
        assert!(line.contains("Notify(seq=1)"));
    }

    #[test]
    fn timer_rendering() {
        let ev = TraceEvent {
            time: SimTime::ZERO,
            kind: TraceKind::TimerFired,
            from: NodeId(2),
            to: NodeId(2),
            label: String::new(),
        };
        assert!(ev.to_line().contains("TIMER"));
        // Byte-identical to the historical rendering: "TIMER" padded to
        // ten columns plus the separator space before the node id.
        assert_eq!(ev.to_line(), "0.000000s TIMER      n2");
    }

    #[test]
    fn display_delegates_to_to_line() {
        for kind in [
            TraceKind::Send,
            TraceKind::Deliver,
            TraceKind::DropLoss,
            TraceKind::DropCrashed,
            TraceKind::DropPartitioned,
            TraceKind::Duplicate,
            TraceKind::TimerFired,
        ] {
            let ev = TraceEvent {
                time: SimTime::from_millis(7),
                kind,
                from: NodeId(1),
                to: NodeId(4),
                label: "x".into(),
            };
            assert_eq!(format!("{ev}"), ev.to_line());
            // Every label matches the uppercased Debug name except the
            // historical TIMER shorthand.
            if kind != TraceKind::TimerFired {
                assert_eq!(kind.label(), format!("{kind:?}").to_uppercase());
            }
        }
    }
}
