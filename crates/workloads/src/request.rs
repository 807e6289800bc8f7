//! Request types shared by the workload generators and the server simulation.

use std::fmt;

use apc_sim::component::ComponentId;
use apc_sim::{SimDuration, SimTime};
use apc_trace::TraceCtx;

/// Unique identifier of a request within one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// The class of work a request represents. The classes map onto the three
/// services the paper evaluates plus a background class for OS housekeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// Memcached GET (ETC workload: ~95 % of operations).
    KvGet,
    /// Memcached SET.
    KvSet,
    /// Kafka produce (append to a partition log).
    Produce,
    /// Kafka consume (fetch from a partition log).
    Consume,
    /// MySQL/sysbench OLTP transaction (multiple point queries + updates).
    OltpTransaction,
    /// Frontend tier of a multi-tier request chain: parses the client
    /// request, fans out to the leaf tier and aggregates the responses.
    Frontend,
    /// OS background activity (timer ticks, kthreads, daemons).
    Background,
}

impl fmt::Display for RequestClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RequestClass::KvGet => "kv-get",
            RequestClass::KvSet => "kv-set",
            RequestClass::Produce => "produce",
            RequestClass::Consume => "consume",
            RequestClass::OltpTransaction => "oltp-txn",
            RequestClass::Frontend => "frontend",
            RequestClass::Background => "background",
        };
        f.write_str(s)
    }
}

impl RequestClass {
    /// `true` for client-visible requests (those whose latency the figures
    /// report). Background work is not latency-accounted.
    #[must_use]
    pub fn is_client_visible(self) -> bool {
        !matches!(self, RequestClass::Background)
    }
}

/// Marks a request as one RPC of a multi-tier request chain: the component
/// that coordinates the chain, and the chain it belongs to.
///
/// A tagged request behaves exactly like an untagged one inside a server
/// (queueing, service, latency accounting); the only difference is that its
/// completion is reported back to `coordinator` so the chain can join its
/// fan-out and issue the next tier. Plain open-loop traffic leaves the tag
/// `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChainTag {
    /// The chain-coordinator component to notify on completion.
    pub coordinator: ComponentId,
    /// The coordinator-local id of the chain this RPC belongs to.
    pub chain: u64,
}

/// A single request as generated by a load generator.
///
/// Requests move by value through the NIC buffer, the run queue and the
/// event queue, so the struct is kept at 64 bytes: the rarely present trace
/// context sits behind a box.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Identifier.
    pub id: RequestId,
    /// Class of work.
    pub class: RequestClass,
    /// When the request arrives at the server NIC.
    pub arrival: SimTime,
    /// CPU service time required on one core.
    pub service: SimDuration,
    /// `Some` when this request is one RPC of a multi-tier request chain
    /// (see [`ChainTag`]); `None` for plain open-loop traffic.
    pub chain: Option<ChainTag>,
    /// `Some` when this request was head-sampled for span tracing: the
    /// trace context components stamp as the request moves through the
    /// pipeline. Purely observational — no simulation decision reads it.
    pub trace: Option<Box<TraceCtx>>,
}

impl Request {
    /// Convenience constructor (untagged open-loop request).
    #[must_use]
    pub fn new(id: RequestId, class: RequestClass, arrival: SimTime, service: SimDuration) -> Self {
        Request {
            id,
            class,
            arrival,
            service,
            chain: None,
            trace: None,
        }
    }

    /// Tags the request as one RPC of a chain.
    #[must_use]
    pub fn with_chain(mut self, tag: ChainTag) -> Self {
        self.chain = Some(tag);
        self
    }

    /// Attaches a sampled trace context.
    #[must_use]
    pub fn with_trace(mut self, ctx: TraceCtx) -> Self {
        self.trace = Some(Box::new(ctx));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_visibility() {
        assert!(RequestClass::KvGet.is_client_visible());
        assert!(RequestClass::OltpTransaction.is_client_visible());
        assert!(!RequestClass::Background.is_client_visible());
        assert_eq!(RequestClass::KvGet.to_string(), "kv-get");
    }

    #[test]
    fn request_construction() {
        let r = Request::new(
            RequestId(7),
            RequestClass::KvSet,
            SimTime::from_micros(10),
            SimDuration::from_micros(20),
        );
        assert_eq!(r.id.to_string(), "req7");
        assert_eq!(r.class, RequestClass::KvSet);
        assert_eq!(r.service, SimDuration::from_micros(20));
        assert_eq!((r.chain, r.trace), (None, None));
    }

    #[test]
    fn request_stays_one_cache_line() {
        assert_eq!(std::mem::size_of::<Request>(), 64);
    }
}
