//! The discrete-event WAN model.
//!
//! Nodes represent hosts (gateways, NJS machines, user workstations); links
//! carry messages with a store-and-forward timing model:
//!
//! ```text
//! delivery = max(now, link.busy_until) + size / bandwidth + latency + jitter
//! ```
//!
//! Links serialise messages (FIFO per link direction), so a bulk transfer
//! ahead of you delays your message — exactly the effect the paper's §5.6
//! worries about for gateway-relayed file transfers. Loss is Bernoulli per
//! message; firewall rules refuse traffic to non-open ports, modelling the
//! paper's firewall-split deployment (§5.2).

use crate::error::NetError;
use crate::faults::{FaultKind, LinkFault};
use std::collections::HashMap;
use unicore_crypto::rng::CryptoRng;
use unicore_sim::{EventQueue, SimTime, SEC};

/// Identifies a node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Link quality parameters for one direction.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// One-way propagation latency in ticks.
    pub latency: SimTime,
    /// Bandwidth in bytes per simulated second.
    pub bandwidth: u64,
    /// Probability a message is lost (0.0 ..= 1.0).
    pub loss: f64,
    /// Maximum absolute jitter added to latency, in ticks.
    pub jitter: SimTime,
}

impl LinkParams {
    /// A clean LAN-ish link: 0.2 ms, 100 MB/s, lossless.
    pub fn lan() -> Self {
        LinkParams {
            latency: 200,
            bandwidth: 100_000_000,
            loss: 0.0,
            jitter: 0,
        }
    }

    /// A 1999-era German research WAN (B-WiN) link: 15 ms, ~4 MB/s.
    pub fn wan_1999() -> Self {
        LinkParams {
            latency: 15_000,
            bandwidth: 4_000_000,
            loss: 0.0,
            jitter: 2_000,
        }
    }

    /// Adds loss to an existing profile.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Transmission (serialisation) delay for `size` bytes.
    pub fn tx_time(&self, size: usize) -> SimTime {
        if self.bandwidth == 0 {
            return SimTime::MAX / 4;
        }
        (size as u128 * SEC as u128 / self.bandwidth as u128) as SimTime
    }
}

/// A message in flight or delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sender.
    pub src: NodeId,
    /// Destination.
    pub dst: NodeId,
    /// Destination port (checked against the firewall).
    pub port: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Per-node firewall policy.
#[derive(Debug, Clone, Default)]
pub enum Firewall {
    /// All ports open (default).
    #[default]
    Open,
    /// Only the listed ports accept traffic.
    AllowList(Vec<u16>),
}

impl Firewall {
    fn allows(&self, port: u16) -> bool {
        match self {
            Firewall::Open => true,
            Firewall::AllowList(ports) => ports.contains(&port),
        }
    }
}

struct Node {
    name: String,
    firewall: Firewall,
    inbox: Vec<(SimTime, Message)>,
}

struct Link {
    params: LinkParams,
    busy_until: SimTime,
}

/// Delivery event carried in the event queue.
struct InFlight {
    message: Message,
    lost: bool,
}

/// Installed link-fault rules with their dedicated RNG (kept apart from
/// the network's base RNG so fault decisions never perturb jitter/loss
/// draws — an empty rule set behaves byte-identically to none).
struct InstalledFaults {
    rules: Vec<LinkFault>,
    rng: CryptoRng,
}

/// The simulated network.
pub struct Network {
    nodes: Vec<Node>,
    links: HashMap<(NodeId, NodeId), Link>,
    queue: EventQueue<InFlight>,
    rng: CryptoRng,
    faults: Option<InstalledFaults>,
}

impl Network {
    /// An empty network with the given RNG seed (loss/jitter draws).
    pub fn new(seed: u64) -> Self {
        Network {
            nodes: Vec::new(),
            links: HashMap::new(),
            queue: EventQueue::new(),
            rng: CryptoRng::from_u64(seed).fork("simnet"),
            faults: None,
        }
    }

    /// Installs seeded link-fault rules (see [`crate::FaultPlan`]); any
    /// previously installed rules are replaced. Rules are evaluated in
    /// order on every send, drawing from their own `seed`-derived RNG.
    pub fn install_link_faults(&mut self, rules: Vec<LinkFault>, seed: u64) {
        self.faults = Some(InstalledFaults {
            rules,
            rng: CryptoRng::from_u64(seed).fork("simnet-faults"),
        });
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            name: name.into(),
            firewall: Firewall::Open,
            inbox: Vec::new(),
        });
        id
    }

    /// Installs a firewall policy on `node`.
    pub fn set_firewall(&mut self, node: NodeId, firewall: Firewall) {
        self.nodes[node.0 as usize].firewall = firewall;
    }

    /// Connects `a → b` with `params` (one direction).
    pub fn add_link(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.links.insert(
            (a, b),
            Link {
                params,
                busy_until: 0,
            },
        );
    }

    /// Connects both directions with the same parameters.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.add_link(a, b, params);
        self.add_link(b, a, params);
    }

    /// Sends a message now; returns the scheduled delivery time (loss is
    /// decided at send time but only visible via statistics).
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        port: u16,
        payload: Vec<u8>,
    ) -> Result<SimTime, NetError> {
        if dst.0 as usize >= self.nodes.len() {
            return Err(NetError::UnknownNode(format!("node #{}", dst.0)));
        }
        let dst_node = &self.nodes[dst.0 as usize];
        if !dst_node.firewall.allows(port) {
            return Err(NetError::FirewallBlocked {
                node: dst_node.name.clone(),
                port,
            });
        }
        let link = self
            .links
            .get_mut(&(src, dst))
            .ok_or_else(|| NetError::NoRoute {
                from: self.nodes[src.0 as usize].name.clone(),
                to: self.nodes[dst.0 as usize].name.clone(),
            })?;

        let start = link.busy_until.max(self.queue.now());
        let tx = link.params.tx_time(payload.len());
        let jitter = if link.params.jitter > 0 {
            self.rng.next_below(link.params.jitter)
        } else {
            0
        };
        let mut deliver_at = start + tx + link.params.latency + jitter;
        link.busy_until = start + tx;
        let mut lost = link.params.loss > 0.0 && self.rng.next_f64() < link.params.loss;
        let link_latency = link.params.latency;

        // Installed fault rules, evaluated in order. Decisions draw from
        // the plan's own RNG, so the base loss/jitter stream above is
        // untouched whether or not a plan is installed.
        let mut duplicate_at = None;
        if let Some(f) = &mut self.faults {
            let now = self.queue.now();
            for rule in &f.rules {
                if !rule.matches(src, dst, now) {
                    continue;
                }
                match rule.kind {
                    FaultKind::Drop { probability } => {
                        if f.rng.next_f64() < probability {
                            lost = true;
                        }
                    }
                    FaultKind::Duplicate { probability } => {
                        if f.rng.next_f64() < probability {
                            let extra = 1 + f.rng.next_below(link_latency.max(1));
                            duplicate_at = Some(deliver_at + extra);
                        }
                    }
                    FaultKind::Reorder {
                        probability,
                        max_delay,
                    } => {
                        if f.rng.next_f64() < probability {
                            deliver_at += 1 + f.rng.next_below(max_delay.max(1));
                        }
                    }
                }
            }
        }
        if let Some(at) = duplicate_at {
            if !lost {
                self.queue.schedule_at(
                    at,
                    InFlight {
                        message: Message {
                            src,
                            dst,
                            port,
                            payload: payload.clone(),
                        },
                        lost: false,
                    },
                );
            }
        }
        self.queue.schedule_at(
            deliver_at,
            InFlight {
                message: Message {
                    src,
                    dst,
                    port,
                    payload,
                },
                lost,
            },
        );
        Ok(deliver_at)
    }

    /// Time of the next pending delivery (including lost messages, whose
    /// "delivery" is a silent drop).
    pub fn next_delivery_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Runs the network until `deadline`, delivering due messages to node
    /// inboxes. Returns the number of deliveries made.
    pub fn run_until(&mut self, deadline: SimTime) -> usize {
        let mut delivered = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            let (time, event) = self.queue.pop().expect("peeked event exists");
            if !event.lost {
                self.nodes[event.message.dst.0 as usize]
                    .inbox
                    .push((time, event.message));
                delivered += 1;
            }
        }
        if self.queue.now() < deadline {
            self.queue.advance_to(deadline);
        }
        delivered
    }

    /// Runs until no messages remain in flight; returns the final time.
    #[cfg(test)]
    fn run_to_quiescence(&mut self) -> SimTime {
        while let Some((time, event)) = self.queue.pop() {
            if !event.lost {
                self.nodes[event.message.dst.0 as usize]
                    .inbox
                    .push((time, event.message));
            }
        }
        self.queue.now()
    }

    /// Drains the inbox of `node`, returning `(delivery_time, message)`
    /// pairs in delivery order.
    pub fn drain_inbox(&mut self, node: NodeId) -> Vec<(SimTime, Message)> {
        std::mem::take(&mut self.nodes[node.0 as usize].inbox)
    }

    /// Replaces the parameters of the `a → b` link entirely. Returns false
    /// when no such link exists.
    pub fn set_link_params(&mut self, a: NodeId, b: NodeId, params: LinkParams) -> bool {
        match self.links.get_mut(&(a, b)) {
            Some(link) => {
                link.params = params;
                true
            }
            None => false,
        }
    }

    /// Changes the loss rate of the `a → b` link (e.g. 1.0 to sever it —
    /// partitions for robustness experiments). Returns false when no such
    /// link exists.
    pub fn set_link_loss(&mut self, a: NodeId, b: NodeId, loss: f64) -> bool {
        match self.links.get_mut(&(a, b)) {
            Some(link) => {
                link.params.loss = loss;
                true
            }
            None => false,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_net(params: LinkParams) -> (Network, NodeId, NodeId) {
        let mut net = Network::new(1);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.add_duplex(a, b, params);
        (net, a, b)
    }

    #[test]
    fn delivery_includes_latency_and_tx_time() {
        let params = LinkParams {
            latency: 1_000,
            bandwidth: 1_000_000, // 1 MB per simulated second
            loss: 0.0,
            jitter: 0,
        };
        let (mut net, a, b) = two_node_net(params);
        // 1 MB payload: tx = 1 s.
        let t = net.send(a, b, 80, vec![0u8; 1_000_000]).unwrap();
        assert_eq!(t, SEC + 1_000);
        net.run_to_quiescence();
        let inbox = net.drain_inbox(b);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].0, SEC + 1_000);
        assert_eq!(inbox[0].1.payload.len(), 1_000_000);
    }

    #[test]
    fn link_serialises_messages() {
        let params = LinkParams {
            latency: 0,
            bandwidth: 1_000_000,
            loss: 0.0,
            jitter: 0,
        };
        let (mut net, a, b) = two_node_net(params);
        // Two 0.5 MB messages: the second waits for the first's tx.
        let t1 = net.send(a, b, 80, vec![0u8; 500_000]).unwrap();
        let t2 = net.send(a, b, 80, vec![0u8; 500_000]).unwrap();
        assert_eq!(t1, SEC / 2);
        assert_eq!(t2, SEC);
    }

    #[test]
    fn reverse_direction_is_independent() {
        let params = LinkParams {
            latency: 0,
            bandwidth: 1_000_000,
            loss: 0.0,
            jitter: 0,
        };
        let (mut net, a, b) = two_node_net(params);
        net.send(a, b, 80, vec![0u8; 500_000]).unwrap();
        let t_rev = net.send(b, a, 80, vec![0u8; 500_000]).unwrap();
        // Not delayed by the forward transfer.
        assert_eq!(t_rev, SEC / 2);
    }

    #[test]
    fn no_route_error() {
        let mut net = Network::new(1);
        let a = net.add_node("a");
        let b = net.add_node("b");
        assert!(matches!(
            net.send(a, b, 80, vec![]),
            Err(NetError::NoRoute { .. })
        ));
    }

    #[test]
    fn firewall_blocks_unlisted_port() {
        let (mut net, a, b) = two_node_net(LinkParams::lan());
        net.set_firewall(b, Firewall::AllowList(vec![4433]));
        assert!(matches!(
            net.send(a, b, 80, vec![1]),
            Err(NetError::FirewallBlocked { .. })
        ));
        // The allowed port passes.
        net.send(a, b, 4433, vec![1]).unwrap();
        net.run_to_quiescence();
        assert_eq!(net.drain_inbox(b).len(), 1);
    }

    #[test]
    fn loss_drops_messages() {
        let params = LinkParams::lan().with_loss(1.0);
        let (mut net, a, b) = two_node_net(params);
        net.send(a, b, 80, vec![1]).unwrap();
        net.run_to_quiescence();
        assert!(net.drain_inbox(b).is_empty());
    }

    #[test]
    fn partial_loss_statistics() {
        let params = LinkParams::lan().with_loss(0.5);
        let (mut net, a, b) = two_node_net(params);
        for _ in 0..1000 {
            net.send(a, b, 80, vec![0]).unwrap();
        }
        net.run_to_quiescence();
        let dropped = 1000 - net.drain_inbox(b).len();
        // Within generous bounds of the 50% loss rate.
        assert!(dropped > 350 && dropped < 650, "{dropped} dropped");
    }

    #[test]
    fn run_until_delivers_only_due_messages() {
        let params = LinkParams {
            latency: 10_000,
            bandwidth: u64::MAX / 2,
            loss: 0.0,
            jitter: 0,
        };
        let (mut net, a, b) = two_node_net(params);
        net.send(a, b, 1, vec![1]).unwrap();
        let delivered = net.run_until(5_000);
        assert_eq!(delivered, 0);
        assert_eq!(net.now(), 5_000);
        let delivered = net.run_until(20_000);
        assert_eq!(delivered, 1);
        assert_eq!(net.drain_inbox(b).len(), 1);
    }

    #[test]
    fn determinism_per_seed() {
        let mk = || {
            let params = LinkParams::wan_1999().with_loss(0.1);
            let mut net = Network::new(42);
            let a = net.add_node("a");
            let b = net.add_node("b");
            net.add_duplex(a, b, params);
            let mut times = Vec::new();
            for i in 0..50 {
                times.push(net.send(a, b, 1, vec![i as u8; 100]).unwrap());
            }
            net.run_to_quiescence();
            (times, net.drain_inbox(b))
        };
        assert_eq!(mk(), mk());
    }

    fn all_links_fault(kind: FaultKind) -> Vec<LinkFault> {
        vec![LinkFault {
            link: None,
            from: 0,
            until: SimTime::MAX,
            kind,
        }]
    }

    #[test]
    fn fault_drop_window_drops_within_window_only() {
        let (mut net, a, b) = two_node_net(LinkParams::lan());
        net.install_link_faults(
            vec![LinkFault {
                link: Some((a, b)),
                from: 0,
                until: 10_000,
                kind: FaultKind::Drop { probability: 1.0 },
            }],
            7,
        );
        net.send(a, b, 80, vec![1]).unwrap(); // inside the window: dropped
        net.run_until(20_000);
        assert!(net.drain_inbox(b).is_empty());
        net.send(a, b, 80, vec![2]).unwrap(); // window closed: delivered
        net.run_to_quiescence();
        assert_eq!(net.drain_inbox(b).len(), 1);
    }

    #[test]
    fn fault_duplicate_delivers_twice() {
        let (mut net, a, b) = two_node_net(LinkParams::lan());
        net.install_link_faults(
            all_links_fault(FaultKind::Duplicate { probability: 1.0 }),
            7,
        );
        net.send(a, b, 80, vec![9]).unwrap();
        net.run_to_quiescence();
        let inbox = net.drain_inbox(b);
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox[0].1.payload, inbox[1].1.payload);
        assert!(inbox[0].0 < inbox[1].0, "copy arrives strictly later");
    }

    #[test]
    fn fault_reorder_lets_later_send_overtake() {
        let params = LinkParams {
            latency: 100,
            bandwidth: u64::MAX / 2,
            loss: 0.0,
            jitter: 0,
        };
        let (mut net, a, b) = two_node_net(params);
        // Only the first message is reordered (window covers t=0 sends).
        net.install_link_faults(
            vec![LinkFault {
                link: Some((a, b)),
                from: 0,
                until: 1,
                kind: FaultKind::Reorder {
                    probability: 1.0,
                    max_delay: 100_000,
                },
            }],
            7,
        );
        net.send(a, b, 80, vec![1]).unwrap();
        net.run_until(50); // advance past the window
        net.send(a, b, 80, vec![2]).unwrap();
        net.run_to_quiescence();
        let inbox = net.drain_inbox(b);
        assert_eq!(inbox.len(), 2);
        assert_eq!(
            inbox[0].1.payload,
            vec![2],
            "second send overtook the first"
        );
        assert_eq!(inbox[1].1.payload, vec![1]);
    }

    #[test]
    fn faulted_run_replays_byte_for_byte() {
        let mk = || {
            let (mut net, a, b) = two_node_net(LinkParams::wan_1999().with_loss(0.05));
            net.install_link_faults(
                vec![
                    LinkFault {
                        link: None,
                        from: 0,
                        until: SimTime::MAX,
                        kind: FaultKind::Drop { probability: 0.2 },
                    },
                    LinkFault {
                        link: None,
                        from: 0,
                        until: SimTime::MAX,
                        kind: FaultKind::Duplicate { probability: 0.2 },
                    },
                    LinkFault {
                        link: None,
                        from: 0,
                        until: SimTime::MAX,
                        kind: FaultKind::Reorder {
                            probability: 0.2,
                            max_delay: 50_000,
                        },
                    },
                ],
                99,
            );
            for i in 0..200u8 {
                net.send(a, b, 1, vec![i; 64]).unwrap();
            }
            net.run_to_quiescence();
            net.drain_inbox(b)
                .into_iter()
                .map(|(t, m)| (t, m.payload))
                .collect::<Vec<(SimTime, Vec<u8>)>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_none() {
        let run = |install: bool| {
            let (mut net, a, b) = two_node_net(LinkParams::wan_1999().with_loss(0.1));
            if install {
                net.install_link_faults(Vec::new(), 5);
            }
            for i in 0..100u8 {
                net.send(a, b, 1, vec![i; 32]).unwrap();
            }
            net.run_to_quiescence();
            net.drain_inbox(b)
                .into_iter()
                .map(|(t, m)| (t, m.payload))
                .collect::<Vec<(SimTime, Vec<u8>)>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn zero_bandwidth_never_delivers_soon() {
        let params = LinkParams {
            latency: 0,
            bandwidth: 0,
            loss: 0.0,
            jitter: 0,
        };
        let (mut net, a, b) = two_node_net(params);
        let t = net.send(a, b, 1, vec![1]).unwrap();
        assert!(t > SimTime::MAX / 8);
    }
}
