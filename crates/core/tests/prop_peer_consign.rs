//! Property tests for peer-consign idempotency: however a peer's
//! `ConsignSubJob` traffic is duplicated and reordered on the wire, each
//! distinct sub-job — identified for all time by (origin, parent, node) —
//! is absorbed by the receiving NJS exactly once, and every duplicate is
//! answered with the same job id as the original.

use proptest::prelude::*;
use std::collections::HashMap;
use unicore::ajo::*;
use unicore::protocol::{Request, Response};
use unicore::UnicoreServer;
use unicore_gateway::{Gateway, UserEntry, Uudb};
use unicore_njs::{ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture};
use unicore_sim::SEC;

const USER_DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=alice";
const PEER_DN: &str = "C=DE, O=RUS, OU=RUS, CN=unicored";

fn build_server() -> UnicoreServer {
    let mut njs = ShardedNjs::new("FZJ", 1, 1);
    njs.add_vsite(
        deployment_page("FZJ", "T3E", Architecture::CrayT3e),
        TranslationTable::for_architecture(Architecture::CrayT3e),
    );
    let mut uudb = Uudb::new();
    uudb.add(USER_DN, UserEntry::new("alice", "users"));
    let mut server = UnicoreServer::new(Gateway::new("FZJ", uudb), njs);
    server.add_peer_server(PEER_DN);
    server
}

fn sub_ajo(node: ActionId) -> AbstractJob {
    let mut job = AbstractJob::new(
        format!("sub-{}", node.0),
        VsiteAddress::new("FZJ", "T3E"),
        UserAttributes::new(USER_DN, "users"),
    );
    job.nodes.push((
        ActionId(1),
        GraphNode::Task(AbstractTask {
            name: "t".into(),
            resources: ResourceRequest::minimal().with_run_time(600),
            kind: TaskKind::Execute(ExecuteKind::Script {
                script: format!("sleep {}\n", 5 + node.0),
            }),
        }),
    ));
    job
}

/// A delivery schedule: for each of `n` distinct sub-jobs, 1–4 wire
/// copies, shuffled into an arbitrary interleaving.
fn schedule_strategy() -> impl Strategy<Value = Vec<u64>> {
    (1usize..5)
        .prop_flat_map(|n| proptest::collection::vec(1u32..5, n))
        .prop_flat_map(|copies| {
            let mut sched = Vec::new();
            for (i, &c) in copies.iter().enumerate() {
                for _ in 0..c {
                    sched.push(i as u64 + 1);
                }
            }
            Just(sched).prop_shuffle()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn duplicated_reordered_peer_consigns_absorb_exactly_once(sched in schedule_strategy()) {
        let mut server = build_server();
        let mut seen: HashMap<u64, JobId> = HashMap::new();
        for (i, &node) in sched.iter().enumerate() {
            let resp = server.handle_request(
                PEER_DN,
                Request::ConsignSubJob {
                    ajo: sub_ajo(ActionId(node)),
                    origin: "RUS".into(),
                    parent: JobId(77),
                    node: ActionId(node),
                    return_files: vec![],
                },
                (i as u64 + 1) * SEC,
            );
            let Response::Consigned { job } = resp else {
                panic!("peer consign refused: {resp:?}");
            };
            // Every copy of the same sub-job lands on the same job id.
            let first = *seen.entry(node).or_insert(job);
            prop_assert_eq!(first, job, "duplicate spawned a second job");
        }
        // Exactly one NJS job per distinct sub-job, no more.
        let distinct: std::collections::HashSet<JobId> = seen.values().copied().collect();
        prop_assert_eq!(distinct.len(), seen.len());
        for job in seen.values() {
            prop_assert!(server.njs().outcome(*job).is_some());
        }
    }

    #[test]
    fn different_subjob_identities_never_collide(
        origin in "[A-Z]{2,4}",
        parent in 1u64..1000,
        nodes in proptest::collection::hash_set(1u64..50, 2..6),
    ) {
        let mut server = build_server();
        let mut ids = Vec::new();
        for (i, &node) in nodes.iter().enumerate() {
            let resp = server.handle_request(
                PEER_DN,
                Request::ConsignSubJob {
                    ajo: sub_ajo(ActionId(node)),
                    origin: origin.clone(),
                    parent: JobId(parent),
                    node: ActionId(node),
                    return_files: vec![],
                },
                (i as u64 + 1) * SEC,
            );
            let Response::Consigned { job } = resp else {
                panic!("peer consign refused: {resp:?}");
            };
            ids.push(job);
        }
        let distinct: std::collections::HashSet<JobId> = ids.iter().copied().collect();
        prop_assert_eq!(distinct.len(), ids.len(), "distinct sub-jobs shared a job id");
    }
}
