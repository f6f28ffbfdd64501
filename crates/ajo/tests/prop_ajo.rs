//! Property tests: AJO wire round-trips and job-graph invariants.

use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use unicore_ajo::*;
use unicore_codec::DerCodec;

fn task_strategy() -> impl Strategy<Value = AbstractTask> {
    let kind = prop_oneof![
        (
            "[a-z]{1,8}",
            proptest::collection::vec("[a-z0-9]{1,6}".prop_map(String::from), 0..4)
        )
            .prop_map(|(exe, args)| TaskKind::Execute(ExecuteKind::User {
                executable: exe,
                arguments: args,
                environment: vec![],
            })),
        "[ -~]{0,60}".prop_map(|script| TaskKind::Execute(ExecuteKind::Script { script })),
        (
            proptest::collection::vec("[a-z]{1,8}\\.f90".prop_map(String::from), 1..4),
            "[a-z]{1,8}\\.o"
        )
            .prop_map(|(sources, output)| TaskKind::Execute(ExecuteKind::Compile {
                sources,
                options: vec!["O2".into()],
                output,
            })),
        "[a-z]{1,10}".prop_map(|name| TaskKind::File(FileKind::Import {
            source: DataLocation::Xspace {
                vsite: VsiteAddress::new("FZJ", "T3E"),
                path: format!("/data/{name}"),
            },
            uspace_name: name,
        })),
    ];
    ("[a-z]{1,12}", kind, 1u32..512, 1u64..86_400).prop_map(|(name, kind, procs, time)| {
        AbstractTask {
            name,
            resources: ResourceRequest::minimal()
                .with_processors(procs)
                .with_run_time(time),
            kind,
        }
    })
}

/// A random *valid* DAG job: nodes 0..n, edges only forward (i -> j, i < j).
fn job_strategy() -> impl Strategy<Value = AbstractJob> {
    (
        proptest::collection::vec(task_strategy(), 1..8),
        proptest::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            0..10,
        ),
    )
        .prop_map(|(tasks, raw_edges)| {
            let n = tasks.len();
            let mut job = AbstractJob::new(
                "propjob",
                VsiteAddress::new("FZJ", "T3E"),
                UserAttributes::new("C=DE, O=FZJ, OU=ZAM, CN=prop", "acct"),
            );
            for (i, t) in tasks.into_iter().enumerate() {
                job.nodes.push((ActionId(i as u64), GraphNode::Task(t)));
            }
            let mut seen = HashSet::new();
            for (a, b) in raw_edges {
                let (mut i, mut j) = (a.index(n), b.index(n));
                if i == j {
                    continue;
                }
                if i > j {
                    std::mem::swap(&mut i, &mut j);
                }
                if seen.insert((i, j)) {
                    job.dependencies.push(Dependency {
                        from: ActionId(i as u64),
                        to: ActionId(j as u64),
                        files: vec![],
                    });
                }
            }
            job
        })
}

proptest! {
    #[test]
    fn generated_jobs_validate(job in job_strategy()) {
        prop_assert!(job.validate().is_ok());
    }

    #[test]
    fn der_round_trip(job in job_strategy()) {
        let back = AbstractJob::from_der(&job.to_der()).unwrap();
        prop_assert_eq!(back, job);
    }

    #[test]
    fn topo_order_is_consistent(job in job_strategy()) {
        let order = job.topological_order().unwrap();
        prop_assert_eq!(order.len(), job.nodes.len());
        // Every dependency is respected: from appears before to.
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        for dep in &job.dependencies {
            prop_assert!(pos[&dep.from] < pos[&dep.to]);
        }
    }

    #[test]
    fn ready_nodes_simulation_completes(job in job_strategy()) {
        // Repeatedly completing all ready nodes must drain the graph in at
        // most n rounds.
        let mut done = BTreeSet::new();
        for _ in 0..job.nodes.len() {
            let ready = job.ready_nodes(&done);
            if ready.is_empty() {
                break;
            }
            done.extend(ready);
        }
        prop_assert_eq!(done.len(), job.nodes.len());
    }

    #[test]
    fn reversing_an_edge_in_a_chain_creates_cycle(n in 2usize..6) {
        let mut job = AbstractJob::new(
            "chain",
            VsiteAddress::new("FZJ", "T3E"),
            UserAttributes::new("CN=x", "a"),
        );
        for i in 0..n {
            job.nodes.push((
                ActionId(i as u64),
                GraphNode::Task(AbstractTask {
                    name: format!("t{i}"),
                    resources: ResourceRequest::minimal(),
                    kind: TaskKind::Execute(ExecuteKind::Script { script: "x".into() }),
                }),
            ));
        }
        for i in 1..n {
            job.dependencies.push(Dependency {
                from: ActionId((i - 1) as u64),
                to: ActionId(i as u64),
                files: vec![],
            });
        }
        prop_assert!(job.validate().is_ok());
        // Close the loop.
        job.dependencies.push(Dependency {
            from: ActionId((n - 1) as u64),
            to: ActionId(0),
            files: vec![],
        });
        let is_cycle = matches!(job.validate(), Err(AjoError::CyclicGraph { .. }));
        prop_assert!(is_cycle);
    }
}

#[test]
fn portfolio_payload_der_round_trip_is_byte_identical() {
    // Portfolio payloads are `Arc<[u8]>`: cloning a file shares the
    // allocation, and the DER wire round trip reproduces the bytes
    // exactly (the encoding is unchanged from the `Vec<u8>` era).
    let data: std::sync::Arc<[u8]> = (0u16..=255)
        .cycle()
        .take(10_000)
        .map(|b| b as u8)
        .collect::<Vec<u8>>()
        .into();
    let file = PortfolioFile {
        name: "payload.bin".into(),
        data: data.clone(),
    };
    assert!(std::sync::Arc::ptr_eq(&file.data, &data));

    let mut job = AbstractJob::new(
        "wire",
        VsiteAddress::new("FZJ", "T3E"),
        UserAttributes::new("C=DE, O=FZJ, OU=ZAM, CN=alice", "zam"),
    );
    job.portfolio.push(file);
    let decoded = AbstractJob::from_der(&job.to_der()).unwrap();
    assert_eq!(decoded.portfolio.len(), 1);
    assert_eq!(&decoded.portfolio[0].data[..], &data[..]);
    assert_eq!(decoded.to_der(), job.to_der(), "re-encoding must be stable");
}
