//! Property tests: every protocol envelope round-trips its DER wire form.

use proptest::prelude::*;
use unicore::protocol::{Body, Envelope, OutcomeDelivery, Request, Response};
use unicore_ajo::{
    AbstractJob, AbstractTask, ActionId, ActionStatus, ControlOp, DetailLevel, ExecuteKind,
    GraphNode, JobId, JobOutcome, JobSummary, MonitorReport, OutcomeNode, ResourceRequest,
    ServiceOutcome, TaskKind, TaskOutcome, UserAttributes, VsiteAddress, VsiteHealth,
};
use unicore_codec::DerCodec;
use unicore_telemetry::{
    FlightEvent, HistogramSnapshot, MetricsSnapshot, SpanContext, SpanId, SpanSummary, TraceId,
};

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 _.-]{1,24}"
}

fn trace_strategy() -> impl Strategy<Value = Option<SpanContext>> {
    proptest::option::of(
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(hi, lo, s)| SpanContext {
            trace: TraceId::from_words(hi, lo),
            span: SpanId(s),
        }),
    )
}

/// Ids and counters on the wire are DER INTEGERs: non-negative i64 range.
/// Every allocator in the system (job ids, correlation counters) starts at
/// 1 and increments, so this is the honest domain.
fn id_strategy() -> impl Strategy<Value = u64> {
    0u64..=(i64::MAX as u64)
}

fn job_strategy() -> impl Strategy<Value = AbstractJob> {
    (
        name_strategy(),
        name_strategy(),
        name_strategy(),
        proptest::collection::vec(("[a-z]{1,10}", "[ -~]{0,40}"), 0..5),
    )
        .prop_map(|(name, usite, vsite, tasks)| {
            let mut job = AbstractJob::new(
                name,
                VsiteAddress::new(usite, vsite),
                UserAttributes::new("C=DE, O=p, OU=q, CN=prop", "grp"),
            );
            for (i, (tname, script)) in tasks.into_iter().enumerate() {
                job.nodes.push((
                    ActionId(i as u64),
                    GraphNode::Task(AbstractTask {
                        name: tname,
                        resources: ResourceRequest::minimal(),
                        kind: TaskKind::Execute(ExecuteKind::Script { script }),
                    }),
                ));
            }
            job
        })
}

fn flight_strategy() -> impl Strategy<Value = Vec<FlightEvent>> {
    proptest::collection::vec(
        (id_strategy(), "[a-z.]{1,16}", "[ -~]{0,40}").prop_map(|(at, what, detail)| FlightEvent {
            at,
            what,
            detail,
        }),
        0..4,
    )
}

fn metrics_strategy() -> impl Strategy<Value = MetricsSnapshot> {
    (
        proptest::collection::vec(("[a-z.]{1,16}", id_strategy()), 0..4)
            .prop_map(|kv| kv.into_iter().collect::<std::collections::BTreeMap<_, _>>()),
        proptest::collection::vec(("[a-z.]{1,16}", any::<i64>()), 0..4)
            .prop_map(|kv| kv.into_iter().collect::<std::collections::BTreeMap<_, _>>()),
        proptest::collection::vec(
            (
                "[a-z.]{1,16}",
                id_strategy(),
                id_strategy(),
                proptest::collection::vec((id_strategy(), id_strategy()), 0..4),
            )
                .prop_map(|(name, count, sum, buckets)| HistogramSnapshot {
                    name,
                    count,
                    sum,
                    buckets,
                }),
            0..3,
        ),
    )
        .prop_map(|(counters, gauges, histograms)| MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
}

fn monitor_report_strategy() -> impl Strategy<Value = MonitorReport> {
    (
        name_strategy(),
        metrics_strategy(),
        proptest::collection::vec(
            ("[a-z.]{1,16}", id_strategy(), id_strategy(), id_strategy()).prop_map(
                |(name, count, clock, wall)| SpanSummary {
                    name,
                    count,
                    clock_total: clock,
                    wall_ns_total: wall,
                },
            ),
            0..3,
        ),
        proptest::collection::vec(
            (
                name_strategy(),
                0i64..=i64::MAX,
                0i64..=i64::MAX,
                0i64..=i64::MAX,
                0i64..=i64::MAX,
            )
                .prop_map(|(vsite, free_nodes, queue_length, running, stuck_jobs)| {
                    VsiteHealth {
                        vsite,
                        free_nodes,
                        queue_length,
                        running,
                        stuck_jobs,
                    }
                }),
            0..3,
        ),
    )
        .prop_map(|(usite, metrics, spans, vsites)| MonitorReport {
            usite,
            metrics,
            spans,
            vsites,
            epoch: None,
        })
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        job_strategy().prop_map(|ajo| Request::Consign { ajo }),
        (id_strategy(), 0u8..3).prop_map(|(j, d)| Request::Poll {
            job: JobId(j),
            detail: match d {
                0 => DetailLevel::JobOnly,
                1 => DetailLevel::Groups,
                _ => DetailLevel::Tasks,
            },
        }),
        (id_strategy(), 0u8..3).prop_map(|(j, o)| Request::Control {
            job: JobId(j),
            op: match o {
                0 => ControlOp::Abort,
                1 => ControlOp::Hold,
                _ => ControlOp::Resume,
            },
        }),
        Just(Request::List),
        (id_strategy(), name_strategy()).prop_map(|(j, name)| Request::FetchFile {
            job: JobId(j),
            name,
        }),
        id_strategy().prop_map(|j| Request::Purge { job: JobId(j) }),
        (
            job_strategy(),
            name_strategy(),
            id_strategy(),
            id_strategy(),
            proptest::collection::vec("[a-z.]{1,12}", 0..4)
        )
            .prop_map(|(ajo, origin, p, n, return_files)| Request::ConsignSubJob {
                ajo,
                origin,
                parent: JobId(p),
                node: ActionId(n),
                return_files,
            }),
        proptest::collection::vec(
            (
                id_strategy(),
                id_strategy(),
                proptest::collection::vec(
                    (
                        "[a-z.]{1,10}",
                        proptest::collection::vec(any::<u8>(), 0..64)
                    ),
                    0..3
                ),
                flight_strategy()
            )
                .prop_map(|(p, n, files, flight)| {
                    let mut t = TaskOutcome::success_with_exit(0);
                    t.flight = flight;
                    OutcomeDelivery {
                        parent: JobId(p),
                        node: ActionId(n),
                        outcome: OutcomeNode::Task(t),
                        files,
                    }
                }),
            0..3
        )
        .prop_map(|deliveries| Request::DeliverOutcomes { deliveries }),
        any::<bool>().prop_map(|grid| Request::Monitor { grid }),
    ]
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        id_strategy().prop_map(|j| Response::Consigned { job: JobId(j) }),
        (any::<bool>(), "[ -~]{0,40}").prop_map(|(applied, message)| Response::Service(
            ServiceOutcome::Control { applied, message }
        )),
        proptest::collection::vec((id_strategy(), name_strategy()), 0..4).prop_map(|rows| {
            Response::Service(ServiceOutcome::List {
                jobs: rows
                    .into_iter()
                    .map(|(j, name)| JobSummary {
                        job: JobId(j),
                        name,
                        status: ActionStatus::Queued,
                    })
                    .collect(),
            })
        }),
        Just(Response::Service(ServiceOutcome::Query {
            outcome: JobOutcome::default(),
        })),
        proptest::collection::vec(monitor_report_strategy(), 0..3)
            .prop_map(|sites| Response::Service(ServiceOutcome::Monitor { sites })),
        proptest::collection::vec(any::<u8>(), 0..512).prop_map(Response::FileData),
        Just(Response::Ack),
        id_strategy().prop_map(|bytes| Response::Purged { bytes }),
        "[ -~]{0,60}".prop_map(Response::Error),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_envelopes_round_trip(
        corr in id_strategy(),
        dn in "[A-Za-z=, ]{1,40}",
        req in request_strategy(),
        trace in trace_strategy(),
        seq in proptest::option::of(id_strategy()),
        ack in proptest::option::of(id_strategy()),
    ) {
        let env = Envelope {
            corr,
            from_dn: dn,
            body: Body::Request(req),
            trace,
            seq,
            ack,
        };
        prop_assert_eq!(Envelope::from_der(&env.to_der()).unwrap(), env);
    }

    #[test]
    fn response_envelopes_round_trip(
        corr in id_strategy(),
        resp in response_strategy(),
        trace in trace_strategy(),
        seq in proptest::option::of(id_strategy()),
        ack in proptest::option::of(id_strategy()),
    ) {
        let env = Envelope {
            corr,
            from_dn: "CN=server".into(),
            body: Body::Response(resp),
            trace,
            seq,
            ack,
        };
        prop_assert_eq!(Envelope::from_der(&env.to_der()).unwrap(), env);
    }

    #[test]
    fn corrupted_envelopes_never_panic(
        req in request_strategy(),
        flip in any::<prop::sample::Index>(),
        val in any::<u8>(),
    ) {
        let env = Envelope {
            corr: 1,
            from_dn: "CN=x".into(),
            body: Body::Request(req),
            trace: None,
            seq: None,
            ack: None,
        };
        let mut der = env.to_der();
        let i = flip.index(der.len());
        der[i] = val;
        // Either decodes to something (possibly equal) or errors; no panic.
        let _ = Envelope::from_der(&der);
    }

    #[test]
    fn truncated_envelopes_error(req in request_strategy()) {
        let env = Envelope {
            corr: 1,
            from_dn: "CN=x".into(),
            body: Body::Request(req),
            trace: None,
            seq: None,
            ack: None,
        };
        let der = env.to_der();
        prop_assert!(Envelope::from_der(&der[..der.len() - 1]).is_err());
    }
}
