//! A deterministic corpus with at least one value of every `DerCodec`
//! type in the workspace, shared by `codec_golden` (pins the bytes) and
//! `hostile_bytes` (attacks the decoders). Values are built from public
//! constructors only and depend on nothing but fixed seeds.

use std::fmt::Debug;
use unicore::protocol::{Body, Envelope, OutcomeDelivery, PlacementOffer, Request, Response};
use unicore::{GridPush, SiteConfig, VsiteConfig};
use unicore_ajo::*;
use unicore_certs::{
    Certificate, CertificateAuthority, CertificateRevocationList, DistinguishedName, KeyUsage,
    SignedSoftware, Validity,
};
use unicore_codec::DerCodec;
use unicore_crypto::CryptoRng;
use unicore_dataplane::TransferManifest;
use unicore_gateway::{MuxFrame, UserEntry, Uudb};
use unicore_njs::TranslationTable;
use unicore_resources::{deployment_page, Architecture, ResourceDirectory, ResourcePage};
use unicore_store::{ForeignOrigin, ManifestEntry, OwnerRecord, StoreEvent};
use unicore_telemetry::{
    ActiveAlert, AlertEvent, FlightEvent, HistogramDelta, HistogramSnapshot, MetricsSnapshot,
    SnapshotDelta, SnapshotPayload, SpanContext, SpanId, SpanSummary, TraceId,
};
use unicore_transport::{HandshakeMessage, ResumptionTicket};

/// Receives every corpus entry with its concrete type.
pub trait Visitor {
    fn visit<T: DerCodec + PartialEq + Debug>(&mut self, name: &str, value: &T);
}

const DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=alice";
const PEER_DN: &str = "C=DE, O=RUS, CN=unicore-server";

fn user() -> UserAttributes {
    UserAttributes::new(DN, "proj1")
}

fn fzj() -> VsiteAddress {
    VsiteAddress::new("FZJ", "T3E")
}

fn script(name: &str, body: &str) -> GraphNode {
    GraphNode::Task(AbstractTask {
        name: name.into(),
        resources: ResourceRequest::minimal()
            .with_processors(4)
            .with_run_time(3_600),
        kind: TaskKind::Execute(ExecuteKind::Script {
            script: body.into(),
        }),
    })
}

fn edge(from: u64, to: u64, files: &[&str]) -> Dependency {
    Dependency {
        from: ActionId(from),
        to: ActionId(to),
        files: files.iter().map(|f| f.to_string()).collect(),
    }
}

/// `t0 → t1 → t2`, the gridbench `chain3` shape.
fn chain3() -> AbstractJob {
    let mut job = AbstractJob::new("chain3", fzj(), user());
    for i in 0..3u64 {
        job.nodes.push((
            ActionId(i + 1),
            script(&format!("t{i}"), &format!("sleep {}\n", 5 + i)),
        ));
    }
    job.dependencies.push(edge(1, 2, &[]));
    job.dependencies.push(edge(2, 3, &[]));
    job
}

/// One root fanning out to sixteen leaves.
fn fan16() -> AbstractJob {
    let mut job = AbstractJob::new("fan16", fzj(), user());
    job.nodes.push((ActionId(1), script("root", "sleep 1\n")));
    for i in 0..16u64 {
        job.nodes
            .push((ActionId(i + 2), script(&format!("leaf{i}"), "sleep 2\n")));
        job.dependencies.push(edge(1, i + 2, &[]));
    }
    job
}

/// task → sub-job at another Usite → task, files along both edges, a
/// portfolio file, site security data and an abstract request.
fn subjob_job() -> AbstractJob {
    let mut sub = AbstractJob::new("group", VsiteAddress::new("RUS", "VPP"), user());
    sub.nodes
        .push((ActionId(1), script("mid", "produce b.dat 512\n")));
    let mut job = AbstractJob::new("around", fzj(), user());
    job.user.site_security = Some(vec![0xde, 0xad, 0xbe, 0xef]);
    job.nodes
        .push((ActionId(1), script("t0", "produce a.dat 256\n")));
    job.nodes.push((ActionId(2), GraphNode::SubJob(sub)));
    job.nodes.push((ActionId(3), script("t2", "sleep 5\n")));
    job.dependencies.push(edge(1, 2, &["a.dat"]));
    job.dependencies.push(edge(2, 3, &["b.dat"]));
    job.portfolio.push(PortfolioFile {
        name: "input.nml".into(),
        data: vec![7u8; 300].into(),
    });
    job.abstract_request = Some(ResourceRequest::minimal().with_processors(64));
    job
}

/// Every task kind, ending in a Transfer to another Vsite.
fn transfer_job() -> AbstractJob {
    let task = |name: &str, kind: TaskKind| {
        GraphNode::Task(AbstractTask {
            name: name.into(),
            resources: ResourceRequest::minimal()
                .with_memory(2_048)
                .with_disk_permanent(10)
                .with_disk_temporary(500),
            kind,
        })
    };
    let xspace = DataLocation::Xspace {
        vsite: fzj(),
        path: "/home/alice/in.dat".into(),
    };
    let kinds = vec![
        TaskKind::File(FileKind::Import {
            source: DataLocation::Workstation {
                path: "input.nml".into(),
            },
            uspace_name: "input.nml".into(),
        }),
        TaskKind::File(FileKind::Import {
            source: xspace.clone(),
            uspace_name: "in.dat".into(),
        }),
        TaskKind::Execute(ExecuteKind::Compile {
            sources: vec!["main.f90".into(), "util.f90".into()],
            options: vec!["O3".into()],
            output: "main.o".into(),
        }),
        TaskKind::Execute(ExecuteKind::Link {
            objects: vec!["main.o".into()],
            libraries: vec!["blas".into(), "mpi".into()],
            output: "a.out".into(),
        }),
        TaskKind::Execute(ExecuteKind::User {
            executable: "a.out".into(),
            arguments: vec!["-n".into(), "64".into()],
            environment: vec![("OMP_NUM_THREADS".into(), "4".into())],
        }),
        TaskKind::File(FileKind::Export {
            uspace_name: "out.dat".into(),
            destination: xspace,
        }),
        TaskKind::File(FileKind::Transfer {
            uspace_name: "fields.grb".into(),
            to_vsite: VsiteAddress::new("DWD", "SX4"),
            dest_name: "fields.grb".into(),
        }),
    ];
    let mut job = AbstractJob::new("transfer", fzj(), user());
    for (i, kind) in kinds.into_iter().enumerate() {
        let id = i as u64 + 1;
        job.nodes.push((ActionId(id), task(&format!("k{i}"), kind)));
        if id > 1 {
            job.dependencies.push(edge(id - 1, id, &[]));
        }
    }
    job
}

fn flight() -> Vec<FlightEvent> {
    vec![
        FlightEvent {
            at: 10,
            what: "njs.consign".into(),
            detail: "job 7".into(),
        },
        FlightEvent {
            at: 90_000_000,
            what: "batch.failed".into(),
            detail: "node failure on T3E".into(),
        },
    ]
}

fn failed_task() -> TaskOutcome {
    TaskOutcome {
        status: ActionStatus::NotSuccessful,
        exit_code: Some(-9),
        stdout: b"partial output\n".to_vec(),
        stderr: vec![b'e'; 200],
        bytes_staged: 0,
        message: "node failure".into(),
        flight: flight(),
    }
}

fn job_outcome() -> JobOutcome {
    let staged = TaskOutcome {
        status: ActionStatus::Successful,
        bytes_staged: 4_194_304,
        ..TaskOutcome::default()
    };
    let inner = JobOutcome {
        status: ActionStatus::Killed,
        children: vec![(
            ActionId(1),
            OutcomeNode::Task(TaskOutcome {
                status: ActionStatus::Killed,
                message: "predecessor failed".into(),
                ..TaskOutcome::default()
            }),
        )],
    };
    JobOutcome {
        status: ActionStatus::NotSuccessful,
        children: vec![
            (
                ActionId(1),
                OutcomeNode::Task(TaskOutcome::success_with_exit(0)),
            ),
            (ActionId(2), OutcomeNode::Task(staged)),
            (ActionId(3), OutcomeNode::Task(failed_task())),
            (ActionId(4), OutcomeNode::Job(inner)),
            (ActionId(5), OutcomeNode::Task(TaskOutcome::pending())),
        ],
    }
}

fn metrics() -> MetricsSnapshot {
    let mut m = MetricsSnapshot::default();
    m.counters.insert("njs.consigned".into(), 12);
    m.counters.insert("store.wal.appends".into(), 300);
    m.counters.insert("gateway.audit.dropped".into(), 0);
    m.gauges.insert("njs.jobs.active".into(), -2);
    m.gauges.insert("batch.free_nodes".into(), 448);
    m.histograms.push(histogram());
    m
}

fn histogram() -> HistogramSnapshot {
    HistogramSnapshot {
        name: "njs.job.duration.us".into(),
        count: 7,
        sum: 123_456_789,
        buckets: vec![(1_000, 1), (1_000_000, 5), (u64::MAX >> 1, 7)],
    }
}

fn delta() -> SnapshotDelta {
    SnapshotDelta {
        counters: vec![("njs.consigned".into(), 13)],
        gauges: vec![("njs.jobs.active".into(), -1)],
        histograms: vec![HistogramDelta {
            name: "njs.job.duration.us".into(),
            count: 8,
            sum: 123_460_000,
            buckets: vec![(1_000_000, 6)],
        }],
    }
}

fn vsite_health() -> VsiteHealth {
    VsiteHealth {
        vsite: "T3E".into(),
        free_nodes: 448,
        queue_length: 3,
        running: 2,
        stuck_jobs: 0,
    }
}

fn site_status(usite: &str, health: SiteHealth) -> SiteStatus {
    SiteStatus {
        usite: usite.into(),
        epoch: 4,
        updated_at: 30_000_000,
        health,
        vsites: vec![vsite_health()],
        headline: vec![
            ("njs.consigned".into(), 12),
            ("store.wal.repairs".into(), 1),
        ],
    }
}

fn monitor_report(epoch: Option<u64>) -> MonitorReport {
    MonitorReport {
        usite: "FZJ".into(),
        metrics: metrics(),
        spans: vec![span_summary()],
        vsites: vec![vsite_health()],
        epoch,
    }
}

fn span_summary() -> SpanSummary {
    SpanSummary {
        name: "njs.consign".into(),
        count: 12,
        clock_total: 4_000,
        wall_ns_total: 987_654,
    }
}

fn active_alert() -> ActiveAlert {
    ActiveAlert {
        rule: "slo.site.unreachable".into(),
        since: 90_000_000,
        value_milli: 333,
    }
}

fn grid_view() -> GridView {
    GridView {
        root: "FZJ".into(),
        at: 120_000_000,
        sites: vec![
            site_status("FZJ", SiteHealth::Live),
            site_status("RUS", SiteHealth::Stale),
            site_status("ZIB", SiteHealth::Unreachable(UnreachableReason::Partition)),
        ],
        merged: metrics(),
        alerts: vec![active_alert()],
    }
}

fn grid_push(merged: SnapshotPayload) -> GridPush {
    GridPush {
        origin: "RUS".into(),
        base_epoch: 3,
        to_epoch: 4,
        rows: vec![site_status(
            "RUS",
            SiteHealth::Unreachable(UnreachableReason::Crash),
        )],
        merged,
        stale: vec!["ZIB".into()],
    }
}

fn manifest() -> TransferManifest {
    let data: Vec<u8> = (0..1_000u32).map(|i| (i % 251) as u8).collect();
    TransferManifest::for_bytes(
        "FZJ",
        JobId(3),
        ActionId(4),
        VsiteAddress::new("RUS", "VPP"),
        "fields.grb",
        DN,
        true,
        &data,
        256,
    )
}

fn page() -> ResourcePage {
    deployment_page("FZJ", "T3E", Architecture::CrayT3e)
        .with_price(900)
        .with_advertised_load(63)
}

fn directory() -> ResourceDirectory {
    let mut dir = ResourceDirectory::new();
    dir.publish(page());
    dir.publish(deployment_page("DWD", "SX4", Architecture::NecSx4));
    dir
}

fn placement_offer() -> PlacementOffer {
    PlacementOffer {
        vsite: fzj(),
        score: 1_234,
        immediate: true,
        queue_length: 0,
        utilization_milli: 450,
        price_per_node_hour_milli: 900,
    }
}

fn returned_files() -> Vec<(String, Vec<u8>)> {
    vec![
        ("grid.dat".into(), vec![1, 2, 3]),
        ("big.dat".into(), vec![0x5a; 70_000]),
    ]
}

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        ("consign", Request::Consign { ajo: chain3() }),
        (
            "poll",
            Request::Poll {
                job: JobId(3),
                detail: DetailLevel::Tasks,
            },
        ),
        (
            "control",
            Request::Control {
                job: JobId(3),
                op: ControlOp::Hold,
            },
        ),
        ("list", Request::List),
        (
            "fetch_file",
            Request::FetchFile {
                job: JobId(1),
                name: "out.dat".into(),
            },
        ),
        ("purge", Request::Purge { job: JobId(4) }),
        ("list_files", Request::ListFiles { job: JobId(4) }),
        ("get_resources", Request::GetResources),
        ("monitor", Request::Monitor { grid: true }),
        (
            "consign_sub_job",
            Request::ConsignSubJob {
                ajo: subjob_job(),
                origin: "RUS".into(),
                parent: JobId(9),
                node: ActionId(2),
                return_files: vec!["grid.dat".into()],
            },
        ),
        (
            "transfer_offer",
            Request::TransferOffer {
                manifest: manifest(),
            },
        ),
        (
            "transfer_chunk",
            Request::TransferChunk {
                origin: "FZJ".into(),
                origin_job: JobId(3),
                origin_node: ActionId(4),
                index: 2,
                data: vec![7u8; 65_536],
            },
        ),
        (
            "broker",
            Request::Broker {
                request: ResourceRequest::minimal()
                    .with_processors(64)
                    .with_run_time(7_200),
            },
        ),
        (
            "deliver_outcomes",
            Request::DeliverOutcomes {
                deliveries: vec![
                    OutcomeDelivery {
                        parent: JobId(9),
                        node: ActionId(2),
                        outcome: OutcomeNode::Task(failed_task()),
                        files: returned_files(),
                    },
                    OutcomeDelivery {
                        parent: JobId(9),
                        node: ActionId(3),
                        outcome: OutcomeNode::Job(JobOutcome::default()),
                        files: vec![],
                    },
                ],
            },
        ),
        (
            "monitor_push_full",
            Request::MonitorPush {
                push: grid_push(SnapshotPayload::Full(metrics())),
            },
        ),
        (
            "monitor_push_delta",
            Request::MonitorPush {
                push: grid_push(SnapshotPayload::Delta(delta())),
            },
        ),
    ]
}

fn responses() -> Vec<(&'static str, Response)> {
    vec![
        ("consigned", Response::Consigned { job: JobId(7) }),
        (
            "service_control",
            Response::Service(ServiceOutcome::Control {
                applied: true,
                message: "ok".into(),
            }),
        ),
        (
            "service_list",
            Response::Service(ServiceOutcome::List {
                jobs: vec![
                    JobSummary {
                        job: JobId(1),
                        name: "chain3".into(),
                        status: ActionStatus::Running,
                    },
                    JobSummary {
                        job: JobId(2),
                        name: "fan16".into(),
                        status: ActionStatus::Held,
                    },
                ],
            }),
        ),
        (
            "service_query",
            Response::Service(ServiceOutcome::Query {
                outcome: job_outcome(),
            }),
        ),
        (
            "service_monitor",
            Response::Service(ServiceOutcome::Monitor {
                sites: vec![monitor_report(None), monitor_report(Some(12))],
            }),
        ),
        (
            "service_grid",
            Response::Service(ServiceOutcome::Grid { view: grid_view() }),
        ),
        ("file_data", Response::FileData(vec![9; 300])),
        ("ack", Response::Ack),
        ("purged", Response::Purged { bytes: 12_345 }),
        (
            "file_names",
            Response::FileNames(vec!["a.out".into(), "result.nc".into()]),
        ),
        ("resources", Response::Resources(directory())),
        ("error", Response::Error("no UUDB entry".into())),
        ("transfer_go", Response::TransferGo { resume_from: 17 }),
        (
            "chunk_ack",
            Response::ChunkAck {
                upto: 43,
                done: true,
            },
        ),
        (
            "broker_offer",
            Response::BrokerOffer {
                offers: vec![placement_offer()],
            },
        ),
        (
            "grid_ack",
            Response::GridAck {
                epoch: 9,
                resync: false,
            },
        ),
    ]
}

fn envelope(body: Body, decorated: bool) -> Envelope {
    let ctx = SpanContext {
        trace: TraceId([0xab; 16]),
        span: SpanId(0x1122_3344_5566_7788),
    };
    Envelope {
        corr: if decorated { 300 } else { 42 },
        from_dn: if decorated { PEER_DN } else { DN }.into(),
        body,
        trace: decorated.then_some(ctx),
        seq: decorated.then_some(70_000),
        ack: decorated.then_some(127),
    }
}

fn owner() -> OwnerRecord {
    OwnerRecord {
        dn: DN.into(),
        login: "alice1".into(),
        account_group: "proj1".into(),
    }
}

fn foreign_origin() -> ForeignOrigin {
    ForeignOrigin {
        origin: "RUS".into(),
        parent: JobId(3),
        node: ActionId(5),
        return_files: vec!["result.dat".into()],
    }
}

fn store_events() -> Vec<(&'static str, StoreEvent)> {
    vec![
        (
            "job_consigned_foreign",
            StoreEvent::JobConsigned {
                job: JobId(7),
                ajo_der: subjob_job().to_der(),
                user: owner(),
                staged: vec![("input.dat".into(), vec![1, 2, 3])],
                idem_key: vec![0xaa; 32],
                parent: Some((JobId(2), ActionId(9))),
                foreign: Some(foreign_origin()),
                at: 1_000_000,
            },
        ),
        (
            "job_consigned_plain",
            StoreEvent::JobConsigned {
                job: JobId(8),
                ajo_der: chain3().to_der(),
                user: owner(),
                staged: vec![],
                idem_key: vec![0xbb; 32],
                parent: None,
                foreign: None,
                at: 2_000_000,
            },
        ),
        (
            "job_incarnated",
            StoreEvent::JobIncarnated {
                job: JobId(7),
                node: ActionId(1),
                target: "batch:express".into(),
                at: 3,
            },
        ),
        (
            "task_state_changed",
            StoreEvent::TaskStateChanged {
                job: JobId(7),
                node: ActionId(3),
                outcome_der: OutcomeNode::Task(failed_task()).to_der(),
                files: returned_files(),
                at: 4,
            },
        ),
        (
            "outcome_stored",
            StoreEvent::OutcomeStored {
                job: JobId(7),
                outcome_der: job_outcome().to_der(),
                manifest: vec![ManifestEntry::Inline {
                    name: "stdout".into(),
                    data: b"hello".to_vec(),
                }],
                at: 5,
            },
        ),
        (
            "job_purged",
            StoreEvent::JobPurged {
                job: JobId(7),
                at: 6,
            },
        ),
        (
            "transfer_opened",
            StoreEvent::TransferOpened {
                origin: "FZJ".into(),
                origin_job: JobId(3),
                origin_node: ActionId(4),
                manifest_der: manifest().to_der(),
                login: "alice1".into(),
                at: 7,
            },
        ),
        (
            "placement_decided",
            StoreEvent::PlacementDecided {
                job: JobId(9),
                node: ActionId(2),
                chosen: "RUS/VPP".into(),
                excluded: vec!["ZIB".into(), "LRZ".into()],
                attempt: 1,
                at: 8,
            },
        ),
        (
            "transfer_chunk_stored",
            StoreEvent::TransferChunkStored {
                origin: "FZJ".into(),
                origin_job: JobId(3),
                origin_node: ActionId(4),
                index: 2,
                data: vec![3u8; 256],
                at: 9,
            },
        ),
    ]
}

/// `OutcomeStored` as it is written today: every manifest entry by
/// reference, an empty file included.
fn outcome_by_reference() -> StoreEvent {
    StoreEvent::OutcomeStored {
        job: JobId(7),
        outcome_der: job_outcome().to_der(),
        manifest: vec![
            ManifestEntry::Stored {
                name: "empty.log".into(),
                len: 0,
            },
            ManifestEntry::Stored {
                name: "stdout".into(),
                len: 5,
            },
        ],
        at: 5,
    }
}

struct Pki {
    ca_cert: Certificate,
    server: Certificate,
    crl: CertificateRevocationList,
    software: SignedSoftware,
}

fn pki() -> Pki {
    let mut rng = CryptoRng::from_u64(16);
    let mut ca = CertificateAuthority::new_root(
        DistinguishedName::new("DE", "FZJ", "ZAM", "UNICORE CA"),
        Validity::starting_at(0, 10_000),
        512,
        &mut rng,
    );
    let mut server_dn = DistinguishedName::new("DE", "FZJ", "ZAM", "unicore-server");
    server_dn.email = Some("unicore@fz-juelich.de".into());
    let server = ca
        .issue_identity(
            server_dn,
            KeyUsage::server(),
            Validity::starting_at(0, 1_000),
            &mut rng,
        )
        .expect("issue server identity");
    let dev = ca
        .issue_identity(
            DistinguishedName::new("DE", "Pallas", "Dev", "applet-signer"),
            KeyUsage::software(),
            Validity::starting_at(0, 1_000),
            &mut rng,
        )
        .expect("issue developer identity");
    let software = SignedSoftware::sign(
        "JPA",
        "1.0",
        b"applet bytes".to_vec(),
        dev.cert.clone(),
        &dev.keypair.private,
    )
    .expect("sign software");
    let crl = CertificateRevocationList::new_signed(
        ca.certificate().tbs.subject.clone(),
        3,
        50,
        vec![2, 9, 300],
        &dev.keypair.private,
    );
    Pki {
        ca_cert: ca.certificate().clone(),
        server: server.cert,
        crl,
        software,
    }
}

fn ticket() -> ResumptionTicket {
    ResumptionTicket::mint(
        b"a negotiated master secret",
        &[1, 2, 3, 4],
        "abcdef0123456789",
        100,
        600,
        2,
    )
}

fn handshake_messages(pki: &Pki) -> Vec<(&'static str, HandshakeMessage)> {
    vec![
        (
            "client_hello_fresh",
            HandshakeMessage::ClientHello {
                random: vec![7u8; 32],
                session_id: None,
                ticket: None,
            },
        ),
        (
            "client_hello_resuming",
            HandshakeMessage::ClientHello {
                random: vec![7u8; 32],
                session_id: Some(vec![1, 2, 3, 4]),
                ticket: Some(ticket()),
            },
        ),
        (
            "server_hello_full",
            HandshakeMessage::ServerHello {
                random: vec![9u8; 32],
                session_id: vec![4, 5],
                resumed: false,
                cert_chain: vec![pki.server.clone(), pki.ca_cert.clone()],
                dh_public: vec![1; 128],
                signature: vec![2; 64],
            },
        ),
        (
            "server_hello_resumed",
            HandshakeMessage::ServerHello {
                random: vec![1u8; 32],
                session_id: vec![4, 5],
                resumed: true,
                cert_chain: vec![],
                dh_public: vec![],
                signature: vec![],
            },
        ),
        (
            "client_auth",
            HandshakeMessage::ClientAuth {
                cert_chain: vec![pki.server.clone()],
                dh_public: vec![3; 128],
                signature: vec![4; 64],
            },
        ),
        (
            "finished",
            HandshakeMessage::Finished {
                verify_data: vec![6; 32],
            },
        ),
        (
            "alert",
            HandshakeMessage::Alert {
                reason: "bad certificate".into(),
            },
        ),
    ]
}

fn uudb() -> Uudb {
    let mut db = Uudb::new();
    db.add(
        DN,
        UserEntry::new("alice1", "proj1")
            .with_vsite_login("SP2", "al01")
            .with_vsite_login("T3E", "alice"),
    );
    db.add(
        "C=DE, O=RUS, OU=HLRS, CN=bob",
        UserEntry::new("bob", "users"),
    );
    db
}

fn translation_table() -> TranslationTable {
    let mut table = TranslationTable::for_architecture(Architecture::CrayT3e);
    table.queue = "prod".into();
    table
        .compiler_options
        .insert("fast".into(), "-O3,aggress".into());
    table
}

fn site_config() -> SiteConfig {
    SiteConfig {
        usite: "FZJ".into(),
        vsites: vec![VsiteConfig {
            page: page(),
            table: translation_table(),
        }],
        uudb: uudb(),
        peer_servers: vec![PEER_DN.into()],
    }
}

/// Walks the whole corpus in a fixed order.
pub fn visit_all(v: &mut impl Visitor) {
    for (name, request) in requests() {
        v.visit(&format!("request/{name}"), &request);
        let body = Body::Request(request);
        v.visit(
            &format!("envelope/request/{name}"),
            &envelope(body.clone(), false),
        );
        v.visit(
            &format!("envelope/request/{name}+trace+seq+ack"),
            &envelope(body, true),
        );
    }
    for (name, response) in responses() {
        v.visit(&format!("response/{name}"), &response);
        let body = Body::Response(response);
        v.visit(
            &format!("envelope/response/{name}"),
            &envelope(body.clone(), false),
        );
        v.visit(
            &format!("envelope/response/{name}+trace+seq+ack"),
            &envelope(body, true),
        );
    }
    let mut seq_only = envelope(Body::Request(Request::List), false);
    seq_only.seq = Some(1);
    v.visit("envelope/seq_only", &seq_only);
    let mut ack_only = envelope(Body::Response(Response::Ack), false);
    ack_only.ack = Some(1);
    v.visit("envelope/ack_only", &ack_only);

    v.visit("ajo/chain3", &chain3());
    v.visit("ajo/fan16", &fan16());
    v.visit("ajo/sub_job", &subjob_job());
    v.visit("ajo/transfer", &transfer_job());
    v.visit("ajo/vsite_address", &fzj());
    v.visit("ajo/user_attributes", &subjob_job().user);
    v.visit("ajo/dependency", &edge(1, 2, &["a.dat", "b.dat"]));
    v.visit("ajo/graph_node", &transfer_job().nodes[4].1);
    if let GraphNode::Task(task) = &transfer_job().nodes[1].1 {
        v.visit("ajo/abstract_task", task);
        v.visit("ajo/task_kind", &task.kind);
        v.visit("ajo/resource_request", &task.resources);
        if let TaskKind::File(FileKind::Import { source, .. }) = &task.kind {
            v.visit("ajo/data_location", source);
        }
    }
    for (name, service) in [
        (
            "control",
            AbstractService::Control {
                job: JobId(7),
                op: ControlOp::Abort,
            },
        ),
        ("list", AbstractService::List),
        (
            "query",
            AbstractService::Query {
                job: JobId(1),
                detail: DetailLevel::Groups,
            },
        ),
        ("monitor", AbstractService::Monitor { grid: false }),
    ] {
        v.visit(&format!("ajo/service/{name}"), &service);
    }

    v.visit("outcome/job", &job_outcome());
    v.visit("outcome/task_failed", &failed_task());
    v.visit("outcome/node", &OutcomeNode::Job(job_outcome()));
    v.visit("outcome/vsite_health", &vsite_health());
    v.visit("outcome/monitor_report", &monitor_report(Some(12)));
    v.visit(
        "outcome/site_status",
        &site_status(
            "ZIB",
            SiteHealth::Unreachable(UnreachableReason::Quarantine),
        ),
    );
    v.visit("outcome/grid_view", &grid_view());
    v.visit(
        "outcome/service",
        &ServiceOutcome::Query {
            outcome: job_outcome(),
        },
    );

    for (name, event) in store_events() {
        v.visit(&format!("store/{name}"), &event);
    }
    v.visit("store/owner_record", &owner());
    v.visit("store/foreign_origin", &foreign_origin());

    v.visit("gateway/mux_frame", &MuxFrame::new(42, vec![0x30; 200]));
    v.visit("gateway/uudb", &uudb());
    v.visit("dataplane/transfer_manifest", &manifest());
    v.visit("resources/page", &page());
    v.visit(
        "resources/page_bare",
        &deployment_page("LRZ", "SP2", Architecture::IbmSp2),
    );
    v.visit("resources/directory", &directory());
    v.visit("resources/architecture", &Architecture::FujitsuVpp700);
    v.visit("njs/translation_table", &translation_table());

    let pki = pki();
    v.visit("certs/certificate", &pki.server);
    v.visit("certs/tbs_certificate", &pki.server.tbs);
    v.visit("certs/distinguished_name", &pki.server.tbs.subject);
    v.visit("certs/crl", &pki.crl);
    v.visit("certs/signed_software", &pki.software);
    v.visit("transport/resumption_ticket", &ticket());
    for (name, message) in handshake_messages(&pki) {
        v.visit(&format!("transport/handshake/{name}"), &message);
    }

    v.visit(
        "core/grid_push",
        &grid_push(SnapshotPayload::Delta(delta())),
    );
    v.visit("core/placement_offer", &placement_offer());
    v.visit("core/site_config", &site_config());

    v.visit("telemetry/metrics_snapshot", &metrics());
    v.visit("telemetry/histogram_snapshot", &histogram());
    v.visit("telemetry/span_summary", &span_summary());
    v.visit("telemetry/histogram_delta", &delta().histograms[0]);
    v.visit("telemetry/snapshot_delta", &delta());
    v.visit(
        "telemetry/snapshot_payload",
        &SnapshotPayload::Full(metrics()),
    );
    v.visit("telemetry/flight_event", &flight()[1]);
    v.visit(
        "telemetry/alert_event",
        &AlertEvent {
            at: 60_000_000,
            rule: "slo.wal.repairs".into(),
            firing: true,
            value_milli: 2_000,
        },
    );
    v.visit("telemetry/active_alert", &active_alert());

    // Entries added after the first pinning go last: `codec_golden`
    // matches by position, and the earlier digests must not move.
    v.visit("store/outcome_stored_by_reference", &outcome_by_reference());
    v.visit(
        "store/manifest_entry_stored",
        &ManifestEntry::Stored {
            name: "result.nc".into(),
            len: 4_194_304,
        },
    );
    v.visit(
        "store/manifest_entry_inline",
        &ManifestEntry::Inline {
            name: "result.nc".into(),
            data: vec![9u8; 40],
        },
    );
    // The client port's sweep and its answer, bare and enveloped.
    let sweep = Request::Sweep {
        requests: vec![
            Request::Poll {
                job: JobId(3),
                detail: DetailLevel::Tasks,
            },
            Request::Purge { job: JobId(4) },
            Request::FetchFile {
                job: JobId(1),
                name: "out.dat".into(),
            },
        ],
    };
    v.visit("request/sweep", &sweep);
    v.visit(
        "envelope/request/sweep",
        &envelope(Body::Request(sweep), false),
    );
    let swept = Response::Swept {
        responses: vec![
            Response::Service(ServiceOutcome::Query {
                outcome: job_outcome(),
            }),
            Response::Purged { bytes: 12_345 },
            Response::Error("no such file".into()),
        ],
    };
    v.visit("response/swept", &swept);
    v.visit(
        "envelope/response/swept",
        &envelope(Body::Response(swept), false),
    );
}
