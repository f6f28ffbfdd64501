//! The high-level asynchronous UNICORE protocol.
//!
//! "The UNICORE protocols define the form of requests for some action to be
//! performed (high-level protocol) ... It defines a client-server type of
//! communication. JPA/JMC act as client while NJS (resp. the gateway) acts
//! as both client and server depending on the partner. ... It is an
//! asynchronous protocol." (§5.3)
//!
//! Every message is one DER-encoded [`Envelope`]: a correlation id, the
//! requesting identity's DN, and a request or response body. Consignment
//! returns immediately with a job id; results are fetched by later
//! poll/fetch requests — the asynchrony the paper credits with robustness.

use crate::grid::GridPush;
use unicore_ajo::{
    AbstractJob, ActionId, ControlOp, DetailLevel, GridView, JobId, JobOutcome, JobSummary,
    MonitorReport, OutcomeNode, ResourceRequest, ServiceOutcome, VsiteAddress,
};
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};
use unicore_dataplane::TransferManifest;
use unicore_resources::ResourceDirectory;
use unicore_telemetry::{SpanContext, SpanId, TraceId};

/// A request body.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// JPA → NJS: consign a job.
    Consign {
        /// The job (user attributes inside).
        ajo: AbstractJob,
    },
    /// JMC → NJS: query job status.
    Poll {
        /// The job.
        job: JobId,
        /// Detail level.
        detail: DetailLevel,
    },
    /// JMC → NJS: control a job.
    Control {
        /// The job.
        job: JobId,
        /// The operation.
        op: ControlOp,
    },
    /// JMC → NJS: list my jobs.
    List,
    /// JMC → NJS: fetch an output file from a job's Uspace.
    FetchFile {
        /// The job.
        job: JobId,
        /// Uspace file name.
        name: String,
    },
    /// JMC → NJS: purge a finished job's Uspace (after saving outputs).
    Purge {
        /// The job.
        job: JobId,
    },
    /// JMC → NJS: list the files in a job's Uspace.
    ListFiles {
        /// The job.
        job: JobId,
    },
    /// JPA → server: fetch the Usite's resource pages ("resource
    /// information about the available execution systems at the Usite,
    /// which are provided together with the applet to the user", §4.2).
    GetResources,
    /// JMC → server (or server → peer server): fetch the site's health
    /// report. With `grid`, the receiving site fans the query out to
    /// every reachable peer Usite and merges the answers into one
    /// namespaced grid view.
    Monitor {
        /// Fan out to the whole grid instead of answering locally.
        grid: bool,
    },
    /// NJS → peer NJS: consign a job group on behalf of a user.
    ConsignSubJob {
        /// The extracted job group (now top-level).
        ajo: AbstractJob,
        /// Originating Usite (where the parent runs).
        origin: String,
        /// Parent job at the origin.
        parent: JobId,
        /// Node the sub-job fills in the parent.
        node: ActionId,
        /// Uspace files to return with the outcome (successor edge files).
        return_files: Vec<String>,
    },
    /// Peer NJS → origin NJS: a forwarded job group finished.
    DeliverOutcome {
        /// Parent job at the origin.
        parent: JobId,
        /// The node that finished.
        node: ActionId,
        /// Its outcome subtree.
        outcome: OutcomeNode,
        /// Edge files produced by the job group, flowing back to the
        /// parent's Uspace (the paper's predecessor→successor guarantee).
        files: Vec<(String, Vec<u8>)>,
    },
    /// NJS → peer NJS: push a transferred file.
    PushFile {
        /// Destination Vsite.
        to_vsite: VsiteAddress,
        /// Name at the destination.
        dest_name: String,
        /// The bytes.
        data: Vec<u8>,
        /// Origin job/node, so the sender can complete its transfer task.
        origin_job: JobId,
        /// The transfer task's node.
        origin_node: ActionId,
        /// DN of the user on whose behalf the file moves (mapped by the
        /// receiving gateway for file ownership).
        user_dn: String,
    },
    /// NJS → peer NJS: open (or resume) a streamed transfer. The receiver
    /// answers [`Response::TransferGo`] with its resume point — `0` for a
    /// fresh stream, the journaled watermark after a crash-restart.
    TransferOffer {
        /// The transfer's full contract: identity, destination, length,
        /// chunk geometry and checksums.
        manifest: TransferManifest,
    },
    /// NJS → peer NJS: one chunk of an open transfer. Acked cumulatively
    /// with [`Response::ChunkAck`]; safe to re-deliver (the receiver is
    /// idempotent per chunk).
    TransferChunk {
        /// The sending Usite (transfer identity, with job and node).
        origin: String,
        /// The sending job.
        origin_job: JobId,
        /// The sending Transfer task node.
        origin_node: ActionId,
        /// Chunk index within the manifest.
        index: u64,
        /// The chunk's bytes.
        data: Vec<u8>,
    },
    /// JPA → server: ask the resource broker for a ranked placement of
    /// an abstract request. Answered with [`Response::BrokerOffer`].
    Broker {
        /// The abstract resource request to place.
        request: ResourceRequest,
    },
    /// Peer NJS → origin NJS: every forwarded job group that finished
    /// this tick, delivered in one envelope instead of one per outcome
    /// (the last per-envelope leftover of the E13 fast path). Applied
    /// per-entry idempotently, exactly like single deliveries.
    DeliverOutcomes {
        /// The finished sub-jobs bound for this origin.
        deliveries: Vec<OutcomeDelivery>,
    },
    /// Child site → tree parent: an E17 aggregation-plane push carrying
    /// the subtree's changed rows and merged-metrics delta. Answered
    /// with [`Response::GridAck`].
    MonitorPush {
        /// The push payload.
        push: GridPush,
    },
}

/// One entry of a batched [`Request::DeliverOutcomes`].
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeDelivery {
    /// Parent job at the origin.
    pub parent: JobId,
    /// The node that finished.
    pub node: ActionId,
    /// Its outcome subtree.
    pub outcome: OutcomeNode,
    /// Edge files produced by the job group, flowing back to the
    /// parent's Uspace.
    pub files: Vec<(String, Vec<u8>)>,
}

/// One ranked entry of a [`Response::BrokerOffer`] — the broker's
/// [`unicore_broker::RankedOffer`] in wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementOffer {
    /// The offered Vsite.
    pub vsite: VsiteAddress,
    /// Composite score in millipoints (lower is better).
    pub score: u64,
    /// Whether the site could start the request immediately.
    pub immediate: bool,
    /// Jobs queued ahead of the request.
    pub queue_length: u64,
    /// Observed utilisation in milli-units (0..=1000).
    pub utilization_milli: u64,
    /// The page's advertised price (millicredits per node-hour).
    pub price_per_node_hour_milli: u64,
}

impl From<&unicore_broker::RankedOffer> for PlacementOffer {
    fn from(o: &unicore_broker::RankedOffer) -> Self {
        PlacementOffer {
            vsite: o.vsite.clone(),
            score: o.score,
            immediate: o.immediate,
            queue_length: o.queue_length as u64,
            utilization_milli: o.utilization_milli,
            price_per_node_hour_milli: o.price_per_node_hour_milli,
        }
    }
}

impl DerCodec for PlacementOffer {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            self.vsite.write_der(w);
            w.u64(self.score);
            w.bool(self.immediate);
            w.u64(self.queue_length);
            w.u64(self.utilization_milli);
            w.u64(self.price_per_node_hour_milli);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("PlacementOffer", |f| {
            Ok(PlacementOffer {
                vsite: VsiteAddress::read_der(f)?,
                score: f.next_u64()?,
                immediate: f.next_bool()?,
                queue_length: f.next_u64()?,
                utilization_milli: f.next_u64()?,
                price_per_node_hour_milli: f.next_u64()?,
            })
        })
    }
}

/// A response body.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Consignment accepted.
    Consigned {
        /// The assigned job id.
        job: JobId,
    },
    /// A service result.
    Service(ServiceOutcome),
    /// File contents.
    FileData(Vec<u8>),
    /// Generic acknowledgement.
    Ack,
    /// A purge completed, freeing this many Uspace bytes.
    Purged {
        /// Bytes reclaimed.
        bytes: u64,
    },
    /// Uspace file names.
    FileNames(Vec<String>),
    /// The Usite's published resource pages.
    Resources(ResourceDirectory),
    /// Refusal or failure with a reason.
    Error(String),
    /// A transfer offer was accepted: stream chunks starting at
    /// `resume_from` (the receiver's contiguous watermark).
    TransferGo {
        /// First chunk index the receiver still needs.
        resume_from: u64,
    },
    /// Cumulative chunk acknowledgement.
    ChunkAck {
        /// Contiguous chunks durably stored so far.
        upto: u64,
        /// Whether the file is complete and committed at the destination.
        done: bool,
    },
    /// The broker's ranked placement for a [`Request::Broker`]: best
    /// offer first, admissible fallbacks after it. Empty when no site
    /// admits the request.
    BrokerOffer {
        /// Ranked offers, best first.
        offers: Vec<PlacementOffer>,
    },
    /// Ack for a [`Request::MonitorPush`]: the epoch the parent's edge
    /// cache now sits at, and whether the child must fall back to a
    /// full-snapshot resync.
    GridAck {
        /// Parent-side edge epoch after processing the push.
        epoch: u64,
        /// True when the child's next push must be a full snapshot.
        resync: bool,
    },
}

/// The wire envelope.
///
/// Correlation ids and job ids are carried as DER INTEGERs and therefore
/// must stay within `0..=i64::MAX`; every allocator in the system is a
/// counter starting at 1, so the bound is never reached in practice.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Correlation id chosen by the requester.
    pub corr: u64,
    /// DN of the requesting identity (user, or the peer server).
    pub from_dn: String,
    /// The body.
    pub body: Body,
    /// Trace context (trace id + parent span id) propagated with the
    /// message, so a sub-AJO forwarded NJS→NJS at another Usite
    /// continues the originating client's trace. Encoded as a trailing
    /// context-tagged element; frames from peers predating telemetry
    /// simply omit it and decode as `None`.
    pub trace: Option<SpanContext>,
    /// Per-origin delivery sequence number, stamped by the federation on
    /// each *distinct* envelope (retransmissions reuse the original
    /// number, so receivers can tell a duplicate from a new message).
    /// Trailing context-tagged element; absent on pre-reliability frames.
    pub seq: Option<u64>,
    /// Cumulative acknowledgement piggybacked on traffic flowing the
    /// other way: the highest contiguous sequence number the sender has
    /// received from this envelope's destination. Trailing
    /// context-tagged element; absent on pre-reliability frames.
    pub ack: Option<u64>,
}

/// Request or response.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // requests dwarf responses by design
pub enum Body {
    /// A request.
    Request(Request),
    /// A response.
    Response(Response),
}

/// Files returned with a sub-job outcome: `(name, contents)` pairs.
fn write_returned_files(w: &mut DerWriter, files: &[(String, Vec<u8>)]) {
    w.sequence_of(files, |w, (name, data)| {
        w.sequence(|w| {
            w.str(name);
            w.bytes(data);
        })
    });
}

fn read_returned_files(r: &mut DerReader<'_>) -> Result<Vec<(String, Vec<u8>)>, CodecError> {
    r.sequence_of("returned files", |e| {
        e.sequence("returned file", |f| {
            Ok((f.next_string()?, f.next_bytes()?.to_vec()))
        })
    })
}

/// The four fields shared by a single delivery and a batched entry.
fn write_delivery(
    w: &mut DerWriter,
    parent: JobId,
    node: ActionId,
    outcome: &OutcomeNode,
    files: &[(String, Vec<u8>)],
) {
    w.sequence(|w| {
        w.u64(parent.0);
        w.u64(node.0);
        outcome.write_der(w);
        write_returned_files(w, files);
    });
}

fn read_delivery(
    r: &mut DerReader<'_>,
    context: &'static str,
) -> Result<OutcomeDelivery, CodecError> {
    r.sequence(context, |f| {
        Ok(OutcomeDelivery {
            parent: JobId(f.next_u64()?),
            node: ActionId(f.next_u64()?),
            outcome: OutcomeNode::read_der(f)?,
            files: read_returned_files(f)?,
        })
    })
}

impl DerCodec for Request {
    fn write_der(&self, w: &mut DerWriter) {
        match self {
            Request::Consign { ajo } => w.tagged(0, |w| ajo.write_der(w)),
            Request::Poll { job, detail } => w.tagged(1, |w| {
                w.sequence(|w| {
                    w.u64(job.0);
                    w.enumerated(detail.to_enum());
                })
            }),
            Request::Control { job, op } => w.tagged(2, |w| {
                w.sequence(|w| {
                    w.u64(job.0);
                    w.enumerated(op.to_enum());
                })
            }),
            Request::List => w.tagged(3, |w| w.null()),
            Request::FetchFile { job, name } => w.tagged(4, |w| {
                w.sequence(|w| {
                    w.u64(job.0);
                    w.str(name);
                })
            }),
            Request::Purge { job } => w.tagged(8, |w| w.u64(job.0)),
            Request::ListFiles { job } => w.tagged(9, |w| w.u64(job.0)),
            Request::GetResources => w.tagged(10, |w| w.null()),
            Request::Monitor { grid } => w.tagged(11, |w| w.bool(*grid)),
            Request::ConsignSubJob {
                ajo,
                origin,
                parent,
                node,
                return_files,
            } => w.tagged(5, |w| {
                w.sequence(|w| {
                    ajo.write_der(w);
                    w.str(origin);
                    w.u64(parent.0);
                    w.u64(node.0);
                    w.sequence_of(return_files, |w, f| w.str(f));
                })
            }),
            Request::DeliverOutcome {
                parent,
                node,
                outcome,
                files,
            } => w.tagged(6, |w| write_delivery(w, *parent, *node, outcome, files)),
            Request::PushFile {
                to_vsite,
                dest_name,
                data,
                origin_job,
                origin_node,
                user_dn,
            } => w.tagged(7, |w| {
                w.sequence(|w| {
                    to_vsite.write_der(w);
                    w.str(dest_name);
                    w.bytes(data);
                    w.u64(origin_job.0);
                    w.u64(origin_node.0);
                    w.str(user_dn);
                })
            }),
            Request::TransferOffer { manifest } => w.tagged(12, |w| manifest.write_der(w)),
            Request::TransferChunk {
                origin,
                origin_job,
                origin_node,
                index,
                data,
            } => w.tagged(13, |w| {
                w.sequence(|w| {
                    w.str(origin);
                    w.u64(origin_job.0);
                    w.u64(origin_node.0);
                    w.u64(*index);
                    w.bytes(data);
                })
            }),
            Request::Broker { request } => w.tagged(14, |w| request.write_der(w)),
            Request::DeliverOutcomes { deliveries } => w.tagged(15, |w| {
                w.sequence_of(deliveries, |w, d| {
                    write_delivery(w, d.parent, d.node, &d.outcome, &d.files)
                })
            }),
            Request::MonitorPush { push } => w.tagged(16, |w| push.write_der(w)),
        }
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.tagged(|tag, t| match tag {
            0 => Ok(Request::Consign {
                ajo: AbstractJob::read_der(t)?,
            }),
            1 => t.sequence("Poll", |f| {
                Ok(Request::Poll {
                    job: JobId(f.next_u64()?),
                    detail: DetailLevel::from_enum(f.next_enum()?)?,
                })
            }),
            2 => t.sequence("Control", |f| {
                Ok(Request::Control {
                    job: JobId(f.next_u64()?),
                    op: ControlOp::from_enum(f.next_enum()?)?,
                })
            }),
            3 => t.next_null().map(|()| Request::List),
            4 => t.sequence("FetchFile", |f| {
                Ok(Request::FetchFile {
                    job: JobId(f.next_u64()?),
                    name: f.next_string()?,
                })
            }),
            5 => t.sequence("ConsignSubJob", |f| {
                Ok(Request::ConsignSubJob {
                    ajo: AbstractJob::read_der(f)?,
                    origin: f.next_string()?,
                    parent: JobId(f.next_u64()?),
                    node: ActionId(f.next_u64()?),
                    return_files: f.sequence_of("return files", |n| n.next_string())?,
                })
            }),
            6 => {
                let d = read_delivery(t, "DeliverOutcome")?;
                Ok(Request::DeliverOutcome {
                    parent: d.parent,
                    node: d.node,
                    outcome: d.outcome,
                    files: d.files,
                })
            }
            7 => t.sequence("PushFile", |f| {
                Ok(Request::PushFile {
                    to_vsite: VsiteAddress::read_der(f)?,
                    dest_name: f.next_string()?,
                    data: f.next_bytes()?.to_vec(),
                    origin_job: JobId(f.next_u64()?),
                    origin_node: ActionId(f.next_u64()?),
                    user_dn: f.next_string()?,
                })
            }),
            8 => Ok(Request::Purge {
                job: JobId(t.next_u64()?),
            }),
            9 => Ok(Request::ListFiles {
                job: JobId(t.next_u64()?),
            }),
            10 => t.next_null().map(|()| Request::GetResources),
            11 => Ok(Request::Monitor {
                grid: t.next_bool()?,
            }),
            12 => Ok(Request::TransferOffer {
                manifest: TransferManifest::read_der(t)?,
            }),
            13 => t.sequence("TransferChunk", |f| {
                Ok(Request::TransferChunk {
                    origin: f.next_string()?,
                    origin_job: JobId(f.next_u64()?),
                    origin_node: ActionId(f.next_u64()?),
                    index: f.next_u64()?,
                    data: f.next_bytes()?.to_vec(),
                })
            }),
            14 => Ok(Request::Broker {
                request: ResourceRequest::read_der(t)?,
            }),
            15 => Ok(Request::DeliverOutcomes {
                deliveries: t
                    .sequence_of("DeliverOutcomes", |d| read_delivery(d, "OutcomeDelivery"))?,
            }),
            16 => Ok(Request::MonitorPush {
                push: GridPush::read_der(t)?,
            }),
            _ => Err(CodecError::BadValue("Request variant")),
        })
    }
}

impl DerCodec for Response {
    fn write_der(&self, w: &mut DerWriter) {
        match self {
            Response::Consigned { job } => w.tagged(0, |w| w.u64(job.0)),
            Response::Service(s) => w.tagged(1, |w| s.write_der(w)),
            Response::FileData(d) => w.tagged(2, |w| w.bytes(d)),
            Response::Ack => w.tagged(3, |w| w.null()),
            Response::Purged { bytes } => w.tagged(5, |w| w.u64(*bytes)),
            Response::FileNames(names) => w.tagged(6, |w| w.sequence_of(names, |w, n| w.str(n))),
            Response::Resources(dir) => w.tagged(7, |w| dir.write_der(w)),
            Response::Error(msg) => w.tagged(4, |w| w.str(msg)),
            Response::TransferGo { resume_from } => w.tagged(8, |w| w.u64(*resume_from)),
            Response::ChunkAck { upto, done } => w.tagged(9, |w| {
                w.sequence(|w| {
                    w.u64(*upto);
                    w.bool(*done);
                })
            }),
            Response::BrokerOffer { offers } => {
                w.tagged(10, |w| w.sequence_of(offers, |w, o| o.write_der(w)))
            }
            Response::GridAck { epoch, resync } => w.tagged(11, |w| {
                w.sequence(|w| {
                    w.u64(*epoch);
                    w.bool(*resync);
                })
            }),
        }
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.tagged(|tag, t| match tag {
            0 => Ok(Response::Consigned {
                job: JobId(t.next_u64()?),
            }),
            1 => Ok(Response::Service(ServiceOutcome::read_der(t)?)),
            2 => Ok(Response::FileData(t.next_bytes()?.to_vec())),
            3 => t.next_null().map(|()| Response::Ack),
            4 => Ok(Response::Error(t.next_string()?)),
            5 => Ok(Response::Purged {
                bytes: t.next_u64()?,
            }),
            6 => Ok(Response::FileNames(
                t.sequence_of("file names", |n| n.next_string())?,
            )),
            7 => Ok(Response::Resources(ResourceDirectory::read_der(t)?)),
            8 => Ok(Response::TransferGo {
                resume_from: t.next_u64()?,
            }),
            9 => t.sequence("ChunkAck", |f| {
                Ok(Response::ChunkAck {
                    upto: f.next_u64()?,
                    done: f.next_bool()?,
                })
            }),
            10 => Ok(Response::BrokerOffer {
                offers: t.sequence_of("broker offers", PlacementOffer::read_der)?,
            }),
            11 => t.sequence("GridAck", |f| {
                Ok(Response::GridAck {
                    epoch: f.next_u64()?,
                    resync: f.next_bool()?,
                })
            }),
            _ => Err(CodecError::BadValue("Response variant")),
        })
    }
}

/// Tag of the optional trailing trace-context element of an [`Envelope`].
const TRACE_TAG: u8 = 2;
/// Tag of the optional trailing sequence-number element of an [`Envelope`].
const SEQ_TAG: u8 = 3;
/// Tag of the optional trailing cumulative-ack element of an [`Envelope`].
const ACK_TAG: u8 = 4;

fn read_trace(r: &mut DerReader<'_>) -> Result<SpanContext, CodecError> {
    r.sequence("TraceContext", |f| {
        let trace: [u8; 16] = f
            .next_bytes()?
            .try_into()
            .map_err(|_| CodecError::BadValue("trace id length"))?;
        let span: [u8; 8] = f
            .next_bytes()?
            .try_into()
            .map_err(|_| CodecError::BadValue("span id length"))?;
        Ok(SpanContext {
            trace: TraceId(trace),
            span: SpanId(u64::from_be_bytes(span)),
        })
    })
}

impl Envelope {
    /// Writes an envelope from borrowed parts — the encoding
    /// [`DerCodec::write_der`] gives the owned value. A sender that holds
    /// the DN and the body elsewhere (the federation frames thousands of
    /// envelopes under the same server DN, and keeps a fresh answer for
    /// its reply cache) encodes without assembling an `Envelope` first.
    pub(crate) fn write_parts(
        w: &mut DerWriter,
        corr: u64,
        from_dn: &str,
        body: &Body,
        trace: Option<SpanContext>,
        seq: Option<u64>,
        ack: Option<u64>,
    ) {
        w.sequence(|w| {
            w.u64(corr);
            w.str(from_dn);
            match body {
                Body::Request(r) => w.tagged(0, |w| r.write_der(w)),
                Body::Response(r) => w.tagged(1, |w| r.write_der(w)),
            }
            // Optional trailing fields must appear in ascending tag order:
            // the reader's optional_tagged consumes sequentially.
            if let Some(ctx) = trace {
                w.tagged(TRACE_TAG, |w| {
                    w.sequence(|w| {
                        w.bytes(ctx.trace.as_bytes());
                        w.bytes(&ctx.span.0.to_be_bytes());
                    })
                });
            }
            if let Some(seq) = seq {
                w.tagged(SEQ_TAG, |w| w.u64(seq));
            }
            if let Some(ack) = ack {
                w.tagged(ACK_TAG, |w| w.u64(ack));
            }
        });
    }
}

impl DerCodec for Envelope {
    fn write_der(&self, w: &mut DerWriter) {
        let Envelope {
            corr,
            from_dn,
            body,
            trace,
            seq,
            ack,
        } = self;
        Self::write_parts(w, *corr, from_dn, body, *trace, *seq, *ack);
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("Envelope", |f| {
            Ok(Envelope {
                corr: f.next_u64()?,
                from_dn: f.next_string()?,
                body: f.tagged(|tag, t| match tag {
                    0 => Ok(Body::Request(Request::read_der(t)?)),
                    1 => Ok(Body::Response(Response::read_der(t)?)),
                    _ => Err(CodecError::BadValue("Body variant")),
                })?,
                trace: f.optional_tagged(TRACE_TAG, read_trace)?,
                seq: f.optional_tagged(SEQ_TAG, |t| t.next_u64())?,
                ack: f.optional_tagged(ACK_TAG, |t| t.next_u64())?,
            })
        })
    }
}

/// Convenience: the summaries inside a List response.
pub fn list_jobs_of(response: &Response) -> Option<&[JobSummary]> {
    match response {
        Response::Service(ServiceOutcome::List { jobs }) => Some(jobs),
        _ => None,
    }
}

/// Convenience: the outcome inside a Poll response.
pub fn outcome_of(response: &Response) -> Option<&JobOutcome> {
    match response {
        Response::Service(ServiceOutcome::Query { outcome }) => Some(outcome),
        _ => None,
    }
}

/// Convenience: the per-site reports inside a Monitor response.
pub fn monitor_reports_of(response: &Response) -> Option<&[MonitorReport]> {
    match response {
        Response::Service(ServiceOutcome::Monitor { sites }) => Some(sites),
        _ => None,
    }
}

/// Convenience: the hierarchical view inside a Grid response.
pub fn grid_view_of(response: &Response) -> Option<&GridView> {
    match response {
        Response::Service(ServiceOutcome::Grid { view }) => Some(view),
        _ => None,
    }
}

/// Convenience: the ranked offers inside a BrokerOffer response.
pub fn broker_offers_of(response: &Response) -> Option<&[PlacementOffer]> {
    match response {
        Response::BrokerOffer { offers } => Some(offers),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_ajo::UserAttributes;
    use unicore_codec::Value;

    fn sample_job() -> AbstractJob {
        AbstractJob::new(
            "j",
            VsiteAddress::new("FZJ", "T3E"),
            UserAttributes::new("CN=x, C=DE, OU=a, O=b", "g"),
        )
    }

    fn round_trip_req(r: Request) {
        let env = Envelope {
            corr: 42,
            from_dn: "C=DE, O=FZJ, OU=ZAM, CN=alice".into(),
            body: Body::Request(r),
            trace: None,
            seq: None,
            ack: None,
        };
        let back = Envelope::from_der(&env.to_der()).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn request_round_trips() {
        round_trip_req(Request::Consign { ajo: sample_job() });
        round_trip_req(Request::Poll {
            job: JobId(3),
            detail: DetailLevel::Tasks,
        });
        round_trip_req(Request::Control {
            job: JobId(3),
            op: ControlOp::Abort,
        });
        round_trip_req(Request::List);
        round_trip_req(Request::FetchFile {
            job: JobId(1),
            name: "out.dat".into(),
        });
        round_trip_req(Request::Purge { job: JobId(4) });
        round_trip_req(Request::ListFiles { job: JobId(4) });
        round_trip_req(Request::GetResources);
        round_trip_req(Request::Monitor { grid: false });
        round_trip_req(Request::Monitor { grid: true });
        round_trip_req(Request::ConsignSubJob {
            ajo: sample_job(),
            origin: "RUS".into(),
            parent: JobId(9),
            node: ActionId(2),
            return_files: vec!["grid.dat".into()],
        });
        round_trip_req(Request::DeliverOutcome {
            parent: JobId(9),
            node: ActionId(2),
            outcome: OutcomeNode::Job(JobOutcome::default()),
            files: vec![("grid.dat".into(), vec![1, 2, 3])],
        });
        round_trip_req(Request::PushFile {
            to_vsite: VsiteAddress::new("DWD", "SX4"),
            dest_name: "f".into(),
            data: vec![1, 2, 3],
            origin_job: JobId(1),
            origin_node: ActionId(5),
            user_dn: "CN=alice".into(),
        });
        round_trip_req(Request::TransferOffer {
            manifest: TransferManifest::for_bytes(
                "FZJ",
                JobId(3),
                ActionId(4),
                VsiteAddress::new("RUS", "VPP"),
                "fields.grb",
                "CN=alice",
                true,
                &[7u8; 1000],
                256,
            ),
        });
        round_trip_req(Request::TransferChunk {
            origin: "FZJ".into(),
            origin_job: JobId(3),
            origin_node: ActionId(4),
            index: 2,
            data: vec![7u8; 256],
        });
        round_trip_req(Request::Broker {
            request: ResourceRequest::minimal()
                .with_processors(64)
                .with_run_time(7_200),
        });
        round_trip_req(Request::DeliverOutcomes {
            deliveries: vec![
                OutcomeDelivery {
                    parent: JobId(9),
                    node: ActionId(2),
                    outcome: OutcomeNode::Job(JobOutcome::default()),
                    files: vec![("grid.dat".into(), vec![1, 2, 3])],
                },
                OutcomeDelivery {
                    parent: JobId(9),
                    node: ActionId(3),
                    outcome: OutcomeNode::Job(JobOutcome::default()),
                    files: vec![],
                },
            ],
        });
        round_trip_req(Request::DeliverOutcomes { deliveries: vec![] });
    }

    #[test]
    fn monitor_push_round_trips() {
        use unicore_telemetry::aggregate::{SnapshotDelta, SnapshotPayload};
        use unicore_telemetry::MetricsSnapshot;

        let mut full = MetricsSnapshot::default();
        full.counters.insert("njs.consigned".into(), 4);
        round_trip_req(Request::MonitorPush {
            push: GridPush {
                origin: "RUS".into(),
                base_epoch: 0,
                to_epoch: 1,
                rows: vec![unicore_ajo::SiteStatus {
                    usite: "RUS".into(),
                    epoch: 1,
                    updated_at: 30_000_000,
                    health: unicore_ajo::SiteHealth::Live,
                    vsites: vec![],
                    headline: vec![("njs.consigned".into(), 4)],
                }],
                merged: SnapshotPayload::Full(full.clone()),
                stale: vec![],
            },
        });
        round_trip_req(Request::MonitorPush {
            push: GridPush {
                origin: "RUS".into(),
                base_epoch: 1,
                to_epoch: 2,
                rows: vec![],
                merged: SnapshotPayload::Delta(SnapshotDelta::between(&full, &full)),
                stale: vec!["ZIB".into()],
            },
        });
    }

    #[test]
    fn response_round_trips() {
        for r in [
            Response::Consigned { job: JobId(7) },
            Response::Service(ServiceOutcome::Control {
                applied: true,
                message: "ok".into(),
            }),
            Response::FileData(vec![9; 100]),
            Response::Ack,
            Response::Purged { bytes: 12_345 },
            Response::FileNames(vec!["a.out".into(), "result.nc".into()]),
            {
                let mut dir = ResourceDirectory::new();
                dir.publish(unicore_resources::deployment_page(
                    "FZJ",
                    "T3E",
                    unicore_resources::Architecture::CrayT3e,
                ));
                Response::Resources(dir)
            },
            Response::Error("no UUDB entry".into()),
            Response::TransferGo { resume_from: 17 },
            Response::ChunkAck {
                upto: 42,
                done: false,
            },
            Response::ChunkAck {
                upto: 43,
                done: true,
            },
            Response::GridAck {
                epoch: 9,
                resync: false,
            },
            Response::GridAck {
                epoch: 0,
                resync: true,
            },
            Response::BrokerOffer { offers: vec![] },
            Response::BrokerOffer {
                offers: vec![PlacementOffer {
                    vsite: VsiteAddress::new("FZJ", "T3E"),
                    score: 1_234,
                    immediate: true,
                    queue_length: 0,
                    utilization_milli: 450,
                    price_per_node_hour_milli: 900,
                }],
            },
        ] {
            let env = Envelope {
                corr: 1,
                from_dn: "CN=s".into(),
                body: Body::Response(r),
                trace: None,
                seq: None,
                ack: None,
            };
            assert_eq!(Envelope::from_der(&env.to_der()).unwrap(), env);
        }
    }

    #[test]
    fn trace_context_round_trips() {
        let ctx = SpanContext {
            trace: TraceId([0xab; 16]),
            span: SpanId(0x1122_3344_5566_7788),
        };
        let env = Envelope {
            corr: 5,
            from_dn: "CN=s".into(),
            body: Body::Request(Request::List),
            trace: Some(ctx),
            seq: None,
            ack: None,
        };
        let back = Envelope::from_der(&env.to_der()).unwrap();
        assert_eq!(back, env);
        assert_eq!(back.trace, Some(ctx));
    }

    #[test]
    fn pre_telemetry_frame_still_decodes() {
        // A frame exactly as a peer predating the trace extension would
        // emit it: three fields, no trailing tagged element.
        let old = unicore_codec::encode(&Value::Sequence(vec![
            Value::Integer(9),
            Value::string("CN=old-peer"),
            Value::tagged(0, unicore_codec::decode(&Request::List.to_der()).unwrap()),
        ]));
        let env = Envelope::from_der(&old).unwrap();
        assert_eq!(env.corr, 9);
        assert_eq!(env.body, Body::Request(Request::List));
        assert_eq!(env.trace, None);
        // And an untraced envelope encodes byte-identically to it.
        let ours = Envelope {
            corr: 9,
            from_dn: "CN=old-peer".into(),
            body: Body::Request(Request::List),
            trace: None,
            seq: None,
            ack: None,
        };
        assert_eq!(ours.to_der(), old);
    }

    #[test]
    fn seq_and_ack_round_trip_and_stay_optional() {
        // seq without ack, ack without seq, and both together all
        // round-trip; a pre-reliability frame (neither) still decodes.
        for (seq, ack) in [
            (Some(7), None),
            (None, Some(3)),
            (Some(7), Some(3)),
            (None, None),
        ] {
            let env = Envelope {
                corr: 11,
                from_dn: "CN=peer".into(),
                body: Body::Request(Request::List),
                trace: None,
                seq,
                ack,
            };
            let back = Envelope::from_der(&env.to_der()).unwrap();
            assert_eq!(back, env);
        }
        // seq/ack compose with a trace context (ascending tag order).
        let ctx = SpanContext {
            trace: TraceId::from_words(1, 2),
            span: SpanId(3),
        };
        let env = Envelope {
            corr: 11,
            from_dn: "CN=peer".into(),
            body: Body::Request(Request::List),
            trace: Some(ctx),
            seq: Some(42),
            ack: Some(41),
        };
        assert_eq!(Envelope::from_der(&env.to_der()).unwrap(), env);
    }

    #[test]
    fn bodiless_variants_have_one_spelling() {
        // List, GetResources and Ack carry NULL inside their tag; the
        // bare variants decode, anything else in there is refused.
        for (tag, is_request) in [(3, true), (10, true), (3, false)] {
            for inner in [Value::Sequence(vec![]), Value::Integer(0)] {
                let der = unicore_codec::encode(&Value::tagged(tag, inner));
                if is_request {
                    assert!(Request::from_der(&der).is_err(), "request [{tag}]");
                } else {
                    assert!(Response::from_der(&der).is_err(), "response [{tag}]");
                }
            }
        }
        assert_eq!(
            Request::from_der(&Request::List.to_der()),
            Ok(Request::List)
        );
        assert_eq!(
            Response::from_der(&Response::Ack.to_der()),
            Ok(Response::Ack)
        );
    }

    #[test]
    fn accessors() {
        let list = Response::Service(ServiceOutcome::List { jobs: vec![] });
        assert!(list_jobs_of(&list).is_some());
        assert!(outcome_of(&list).is_none());
        let q = Response::Service(ServiceOutcome::Query {
            outcome: JobOutcome::default(),
        });
        assert!(outcome_of(&q).is_some());
    }
}
