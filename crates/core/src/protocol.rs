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
    /// JMC → server (or server → tree parent): fetch the site's health
    /// report. With `grid`, the query climbs the aggregation tree one hop
    /// at a time and the root answers with the whole grid's view from
    /// its pre-merged caches; a site whose uplink is quarantined answers
    /// with its own subtree's view.
    Monitor {
        /// Answer for the whole grid instead of this site alone.
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
    /// this tick, in one envelope. Each entry is applied idempotently, so
    /// a re-delivered batch is harmless.
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
    /// JMC → server: two or more job-service requests the client asked
    /// of this Usite under one DN in one tick, in call order, travelling
    /// as one envelope. Each member is served exactly as if it had come
    /// alone; the answer is one [`Response::Swept`]. Never empty, never
    /// nested: the decoder refuses both.
    Sweep {
        /// The members, in call order.
        requests: Vec<Request>,
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
    /// parent's Uspace (the paper's predecessor→successor guarantee).
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
    /// The answer to a [`Request::Sweep`]: one response per member, in
    /// member order. Never empty, never nested.
    Swept {
        /// The members' answers.
        responses: Vec<Response>,
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

/// One entry of a [`Request::DeliverOutcomes`]; its files are
/// `(name, contents)` pairs.
fn write_delivery(w: &mut DerWriter, d: &OutcomeDelivery) {
    w.sequence(|w| {
        w.u64(d.parent.0);
        w.u64(d.node.0);
        d.outcome.write_der(w);
        w.sequence_of(&d.files, |w, (name, data)| {
            w.sequence(|w| {
                w.str(name);
                w.bytes(data);
            })
        });
    });
}

fn read_delivery(r: &mut DerReader<'_>) -> Result<OutcomeDelivery, CodecError> {
    r.sequence("OutcomeDelivery", |f| {
        Ok(OutcomeDelivery {
            parent: JobId(f.next_u64()?),
            node: ActionId(f.next_u64()?),
            outcome: OutcomeNode::read_der(f)?,
            files: f.sequence_of("returned files", |e| {
                e.sequence("returned file", |f| {
                    Ok((f.next_string()?, f.next_bytes()?.to_vec()))
                })
            })?,
        })
    })
}

/// The members of a [`Request::Sweep`] or a [`Response::Swept`]. One
/// spelling per value: a sweep of none would be a second spelling of
/// nothing, and a sweep inside a sweep one of its members spliced in.
fn read_members<T: DerCodec>(
    r: &mut DerReader<'_>,
    context: &'static str,
    is_sweep: impl Fn(&T) -> bool,
) -> Result<Vec<T>, CodecError> {
    let members = r.sequence_of(context, |m| match T::read_der(m)? {
        member if is_sweep(&member) => Err(CodecError::BadValue("sweep inside a sweep")),
        member => Ok(member),
    })?;
    if members.is_empty() {
        return Err(CodecError::BadValue("empty sweep"));
    }
    Ok(members)
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
            Request::DeliverOutcomes { deliveries } => {
                w.tagged(15, |w| w.sequence_of(deliveries, write_delivery))
            }
            Request::MonitorPush { push } => w.tagged(16, |w| push.write_der(w)),
            Request::Sweep { requests } => {
                w.tagged(17, |w| w.sequence_of(requests, |w, r| r.write_der(w)))
            }
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
            // 6 and 7 are retired (a lone outcome delivery and a whole
            // pushed file): they fall through to the refusal below.
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
                deliveries: t.sequence_of("DeliverOutcomes", read_delivery)?,
            }),
            16 => Ok(Request::MonitorPush {
                push: GridPush::read_der(t)?,
            }),
            17 => Ok(Request::Sweep {
                requests: read_members(t, "Sweep", |r| matches!(r, Request::Sweep { .. }))?,
            }),
            _ => Err(CodecError::BadValue("Request variant")),
        })
    }
}

/// The tag of [`Response::Service`], which [`AnswerSink`]'s frame writer
/// also writes around a poll's outcome.
const SERVICE_TAG: u8 = 1;
/// The tag of [`Response::Swept`], which the frame writer also writes
/// around a sweep's members.
const SWEPT_TAG: u8 = 12;

impl DerCodec for Response {
    fn write_der(&self, w: &mut DerWriter) {
        match self {
            Response::Consigned { job } => w.tagged(0, |w| w.u64(job.0)),
            Response::Service(s) => w.tagged(SERVICE_TAG, |w| s.write_der(w)),
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
            Response::Swept { responses } => w.tagged(SWEPT_TAG, |w| {
                w.sequence_of(responses, |w, r| r.write_der(w))
            }),
        }
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.tagged(|tag, t| match tag {
            0 => Ok(Response::Consigned {
                job: JobId(t.next_u64()?),
            }),
            SERVICE_TAG => Ok(Response::Service(ServiceOutcome::read_der(t)?)),
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
            SWEPT_TAG => Ok(Response::Swept {
                responses: read_members(t, "Swept", |r| matches!(r, Response::Swept { .. }))?,
            }),
            _ => Err(CodecError::BadValue("Response variant")),
        })
    }
}

/// Where a server writes its answer to one request: one dispatch path
/// for two kinds of answer. The public door takes an owned [`Response`]
/// (`Option<Response>`, a sweep's members a `Vec<Response>`); the
/// federation hands the [`DerWriter`] of the frame it is writing, so a
/// poll's answer goes from the NJS's own outcome tree into the frame and
/// a sweep's members are written one by one as they are answered. Both
/// give the same bytes: the frame holds what the owned answer encodes to.
pub(crate) trait AnswerSink {
    /// Where a sweep's members answer.
    type Members: AnswerSink;

    /// The answer, as a value.
    fn response(&mut self, response: Response);

    /// A poll's answer, `Response::Service(ServiceOutcome::Query { .. })`
    /// with `outcome` pruned to `detail`: for an owned answer, a pruned
    /// copy of the tree.
    fn query(&mut self, outcome: &JobOutcome, detail: DetailLevel) {
        self.response(Response::Service(ServiceOutcome::Query {
            outcome: outcome.pruned(detail),
        }));
    }

    /// A sweep's answer, [`Response::Swept`]: `answer` answers each of
    /// its `members` members, in order.
    fn swept(&mut self, members: usize, answer: impl FnOnce(&mut Self::Members));
}

/// The public door's answer.
impl AnswerSink for Option<Response> {
    type Members = Vec<Response>;

    fn response(&mut self, response: Response) {
        debug_assert!(self.is_none(), "one answer per request");
        *self = Some(response);
    }

    fn swept(&mut self, members: usize, answer: impl FnOnce(&mut Vec<Response>)) {
        self.response(owned_sweep(members, answer));
    }
}

/// A sweep's owned answers, in member order.
impl AnswerSink for Vec<Response> {
    type Members = Vec<Response>;

    fn response(&mut self, response: Response) {
        self.push(response);
    }

    fn swept(&mut self, members: usize, answer: impl FnOnce(&mut Vec<Response>)) {
        self.push(owned_sweep(members, answer));
    }
}

/// An owned sweep's answer: the `members` answers `answer` gives, in order.
fn owned_sweep(members: usize, answer: impl FnOnce(&mut Vec<Response>)) -> Response {
    let mut responses = Vec::with_capacity(members);
    answer(&mut responses);
    Response::Swept { responses }
}

/// The frame's answer: the `Response` DER, written in place.
impl AnswerSink for DerWriter {
    type Members = DerWriter;

    fn response(&mut self, response: Response) {
        response.write_der(self);
    }

    fn query(&mut self, outcome: &JobOutcome, detail: DetailLevel) {
        self.tagged(SERVICE_TAG, |w| {
            ServiceOutcome::write_query_der(w, outcome, detail)
        });
    }

    fn swept(&mut self, _members: usize, answer: impl FnOnce(&mut DerWriter)) {
        self.tagged(SWEPT_TAG, |w| w.sequence(answer));
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

/// An envelope's body as [`Envelope::write_parts`] takes it: borrowed,
/// the DER a response given before was framed in, or — a response being
/// given now — a writer of its DER ([`AnswerSink`] on the frame).
pub(crate) enum BodyRef<'a, F = fn(&mut DerWriter)> {
    Request(&'a Request),
    Response(&'a Response),
    /// A response's DER (what [`Envelope::response_der`] found in the
    /// frame that first carried it), written as it is.
    ResponseDer(&'a [u8]),
    /// A response whose DER the function writes.
    ResponseWith(F),
}

impl Envelope {
    /// Writes an envelope from borrowed parts — the encoding
    /// [`DerCodec::write_der`] gives the owned value. A sender that holds
    /// the DN and the body elsewhere (the federation frames thousands of
    /// envelopes under the same server DN, replays answers it keeps as
    /// bytes, and writes a server's answer as the server gives it)
    /// encodes without assembling an `Envelope` first.
    pub(crate) fn write_parts<F: FnOnce(&mut DerWriter)>(
        w: &mut DerWriter,
        corr: u64,
        from_dn: &str,
        body: BodyRef<'_, F>,
        trace: Option<SpanContext>,
        seq: Option<u64>,
        ack: Option<u64>,
    ) {
        w.sequence(|w| {
            w.u64(corr);
            w.str(from_dn);
            match body {
                BodyRef::Request(r) => w.tagged(0, |w| r.write_der(w)),
                BodyRef::Response(r) => w.tagged(1, |w| r.write_der(w)),
                BodyRef::ResponseDer(der) => w.tagged(1, |w| w.raw(der)),
                BodyRef::ResponseWith(write) => w.tagged(1, write),
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

    /// The DER of the response an encoded envelope carries, borrowed from
    /// `der`: what a reply cache keeps, and
    /// [`BodyRef::ResponseDer`] frames again. `None` for a request.
    pub(crate) fn response_der(der: &[u8]) -> Option<&[u8]> {
        Self::find_in_body(der, |tag, body| match tag {
            1 => body.next_raw(),
            _ => Err(CodecError::BadValue("not a response")),
        })
    }

    /// The AJO a [`Request::Consign`] or [`Request::ConsignSubJob`]
    /// envelope carries, as the bytes it arrived in — the `to_der()` of
    /// the decoded job, without encoding it again. `None` for any other
    /// body.
    pub(crate) fn consigned_ajo_der(der: &[u8]) -> Option<&[u8]> {
        Self::find_in_body(der, |tag, body| match tag {
            0 => body.tagged(|tag, request| match tag {
                0 => request.next_raw(),
                5 => request.sequence("ConsignSubJob", |f| {
                    let ajo = f.next_raw()?;
                    while !f.is_empty() {
                        f.next_raw()?;
                    }
                    Ok(ajo)
                }),
                _ => Err(CodecError::BadValue("not a consign")),
            }),
            _ => Err(CodecError::BadValue("not a request")),
        })
    }

    /// Walks an encoded envelope to its body, where `find` (given the
    /// body's tag) picks out a slice of it; the envelope's other fields
    /// are stepped over, not decoded.
    fn find_in_body<'a>(
        der: &'a [u8],
        find: impl FnOnce(u8, &mut DerReader<'a>) -> Result<&'a [u8], CodecError>,
    ) -> Option<&'a [u8]> {
        let found = DerReader::new(der).sequence("Envelope", |f| {
            f.next_u64()?;
            f.next_str()?;
            let found = f.tagged(find)?;
            while !f.is_empty() {
                f.next_raw()?;
            }
            Ok(found)
        });
        found.ok()
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
        let body: BodyRef = match body {
            Body::Request(r) => BodyRef::Request(r),
            Body::Response(r) => BodyRef::Response(r),
        };
        Self::write_parts(w, *corr, from_dn, body, *trace, *seq, *ack);
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        EnvelopeView::read_der(r).map(EnvelopeView::into_owned)
    }
}

/// A received envelope whose DN is borrowed from the bytes it was read
/// from. The federation's receive path only reads the DN (to look up the
/// reply cache, the gateway mapping, the trusted peers), so it decodes
/// into this view and allocates no copy of it per envelope. Its reader
/// is the one [`Envelope::read_der`] takes the owned value from.
#[derive(Debug)]
pub(crate) struct EnvelopeView<'a> {
    pub(crate) corr: u64,
    pub(crate) from_dn: &'a str,
    pub(crate) body: Body,
    pub(crate) trace: Option<SpanContext>,
    pub(crate) seq: Option<u64>,
    pub(crate) ack: Option<u64>,
}

impl<'a> EnvelopeView<'a> {
    /// Reads one envelope, whole: what [`DerCodec::from_der`] reads for an
    /// [`Envelope`], trailing bytes refused alike.
    pub(crate) fn from_der(der: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = DerReader::new(der);
        let env = Self::read_der(&mut r)?;
        r.finish()?;
        Ok(env)
    }

    /// The envelope's fields, in wire order.
    fn read_der(r: &mut DerReader<'a>) -> Result<Self, CodecError> {
        r.sequence("Envelope", |f| {
            Ok(EnvelopeView {
                corr: f.next_u64()?,
                from_dn: f.next_str()?,
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

    /// The owned envelope: the DN copied, the rest moved.
    fn into_owned(self) -> Envelope {
        let EnvelopeView {
            corr,
            from_dn,
            body,
            trace,
            seq,
            ack,
        } = self;
        Envelope {
            corr,
            from_dn: from_dn.to_owned(),
            body,
            trace,
            seq,
            ack,
        }
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
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use unicore_ajo::{
        AbstractTask, Dependency, ExecuteKind, GraphNode, PortfolioFile, TaskKind, UserAttributes,
    };
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

    /// One request of every kind that a client or a peer sends.
    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Consign { ajo: sample_job() },
            Request::Poll {
                job: JobId(3),
                detail: DetailLevel::Tasks,
            },
            Request::Control {
                job: JobId(3),
                op: ControlOp::Abort,
            },
            Request::List,
            Request::FetchFile {
                job: JobId(1),
                name: "out.dat".into(),
            },
            Request::Purge { job: JobId(4) },
            Request::ListFiles { job: JobId(4) },
            Request::GetResources,
            Request::Monitor { grid: false },
            Request::Monitor { grid: true },
            Request::ConsignSubJob {
                ajo: sample_job(),
                origin: "RUS".into(),
                parent: JobId(9),
                node: ActionId(2),
                return_files: vec!["grid.dat".into()],
            },
            Request::TransferOffer {
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
            },
            Request::TransferChunk {
                origin: "FZJ".into(),
                origin_job: JobId(3),
                origin_node: ActionId(4),
                index: 2,
                data: vec![7u8; 256],
            },
            Request::Broker {
                request: ResourceRequest::minimal()
                    .with_processors(64)
                    .with_run_time(7_200),
            },
            Request::DeliverOutcomes {
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
            },
            Request::DeliverOutcomes { deliveries: vec![] },
            Request::Sweep {
                requests: vec![poll(2), Request::Purge { job: JobId(1) }, poll(1)],
            },
        ]
    }

    #[test]
    fn request_round_trips() {
        for request in sample_requests() {
            round_trip_req(request);
        }
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
        for r in sample_responses() {
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

    /// One response of every kind, one of them long enough for long-form
    /// lengths.
    fn sample_responses() -> [Response; 17] {
        [
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
            Response::Swept {
                responses: vec![Response::Ack, Response::Error("no such job".into())],
            },
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
            Response::FileData(vec![3; 70_000]),
        ]
    }

    #[test]
    fn a_stored_answer_is_framed_byte_for_byte_as_its_tree() {
        for r in sample_responses() {
            let env = Envelope {
                corr: 9,
                from_dn: "CN=s".into(),
                body: Body::Response(r.clone()),
                trace: None,
                seq: None,
                ack: None,
            };
            let framed = env.to_der();
            let der = Envelope::response_der(&framed).expect("a response");
            assert_eq!(der, r.to_der());
            for (seq, ack) in [(None, None), (Some(1), None), (Some(300), Some(70_000))] {
                let write = |body: BodyRef| {
                    let mut w = DerWriter::new();
                    Envelope::write_parts(&mut w, 9, "CN=s", body, None, seq, ack);
                    w.into_vec()
                };
                let tree = write(BodyRef::Response(&r));
                assert_eq!(write(BodyRef::ResponseDer(der)), tree, "{r:?}");
                assert_eq!(Envelope::response_der(&tree), Some(der));
                let mut w = DerWriter::new();
                let body = BodyRef::ResponseWith(|w: &mut DerWriter| w.response(r.clone()));
                Envelope::write_parts(&mut w, 9, "CN=s", body, None, seq, ack);
                assert_eq!(w.into_vec(), tree, "{r:?}");
            }
        }
        let request = Envelope {
            corr: 9,
            from_dn: "CN=s".into(),
            body: Body::Request(Request::List),
            trace: None,
            seq: Some(1),
            ack: None,
        };
        assert_eq!(Envelope::response_der(&request.to_der()), None);
    }

    /// An outcome tree with up to `depth` levels of job groups below the
    /// top: tasks in every status, with output and messages of any length
    /// (long ones need long-form lengths), exit codes and flight traces
    /// now and then.
    fn random_outcome(rng: &mut TestRng, depth: u32) -> JobOutcome {
        use unicore_ajo::{ActionStatus, TaskOutcome};
        use unicore_telemetry::FlightEvent;
        const STATUSES: [ActionStatus; 8] = [
            ActionStatus::Pending,
            ActionStatus::Consigned,
            ActionStatus::Queued,
            ActionStatus::Running,
            ActionStatus::Held,
            ActionStatus::Successful,
            ActionStatus::NotSuccessful,
            ActionStatus::Killed,
        ];
        let status = |rng: &mut TestRng| STATUSES[rng.below(8) as usize];
        let bytes = |rng: &mut TestRng, max: u64| vec![b'o'; rng.below(max + 1) as usize];
        let children = (1..=rng.below(6))
            .map(|_| {
                let node = if depth > 0 && rng.below(3) == 0 {
                    OutcomeNode::Job(random_outcome(rng, depth - 1))
                } else {
                    OutcomeNode::Task(TaskOutcome {
                        status: status(rng),
                        exit_code: rng.gen_bool().then(|| rng.next_u32() as i32),
                        stdout: bytes(rng, 300),
                        stderr: bytes(rng, 20),
                        bytes_staged: rng.below(1 << 30),
                        message: "m".repeat(rng.below(40) as usize),
                        flight: (0..rng.below(3))
                            .map(|at| FlightEvent {
                                at,
                                what: "njs.dispatch".into(),
                                detail: "d".repeat(rng.below(150) as usize),
                            })
                            .collect(),
                    })
                };
                (ActionId(rng.below(1 << 20)), node)
            })
            .collect();
        JobOutcome {
            status: status(rng),
            children,
        }
    }

    const DETAILS: [DetailLevel; 3] = [
        DetailLevel::JobOnly,
        DetailLevel::Groups,
        DetailLevel::Tasks,
    ];

    /// The owned answer to a poll at `detail`: what the public door gives.
    fn owned_query(outcome: &JobOutcome, detail: DetailLevel) -> Response {
        Response::Service(ServiceOutcome::Query {
            outcome: outcome.pruned(detail),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn a_poll_written_from_the_tree_is_the_pruned_answers_der(seed in any::<u64>()) {
            let rng = &mut TestRng::from_seed(seed);
            let outcome = random_outcome(rng, 3);
            for detail in DETAILS {
                let owned = owned_query(&outcome, detail);
                let mut frame = DerWriter::new();
                frame.query(&outcome, detail);
                prop_assert_eq!(frame.into_vec(), owned.to_der());
                let mut answer = None;
                answer.query(&outcome, detail);
                prop_assert_eq!(answer, Some(owned));
            }
            // A sweep of polls at every level, between an error member and
            // a purge: written member by member, it is the `Swept`'s DER.
            let error = Response::Error("unknown job 7".into());
            let purged = Response::Purged { bytes: rng.below(1 << 30) };
            let mut frame = DerWriter::new();
            let mut answer = None;
            let owned = Response::Swept {
                responses: [error.clone()]
                    .into_iter()
                    .chain(DETAILS.map(|detail| owned_query(&outcome, detail)))
                    .chain([purged.clone()])
                    .collect(),
            };
            frame.swept(5, |members| {
                members.response(error.clone());
                for detail in DETAILS {
                    members.query(&outcome, detail);
                }
                members.response(purged.clone());
            });
            answer.swept(5, |members| {
                members.response(error);
                for detail in DETAILS {
                    members.query(&outcome, detail);
                }
                members.response(purged);
            });
            prop_assert_eq!(frame.into_vec(), owned.to_der());
            prop_assert_eq!(answer, Some(owned));
        }
    }

    /// A job of up to `2^depth` levels: script tasks of any length (long
    /// ones need long-form lengths), sub-jobs, edges carrying files, a
    /// portfolio at the top.
    fn random_job(rng: &mut TestRng, depth: u32, top: bool) -> AbstractJob {
        let text = |rng: &mut TestRng, max: u64| "x".repeat(rng.below(max + 1) as usize);
        let mut job = AbstractJob::new(
            format!("job{}", rng.next_u32()),
            VsiteAddress::new(text(rng, 8), text(rng, 8)),
            UserAttributes::new("C=DE, O=p, OU=q, CN=prop", "grp"),
        );
        for id in 1..=rng.below(5) {
            let node = if depth > 0 && rng.below(4) == 0 {
                GraphNode::SubJob(random_job(rng, depth - 1, false))
            } else {
                GraphNode::Task(AbstractTask {
                    name: format!("t{id}"),
                    resources: ResourceRequest::minimal().with_run_time(rng.below(7_200)),
                    kind: TaskKind::Execute(ExecuteKind::Script {
                        script: text(rng, 300),
                    }),
                })
            };
            job.nodes.push((ActionId(id), node));
            if id > 1 && rng.gen_bool() {
                job.dependencies.push(Dependency {
                    from: ActionId(id - 1),
                    to: ActionId(id),
                    files: (0..rng.below(3)).map(|f| format!("f{f}")).collect(),
                });
            }
        }
        if top {
            for i in 0..rng.below(3) {
                job.portfolio.push(PortfolioFile {
                    name: format!("in{i}"),
                    data: vec![i as u8; rng.below(200) as usize].into(),
                });
            }
        }
        job
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn a_consigned_ajo_is_found_as_the_bytes_it_encodes_to(seed in any::<u64>()) {
            let rng = &mut TestRng::from_seed(seed);
            let ajo = random_job(rng, 2, true);
            let der = ajo.to_der();
            let consign = Request::Consign { ajo: ajo.clone() };
            let subjob = Request::ConsignSubJob {
                ajo,
                origin: "FZJ".into(),
                parent: JobId(rng.below(1 << 40)),
                node: ActionId(rng.below(9)),
                return_files: vec!["out".into(); rng.below(3) as usize],
            };
            for request in [consign, subjob, Request::List] {
                let found = matches!(request, Request::Consign { .. } | Request::ConsignSubJob { .. });
                let env = Envelope {
                    corr: rng.below(1 << 40),
                    from_dn: "CN=alice".into(),
                    body: Body::Request(request),
                    trace: None,
                    seq: Some(rng.below(1 << 20)),
                    ack: rng.gen_bool().then(|| rng.below(1 << 20)),
                };
                let framed = env.to_der();
                // What the receiver decodes from those bytes encodes to them.
                let decoded = match Envelope::from_der(&framed).unwrap().body {
                    Body::Request(Request::Consign { ajo }) => Some(ajo.to_der()),
                    Body::Request(Request::ConsignSubJob { ajo, .. }) => Some(ajo.to_der()),
                    _ => None,
                };
                let located = Envelope::consigned_ajo_der(&framed);
                prop_assert_eq!(located, found.then_some(&der[..]));
                prop_assert_eq!(located.map(<[u8]>::to_vec), decoded);
            }
        }
    }

    /// Both decoders read `der` alike: the same fields, or both refuse.
    fn decoded_alike(der: &[u8]) -> Option<Envelope> {
        match (Envelope::from_der(der), EnvelopeView::from_der(der)) {
            (Ok(owned), Ok(view)) => {
                assert_eq!(view.from_dn, owned.from_dn);
                assert_eq!(view.into_owned(), owned);
                Some(owned)
            }
            (Err(_), Err(_)) => None,
            (owned, view) => panic!("the decoders disagree: {owned:?} against {view:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn the_borrowed_receive_decodes_as_the_owned_envelope(
            corr in 0..=i64::MAX as u64,
            trace in (any::<u64>(), any::<u64>(), any::<u64>()),
            seq in 1..=i64::MAX as u64,
            ack in 1..=i64::MAX as u64,
            dn in "[ -~]{0,40}",
        ) {
            let (high, low, span) = trace;
            let id = (u128::from(high) << 64 | u128::from(low)).to_be_bytes();
            let trace = SpanContext { trace: TraceId(id), span: SpanId(span) };
            let bodies = sample_requests()
                .into_iter()
                .map(Body::Request)
                .chain(sample_responses().map(Body::Response));
            for body in bodies {
                // Trace, seq and ack each present or absent.
                for present in 0..8u8 {
                    let env = Envelope {
                        corr,
                        from_dn: dn.clone(),
                        body: body.clone(),
                        trace: (present & 1 != 0).then_some(trace),
                        seq: (present & 2 != 0).then_some(seq),
                        ack: (present & 4 != 0).then_some(ack),
                    };
                    let der = env.to_der();
                    prop_assert_eq!(decoded_alike(&der), Some(env));
                    for cut in 0..der.len() {
                        prop_assert_eq!(decoded_alike(&der[..cut]), None, "cut at {}", cut);
                    }
                    let mut longer = der.clone();
                    longer.push(0);
                    for byte in 0..=u8::MAX {
                        *longer.last_mut().expect("one byte on") = byte;
                        prop_assert_eq!(decoded_alike(&longer), None, "trailing {:#04x}", byte);
                    }
                }
            }
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
    fn retired_tags_6_and_7_are_refused() {
        // [6] was one outcome delivery alone, [7] a whole pushed file:
        // outcomes travel as [15], files as [12] and [13]. Both bodies are
        // spelled exactly as they were.
        let mut single_delivery = DerWriter::new();
        single_delivery.tagged(6, |w| {
            w.sequence(|w| {
                w.u64(9);
                w.u64(2);
                OutcomeNode::Job(JobOutcome::default()).write_der(w);
                w.sequence(|_| {});
            })
        });
        let mut whole_file = DerWriter::new();
        whole_file.tagged(7, |w| {
            w.sequence(|w| {
                VsiteAddress::new("DWD", "SX4").write_der(w);
                w.str("f");
                w.bytes(&[1, 2, 3]);
                w.u64(1);
                w.u64(5);
                w.str("CN=alice");
            })
        });
        for der in [single_delivery.into_vec(), whole_file.into_vec()] {
            assert_eq!(
                Request::from_der(&der),
                Err(CodecError::BadValue("Request variant"))
            );
        }
    }

    fn poll(job: u64) -> Request {
        Request::Poll {
            job: JobId(job),
            detail: DetailLevel::Tasks,
        }
    }

    #[test]
    fn an_empty_sweep_is_refused() {
        let empty = |tag| unicore_codec::encode(&Value::tagged(tag, Value::Sequence(vec![])));
        let refused = CodecError::BadValue("empty sweep");
        assert_eq!(Request::from_der(&empty(17)), Err(refused.clone()));
        assert_eq!(Response::from_der(&empty(12)), Err(refused));
    }

    #[test]
    fn a_sweep_inside_a_sweep_is_refused() {
        let inner = Request::Sweep {
            requests: vec![poll(1), poll(2)],
        };
        let nested = Request::Sweep {
            requests: vec![poll(3), inner],
        };
        let refused = CodecError::BadValue("sweep inside a sweep");
        assert_eq!(Request::from_der(&nested.to_der()), Err(refused.clone()));
        let inner = Response::Swept {
            responses: vec![Response::Ack, Response::Ack],
        };
        let nested = Response::Swept {
            responses: vec![inner, Response::Ack],
        };
        assert_eq!(Response::from_der(&nested.to_der()), Err(refused));
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
