//! Abstract services — job monitoring and control (Figure 3, right branch).

use crate::ids::JobId;
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};

/// Control operations a user may apply to a consigned job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlOp {
    /// Abort the job and all its unfinished parts.
    Abort,
    /// Hold: stop dispatching further parts.
    Hold,
    /// Resume a held job.
    Resume,
}

impl ControlOp {
    /// The wire discriminant (ENUMERATED value).
    pub fn to_enum(self) -> u32 {
        match self {
            ControlOp::Abort => 0,
            ControlOp::Hold => 1,
            ControlOp::Resume => 2,
        }
    }

    /// Parses a wire discriminant.
    pub fn from_enum(v: u32) -> Result<Self, CodecError> {
        match v {
            0 => Ok(ControlOp::Abort),
            1 => Ok(ControlOp::Hold),
            2 => Ok(ControlOp::Resume),
            _ => Err(CodecError::BadValue("ControlOp")),
        }
    }
}

/// How much detail a status query should return (the JMC's levels, §5.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetailLevel {
    /// Only the overall job status.
    JobOnly,
    /// Job plus job-group statuses.
    Groups,
    /// Everything down to tasks, including outputs.
    Tasks,
}

impl DetailLevel {
    /// The wire discriminant (ENUMERATED value).
    pub fn to_enum(self) -> u32 {
        match self {
            DetailLevel::JobOnly => 0,
            DetailLevel::Groups => 1,
            DetailLevel::Tasks => 2,
        }
    }

    /// Parses a wire discriminant.
    pub fn from_enum(v: u32) -> Result<Self, CodecError> {
        match v {
            0 => Ok(DetailLevel::JobOnly),
            1 => Ok(DetailLevel::Groups),
            2 => Ok(DetailLevel::Tasks),
            _ => Err(CodecError::BadValue("DetailLevel")),
        }
    }
}

/// The service requests a JMC can address to an NJS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbstractService {
    /// Control a job.
    Control {
        /// The job to control.
        job: JobId,
        /// The operation.
        op: ControlOp,
    },
    /// List the calling user's jobs at this NJS.
    List,
    /// Query the status of a job.
    Query {
        /// The job to query.
        job: JobId,
        /// How much detail to return.
        detail: DetailLevel,
    },
    /// Query the health of the site itself (or, with `grid`, of every
    /// reachable Usite): metrics snapshot, span breakdown and per-Vsite
    /// gauges — the monitoring plane's entry point.
    Monitor {
        /// When true, the receiving site fans the query out to every
        /// peer Usite it can reach and merges the answers.
        grid: bool,
    },
}

impl DerCodec for AbstractService {
    fn write_der(&self, w: &mut DerWriter) {
        match self {
            AbstractService::Control { job, op } => w.tagged(0, |w| {
                w.sequence(|w| {
                    w.u64(job.0);
                    w.enumerated(op.to_enum());
                })
            }),
            AbstractService::List => w.tagged(1, |w| w.null()),
            AbstractService::Query { job, detail } => w.tagged(2, |w| {
                w.sequence(|w| {
                    w.u64(job.0);
                    w.enumerated(detail.to_enum());
                })
            }),
            AbstractService::Monitor { grid } => w.tagged(3, |w| w.bool(*grid)),
        }
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.tagged(|tag, t| match tag {
            0 => t.sequence("ControlService", |f| {
                Ok(AbstractService::Control {
                    job: JobId(f.next_u64()?),
                    op: ControlOp::from_enum(f.next_enum()?)?,
                })
            }),
            1 => t.next_null().map(|()| AbstractService::List),
            2 => t.sequence("QueryService", |f| {
                Ok(AbstractService::Query {
                    job: JobId(f.next_u64()?),
                    detail: DetailLevel::from_enum(f.next_enum()?)?,
                })
            }),
            3 => Ok(AbstractService::Monitor {
                grid: t.next_bool()?,
            }),
            _ => Err(CodecError::BadValue("AbstractService variant")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_codec::Value;

    #[test]
    fn round_trips() {
        for svc in [
            AbstractService::Control {
                job: JobId(7),
                op: ControlOp::Abort,
            },
            AbstractService::Control {
                job: JobId(8),
                op: ControlOp::Hold,
            },
            AbstractService::Control {
                job: JobId(9),
                op: ControlOp::Resume,
            },
            AbstractService::List,
            AbstractService::Query {
                job: JobId(1),
                detail: DetailLevel::JobOnly,
            },
            AbstractService::Query {
                job: JobId(2),
                detail: DetailLevel::Tasks,
            },
            AbstractService::Monitor { grid: false },
            AbstractService::Monitor { grid: true },
        ] {
            assert_eq!(AbstractService::from_der(&svc.to_der()).unwrap(), svc);
        }
    }

    #[test]
    fn list_has_one_spelling() {
        // `[1]` carries NULL and nothing else.
        for inner in [Value::Sequence(vec![]), Value::Boolean(true)] {
            let der = unicore_codec::encode(&Value::tagged(1, inner));
            assert!(AbstractService::from_der(&der).is_err());
        }
    }

    #[test]
    fn bad_enum_rejected() {
        let v = Value::tagged(
            0,
            Value::Sequence(vec![Value::Integer(1), Value::Enumerated(99)]),
        );
        assert!(AbstractService::from_der(&unicore_codec::encode(&v)).is_err());
    }
}
