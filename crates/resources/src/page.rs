//! Resource pages.
//!
//! "Each UNICORE site provides a so called resource page reflecting
//! resource information about their Vsites. Besides minimum and maximum
//! values for the resources needed for batch submission it contains
//! information about the system architecture, performance, and operating
//! system as well as available application and system software. ... It is
//! stored in ASN1 format for the JPA to include it into the GUI" (§5.4).

use crate::arch::Architecture;
use unicore_ajo::VsiteAddress;
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};

/// Minimum/maximum bounds for batch submission at a Vsite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Fewest processors a batch job may request.
    pub min_processors: u32,
    /// Most processors a batch job may request.
    pub max_processors: u32,
    /// Shortest run time, seconds.
    pub min_run_time_secs: u64,
    /// Longest run time, seconds.
    pub max_run_time_secs: u64,
    /// Most memory, MB.
    pub max_memory_mb: u64,
    /// Most permanent disk, MB.
    pub max_disk_permanent_mb: u64,
    /// Most temporary disk, MB.
    pub max_disk_temporary_mb: u64,
}

impl ResourceLimits {
    /// Sanity: every min must not exceed its max.
    pub fn is_consistent(&self) -> bool {
        self.min_processors <= self.max_processors
            && self.min_run_time_secs <= self.max_run_time_secs
    }
}

/// Performance headline figures shown to the user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerformanceInfo {
    /// Peak performance in GFlop/s.
    pub peak_gflops: f64,
    /// Memory per node, MB.
    pub memory_per_node_mb: u64,
    /// Number of nodes (or PEs).
    pub nodes: u32,
}

/// Kinds of software a resource page can advertise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SoftwareKind {
    /// A compiler (e.g. Fortran 90).
    Compiler,
    /// A library (e.g. BLAS, MPI).
    Library,
    /// An application package (e.g. Gaussian, Ansys).
    Package,
}

/// One advertised software item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoftwareEntry {
    /// Kind of software.
    pub kind: SoftwareKind,
    /// Abstract name (what users request, e.g. `"f90"`, `"blas"`).
    pub name: String,
    /// Version string.
    pub version: String,
}

/// A Vsite's resource page.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourcePage {
    /// The Vsite this page describes.
    pub vsite: VsiteAddress,
    /// System architecture.
    pub architecture: Architecture,
    /// Operating system string.
    pub operating_system: String,
    /// Headline performance.
    pub performance: PerformanceInfo,
    /// Submission limits.
    pub limits: ResourceLimits,
    /// Advertised software.
    pub software: Vec<SoftwareEntry>,
    /// Price per node-hour in millicredits (site accounting currency).
    /// `0` means the site publishes no price; the broker then treats it
    /// as free. Rides the wire as a trailing tagged field, absent when
    /// zero, so pre-broker pages decode — and encode — unchanged.
    pub price_per_node_hour_milli: u64,
    /// The load the site last advertised with its page, in percent
    /// (0–100). A coarse, slowly-refreshed hint for brokers that cannot
    /// reach the live monitor; `0` means "not advertised". Trailing
    /// tagged field like the price.
    pub advertised_load_pct: u32,
}

impl ResourcePage {
    /// Whether the page advertises `name` of the given kind.
    pub fn has_software(&self, kind: SoftwareKind, name: &str) -> bool {
        self.software
            .iter()
            .any(|s| s.kind == kind && s.name == name)
    }

    /// Sets the advertised price (millicredits per node-hour).
    pub fn with_price(mut self, milli_per_node_hour: u64) -> Self {
        self.price_per_node_hour_milli = milli_per_node_hour;
        self
    }

    /// Sets the advertised load hint (percent, clamped to 100).
    pub fn with_advertised_load(mut self, pct: u32) -> Self {
        self.advertised_load_pct = pct.min(100);
        self
    }
}

impl SoftwareKind {
    fn to_enum(self) -> u32 {
        match self {
            SoftwareKind::Compiler => 0,
            SoftwareKind::Library => 1,
            SoftwareKind::Package => 2,
        }
    }

    fn from_enum(v: u32) -> Result<Self, CodecError> {
        Ok(match v {
            0 => SoftwareKind::Compiler,
            1 => SoftwareKind::Library,
            2 => SoftwareKind::Package,
            _ => return Err(CodecError::BadValue("SoftwareKind")),
        })
    }
}

impl DerCodec for ResourcePage {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            self.vsite.write_der(w);
            self.architecture.write_der(w);
            w.str(&self.operating_system);
            w.sequence(|w| {
                // gflops ×1000 as integer to stay in DER integers.
                w.int((self.performance.peak_gflops * 1000.0).round() as i64);
                w.u64(self.performance.memory_per_node_mb);
                w.u64(self.performance.nodes as u64);
            });
            w.sequence(|w| {
                w.u64(self.limits.min_processors as u64);
                w.u64(self.limits.max_processors as u64);
                w.u64(self.limits.min_run_time_secs);
                w.u64(self.limits.max_run_time_secs);
                w.u64(self.limits.max_memory_mb);
                w.u64(self.limits.max_disk_permanent_mb);
                w.u64(self.limits.max_disk_temporary_mb);
            });
            w.sequence_of(&self.software, |w, s| {
                w.sequence(|w| {
                    w.enumerated(s.kind.to_enum());
                    w.str(&s.name);
                    w.str(&s.version);
                })
            });
            // Broker fields ride as trailing tagged optionals in ascending
            // tag order; a page that advertises neither encodes
            // byte-identically to the pre-broker format.
            if self.price_per_node_hour_milli != 0 {
                w.tagged(0, |w| w.u64(self.price_per_node_hour_milli));
            }
            // The field is public; only the setters clamp. Never emit a
            // percentage `read_der` refuses.
            let load_pct = self.advertised_load_pct.min(100);
            if load_pct != 0 {
                w.tagged(1, |w| w.u64(load_pct as u64));
            }
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("ResourcePage", |f| {
            Ok(ResourcePage {
                vsite: VsiteAddress::read_der(f)?,
                architecture: Architecture::read_der(f)?,
                operating_system: f.next_string()?,
                performance: f.sequence("PerformanceInfo", |pf| {
                    Ok(PerformanceInfo {
                        peak_gflops: pf.next_u64()? as f64 / 1000.0,
                        memory_per_node_mb: pf.next_u64()?,
                        nodes: pf.next_u32()?,
                    })
                })?,
                limits: f.sequence("ResourceLimits", |lf| {
                    Ok(ResourceLimits {
                        min_processors: lf.next_u32()?,
                        max_processors: lf.next_u32()?,
                        min_run_time_secs: lf.next_u64()?,
                        max_run_time_secs: lf.next_u64()?,
                        max_memory_mb: lf.next_u64()?,
                        max_disk_permanent_mb: lf.next_u64()?,
                        max_disk_temporary_mb: lf.next_u64()?,
                    })
                })?,
                software: f.sequence_of("software", |s| {
                    s.sequence("SoftwareEntry", |sf| {
                        Ok(SoftwareEntry {
                            kind: SoftwareKind::from_enum(sf.next_enum()?)?,
                            name: sf.next_string()?,
                            version: sf.next_string()?,
                        })
                    })
                })?,
                // "Not advertised" is encoded by omission, never as an
                // explicit zero; the load hint is a percentage.
                price_per_node_hour_milli: match f.optional_tagged(0, |t| t.next_u64())? {
                    Some(0) => return Err(CodecError::BadValue("ResourcePage price")),
                    price => price.unwrap_or(0),
                },
                advertised_load_pct: match f.optional_tagged(1, |t| t.next_u32())? {
                    Some(pct) if pct == 0 || pct > 100 => {
                        return Err(CodecError::BadValue("ResourcePage load"))
                    }
                    pct => pct.unwrap_or(0),
                },
            })
        })
    }
}

/// Builds the canonical resource pages of the paper's §5.7 deployment.
///
/// Figures are period-plausible rather than archival: a 512-PE T3E at FZJ,
/// a 52-PE VPP/700 at RUS, an SP-2 at RUKA/LRZ, an SX-4 at DWD.
pub fn deployment_page(usite: &str, vsite: &str, architecture: Architecture) -> ResourcePage {
    // Price per node-hour in millicredits, roughly tracking per-node
    // peak performance, so the broker has a real cost axis to trade
    // against load.
    let (nodes, mem_per_node, gflops, max_time, price) = match architecture {
        Architecture::CrayT3e => (512, 128, 460.0, 43_200, 900),
        Architecture::FujitsuVpp700 => (52, 2048, 114.0, 86_400, 2_200),
        Architecture::IbmSp2 => (77, 256, 20.0, 43_200, 260),
        Architecture::NecSx4 => (32, 4096, 64.0, 86_400, 2_000),
        Architecture::Generic => (8, 512, 2.0, 21_600, 250),
    };
    ResourcePage {
        vsite: VsiteAddress::new(usite, vsite),
        architecture,
        operating_system: match architecture {
            Architecture::CrayT3e => "UNICOS/mk".into(),
            Architecture::FujitsuVpp700 => "UXP/V".into(),
            Architecture::IbmSp2 => "AIX 4.3".into(),
            Architecture::NecSx4 => "SUPER-UX".into(),
            Architecture::Generic => "Solaris 2.6".into(),
        },
        performance: PerformanceInfo {
            peak_gflops: gflops,
            memory_per_node_mb: mem_per_node,
            nodes,
        },
        limits: ResourceLimits {
            min_processors: 1,
            max_processors: nodes,
            min_run_time_secs: 60,
            max_run_time_secs: max_time,
            max_memory_mb: mem_per_node * nodes as u64,
            max_disk_permanent_mb: 100_000,
            max_disk_temporary_mb: 200_000,
        },
        software: vec![
            SoftwareEntry {
                kind: SoftwareKind::Compiler,
                name: "f90".into(),
                version: "1.0".into(),
            },
            SoftwareEntry {
                kind: SoftwareKind::Library,
                name: "mpi".into(),
                version: "1.1".into(),
            },
            SoftwareEntry {
                kind: SoftwareKind::Library,
                name: "blas".into(),
                version: "3".into(),
            },
        ],
        price_per_node_hour_milli: price,
        advertised_load_pct: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_codec::Value;

    #[test]
    fn deployment_pages_are_consistent() {
        for arch in Architecture::ALL {
            let page = deployment_page("FZJ", "V", arch);
            assert!(page.limits.is_consistent(), "{arch:?}");
            assert!(page.performance.nodes > 0);
            assert!(page.has_software(SoftwareKind::Compiler, "f90"));
        }
    }

    #[test]
    fn der_round_trip() {
        let page = deployment_page("FZJ", "T3E", Architecture::CrayT3e);
        let back = ResourcePage::from_der(&page.to_der()).unwrap();
        assert_eq!(back, page);
    }

    #[test]
    fn software_lookup() {
        let page = deployment_page("DWD", "SX4", Architecture::NecSx4);
        assert!(page.has_software(SoftwareKind::Library, "mpi"));
        assert!(!page.has_software(SoftwareKind::Package, "gaussian94"));
        assert!(!page.has_software(SoftwareKind::Package, "mpi")); // kind matters
    }

    #[test]
    fn broker_fields_round_trip() {
        let page = deployment_page("FZJ", "T3E", Architecture::CrayT3e)
            .with_price(1234)
            .with_advertised_load(63);
        let back = ResourcePage::from_der(&page.to_der()).unwrap();
        assert_eq!(back.price_per_node_hour_milli, 1234);
        assert_eq!(back.advertised_load_pct, 63);
        assert_eq!(back, page);
    }

    #[test]
    fn pre_broker_page_bytes_unchanged() {
        // A page advertising neither price nor load must encode exactly
        // as the pre-broker format did: the old positional sequence with
        // no trailing fields — and those old bytes must still decode.
        let mut page = deployment_page("FZJ", "T3E", Architecture::CrayT3e);
        page.price_per_node_hour_milli = 0;
        page.advertised_load_pct = 0;
        let der = page.to_der();
        // Re-encode the old six-field shape by hand and compare bytes.
        let old = Value::Sequence(match unicore_codec::decode(&der).unwrap() {
            Value::Sequence(items) => items.into_iter().take(6).collect(),
            _ => unreachable!(),
        });
        assert_eq!(der, unicore_codec::encode(&old));
        let back = ResourcePage::from_der(&der).unwrap();
        assert_eq!(back.price_per_node_hour_milli, 0);
        assert_eq!(back.advertised_load_pct, 0);
        assert_eq!(back, page);
    }

    #[test]
    fn broker_fields_have_one_spelling() {
        // "Not advertised" is omission: an explicit zero, or a load past
        // 100 %, is a second spelling of a page and is refused.
        let bare = {
            let mut p = deployment_page("FZJ", "T3E", Architecture::CrayT3e);
            p.price_per_node_hour_milli = 0;
            p
        };
        let with_trailer = |trailer: Vec<Value>| {
            let Value::Sequence(mut items) = unicore_codec::decode(&bare.to_der()).unwrap() else {
                unreachable!()
            };
            items.extend(trailer);
            unicore_codec::encode(&Value::Sequence(items))
        };
        let ok = with_trailer(vec![
            Value::tagged(0, Value::Integer(5)),
            Value::tagged(1, Value::Integer(100)),
        ]);
        assert_eq!(ResourcePage::from_der(&ok).unwrap().to_der(), ok);
        for trailer in [
            vec![Value::tagged(0, Value::Integer(0))],
            vec![Value::tagged(1, Value::Integer(0))],
            vec![Value::tagged(1, Value::Integer(101))],
        ] {
            let der = with_trailer(trailer.clone());
            assert!(ResourcePage::from_der(&der).is_err(), "{trailer:?}");
        }
        // A field set past 100 behind the setters' back is clamped on the
        // way out, so what a page encodes to always decodes.
        let mut over = bare.clone();
        over.advertised_load_pct = 250;
        let back = ResourcePage::from_der(&over.to_der()).unwrap();
        assert_eq!(back.advertised_load_pct, 100);
    }

    #[test]
    fn limits_consistency_check() {
        let mut l = deployment_page("X", "Y", Architecture::Generic).limits;
        assert!(l.is_consistent());
        l.min_processors = l.max_processors + 1;
        assert!(!l.is_consistent());
    }
}
