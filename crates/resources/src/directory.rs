//! The resource-page editor and per-Usite directory.
//!
//! "This information is prepared by a UNICORE site administrator through a
//! resource page editor" (§5.4). [`ResourcePageEditor`] is that editor as
//! an API; [`ResourceDirectory`] is the set of pages a UNICORE server hands
//! to the JPA together with the applets.

use crate::arch::Architecture;
use crate::page::{PerformanceInfo, ResourceLimits, ResourcePage, SoftwareEntry, SoftwareKind};
use std::collections::BTreeMap;
use unicore_ajo::VsiteAddress;
use unicore_codec::{require_ascending, CodecError, DerCodec, DerReader, DerWriter};

/// Errors from the editor's validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditorError {
    /// min > max somewhere in the limits.
    InconsistentLimits,
    /// Performance figures are degenerate (0 nodes).
    DegeneratePerformance,
    /// The same software (kind, name) listed twice.
    DuplicateSoftware(String),
}

impl core::fmt::Display for EditorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EditorError::InconsistentLimits => write!(f, "limits have min above max"),
            EditorError::DegeneratePerformance => write!(f, "performance figures degenerate"),
            EditorError::DuplicateSoftware(n) => write!(f, "software '{n}' listed twice"),
        }
    }
}

impl std::error::Error for EditorError {}

/// Builder used by the site administrator to author a resource page.
pub struct ResourcePageEditor {
    page: ResourcePage,
}

impl ResourcePageEditor {
    /// Starts a page for `vsite` on `architecture` with sane defaults.
    pub fn new(vsite: VsiteAddress, architecture: Architecture) -> Self {
        ResourcePageEditor {
            page: ResourcePage {
                vsite,
                architecture,
                operating_system: "unknown".into(),
                performance: PerformanceInfo {
                    peak_gflops: 1.0,
                    memory_per_node_mb: 256,
                    nodes: 1,
                },
                limits: ResourceLimits {
                    min_processors: 1,
                    max_processors: 1,
                    min_run_time_secs: 60,
                    max_run_time_secs: 3_600,
                    max_memory_mb: 256,
                    max_disk_permanent_mb: 1_024,
                    max_disk_temporary_mb: 4_096,
                },
                software: Vec::new(),
                price_per_node_hour_milli: 0,
                advertised_load_pct: 0,
            },
        }
    }

    /// Sets the operating system string.
    pub fn operating_system(mut self, os: impl Into<String>) -> Self {
        self.page.operating_system = os.into();
        self
    }

    /// Sets the performance block.
    pub fn performance(mut self, perf: PerformanceInfo) -> Self {
        self.page.performance = perf;
        self
    }

    /// Sets the advertised price (millicredits per node-hour).
    pub fn price(mut self, milli_per_node_hour: u64) -> Self {
        self.page.price_per_node_hour_milli = milli_per_node_hour;
        self
    }

    /// Sets the limits block.
    pub fn limits(mut self, limits: ResourceLimits) -> Self {
        self.page.limits = limits;
        self
    }

    /// Adds a software entry.
    pub fn software(
        mut self,
        kind: SoftwareKind,
        name: impl Into<String>,
        version: impl Into<String>,
    ) -> Self {
        self.page.software.push(SoftwareEntry {
            kind,
            name: name.into(),
            version: version.into(),
        });
        self
    }

    /// Validates and produces the page.
    pub fn build(self) -> Result<ResourcePage, EditorError> {
        if !self.page.limits.is_consistent() {
            return Err(EditorError::InconsistentLimits);
        }
        if self.page.performance.nodes == 0 {
            return Err(EditorError::DegeneratePerformance);
        }
        let mut seen = std::collections::HashSet::new();
        for sw in &self.page.software {
            if !seen.insert((sw.kind, sw.name.clone())) {
                return Err(EditorError::DuplicateSoftware(sw.name.clone()));
            }
        }
        Ok(self.page)
    }
}

/// All resource pages a Usite publishes (one per Vsite), ordered by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceDirectory {
    pages: BTreeMap<String, ResourcePage>,
}

impl ResourceDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes (or replaces) a page.
    pub fn publish(&mut self, page: ResourcePage) {
        self.pages.insert(page.vsite.to_string(), page);
    }

    /// Page for an exact Vsite address.
    pub fn page(&self, vsite: &VsiteAddress) -> Option<&ResourcePage> {
        self.pages.get(&vsite.to_string())
    }

    /// All pages in name order.
    pub fn pages(&self) -> impl Iterator<Item = &ResourcePage> {
        self.pages.values()
    }

    /// Number of published pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when no pages are published.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

impl DerCodec for ResourceDirectory {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence_of(self.pages.values(), |w, p| p.write_der(w));
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        let pages = r.sequence_of("ResourceDirectory", |p| {
            let page = ResourcePage::read_der(p)?;
            Ok((page.vsite.to_string(), page))
        })?;
        require_ascending(&pages, |(name, _)| name)?;
        Ok(ResourceDirectory {
            pages: pages.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::deployment_page;

    #[test]
    fn editor_builds_valid_page() {
        let page = ResourcePageEditor::new(VsiteAddress::new("FZJ", "T3E"), Architecture::CrayT3e)
            .operating_system("UNICOS/mk")
            .performance(PerformanceInfo {
                peak_gflops: 460.0,
                memory_per_node_mb: 128,
                nodes: 512,
            })
            .limits(ResourceLimits {
                min_processors: 1,
                max_processors: 512,
                min_run_time_secs: 60,
                max_run_time_secs: 43_200,
                max_memory_mb: 65_536,
                max_disk_permanent_mb: 10_000,
                max_disk_temporary_mb: 50_000,
            })
            .software(SoftwareKind::Compiler, "f90", "3.2")
            .software(SoftwareKind::Library, "mpi", "1.1")
            .build()
            .unwrap();
        assert_eq!(page.architecture, Architecture::CrayT3e);
        assert!(page.has_software(SoftwareKind::Library, "mpi"));
    }

    #[test]
    fn editor_rejects_bad_limits() {
        let err = ResourcePageEditor::new(VsiteAddress::new("X", "Y"), Architecture::Generic)
            .limits(ResourceLimits {
                min_processors: 8,
                max_processors: 4,
                min_run_time_secs: 60,
                max_run_time_secs: 600,
                max_memory_mb: 1,
                max_disk_permanent_mb: 1,
                max_disk_temporary_mb: 1,
            })
            .build()
            .unwrap_err();
        assert_eq!(err, EditorError::InconsistentLimits);
    }

    #[test]
    fn editor_rejects_duplicate_software() {
        let err = ResourcePageEditor::new(VsiteAddress::new("X", "Y"), Architecture::Generic)
            .software(SoftwareKind::Library, "blas", "2")
            .software(SoftwareKind::Library, "blas", "3")
            .build()
            .unwrap_err();
        assert!(matches!(err, EditorError::DuplicateSoftware(_)));
    }

    #[test]
    fn editor_rejects_zero_nodes() {
        let err = ResourcePageEditor::new(VsiteAddress::new("X", "Y"), Architecture::Generic)
            .performance(PerformanceInfo {
                peak_gflops: 1.0,
                memory_per_node_mb: 1,
                nodes: 0,
            })
            .build()
            .unwrap_err();
        assert_eq!(err, EditorError::DegeneratePerformance);
    }

    #[test]
    fn same_software_different_kind_allowed() {
        ResourcePageEditor::new(VsiteAddress::new("X", "Y"), Architecture::Generic)
            .software(SoftwareKind::Library, "hdf", "4")
            .software(SoftwareKind::Package, "hdf", "4")
            .build()
            .unwrap();
    }

    #[test]
    fn directory_publish_and_lookup() {
        let mut dir = ResourceDirectory::new();
        dir.publish(deployment_page("FZJ", "T3E", Architecture::CrayT3e));
        dir.publish(deployment_page("FZJ", "SP2", Architecture::IbmSp2));
        assert_eq!(dir.len(), 2);
        assert!(dir.page(&VsiteAddress::new("FZJ", "T3E")).is_some());
        assert!(dir.page(&VsiteAddress::new("FZJ", "SX4")).is_none());
        // Replacement keeps one entry.
        dir.publish(deployment_page("FZJ", "T3E", Architecture::CrayT3e));
        assert_eq!(dir.len(), 2);
    }

    #[test]
    fn directory_der_round_trip() {
        let mut dir = ResourceDirectory::new();
        dir.publish(deployment_page("LRZ", "SP2", Architecture::IbmSp2));
        dir.publish(deployment_page("DWD", "SX4", Architecture::NecSx4));
        let back = ResourceDirectory::from_der(&dir.to_der()).unwrap();
        assert_eq!(back, dir);
    }

    #[test]
    fn directory_pages_must_ascend_by_name() {
        use unicore_codec::{decode, encode, Value};
        let mut dir = ResourceDirectory::new();
        dir.publish(deployment_page("LRZ", "SP2", Architecture::IbmSp2));
        dir.publish(deployment_page("DWD", "SX4", Architecture::NecSx4));
        let Value::Sequence(mut pages) = decode(&dir.to_der()).unwrap() else {
            unreachable!()
        };
        pages.swap(0, 1);
        assert!(ResourceDirectory::from_der(&encode(&Value::Sequence(pages))).is_err());
    }
}
