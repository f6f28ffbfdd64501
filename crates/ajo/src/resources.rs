//! Abstract resource requests.
//!
//! "UNICORE supports resource requests for the number of CPUs (or processor
//! elements), the amount of execution time, the amount of memory, and the
//! amount of disk space needed, both permanent and temporary" (paper §5.4).

use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};

/// The abstract (system-independent) resource request attached to a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceRequest {
    /// Processor elements requested.
    pub processors: u32,
    /// Wall-clock execution time, in seconds.
    pub run_time_secs: u64,
    /// Main memory, in megabytes (per job).
    pub memory_mb: u64,
    /// Permanent disk space, in megabytes.
    pub disk_permanent_mb: u64,
    /// Temporary (scratch) disk space, in megabytes.
    pub disk_temporary_mb: u64,
}

impl Default for ResourceRequest {
    fn default() -> Self {
        Self::minimal()
    }
}

impl ResourceRequest {
    /// A tiny request suitable for service-style tasks.
    pub fn minimal() -> Self {
        ResourceRequest {
            processors: 1,
            run_time_secs: 60,
            memory_mb: 64,
            disk_permanent_mb: 0,
            disk_temporary_mb: 16,
        }
    }

    /// Builder-style setters.
    pub fn with_processors(mut self, n: u32) -> Self {
        self.processors = n;
        self
    }

    /// Sets the run time in seconds.
    pub fn with_run_time(mut self, secs: u64) -> Self {
        self.run_time_secs = secs;
        self
    }

    /// Sets the memory request in MB.
    pub fn with_memory(mut self, mb: u64) -> Self {
        self.memory_mb = mb;
        self
    }

    /// Sets the permanent disk request in MB.
    pub fn with_disk_permanent(mut self, mb: u64) -> Self {
        self.disk_permanent_mb = mb;
        self
    }

    /// Sets the temporary disk request in MB.
    pub fn with_disk_temporary(mut self, mb: u64) -> Self {
        self.disk_temporary_mb = mb;
        self
    }
}

impl DerCodec for ResourceRequest {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.u64(self.processors as u64);
            w.u64(self.run_time_secs);
            w.u64(self.memory_mb);
            w.u64(self.disk_permanent_mb);
            w.u64(self.disk_temporary_mb);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("ResourceRequest", |f| {
            Ok(ResourceRequest {
                processors: f.next_u32()?,
                run_time_secs: f.next_u64()?,
                memory_mb: f.next_u64()?,
                disk_permanent_mb: f.next_u64()?,
                disk_temporary_mb: f.next_u64()?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let r = ResourceRequest::minimal()
            .with_processors(128)
            .with_run_time(3600)
            .with_memory(4096)
            .with_disk_permanent(100)
            .with_disk_temporary(500);
        assert_eq!(r.processors, 128);
        assert_eq!(r.run_time_secs, 3600);
        assert_eq!(r.memory_mb, 4096);
        assert_eq!(r.disk_permanent_mb, 100);
        assert_eq!(r.disk_temporary_mb, 500);
    }

    #[test]
    fn der_round_trip() {
        let r = ResourceRequest::minimal().with_processors(512);
        assert_eq!(ResourceRequest::from_der(&r.to_der()).unwrap(), r);
    }

    #[test]
    fn default_is_minimal() {
        assert_eq!(ResourceRequest::default(), ResourceRequest::minimal());
    }
}
