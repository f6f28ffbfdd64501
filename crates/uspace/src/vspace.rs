//! The data space of one Vsite: its Xspace plus per-job Uspaces.
//!
//! "The file systems available at the Vsites of a Usite are called Xspace.
//! All data available to a UNICORE job constitute the UNICORE file space
//! (Uspace). ... Imports from Xspace to Uspace and exports from Uspace to
//! Xspace are always local operations performed at a Vsite. They are
//! implemented as a copy process available at the Vsite." (§4, §5.6)

use crate::error::SpaceError;
use crate::files::VirtualFs;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::Arc;
use unicore_ajo::JobId;

/// One Vsite's storage: the shared Xspace and the job Uspaces.
pub struct Vspace {
    xspace: VirtualFs,
    /// SipHash with fixed keys: Uspaces are created and destroyed all
    /// the time, and where a table's deleted slots lie — so at which
    /// insert it grows — follows the hashes; fixed keys make that the
    /// same in every run.
    uspaces: HashMap<JobId, VirtualFs, BuildHasherDefault<DefaultHasher>>,
}

impl Default for Vspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Vspace {
    /// A fresh Vspace with an unlimited Xspace.
    pub fn new() -> Self {
        Vspace {
            xspace: VirtualFs::unlimited(),
            uspaces: HashMap::default(),
        }
    }

    /// Direct access to the Xspace (site-local files).
    pub fn xspace(&mut self) -> &mut VirtualFs {
        &mut self.xspace
    }

    /// Read-only access to the Xspace.
    pub fn xspace_ref(&self) -> &VirtualFs {
        &self.xspace
    }

    /// Creates the job directory (Uspace) with a byte quota.
    pub fn create_uspace(&mut self, job: JobId, quota_bytes: u64) -> Result<(), SpaceError> {
        if self.uspaces.contains_key(&job) {
            return Err(SpaceError::UspaceExists(job));
        }
        self.uspaces.insert(job, VirtualFs::with_quota(quota_bytes));
        Ok(())
    }

    /// Destroys the job directory, returning bytes freed.
    pub fn destroy_uspace(&mut self, job: JobId) -> Result<u64, SpaceError> {
        self.uspaces
            .remove(&job)
            .map(|fs| fs.used_bytes())
            .ok_or(SpaceError::NoSuchUspace(job))
    }

    /// Sets the quota of the job's Uspace.
    pub fn set_uspace_quota(&mut self, job: JobId, quota_bytes: u64) -> Result<(), SpaceError> {
        self.uspace_mut(job)?.quota = quota_bytes;
        Ok(())
    }

    fn uspace_mut(&mut self, job: JobId) -> Result<&mut VirtualFs, SpaceError> {
        self.uspaces
            .get_mut(&job)
            .ok_or(SpaceError::NoSuchUspace(job))
    }

    /// The job's Uspace (read access).
    pub fn uspace(&self, job: JobId) -> Result<&VirtualFs, SpaceError> {
        self.uspaces.get(&job).ok_or(SpaceError::NoSuchUspace(job))
    }

    /// Import: Xspace → Uspace, a local operation as `login`; the Uspace
    /// entry shares the Xspace file's bytes. Returns the byte count.
    pub fn import_from_xspace(
        &mut self,
        job: JobId,
        xspace_path: &str,
        uspace_name: &str,
        login: &str,
    ) -> Result<u64, SpaceError> {
        let data = Arc::clone(&self.xspace.read(xspace_path, login)?.data);
        self.import_bytes(job, uspace_name, data, login)
    }

    /// Import: bytes carried in the AJO portfolio → Uspace (shared when
    /// handed in as `Arc<[u8]>`, which the portfolio holds).
    pub fn import_bytes(
        &mut self,
        job: JobId,
        uspace_name: &str,
        data: impl Into<Arc<[u8]>>,
        login: &str,
    ) -> Result<u64, SpaceError> {
        let data: Arc<[u8]> = data.into();
        let len = data.len() as u64;
        self.uspace_mut(job)?.write(uspace_name, data, login)?;
        Ok(len)
    }

    /// Export: Uspace → Xspace, a local operation; the Xspace entry shares
    /// the Uspace file's bytes. Returns the byte count.
    pub fn export_to_xspace(
        &mut self,
        job: JobId,
        uspace_name: &str,
        xspace_path: &str,
        login: &str,
    ) -> Result<u64, SpaceError> {
        let data = self.read_for_transfer(job, uspace_name, login)?;
        let len = data.len() as u64;
        self.xspace.write(xspace_path, data, login)?;
        Ok(len)
    }

    /// Takes a Uspace file's bytes for a transfer: the entry's own
    /// allocation, shared. A later overwrite or purge of the file replaces
    /// or drops the entry and leaves these bytes as they were read.
    pub fn read_for_transfer(
        &self,
        job: JobId,
        uspace_name: &str,
        login: &str,
    ) -> Result<Arc<[u8]>, SpaceError> {
        Ok(self.read_entry_for_transfer(job, uspace_name, login)?.0)
    }

    /// [`Self::read_for_transfer`] plus the file's world-readability flag,
    /// for a streamed cross-site transfer that must preserve the flag.
    pub fn read_entry_for_transfer(
        &self,
        job: JobId,
        uspace_name: &str,
        login: &str,
    ) -> Result<(Arc<[u8]>, bool), SpaceError> {
        let entry = self.uspace(job)?.read(uspace_name, login)?;
        Ok((Arc::clone(&entry.data), entry.world_readable))
    }

    /// Writes a file into a job's Uspace (task output, received transfer).
    pub fn write_uspace_file(
        &mut self,
        job: JobId,
        name: &str,
        data: impl Into<Arc<[u8]>>,
        login: &str,
    ) -> Result<(), SpaceError> {
        self.uspace_mut(job)?.write(name, data, login)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const JOB: JobId = JobId(1);
    const OTHER: JobId = JobId(2);

    fn vspace_with_job() -> Vspace {
        let mut v = Vspace::new();
        v.create_uspace(JOB, 1 << 20).unwrap();
        v
    }

    #[test]
    fn uspace_lifecycle() {
        let mut v = Vspace::new();
        assert!(v.uspace(JOB).is_err());
        v.create_uspace(JOB, 100).unwrap();
        assert!(v.uspace(JOB).is_ok());
        assert!(matches!(
            v.create_uspace(JOB, 100),
            Err(SpaceError::UspaceExists(_))
        ));
        v.write_uspace_file(JOB, "f", vec![0; 50], "alice").unwrap();
        assert_eq!(v.destroy_uspace(JOB).unwrap(), 50);
        assert!(matches!(
            v.destroy_uspace(JOB),
            Err(SpaceError::NoSuchUspace(_))
        ));
    }

    #[test]
    fn import_from_xspace_copies() {
        let mut v = vspace_with_job();
        v.xspace()
            .write("/home/alice/input.nc", vec![7; 100], "alice")
            .unwrap();
        let n = v
            .import_from_xspace(JOB, "/home/alice/input.nc", "input.nc", "alice")
            .unwrap();
        assert_eq!(n, 100);
        assert_eq!(
            v.uspace(JOB)
                .unwrap()
                .read("input.nc", "alice")
                .unwrap()
                .data[..],
            [7; 100]
        );
        // Source still present (it was a copy).
        assert!(v.xspace_ref().exists("/home/alice/input.nc"));
    }

    #[test]
    fn import_respects_xspace_permissions() {
        let mut v = vspace_with_job();
        v.xspace()
            .write("/home/bob/secret", vec![1], "bob")
            .unwrap();
        assert!(matches!(
            v.import_from_xspace(JOB, "/home/bob/secret", "s", "alice"),
            Err(SpaceError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn portfolio_import() {
        let mut v = vspace_with_job();
        v.import_bytes(JOB, "from_ws.dat", vec![9; 10], "alice")
            .unwrap();
        assert!(v.uspace(JOB).unwrap().exists("from_ws.dat"));
    }

    #[test]
    fn export_to_xspace() {
        let mut v = vspace_with_job();
        v.write_uspace_file(JOB, "result.dat", vec![3; 42], "alice")
            .unwrap();
        let n = v
            .export_to_xspace(JOB, "result.dat", "/archive/result.dat", "alice")
            .unwrap();
        assert_eq!(n, 42);
        assert_eq!(
            v.xspace_ref().read_raw("/archive/result.dat").unwrap().data[..],
            [3; 42]
        );
    }

    #[test]
    fn uspace_quota_enforced() {
        let mut v = Vspace::new();
        v.create_uspace(JOB, 10).unwrap();
        assert!(matches!(
            v.import_bytes(JOB, "big", vec![0; 11], "alice"),
            Err(SpaceError::QuotaExceeded { .. })
        ));
    }

    /// Import, export, a transfer read and the Uspace write it feeds all
    /// hand on the entry's allocation; import and export still count as
    /// bytes moved.
    #[test]
    fn local_moves_share_the_bytes() {
        let mut v = vspace_with_job();
        v.create_uspace(OTHER, 1 << 20).unwrap();
        let source: Arc<[u8]> = vec![7; 100].into();
        v.xspace()
            .write("/home/alice/in", Arc::clone(&source), "alice")
            .unwrap();
        v.import_from_xspace(JOB, "/home/alice/in", "in", "alice")
            .unwrap();
        let handed = v.read_for_transfer(JOB, "in", "alice").unwrap();
        v.write_uspace_file(OTHER, "in", handed, "alice").unwrap();
        v.export_to_xspace(OTHER, "in", "/archive/out", "alice")
            .unwrap();
        let taken = v.read_for_transfer(OTHER, "in", "alice").unwrap();
        let held = [
            &v.uspace(JOB).unwrap().read_raw("in").unwrap().data,
            &v.uspace(OTHER).unwrap().read_raw("in").unwrap().data,
            &v.xspace_ref().read_raw("/archive/out").unwrap().data,
            &taken,
        ];
        assert!(held.iter().all(|d| Arc::ptr_eq(d, &source)));
        // Overwriting the Uspace file does not reach the bytes taken.
        v.write_uspace_file(OTHER, "in", vec![9; 100], "alice")
            .unwrap();
        assert_eq!(taken[..], [7; 100]);
    }

    #[test]
    fn missing_uspace_errors() {
        let mut v = Vspace::new();
        assert!(matches!(
            v.import_bytes(JOB, "f", vec![], "a"),
            Err(SpaceError::NoSuchUspace(_))
        ));
        assert!(matches!(v.uspace(JOB), Err(SpaceError::NoSuchUspace(_))));
    }

    #[test]
    fn transfer_read_is_nondestructive() {
        let mut v = vspace_with_job();
        v.write_uspace_file(JOB, "t", vec![1, 2], "alice").unwrap();
        let data = v.read_for_transfer(JOB, "t", "alice").unwrap();
        assert_eq!(data[..], [1, 2]);
        assert!(v.uspace(JOB).unwrap().exists("t"));
    }
}
