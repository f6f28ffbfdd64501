//! Seeded input generation. The seed drives job-mix order, names, sleep
//! lengths, payload file names and identities; the program under test
//! only ever receives the generated inputs.

use std::sync::Arc;
use unicore_ajo::{AbstractJob, ResourceRequest, UserAttributes, VsiteAddress};
use unicore_certs::{
    CertificateAuthority, DistinguishedName, Identity, KeyUsage, TrustStore, Validity,
};
use unicore_client::jpa::JobPreparationAgent;
use unicore_crypto::CryptoRng;
use unicore_gateway::MappedUser;

/// Account group every generated user belongs to.
pub const GROUP: &str = "users";

/// Certificates outlive any window's simulated clock by a wide margin.
const CERT_LIFETIME_SECS: u64 = 1 << 40;

/// DN of generated user `i` under `seed`.
pub fn user_dn(seed: u64, i: usize) -> String {
    format!("C=DE, O=Bench, OU=Repro, CN=user-{seed:x}-{i}")
}

pub fn user_attrs(dn: &str) -> UserAttributes {
    UserAttributes::new(dn, GROUP)
}

pub fn mapped_user(dn: &str) -> MappedUser {
    MappedUser {
        dn: dn.to_owned(),
        login: "bench".to_owned(),
        account_group: GROUP.to_owned(),
    }
}

fn task_request() -> ResourceRequest {
    ResourceRequest::minimal().with_run_time(3_600)
}

/// A linear chain of script tasks, one per entry of `sleeps`.
pub fn chain_job(
    jpa: &JobPreparationAgent,
    name: String,
    vsite: VsiteAddress,
    sleeps: &[u64],
) -> AbstractJob {
    let mut b = jpa.new_job(name, vsite);
    let mut prev = None;
    for (i, secs) in sleeps.iter().enumerate() {
        let id = b.script_task(format!("t{i}"), format!("sleep {secs}\n"), task_request());
        if let Some(p) = prev {
            b.after(p, id);
        }
        prev = Some(id);
    }
    b.build_checked(jpa).expect("generated chain job is valid")
}

/// One root task fanning out to `width` independent leaves.
pub fn fan_job(
    jpa: &JobPreparationAgent,
    name: String,
    vsite: VsiteAddress,
    width: usize,
) -> AbstractJob {
    let mut b = jpa.new_job(name, vsite);
    let root = b.script_task("root", "sleep 1\n", task_request());
    for i in 0..width {
        let leaf = b.script_task(format!("leaf{i}"), "sleep 2\n", task_request());
        b.after(root, leaf);
    }
    b.build_checked(jpa).expect("generated fan job is valid")
}

/// The `chain3` shape with its middle node running as a job group at
/// another Usite: task → sub-job(`remote`) → task.
pub fn subjob_chain(
    jpa: &JobPreparationAgent,
    name: String,
    home: VsiteAddress,
    remote: VsiteAddress,
    sleep: u64,
) -> AbstractJob {
    let script = format!("sleep {sleep}\n");
    let mut b = jpa.new_job(name.clone(), home);
    let first = b.script_task("t0", script.clone(), task_request());
    let mut inner = jpa.new_job(format!("{name}-group"), remote);
    inner.script_task("t1", script.clone(), task_request());
    let group = b.sub_job(inner);
    let last = b.script_task("t2", script, task_request());
    b.after(first, group).after(group, last);
    b.build_checked(jpa)
        .expect("generated sub-job chain is valid")
}

/// Produce `bytes` of synthetic content as `file` at `from`, then stream
/// it to `to`'s incoming area (the E15 job).
pub fn transfer_job(
    jpa: &JobPreparationAgent,
    name: String,
    from: VsiteAddress,
    to: VsiteAddress,
    file: &str,
    bytes: usize,
) -> AbstractJob {
    let mut b = jpa.new_job(name, from);
    let make = b.script_task(
        "make",
        format!("sleep 10\nproduce {file} {bytes}\n"),
        task_request(),
    );
    let ship = b.transfer(file, to, file);
    b.after_with_files(make, ship, vec![file.to_owned()]);
    b.build_checked(jpa)
        .expect("generated transfer job is valid")
}

/// Fisher–Yates over `items`, driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut CryptoRng) {
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// The input stream of one (seed, workload, batch): forking keeps every
/// batch's inputs independent of how many batches ran before it.
pub fn batch_rng(seed: u64, workload: &str, batch: u64) -> CryptoRng {
    CryptoRng::from_u64(seed).fork(&format!("{workload}/{batch}"))
}

/// A one-level PKI: root CA, a gateway identity and `users` user
/// identities, all 512-bit RSA generated from the seed.
pub struct Pki {
    pub trust: Arc<TrustStore>,
    /// Taken by the `FrontDoor` that presents it.
    pub gateway: Option<Identity>,
    pub users: Vec<Arc<Identity>>,
}

impl Pki {
    pub fn generate(seed: u64, usite: &str, users: usize) -> Self {
        let mut rng = CryptoRng::from_u64(seed).fork("pki");
        let validity = Validity::starting_at(0, CERT_LIFETIME_SECS);
        let mut ca = CertificateAuthority::new_root(
            DistinguishedName::new("DE", "Bench", "Repro", "Root CA"),
            validity,
            512,
            &mut rng,
        );
        let mut trust = TrustStore::new();
        trust
            .add_anchor(ca.certificate().clone())
            .expect("self-signed root is a valid anchor");
        let gateway = ca
            .issue_identity(
                DistinguishedName::new("DE", "Bench", "Repro", format!("{usite}-gw")),
                KeyUsage::server(),
                validity,
                &mut rng,
            )
            .expect("issue gateway identity");
        let users = (0..users)
            .map(|i| {
                let id = ca
                    .issue_identity(
                        DistinguishedName::new(
                            "DE",
                            "Bench",
                            "Repro",
                            format!("user-{seed:x}-{i}"),
                        ),
                        KeyUsage::user(),
                        validity,
                        &mut rng,
                    )
                    .expect("issue user identity");
                Arc::new(id)
            })
            .collect();
        Pki {
            trust: Arc::new(trust),
            gateway: Some(gateway),
            users,
        }
    }

    /// The DN the front door will render for user `i`.
    pub fn user_dn(&self, i: usize) -> String {
        self.users[i].cert.tbs.subject.to_string()
    }
}
