//! The paper's §5.7 deployment: six German computing centres, four machine
//! architectures, real background load, and UNICORE jobs competing with it.
//!
//! Reproduces the *status* section of the paper as a running system:
//! FZ Jülich (Cray T3E), RUS Stuttgart (Fujitsu VPP/700), RUKA Karlsruhe
//! (IBM SP-2), LRZ Munich (IBM SP-2), ZIB Berlin (Cray T3E) and DWD
//! Offenbach (NEC SX-4), joined by a B-WiN-era WAN.
//!
//! Run with: `cargo run -p unicore-examples --bin german_grid --release`

use unicore::{Federation, FederationConfig};
use unicore_ajo::{ActionStatus, ResourceRequest, UserAttributes, VsiteAddress};
use unicore_batch::{generate_background, WorkloadModel};
use unicore_client::JobPreparationAgent;
use unicore_crypto::CryptoRng;
use unicore_resources::ResourceDirectory;
use unicore_sim::{format_time, HOUR, MINUTE, SEC};

const SITES: [(&str, &str); 6] = [
    ("FZJ", "T3E"),
    ("RUS", "VPP"),
    ("RUKA", "SP2"),
    ("LRZ", "SP2"),
    ("ZIB", "T3E"),
    ("DWD", "SX4"),
];

fn main() {
    let mut fed = Federation::german_deployment(FederationConfig::default());

    // ---- Users: each site's UUDB maps the same DN to a different login --
    let users: Vec<String> = (0..8)
        .map(|i| format!("C=DE, O=GridUsers, OU=Science, CN=user{i:02}"))
        .collect();
    for (i, dn) in users.iter().enumerate() {
        fed.register_user(dn, &format!("u{i:02}"));
    }

    // ---- Background load on every machine (local batch jobs) ------------
    let rng = CryptoRng::from_u64(1999);
    let horizon = 2 * HOUR;
    let mut background_total = 0usize;
    for (site, vsite) in SITES {
        let (arch, nodes) = {
            let v = fed.server(site).unwrap().njs().vsite(vsite).unwrap();
            (v.batch.architecture(), v.batch.total_nodes())
        };
        let arrivals = generate_background(
            &WorkloadModel::moderate(),
            arch,
            nodes,
            horizon,
            &mut rng.fork(site),
        );
        background_total += arrivals.len();
        let server = fed.server_mut(site).unwrap();
        let batch = &mut server.njs_mut().vsite_mut(vsite).unwrap().batch;
        for a in &arrivals {
            batch.submit(a.spec.clone(), a.at).expect("background job");
        }
    }
    println!("injected {background_total} background batch jobs across 6 sites\n");

    // ---- UNICORE jobs: users submit multi-part work through any server --
    let mut submitted = Vec::new();
    for (i, dn) in users.iter().enumerate() {
        let (home, home_vsite) = SITES[i % 6];
        let (away, away_vsite) = SITES[(i + 2) % 6];
        let jpa = JobPreparationAgent::new(
            UserAttributes::new(dn.clone(), "users"),
            ResourceDirectory::new(),
        );
        // A two-site job: pre-processing away, main run at home.
        let mut prep = jpa.new_job(format!("prep-{i}"), VsiteAddress::new(away, away_vsite));
        prep.script_task(
            "preprocess",
            "sleep 120\nproduce grid.dat 65536\n",
            ResourceRequest::minimal()
                .with_processors(4)
                .with_run_time(1_800),
        );
        let mut main = jpa.new_job(format!("job-{i}"), VsiteAddress::new(home, home_vsite));
        let sub = main.sub_job(prep);
        let run = main.script_task(
            "main-simulation",
            "sleep 600\nproduce result.dat 1048576\n",
            ResourceRequest::minimal()
                .with_processors(16)
                .with_run_time(7_200),
        );
        main.after_with_files(sub, run, vec!["grid.dat".into()]);
        let job = main.build().expect("valid job");
        let corr = fed.client_submit(home, job, dn);
        submitted.push((corr, dn.clone(), home.to_owned(), i));
    }

    // ---- Run the grid ----------------------------------------------------
    fed.run_until(horizon);
    let mut job_ids = Vec::new();
    for (corr, dn, via, i) in &submitted {
        match fed.take_client_response(*corr) {
            Some(unicore::Response::Consigned { job }) => {
                job_ids.push((job, dn.clone(), via.clone(), *i))
            }
            other => println!("user{i:02}: consign failed: {other:?}"),
        }
    }
    // Let everything finish (up to 12 simulated hours — the SX-4 runs a
    // deep queue under this load).
    let end = fed.run_until_idle(12 * HOUR);
    println!("grid quiescent at t = {}\n", format_time(end));

    // ---- Report: per-site utilisation and queue behaviour ----------------
    println!(
        "{:<6} {:<14} {:>6} {:>10} {:>12} {:>12}",
        "site", "machine", "nodes", "jobs run", "utilisation", "median wait"
    );
    for (site, vsite) in SITES {
        let server = fed.server(site).unwrap();
        let v = server.njs().vsite(vsite).unwrap();
        let acc = v.batch.accounting();
        let mut waits: Vec<u64> = acc.iter().map(|r| r.wait_time()).collect();
        waits.sort_unstable();
        let median_wait = waits.get(waits.len() / 2).copied().unwrap_or(0);
        println!(
            "{:<6} {:<14} {:>6} {:>10} {:>11.1}% {:>12}",
            site,
            v.batch.architecture().display_name(),
            v.batch.total_nodes(),
            acc.len(),
            v.batch.utilization(end) * 100.0,
            format_time(median_wait),
        );
    }

    // ---- Report: UNICORE job outcomes -----------------------------------
    println!("\nUNICORE jobs:");
    let mut ok = 0;
    for (job, dn, via, i) in &job_ids {
        let server = fed.server(via).unwrap();
        let status = server
            .query(*job, dn, unicore_ajo::DetailLevel::JobOnly)
            .map(|o| o.status)
            .unwrap_or(ActionStatus::Pending);
        let turnaround = server.njs().turnaround(*job);
        println!(
            "  user{i:02} via {via}: {job} — {:?}{}",
            status,
            turnaround
                .map(|t| format!(" (turnaround {})", format_time(t)))
                .unwrap_or_default()
        );
        if status.is_success() {
            ok += 1;
        }
    }
    println!(
        "\n{ok}/{} UNICORE jobs successful; {} protocol envelopes in {} network messages, {} retries",
        job_ids.len(),
        fed.envelopes_sent,
        fed.messages_sent,
        fed.retries
    );
    let _ = (MINUTE, SEC);
}
