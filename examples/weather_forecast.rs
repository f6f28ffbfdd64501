//! The paper's motivating scenario (§1): "complex pre- and post-processing
//! tasks which run best on another architecture than the main application".
//!
//! A DWD-style numerical weather forecast: observation pre-processing on
//! the Fujitsu VPP/700 at RUS, the main forecast model on the NEC SX-4 at
//! DWD, and visualisation on the Cray T3E at FZJ — one UNICORE job, three
//! sites, files flowing along the dependency edges, monitored live with
//! the JMC's colour-coded tree.
//!
//! Run with: `cargo run -p unicore-examples --bin weather_forecast`

use unicore::protocol::{outcome_of, Response};
use unicore::{Federation, FederationConfig};
use unicore_ajo::{DetailLevel, ResourceRequest, UserAttributes, VsiteAddress};
use unicore_client::{first_failure, render, status_rows, JobPreparationAgent};
use unicore_resources::ResourceDirectory;
use unicore_sim::{format_time, HOUR, MINUTE, SEC};

const DN: &str = "C=DE, O=DWD, OU=Forecasting, CN=Otto Operator";

fn main() {
    let mut fed = Federation::german_deployment(FederationConfig::default());
    fed.register_user(DN, "otto");

    let jpa = JobPreparationAgent::new(UserAttributes::new(DN, "users"), ResourceDirectory::new());

    // ---- Pre-processing job group on the VPP at RUS ----------------------
    let mut prep = jpa.new_job("obs-preprocess@RUS", VsiteAddress::new("RUS", "VPP"));
    let decode = prep.script_task(
        "decode observations",
        "echo decoding synop+temp observations\nsleep 180\nproduce obs.bufr 262144\n",
        ResourceRequest::minimal()
            .with_processors(2)
            .with_run_time(1_800),
    );
    let assimilate = prep.script_task(
        "assimilation",
        "echo optimal interpolation analysis\nsleep 420\nproduce analysis.grb 524288\n",
        ResourceRequest::minimal()
            .with_processors(8)
            .with_run_time(3_600),
    );
    prep.after_with_files(decode, assimilate, vec!["obs.bufr".into()]);

    // ---- Post-processing job group on the T3E at FZJ ---------------------
    let mut post = jpa.new_job("viz@FZJ", VsiteAddress::new("FZJ", "T3E"));
    post.script_task(
        "render maps",
        "echo rendering 72h surface pressure maps\nsleep 240\nproduce maps.ps 1048576\n",
        ResourceRequest::minimal()
            .with_processors(16)
            .with_run_time(1_800),
    );

    // ---- The main forecast at DWD on the SX-4 ----------------------------
    let mut job = jpa.new_job("72h-forecast", VsiteAddress::new("DWD", "SX4"));
    let prep_id = job.sub_job(prep);
    let model = job.script_task(
        "global model 72h",
        "echo integrating spectral model T106L31\nsleep 1800\nproduce forecast.grb 2097152\n",
        ResourceRequest::minimal()
            .with_processors(16)
            .with_run_time(14_400)
            .with_memory(8_192),
    );
    let post_id = job.sub_job(post);
    job.after_with_files(prep_id, model, vec!["analysis.grb".into()]);
    job.after_with_files(model, post_id, vec!["forecast.grb".into()]);
    let ajo = job.build().expect("valid forecast job");
    println!(
        "prepared '{}': {} actions across {:?}\n",
        ajo.name,
        ajo.action_count(),
        {
            let mut sites: Vec<String> = ajo.referenced_usites().into_iter().collect();
            sites.sort();
            sites
        }
    );

    // ---- Submit via the user's home server (DWD) --------------------------
    let corr = fed.client_submit("DWD", ajo.clone(), DN);
    fed.run_until(MINUTE);
    let Some(Response::Consigned { job: job_id }) = fed.take_client_response(corr) else {
        panic!("consignment failed");
    };
    println!("consigned at DWD as {job_id}\n");

    // ---- Monitor with the JMC at intervals --------------------------------
    let mut last_render = String::new();
    loop {
        let poll = fed.client_poll("DWD", DN, job_id, DetailLevel::Tasks);
        fed.run_until(fed.now() + 2 * MINUTE);
        if let Some(resp) = fed.take_client_response(poll) {
            if let Some(outcome) = outcome_of(&resp) {
                let tree = render(&status_rows(&ajo, outcome));
                if tree != last_render {
                    println!("t = {}", format_time(fed.now()));
                    println!("{tree}");
                    last_render = tree;
                }
                if outcome.status.is_terminal() {
                    if let Some((task, t)) = first_failure(&ajo, outcome) {
                        println!("first failure: {task}: {}", t.message);
                    }
                    break;
                }
            }
        }
        if fed.now() > 8 * HOUR {
            println!("timed out");
            return;
        }
    }

    // ---- Fetch the product -------------------------------------------------
    let fetch = fed.client_fetch("DWD", DN, job_id, "forecast.grb");
    fed.run_until(fed.now() + MINUTE);
    if let Some(Response::FileData(data)) = fed.take_client_response(fetch) {
        println!(
            "retrieved forecast.grb ({} bytes) to the workstation on JMC request",
            data.len()
        );
    }
    println!(
        "\nprotocol: {} envelopes in {} network messages, {} retries, done at {}",
        fed.envelopes_sent,
        fed.messages_sent,
        fed.retries,
        format_time(fed.now())
    );
    let _ = SEC;
}
