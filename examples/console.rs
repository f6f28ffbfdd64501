//! An interactive console against the six-site German federation — the
//! closest thing to "being a UNICORE user" this reproduction offers.
//!
//! Commands (also printed by `help`):
//!
//! ```text
//! submit <site> <vsite> <procs> <secs>   consign a job; prints its id
//! status <site> <job>                    colour-coded JMC tree
//! list <site>                            your jobs at a site
//! files <site> <job>                     Uspace contents
//! fetch <site> <job> <name>              fetch a file (prints size)
//! abort <site> <job>                     abort a job
//! purge <site> <job>                     reclaim the job directory
//! broker <site> <procs> <secs>           ask that site's resource broker
//! run <sim-seconds>                      advance simulated time
//! report <site>                          site usage report
//! quit
//! ```
//!
//! Run with: `cargo run -p unicore-examples --bin console`
//! (pipe a script in for non-interactive use).

use std::io::BufRead;
use unicore::protocol::{outcome_of, Request, Response};
use unicore::{Federation, FederationConfig};
use unicore_ajo::{ControlOp, DetailLevel, ResourceRequest, UserAttributes, VsiteAddress};
use unicore_client::JobPreparationAgent;
use unicore_resources::ResourceDirectory;
use unicore_sim::{format_time, secs, MINUTE};

const DN: &str = "C=DE, O=Console, OU=Demo, CN=you";

fn main() {
    let mut fed = Federation::german_deployment(FederationConfig::default());
    fed.register_user(DN, "you");
    let jpa = JobPreparationAgent::new(UserAttributes::new(DN, "users"), ResourceDirectory::new());
    let mut job_count = 0u64;
    // Remember submitted jobs' AJOs so `status` can render the tree.
    let mut known: Vec<(String, unicore_ajo::JobId, unicore_ajo::AbstractJob)> = Vec::new();

    println!("UNICORE console — six German sites online (type 'help')");
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            [] => {}
            ["help"] => {
                println!(
                    "submit <site> <vsite> <procs> <secs> | status <site> <job> | list <site>"
                );
                println!("files <site> <job> | fetch <site> <job> <name> | abort <site> <job>");
                println!("purge <site> <job> | broker <site> <procs> <secs> | run <secs> | report <site> | quit");
                println!("sites: FZJ/T3E RUS/VPP RUKA/SP2 LRZ/SP2 ZIB/T3E DWD/SX4");
            }
            ["quit"] | ["exit"] => break,
            ["run", secs_str] => {
                let s: u64 = secs_str.parse().unwrap_or(60);
                fed.run_until(fed.now() + secs(s));
                println!("t = {}", format_time(fed.now()));
            }
            ["submit", site, vsite, procs, run_secs] => {
                job_count += 1;
                let procs: u32 = procs.parse().unwrap_or(1);
                let run_secs: u64 = run_secs.parse().unwrap_or(60);
                let mut b = jpa.new_job(
                    format!("console-{job_count}"),
                    VsiteAddress::new(*site, *vsite),
                );
                b.script_task(
                    "work",
                    format!("sleep {run_secs}\nproduce result.dat 4096\n"),
                    ResourceRequest::minimal()
                        .with_processors(procs)
                        .with_run_time(run_secs * 2),
                );
                match b.build() {
                    Ok(ajo) => {
                        let corr = fed.client_submit(site, ajo.clone(), DN);
                        fed.run_until(fed.now() + MINUTE);
                        match fed.take_client_response(corr) {
                            Some(Response::Consigned { job }) => {
                                println!("consigned {job} at {site}");
                                known.push((site.to_string(), job, ajo));
                            }
                            other => println!("refused: {other:?}"),
                        }
                    }
                    Err(e) => println!("invalid job: {e}"),
                }
            }
            ["status", site, job] => {
                let Ok(id) = job.trim_start_matches('J').parse::<u64>() else {
                    println!("bad job id");
                    continue;
                };
                let corr = fed.client_poll(site, DN, unicore_ajo::JobId(id), DetailLevel::Tasks);
                fed.run_until(fed.now() + MINUTE);
                match fed.take_client_response(corr) {
                    Some(resp) => match outcome_of(&resp) {
                        Some(outcome) => {
                            let ajo = known
                                .iter()
                                .find(|(s, j, _)| s == site && j.0 == id)
                                .map(|(_, _, a)| a);
                            match ajo {
                                Some(ajo) => print!(
                                    "{}",
                                    unicore_client::render(&unicore_client::status_rows(
                                        ajo, outcome
                                    ))
                                ),
                                None => println!("status: {:?}", outcome.status),
                            }
                        }
                        None => println!("{resp:?}"),
                    },
                    None => println!("(no answer yet — try 'run 60')"),
                }
            }
            ["list", site] => {
                let corr = fed.client_request(site, DN, Request::List);
                fed.run_until(fed.now() + MINUTE);
                match fed.take_client_response(corr) {
                    Some(resp) => match unicore::list_jobs_of(&resp) {
                        Some(jobs) if !jobs.is_empty() => {
                            for j in jobs {
                                println!("  {} {} — {:?}", j.job, j.name, j.status);
                            }
                        }
                        _ => println!("(no jobs)"),
                    },
                    None => println!("(no answer yet)"),
                }
            }
            ["files", site, job] => {
                let Ok(id) = job.trim_start_matches('J').parse::<u64>() else {
                    continue;
                };
                let corr = fed.client_request(
                    site,
                    DN,
                    Request::ListFiles {
                        job: unicore_ajo::JobId(id),
                    },
                );
                fed.run_until(fed.now() + MINUTE);
                match fed.take_client_response(corr) {
                    Some(Response::FileNames(names)) => {
                        for n in names {
                            println!("  {n}");
                        }
                    }
                    other => println!("{other:?}"),
                }
            }
            ["fetch", site, job, name] => {
                let Ok(id) = job.trim_start_matches('J').parse::<u64>() else {
                    continue;
                };
                let corr = fed.client_fetch(site, DN, unicore_ajo::JobId(id), name);
                fed.run_until(fed.now() + MINUTE);
                match fed.take_client_response(corr) {
                    Some(Response::FileData(data)) => {
                        println!("fetched {name}: {} bytes", data.len())
                    }
                    other => println!("{other:?}"),
                }
            }
            ["abort", site, job] => {
                let Ok(id) = job.trim_start_matches('J').parse::<u64>() else {
                    continue;
                };
                let corr = fed.client_control(site, DN, unicore_ajo::JobId(id), ControlOp::Abort);
                fed.run_until(fed.now() + MINUTE);
                println!("{:?}", fed.take_client_response(corr));
            }
            ["purge", site, job] => {
                let Ok(id) = job.trim_start_matches('J').parse::<u64>() else {
                    continue;
                };
                let corr = fed.client_request(
                    site,
                    DN,
                    Request::Purge {
                        job: unicore_ajo::JobId(id),
                    },
                );
                fed.run_until(fed.now() + MINUTE);
                println!("{:?}", fed.take_client_response(corr));
            }
            ["broker", site, procs, run_secs] => {
                let request = ResourceRequest::minimal()
                    .with_processors(procs.parse().unwrap_or(1))
                    .with_run_time(run_secs.parse().unwrap_or(600));
                let corr = fed.client_broker(site, DN, request);
                fed.run_until(fed.now() + MINUTE);
                match fed.take_client_response(corr) {
                    Some(Response::BrokerOffer { offers }) => match offers.first() {
                        Some(best) => println!(
                            "broker suggests {} (immediate start: {})",
                            best.vsite, best.immediate
                        ),
                        None => println!("no admissible Vsite"),
                    },
                    other => println!("{other:?}"),
                }
            }
            ["report", site] => match fed.server(site) {
                Some(server) => print!("{}", server.njs().usage_report().render()),
                None => println!("unknown site"),
            },
            other => println!("unknown command {other:?} — try 'help'"),
        }
    }
    println!(
        "goodbye (simulated time reached {})",
        format_time(fed.now())
    );
}
