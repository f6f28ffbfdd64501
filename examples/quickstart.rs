//! Quickstart: the whole UNICORE story at one site, in one file.
//!
//! A user prepares a Fortran compile–link–execute job with the JPA,
//! consigns it to the FZJ UNICORE server (gateway maps their certificate
//! DN to the local login, the NJS incarnates abstract tasks into Cray T3E
//! batch scripts), and monitors it with the JMC until the results come
//! back.
//!
//! Run with: `cargo run -p unicore-examples --bin quickstart`

use unicore::protocol::{outcome_of, Request, Response};
use unicore::server::UnicoreServer;
use unicore_ajo::{DetailLevel, UserAttributes, VsiteAddress};
use unicore_client::{collect_outputs, render, status_rows, JobPreparationAgent};
use unicore_gateway::{Gateway, UserEntry, Uudb};
use unicore_njs::{ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture, ResourceDirectory};
use unicore_sim::format_time;
use unicore_telemetry::Telemetry;

fn main() {
    let dn = "C=DE, O=Forschungszentrum Juelich, OU=ZAM, CN=Alice Example";

    // ---- Site administration (once per Usite) --------------------------
    // The FZJ site runs a 512-PE Cray T3E; the administrator publishes its
    // resource page and translation table and adds Alice to the UUDB.
    let mut njs = ShardedNjs::new("FZJ", 1, 1);
    njs.add_vsite(
        deployment_page("FZJ", "T3E", Architecture::CrayT3e),
        TranslationTable::for_architecture(Architecture::CrayT3e),
    );
    let mut uudb = Uudb::new();
    uudb.add(dn, UserEntry::new("alice1", "zam"));
    let gateway = Gateway::new("FZJ", uudb);
    let mut server = UnicoreServer::new(gateway, njs);

    // Collect spans and metrics across every tier the request touches.
    let telemetry = Telemetry::collecting(0x51);
    server.set_telemetry(telemetry.clone());

    // ---- Job preparation (the JPA) --------------------------------------
    // The user receives the resource pages with the applet and builds a
    // job; the JPA checks it against the T3E's limits before submission.
    let mut pages = ResourceDirectory::new();
    for page in server.resource_directory().pages() {
        pages.publish(page.clone());
    }
    let jpa = JobPreparationAgent::new(UserAttributes::new(dn, "zam"), pages);

    let mut builder = jpa.new_job("quickstart", VsiteAddress::new("FZJ", "T3E"));
    let source = b"program fields\n  print *, 'hello from the T3E'\nend program\n";
    let import = builder.import_from_workstation("fields.f90", source.to_vec(), "fields.f90");
    let compile = builder.compile_task(
        "compile fields.f90",
        vec!["fields.f90".into()],
        vec!["O3".into()],
        "fields.o",
        unicore_ajo::ResourceRequest::minimal().with_run_time(600),
    );
    let link = builder.link_task(
        "link model",
        vec!["fields.o".into()],
        vec!["blas".into(), "mpi".into()],
        "model",
        unicore_ajo::ResourceRequest::minimal().with_run_time(600),
    );
    let run = builder.user_task(
        "run model",
        "model",
        vec!["--steps".into(), "100".into()],
        vec![("OMP_NUM_THREADS".into(), "4".into())],
        unicore_ajo::ResourceRequest::minimal()
            .with_processors(64)
            .with_run_time(1_800)
            .with_memory(2_048),
    );
    builder
        .after(import, compile)
        .after(compile, link)
        .after(link, run);
    let job = builder.build_checked(&jpa).expect("job fits the T3E");
    let ajo_bytes = {
        use unicore_codec::DerCodec;
        job.to_der().len()
    };
    println!(
        "prepared AJO: {} actions, {} bytes on the wire\n",
        job.action_count(),
        ajo_bytes
    );

    // ---- Consignment (gateway + NJS) ------------------------------------
    // The client opens the root span; its context rides the envelope so
    // every tier below hangs off the same trace.
    let mut consign_span = telemetry.span("client.request", None, 0);
    consign_span.attr("kind", "consign");
    let trace = consign_span.ctx();
    let response =
        server.handle_request_traced(dn, Request::Consign { ajo: job.clone() }, 0, trace);
    telemetry.end(consign_span, 0);
    let Response::Consigned { job: job_id } = response else {
        panic!("consign failed: {response:?}");
    };
    println!("consigned as {job_id} — the gateway mapped\n  {dn}\n  to local login 'alice1'\n");

    // ---- Execution: drive simulated time forward ------------------------
    let mut now = 0;
    server.step(now);
    while !server.is_done(job_id) {
        now = server.next_event_time().unwrap_or(now + 1_000_000);
        server.step(now);
    }
    println!("job finished at t = {}\n", format_time(now));

    // ---- Monitoring (the JMC) -------------------------------------------
    let poll = server.handle_request(
        dn,
        Request::Poll {
            job: job_id,
            detail: DetailLevel::Tasks,
        },
        now,
    );
    let outcome = outcome_of(&poll).expect("poll returns outcome").clone();
    println!("JMC status display:");
    print!("{}", render(&status_rows(&job, &outcome)));

    println!("\ntask outputs:");
    for out in collect_outputs(&job, &outcome) {
        if !out.stdout.is_empty() {
            print!(
                "  {} (exit {:?}): {}",
                out.name,
                out.exit_code,
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }

    // ---- Telemetry: where did the time go? ------------------------------
    // Every row aggregates the finished spans of one instrumentation
    // point; the simulated-clock totals show the per-tier latency split
    // (batch wait + run dominate, as on a real T3E).
    println!("\nper-tier latency breakdown (from spans):");
    println!(
        "  {:<8} {:<16} {:>5}  {:>14}",
        "tier", "span", "count", "sim time"
    );
    for s in telemetry.breakdown() {
        let tier = match s.name.split('.').next().unwrap_or("") {
            "client" => "client",
            "server" | "gateway" => "gateway",
            "njs" => "NJS",
            "batch" => "batch",
            "store" | "transport" => "site",
            _ => "other",
        };
        println!(
            "  {:<8} {:<16} {:>5}  {:>14}",
            tier,
            s.name,
            s.count,
            format_time(s.clock_total)
        );
    }

    println!("\nmetrics registry (excerpt):");
    for line in telemetry
        .metrics()
        .render_text()
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains("bucket"))
        .take(10)
    {
        println!("  {line}");
    }
}
