//! The site administrator's view: everything §5.4/§5.5 says a UNICORE site
//! operates — the resource-page editor, the translation tables, the UUDB —
//! plus the accounting and audit trails that §6 foreshadows.
//!
//! Run with: `cargo run -p unicore-examples --bin site_admin`

use unicore::protocol::Request;
use unicore::server::UnicoreServer;
use unicore_ajo::{ResourceRequest, UserAttributes, VsiteAddress};
use unicore_client::JobPreparationAgent;
use unicore_codec::DerCodec;
use unicore_gateway::{Gateway, UserEntry, Uudb};
use unicore_njs::{ShardedNjs, TranslationTable};
use unicore_resources::{
    Architecture, PerformanceInfo, ResourceDirectory, ResourceLimits, ResourcePageEditor,
    SoftwareKind,
};
use unicore_sim::{format_time, SEC};

fn main() {
    // ---- 1. Author the resource page with the editor (§5.4) --------------
    println!("== 1. resource page editor ==");
    let page = ResourcePageEditor::new(VsiteAddress::new("FZJ", "T3E"), Architecture::CrayT3e)
        .operating_system("UNICOS/mk 2.0")
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
            max_disk_permanent_mb: 100_000,
            max_disk_temporary_mb: 200_000,
        })
        .software(SoftwareKind::Compiler, "f90", "3.2.0.1")
        .software(SoftwareKind::Library, "blas", "libsci")
        .software(SoftwareKind::Library, "mpi", "mpt 1.3")
        .software(SoftwareKind::Package, "gaussian94", "rev E.2")
        .build()
        .expect("consistent page");
    let der = page.to_der();
    println!(
        "authored page for {} ({}): {} software entries, {} bytes in ASN.1/DER\n",
        page.vsite,
        page.architecture.display_name(),
        page.software.len(),
        der.len()
    );

    // ---- 2. Stand up the site --------------------------------------------
    println!("== 2. site bring-up (UUDB + translation tables) ==");
    let mut njs = ShardedNjs::new("FZJ", 1, 1);
    njs.add_vsite(
        page,
        TranslationTable::for_architecture(Architecture::CrayT3e),
    );
    let mut uudb = Uudb::new();
    for (dn, login, group) in [
        ("C=DE, O=FZJ, OU=ZAM, CN=alice", "alice1", "zam"),
        (
            "C=DE, O=Uni Koeln, OU=Physik, CN=bert",
            "guest07",
            "external",
        ),
        ("C=DE, O=FZJ, OU=IFF, CN=carol", "carol", "iff"),
    ] {
        uudb.add(dn, UserEntry::new(login, group));
    }
    println!("UUDB entries: {}\n", uudb.len());
    let mut server = UnicoreServer::new(Gateway::new("FZJ", uudb), njs);

    // ---- 3. Users run jobs ------------------------------------------------
    println!("== 3. a day of jobs ==");
    let mut now = 0;
    for (i, (dn, group, procs, sleep)) in [
        ("C=DE, O=FZJ, OU=ZAM, CN=alice", "zam", 64u32, 1_800u64),
        ("C=DE, O=Uni Koeln, OU=Physik, CN=bert", "external", 16, 600),
        ("C=DE, O=FZJ, OU=IFF, CN=carol", "iff", 128, 3_600),
        ("C=DE, O=FZJ, OU=ZAM, CN=alice", "zam", 8, 120),
        // An intruder with no UUDB entry.
        ("C=DE, O=Evil, OU=Corp, CN=mallory", "zam", 1, 10),
    ]
    .iter()
    .enumerate()
    {
        let jpa =
            JobPreparationAgent::new(UserAttributes::new(*dn, *group), ResourceDirectory::new());
        let mut b = jpa.new_job(format!("job{i}"), VsiteAddress::new("FZJ", "T3E"));
        b.script_task(
            "work",
            format!("sleep {sleep}\n"),
            ResourceRequest::minimal()
                .with_processors(*procs)
                .with_run_time(sleep * 2),
        );
        let ajo = b.build().unwrap();
        let resp = server.handle_request(dn, Request::Consign { ajo }, now);
        println!("  {dn} -> {resp:?}");
        now += SEC;
    }
    // Drive everything to completion.
    server.step(now);
    while let Some(t) = server.next_event_time() {
        now = t;
        server.step(now);
    }
    println!("all jobs drained at t = {}\n", format_time(now));

    // ---- 4. Accounting report (§6's "accounting functions") --------------
    println!("== 4. usage report ==");
    print!("{}", server.njs().usage_report().render());

    // ---- 5. The gateway audit trail ---------------------------------------
    println!("\n== 5. gateway audit trail ==");
    for rec in server.gateway().audit() {
        println!(
            "  t={:<4} {} vsite={} -> {}",
            rec.at,
            if rec.accepted { "ACCEPT" } else { "REFUSE" },
            rec.vsite,
            rec.detail
        );
    }
}
