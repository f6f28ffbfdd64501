//! The seamlessness property itself — the paper's central claim: "users
//! then can use different systems at different sites for their
//! computations without modifying the application for the different
//! environments; this is all done by UNICORE" (§6).
//!
//! One abstract job, every architecture: the incarnations differ per
//! machine (correct dialect, correct compiler, correct library names) but
//! the user-visible behaviour is identical.

use unicore_ajo::{
    AbstractJob, AbstractTask, ActionId, ActionStatus, Dependency, ExecuteKind, GraphNode, JobId,
    ResourceRequest, TaskKind, UserAttributes, VsiteAddress,
};
use unicore_batch::script_matches_dialect;
use unicore_gateway::MappedUser;
use unicore_njs::{ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture};
use unicore_sim::{SimTime, HOUR, SEC};

const DN: &str = "C=DE, O=Grid, OU=Test, CN=seamless";

fn user(login: &str) -> MappedUser {
    MappedUser {
        dn: DN.into(),
        login: login.into(),
        account_group: "users".into(),
    }
}

/// The same abstract compile-link-execute job, parameterised only by
/// destination — exactly what a JPA user changes when re-targeting.
fn abstract_job(usite: &str, vsite: &str) -> AbstractJob {
    let mut job = AbstractJob::new(
        "portable",
        VsiteAddress::new(usite, vsite),
        UserAttributes::new(DN, "users"),
    );
    job.portfolio.push(unicore_ajo::PortfolioFile {
        name: "solver.f90".into(),
        data: b"program solver\nend\n".to_vec().into(),
    });
    job.nodes.push((
        ActionId(1),
        GraphNode::Task(AbstractTask {
            name: "import".into(),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::File(unicore_ajo::FileKind::Import {
                source: unicore_ajo::DataLocation::Workstation {
                    path: "solver.f90".into(),
                },
                uspace_name: "solver.f90".into(),
            }),
        }),
    ));
    job.nodes.push((
        ActionId(2),
        GraphNode::Task(AbstractTask {
            name: "compile".into(),
            resources: ResourceRequest::minimal().with_run_time(600),
            kind: TaskKind::Execute(ExecuteKind::Compile {
                sources: vec!["solver.f90".into()],
                options: vec!["O3".into()],
                output: "solver.o".into(),
            }),
        }),
    ));
    job.nodes.push((
        ActionId(3),
        GraphNode::Task(AbstractTask {
            name: "link".into(),
            resources: ResourceRequest::minimal().with_run_time(600),
            kind: TaskKind::Execute(ExecuteKind::Link {
                objects: vec!["solver.o".into()],
                libraries: vec!["blas".into()],
                output: "solver".into(),
            }),
        }),
    ));
    job.nodes.push((
        ActionId(4),
        GraphNode::Task(AbstractTask {
            name: "run".into(),
            resources: ResourceRequest::minimal()
                .with_processors(8)
                .with_run_time(1_200),
            kind: TaskKind::Execute(ExecuteKind::User {
                executable: "solver".into(),
                arguments: vec![],
                environment: vec![],
            }),
        }),
    ));
    for (a, b) in [(1u64, 2u64), (2, 3), (3, 4)] {
        job.dependencies.push(Dependency {
            from: ActionId(a),
            to: ActionId(b),
            files: vec![],
        });
    }
    job
}

fn run_to_done(njs: &mut ShardedNjs, job: JobId) -> SimTime {
    let mut now = 0;
    njs.step(now);
    while !njs.is_done(job) && now < HOUR {
        now = njs.next_event_time().unwrap_or(now + SEC).max(now + 1);
        njs.step(now);
    }
    now
}

#[test]
fn one_abstract_job_runs_on_every_architecture() {
    let cases = [
        ("T3E", Architecture::CrayT3e),
        ("VPP", Architecture::FujitsuVpp700),
        ("SP2", Architecture::IbmSp2),
        ("SX4", Architecture::NecSx4),
        ("GEN", Architecture::Generic),
    ];
    for (vsite, arch) in cases {
        let mut njs = ShardedNjs::new("SITE", 1, 1);
        njs.add_vsite(
            deployment_page("SITE", vsite, arch),
            TranslationTable::for_architecture(arch),
        );
        let job = abstract_job("SITE", vsite);
        let id = njs.consign(job, user("local"), 0).unwrap();
        run_to_done(&mut njs, id);
        let outcome = njs.outcome(id).unwrap();
        assert_eq!(
            outcome.status,
            ActionStatus::Successful,
            "job failed on {arch:?}: {outcome:?}"
        );
        // The linked binary exists in the Uspace regardless of machine.
        let v = njs.vsite(vsite).unwrap();
        assert!(v.vspace.uspace(id).unwrap().exists("solver"));
    }
}

#[test]
fn incarnations_differ_but_match_each_dialect() {
    use unicore_njs::incarnate_execute;
    let kind = ExecuteKind::Compile {
        sources: vec!["solver.f90".into()],
        options: vec!["O3".into()],
        output: "solver.o".into(),
    };
    let resources = ResourceRequest::minimal()
        .with_processors(8)
        .with_run_time(600);
    let mut scripts = Vec::new();
    for arch in Architecture::ALL {
        let script = incarnate_execute(
            &TranslationTable::for_architecture(arch),
            &kind,
            &resources,
            "login",
            "J1",
        );
        assert!(
            script_matches_dialect(&script, arch),
            "{arch:?} script does not match its own dialect:\n{script}"
        );
        // ...and does NOT match any other dialect.
        for other in Architecture::ALL {
            if other != arch {
                assert!(
                    !script_matches_dialect(&script, other),
                    "{arch:?} script wrongly matches {other:?}"
                );
            }
        }
        scripts.push(script);
    }
    // All five incarnations are distinct text.
    for i in 0..scripts.len() {
        for j in i + 1..scripts.len() {
            assert_ne!(scripts[i], scripts[j]);
        }
    }
}

#[test]
fn same_user_different_logins_per_site_no_uniform_uid() {
    // Two sites, two UUDBs, one DN — the site-autonomy property (§4).
    let mut fzj = ShardedNjs::new("FZJ", 1, 1);
    fzj.add_vsite(
        deployment_page("FZJ", "T3E", Architecture::CrayT3e),
        TranslationTable::for_architecture(Architecture::CrayT3e),
    );
    let mut rus = ShardedNjs::new("RUS", 1, 1);
    rus.add_vsite(
        deployment_page("RUS", "VPP", Architecture::FujitsuVpp700),
        TranslationTable::for_architecture(Architecture::FujitsuVpp700),
    );

    let job_fzj = {
        let mut j = abstract_job("FZJ", "T3E");
        j.name = "at-fzj".into();
        j
    };
    let job_rus = {
        let mut j = abstract_job("RUS", "VPP");
        j.name = "at-rus".into();
        j
    };
    let id1 = fzj.consign(job_fzj, user("romberg"), 0).unwrap();
    let id2 = rus.consign(job_rus, user("mr042"), 0).unwrap();
    run_to_done(&mut fzj, id1);
    run_to_done(&mut rus, id2);
    assert!(fzj.outcome(id1).unwrap().status.is_success());
    assert!(rus.outcome(id2).unwrap().status.is_success());
    // Files at each site belong to the *local* login.
    let f1 = fzj.vsite("T3E").unwrap().vspace.uspace(id1).unwrap();
    assert!(f1.read("solver", "romberg").is_ok());
    assert!(f1.read("solver", "mr042").is_err());
    let f2 = rus.vsite("VPP").unwrap().vspace.uspace(id2).unwrap();
    assert!(f2.read("solver", "mr042").is_ok());
    assert!(f2.read("solver", "romberg").is_err());
}

#[test]
fn admission_limits_differ_per_machine() {
    // 100 processors fit the T3E (512 PEs) but not the SX-4 (32 PEs):
    // the same abstract request is admissible at one site and not another,
    // and the NJS tells the user *before* anything runs.
    let mut big = abstract_job("SITE", "T3E");
    if let GraphNode::Task(t) = &mut big.nodes[3].1 {
        t.resources.processors = 100;
    }
    let mut t3e = ShardedNjs::new("SITE", 1, 1);
    t3e.add_vsite(
        deployment_page("SITE", "T3E", Architecture::CrayT3e),
        TranslationTable::for_architecture(Architecture::CrayT3e),
    );
    assert!(t3e.consign(big.clone(), user("u"), 0).is_ok());

    let mut sx4 = ShardedNjs::new("SITE", 1, 1);
    sx4.add_vsite(
        deployment_page("SITE", "SX4", Architecture::NecSx4),
        TranslationTable::for_architecture(Architecture::NecSx4),
    );
    let mut for_sx4 = big;
    for_sx4.vsite = VsiteAddress::new("SITE", "SX4");
    assert!(matches!(
        sx4.consign(for_sx4, user("u"), 0),
        Err(unicore_njs::NjsError::Admission { .. })
    ));
}
