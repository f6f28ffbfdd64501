//! Cross-crate integration: JPA → federation → NJS → batch → JMC, the
//! complete life of a UNICORE job.

use unicore::protocol::{outcome_of, Response};
use unicore::{Federation, FederationConfig};
use unicore_ajo::{
    ControlOp, DetailLevel, OutcomeNode, ResourceRequest, UserAttributes, VsiteAddress,
};
use unicore_client::{collect_outputs, render, status_rows, JobPreparationAgent};
use unicore_resources::ResourceDirectory;
use unicore_sim::{HOUR, MINUTE, SEC};

const DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=endtoend";

fn fed() -> Federation {
    let mut fed = Federation::german_deployment(FederationConfig::default());
    fed.register_user(DN, "e2e");
    fed
}

fn jpa() -> JobPreparationAgent {
    JobPreparationAgent::new(UserAttributes::new(DN, "users"), ResourceDirectory::new())
}

#[test]
fn jpa_built_job_runs_and_jmc_renders() {
    let mut fed = fed();
    let jpa = jpa();
    let mut b = jpa.new_job("rendered", VsiteAddress::new("FZJ", "T3E"));
    let make = b.script_task(
        "make data",
        "sleep 30\nproduce out.bin 4096\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    let check = b.script_task(
        "check data",
        "echo checking\nsleep 10\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    b.after_with_files(make, check, vec!["out.bin".into()]);
    let ajo = b.build().unwrap();

    let (_, outcome, _) = fed
        .submit_and_wait("FZJ", ajo.clone(), DN, 5 * SEC, HOUR)
        .expect("completes");
    assert!(outcome.status.is_success());

    let tree = render(&status_rows(&ajo, &outcome));
    assert!(tree.contains("[+] rendered"));
    assert!(tree.contains("[+] make data"));
    assert!(tree.contains("[+] check data"));

    let outputs = collect_outputs(&ajo, &outcome);
    assert_eq!(outputs.len(), 2);
    assert_eq!(outputs[1].stdout, b"checking\n");
}

#[test]
fn resubmission_after_modification() {
    let mut fed = fed();
    let jpa = jpa();
    let mut b = jpa.new_job("v1", VsiteAddress::new("ZIB", "T3E"));
    b.script_task(
        "step1",
        "sleep 5\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    let v1 = b.build().unwrap();
    let (_, o1, _) = fed
        .submit_and_wait("ZIB", v1.clone(), DN, 5 * SEC, HOUR)
        .unwrap();
    assert!(o1.status.is_success());

    // Load the old job, add a step, resubmit (§5.7's JPA functions).
    let mut b2 = jpa.load_job(v1);
    let extra = b2.script_task(
        "step2",
        "sleep 5\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    b2.after(unicore_ajo::ActionId(1), extra);
    let v2 = b2.build().unwrap();
    let (_, o2, _) = fed.submit_and_wait("ZIB", v2, DN, 5 * SEC, HOUR).unwrap();
    assert!(o2.status.is_success());
    assert_eq!(o2.children.len(), 2);
}

#[test]
fn users_cannot_see_each_others_jobs() {
    let mut fed = Federation::german_deployment(FederationConfig::default());
    let alice = "C=DE, O=A, OU=A, CN=alice";
    let bob = "C=DE, O=B, OU=B, CN=bob";
    fed.register_user(alice, "alice");
    fed.register_user(bob, "bob");

    let mk = |dn: &str| {
        let jpa =
            JobPreparationAgent::new(UserAttributes::new(dn, "users"), ResourceDirectory::new());
        let mut b = jpa.new_job("private", VsiteAddress::new("FZJ", "T3E"));
        b.script_task(
            "t",
            "sleep 1000\n",
            ResourceRequest::minimal().with_run_time(3_600),
        );
        b.build().unwrap()
    };
    let ca = fed.client_submit("FZJ", mk(alice), alice);
    let cb = fed.client_submit("FZJ", mk(bob), bob);
    fed.run_until(2 * MINUTE);
    let Some(Response::Consigned { job: job_a }) = fed.take_client_response(ca) else {
        panic!()
    };
    let Some(Response::Consigned { job: job_b }) = fed.take_client_response(cb) else {
        panic!()
    };

    // Bob polls Alice's job: refused.
    let poll = fed.client_poll("FZJ", bob, job_a, DetailLevel::Tasks);
    fed.run_until(fed.now() + MINUTE);
    assert!(matches!(
        fed.take_client_response(poll),
        Some(Response::Error(_))
    ));
    // Bob cannot abort Alice's job either.
    let ctl = fed.client_control("FZJ", bob, job_a, ControlOp::Abort);
    fed.run_until(fed.now() + MINUTE);
    assert!(matches!(
        fed.take_client_response(ctl),
        Some(Response::Error(_))
    ));
    // Each List shows only the owner's job.
    let list = fed.client_request("FZJ", alice, unicore::Request::List);
    fed.run_until(fed.now() + MINUTE);
    let resp = fed.take_client_response(list).unwrap();
    let jobs = unicore::list_jobs_of(&resp).unwrap();
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].job, job_a);
    let _ = job_b;
}

#[test]
fn hold_then_resume_through_protocol() {
    let mut fed = fed();
    let jpa = jpa();
    let mut b = jpa.new_job("held", VsiteAddress::new("LRZ", "SP2"));
    b.script_task(
        "t",
        "sleep 20\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    let ajo = b.build().unwrap();
    let corr = fed.client_submit("LRZ", ajo, DN);
    fed.run_until(MINUTE);
    let Some(Response::Consigned { job }) = fed.take_client_response(corr) else {
        panic!()
    };
    // Hold immediately (race with dispatch is fine either way; the NJS
    // hold only blocks *new* dispatches, so check it reports applied).
    let hold = fed.client_control("LRZ", DN, job, ControlOp::Hold);
    fed.run_until(fed.now() + MINUTE);
    let resp = fed.take_client_response(hold).unwrap();
    assert!(matches!(
        resp,
        Response::Service(unicore_ajo::ServiceOutcome::Control { .. })
    ));
    let resume = fed.client_control("LRZ", DN, job, ControlOp::Resume);
    fed.run_until(fed.now() + MINUTE);
    fed.take_client_response(resume).unwrap();
    // The job still completes.
    let deadline = fed.now() + HOUR;
    loop {
        let poll = fed.client_poll("LRZ", DN, job, DetailLevel::JobOnly);
        fed.run_until((fed.now() + MINUTE).min(deadline));
        if let Some(resp) = fed.take_client_response(poll) {
            if let Some(o) = outcome_of(&resp) {
                if o.status.is_terminal() {
                    assert!(o.status.is_success());
                    break;
                }
            }
        }
        assert!(fed.now() < deadline, "job stuck");
    }
}

#[test]
fn deterministic_replay_from_seed() {
    let run = || {
        let mut fed = Federation::german_deployment(FederationConfig {
            seed: 42,
            wan_loss: 0.1,
            ..FederationConfig::default()
        });
        fed.register_user(DN, "e2e");
        let jpa = jpa();
        let mut b = jpa.new_job("replay", VsiteAddress::new("RUKA", "SP2"));
        b.script_task(
            "t",
            "sleep 100\n",
            ResourceRequest::minimal().with_run_time(600),
        );
        let ajo = b.build().unwrap();
        let (_, outcome, t) = fed
            .submit_and_wait("RUKA", ajo, DN, 5 * SEC, HOUR)
            .expect("completes");
        (outcome.status, t, fed.messages_sent, fed.retries)
    };
    assert_eq!(run(), run());
}

#[test]
fn wrong_account_group_rejected_end_to_end() {
    let mut fed = fed();
    let jpa = JobPreparationAgent::new(
        UserAttributes::new(DN, "not-my-group"),
        ResourceDirectory::new(),
    );
    let mut b = jpa.new_job("bad-group", VsiteAddress::new("FZJ", "T3E"));
    b.script_task(
        "t",
        "sleep 1\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    let ajo = b.build().unwrap();
    let corr = fed.client_submit("FZJ", ajo, DN);
    fed.run_until(MINUTE);
    assert!(matches!(
        fed.take_client_response(corr),
        Some(Response::Error(msg)) if msg.contains("group")
    ));
}

#[test]
fn broker_routes_around_load() {
    // Saturate DWD's SX-4 with a long full-machine job; the broker must
    // then send a new 16-PE request elsewhere, and the brokered job runs.
    let mut fed = fed();
    let jpa = jpa();
    let mut hog = jpa.new_job("hog", VsiteAddress::new("DWD", "SX4"));
    hog.script_task(
        "occupy",
        "sleep 50000\n",
        ResourceRequest::minimal()
            .with_processors(32)
            .with_run_time(86_400),
    );
    let corr = fed.client_submit("DWD", hog.build().unwrap(), DN);
    fed.run_until(MINUTE);
    assert!(matches!(
        fed.take_client_response(corr),
        Some(Response::Consigned { .. })
    ));

    let request = ResourceRequest::minimal()
        .with_processors(16)
        .with_run_time(3_600);
    // Ask DWD's own broker: its load is the one it knows live.
    let ask = fed.client_broker("DWD", DN, request);
    fed.run_until(fed.now() + MINUTE);
    let Some(Response::BrokerOffer { offers }) = fed.take_client_response(ask) else {
        panic!("no broker offer");
    };
    let choice = offers.first().expect("some site admissible");
    assert_ne!(choice.vsite.usite, "DWD", "broker chose the saturated site");
    assert!(choice.immediate);

    // Submit where the broker pointed; it completes quickly.
    let mut b = jpa.new_job("brokered", choice.vsite.clone());
    b.script_task("work", "sleep 30\n", request);
    let (_, outcome, _) = fed
        .submit_and_wait(&choice.vsite.usite, b.build().unwrap(), DN, 5 * SEC, HOUR)
        .expect("brokered job completes");
    assert!(outcome.status.is_success());
}

#[test]
fn broker_rejects_impossible_requests() {
    let mut fed = fed();
    // No machine in the deployment has 10^6 processors.
    let request = ResourceRequest::minimal().with_processors(1_000_000);
    let ask = fed.client_broker("FZJ", DN, request);
    fed.run_until(MINUTE);
    let answer = fed.take_client_response(ask);
    assert_eq!(answer, Some(Response::BrokerOffer { offers: vec![] }));
}

#[test]
fn list_files_then_fetch_workflow() {
    // The JMC's save-output flow: list the Uspace, pick files, fetch them.
    let mut fed = fed();
    let jpa = jpa();
    let mut b = jpa.new_job("outputs", VsiteAddress::new("FZJ", "T3E"));
    b.script_task(
        "make",
        "produce run.log 200\nproduce result.nc 5000\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    let (id, outcome, _) = fed
        .submit_and_wait("FZJ", b.build().unwrap(), DN, 5 * SEC, HOUR)
        .unwrap();
    assert!(outcome.status.is_success());

    let list = fed.client_request("FZJ", DN, unicore::Request::ListFiles { job: id });
    fed.run_until(fed.now() + MINUTE);
    let Some(Response::FileNames(names)) = fed.take_client_response(list) else {
        panic!("no file listing");
    };
    assert!(names.contains(&"run.log".to_string()));
    assert!(names.contains(&"result.nc".to_string()));

    // Fetch each listed file.
    for name in &names {
        let corr = fed.client_fetch("FZJ", DN, id, name);
        fed.run_until(fed.now() + MINUTE);
        assert!(matches!(
            fed.take_client_response(corr),
            Some(Response::FileData(_))
        ));
    }
}

#[test]
fn standalone_transfer_task_crosses_sites() {
    // A TransferTask to a *remote* Vsite rides the chunked data plane
    // (TransferOffer, then TransferChunks) and lands in the destination's
    // incoming Xspace area.
    let mut fed = fed();
    let jpa = jpa();
    let mut b = jpa.new_job("pusher", VsiteAddress::new("FZJ", "T3E"));
    let make = b.script_task(
        "make",
        "produce fields.grb 32768\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    let push = b.transfer("fields.grb", VsiteAddress::new("DWD", "SX4"), "fields.grb");
    b.after(make, push);
    let (_, outcome, _) = fed
        .submit_and_wait("FZJ", b.build().unwrap(), DN, 5 * SEC, HOUR)
        .expect("transfer job completes");
    assert!(outcome.status.is_success(), "{outcome:?}");
    // The file arrived at DWD.
    let dwd = fed.server("DWD").unwrap();
    let incoming = dwd
        .njs()
        .vsite("SX4")
        .unwrap()
        .vspace
        .xspace_ref()
        .read_raw(&format!("{}fields.grb", unicore_njs::INCOMING_PREFIX))
        .expect("file at destination");
    assert_eq!(incoming.data.len(), 32_768);
}

#[test]
fn subjob_to_unknown_usite_fails_cleanly() {
    let mut fed = fed();
    let jpa = jpa();
    let mut inner = jpa.new_job("nowhere", VsiteAddress::new("ATLANTIS", "X"));
    inner.script_task(
        "x",
        "sleep 1\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    let mut outer = jpa.new_job("outer", VsiteAddress::new("FZJ", "T3E"));
    outer.sub_job(inner);
    let (_, outcome, _) = fed
        .submit_and_wait("FZJ", outer.build().unwrap(), DN, 5 * SEC, HOUR)
        .expect("terminates");
    assert!(outcome.status.is_terminal());
    assert!(!outcome.status.is_success());
}

#[test]
fn jpa_uses_protocol_delivered_resource_pages() {
    // The full §4.2 flow: the JPA fetches the Usite's resource pages over
    // the protocol, checks its job against them *before* submission, and
    // the same check rejects an oversized job locally.
    let mut fed = fed();
    let corr = fed.client_request("FZJ", DN, unicore::Request::GetResources);
    fed.run_until(MINUTE);
    let Some(Response::Resources(pages)) = fed.take_client_response(corr) else {
        panic!("no resource pages");
    };
    assert_eq!(pages.len(), 1); // FZJ publishes its T3E
    let jpa = JobPreparationAgent::new(UserAttributes::new(DN, "users"), pages);

    // A job that fits passes the local check and runs.
    let mut ok = jpa.new_job("fits", VsiteAddress::new("FZJ", "T3E"));
    ok.script_task(
        "t",
        "sleep 10\n",
        ResourceRequest::minimal()
            .with_processors(256)
            .with_run_time(600),
    );
    let ajo = ok.build_checked(&jpa).expect("fits the T3E");
    let (_, outcome, _) = fed.submit_and_wait("FZJ", ajo, DN, 5 * SEC, HOUR).unwrap();
    assert!(outcome.status.is_success());

    // An oversized job is rejected by the JPA before any network traffic.
    let mut too_big = jpa.new_job("too big", VsiteAddress::new("FZJ", "T3E"));
    too_big.script_task(
        "t",
        "sleep 10\n",
        ResourceRequest::minimal().with_processors(100_000),
    );
    assert!(matches!(
        too_big.build_checked(&jpa),
        Err(unicore_client::JpaError::ResourceViolation { .. })
    ));
}

#[test]
fn deeply_nested_multi_site_job() {
    // Three levels: FZJ root → RUS group → DWD inner group, with files
    // flowing down both hops.
    let mut fed = fed();
    let jpa = jpa();

    let mut innermost = jpa.new_job("level3@DWD", VsiteAddress::new("DWD", "SX4"));
    innermost.script_task(
        "deep",
        "sleep 5\nproduce deep.out 256\n",
        ResourceRequest::minimal().with_run_time(600),
    );

    let mut middle = jpa.new_job("level2@RUS", VsiteAddress::new("RUS", "VPP"));
    let mid_task = middle.script_task(
        "mid",
        "sleep 5\nproduce mid.out 256\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    let inner_id = middle.sub_job(innermost);
    middle.after(mid_task, inner_id);

    let mut root = jpa.new_job("level1@FZJ", VsiteAddress::new("FZJ", "T3E"));
    let root_task = root.script_task(
        "root",
        "sleep 5\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    let middle_id = root.sub_job(middle);
    root.after(root_task, middle_id);

    let ajo = root.build().unwrap();
    assert_eq!(ajo.depth(), 3);
    let (_, outcome, _) = fed
        .submit_and_wait("FZJ", ajo, DN, 5 * SEC, HOUR)
        .expect("nested job completes");
    assert!(outcome.status.is_success(), "{outcome:?}");
    // The outcome tree mirrors the nesting.
    let OutcomeNode::Job(level2) = outcome.child(middle_id).unwrap() else {
        panic!()
    };
    assert!(level2
        .children
        .iter()
        .any(|(_, n)| matches!(n, OutcomeNode::Job(j) if j.status.is_success())));
}

#[test]
fn concurrent_users_across_all_sites() {
    // Twelve users × one job each, scattered across all six sites through
    // different entry points, all in flight simultaneously.
    let mut fed = Federation::german_deployment(FederationConfig::default());
    let sites = ["FZJ", "RUS", "RUKA", "LRZ", "ZIB", "DWD"];
    let vsites = ["T3E", "VPP", "SP2", "SP2", "T3E", "SX4"];
    let mut corrs = Vec::new();
    for i in 0..12 {
        let dn = format!("C=DE, O=Load, OU=U, CN=load{i}");
        fed.register_user(&dn, &format!("load{i}"));
        let jpa = JobPreparationAgent::new(
            UserAttributes::new(dn.clone(), "users"),
            ResourceDirectory::new(),
        );
        let site = i % 6;
        let mut b = jpa.new_job(
            format!("load-{i}"),
            VsiteAddress::new(sites[site], vsites[site]),
        );
        b.script_task(
            "work",
            format!("sleep {}\n", 30 + i * 7),
            ResourceRequest::minimal().with_run_time(3_600),
        );
        // Enter via a *different* site than the destination (any-server).
        let via = sites[(site + 3) % 6];
        corrs.push((
            fed.client_submit(via, b.build().unwrap(), &dn),
            dn,
            via.to_owned(),
        ));
    }
    fed.run_until(5 * MINUTE);
    let mut jobs = Vec::new();
    for (corr, dn, via) in corrs {
        let Some(Response::Consigned { job }) = fed.take_client_response(corr) else {
            panic!("consign failed for {dn}");
        };
        jobs.push((job, dn, via));
    }
    fed.run_until_idle(2 * HOUR);
    for (job, dn, via) in jobs {
        let outcome = fed
            .server(&via)
            .unwrap()
            .query(job, &dn, DetailLevel::JobOnly)
            .unwrap();
        assert!(outcome.status.is_success(), "{dn} via {via}: {outcome:?}");
    }
}
