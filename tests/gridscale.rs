//! E16/E17 at grid scale: a 100-Usite synthetic deployment running the
//! hierarchical aggregation plane. One query returns the complete view
//! in O(log n) hops; steady-state heartbeats ship small deltas, not full
//! snapshots; a partitioned interior site degrades its subtree to marked
//! stale rows instead of stalling or shrinking the view; and a
//! crash-restarted site resyncs with one full snapshot and rejoins.

use unicore::protocol::grid_view_of;
use unicore::{Federation, FederationConfig};
use unicore_ajo::{GridView, SiteHealth};
use unicore_sim::{MINUTE, SEC};

const DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=gridscale";
const N: usize = 100;

fn grid(seed: u64) -> Federation {
    let mut fed = Federation::grid_deployment(
        FederationConfig {
            seed,
            ..FederationConfig::default()
        },
        N,
    );
    fed.enable_telemetry(seed);
    fed.register_user(DN, "op");
    fed
}

fn grid_view(fed: &mut Federation, usite: &str) -> GridView {
    let corr = fed.client_monitor(usite, DN, true);
    let deadline = fed.now() + 10 * MINUTE;
    loop {
        fed.run_until(fed.now() + 5 * SEC);
        if let Some(resp) = fed.take_client_response(corr) {
            return grid_view_of(&resp)
                .unwrap_or_else(|| panic!("expected a grid view, got {resp:?}"))
                .clone();
        }
        assert!(fed.now() < deadline, "no grid view from {usite}");
    }
}

#[test]
fn hundred_sites_converge_to_a_complete_live_view_in_log_hops() {
    let mut fed = grid(0xE16);
    assert_eq!(fed.grid_tree().sites().len(), N);
    let depth = fed.grid_tree().depth();
    assert!(
        depth <= 4,
        "100 sites at fanout 4 must stay shallow: {depth}"
    );

    // Let rows propagate leaf → root: depth × the push interval plus slack.
    fed.run_until(6 * MINUTE);

    // Query at the *deepest* site: the answer climbs to the root and
    // must cost O(log n) relay hops, not a fan-out.
    let deepest = fed.grid_tree().sites().last().unwrap().clone();
    let hops_before = fed.grid_query_hops;
    let view = grid_view(&mut fed, &deepest);
    let hops = fed.grid_query_hops - hops_before;
    assert!(
        hops as usize <= depth,
        "one query cost {hops} hops (depth {depth})"
    );

    assert_eq!(view.sites.len(), N, "view must cover every Usite");
    assert_eq!(view.unreachable_count(), 0);
    for row in &view.sites {
        assert!(
            matches!(row.health, SiteHealth::Live),
            "{} not live after convergence: {:?}",
            row.usite,
            row.health
        );
    }
    // The merged snapshot folded every site's registry overlay.
    assert!(view.merged.counters.contains_key("njs.consigned"));
    assert!(view.merged.counters.contains_key("gateway.audit.dropped"));
}

#[test]
fn steady_state_heartbeats_ship_deltas_not_full_snapshots() {
    let mut fed = grid(0xDE17A);
    fed.run_until(6 * MINUTE);

    let full0 = fed.grid_push_bytes_full;
    let delta0 = fed.grid_push_bytes_delta;
    assert!(full0 > 0, "initial round must resync with full snapshots");

    // Ten idle minutes: every non-root site heartbeats ~20 more times.
    fed.run_until(fed.now() + 10 * MINUTE);
    let full_window = fed.grid_push_bytes_full - full0;
    let delta_window = fed.grid_push_bytes_delta - delta0;
    let rounds = 20u64;

    // No site should need another full resync on a healthy grid…
    let avg_full = full0 / (N as u64 - 1);
    assert!(
        full_window <= 2 * avg_full,
        "unexpected resyncs in steady state: {full_window} full bytes"
    );
    // …and the delta traffic must stay ≤20% of what shipping full
    // snapshots every round would have cost.
    assert!(
        delta_window <= full0 * rounds / 5,
        "delta window {delta_window} vs full-rate budget {}",
        full0 * rounds / 5
    );
}

#[test]
fn partitioned_interior_site_degrades_its_subtree_to_stale_rows() {
    let mut fed = grid(0xE16);
    fed.run_until(6 * MINUTE);

    // Cut off an interior node (a direct child of the root): its whole
    // subtree stops reaching the root.
    let victim = fed.grid_tree().sites()[1].clone();
    let subtree: Vec<String> = fed
        .grid_tree()
        .subtree(&victim)
        .into_iter()
        .map(str::to_owned)
        .collect();
    assert!(subtree.len() > 1, "victim must be interior");
    fed.set_partitioned(&victim, true);
    fed.run_until(fed.now() + 3 * MINUTE);

    let root = fed.grid_tree().root().to_owned();
    let view = grid_view(&mut fed, &root);
    assert_eq!(
        view.sites.len(),
        N,
        "the dark subtree must not shrink the view"
    );
    assert!(
        view.site(&victim).unwrap().health.is_unreachable(),
        "partitioned site must be flagged"
    );
    for name in &subtree {
        if name == &victim {
            continue;
        }
        let row = view.site(name).unwrap();
        assert!(
            matches!(row.health, SiteHealth::Stale),
            "{name} behind the partition should be stale: {:?}",
            row.health
        );
        // The stale row keeps its last known content rather than
        // blanking out.
        assert!(row.epoch > 0, "{name} lost its cached row");
    }
    let live = view
        .sites
        .iter()
        .filter(|r| matches!(r.health, SiteHealth::Live))
        .count();
    assert_eq!(live, N - subtree.len(), "everyone else stays live");
}

#[test]
fn crash_restarted_leaf_resyncs_with_one_full_snapshot_and_rejoins() {
    let mut fed = grid(0xC4A5);
    fed.attach_stores();
    fed.run_until(6 * MINUTE);

    let leaf = fed.grid_tree().sites().last().unwrap().clone();
    fed.crash_site(&leaf);
    fed.run_until(fed.now() + 2 * MINUTE);
    let full_before = fed.grid_push_bytes_full;
    fed.restart_site(&leaf);
    fed.run_until(fed.now() + 3 * MINUTE);

    // The reborn node lost its uplink state, so its first heartbeat is
    // a full resync…
    assert!(
        fed.grid_push_bytes_full > full_before,
        "restart must force a full resync"
    );
    // …after which the row is live again at the root.
    let root = fed.grid_tree().root().to_owned();
    let view = grid_view(&mut fed, &root);
    let row = view.site(&leaf).unwrap();
    assert!(
        matches!(row.health, SiteHealth::Live),
        "restarted leaf should rejoin live: {:?}",
        row.health
    );
}
