//! The JMC's grid monitoring view (§ E12 / E17).
//!
//! A grid-wide `Monitor` query climbs the aggregation tree and comes
//! back as one pre-merged [`GridView`]. This module renders it the way
//! the applet's monitoring panel would — a namespaced tree of Vsite
//! health gauges and headline counters, with UNREACHABLE/STALE banners
//! and firing SLO alerts — plus the flight-recorder trace a failed task
//! carries home in its `Outcome`.

use unicore_ajo::{GridView, SiteHealth, TaskOutcome, UnreachableReason};

/// One rendered row of the grid monitor panel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MonitorRow {
    /// Nesting depth (0 = a Usite header).
    pub depth: usize,
    /// Row text.
    pub text: String,
}

/// Headline counters the panel surfaces by name when present — the
/// shared AJO-layer list, so the JMC and the aggregation plane's
/// [`SiteStatus`](unicore_ajo::SiteStatus) rows always agree on what an
/// operator scans first. Everything else stays available under the full
/// snapshot.
use unicore_ajo::HEADLINE_COUNTERS;

fn indent(rows: Vec<MonitorRow>) -> String {
    let mut out = String::new();
    for row in rows {
        for _ in 0..row.depth {
            out.push_str("  ");
        }
        out.push_str(&row.text);
        out.push('\n');
    }
    out
}

fn unreachable_banner(reason: &UnreachableReason) -> &'static str {
    match reason {
        UnreachableReason::Crash => "UNREACHABLE (server crashed)",
        UnreachableReason::Partition => "UNREACHABLE (network partition)",
        UnreachableReason::Quarantine => "UNREACHABLE (quarantined by the federation)",
    }
}

/// Builds the rows of an aggregated [`GridView`] (E17): a summary
/// header, one block per Usite with health banners, Vsite gauges and
/// headline counters, then the grid-merged totals and any firing SLO
/// alerts.
pub(crate) fn grid_rows(view: &GridView) -> Vec<MonitorRow> {
    let mut rows = vec![MonitorRow {
        depth: 0,
        text: format!(
            "grid view from {} at t={:.0}s — {} sites, {} unreachable",
            view.root,
            view.at as f64 / 1e6,
            view.sites.len(),
            view.unreachable_count()
        ),
    }];
    for site in &view.sites {
        rows.push(MonitorRow {
            depth: 0,
            text: format!("Usite {}", site.usite),
        });
        match &site.health {
            SiteHealth::Unreachable(reason) => {
                rows.push(MonitorRow {
                    depth: 1,
                    text: unreachable_banner(reason).to_owned(),
                });
                continue;
            }
            SiteHealth::Stale => {
                rows.push(MonitorRow {
                    depth: 1,
                    text: format!(
                        "STALE (last heard t={:.0}s, epoch {})",
                        site.updated_at as f64 / 1e6,
                        site.epoch
                    ),
                });
            }
            SiteHealth::Live => {}
        }
        for v in &site.vsites {
            rows.push(MonitorRow {
                depth: 1,
                text: format!(
                    "vsite {}: {} free, {} queued, {} running, {} stuck",
                    v.vsite, v.free_nodes, v.queue_length, v.running, v.stuck_jobs
                ),
            });
        }
        for (name, value) in &site.headline {
            rows.push(MonitorRow {
                depth: 1,
                text: format!("{name} = {value}"),
            });
        }
    }
    rows.push(MonitorRow {
        depth: 0,
        text: "grid totals".to_owned(),
    });
    for name in HEADLINE_COUNTERS {
        if let Some(v) = view.merged.counters.get(name) {
            rows.push(MonitorRow {
                depth: 1,
                text: format!("{name} = {v}"),
            });
        }
    }
    for alert in &view.alerts {
        rows.push(MonitorRow {
            depth: 1,
            text: format!(
                "ALERT {} firing since t={:.0}s (value {})",
                alert.rule,
                alert.since as f64 / 1e6,
                alert.value_milli
            ),
        });
    }
    rows
}

/// Renders an aggregated grid view as an indented text panel.
pub fn render_grid(view: &GridView) -> String {
    indent(grid_rows(view))
}

/// Renders the flight-recorder trace a failed task carried home — the
/// "last 32 things the NJS did to this job" view the JMC shows next to a
/// red icon. Empty when the task succeeded (traces ride only on failed
/// Outcomes) or when the site ran with the recorder disabled.
pub fn render_flight(name: &str, outcome: &TaskOutcome) -> String {
    if outcome.flight.is_empty() {
        return String::new();
    }
    let mut out = format!("flight trace for {name}:\n");
    for ev in &outcome.flight {
        out.push_str(&format!(
            "  [t={:>10.3}s] {:<18} {}\n",
            ev.at as f64 / 1e6,
            ev.what,
            ev.detail
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_ajo::{SiteStatus, VsiteHealth};
    use unicore_telemetry::{FlightEvent, MetricsSnapshot};

    fn site(usite: &str, health: SiteHealth) -> SiteStatus {
        SiteStatus {
            usite: usite.into(),
            epoch: 1,
            updated_at: 0,
            health,
            vsites: vec![VsiteHealth {
                vsite: "T3E".into(),
                free_nodes: 12,
                queue_length: 3,
                running: 2,
                stuck_jobs: 1,
            }],
            headline: vec![("njs.consigned".into(), 4)],
        }
    }

    fn view(sites: Vec<SiteStatus>) -> GridView {
        let mut merged = MetricsSnapshot::default();
        merged.counters.insert("njs.consigned".into(), 8);
        merged.counters.insert("obscure.counter".into(), 9);
        GridView {
            root: "FZJ".into(),
            at: 0,
            sites,
            merged,
            alerts: vec![],
        }
    }

    #[test]
    fn grid_view_is_namespaced_per_site() {
        let text = render_grid(&view(vec![
            site("FZJ", SiteHealth::Live),
            site("RUS", SiteHealth::Live),
        ]));
        assert!(text.contains("Usite FZJ"));
        assert!(text.contains("Usite RUS"));
        assert!(text.contains("vsite T3E: 12 free, 3 queued, 2 running, 1 stuck"));
        assert!(text.contains("njs.consigned = 4"));
        assert!(text.contains("njs.consigned = 8"));
        // Non-headline counters stay out of the panel.
        assert!(!text.contains("obscure.counter"));
    }

    #[test]
    fn dead_site_renders_unreachable_banner() {
        let text = render_grid(&view(vec![
            site("FZJ", SiteHealth::Live),
            site(
                "RUS",
                SiteHealth::Unreachable(UnreachableReason::Quarantine),
            ),
        ]));
        assert!(text.contains("Usite RUS"));
        assert!(text.contains("UNREACHABLE (quarantined by the federation)"));
        // The live site renders normally alongside the dead one, whose
        // last-known gauges are not shown.
        assert_eq!(text.matches("vsite T3E").count(), 1);
    }

    #[test]
    fn dead_site_banner_explains_why() {
        let text = render_grid(&view(vec![
            site("ZIB", SiteHealth::Unreachable(UnreachableReason::Crash)),
            site("LRZ", SiteHealth::Unreachable(UnreachableReason::Partition)),
            site(
                "RUS",
                SiteHealth::Unreachable(UnreachableReason::Quarantine),
            ),
        ]));
        assert!(text.contains("UNREACHABLE (server crashed)"));
        assert!(text.contains("UNREACHABLE (network partition)"));
        assert!(text.contains("UNREACHABLE (quarantined by the federation)"));
    }

    #[test]
    fn flight_rendering() {
        let mut t = TaskOutcome::failure("boom");
        assert_eq!(render_flight("step", &t), "");
        t.flight = vec![
            FlightEvent {
                at: 1_500_000,
                what: "njs.consign".into(),
                detail: "job 7".into(),
            },
            FlightEvent {
                at: 3_000_000,
                what: "batch.exit".into(),
                detail: "exit 3".into(),
            },
        ];
        let text = render_flight("step", &t);
        assert!(text.starts_with("flight trace for step:"));
        assert!(text.contains("njs.consign"));
        assert!(text.contains("1.500s"));
        assert!(text.contains("batch.exit"));
    }
}
