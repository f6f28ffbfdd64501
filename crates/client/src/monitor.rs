//! The JMC's grid monitoring view (§ E12 / E17).
//!
//! A `Monitor { grid: false }` query returns one [`MonitorReport`] for
//! the entry Usite; a grid-wide query climbs the aggregation tree and
//! comes back as one pre-merged [`GridView`]. This module renders both
//! the way the applet's monitoring panel would — a namespaced tree of
//! Vsite health gauges, headline counters, and span timings, with
//! UNREACHABLE/STALE banners and firing SLO alerts — plus the
//! flight-recorder trace a failed task carries home in its `Outcome`.

use unicore_ajo::{GridView, MonitorReport, SiteHealth, TaskOutcome, UnreachableReason};

/// One rendered row of the grid monitor panel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorRow {
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

/// Builds the namespaced grid view: one block per Usite (already sorted
/// by the federation), Vsite health first, then headline counters, then
/// the busiest spans.
pub fn monitor_rows(sites: &[MonitorReport]) -> Vec<MonitorRow> {
    let mut rows = Vec::new();
    for site in sites {
        rows.push(MonitorRow {
            depth: 0,
            text: format!("Usite {}", site.usite),
        });
        // An unreachable peer arrives as a tombstone row: no Vsites, no
        // real metrics, just the federation's dead-site flag plus a
        // reason counter. Surface it as the red UNREACHABLE banner with
        // *why* — a crashed server, a network partition, or circuit-
        // breaker quarantine — instead of an empty block. Reports from
        // older federations carry only the bare flag; those keep the
        // quarantine wording they always had.
        if site.metrics.counter("federation.site.dead") > 0 {
            let why = if site.metrics.counter("federation.site.dead.crash") > 0 {
                "server crashed"
            } else if site.metrics.counter("federation.site.dead.partition") > 0 {
                "network partition"
            } else {
                "quarantined by the federation"
            };
            rows.push(MonitorRow {
                depth: 1,
                text: format!("UNREACHABLE ({why})"),
            });
            continue;
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
        for name in HEADLINE_COUNTERS {
            if let Some(v) = site.metrics.counters.get(name) {
                rows.push(MonitorRow {
                    depth: 1,
                    text: format!("{name} = {v}"),
                });
            }
        }
        let mut spans: Vec<_> = site.spans.iter().collect();
        spans.sort_by_key(|s| std::cmp::Reverse(s.clock_total));
        for s in spans.iter().take(5) {
            rows.push(MonitorRow {
                depth: 1,
                text: format!(
                    "span {} ×{} ({:.3}s total)",
                    s.name,
                    s.count,
                    s.clock_total as f64 / 1e6
                ),
            });
        }
    }
    rows
}

/// Renders the grid view as an indented text panel.
pub fn render_monitor(sites: &[MonitorReport]) -> String {
    indent(monitor_rows(sites))
}

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
pub fn grid_rows(view: &GridView) -> Vec<MonitorRow> {
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
    use unicore_ajo::VsiteHealth;
    use unicore_telemetry::{FlightEvent, MetricsSnapshot, SpanSummary};

    fn report(usite: &str) -> MonitorReport {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("njs.consigned".into(), 4);
        metrics.counters.insert("gateway.audit.dropped".into(), 1);
        metrics.counters.insert("obscure.counter".into(), 9);
        MonitorReport {
            usite: usite.into(),
            metrics,
            spans: vec![
                SpanSummary {
                    name: "njs.dispatch".into(),
                    count: 4,
                    clock_total: 2_000_000,
                    wall_ns_total: 10,
                },
                SpanSummary {
                    name: "gw.authenticate".into(),
                    count: 9,
                    clock_total: 500_000,
                    wall_ns_total: 5,
                },
            ],
            vsites: vec![VsiteHealth {
                vsite: "T3E".into(),
                free_nodes: 12,
                queue_length: 3,
                running: 2,
                stuck_jobs: 1,
            }],
            epoch: None,
        }
    }

    #[test]
    fn grid_view_is_namespaced_per_site() {
        let text = render_monitor(&[report("FZJ"), report("RUS")]);
        assert!(text.contains("Usite FZJ"));
        assert!(text.contains("Usite RUS"));
        assert!(text.contains("vsite T3E: 12 free, 3 queued, 2 running, 1 stuck"));
        assert!(text.contains("njs.consigned = 4"));
        assert!(text.contains("gateway.audit.dropped = 1"));
        // Non-headline counters stay out of the panel.
        assert!(!text.contains("obscure.counter"));
    }

    fn tombstone(usite: &str, reason: Option<&str>) -> MonitorReport {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("federation.site.dead".into(), 1);
        if let Some(r) = reason {
            metrics
                .counters
                .insert(format!("federation.site.dead.{r}"), 1);
        }
        MonitorReport {
            usite: usite.into(),
            metrics,
            spans: vec![],
            vsites: vec![],
            epoch: None,
        }
    }

    #[test]
    fn dead_site_renders_unreachable_banner() {
        let text = render_monitor(&[report("FZJ"), tombstone("RUS", None)]);
        assert!(text.contains("Usite RUS"));
        // Bare flag (no reason counter) keeps the historical wording.
        assert!(text.contains("UNREACHABLE (quarantined by the federation)"));
        // The live site renders normally alongside the tombstone.
        assert!(text.contains("vsite T3E"));
    }

    #[test]
    fn dead_site_banner_explains_why() {
        let text = render_monitor(&[
            tombstone("ZIB", Some("crash")),
            tombstone("LRZ", Some("partition")),
            tombstone("RUS", Some("quarantine")),
        ]);
        assert!(text.contains("UNREACHABLE (server crashed)"));
        assert!(text.contains("UNREACHABLE (network partition)"));
        assert!(text.contains("UNREACHABLE (quarantined by the federation)"));
    }

    #[test]
    fn spans_sorted_by_total_time() {
        let rows = monitor_rows(&[report("FZJ")]);
        let spans: Vec<&MonitorRow> = rows
            .iter()
            .filter(|r| r.text.starts_with("span "))
            .collect();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].text.contains("njs.dispatch"));
        assert!(spans[0].text.contains("2.000s total"));
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
