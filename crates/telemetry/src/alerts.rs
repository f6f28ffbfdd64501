//! Deterministic SLO alerting over the merged grid view.
//!
//! A small rules engine evaluated at the aggregation-tree root on a
//! fixed cadence. Every decision — fire, hold, clear — is a pure
//! function of the evaluation clock and the merged snapshot content,
//! with no wall-clock reads and no randomness, so a chaos-seeded replay
//! of the same federation produces a byte-identical alert log
//! ([`AlertEngine::log_der`] pins that in CI).
//!
//! Rules carry `for`/`clear` hysteresis like production alerting
//! systems: a breach must persist for `for_duration` before the alert
//! fires, and the condition must stay healthy for `clear_duration`
//! before it clears, so one noisy evaluation cannot flap an alert.

use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};
use unicore_sim::{SimTime, HOUR, MINUTE};

use crate::metrics::MetricsSnapshot;

/// What a rule measures over the merged grid view. All thresholds and
/// measured values use integer milli-units (value × 1000) so the engine
/// never touches floating point on a decision path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlertKind {
    /// Approximate p99 of a latency histogram exceeds a budget (µs).
    HistogramP99 {
        /// Histogram name in the merged snapshot.
        histogram: String,
        /// Largest acceptable p99, in microseconds.
        budget_us: u64,
    },
    /// A counter's absolute value exceeds a maximum.
    CounterAbove {
        /// Counter name in the merged snapshot.
        counter: String,
        /// Largest acceptable value.
        max: u64,
    },
    /// A counter's growth rate exceeds a per-hour budget. The first
    /// evaluation only seeds the baseline sample and never breaches.
    RatePerHour {
        /// Counter name in the merged snapshot.
        counter: String,
        /// Largest acceptable growth, in milli-increments per hour.
        max_per_hour_milli: u64,
    },
    /// The fraction of grid sites currently unreachable exceeds a
    /// burn-rate ceiling (milli-ratio: 1000 = every site dark).
    UnreachableRatio {
        /// Largest acceptable milli-ratio of unreachable sites.
        max_milli: u64,
    },
}

/// One SLO rule: a measurement, a threshold and fire/clear hysteresis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertRule {
    /// Stable rule name; keys the alert log and the JMC alert view.
    pub name: String,
    /// What the rule measures and its threshold.
    pub kind: AlertKind,
    /// How long the condition must hold before the alert fires.
    pub for_duration: SimTime,
    /// How long the condition must stay healthy before it clears.
    pub clear_duration: SimTime,
}

/// One firing or clearing decision, appended to the engine's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertEvent {
    /// Evaluation clock at which the decision was taken.
    pub at: SimTime,
    /// Rule that fired or cleared.
    pub rule: String,
    /// True for a firing edge, false for a clearing edge.
    pub firing: bool,
    /// Measured value (milli-units) at the decision point.
    pub value_milli: u64,
}

impl DerCodec for AlertEvent {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.u64(self.at);
            w.str(&self.rule);
            w.bool(self.firing);
            w.u64(self.value_milli);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("AlertEvent", |f| {
            Ok(AlertEvent {
                at: f.next_u64()?,
                rule: f.next_string()?,
                firing: f.next_bool()?,
                value_milli: f.next_u64()?,
            })
        })
    }
}

/// A currently-firing alert, as shipped inside a grid view outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveAlert {
    /// Rule name.
    pub rule: String,
    /// Clock at which the alert fired.
    pub since: SimTime,
    /// Measured value (milli-units) at the most recent evaluation.
    pub value_milli: u64,
}

impl DerCodec for ActiveAlert {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.rule);
            w.u64(self.since);
            w.u64(self.value_milli);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("ActiveAlert", |f| {
            Ok(ActiveAlert {
                rule: f.next_string()?,
                since: f.next_u64()?,
                value_milli: f.next_u64()?,
            })
        })
    }
}

/// Per-rule evaluation state: hysteresis clocks plus the previous
/// counter sample for rate rules.
#[derive(Debug, Clone, Default)]
struct RuleState {
    prev_sample: Option<(SimTime, u64)>,
    breach_since: Option<SimTime>,
    healthy_since: Option<SimTime>,
    firing_since: Option<SimTime>,
    last_value_milli: u64,
}

/// The deterministic rules engine. Feed it the merged grid view on a
/// fixed cadence; it returns the firing/clearing edges and keeps the
/// full decision log for replay comparison.
#[derive(Debug, Clone, Default)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    log: Vec<AlertEvent>,
}

impl AlertEngine {
    /// Engine over the given rule set, all alerts initially clear.
    pub fn new(rules: Vec<AlertRule>) -> AlertEngine {
        let states = rules.iter().map(|_| RuleState::default()).collect();
        AlertEngine {
            rules,
            states,
            log: Vec::new(),
        }
    }

    /// The rule set this engine evaluates.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Evaluate every rule against the merged snapshot at `now`.
    /// `unreachable` / `total` describe the grid view's site rows for
    /// the burn-rate rule. Returns the edges decided this round (also
    /// appended to the log).
    pub fn evaluate(
        &mut self,
        now: SimTime,
        merged: &MetricsSnapshot,
        unreachable: usize,
        total: usize,
    ) -> Vec<AlertEvent> {
        let mut edges = Vec::new();
        for (rule, st) in self.rules.iter().zip(self.states.iter_mut()) {
            let (value_milli, breached) = match &rule.kind {
                AlertKind::HistogramP99 {
                    histogram,
                    budget_us,
                } => {
                    let p99 = merged
                        .histogram(histogram)
                        .map(|h| h.approx_quantile(0.99))
                        .unwrap_or(0);
                    (p99.saturating_mul(1000), p99 > *budget_us)
                }
                AlertKind::CounterAbove { counter, max } => {
                    let v = merged.counter(counter);
                    (v.saturating_mul(1000), v > *max)
                }
                AlertKind::RatePerHour {
                    counter,
                    max_per_hour_milli,
                } => {
                    let v = merged.counter(counter);
                    let rate = match st.prev_sample {
                        Some((at, prev)) if now > at => {
                            let grown = v.saturating_sub(prev) as u128;
                            ((grown * 1000 * HOUR as u128) / (now - at) as u128) as u64
                        }
                        _ => 0,
                    };
                    st.prev_sample = Some((now, v));
                    (rate, rate > *max_per_hour_milli)
                }
                AlertKind::UnreachableRatio { max_milli } => {
                    let ratio = if total == 0 {
                        0
                    } else {
                        (unreachable as u64).saturating_mul(1000) / total as u64
                    };
                    (ratio, ratio > *max_milli)
                }
            };
            st.last_value_milli = value_milli;
            if breached {
                st.healthy_since = None;
                let since = *st.breach_since.get_or_insert(now);
                if st.firing_since.is_none() && now.saturating_sub(since) >= rule.for_duration {
                    st.firing_since = Some(now);
                    edges.push(AlertEvent {
                        at: now,
                        rule: rule.name.clone(),
                        firing: true,
                        value_milli,
                    });
                }
            } else {
                st.breach_since = None;
                if st.firing_since.is_some() {
                    let since = *st.healthy_since.get_or_insert(now);
                    if now.saturating_sub(since) >= rule.clear_duration {
                        st.firing_since = None;
                        st.healthy_since = None;
                        edges.push(AlertEvent {
                            at: now,
                            rule: rule.name.clone(),
                            firing: false,
                            value_milli,
                        });
                    }
                }
            }
        }
        self.log.extend(edges.iter().cloned());
        edges
    }

    /// Alerts firing right now, in rule order.
    pub fn active(&self) -> Vec<ActiveAlert> {
        self.rules
            .iter()
            .zip(self.states.iter())
            .filter_map(|(rule, st)| {
                st.firing_since.map(|since| ActiveAlert {
                    rule: rule.name.clone(),
                    since,
                    value_milli: st.last_value_milli,
                })
            })
            .collect()
    }

    /// Every firing/clearing edge decided so far, in decision order.
    pub fn log(&self) -> &[AlertEvent] {
        &self.log
    }

    /// Canonical DER encoding of the full decision log — the byte
    /// string two same-seed replays must agree on exactly.
    pub fn log_der(&self) -> Vec<u8> {
        let mut w = DerWriter::new();
        w.sequence_of(&self.log, |w, e| e.write_der(w));
        w.into_vec()
    }
}

/// The stock SLO rule set the federation installs at the tree root:
/// consign p99 budget, WAL repair count, transfer stall rate, broker
/// quota-denial rate and the site-unreachable burn rate. Thresholds are
/// deliberately generous — a healthy six-site sim never fires — while a
/// partitioned grid trips the burn-rate rule within two evaluations.
pub fn standard_slo_rules() -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "slo.consign.p99".into(),
            kind: AlertKind::HistogramP99 {
                histogram: "njs.job.duration.us".into(),
                budget_us: 12 * HOUR,
            },
            for_duration: MINUTE,
            clear_duration: 2 * MINUTE,
        },
        AlertRule {
            name: "slo.wal.repairs".into(),
            kind: AlertKind::CounterAbove {
                counter: "store.wal.repairs".into(),
                max: 0,
            },
            for_duration: 0,
            clear_duration: 2 * MINUTE,
        },
        AlertRule {
            name: "slo.transfer.stalls".into(),
            kind: AlertKind::RatePerHour {
                counter: "dataplane.transfers.failed".into(),
                max_per_hour_milli: 10_000,
            },
            for_duration: MINUTE,
            clear_duration: 5 * MINUTE,
        },
        AlertRule {
            name: "slo.quota.denials".into(),
            kind: AlertKind::RatePerHour {
                counter: "broker.quota.denied".into(),
                max_per_hour_milli: 60_000,
            },
            for_duration: MINUTE,
            clear_duration: 5 * MINUTE,
        },
        AlertRule {
            name: "slo.sites.unreachable".into(),
            kind: AlertKind::UnreachableRatio { max_milli: 250 },
            for_duration: MINUTE,
            clear_duration: 2 * MINUTE,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_sim::SEC;

    fn counter_rule(max: u64, for_d: SimTime, clear_d: SimTime) -> AlertEngine {
        AlertEngine::new(vec![AlertRule {
            name: "t.counter".into(),
            kind: AlertKind::CounterAbove {
                counter: "c".into(),
                max,
            },
            for_duration: for_d,
            clear_duration: clear_d,
        }])
    }

    fn snap_with_counter(v: u64) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("c".into(), v);
        s
    }

    #[test]
    fn fires_after_for_duration_and_clears_after_clear_duration() {
        let mut e = counter_rule(0, 10 * SEC, 20 * SEC);
        assert!(e.evaluate(0, &snap_with_counter(5), 0, 6).is_empty());
        assert!(e.evaluate(5 * SEC, &snap_with_counter(5), 0, 6).is_empty());
        let edges = e.evaluate(10 * SEC, &snap_with_counter(5), 0, 6);
        assert_eq!(edges.len(), 1);
        assert!(edges[0].firing);
        assert_eq!(e.active().len(), 1);
        assert!(e.evaluate(15 * SEC, &snap_with_counter(0), 0, 6).is_empty());
        assert!(e.evaluate(30 * SEC, &snap_with_counter(0), 0, 6).is_empty());
        let edges = e.evaluate(35 * SEC, &snap_with_counter(0), 0, 6);
        assert_eq!(edges.len(), 1);
        assert!(!edges[0].firing);
        assert!(e.active().is_empty());
        assert_eq!(e.log().len(), 2);
    }

    #[test]
    fn breach_window_resets_on_recovery() {
        let mut e = counter_rule(0, 10 * SEC, SEC);
        assert!(e.evaluate(0, &snap_with_counter(1), 0, 6).is_empty());
        assert!(e.evaluate(5 * SEC, &snap_with_counter(0), 0, 6).is_empty());
        assert!(e.evaluate(6 * SEC, &snap_with_counter(1), 0, 6).is_empty());
        assert!(e.evaluate(15 * SEC, &snap_with_counter(1), 0, 6).is_empty());
        assert_eq!(e.evaluate(16 * SEC, &snap_with_counter(1), 0, 6).len(), 1);
    }

    #[test]
    fn rate_rule_seeds_baseline_then_measures_growth() {
        let mut e = AlertEngine::new(vec![AlertRule {
            name: "t.rate".into(),
            kind: AlertKind::RatePerHour {
                counter: "c".into(),
                max_per_hour_milli: 2_000,
            },
            for_duration: 0,
            clear_duration: 0,
        }]);
        assert!(e.evaluate(0, &snap_with_counter(100), 0, 6).is_empty());
        // +3 over 30 minutes = 6/hour > 2/hour budget.
        let edges = e.evaluate(30 * MINUTE, &snap_with_counter(103), 0, 6);
        assert_eq!(edges.len(), 1);
        assert!(edges[0].firing);
        assert_eq!(edges[0].value_milli, 6_000);
    }

    #[test]
    fn unreachable_ratio_uses_site_rows() {
        let mut e = AlertEngine::new(vec![AlertRule {
            name: "t.burn".into(),
            kind: AlertKind::UnreachableRatio { max_milli: 250 },
            for_duration: 0,
            clear_duration: 0,
        }]);
        assert!(e.evaluate(0, &MetricsSnapshot::default(), 1, 6).is_empty());
        assert_eq!(e.evaluate(SEC, &MetricsSnapshot::default(), 2, 6).len(), 1);
    }

    #[test]
    fn log_der_is_deterministic_for_identical_feeds() {
        let feed = |e: &mut AlertEngine| {
            for t in 0..5u64 {
                e.evaluate(t * SEC, &snap_with_counter(t % 2), 0, 6);
            }
        };
        let mut a = counter_rule(0, 0, 0);
        let mut b = counter_rule(0, 0, 0);
        feed(&mut a);
        feed(&mut b);
        assert!(!a.log().is_empty());
        assert_eq!(a.log_der(), b.log_der());
        let event = &a.log()[0];
        assert_eq!(AlertEvent::from_der(&event.to_der()).unwrap(), *event);
    }

    #[test]
    fn active_alert_round_trips() {
        let a = ActiveAlert {
            rule: "slo.sites.unreachable".into(),
            since: 42 * SEC,
            value_milli: 333,
        };
        assert_eq!(ActiveAlert::from_der(&a.to_der()).unwrap(), a);
    }

    #[test]
    fn standard_rules_stay_quiet_on_a_healthy_snapshot() {
        let mut e = AlertEngine::new(standard_slo_rules());
        let mut s = MetricsSnapshot::default();
        s.counters.insert("njs.consigned".into(), 40);
        for t in 0..10u64 {
            assert!(e.evaluate(t * MINUTE, &s, 0, 6).is_empty());
        }
    }
}
