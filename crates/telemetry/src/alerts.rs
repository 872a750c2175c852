//! Threshold alerting over the metric registry.
//!
//! The paper's future work commits to "enhance monitoring for deeper
//! insights" and to operational hardening (§7); the deployment section
//! describes administrators watching queue depth, hot-node counts and error
//! rates. This module provides the minimal alerting layer those workflows
//! need: declarative threshold rules evaluated against gauge/counter series,
//! with a `for`-duration so transient spikes do not page anyone.

use crate::metric::{LabelSet, MetricId};
use crate::registry::MetricRegistry;
use first_desim::{SimDuration, SimTime};

/// How urgent a fired alert is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertSeverity {
    /// Informational — shown on the dashboard only.
    Info,
    /// Warning — investigate during working hours.
    Warning,
    /// Critical — page the on-call administrator.
    Critical,
}

/// A declarative alert rule over one gauge or counter series.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name, e.g. `queue_backlog_high`.
    pub(crate) name: String,
    /// The series the rule watches: a metric family and a label set.
    series: MetricId,
    /// The rule fires while the value is strictly above this threshold.
    pub(crate) threshold: f64,
    /// The condition must hold continuously for this long before firing.
    pub(crate) hold_for: SimDuration,
    /// Severity attached to the fired alert.
    pub(crate) severity: AlertSeverity,
}

impl AlertRule {
    /// Convenience constructor for a "value above threshold" rule.
    pub fn above(
        name: impl Into<String>,
        metric: impl Into<String>,
        labels: LabelSet,
        threshold: f64,
        hold_for: SimDuration,
        severity: AlertSeverity,
    ) -> Self {
        AlertRule {
            name: name.into(),
            series: MetricId::new(metric, labels),
            threshold,
            hold_for,
            severity,
        }
    }

    fn condition_holds(&self, value: f64) -> bool {
        value > self.threshold
    }
}

/// The lifecycle state of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AlertState {
    /// Condition not met.
    Ok,
    /// Condition met but not yet for `hold_for`.
    Pending,
    /// Condition has held for at least `hold_for`.
    Firing,
}

/// A fired alert, as delivered to the operator.
#[derive(Debug, Clone, PartialEq)]
pub struct FiredAlert {
    /// Rule name.
    pub rule: String,
    /// Severity.
    pub severity: AlertSeverity,
    /// Value observed when the alert fired.
    pub value: f64,
    /// Virtual time at which the alert fired.
    pub fired_at: SimTime,
}

#[derive(Debug, Clone)]
struct RuleRuntime {
    rule: AlertRule,
    state: AlertState,
    pending_since: Option<SimTime>,
}

/// Evaluates a set of alert rules against a registry as virtual time advances.
#[derive(Debug, Clone, Default)]
pub struct Alerting {
    rules: Vec<RuleRuntime>,
}

impl Alerting {
    /// An evaluator with no rules.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule.
    pub fn add_rule(&mut self, rule: AlertRule) {
        self.rules.push(RuleRuntime {
            rule,
            state: AlertState::Ok,
            pending_since: None,
        });
    }

    /// Number of configured rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Evaluate every rule against the registry at virtual time `now`.
    /// Returns the alerts that transitioned to firing during this evaluation.
    pub fn evaluate(&mut self, registry: &MetricRegistry, now: SimTime) -> Vec<FiredAlert> {
        let mut newly_fired = Vec::new();
        for runtime in &mut self.rules {
            // A missing series is "no data" rather than zero, so a
            // not-yet-created metric does not spuriously fire.
            let value = match registry.value(&runtime.rule.series) {
                Some(v) => v,
                None => {
                    runtime.state = AlertState::Ok;
                    runtime.pending_since = None;
                    continue;
                }
            };
            if runtime.rule.condition_holds(value) {
                let since = *runtime.pending_since.get_or_insert(now);
                let held = now.saturating_since(since);
                if held >= runtime.rule.hold_for {
                    if runtime.state != AlertState::Firing {
                        let alert = FiredAlert {
                            rule: runtime.rule.name.clone(),
                            severity: runtime.rule.severity,
                            value,
                            fired_at: now,
                        };
                        newly_fired.push(alert);
                    }
                    runtime.state = AlertState::Firing;
                } else {
                    runtime.state = AlertState::Pending;
                }
            } else {
                runtime.state = AlertState::Ok;
                runtime.pending_since = None;
            }
        }
        newly_fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Alerting {
        /// The current state of a rule by name.
        fn state(&self, rule: &str) -> Option<AlertState> {
            self.rules
                .iter()
                .find(|r| r.rule.name == rule)
                .map(|r| r.state)
        }
    }

    fn queue_rule(hold_secs: u64) -> AlertRule {
        AlertRule::above(
            "queue_backlog_high",
            "first_queued_tasks",
            LabelSet::single("endpoint", "sophia-endpoint"),
            1000.0,
            SimDuration::from_secs(hold_secs),
            AlertSeverity::Warning,
        )
    }

    #[test]
    fn alert_fires_only_after_the_hold_duration() {
        let mut reg = MetricRegistry::new();
        let labels = LabelSet::single("endpoint", "sophia-endpoint");
        let mut alerting = Alerting::new();
        alerting.add_rule(queue_rule(60));

        // Series absent: no data, no alert.
        assert!(alerting.evaluate(&reg, SimTime::ZERO).is_empty());
        assert_eq!(alerting.state("queue_backlog_high"), Some(AlertState::Ok));
        reg.set_gauge("first_queued_tasks", labels.clone(), 5000.0);
        assert!(alerting.evaluate(&reg, SimTime::from_secs(0)).is_empty());
        assert_eq!(
            alerting.state("queue_backlog_high"),
            Some(AlertState::Pending)
        );
        assert!(alerting.evaluate(&reg, SimTime::from_secs(30)).is_empty());
        let fired = alerting.evaluate(&reg, SimTime::from_secs(61));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "queue_backlog_high");
        assert_eq!(fired[0].severity, AlertSeverity::Warning);
        assert_eq!(
            alerting.state("queue_backlog_high"),
            Some(AlertState::Firing)
        );
        // Already firing: no duplicate notification.
        assert!(alerting.evaluate(&reg, SimTime::from_secs(120)).is_empty());
    }

    #[test]
    fn alert_resets_when_the_condition_clears() {
        let mut reg = MetricRegistry::new();
        let labels = LabelSet::single("endpoint", "sophia-endpoint");
        let mut alerting = Alerting::new();
        alerting.add_rule(queue_rule(60));

        reg.set_gauge("first_queued_tasks", labels.clone(), 5000.0);
        alerting.evaluate(&reg, SimTime::from_secs(0));
        // Backlog drains before the hold duration elapses.
        reg.set_gauge("first_queued_tasks", labels.clone(), 10.0);
        alerting.evaluate(&reg, SimTime::from_secs(30));
        assert_eq!(alerting.state("queue_backlog_high"), Some(AlertState::Ok));
        // It spikes again: the hold timer restarts.
        reg.set_gauge("first_queued_tasks", labels, 5000.0);
        assert!(alerting.evaluate(&reg, SimTime::from_secs(40)).is_empty());
        assert!(alerting.evaluate(&reg, SimTime::from_secs(70)).is_empty());
        assert_eq!(alerting.evaluate(&reg, SimTime::from_secs(101)).len(), 1);
    }

    #[test]
    fn severity_ordering_supports_triage() {
        assert!(AlertSeverity::Critical > AlertSeverity::Warning);
        assert!(AlertSeverity::Warning > AlertSeverity::Info);
    }
}
