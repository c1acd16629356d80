//! Run reports: throughput, latency and criteria, renderable as text
//! rows or JSON (for tooling).

use crate::audit::CriteriaReport;
use om_common::config::{RunConfig, TransactionKind};
use om_common::stats::LatencySummary;
use om_marketplace::api::RecoveryOutcome;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Everything measured in one benchmark run of one platform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    pub platform: String,
    /// Label of the storage backend the platform ran over
    /// (`"native"` for platforms without a pluggable backend).
    pub backend: String,
    /// What a process crash would do to the platform's state: `"disk"`
    /// (file-durable backend — survives), `"memory"` (backend-held but
    /// memory-only) or `"ephemeral"` (runtime-native state). Part of
    /// [`cell_label`](Self::cell_label) so rows that differ only in
    /// durable-store flavour stay distinct.
    pub durability: String,
    pub config: RunConfig,
    /// Completed operations in the measured window.
    pub operations: u64,
    /// Operations that returned an error (after platform-side retries).
    pub failed_operations: u64,
    pub window_secs: f64,
    pub throughput_per_sec: f64,
    /// Latency percentiles per transaction kind.
    pub latency: BTreeMap<String, LatencySummary>,
    /// Platform diagnostic counters.
    pub counters: BTreeMap<String, u64>,
    /// The criteria audit.
    pub criteria: CriteriaReport,
    /// Outcome of the post-run crash-recovery drill, when
    /// `RunConfig::recovery_drill` was set and the platform supports an
    /// injectable crash (the dataflow binding). Under
    /// `RunConfig::chaos_drill` this is the *mid-window* drill outcome.
    pub recovery: Option<RecoveryOutcome>,
}

impl RunReport {
    /// Latency summary of one transaction kind, if it ran.
    pub fn latency_of(&self, kind: TransactionKind) -> Option<&LatencySummary> {
        self.latency.get(kind.label())
    }

    /// `platform+backend+durability`, the matrix-cell id of this run —
    /// e.g. `statefun+file_durable+disk` vs `statefun+eventual_kv+memory`,
    /// so rows that differ only in durable-store flavour stay
    /// unambiguous.
    pub fn cell_label(&self) -> String {
        format!("{}+{}+{}", self.platform, self.backend, self.durability)
    }

    /// One text row: cell, throughput, and the operations behind it.
    pub fn throughput_row(&self) -> String {
        format!(
            "{:<42} {:>10.0} ops/s  ({} ops in {:.2}s, {} failed)",
            self.cell_label(),
            self.throughput_per_sec,
            self.operations,
            self.window_secs,
            self.failed_operations
        )
    }

    /// One text row of the criteria matrix (paper §II).
    pub fn criteria_row(&self) -> String {
        let c = &self.criteria;
        format!(
            "{:<22} atomicity={}({}) integrity={}({}) replication={}({}) dashboard={}({}) ordering={}({})",
            self.platform,
            c.atomicity.symbol(),
            c.atomicity_violations,
            c.integrity.symbol(),
            c.integrity_violations,
            c.replication.symbol(),
            c.replication_violations,
            c.dashboard.symbol(),
            c.torn_dashboards,
            c.ordering.symbol(),
            c.ordering_violations,
        )
    }

    /// One text row for the recovery table (empty when no drill ran).
    pub fn recovery_row(&self) -> String {
        match &self.recovery {
            Some(r) => format!(
                "{:<42} store={} recovered_epoch={} final_epoch={} recovery={}us replayed={}",
                self.cell_label(),
                r.store,
                r.recovered_epoch,
                r.final_epoch,
                r.recovery_us,
                r.replayed_ingress,
            ),
            None => format!("{:<42} (no recovery drill)", self.cell_label()),
        }
    }

    /// Machine-readable JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{CriteriaReport, CriterionVerdict};

    fn report() -> RunReport {
        let verdict = CriterionVerdict::Satisfied;
        RunReport {
            platform: "test".into(),
            backend: "eventual_kv".into(),
            durability: "memory".into(),
            config: RunConfig::smoke(),
            operations: 100,
            failed_operations: 1,
            window_secs: 2.0,
            throughput_per_sec: 50.0,
            latency: BTreeMap::new(),
            counters: BTreeMap::new(),
            criteria: CriteriaReport {
                atomicity_violations: 0,
                atomicity: verdict,
                integrity_violations: 0,
                integrity: verdict,
                replication_violations: 0,
                replication: verdict,
                torn_dashboards: 0,
                dashboard: verdict,
                ordering_violations: 0,
                ordering: verdict,
                conservation_violations: 0,
            },
            recovery: None,
        }
    }

    #[test]
    fn rows_render() {
        let r = report();
        assert!(r.throughput_row().contains("50"));
        assert!(r.throughput_row().contains("test+eventual_kv+memory"));
        assert!(r.criteria_row().contains("atomicity=yes"));
        assert_eq!(r.cell_label(), "test+eventual_kv+memory");
    }

    #[test]
    fn recovery_row_renders_the_drill_outcome() {
        let mut r = report();
        r.recovery = Some(RecoveryOutcome {
            store: "file_durable".into(),
            recovered_epoch: 7,
            final_epoch: 9,
            recovery_us: 1_234,
            replayed_ingress: 16,
        });
        let row = r.recovery_row();
        assert!(row.starts_with("test+eventual_kv+memory"), "{row}");
        for field in [
            "store=file_durable",
            "recovered_epoch=7",
            "final_epoch=9",
            "recovery=1234us",
            "replayed=16",
        ] {
            assert!(row.contains(field), "{field} missing from {row}");
        }
    }

    #[test]
    fn latency_of_reads_the_kind_by_label() {
        let mut r = report();
        let mut hist = om_common::stats::Histogram::new();
        hist.record(250);
        r.latency.insert("checkout".into(), hist.summary());
        assert_eq!(r.latency_of(TransactionKind::Checkout).unwrap().count, 1);
        assert!(r.latency_of(TransactionKind::SellerDashboard).is_none());
    }

    #[test]
    fn json_roundtrip() {
        let r = report();
        let s = r.to_json();
        let back: RunReport = serde_json::from_str(&s).unwrap();
        assert_eq!(back.operations, 100);
        assert!(back.criteria.all_satisfied());
    }
}
