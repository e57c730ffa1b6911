//! Committed-results regression: the engine hot path (calendar event
//! queue, SoA tables, lazy seeded payload store) is a pure *throughput*
//! rework — every result artifact must stay byte-identical. This
//! regenerates the four gate ids in-process and compares against the
//! bytes committed under `results/`, so any future "optimization" that
//! perturbs simulation order or payload semantics fails here instead of
//! silently shifting the paper's numbers.
//!
//! Three ids are the three configurations of the one day loop — a
//! bare driver (`table2`), a volume (`array-n2`) and the serving front
//! end (`serve-smoke`) — so each is byte-gated, and each must carry the
//! loop's wall-clock phase scopes, and the arranger's policy/move split
//! of the night, in its bench-record row. The fourth, `array-redundant`,
//! is the only committed run that enters the volume's recover side
//! (degraded reads, rebuild, scrub): its rebuild/scrub counters and
//! seek means are pinned to the last bit.
//!
//! If a change is *supposed* to alter results (a model fix, a new
//! metric), regenerate and commit `results/` in the same PR; this test
//! then certifies the new canon.

use abr_bench::engine::RunBatch;
use std::path::PathBuf;

fn committed(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed result {} unreadable: {e}", path.display()))
}

#[test]
fn each_day_loop_configuration_matches_committed_results() {
    let batch = RunBatch::new(&["table2", "array-n2", "serve-smoke", "array-redundant"], 1)
        .unwrap()
        .execute();
    for outcome in &batch.outcomes {
        let report = outcome
            .report
            .as_ref()
            .unwrap_or_else(|e| panic!("{} failed: {e}", outcome.spec.id));
        let id = outcome.spec.id.as_str();
        // Report::save writes `pretty()` plus no trailing newline for
        // JSON and the raw text body for TXT; compare the same bytes.
        assert_eq!(
            report.json.pretty(),
            committed(&format!("{id}.json")),
            "{id}.json drifted from the committed bytes"
        );
        assert_eq!(
            report.text,
            committed(&format!("{id}.txt")),
            "{id}.txt drifted from the committed bytes"
        );
        for scope in [
            "wall.setup.ns",
            "wall.event_loop.ns",
            "wall.day_end.ns",
            "wall.placement.policy.ns",
            "wall.placement.move.ns",
        ] {
            assert!(
                outcome.metrics["counters"][scope].as_u64().is_some(),
                "{id}: bench-record row lacks {scope}"
            );
        }
    }
}
