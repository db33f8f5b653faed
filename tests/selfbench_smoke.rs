//! Tier-1 smoke test for the simulator self-benchmark: two same-seed
//! `--quick` runs must be deterministic in every simulated quantity
//! (event counts, packet counts, placements), and their JSON artifacts
//! must be byte-identical once the wall-clock-derived fields are
//! normalized away. The artifact must also validate against the
//! checked-in `BENCH.schema.json`, which is what CI uploads and gates
//! on.

use psd::bench::json::{validate, Json};
use psd::bench::selfbench;

fn schema() -> Json {
    Json::parse(include_str!("../BENCH.schema.json")).expect("BENCH.schema.json parses")
}

#[test]
fn quick_selfbench_is_deterministic_and_schema_valid() {
    let a = selfbench::run(true);
    let b = selfbench::run(true);

    // Same seed, same simulated work — down to the last event.
    assert_eq!(
        a.deterministic_signature(),
        b.deterministic_signature(),
        "two same-seed quick runs disagreed on simulated counts"
    );

    // Artifacts agree byte-for-byte once wall-clock fields are zeroed.
    let ja = a.to_json();
    let jb = b.to_json();
    assert_eq!(
        selfbench::normalized_text(&ja),
        selfbench::normalized_text(&jb),
        "normalized artifacts differ between same-seed runs"
    );

    // The artifact CI archives must match the committed schema.
    validate(&ja, &schema()).expect("artifact validates against BENCH.schema.json");

    // Sanity: quick mode still measures both engines and real packets.
    assert!(!a.baseline.is_empty() && !a.wheel.is_empty());
    assert!(a.packet.iter().all(|r| r.packets_rx > 0));
    assert!(
        a.speedup_at(65_536).is_some(),
        "64k row present for the CI gate"
    );
}

#[test]
fn committed_artifact_matches_schema_and_gate_shape() {
    // The committed full-run artifact must stay parseable, schema-valid,
    // and must contain the 64k wheel row the CI regression gate reads.
    let text = include_str!("../BENCH_6.json");
    let artifact = Json::parse(text).expect("BENCH_6.json parses");
    validate(&artifact, &schema()).expect("BENCH_6.json validates");

    let speedup = artifact
        .get("engine")
        .and_then(|e| e.get("speedup"))
        .and_then(Json::as_f64)
        .expect("committed artifact records the engine speedup");
    assert!(
        speedup >= 3.0,
        "committed speedup {speedup:.2}x below the 3x acceptance floor"
    );

    let wheel_64k = artifact
        .get("engine")
        .and_then(|e| e.get("wheel"))
        .and_then(Json::as_arr)
        .map(|rows| {
            rows.iter()
                .any(|r| r.get("timers").and_then(Json::as_f64) == Some(65_536.0))
        })
        .unwrap_or(false);
    assert!(
        wheel_64k,
        "committed artifact has the 64k wheel row CI gates on"
    );
}
