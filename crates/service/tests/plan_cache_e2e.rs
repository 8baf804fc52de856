//! The cross-instance plan-cache test, alone in its own test binary.
//!
//! The layout and move-plan caches are process-wide. In a test binary
//! shared with other serving tests, their compiles could evict this
//! test's TFIM plans between its cold and warm compiles, and the warm
//! compile would then miss. Here no sibling test shares the process.

use parallax_service::{start, Json, ServerConfig, ServiceClient, SubmitRequest, SubmitSource};

fn submit_for(workload: &str, seed: u64) -> SubmitRequest {
    SubmitRequest {
        source: SubmitSource::Workload(workload.to_string()),
        seed,
        quick: true,
        ..Default::default()
    }
}

fn test_config() -> ServerConfig {
    ServerConfig { queue_capacity: 64, cache_capacity: 1 << 20, ..Default::default() }
}

#[test]
fn repeat_traffic_across_server_instances_hits_the_plan_cache() {
    // The layout and move-plan caches are process-wide, the result cache
    // per-server: a fresh server instance receiving traffic another
    // instance already compiled misses its result cache but re-schedules
    // with cached layouts *and* cached move plans. TFIM is movement-heavy
    // (every Trotter step re-plans the same long-range moves), so both
    // per-compile and cross-compile plan reuse must show up. All cache
    // assertions are delta-based, and the unique seed keeps this test's
    // keys collision-free.
    let req = submit_for("TFIM", 990_041);
    let plan = |s: &Json, k: &str| {
        s.get("plan_cache").and_then(|c| c.get(k)).and_then(Json::as_u64).unwrap()
    };

    let first_instance = start(test_config()).expect("bind");
    let mut client = ServiceClient::connect(first_instance.addr()).expect("connect");
    let before = client.stats().expect("stats");
    let cold = client.submit(req.clone()).expect("cold compile");
    assert!(!cold.cached);
    let after_cold = client.stats().expect("stats");
    // `misses` rather than the `len` gauge: len is non-monotonic on the
    // shared evicting cache, so concurrent sibling tests could offset this
    // test's inserts; the miss counter only ever grows.
    assert!(
        plan(&after_cold, "misses") > plan(&before, "misses"),
        "a movement-heavy cold compile must consult the plan cache: {} -> {}",
        plan(&before, "misses"),
        plan(&after_cold, "misses")
    );
    drop(client);
    drop(first_instance);

    let second_instance = start(test_config()).expect("bind");
    let mut client = ServiceClient::connect(second_instance.addr()).expect("connect");
    let warm = client.submit(req).expect("repeat on a fresh instance");
    assert!(!warm.cached, "a fresh server has a fresh result cache");
    assert_eq!(
        warm.result.encode(),
        cold.result.encode(),
        "plan-cache-assisted recompile must stay byte-identical"
    );
    let after_warm = client.stats().expect("stats");
    assert!(
        plan(&after_warm, "hits") > plan(&after_cold, "hits"),
        "repeat traffic must hit the cross-compile plan cache: {} -> {}",
        plan(&after_cold, "hits"),
        plan(&after_warm, "hits")
    );
}
