//! Every plan-cache miss is a real `prepare`: with the telemetry collector
//! on, the number of `prepare` spans equals the server's
//! `plan_cache_misses`, so no second cache behind the plan cache answers a
//! miss. The collector is process-global, so this suite is its own test
//! binary with a single test.

use qufem_core::{QuFem, QuFemConfig};
use qufem_device::presets;
use qufem_serve::{Client, Request, ServeConfig, Server};
use qufem_types::{BitString, ProbDist};

#[test]
fn every_plan_cache_miss_is_a_real_build() {
    let config =
        QuFemConfig::builder().characterization_threshold(5e-4).shots(300).seed(3).build().unwrap();
    let qufem = QuFem::characterize(&presets::ibmq_7(1), config).unwrap();
    let serve = ServeConfig { plan_cache_capacity: 2, prewarm: false, ..ServeConfig::default() };
    let server = Server::start(qufem, "127.0.0.1:0", serve).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let sets = [vec![0, 1], vec![2, 3], vec![4, 5]];

    qufem_telemetry::reset();
    qufem_telemetry::enable();
    // Three sets cycled twice through two slots: each set is evicted
    // before it comes round again, so all six requests miss.
    for _ in 0..2 {
        for measured in &sets {
            let dist = ProbDist::point_mass(BitString::zeros(measured.len()));
            let request = Request::calibrate(dist, Some(measured.clone()));
            let response = client.request(&request).unwrap();
            assert!(response.ok, "{:?}", response.error);
        }
    }
    let metrics = client.request(&Request::metrics()).unwrap().metrics.expect("metrics frame");
    qufem_telemetry::disable();
    let snapshot = qufem_telemetry::snapshot();

    assert_eq!((metrics.plan_cache_hits, metrics.plan_cache_misses), (0, 6));
    assert_eq!(
        snapshot.span_count("prepare"),
        metrics.plan_cache_misses,
        "a plan-cache miss was answered without building a plan"
    );
    server.shutdown_and_join();
}
