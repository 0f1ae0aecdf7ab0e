//! Concurrent API consistency: 8 reader threads hammer the read
//! endpoints over real TCP while a writer creates (and deletes)
//! measurements. Pins the sharded-state guarantees:
//!
//! * no torn reads — a measurement's result count never changes after
//!   it first becomes visible (measurements are immutable once
//!   created, and stats always describe complete rounds),
//! * monotone ledger — with no fault profile there are no refunds, so
//!   the balance only ever decreases, and the final balance equals the
//!   initial grant minus everything the writer was charged,
//! * every response is a well-formed status the route allows — nothing
//!   500s, deadlocks, or panics under the mixed load.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use latency_shears::api::client::ApiSession;
use latency_shears::api::dto::{MeasurementDto, MeasurementStatsDto};
use latency_shears::api::server::ServerConfig;
use latency_shears::api::{ApiClient, ApiServer, AtlasService};
use latency_shears::atlas::json::{self, Value};
use latency_shears::prelude::*;

const INITIAL_CREDITS: u64 = 1_000_000;
const WRITER_MEASUREMENTS: u64 = 6;

/// Sets the flag on drop, so a panicking writer can never leave the
/// reader threads looping forever (which would hang the whole test
/// instead of failing it).
struct DoneOnDrop(Arc<AtomicBool>);
impl Drop for DoneOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn readers_never_observe_torn_state_while_writer_churns_reactor() {
    // Sessions cost no threads; the compute pool only needs enough
    // slots for genuinely concurrent handler work.
    churn_against(ServerConfig::reactor(2, 6, 64));
}

fn churn_against(config: ServerConfig) {
    let platform = Platform::build(&PlatformConfig::quick(4));
    let server = ApiServer::spawn_with("127.0.0.1:0", AtlasService::new(platform), config).unwrap();
    let addr = server.local_addr();
    let writer_done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Writer: create measurements back to back, then delete one.
        let done = Arc::clone(&writer_done);
        let writer = s.spawn(move || {
            let _done = DoneOnDrop(done);
            let client = ApiClient::new(addr);
            let mut spent_total = 0u64;
            let mut refunded_total = 0u64;
            for region in 0..WRITER_MEASUREMENTS {
                let body =
                    format!(r#"{{"target_region": {region}, "rounds": 2, "probe_limit": 10}}"#);
                let (status, resp) = client
                    .request("POST", "/api/v2/measurements", Some(body.as_bytes()))
                    .unwrap();
                assert_eq!(status, 201, "create must succeed under reader load");
                let m: MeasurementDto = json::from_slice(&resp).unwrap();
                spent_total += m.credits_spent;
                refunded_total += m.credits_refunded;
            }
            // Deleting one mid-flight must not disturb the others.
            let (status, _) = client
                .request(
                    "DELETE",
                    &format!("/api/v2/measurements/{WRITER_MEASUREMENTS}"),
                    None,
                )
                .unwrap();
            assert_eq!(status, 204);
            (spent_total, refunded_total)
        });

        // Readers: mixed GET workload over keep-alive sessions.
        let readers: Vec<_> = (0..8)
            .map(|t| {
                let done = Arc::clone(&writer_done);
                s.spawn(move || {
                    let mut session = ApiSession::connect(addr).unwrap();
                    // First result count seen per measurement id: once
                    // visible, it must never change (no torn reads).
                    let mut seen_results: HashMap<u64, usize> = HashMap::new();
                    let mut last_balance = u64::MAX;
                    let mut extra_rounds = 3u32;
                    loop {
                        if done.load(Ordering::SeqCst) {
                            // Keep reading a little after the writer
                            // finishes so the final state is covered.
                            if extra_rounds == 0 {
                                break;
                            }
                            extra_rounds -= 1;
                        }
                        let (status, body) =
                            session.request("GET", "/api/v2/credits", None).unwrap();
                        assert_eq!(status, 200);
                        let v = json::parse(&body).unwrap();
                        let balance = v.get("balance").and_then(Value::as_u64).unwrap();
                        assert!(
                            balance <= last_balance,
                            "no-refund workload: balance must be monotone \
                             ({balance} after {last_balance}) in reader {t}"
                        );
                        last_balance = balance;
                        let (status, _) = session
                            .request("GET", "/api/v2/measurements", None)
                            .unwrap();
                        assert_eq!(status, 200);
                        for id in 1..=WRITER_MEASUREMENTS {
                            let (status, body) = session
                                .request("GET", &format!("/api/v2/measurements/{id}/results"), None)
                                .unwrap();
                            assert!(
                                status == 200 || status == 404,
                                "results/{id} answered {status}"
                            );
                            if status == 200 {
                                let rows: Vec<Value> = json::from_slice(&body).unwrap();
                                let first = *seen_results.entry(id).or_insert(rows.len());
                                assert_eq!(
                                    rows.len(),
                                    first,
                                    "measurement {id} result count changed mid-read"
                                );
                            }
                            let (status, body) = session
                                .request("GET", &format!("/api/v2/measurements/{id}/stats"), None)
                                .unwrap();
                            assert!(
                                status == 200 || status == 404,
                                "stats/{id} answered {status}"
                            );
                            if status == 200 {
                                let stats: MeasurementStatsDto = json::from_slice(&body).unwrap();
                                assert!(stats.responded <= stats.samples);
                                if let Some(&n) = seen_results.get(&id) {
                                    assert_eq!(
                                        stats.samples, n,
                                        "stats for {id} must describe complete rounds"
                                    );
                                }
                            }
                        }
                    }
                })
            })
            .collect();

        let (spent, refunded) = writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }

        // Final ledger arithmetic is exact: the delete does not refund,
        // and no reader path ever touches the ledger.
        let client = ApiClient::new(addr);
        let balance = client.credits().unwrap();
        assert_eq!(balance, INITIAL_CREDITS - spent + refunded);
    });
    server.shutdown().unwrap();
}
