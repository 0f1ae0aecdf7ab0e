//! Cross-crate property tests on the pipeline's structural invariants.

use latency_shears::analysis::proximity::CountryMinReport;
use latency_shears::analysis::report::Table;
use latency_shears::apps::catalog::Envelope;
use latency_shears::apps::feasibility::FeasibilityZone;
use latency_shears::apps::{Application, Quadrant};
use latency_shears::atlas::TagFilter;
use latency_shears::geo::rng::{for_all, Rng};
use latency_shears::prelude::*;

/// Uniform in the closed `[lo, hi]`: 53 random bits over `2^53 - 1`
/// steps, so both bounds are reachable.
fn closed(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    let u = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
    (lo + (hi - lo) * u).min(hi)
}

/// A string like the regex `[chars]{min,max}`.
fn string(rng: &mut Rng, chars: &[char], min: usize, max: usize) -> String {
    (0..min + rng.below(max - min + 1))
        .map(|_| chars[rng.below(chars.len())])
        .collect()
}

/// `len` bytes, each uniform over all 256 values.
fn bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn arb_envelope(rng: &mut Rng) -> Envelope {
    let lo = rng.range(0.001, 1e6);
    Envelope::new(lo, lo * rng.range(1.0, 1e3))
}

fn arb_application(rng: &mut Rng) -> Application {
    Application {
        name: "synthetic",
        latency_ms: arb_envelope(rng),
        data_gb_per_day: arb_envelope(rng),
        market_2025_busd: rng.range(0.0, 500.0),
        human_centric: rng.below(2) == 1,
        edge_reduction: closed(rng, 0.0, 1.0),
        entities_per_metro: 1e5,
    }
}

#[test]
fn ecdf_fraction_is_monotone_cdf() {
    for_all(
        256,
        1,
        |rng| {
            let samples: Vec<f64> = (0..1 + rng.below(199))
                .map(|_| rng.range(0.0, 1e5))
                .collect();
            let xs: Vec<f64> = (0..1 + rng.below(19))
                .map(|_| rng.range(0.0, 1e5))
                .collect();
            (samples, xs)
        },
        |(mut samples, xs)| {
            samples.sort_by(f64::total_cmp);
            let e = Ecdf::new(samples);
            let mut sorted_xs = xs;
            sorted_xs.sort_by(f64::total_cmp);
            let mut prev = 0.0;
            for x in sorted_xs {
                let f = e.fraction_at_or_below(x);
                assert!((0.0..=1.0).contains(&f));
                assert!(f >= prev);
                prev = f;
            }
        },
    );
}

#[test]
fn ecdf_quantile_and_fraction_are_inverse_ish() {
    for_all(
        256,
        2,
        |rng| {
            let samples: Vec<f64> = (0..1 + rng.below(199))
                .map(|_| rng.range(0.0, 1e4))
                .collect();
            (samples, rng.range(0.01, 1.0))
        },
        |(samples, q)| {
            let e = Ecdf::new(samples);
            let v = e.quantile(q).unwrap();
            // At least q of the mass sits at or below the q-quantile.
            assert!(e.fraction_at_or_below(v) >= q - 1e-9);
        },
    );
}

#[test]
fn summary_orders_its_statistics() {
    for_all(
        256,
        3,
        |rng| {
            (0..1 + rng.below(299))
                .map(|_| rng.range(0.0, 1e5))
                .collect::<Vec<f64>>()
        },
        |samples| {
            let s = Summary::of(&samples).unwrap();
            assert!(s.min <= s.p25);
            assert!(s.p25 <= s.median);
            assert!(s.median <= s.p75);
            assert!(s.p75 <= s.p95);
            assert!(s.p95 <= s.max);
            assert!(s.min <= s.mean && s.mean <= s.max);
        },
    );
}

#[test]
fn fig4_buckets_partition_the_line() {
    for_all(
        256,
        4,
        |rng| rng.range(0.0, 1e4),
        |rtt| {
            let b = CountryMinReport::bucket_of(rtt);
            assert!(b < 6);
            // Buckets are ordered: a larger RTT never lands in a smaller bucket.
            let b2 = CountryMinReport::bucket_of(rtt * 2.0 + 1.0);
            assert!(b2 >= b);
        },
    );
}

#[test]
fn quadrant_and_feasibility_are_total() {
    for_all(256, 5, arb_application, |app| {
        // Every synthetic application classifies without panicking, and
        // an in-zone verdict implies the quadrant with bandwidth demand
        // matches the zone's bandwidth rule.
        let q = Quadrant::classify(&app);
        let zone = FeasibilityZone::paper_defaults();
        let v = zone.classify(&app);
        if v.in_zone() {
            assert!(
                app.data_gb_per_day.center() >= zone.bandwidth_gain_gb_per_day,
                "{q:?} in zone without bandwidth demand"
            );
            assert!(app.latency_ms.center() >= zone.latency_floor_ms);
            assert!(app.latency_ms.center() <= zone.latency_ceiling_ms);
        }
    });
}

#[test]
fn envelope_center_is_within_bounds() {
    for_all(256, 6, arb_envelope, |e| {
        assert!(e.lo <= e.center() && e.center() <= e.hi);
        assert!(e.decades() >= 0.0);
    });
}

#[test]
fn tag_filter_exclusion_dominates() {
    let lower: Vec<char> = ('a'..='z').collect();
    for_all(
        256,
        7,
        |rng| {
            let tags: Vec<String> = (0..rng.below(6))
                .map(|_| string(rng, &lower, 2, 8))
                .collect();
            (tags, string(rng, &lower, 2, 8))
        },
        |(tags, needle)| {
            let filter = TagFilter::any().require(&needle).reject(&needle);
            // A filter requiring and rejecting the same tag matches nothing
            // that carries the tag.
            let mut with = tags.clone();
            with.push(needle.clone());
            assert!(!filter.matches(&with));
            assert!(!filter.matches_any(&with));
        },
    );
}

#[test]
fn table_render_never_panics_and_aligns() {
    let printable: Vec<char> = (' '..='~').collect();
    for_all(
        256,
        8,
        |rng| {
            let headers: Vec<String> = (0..1 + rng.below(4))
                .map(|_| string(rng, &printable, 1, 12))
                .collect();
            let rows: Vec<Vec<String>> = (0..rng.below(10))
                .map(|_| {
                    (0..rng.below(7))
                        .map(|_| string(rng, &printable, 0, 16))
                        .collect()
                })
                .collect();
            (headers, rows)
        },
        |(headers, rows)| {
            let mut t = Table::new(headers.clone());
            for r in rows {
                t.row(r);
            }
            let rendered = t.render();
            let lines: Vec<&str> = rendered.lines().collect();
            assert_eq!(lines.len(), 2 + t.len());
        },
    );
}

#[test]
fn simtime_roundtrips_millis() {
    for_all(
        256,
        9,
        |rng| rng.range(0.0, 1e12),
        |ms| {
            let t = SimTime::from_millis_f64(ms);
            assert!((t.as_millis_f64() - ms).abs() < 1e-3);
        },
    );
}

#[test]
fn retry_schedule_respects_its_bounds() {
    use latency_shears::netsim::stochastic::SimRng;

    for_all(
        256,
        10,
        |rng| {
            (
                rng.below(8) as u32,
                1 + rng.below(119) as u64,
                1 + rng.below(599) as u64,
                rng.range(0.0, 1.0),
                1 + rng.below(3599) as u64,
                rng.next_u64(),
            )
        },
        |(max_retries, base_s, cap_s, jitter, timeout_s, seed)| {
            let policy = RetryPolicy {
                max_retries,
                base_backoff: SimTime::from_secs(base_s),
                max_backoff: SimTime::from_secs(cap_s),
                jitter,
                measurement_timeout: SimTime::from_secs(timeout_s),
                refund_failures: true,
            };
            let mut rng = SimRng::new(seed);
            let scheduled = SimTime::from_hours(3);
            let mut schedule = policy.schedule(scheduled);
            assert_eq!(schedule.attempt_at(), scheduled);
            let mut taken = 0u32;
            let mut prev = scheduled;
            while schedule.next(&policy, &mut rng) {
                taken += 1;
                // Attempts move strictly forward and never leave the
                // policy's delay envelope.
                assert!(schedule.attempt_at() > prev);
                prev = schedule.attempt_at();
                let delay = schedule.attempt_at().saturating_since(scheduled);
                assert!(delay <= policy.max_total_delay());
                assert!(delay <= policy.measurement_timeout);
                assert!(taken <= max_retries, "retry budget exceeded");
            }
            assert!(taken <= max_retries);
            // Once exhausted, the schedule stays exhausted.
            assert!(!schedule.next(&policy, &mut rng));
        },
    );
}

#[test]
fn credit_ledger_conserves_under_debit_refund_boost() {
    use latency_shears::atlas::CreditLedger;

    for_all(
        256,
        11,
        |rng| {
            let initial = rng.below(1_000_000) as u64;
            let ops: Vec<(u8, u64)> = (0..rng.below(40))
                .map(|_| (rng.below(3) as u8, 1 + rng.below(9_999) as u64))
                .collect();
            (initial, ops)
        },
        |(initial, ops)| {
            let mut ledger = CreditLedger::new(initial);
            let mut boosted = 0u64;
            let mut debited = 0u64;
            for (op, amount) in ops {
                match op {
                    0 => {
                        if ledger.debit(amount).is_ok() {
                            debited += amount;
                        }
                    }
                    1 => {
                        let refunded = ledger.refund(amount);
                        assert!(refunded <= amount);
                    }
                    _ => {
                        ledger.boost(amount);
                        boosted += amount;
                    }
                }
                // Credits are conserved: refunds move spent back to
                // balance, never mint. (No saturation at these magnitudes.)
                assert_eq!(ledger.balance() + ledger.spent(), initial + boosted);
            }
            // Lifetime refunds never exceed what ever left the balance.
            assert!(ledger.refunded() <= debited);
        },
    );
}

// Whole-platform route comparisons and crash-resume runs are expensive;
// a handful of random worlds is plenty to catch a divergence.

#[test]
fn routers_and_tables_agree_when_the_fault_plan_is_empty() {
    use latency_shears::netsim::fault::FaultRouter;
    use latency_shears::netsim::Router;

    for_all(
        6,
        13,
        |rng| (rng.below(1_000) as u64, 25 + rng.below(20)),
        |(seed, probes)| {
            let p = Platform::build(&PlatformConfig {
                fleet: FleetConfig {
                    target_size: probes,
                    seed,
                },
                ..PlatformConfig::default()
            });
            let table = p.route_table(1, 1, 2);
            let mut router = Router::new(p.topology());
            let faulty = FaultRouter::new(p.topology(), table.clone(), FaultPlan::empty("noop"));
            let t = SimTime::from_hours(seed % 48);
            for probe in p.probes() {
                let from = p.probe_node(probe.id);
                for &target in &p.targets_for(probe, 1, 1) {
                    let to = p.dc_node(target as usize);
                    let want = router
                        .path(from, to)
                        .map(|i| (i.links.clone(), i.base_one_way_ms));
                    let via_table = table.path(from, to).map(|r| {
                        let i = r.to_path_info();
                        (i.links, i.base_one_way_ms)
                    });
                    let via_fault = faulty
                        .path_at(from, to, t)
                        .map(|r| (r.links.to_vec(), r.base_one_way_ms));
                    assert_eq!(&want, &via_table, "table diverged {:?}->{:?}", from, to);
                    assert_eq!(
                        &want, &via_fault,
                        "fault router diverged {:?}->{:?}",
                        from, to
                    );
                }
            }
        },
    );
}

/// The fault router against one `Router::with_disabled` per epoch: on
/// random fleets, under a generated `chaos` plan and one with 24 cuts,
/// every probe→target route of every epoch agrees in links, nodes and
/// floor bits, and a pair an epoch's cut disconnects is `None` on both
/// sides.
#[test]
fn fault_router_matches_per_epoch_routers_under_generated_plans() {
    use latency_shears::netsim::fault::FaultRouter;
    use latency_shears::netsim::{PathInfo, PathRef, Router};

    let many_cuts = FaultConfig {
        enabled: true,
        link_cuts: 24,
        cut_mean_hours: 48.0,
        ..FaultConfig::none()
    };
    let bits = |p: &Option<PathInfo>| p.as_ref().map(|p| p.base_one_way_ms.to_bits());
    // Routes that differ from the fault-free table, over every case: the
    // property says little unless some cut crosses a route.
    let rerouted = std::cell::Cell::new(0usize);
    for_all(
        3,
        15,
        |rng| {
            (
                rng.below(1_000) as u64,
                15 + rng.below(15),
                rng.below(1_000) as u64,
            )
        },
        |(seed, probes, plan_seed)| {
            let p = Platform::build(&PlatformConfig {
                fleet: FleetConfig {
                    target_size: probes,
                    seed,
                },
                ..PlatformConfig::default()
            });
            let topo = p.topology();
            let table = p.route_table(1, 1, 1);
            for cfg in [FaultConfig::chaos(), many_cuts] {
                let plan = FaultPlan::generate(topo, &cfg, plan_seed, SimTime::from_days(30));
                let faulty = FaultRouter::new(topo, table.clone(), plan.clone());
                for epoch in 0..plan.epoch_count() {
                    let at = plan.epoch_start(epoch);
                    let mut reference =
                        Router::with_disabled(topo, plan.epoch_disabled(epoch).clone());
                    for probe in p.probes() {
                        let from = p.probe_node(probe.id);
                        for &target in &p.targets_for(probe, 1, 1) {
                            let to = p.dc_node(target as usize);
                            let want = reference.path(from, to).cloned();
                            let got = faulty.path_at(from, to, at).map(PathRef::to_path_info);
                            let what = format!("epoch {epoch} {from:?}->{to:?}");
                            assert_eq!(bits(&got), bits(&want), "floor, {what}");
                            assert_eq!(got, want, "{what}");
                            let healthy = table.path(from, to).map(PathRef::to_path_info);
                            rerouted.set(rerouted.get() + usize::from(got != healthy));
                        }
                    }
                }
            }
        },
    );
    assert!(rerouted.get() > 0, "no cut crossed a route");
}

#[test]
fn durable_crash_resume_conserves_ledger_and_samples() {
    use latency_shears::atlas::{Campaign, CampaignError, DurabilityConfig};

    for_all(
        6,
        14,
        |rng| {
            (
                rng.below(500) as u64,
                rng.below(3) as u32,
                1 + rng.below(4),
                rng.below(2) == 1,
            )
        },
        |(seed, crash_after, threads, chaos)| {
            let p = Platform::build(&PlatformConfig {
                fleet: FleetConfig {
                    target_size: 30,
                    seed,
                },
                ..PlatformConfig::default()
            });
            let cfg = CampaignConfig {
                rounds: 4,
                targets_per_probe: 1,
                adjacent_targets: 1,
                credits: 10_000_000,
                // Under chaos, retries and refunds too, so the ledger
                // checks below see refunds.
                faults: if chaos {
                    FaultConfig::chaos()
                } else {
                    FaultConfig::none()
                },
                recovery: if chaos {
                    RetryPolicy::atlas_default()
                } else {
                    RetryPolicy::none()
                },
                ..CampaignConfig::quick()
            };

            let base = std::env::temp_dir().join(format!(
                "shears-prop-journal-{}-{}-{}-{}-{}",
                std::process::id(),
                seed,
                crash_after,
                threads,
                chaos,
            ));
            let clean_path = base.with_extension("clean.wal");
            let crash_path = base.with_extension("crash.wal");
            let _ = std::fs::remove_file(&clean_path);
            let _ = std::fs::remove_file(&crash_path);

            // The uninterrupted reference run.
            let clean = Campaign::new(&p, cfg)
                .run_durable(threads, &DurabilityConfig::new(&clean_path))
                .unwrap();

            // Crash after round `crash_after`, then resume to completion.
            let crashing = DurabilityConfig {
                crash_after_round: Some(crash_after),
                ..DurabilityConfig::new(&crash_path)
            };
            let err = Campaign::new(&p, cfg)
                .run_durable(threads, &crashing)
                .unwrap_err();
            assert!(matches!(err, CampaignError::SimulatedCrash { .. }));
            let resumed =
                Campaign::resume(&p, &DurabilityConfig::new(&crash_path), threads).unwrap();

            assert_eq!(&clean.store, &resumed.store);
            assert_eq!(clean.ledger.balance(), resumed.ledger.balance());
            assert_eq!(clean.ledger.spent(), resumed.ledger.spent());
            assert_eq!(clean.ledger.refunded(), resumed.ledger.refunded());
            // Conservation across the crash: nothing minted, nothing lost.
            assert_eq!(
                resumed.ledger.balance() + resumed.ledger.spent(),
                cfg.credits
            );
            let _ = std::fs::remove_file(&clean_path);
            let _ = std::fs::remove_file(&crash_path);
        },
    );
}

// ---------------------------------------------------------------------
// Incremental HTTP parser: chunk-partition independence.
//
// The reactor feeds the parser whatever byte slices the kernel hands
// it, so the parse outcome must be a function of the byte *stream*,
// never of how it was chopped up. For every corpus entry — valid,
// pipelined, hostile percent-escapes, oversized Content-Length, plain
// garbage — an arbitrary partition into chunks must produce the exact
// same trace (requests parsed + terminal verdict) as feeding the whole
// buffer at once, and must never panic.

use latency_shears::api::http::{HttpError, RequestParser};

/// Wire corpus the partition property quantifies over. Index-addressed,
/// so a failing case prints as a corpus entry + partition, which
/// reproduces exactly.
const WIRE_CORPUS: &[&[u8]] = &[
    b"GET /api/v2/credits HTTP/1.1\r\nhost: t\r\n\r\n",
    b"GET /api/v2/probes?limit=5&country=NL HTTP/1.1\r\nhost: t\r\nConnection: close\r\n\r\n",
    b"POST /api/v2/measurements HTTP/1.1\r\ncontent-length: 24\r\n\r\n{\"target_region\":0,\"x\":1}",
    // Pipelined keep-alive pair ending in a close.
    b"GET /api/v2/credits HTTP/1.1\r\n\r\nGET /api/v2/regions HTTP/1.1\r\nConnection: close\r\n\r\n",
    // Hostile: bare '%' followed by multi-byte UTF-8 in the path.
    "GET /api/v2/%\u{4e2d} HTTP/1.1\r\nhost: t\r\n\r\n".as_bytes(),
    // Hostile: truncated and overflowing percent escapes.
    b"GET /a%2 HTTP/1.1\r\n\r\n",
    b"GET /a%zz%ff HTTP/1.1\r\n\r\n",
    // Hostile: Content-Length larger than any sane body cap.
    b"POST /api/v2/measurements HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n",
    b"POST /x HTTP/1.1\r\ncontent-length: not-a-number\r\n\r\n",
    // Declared body never arrives (EOF mid-body).
    b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc",
    // Not HTTP at all.
    b"NOTHTTP\r\n\r\n",
    b"GET / HTTP/2\r\n\r\n",
    b"\r\n\r\n\r\n",
];

/// Parses `bytes` delivered as the given chunk partition, returning
/// the comparable trace: every request observed (rendered to a string)
/// followed by the terminal verdict. Errors compare by rendered
/// message, which pins the *reason*, not just the kind.
fn parse_trace(bytes: &[u8], cuts: &[usize]) -> Vec<String> {
    let mut trace = Vec::new();
    let mut parser = RequestParser::new();
    let mut start = 0;
    let mut feeds: Vec<&[u8]> = Vec::new();
    for &cut in cuts {
        feeds.push(&bytes[start..cut]);
        start = cut;
    }
    feeds.push(&bytes[start..]);
    let last = feeds.len() - 1;
    for (i, chunk) in feeds.into_iter().enumerate() {
        parser.feed(chunk);
        let eof = i == last;
        loop {
            match parser.poll(eof) {
                Ok(Some(req)) => trace.push(format!(
                    "req {:?} {} q={:?} body={:?}",
                    req.method, req.path, req.query, req.body
                )),
                Ok(None) => break,
                Err(e) => {
                    trace.push(format!("err {e}"));
                    return trace;
                }
            }
        }
    }
    trace
}

// ---------------------------------------------------------------------
// Pipelined work-stream framing: the raw-stream front the reactor
// upgrades work connections into (DESIGN.md §7j) gets the same battery
// as the HTTP parser above. A pipelined FRAME burst must reach an
// identical reply/verdict sequence under every byte-boundary split,
// and torn or bit-flipped frames must close the stream with a typed
// [`StreamError`] — never panic, never merge corrupt bytes.

use latency_shears::api::transport::{StreamError, WorkStream};
use latency_shears::api::work::{self as work, WorkQueue, WorkSpec};
use latency_shears::atlas::ResultStore;
use std::time::Instant;

/// Rounds in the single-shard campaign the stream corpus drives; a
/// burst of exactly this many frames completes it (and earns a pushed
/// `Done`).
const STREAM_ROUNDS: u32 = 4;

fn stream_queue() -> WorkQueue {
    WorkQueue::new(WorkSpec::quick(STREAM_ROUNDS, 1))
}

/// The worker id a fresh queue hands its first registrant — stable, so
/// a burst can be built before the trace run that replays it.
fn first_worker_id() -> u64 {
    stream_queue().register(Instant::now())
}

/// A valid pipelined burst: HELLO, POLL, then `frames` FRAME
/// submissions for shard 0 — all CRC-framed, ready for the wire.
fn stream_burst_wire(frames: u32) -> Vec<u8> {
    use latency_shears::atlas::journal::frame;
    let worker = first_worker_id();
    let mut wire = Vec::new();
    wire.extend_from_slice(&frame(&work::stream_hello_payload(false)));
    wire.extend_from_slice(&frame(&work::poll_payload(worker)));
    for round in 0..frames {
        wire.extend_from_slice(&frame(&work::frame_submit_payload(
            worker,
            0,
            round,
            10,
            0,
            &ResultStore::new(),
        )));
    }
    wire
}

/// Feeds `wire` to a fresh server-side stream as the given partition,
/// driving after every chunk, and returns the accumulated reply bytes
/// plus the terminal error (if the stream closed). Reply bytes are the
/// comparable artifact: they contain the full welcome/reply/verdict
/// sequence and nothing time-dependent.
fn stream_trace(wire: &[u8], cuts: &[usize]) -> (Vec<u8>, Option<StreamError>) {
    let queue = stream_queue();
    let mut ws = WorkStream::new();
    let now = Instant::now();
    let mut out = Vec::new();
    let mut start = 0;
    let mut feeds: Vec<&[u8]> = Vec::new();
    for &cut in cuts {
        feeds.push(&wire[start..cut]);
        start = cut;
    }
    feeds.push(&wire[start..]);
    for chunk in feeds {
        ws.feed(chunk);
        if let Err(e) = ws.drive(&queue, now, &mut out) {
            ws.on_close(&queue, now);
            return (out, Some(e));
        }
        ws.note_flushed(&queue, now);
    }
    (out, None)
}

/// Decodes a reply byte stream into rendered messages for prefix
/// comparisons (the framing itself is already byte-compared).
fn decode_replies(out: &[u8]) -> Vec<String> {
    let mut d = latency_shears::api::StreamDecoder::new();
    d.feed(out);
    let mut msgs = Vec::new();
    while let Ok(Some(p)) = d.next_payload() {
        match work::decode_stream_msg(&p) {
            Ok(m) => msgs.push(format!("{m:?}")),
            Err(why) => msgs.push(format!("undecodable: {why}")),
        }
    }
    msgs
}

#[test]
fn parser_verdict_is_chunk_partition_independent() {
    for_all(
        256,
        15,
        |rng| {
            let idx = rng.below(WIRE_CORPUS.len());
            let raw_cuts: Vec<usize> = (0..rng.below(12)).map(|_| rng.below(200)).collect();
            (idx, raw_cuts)
        },
        |(idx, raw_cuts)| {
            let bytes = WIRE_CORPUS[idx];
            // Fold arbitrary cut points into a sorted partition of `bytes`
            // (empty chunks included on purpose — feed(&[]) must be a
            // no-op too).
            let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.sort_unstable();

            let whole = parse_trace(bytes, &[]);
            let chunked = parse_trace(bytes, &cuts);
            assert_eq!(
                &whole, &chunked,
                "partition {:?} diverged on corpus[{}]",
                cuts, idx
            );
        },
    );
}

#[test]
fn parser_never_panics_on_arbitrary_bytes() {
    for_all(
        256,
        16,
        |rng| {
            let len = rng.below(512);
            let raw_cuts: Vec<usize> = (0..rng.below(8)).map(|_| rng.below(512)).collect();
            (bytes(rng, len), raw_cuts)
        },
        |(bytes, raw_cuts)| {
            let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                parse_trace(&bytes, &cuts)
            }));
            assert!(outcome.is_ok(), "parser panicked on {:?}", bytes);
            // And whatever the verdict was, it is still partition-independent.
            let whole =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| parse_trace(&bytes, &[])))
                    .unwrap();
            assert_eq!(outcome.unwrap(), whole);
        },
    );
}

#[test]
fn stream_verdicts_are_chunk_partition_independent() {
    for_all(
        256,
        17,
        |rng| {
            let frames = rng.below(5) as u32;
            let raw_cuts: Vec<usize> = (0..rng.below(12)).map(|_| rng.below(600)).collect();
            (frames, raw_cuts)
        },
        |(frames, raw_cuts)| {
            let wire = stream_burst_wire(frames);
            let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % (wire.len() + 1)).collect();
            cuts.sort_unstable();

            let (whole_out, whole_err) = stream_trace(&wire, &[]);
            let (chunk_out, chunk_err) = stream_trace(&wire, &cuts);
            assert_eq!(whole_err, None, "a clean burst must not error");
            assert_eq!(chunk_err, None, "partition {:?} invented an error", cuts);
            // The reply *bytes* are identical — welcome, poll reply, one
            // tagged verdict per frame, pushes included — so the verdict
            // sequence cannot depend on how the kernel chopped the stream.
            assert_eq!(
                &whole_out, &chunk_out,
                "partition {:?} changed the replies",
                cuts
            );
            // welcome + poll reply + one verdict per frame, plus the
            // pushed Done when the burst completes the campaign.
            assert_eq!(
                decode_replies(&whole_out).len() as u32,
                2 + frames + u32::from(frames == STREAM_ROUNDS)
            );
        },
    );
}

#[test]
fn stream_never_panics_on_arbitrary_bytes() {
    for_all(
        256,
        18,
        |rng| {
            let len = rng.below(512);
            let raw_cuts: Vec<usize> = (0..rng.below(8)).map(|_| rng.below(512)).collect();
            (bytes(rng, len), raw_cuts)
        },
        |(bytes, raw_cuts)| {
            let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            let whole = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                stream_trace(&bytes, &[])
            }));
            let chunked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                stream_trace(&bytes, &cuts)
            }));
            assert!(
                whole.is_ok() && chunked.is_ok(),
                "stream panicked on {:?}",
                bytes
            );
            // Same verdict — typed error or replies — however delivered.
            assert_eq!(whole.unwrap(), chunked.unwrap());
        },
    );
}

#[test]
fn stream_bit_flips_are_caught_never_merged() {
    for_all(
        256,
        19,
        |rng| (1 + rng.below(4) as u32, rng.below(1024), rng.below(8) as u8),
        |(frames, flip_at, flip_bit)| {
            // Flip one bit anywhere in a valid pipelined burst: the stream
            // must either close with a typed error or — when the flip
            // tears the tail frame into "not yet" — reply to a strict
            // prefix of the burst. It must never decode *different*
            // messages, and never panic.
            let clean = stream_burst_wire(frames);
            let mut wire = clean.clone();
            let at = flip_at % wire.len();
            wire[at] ^= 1 << flip_bit;

            let (clean_out, clean_err) = stream_trace(&clean, &[]);
            assert_eq!(clean_err, None);
            let clean_replies = decode_replies(&clean_out);

            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| stream_trace(&wire, &[])));
            assert!(outcome.is_ok(), "bit flip at {} panicked", at);
            let (out, err) = outcome.unwrap();
            let replies = decode_replies(&out);
            assert!(
                replies.len() <= clean_replies.len(),
                "a corrupt burst must not grow replies"
            );
            assert_eq!(
                &clean_replies[..replies.len()],
                &replies[..],
                "flip at byte {} produced divergent replies instead of an error",
                at
            );
            if err.is_none() {
                assert!(
                    replies.len() < clean_replies.len(),
                    "flip at byte {} was silently accepted",
                    at
                );
            }
        },
    );
}

#[test]
fn parser_errors_are_sticky_and_harmless() {
    for_all(
        256,
        20,
        |rng| {
            let idx = rng.below(WIRE_CORPUS.len());
            let len = rng.below(64);
            (idx, bytes(rng, len))
        },
        |(idx, extra)| {
            // After a terminal error the parser may be fed more garbage
            // without panicking — the reactor closes the connection, but a
            // race may deliver one more chunk first.
            let bytes = WIRE_CORPUS[idx];
            let mut parser = RequestParser::new();
            parser.feed(bytes);
            let mut errored = false;
            loop {
                match parser.poll(true) {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(HttpError::ConnectionClosed) => break,
                    Err(_) => {
                        errored = true;
                        break;
                    }
                }
            }
            parser.feed(&extra);
            let after = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let mut p = parser;
                let _ = p.poll(true);
            }));
            assert!(
                after.is_ok(),
                "post-error feed panicked (errored={errored})"
            );
        },
    );
}
