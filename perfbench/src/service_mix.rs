//! `service_mix`: open-loop Poisson arrivals from four tenants, sent by one
//! submit thread, against `QueryService`. Each tenant sends interactive
//! index lookups plus batch scan-joins, at a fixed rate a quarter of the
//! way to the knee, on the no-fault, grants-on service configuration: at
//! half way about half of the lookups overlap a scan-join, and the median
//! latency flips between the uncontended and the contended mode from run
//! to run.
//!
//! The arrival schedule is one fixed Poisson draw: latency tails here are
//! set by queueing bursts, and freshly drawn schedules move the median
//! latency by ±25% from one another, which would drown any change to the
//! engine. `--seed` draws the relations' keys and every lookup's range.
//!
//! Each request class is planned once in set-up; a request is a clone of
//! its class's plan with its own lookup range. Latency is timed from each
//! request's due time, so a submit thread that falls behind charges its
//! lateness to the requests it delays; the run is marked invalid when the
//! generator falls behind its schedule.

use std::sync::Arc;
use std::time::{Duration, Instant};

use xprs_disk::StripedLayout;
use xprs_executor::{ExecConfig, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_service::{QueryRequest, QueryService, QueryStatus, ServiceConfig, ServiceError, Ticket};
use xprs_storage::{Catalog, Schema, Tuple};
use xprs_workload::{generate_arrivals, ArrivalSpec, QueryClass, TenantLoad};

use crate::common::{
    hash_join_answer, mean, median, peak_rss_mb, percentile, range_answer, tuple, Rng, Sheet,
};
use crate::trace::Tracer;
use crate::{Args, Outcome, SetupTimes};

/// Wall seconds per simulated second: `bench_service` runs 40x; at 20x
/// (with half its rates, so the load is the same) the throttled waits
/// make up more of each request's latency and the host's own speed,
/// which drifts on a shared machine, less.
const SCALE: f64 = 1.0 / 20.0;
const TENANTS: u32 = 4;
const INTERACTIVE_QPS: f64 = 4.0;
const BATCH_QPS: f64 = 0.125;
/// Seed of the arrival schedule (see the module docs).
const SCHEDULE_SEED: u64 = 0x5E41_11CE;
/// Keys a lookup covers (of `THIN_KEYS`).
const LOOKUP_WIDTH: i32 = 16;
const THIN_KEYS: u64 = 120;
const THIN_BLEN: usize = 16;
const FAT_KEYS: u64 = 80;
/// The generator is behind its schedule when its 95th-percentile lateness
/// passes `LATE_P95_MS`, or any one request's passes `LATE_MAX_MS`.
const LATE_P95_MS: f64 = 10.0;
const LATE_MAX_MS: f64 = 250.0;

fn service_config() -> ServiceConfig {
    let mut exec = ExecConfig::scaled(1.0 / SCALE)
        .with_memory_grants()
        .with_patrol(2, 3);
    // Far smaller than the relations: scans stay disk-resident.
    exec.bufpool_pages = 24;
    // Per-run recalibration off in the shared-session regime.
    exec.recal_band = 0.0;
    ServiceConfig {
        queue_cap: 64,
        max_concurrent: 3,
        interactive_deadline: Duration::from_secs(8),
        batch_deadline: Duration::from_secs(20),
        exec,
    }
}

struct Setup {
    svc: QueryService,
    lookup: QueryRun,
    scan_join: QueryRun,
    thin_keys: Vec<i32>,
    join_rows: u64,
}

fn setup(seed: u64, tracer: &mut Tracer, times: &mut SetupTimes) -> Setup {
    let t0 = tracer.now();
    let root = tracer.span("setup", "workload", (t0, t0), 0, None);
    let mut rng = Rng::new(seed);
    let g = Instant::now();
    let fat: Vec<Tuple> = (0..240)
        .map(|_| tuple(rng.below(FAT_KEYS) as i32, 800))
        .collect();
    let thin_keys: Vec<i32> = (0..1600).map(|_| rng.below(THIN_KEYS) as i32).collect();
    let thin: Vec<Tuple> = thin_keys.iter().map(|&k| tuple(k, THIN_BLEN)).collect();
    let join_rows = hash_join_answer(&fat, &thin).rows;
    tracer.span_since("generate", "workload", g, root);

    let l = Instant::now();
    let mut cat = Catalog::new(StripedLayout::new(4));
    for (name, rows) in [("fat", fat), ("thin", thin)] {
        cat.create(name, Schema::paper_rel());
        cat.load(name, rows);
        cat.build_index(name, false);
    }
    times.load_s += l.elapsed().as_secs_f64();
    tracer.span_since("load", "storage", l, root);

    let opt = TwoPhaseOptimizer::paper_default();
    let plan = |q: &Query, tracer: &mut Tracer, times: &mut SetupTimes| {
        let p = Instant::now();
        let o = opt
            .optimize_catalog(&cat, q, Costing::SeqCost)
            .expect("plan");
        times.plan_ms.push(p.elapsed().as_secs_f64() * 1e3);
        tracer.span_since("plan", "optimizer", p, root);
        o
    };
    let sel = LOOKUP_WIDTH as f64 / THIN_KEYS as f64;
    let lookup = QueryRun {
        optimized: plan(&Query::selection("thin", sel), tracer, times),
        bindings: vec![RelBinding {
            name: "thin".into(),
            pred: (0, LOOKUP_WIDTH - 1),
        }],
    };
    let join = Query::join()
        .rel("fat", 1.0)
        .rel("thin", 1.0)
        .on(0, 1)
        .build();
    let scan_join = QueryRun {
        optimized: plan(&join, tracer, times),
        bindings: ["fat", "thin"]
            .iter()
            .map(|n| RelBinding {
                name: n.to_string(),
                pred: (i32::MIN, i32::MAX),
            })
            .collect(),
    };

    let s = Instant::now();
    let svc = QueryService::start(service_config(), Arc::new(cat));
    tracer.span_since("service start", "service", s, root);
    tracer.close(root);
    Setup {
        svc,
        lookup,
        scan_join,
        thin_keys,
        join_rows,
    }
}

/// One request as the submit thread saw it.
struct Sent {
    class: QueryClass,
    due: Instant,
    submitted: Instant,
    expect_rows: u64,
    ticket: Option<Ticket>,
}

/// Raw samples of one replayed schedule.
#[derive(Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    /// Requests that completed with the wrong row count.
    wrong: u64,
    shed: [u64; 2],
    cancelled: [u64; 2],
    retry_after_ms: Vec<f64>,
    late_ms: Vec<f64>,
    queue_depth_max: usize,
    /// Per class: latency from due, queue wait, execution (ms).
    latency: [Vec<f64>; 2],
    queue: [Vec<f64>; 2],
    exec: [Vec<f64>; 2],
    makespan: f64,
    clean_at_idle: bool,
}

fn idx(c: QueryClass) -> usize {
    match c {
        QueryClass::Interactive => 0,
        QueryClass::Batch => 1,
    }
}

/// Replay the arrival schedule of `horizon` seconds open loop, each lookup
/// over a range drawn from `seed`, then wait for every admitted request.
fn replay(s: &Setup, seed: u64, horizon: f64, tracer: &mut Tracer) -> Phase {
    let spec = ArrivalSpec {
        seed: SCHEDULE_SEED,
        horizon,
        tenants: (0..TENANTS)
            .map(|_| TenantLoad {
                interactive_qps: INTERACTIVE_QPS,
                batch_qps: BATCH_QPS,
            })
            .collect(),
    };
    let schedule = generate_arrivals(&spec);
    let mut rng = Rng::new(seed ^ 0x0010_0C0F);
    let ranges: Vec<i32> = schedule
        .iter()
        .map(|_| rng.below(THIN_KEYS - LOOKUP_WIDTH as u64 + 1) as i32)
        .collect();
    let mut p = Phase::default();
    let mut sent = Vec::with_capacity(schedule.len());
    let t0 = Instant::now();
    for (a, &lo) in schedule.iter().zip(&ranges) {
        let due = t0 + Duration::from_secs_f64(a.at);
        if let Some(gap) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(gap);
        }
        let (run, expect_rows) = match a.class {
            QueryClass::Interactive => {
                let mut run = s.lookup.clone();
                run.bindings[0].pred = (lo, lo + LOOKUP_WIDTH - 1);
                let want = range_answer(&s.thin_keys, THIN_BLEN, lo, lo + LOOKUP_WIDTH - 1);
                (run, want.rows)
            }
            QueryClass::Batch => (s.scan_join.clone(), s.join_rows),
        };
        let submitted = Instant::now();
        p.late_ms
            .push(submitted.duration_since(due).as_secs_f64() * 1e3);
        p.attempted += 1;
        let ticket = match s.svc.submit(QueryRequest {
            tenant: a.tenant,
            class: a.class,
            run,
        }) {
            Ok(t) => Some(t),
            Err(ServiceError::Overloaded { retry_after }) => {
                p.shed[idx(a.class)] += 1;
                p.failed += 1;
                p.retry_after_ms.push(retry_after.as_secs_f64() * 1e3);
                None
            }
            Err(e) => {
                eprintln!("submit refused: {e}");
                p.failed += 1;
                None
            }
        };
        p.queue_depth_max = p.queue_depth_max.max(s.svc.queue_depth());
        sent.push(Sent {
            class: a.class,
            due,
            submitted,
            expect_rows,
            ticket,
        });
    }
    let mut last = t0;
    for (i, r) in sent.into_iter().enumerate() {
        let Some(ticket) = r.ticket else { continue };
        let o = ticket.wait();
        let c = idx(r.class);
        let late = r.submitted.duration_since(r.due);
        let end = r.submitted + o.latency;
        last = last.max(end);
        match o.status {
            QueryStatus::Completed { rows } if rows == r.expect_rows => {
                p.latency[c].push((late + o.latency).as_secs_f64() * 1e3);
                p.queue[c].push(o.queue_wait.as_secs_f64() * 1e3);
                p.exec[c].push((o.latency - o.queue_wait).as_secs_f64() * 1e3);
            }
            QueryStatus::Completed { rows } => {
                eprintln!("wrong answer: {} rows, want {}", rows, r.expect_rows);
                p.wrong += 1;
                p.failed += 1;
            }
            QueryStatus::DeadlineCancelled => {
                p.cancelled[c] += 1;
                p.failed += 1;
            }
            QueryStatus::Failed { error } => {
                eprintln!("request failed: {error}");
                p.failed += 1;
            }
        }
        if tracer.on() {
            let sub = tracer.at(r.submitted);
            let run_at = sub + o.queue_wait.as_secs_f64();
            let lane = 100 + i as u64;
            let req = tracer.span(
                format!("request {}", r.class.label()),
                "service",
                (sub, tracer.at(end)),
                lane,
                None,
            );
            tracer.span("queue wait", "service", (sub, run_at), lane, req);
            tracer.span(
                "execute",
                "executor.master",
                (run_at, tracer.at(end)),
                lane,
                req,
            );
        }
    }
    p.makespan = last.duration_since(t0).as_secs_f64();
    p.clean_at_idle = s.svc.reserved_pages() == 0 && s.svc.pinned_pages() == 0;
    if !p.clean_at_idle {
        eprintln!(
            "ledger at idle: reserved {} pinned {}",
            s.svc.reserved_pages(),
            s.svc.pinned_pages()
        );
    }
    p
}

fn all(p: &Phase) -> Vec<f64> {
    p.latency.concat()
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut times = SetupTimes::default();
    let s = times.repeat(tracer, |tr, t| setup(args.seed, tr, t));
    tracer.set_on(false);
    // Warm-up: one request of each class, answers checked like any other.
    let warm = replay_warm(&s);
    let secs = args.seconds as f64;
    let mut m = Sheet::default();
    let p = if !args.trace {
        let p = replay(&s, args.seed, secs, tracer);
        let completed = (p.attempted - p.failed) as f64;
        let lat = all(&p);
        m.put("setup_s", median(&times.wall), "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m.put("ok_frac", completed / p.attempted.max(1) as f64, "ratio");
        m.put("makespan_s", p.makespan, "s");
        m.put("query_p50_ms", median(&lat), "ms");
        m.put("query_mean_ms", mean(&lat), "ms");
        m.put("completed_qps", completed / p.makespan, "1/s");
        p
    } else {
        // Both halves replay the same schedule, so their latencies differ
        // by the tracing alone (and noise).
        let base = replay(&s, args.seed ^ 0xB45E, secs / 2.0, tracer);
        tracer.set_on(true);
        let p = replay(&s, args.seed, secs / 2.0, tracer);
        for (c, name, tail) in [(0, "interactive", 0.95), (1, "batch", 0.90)] {
            let pct = (tail * 100.0f64).round();
            for (what, v) in [
                ("queue_wait", &p.queue[c]),
                ("exec", &p.exec[c]),
                ("latency", &p.latency[c]),
            ] {
                m.put(format!("service.{name}.{what}_ms_p50"), median(v), "ms");
                m.put_opt(
                    format!("service.{name}.{what}_ms_p{pct}"),
                    percentile(v, tail),
                    "ms",
                );
            }
            m.put(
                format!("service.{name}.requests"),
                p.latency[c].len() as f64,
                "count",
            );
            m.put(format!("service.{name}.shed"), p.shed[c] as f64, "count");
            m.put(
                format!("service.{name}.deadline_cancelled"),
                p.cancelled[c] as f64,
                "count",
            );
        }
        m.put("service.queue_depth_max", p.queue_depth_max as f64, "count");
        let hints = (!p.retry_after_ms.is_empty()).then(|| mean(&p.retry_after_ms));
        m.put_opt("service.retry_after_ms_mean", hints, "ms");
        times.sheet(&mut m);
        times.self_times(&mut m, tracer, 1.0);
        let ratio = median(&p.latency[0]) / median(&base.latency[0]);
        m.put("trace.overhead_ratio", ratio, "ratio");
        m.put("samples.requests", all(&p).len() as f64, "count");
        let mut merged = p;
        merged.attempted += base.attempted;
        merged.failed += base.failed;
        merged.wrong += base.wrong;
        merged.clean_at_idle &= base.clean_at_idle;
        merged
    };
    let late_p95 = percentile(&p.late_ms, 0.95).unwrap_or(0.0);
    let late_max = p.late_ms.iter().copied().fold(0.0, f64::max);
    if args.trace {
        m.put("workload.gen_late_ms_p95", late_p95, "ms");
        m.put("workload.gen_late_ms_max", late_max, "ms");
    }
    let behind = late_p95 > LATE_P95_MS || late_max > LATE_MAX_MS;
    if behind {
        eprintln!(
            "invalid run: generator behind schedule (p95 {late_p95:.2} ms, max {late_max:.2} ms)"
        );
    }
    eprintln!(
        "samples: {} interactive, {} batch requests, {} set-ups",
        p.latency[0].len(),
        p.latency[1].len(),
        times.wall.len()
    );
    let cfg = service_config().exec;
    let out = Outcome {
        correct: !behind && p.clean_at_idle && p.wrong == 0 && warm,
        attempted: p.attempted,
        failed: p.failed,
        metrics: m,
        machine: (cfg.machine.n_procs, cfg.scale, cfg.bufpool_pages),
    };
    s.svc.shutdown();
    out
}

/// One request of each class, waited for; `true` when both answer right.
fn replay_warm(s: &Setup) -> bool {
    [
        (
            QueryClass::Interactive,
            s.lookup.clone(),
            range_answer(&s.thin_keys, THIN_BLEN, 0, LOOKUP_WIDTH - 1).rows,
        ),
        (QueryClass::Batch, s.scan_join.clone(), s.join_rows),
    ]
    .into_iter()
    .all(|(class, run, want)| {
        match s
            .svc
            .submit(QueryRequest {
                tenant: 0,
                class,
                run,
            })
            .map(Ticket::wait)
        {
            Ok(o) => o.status == QueryStatus::Completed { rows: want },
            Err(_) => false,
        }
    })
}
