//! `cached_joins`: concurrent joins over relations that fit in the buffer
//! pool, run unthrottled on a simulated machine with as many processors as
//! the host has, on one long-lived `ExecSession` whose pool a warm-up
//! batch fills. One batch holds
//!
//! * the 200k ⋈ 8k uniform-key hash join, the large side as build input;
//! * a Zipf(θ = 1) pair joined once as a key-domain merge join,
//! * and once as a hash-probe join (thin build side, dense probe side).
//!
//! The seed draws every key. Zipf pairs are kept only when their join
//! output lies within ±2% of its expectation: at θ = 1 one key carries a
//! tenth of each side, so an unconditioned draw moves the output — and
//! the work — by several percent from seed to seed.

use std::sync::Arc;
use std::time::Instant;

use xprs_disk::StripedLayout;
use xprs_executor::{ExecConfig, QueryRun, RelBinding};
use xprs_optimizer::cost::{CostModel, RelInfo};
use xprs_optimizer::{decompose, OptimizedQuery, Plan};
use xprs_storage::{Catalog, Schema, Tuple};
use xprs_workload::zipf_keys;

use crate::batch::{Batch, Runner};
use crate::common::{hash_join_answer, tuple, Rng};
use crate::trace::Tracer;
use crate::{Args, Outcome, SetupTimes};

const BIG: u64 = 200_000;
const SMALL: u64 = 8_000;
const UNIFORM_KEYS: u64 = 1_000_000;
const ZIPF_THETA: f64 = 1.0;
const ZIPF_KEYS: u64 = 10_000;
const ZIPF_BUILD: u64 = 1_000;
const ZIPF_BUILD_BLEN: usize = 8;
const ZIPF_PROBE: u64 = 15_000;
const ZIPF_PROBE_BLEN: usize = 120;
const ZIPF_TOLERANCE: f64 = 0.02;
/// Pool frames: every relation (about 600 pages) fits with room to spare.
const POOL_PAGES: usize = 2048;

pub fn exec_config() -> ExecConfig {
    let mut cfg = ExecConfig::unthrottled();
    cfg.machine.n_procs = crate::common::available_parallelism() as u32;
    cfg.bufpool_pages = POOL_PAGES;
    cfg
}

/// Expected Zipf join output: `build · probe · Σ p_k²`.
fn zipf_expected_output() -> f64 {
    let w: Vec<f64> = (1..=ZIPF_KEYS)
        .map(|k| (k as f64).powf(-ZIPF_THETA))
        .collect();
    let h: f64 = w.iter().sum();
    let sq: f64 = w.iter().map(|x| (x / h) * (x / h)).sum();
    ZIPF_BUILD as f64 * ZIPF_PROBE as f64 * sq
}

/// Zipf keys for both sides, redrawn until the output is near its mean.
fn zipf_pair(rng: &mut Rng) -> (Vec<i32>, Vec<i32>) {
    let want = zipf_expected_output();
    loop {
        let build = zipf_keys(rng.next_u64(), ZIPF_THETA, ZIPF_KEYS, ZIPF_BUILD);
        let probe = zipf_keys(rng.next_u64(), ZIPF_THETA, ZIPF_KEYS, ZIPF_PROBE);
        let mut per_key = vec![0u64; ZIPF_KEYS as usize];
        for &k in &build {
            per_key[k as usize] += 1;
        }
        let out: u64 = probe.iter().map(|&k| per_key[k as usize]).sum();
        if (out as f64 / want - 1.0).abs() <= ZIPF_TOLERANCE {
            return (build, probe);
        }
    }
}

/// A hand-pinned two-relation plan, costed and decomposed by the
/// optimizer (pinned so the sides under test cannot be flipped).
fn pinned(cat: &Catalog, plan: Plan, rels: [&str; 2]) -> OptimizedQuery {
    let infos: Vec<RelInfo> = rels
        .iter()
        .map(|n| {
            let s = cat.get(n).expect("benchmark relation").stats();
            RelInfo {
                n_tuples: s.n_tuples as f64,
                n_blocks: s.n_blocks as f64,
                n_distinct: s.n_distinct_a as f64,
                selectivity: 1.0,
                has_index: false,
                clustered: false,
            }
        })
        .collect();
    let costed = CostModel::paper_default().cost_plan(&plan, &infos);
    let fragments = decompose(&plan, &costed, 0);
    OptimizedQuery {
        seqcost: costed.cost.total_cost,
        parcost: 0.0,
        plan,
        fragments,
    }
}

fn setup(seed: u64, tracer: &mut Tracer, times: &mut SetupTimes) -> Batch {
    let t0 = tracer.now();
    let root = tracer.span("setup", "workload", (t0, t0), 0, None);
    let mut rng = Rng::new(seed ^ 0x00CA_C4ED);
    let g = Instant::now();
    let uniform = |rng: &mut Rng, n| -> Vec<Tuple> {
        (0..n)
            .map(|_| tuple(rng.below(UNIFORM_KEYS) as i32, 0))
            .collect()
    };
    let big = uniform(&mut rng, BIG);
    let small = uniform(&mut rng, SMALL);
    let (zb, zp) = zipf_pair(&mut rng);
    let zbuild: Vec<Tuple> = zb.into_iter().map(|k| tuple(k, ZIPF_BUILD_BLEN)).collect();
    let zprobe: Vec<Tuple> = zp.into_iter().map(|k| tuple(k, ZIPF_PROBE_BLEN)).collect();
    let uniform_answer = hash_join_answer(&big, &small);
    let zipf_answer = hash_join_answer(&zbuild, &zprobe);
    tracer.span_since("generate", "workload", g, root);

    let l = Instant::now();
    let mut cat = Catalog::new(StripedLayout::new(exec_config().machine.n_disks));
    for (name, rows) in [
        ("big", big),
        ("small", small),
        ("zbuild", zbuild),
        ("zprobe", zprobe),
    ] {
        cat.create(name, Schema::paper_rel());
        cat.load(name, rows);
    }
    times.load_s += l.elapsed().as_secs_f64();
    tracer.span_since("load", "storage", l, root);

    let scan = |rel| Box::new(Plan::SeqScan { rel });
    let plans = [
        (
            "uniform_hash",
            Plan::HashJoin {
                build: scan(0),
                probe: scan(1),
            },
            ["big", "small"],
        ),
        (
            "zipf_merge",
            Plan::MergeJoin {
                left: scan(0),
                right: scan(1),
            },
            ["zbuild", "zprobe"],
        ),
        (
            "zipf_hash",
            Plan::HashJoin {
                build: scan(0),
                probe: scan(1),
            },
            ["zbuild", "zprobe"],
        ),
    ];
    let mut runs = Vec::new();
    let mut labels = Vec::new();
    for (label, plan, rels) in plans {
        let p = Instant::now();
        let optimized = pinned(&cat, plan, rels);
        times.plan_ms.push(p.elapsed().as_secs_f64() * 1e3);
        tracer.span_since("plan", "optimizer", p, root);
        let bindings = rels
            .iter()
            .map(|n| RelBinding {
                name: n.to_string(),
                pred: (i32::MIN, i32::MAX),
            })
            .collect();
        runs.push(QueryRun {
            optimized,
            bindings,
        });
        labels.push(label.to_string());
    }
    tracer.close(root);
    Batch {
        cat: Arc::new(cat),
        runs,
        answers: vec![uniform_answer, zipf_answer, zipf_answer],
        labels,
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut times = SetupTimes::default();
    let (batch, mut runner) = times.repeat(tracer, |tr, t| {
        let batch = setup(args.seed, tr, t);
        let s = Instant::now();
        let runner = Runner::new(exec_config(), &batch.cat, true);
        tr.span_since("session start", "executor.master", s, None);
        (batch, runner)
    });
    crate::measure_batches(args, tracer, &mut runner, &batch, times, |_, _, _| {})
}
