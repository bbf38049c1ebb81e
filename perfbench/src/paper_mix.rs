//! `paper_mix`: the paper's §3 Extreme multi-user mix — five extremely
//! IO-bound and five extremely CPU-bound selections over their own
//! relations, submitted together under INTER-WITH-ADJ on the throttled
//! paper machine with executor defaults.
//!
//! The mix's shape — each task's I/O rate and length — is the generator's
//! Extreme mix for seed 42, the mix the first baseline was taken on; the
//! makespan of one mix repeats within ±2%, while freshly drawn mixes differ
//! by more than ±10% from one another, which would drown any change to the
//! engine. `--seed` draws every tuple's key and where each query's
//! selection window (three quarters of the key domain) lies; the window's
//! width is fixed because the declared profile, and so the schedule,
//! follows the selectivity. The queries are submitted in generator order: INTER-WITH-ADJ's
//! makespan on this one mix ranges over 1.2–1.6 s wall with the
//! submission order alone, so a drawn order would drown a change too.

use std::sync::Arc;
use std::time::Instant;

use xprs_disk::StripedLayout;
use xprs_executor::{ExecConfig, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::{AdaptiveConfig, AdaptiveScheduler, FluidSim, TaskId, TaskProfile};
use xprs_storage::{Catalog, Schema};
use xprs_workload::{LengthModel, WorkloadConfig, WorkloadGenerator, WorkloadKind};

use crate::batch::{Batch, Runner};
use crate::common::{range_answer, tuple, Rng};
use crate::trace::Tracer;
use crate::{Args, Outcome, SetupTimes};

/// Wall seconds per simulated second: 10x faster than the paper machine.
pub const SCALE: f64 = 1.0 / 10.0;
/// Distinct values of the selection attribute `a`.
const KEYS: u64 = 1000;
/// Keys each selection keeps.
const WINDOW: u64 = 750;
/// Generator seed of the mix's shape.
const MIX_SEED: u64 = 42;

pub fn exec_config() -> ExecConfig {
    ExecConfig::scaled(1.0 / SCALE)
}

/// Generate, load and plan the mix.
fn setup(seed: u64, tracer: &mut Tracer, times: &mut SetupTimes) -> Batch {
    let t0 = tracer.now();
    let root = tracer.span("setup", "workload", (t0, t0), 0, None);
    let mut rng = Rng::new(seed);
    let config = WorkloadConfig {
        length: LengthModel::SeqTime {
            min: 1.0,
            max: 10.0,
        },
        ..WorkloadConfig::paper(WorkloadKind::Extreme, MIX_SEED)
    };
    let mix = WorkloadGenerator::new().generate(&config);
    let threshold = exec_config().machine.total_bandwidth() / exec_config().machine.n_procs as f64;
    let mut cat = Catalog::new(StripedLayout::new(exec_config().machine.n_disks));
    let optimizer = TwoPhaseOptimizer::paper_default();
    let (mut runs, mut answers, mut labels) = (Vec::new(), Vec::new(), Vec::new());
    for t in &mix.tasks {
        let g = Instant::now();
        let keys: Vec<i32> = (0..t.n_tuples).map(|_| rng.below(KEYS) as i32).collect();
        let lo = rng.below(KEYS - WINDOW + 1) as i32;
        let hi = lo + WINDOW as i32 - 1;
        answers.push(range_answer(&keys, t.blen, lo, hi));
        tracer.span_since("generate", "workload", g, root);
        // Tuples are built as they are loaded: a relation of page-sized
        // tuples is never held twice.
        let l = Instant::now();
        cat.create(&t.relation, Schema::paper_rel());
        cat.load(&t.relation, keys.iter().map(|&k| tuple(k, t.blen)));
        times.load_s += l.elapsed().as_secs_f64();
        tracer.span_since("load", "storage", l, root);
        let p = Instant::now();
        let query = Query::selection(&t.relation, WINDOW as f64 / KEYS as f64);
        let optimized = optimizer
            .optimize_catalog(&cat, &query, Costing::SeqCost)
            .expect("a selection always has a plan");
        times.plan_ms.push(p.elapsed().as_secs_f64() * 1e3);
        tracer.span_since("plan", "optimizer", p, root);
        let name = t.relation.clone();
        runs.push(QueryRun {
            optimized,
            bindings: vec![RelBinding {
                name,
                pred: (lo, hi),
            }],
        });
        let class = if t.profile.io_rate > threshold {
            "io"
        } else {
            "cpu"
        };
        labels.push(format!("{}/{class}", t.relation));
    }
    tracer.close(root);
    Batch {
        cat: Arc::new(cat),
        runs,
        answers,
        labels,
    }
}

/// The fluid model's makespan for the batch's fragments, in simulated s.
fn fluid_estimate(batch: &Batch) -> f64 {
    let machine = exec_config().machine;
    let tasks: Vec<TaskProfile> = batch
        .runs
        .iter()
        .flat_map(|r| {
            r.optimized
                .fragments
                .fragments
                .iter()
                .map(|f| f.profile.clone())
        })
        .enumerate()
        .map(|(i, mut p)| {
            p.id = TaskId(i as u64);
            p
        })
        .collect();
    let mut cfg = AdaptiveConfig::with_adjustment(machine.clone());
    cfg.integral = false;
    FluidSim::new(machine)
        .run(&mut AdaptiveScheduler::new(cfg), &tasks)
        .map_or(f64::NAN, |r| r.elapsed)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut times = SetupTimes::default();
    let batch = times.repeat(tracer, |tr, t| setup(args.seed, tr, t));
    let mut runner = Runner::new(exec_config(), &batch.cat, false);
    crate::measure_batches(
        args,
        tracer,
        &mut runner,
        &batch,
        times,
        |totals, tracer, makespans| {
            let f0 = tracer.now();
            let fluid = fluid_estimate(&batch);
            let f1 = tracer.now();
            tracer.span("fluid estimate", "scheduler", (f0, f1), 0, None);
            for &m in makespans {
                totals.add_fluid(fluid, m, SCALE);
            }
        },
    )
}
