//! Per-layer counters of the batch workloads, folded from the
//! `ExecReport`s the executor returns and the scheduler's trace records.
//!
//! Machine-level counters (disk classes, buffer pool, CPU time, the
//! hot-path registry) are cumulative over a machine's life; a workload
//! that reuses one `ExecSession` passes the previous report's snapshot so
//! only the batch's own share is counted.

use xprs_executor::{ExecMetrics, ExecReport};
use xprs_obs::HistSnapshot;
use xprs_scheduler::TraceRecord;
use xprs_storage::PoolStats;

use crate::common::Sheet;

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("makespan_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_mean_ms", "ms"),
    ("completed_qps", "1/s"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload; `-1`
/// marks a figure the workload's public API does not expose.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("disk.requests.sequential", "count"),
    ("disk.requests.almost_sequential", "count"),
    ("disk.requests.random", "count"),
    ("disk.busy_s.sequential", "s"),
    ("disk.busy_s.almost_sequential", "s"),
    ("disk.busy_s.random", "s"),
    ("disk.util", "ratio"),
    ("disk.requests_per_read", "ratio"),
    ("storage.bufpool.hit_rate", "ratio"),
    ("storage.bufpool.misses", "count"),
    ("storage.bufpool.evictions", "count"),
    ("storage.bufpool.bypasses", "count"),
    ("storage.bufpool.pinned_at_exit", "count"),
    ("storage.runs.merge_fanout", "count"),
    ("storage.runs.runs", "count"),
    ("storage.runs.run_rows", "count"),
    ("storage.runs.hot_keys", "count"),
    ("storage.runs.way_rows_max_over_mean", "ratio"),
    ("storage.load_s", "s"),
    ("scheduler.decisions", "count"),
    ("scheduler.paired_frac", "ratio"),
    ("scheduler.paired_bw", "io/s"),
    ("scheduler.paired_in_band", "ratio"),
    ("scheduler.fluid_makespan_s", "s"),
    ("scheduler.model_ratio", "ratio"),
    ("scheduler.predict_substitutions", "count"),
    ("scheduler.recalibrations", "count"),
    ("executor.master.staffed", "count"),
    ("executor.master.adjusts", "count"),
    ("executor.master.heartbeats", "count"),
    ("executor.master.patrol_ticks", "count"),
    ("executor.master.recoveries", "count"),
    ("executor.master.pool_threads", "count"),
    ("executor.master.pool_jobs", "count"),
    ("executor.master.unstaffed_s", "s"),
    ("executor.master.grant_waits", "count"),
    ("executor.master.granted_pages", "count"),
    ("executor.master.released_pages", "count"),
    ("executor.master.spill_chunks", "count"),
    ("executor.master.spill_rows", "count"),
    ("executor.master.footprint_overruns", "count"),
    ("executor.steal.steals", "count"),
    ("executor.steal.steal_fails", "count"),
    ("executor.steal.morsel_ms_mean", "ms"),
    ("executor.steal.idle_ms", "ms"),
    ("executor.io.cpu_busy_s", "s"),
    ("executor.io.gate_wait_ms_sum", "ms"),
    ("executor.io.gate_wait_ms_max", "ms"),
    ("executor.io.retries", "count"),
    ("executor.io.faults", "count"),
    ("service.interactive.queue_wait_ms_p50", "ms"),
    ("service.interactive.queue_wait_ms_p95", "ms"),
    ("service.interactive.exec_ms_p50", "ms"),
    ("service.interactive.exec_ms_p95", "ms"),
    ("service.interactive.latency_ms_p50", "ms"),
    ("service.interactive.latency_ms_p95", "ms"),
    ("service.interactive.requests", "count"),
    ("service.interactive.shed", "count"),
    ("service.interactive.deadline_cancelled", "count"),
    ("service.batch.queue_wait_ms_p50", "ms"),
    ("service.batch.queue_wait_ms_p90", "ms"),
    ("service.batch.exec_ms_p50", "ms"),
    ("service.batch.exec_ms_p90", "ms"),
    ("service.batch.latency_ms_p50", "ms"),
    ("service.batch.latency_ms_p90", "ms"),
    ("service.batch.requests", "count"),
    ("service.batch.shed", "count"),
    ("service.batch.deadline_cancelled", "count"),
    ("service.queue_depth_max", "count"),
    ("service.retry_after_ms_mean", "ms"),
    ("optimizer.plan_ms_mean", "ms"),
    ("optimizer.plan_ms_max", "ms"),
    ("workload.gen_late_ms_p95", "ms"),
    ("workload.gen_late_ms_max", "ms"),
    ("self_s.workload", "s"),
    ("self_s.storage", "s"),
    ("self_s.optimizer", "s"),
    ("self_s.scheduler", "s"),
    ("self_s.executor.master", "s"),
    ("self_s.executor.steal", "s"),
    ("self_s.service", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("samples.setups", "count"),
    ("samples.batches", "count"),
    ("samples.queries", "count"),
    ("samples.requests", "count"),
];

/// The cumulative machine-level figures of one report.
#[derive(Debug, Clone, Default)]
pub struct MachineSnap {
    disk_counts: [u64; 3],
    disk_busy: [f64; 3],
    pool: PoolStats,
    cpu_busy: f64,
    pool_threads: u64,
    hot: Option<HotSnap>,
}

/// The hot-path registry (present only with `ExecConfig::with_obs`).
#[derive(Debug, Clone)]
struct HotSnap {
    steals: u64,
    steal_fails: u64,
    retries: u64,
    faults: u64,
    hot_keys: u64,
    morsel_ns: HistSnapshot,
    idle_ns: HistSnapshot,
    gate_ns: HistSnapshot,
    fanout: HistSnapshot,
    runs: HistSnapshot,
    run_rows: HistSnapshot,
    way_rows: HistSnapshot,
}

impl HotSnap {
    fn of(m: &ExecMetrics) -> Self {
        HotSnap {
            steals: m.steals.get(),
            steal_fails: m.steal_fails.get(),
            retries: m.io_retries.get(),
            faults: m.io_faults.get(),
            hot_keys: m.hot_keys.get(),
            morsel_ns: m.morsel_ns.snapshot(),
            idle_ns: m.steal_idle_ns.snapshot(),
            gate_ns: m.gate_wait_ns.snapshot(),
            fanout: m.merge_fanout.snapshot(),
            runs: m.merge_runs.snapshot(),
            run_rows: m.merge_run_rows.snapshot(),
            way_rows: m.merge_way_rows.snapshot(),
        }
    }
}

impl MachineSnap {
    pub fn of(r: &ExecReport) -> Self {
        let mut s = MachineSnap {
            pool: r.stats.pool,
            cpu_busy: r.cpu_busy,
            pool_threads: r.pool_threads,
            hot: r.metrics.as_deref().map(HotSnap::of),
            ..MachineSnap::default()
        };
        for d in &r.disk_classes {
            for c in 0..3 {
                s.disk_counts[c] += d.counts[c];
                s.disk_busy[c] += d.busy[c];
            }
        }
        s
    }
}

/// Sum and count of a histogram's samples since `before`, and its max.
fn hist_delta(after: &HistSnapshot, before: Option<&HistSnapshot>) -> (f64, f64, f64) {
    let d = before.map_or_else(|| after.clone(), |b| after.diff(b));
    (d.sum as f64, d.count as f64, after.max as f64)
}

/// Running totals over a run's measured batches.
#[derive(Debug, Default)]
pub struct Totals {
    batches: u64,
    sim_makespan: f64,
    n_disks: u32,
    disk_counts: [u64; 3],
    disk_busy: [f64; 3],
    pool: PoolStats,
    pinned_at_exit: u64,
    cpu_busy: f64,
    pool_threads: u64,
    pool_jobs: u64,
    staffed: u64,
    adjusts: u64,
    heartbeats: u64,
    patrol_ticks: u64,
    recoveries: u64,
    recalibrations: u64,
    grant_waits: u64,
    granted: u64,
    released: u64,
    spill_chunks: u64,
    spill_rows: u64,
    footprint_overruns: u64,
    decisions: u64,
    predicts: u64,
    window_time: f64,
    paired_time: f64,
    paired_bw_sum: f64,
    paired_bw_n: f64,
    in_band: u64,
    fluid: Vec<f64>,
    ratio: Vec<f64>,
    hot: bool,
    steals: u64,
    steal_fails: u64,
    retries: u64,
    faults: u64,
    hot_keys: u64,
    morsel: (f64, f64),
    idle_ns: f64,
    gate: (f64, f64),
    gate_max: f64,
    fanout: (f64, f64),
    runs: (f64, f64),
    run_rows: (f64, f64),
    way_skew: f64,
}

impl Totals {
    /// Fold one batch: its report, the machine snapshot before it (`None`
    /// for a fresh machine), its trace records and its wall makespan.
    pub fn add(
        &mut self,
        r: &ExecReport,
        before: Option<&MachineSnap>,
        records: &[TraceRecord],
        makespan: f64,
    ) {
        let after = MachineSnap::of(r);
        let zero = MachineSnap::default();
        let b = before.unwrap_or(&zero);
        self.batches += 1;
        self.n_disks = r.machine.n_disks;
        if r.scale > 0.0 {
            self.sim_makespan += makespan / r.scale;
        }
        for c in 0..3 {
            self.disk_counts[c] += after.disk_counts[c] - b.disk_counts[c];
            self.disk_busy[c] += after.disk_busy[c] - b.disk_busy[c];
        }
        self.pool.hits += after.pool.hits - b.pool.hits;
        self.pool.misses += after.pool.misses - b.pool.misses;
        self.pool.evictions += after.pool.evictions - b.pool.evictions;
        self.pool.bypasses += after.pool.bypasses - b.pool.bypasses;
        self.pinned_at_exit = self.pinned_at_exit.max(r.pool_pinned_at_exit);
        self.cpu_busy += after.cpu_busy - b.cpu_busy;
        self.pool_threads += after.pool_threads - b.pool_threads;
        self.pool_jobs += r.pool_jobs;
        for p in &r.profiles {
            self.staffed += p.fragments.iter().map(|f| f.staffed).sum::<u64>();
        }
        self.adjusts += r.adjusts;
        self.heartbeats += r.heartbeats;
        self.patrol_ticks += r.patrol_ticks;
        self.recoveries += r.worker_recoveries;
        self.recalibrations += r.recalibrations;
        self.grant_waits += r.mem_grant_waits;
        self.granted += r.mem_granted_pages;
        self.released += r.mem_released_pages;
        self.spill_chunks += r.spill_chunks;
        self.spill_rows += r.spill_rows;
        self.footprint_overruns += r.footprint_overruns;
        self.decisions += records
            .iter()
            .filter(|x| matches!(x, TraceRecord::Decide { .. }))
            .count() as u64;
        self.predicts += records
            .iter()
            .filter(|x| matches!(x, TraceRecord::Predict { .. }))
            .count() as u64;
        let audit = r.utilization_audit();
        for w in &audit.windows {
            self.window_time += w.t1 - w.t0;
            if w.paired {
                self.paired_time += w.t1 - w.t0;
            }
        }
        if audit.paired_requests > 0 {
            self.paired_bw_sum += audit.paired_bw;
            self.paired_bw_n += 1.0;
        }
        self.in_band += u64::from(audit.paired_in_band);
        if let Some(h) = &after.hot {
            let hb = b.hot.as_ref();
            self.hot = true;
            self.steals += h.steals - hb.map_or(0, |x| x.steals);
            self.steal_fails += h.steal_fails - hb.map_or(0, |x| x.steal_fails);
            self.retries += h.retries - hb.map_or(0, |x| x.retries);
            self.faults += h.faults - hb.map_or(0, |x| x.faults);
            self.hot_keys += h.hot_keys - hb.map_or(0, |x| x.hot_keys);
            let add = |acc: &mut (f64, f64), (s, n, _): (f64, f64, f64)| {
                acc.0 += s;
                acc.1 += n;
            };
            add(
                &mut self.morsel,
                hist_delta(&h.morsel_ns, hb.map(|x| &x.morsel_ns)),
            );
            self.idle_ns += hist_delta(&h.idle_ns, hb.map(|x| &x.idle_ns)).0;
            let gate = hist_delta(&h.gate_ns, hb.map(|x| &x.gate_ns));
            add(&mut self.gate, gate);
            self.gate_max = self.gate_max.max(gate.2);
            add(
                &mut self.fanout,
                hist_delta(&h.fanout, hb.map(|x| &x.fanout)),
            );
            add(&mut self.runs, hist_delta(&h.runs, hb.map(|x| &x.runs)));
            add(
                &mut self.run_rows,
                hist_delta(&h.run_rows, hb.map(|x| &x.run_rows)),
            );
            let (sum, n, max) = hist_delta(&h.way_rows, hb.map(|x| &x.way_rows));
            if n > 0.0 && sum > 0.0 {
                self.way_skew = self.way_skew.max(max / (sum / n));
            }
        }
    }

    /// Record the fluid model's makespan estimate for the batch whose
    /// realized makespan was `makespan` wall seconds at `scale`.
    pub fn add_fluid(&mut self, fluid: f64, makespan: f64, scale: f64) {
        self.fluid.push(fluid);
        if scale > 0.0 && fluid > 0.0 {
            self.ratio.push(makespan / scale / fluid);
        }
    }

    /// Per-layer metrics; counts are per batch.
    pub fn sheet(&self, s: &mut Sheet, unstaffed_s: f64) {
        let n = self.batches.max(1) as f64;
        let per = |v: u64| v as f64 / n;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let classes = ["sequential", "almost_sequential", "random"];
        for (c, name) in classes.iter().enumerate() {
            s.put(
                format!("disk.requests.{name}"),
                per(self.disk_counts[c]),
                "count",
            );
        }
        for (c, name) in classes.iter().enumerate() {
            s.put(format!("disk.busy_s.{name}"), self.disk_busy[c] / n, "s");
        }
        let busy: f64 = self.disk_busy.iter().sum();
        let util = if self.sim_makespan > 0.0 {
            Some(busy / (self.n_disks as f64 * self.sim_makespan))
        } else {
            (busy == 0.0).then_some(0.0)
        };
        s.put_opt("disk.util", util, "ratio");
        let requests: u64 = self.disk_counts.iter().sum();
        let disk_reads = self.pool.misses + self.pool.bypasses;
        s.put(
            "disk.requests_per_read",
            ratio(requests as f64, disk_reads as f64),
            "ratio",
        );

        s.put("storage.bufpool.hit_rate", self.pool.hit_rate(), "ratio");
        s.put("storage.bufpool.misses", per(self.pool.misses), "count");
        s.put(
            "storage.bufpool.evictions",
            per(self.pool.evictions),
            "count",
        );
        s.put("storage.bufpool.bypasses", per(self.pool.bypasses), "count");
        s.put(
            "storage.bufpool.pinned_at_exit",
            self.pinned_at_exit as f64,
            "count",
        );
        let hot = |v: f64| if self.hot { Some(v) } else { None };
        s.put_opt(
            "storage.runs.merge_fanout",
            hot(ratio(self.fanout.0, self.fanout.1)),
            "count",
        );
        s.put_opt(
            "storage.runs.runs",
            hot(ratio(self.runs.0, self.runs.1)),
            "count",
        );
        s.put_opt(
            "storage.runs.run_rows",
            hot(ratio(self.run_rows.0, self.run_rows.1)),
            "count",
        );
        s.put_opt("storage.runs.hot_keys", hot(per(self.hot_keys)), "count");
        s.put_opt(
            "storage.runs.way_rows_max_over_mean",
            hot(self.way_skew),
            "ratio",
        );

        s.put("scheduler.decisions", per(self.decisions), "count");
        s.put(
            "scheduler.paired_frac",
            ratio(self.paired_time, self.window_time),
            "ratio",
        );
        s.put(
            "scheduler.paired_bw",
            ratio(self.paired_bw_sum, self.paired_bw_n),
            "io/s",
        );
        s.put("scheduler.paired_in_band", per(self.in_band), "ratio");
        let fluid = (!self.fluid.is_empty()).then(|| crate::common::median(&self.fluid));
        s.put_opt("scheduler.fluid_makespan_s", fluid, "s");
        let model = (!self.ratio.is_empty()).then(|| crate::common::median(&self.ratio));
        s.put_opt("scheduler.model_ratio", model, "ratio");
        s.put(
            "scheduler.predict_substitutions",
            per(self.predicts),
            "count",
        );
        s.put(
            "scheduler.recalibrations",
            per(self.recalibrations),
            "count",
        );

        s.put("executor.master.staffed", per(self.staffed), "count");
        s.put("executor.master.adjusts", per(self.adjusts), "count");
        s.put("executor.master.heartbeats", per(self.heartbeats), "count");
        s.put(
            "executor.master.patrol_ticks",
            per(self.patrol_ticks),
            "count",
        );
        s.put("executor.master.recoveries", per(self.recoveries), "count");
        s.put(
            "executor.master.pool_threads",
            per(self.pool_threads),
            "count",
        );
        s.put("executor.master.pool_jobs", per(self.pool_jobs), "count");
        s.put("executor.master.unstaffed_s", unstaffed_s / n, "s");
        s.put(
            "executor.master.grant_waits",
            per(self.grant_waits),
            "count",
        );
        s.put("executor.master.granted_pages", per(self.granted), "count");
        s.put(
            "executor.master.released_pages",
            per(self.released),
            "count",
        );
        s.put(
            "executor.master.spill_chunks",
            per(self.spill_chunks),
            "count",
        );
        s.put("executor.master.spill_rows", per(self.spill_rows), "count");
        s.put(
            "executor.master.footprint_overruns",
            per(self.footprint_overruns),
            "count",
        );

        s.put_opt("executor.steal.steals", hot(per(self.steals)), "count");
        s.put_opt(
            "executor.steal.steal_fails",
            hot(per(self.steal_fails)),
            "count",
        );
        let morsel_ms = ratio(self.morsel.0, self.morsel.1) / 1e6;
        s.put_opt("executor.steal.morsel_ms_mean", hot(morsel_ms), "ms");
        s.put_opt("executor.steal.idle_ms", hot(self.idle_ns / 1e6 / n), "ms");

        s.put("executor.io.cpu_busy_s", self.cpu_busy / n, "s");
        s.put_opt(
            "executor.io.gate_wait_ms_sum",
            hot(self.gate.0 / 1e6 / n),
            "ms",
        );
        s.put_opt(
            "executor.io.gate_wait_ms_max",
            hot(self.gate_max / 1e6),
            "ms",
        );
        s.put_opt("executor.io.retries", hot(per(self.retries)), "count");
        s.put_opt("executor.io.faults", hot(per(self.faults)), "count");
    }
}
