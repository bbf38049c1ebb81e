//! The measured loop shared by the batch workloads (`paper_mix`,
//! `cached_joins`): submit a whole batch to `Executor::run` (or
//! `run_shared` on a long-lived session), check every answer, and keep
//! raw per-batch and per-query times.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use xprs_executor::{ExecConfig, ExecReport, ExecSession, Executor, QueryRun};
use xprs_scheduler::{AdaptiveConfig, AdaptiveScheduler, RingSink, SharedSink, TraceRecord};
use xprs_storage::Catalog;

use crate::common::{mean, median, rows_digest, Answer};
use crate::layers::{MachineSnap, Totals};
use crate::trace::{SpanId, Tracer};

/// A planned batch: the queries, their expected answers and labels.
pub struct Batch {
    pub cat: Arc<Catalog>,
    pub runs: Vec<QueryRun>,
    pub answers: Vec<Answer>,
    pub labels: Vec<String>,
}

/// Raw samples and counters of one measured phase.
#[derive(Default)]
pub struct Phase {
    /// Wall seconds from batch submit to the last result, per batch.
    pub makespans: Vec<f64>,
    /// Wall seconds from batch submit to each query's result.
    pub query_times: Vec<f64>,
    /// Per batch, the median and the mean of its query times. A median
    /// pooled over all batches would sit between two queries' completion
    /// times and so read the slowest batch's; a median over batches of
    /// each batch's own figure shrugs off a few slow batches.
    pub batch_p50s: Vec<f64>,
    pub batch_means: Vec<f64>,
    pub attempted: u64,
    /// Queries that errored or answered wrong.
    pub failed: u64,
    /// Queries that answered wrong.
    pub wrong: u64,
    /// A ledger imbalance or leftover pin was seen.
    pub dirty: bool,
    pub totals: Totals,
}

/// Executes batches of one workload under INTER-WITH-ADJ, each on a
/// fresh machine or all on one long-lived session.
pub struct Runner {
    pub cfg: ExecConfig,
    session: Option<ExecSession>,
    /// A shared runner's session with the hot-path registry, for traced
    /// batches (a session collects the registry only if started with it).
    traced_session: Option<ExecSession>,
    /// Machine snapshot after the last batch on each session (untraced,
    /// traced).
    last: [Option<MachineSnap>; 2],
}

impl Runner {
    /// `shared` runs every batch on one session (started here, so set-up
    /// times it) instead of a fresh machine per batch.
    pub fn new(cfg: ExecConfig, cat: &Arc<Catalog>, shared: bool) -> Self {
        let session = shared.then(|| Executor::new(cfg.clone(), cat.clone()).session());
        Runner {
            cfg,
            session,
            traced_session: None,
            last: [None, None],
        }
    }

    pub fn shutdown(&self) {
        for s in self.session.iter().chain(&self.traced_session) {
            s.shutdown();
        }
    }

    /// Run batches until `seconds` have passed.
    pub fn phase(&mut self, batch: &Batch, seconds: f64, tracer: &mut Tracer) -> Phase {
        let mut p = Phase::default();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds {
            self.one(batch, false, tracer, &mut p);
        }
        p
    }

    /// Alternate untraced and traced batches for `seconds`, so both see the
    /// same host conditions; returns (untraced, traced). A shared runner
    /// first starts its traced session and warms its pool with one batch,
    /// checked into `warm`.
    pub fn traced_phase(
        &mut self,
        batch: &Batch,
        seconds: f64,
        tracer: &mut Tracer,
        warm: &mut Phase,
    ) -> (Phase, Phase) {
        if self.session.is_some() {
            let cfg = self.cfg.clone().with_obs();
            self.traced_session = Some(Executor::new(cfg, batch.cat.clone()).session());
            self.one(batch, true, &mut Tracer::new(false), warm);
        }
        let (mut base, mut traced) = (Phase::default(), Phase::default());
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds {
            tracer.set_on(false);
            self.one(batch, false, tracer, &mut base);
            tracer.set_on(true);
            self.one(batch, true, tracer, &mut traced);
        }
        (base, traced)
    }

    /// Run one batch and fold its times, answers and counters into `p`; a
    /// batch that fails or answers wrong is counted in `p.failed`. `traced`
    /// turns on the executor's opt-in hooks and the benchmark's spans.
    pub fn one(&mut self, batch: &Batch, traced: bool, tracer: &mut Tracer, p: &mut Phase) {
        let cfg = if traced {
            self.cfg.clone().with_obs()
        } else {
            self.cfg.clone()
        };
        let ring = Arc::new(Mutex::new(RingSink::unbounded()));
        let mut exec = Executor::new(cfg.clone(), batch.cat.clone());
        if traced {
            exec = exec.with_trace(ring.clone() as SharedSink);
        }
        let mut policy = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(cfg.machine));
        let n = batch.runs.len() as u64;
        p.attempted += n;
        let start = tracer.now();
        let t = Instant::now();
        let session = if traced {
            &self.traced_session
        } else {
            &self.session
        };
        let result = match session {
            Some(s) => exec.run_shared(s, &batch.runs, &mut policy, &[]),
            None => exec.run(&batch.runs, &mut policy),
        };
        let makespan = t.elapsed().as_secs_f64();
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("batch failed: {e}");
                p.failed += n;
                return;
            }
        };
        p.makespans.push(makespan);
        let wrong_before = p.wrong;
        let first = p.query_times.len();
        for (i, (res, want)) in report.results.iter().zip(&batch.answers).enumerate() {
            p.query_times.push(res.finished_at);
            let got = Answer {
                rows: res.rows.rows.len() as u64,
                digest: rows_digest(res.rows.rows.iter().map(|(_, t)| t)),
            };
            if got != *want || report.cancelled.get(i).copied().unwrap_or(false) {
                eprintln!(
                    "wrong answer for {}: got {got:?}, want {want:?}",
                    batch.labels[i]
                );
                p.wrong += 1;
            }
        }
        let times = &p.query_times[first..];
        p.batch_p50s.push(median(times));
        p.batch_means.push(mean(times));
        p.failed += p.wrong - wrong_before + n.saturating_sub(report.results.len() as u64);
        if report.mem_granted_pages != report.mem_released_pages || report.pool_pinned_at_exit != 0
        {
            eprintln!(
                "ledger: granted {} released {} pinned at exit {}",
                report.mem_granted_pages, report.mem_released_pages, report.pool_pinned_at_exit
            );
            p.dirty = true;
        }
        let records = ring.lock().map(|r| r.records()).unwrap_or_default();
        if traced {
            record_spans(tracer, batch, &report, &records, start, start + makespan);
        }
        let last = &mut self.last[usize::from(traced)];
        let before = if session.is_some() {
            last.as_ref()
        } else {
            None
        };
        p.totals.add(&report, before, &records, makespan);
        *last = Some(MachineSnap::of(&report));
    }
}

/// Batch → query → fragment spans, plus the scheduler's records as
/// instant events.
fn record_spans(
    tracer: &mut Tracer,
    batch: &Batch,
    report: &ExecReport,
    records: &[TraceRecord],
    start: f64,
    end: f64,
) {
    let b: SpanId = tracer.span("batch", "executor.master", (start, end), 1, None);
    for (q, prof) in report.profiles.iter().enumerate() {
        let lane = 10 + q as u64;
        let qs = tracer.span(
            format!("query {}", batch.labels[q]),
            "executor.master",
            (start, start + prof.finished_at),
            lane,
            b,
        );
        for f in &prof.fragments {
            tracer.span(
                format!("fragment {}", f.task.0),
                "executor.steal",
                (start + f.started_at, start + f.finished_at),
                lane,
                qs,
            );
        }
    }
    for r in records {
        if let Some((name, now)) = record_instant(r) {
            tracer.mark(name, start + now, 2, format!("\"record\": {}", r.to_json()));
        }
    }
}

fn record_instant(r: &TraceRecord) -> Option<(&'static str, f64)> {
    Some(match r {
        TraceRecord::RunStart { .. } => return None,
        TraceRecord::Arrival { now, .. } => ("arrival", *now),
        TraceRecord::Finish { now, .. } => ("finish", *now),
        TraceRecord::Queues { now, .. } => ("queues", *now),
        TraceRecord::Candidate { now, .. } => ("candidate", *now),
        TraceRecord::Decide { now, .. } => ("decide", *now),
        TraceRecord::Applied { now, .. } => ("applied", *now),
        TraceRecord::Rejected { now, .. } => ("rejected", *now),
        TraceRecord::Error { now, .. } => ("error", *now),
        TraceRecord::Recalibrate { now, .. } => ("recalibrate", *now),
        TraceRecord::Predict { now, .. } => ("predict", *now),
    })
}
