//! End-to-end benchmark of the XPRS engine, split by layer.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_mix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output is one JSON object
//! holding every end-to-end metric; with `--trace 1` it holds the
//! per-layer metrics, and a Chrome trace of the run's spans is written
//! under `.bench_out/`. The workloads, the layer each isolates and the
//! first baseline are described in `perfbench/README.md`.

mod batch;
mod cached_joins;
mod common;
mod layers;
mod paper_mix;
mod service_mix;
mod trace;

use std::time::{Duration, Instant};

use crate::batch::{Phase, Runner};
use crate::common::{mean, median, peak_rss_mb, Sheet};
use crate::layers::Totals;
use crate::trace::Tracer;

/// Untimed set-ups before the timed ones: the first set-ups of a process
/// pay for heap growth and cold caches, which later ones do not.
const SETUP_WARMUPS: usize = 2;
/// Timed set-ups per run: at least `MIN_SETUPS`, then more until
/// `SETUP_WINDOW_S` has passed, at most one per `SETUP_WINDOW_S /
/// MAX_SETUPS`. `setup_s` is their median. The shared host's speed
/// shifts from one second to the next, so the set-ups are spread over
/// seconds: a millisecond set-up repeated back to back would sample one
/// such state and read it as the program's.
const MIN_SETUPS: usize = 9;
const MAX_SETUPS: usize = 300;
const SETUP_WINDOW_S: f64 = 4.0;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Sheet,
    /// Simulated processors, throttle (wall s per simulated s), pool pages.
    pub machine: (u32, f64, usize),
}

/// Set-up timings gathered over the repeated set-ups of one run.
#[derive(Default)]
pub struct SetupTimes {
    pub wall: Vec<f64>,
    pub plan_ms: Vec<f64>,
    pub load_s: f64,
}

impl SetupTimes {
    /// Run `setup` [`SETUP_WARMUPS`] times untimed and untraced, then
    /// time it as often and as spread out as [`MIN_SETUPS`],
    /// [`SETUP_WINDOW_S`] and [`MAX_SETUPS`] say, and keep the last result
    /// (earlier ones are dropped before the next starts).
    pub fn repeat<T>(
        &mut self,
        tracer: &mut Tracer,
        mut setup: impl FnMut(&mut Tracer, &mut Self) -> T,
    ) -> T {
        let traced = tracer.on();
        tracer.set_on(false);
        for _ in 0..SETUP_WARMUPS {
            drop(setup(tracer, &mut Self::default()));
        }
        tracer.set_on(traced);
        let mut kept = None;
        tracer.set_setup(true);
        let t0 = Instant::now();
        let pace = SETUP_WINDOW_S / MAX_SETUPS as f64;
        while self.wall.len() < MIN_SETUPS || t0.elapsed().as_secs_f64() < SETUP_WINDOW_S {
            drop(kept.take());
            let slot = t0 + Duration::from_secs_f64(pace * self.wall.len() as f64);
            if let Some(gap) = slot.checked_duration_since(Instant::now()) {
                std::thread::sleep(gap);
            }
            let t = Instant::now();
            let v = setup(tracer, self);
            self.wall.push(t.elapsed().as_secs_f64());
            kept = Some(v);
        }
        tracer.set_setup(false);
        kept.expect("at least one set-up")
    }

    /// `self_s.<layer>`: each layer's self time per set-up (set-up spans)
    /// plus per unit of measured work (`units`: batches, or one schedule).
    pub fn self_times(&self, s: &mut Sheet, tracer: &Tracer, units: f64) {
        let setups = self.wall.len().max(1) as f64;
        let mut total = tracer.self_times(true);
        for v in total.values_mut() {
            *v /= setups;
        }
        for (layer, v) in tracer.self_times(false) {
            *total.entry(layer).or_insert(0.0) += v / units;
        }
        for (layer, v) in total {
            s.put(format!("self_s.{layer}"), v, "s");
        }
    }

    pub fn sheet(&self, s: &mut Sheet) {
        s.put("optimizer.plan_ms_mean", mean(&self.plan_ms), "ms");
        s.put(
            "optimizer.plan_ms_max",
            self.plan_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        );
        s.put(
            "storage.load_s",
            self.load_s / self.wall.len().max(1) as f64,
            "s",
        );
        s.put("samples.setups", self.wall.len() as f64, "count");
    }
}

/// Warm up once, then measure a batch workload: untraced for the whole
/// run, or (traced) alternating untraced batches, the overhead baseline,
/// with traced ones. `extra` adds workload-specific layer figures to the traced
/// phase's totals.
pub fn measure_batches(
    args: &Args,
    tracer: &mut Tracer,
    runner: &mut Runner,
    batch: &batch::Batch,
    times: SetupTimes,
    extra: impl FnOnce(&mut Totals, &mut Tracer, &[f64]),
) -> Outcome {
    let mut warm = Phase::default();
    tracer.set_on(false);
    runner.one(batch, false, tracer, &mut warm);
    let secs = args.seconds as f64;
    let mut s = Sheet::default();
    let machine = (
        runner.cfg.machine.n_procs,
        runner.cfg.scale,
        runner.cfg.bufpool_pages,
    );
    let p = if !args.trace {
        let p = runner.phase(batch, secs, tracer);
        s.put("setup_s", median(&times.wall), "s");
        s.put("peak_rss_mb", peak_rss_mb(), "MB");
        s.put(
            "ok_frac",
            1.0 - p.failed as f64 / p.attempted.max(1) as f64,
            "ratio",
        );
        s.put("makespan_s", median(&p.makespans), "s");
        s.put("query_p50_ms", median(&p.batch_p50s) * 1e3, "ms");
        s.put("query_mean_ms", median(&p.batch_means) * 1e3, "ms");
        let busy: f64 = p.makespans.iter().sum();
        s.put(
            "completed_qps",
            (p.attempted - p.failed) as f64 / busy,
            "1/s",
        );
        p
    } else {
        let (base, mut p) = runner.traced_phase(batch, secs, tracer, &mut warm);
        extra(&mut p.totals, tracer, &p.makespans);
        let batches = p.makespans.len().max(1) as f64;
        p.totals.sheet(&mut s, tracer.self_time_of_prefix("query "));
        times.sheet(&mut s);
        times.self_times(&mut s, tracer, batches);
        s.put(
            "trace.overhead_ratio",
            median(&p.makespans) / median(&base.makespans),
            "ratio",
        );
        s.put("samples.batches", p.makespans.len() as f64, "count");
        s.put("samples.queries", p.query_times.len() as f64, "count");
        p.attempted += base.attempted;
        p.failed += base.failed;
        p.wrong += base.wrong;
        p.dirty |= base.dirty;
        p
    };
    eprintln!(
        "samples: {} batches, {} query times, {} set-ups",
        p.makespans.len(),
        p.query_times.len(),
        times.wall.len()
    );
    runner.shutdown();
    Outcome {
        correct: !p.dirty && !warm.dirty && p.wrong == 0 && warm.wrong == 0 && warm.failed == 0,
        attempted: p.attempted,
        failed: p.failed,
        metrics: s,
        machine,
    }
}

/// The run's header: where and how it ran.
fn header(args: &Args, machine: (u32, f64, usize)) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"available_parallelism\": {}, \"sim_procs\": {}, \"throttle_wall_s_per_sim_s\": {}, \
         \"pool_pages\": {}, \"commit\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        common::nproc(),
        common::available_parallelism(),
        machine.0,
        machine.1,
        machine.2,
        trace::json_str(&std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let out = match args.workload.as_str() {
        "paper_mix" => paper_mix::run(&args, &mut tracer),
        "cached_joins" => cached_joins::run(&args, &mut tracer),
        "service_mix" => service_mix::run(&args, &mut tracer),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (paper_mix, cached_joins, service_mix)"
            );
            std::process::exit(2);
        }
    };
    let header = header(&args, out.machine);
    let names = if args.trace {
        layers::PER_LAYER
    } else {
        layers::END_TO_END
    };
    let metrics = out.metrics.canonical(names);
    if args.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json(&header)));
        match written {
            Ok(()) => eprintln!("trace: {}", path.display()),
            Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
        }
    }
    println!("{{\"header\": {header}}}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.json()
    );
}
