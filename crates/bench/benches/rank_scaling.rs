//! Rank-scaling bench: NPB FT and CG at `p = 1024` on the simrt event
//! engine — runs the thread runtime cannot do at all (they would need
//! 1024 OS threads and ~2 MB of stack each). FT's cost is per-message
//! all-to-all work; CG takes twice FT's steps for about the same number
//! of sends, so its case weights cursor stepping and per-step accounting.
//!
//! The `*_timed_cursor` cases drain `plan::TimedCursor` alone — what
//! both the engine and `plan::analyze_plan` step — for every rank of the
//! specialized plan, with no engine, queue or accounting. The engine runs
//! step their cursors through the first iteration of each loop only and
//! replay the rest from a tape: FT's last 3 iterations (their
//! all-to-alls round by round), CG's last 7 outer iterations with all 25
//! inner ones, and 24 inner iterations of the first
//! (`*.folded_iterations` counts the iterations added at a repeat cut:
//! 3 and 31). FT's first two all-to-alls are played whole at a collective
//! cut rather than stepped message by message (`*.whole_collectives`: 2
//! and 0). So an engine run can take less than draining the cursors
//! alone, and the difference is no longer the engine's own share.
//!
//! Run with `cargo bench -p bench --bench rank_scaling`.
//!
//! Results land in `BENCH_simrt.json` at the repo root — a `bench/2`
//! snapshot with per-case `ns_per_iter` / `throughput_per_s` gauges, the
//! rank-step latency
//! log-histogram (`bench.rank_scaling.step_latency_s`), engine event
//! rates (`bench.rank_scaling.*.events_per_s`), per-run step/send/wake,
//! folded-iteration and whole-collective counts, and the process peak RSS after the largest run
//! (`bench.rank_scaling.peak_rss_bytes`, from `/proc/self/status`
//! `VmHWM`; 0 where unavailable). The CI `rank-scaling` job gates the
//! numbers with `analyze --bench-diff` against the committed baseline.

use bench::{merge_global_loghists, snapshot_v2_json, time_case, write_snapshot_json, CaseStats};
use plan::{CommPlan, TimedCursor};
use simrt::{Detail, EngineConfig};

const P: usize = 1024;
const ITERS: u32 = 5;

/// Peak resident set of this process in bytes (`VmHWM`), 0 if the
/// procfs field is unavailable (non-Linux hosts).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Steps of every rank's `TimedCursor` over `plan` specialized to `P`.
fn drain_timed(plan: &CommPlan) -> u64 {
    let plan = plan.specialize(P);
    let mut steps = 0;
    for rank in 0..P {
        let mut cursor = TimedCursor::new(&plan, P, rank);
        while let Some(step) = cursor.next_step().expect("NPB plans stream cleanly") {
            std::hint::black_box(&step);
            steps += 1;
        }
    }
    steps
}

fn main() {
    let world = mps::World::new(simcluster::system_g(), 2.8e9);
    let ft = npb::ft_plan(&npb::FtConfig::class(npb::Class::S));
    let cg = npb::cg_plan(&npb::CgConfig::class(npb::Class::S));
    let step_hist = obs::global().log_histogram("bench.rank_scaling.step_latency_s", "s");

    println!("rank_scaling/p{P}: NPB FT and CG class S on the simrt event engine");
    let mut cases: Vec<CaseStats> = Vec::new();
    let mut engine_stats: Vec<(&str, simrt::EngineStats)> = Vec::new();
    let cfg = EngineConfig::default().with_detail(Detail::Off);
    for (name, plan) in [("ft_p1024_seq", &ft), ("cg_p1024_seq", &cg)] {
        let mut last_stats = simrt::EngineStats::default();
        let case = time_case(name, ITERS, || {
            let out = simrt::try_run_plan_with(&cfg, &world, P, plan).expect("run completes");
            // Mean per-step engine latency, weighted by step count: the
            // engine executes millions of steps per run, so the histogram
            // is fed the per-run mean at full weight.
            if out.stats.steps > 0 {
                #[allow(clippy::cast_precision_loss)]
                step_hist.record_n(out.stats.wall_s / out.stats.steps as f64, out.stats.steps);
            }
            last_stats = out.stats.clone();
            out.report.span()
        });
        cases.push(case);
        engine_stats.push((name, last_stats));
    }

    for (name, plan) in [("ft", &ft), ("cg", &cg)] {
        let case = time_case(&format!("{name}_p{P}_timed_cursor"), ITERS, || {
            drain_timed(plan)
        });
        cases.push(case);
    }

    let reg = bench::cases_registry("bench.rank_scaling", &cases);
    #[allow(clippy::cast_precision_loss)]
    for (name, stats) in &engine_stats {
        let events_per_s = if stats.wall_s > 0.0 {
            stats.steps as f64 / stats.wall_s
        } else {
            0.0
        };
        reg.gauge(&format!("bench.rank_scaling.{name}.events_per_s"))
            .set(events_per_s);
        reg.gauge(&format!("bench.rank_scaling.{name}.steps"))
            .set(stats.steps as f64);
        reg.gauge(&format!("bench.rank_scaling.{name}.sends"))
            .set(stats.sends as f64);
        reg.gauge(&format!("bench.rank_scaling.{name}.wakes"))
            .set(stats.wakes as f64);
        reg.gauge(&format!("bench.rank_scaling.{name}.folded_iterations"))
            .set(stats.folded_iterations as f64);
        reg.gauge(&format!("bench.rank_scaling.{name}.whole_collectives"))
            .set(stats.whole_collectives as f64);
        println!(
            "  {name}: {events_per_s:.0} events/s ({} steps, {} sends)",
            stats.steps, stats.sends
        );
    }

    #[allow(clippy::cast_precision_loss)]
    reg.gauge("bench.rank_scaling.ranks").set(P as f64);
    #[allow(clippy::cast_precision_loss)]
    reg.gauge("bench.rank_scaling.peak_rss_bytes")
        .set(peak_rss_bytes() as f64);
    println!(
        "  peak RSS {:.1} MiB after {ITERS} runs per case",
        peak_rss_bytes() as f64 / (1024.0 * 1024.0)
    );

    merge_global_loghists(&reg);
    write_snapshot_json(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simrt.json"),
        &snapshot_v2_json(&reg),
    );
}
