//! The closed-loop harness shared by every workload: repeated set-up, the
//! benchmark's own untimed reference, warm-up, the timed op loop with a
//! per-op output check, and (traced run) the per-op probes.

use std::time::{Duration, Instant};

use crate::trace::{Phase, Tracer};

/// One workload: the program calls it makes and how their outputs are
/// checked.
pub trait Workload: Sized {
    /// Inputs generated from the seed (the only thing the program sees).
    type Input;
    /// What one op returns.
    type Output;
    /// The benchmark's own expected values, computed outside `setup_s`.
    type Reference;

    /// How many times set-up runs in one run (`setup_s` is the median).
    const SETUP_REPEATS: usize;

    fn inputs(seed: u64) -> Self::Input;
    /// The program's own set-up calls, timed as `setup_s`.
    fn setup(input: &Self::Input, tr: &mut Tracer) -> Self;
    /// Untimed reference computation.
    fn reference(&mut self) -> Self::Reference;
    /// Perturb the reference so that every check must fail (self-test).
    fn corrupt(reference: &mut Self::Reference);
    /// Untimed passes run before the timed loop.
    fn warm_up(&mut self);
    /// One op: the calls a client issues and waits for.
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Self::Output;
    /// Check one op's output.
    fn check(&self, reference: &Self::Reference, out: &Self::Output) -> Result<(), String>;
    /// Traced run only: per-layer decomposition calls after op `i`.
    fn probe(&mut self, i: u64, tr: &mut Tracer);
}

/// Run settings.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corrupt_reference: bool,
}

/// The traced phase ends early once this many spans are held in memory.
const MAX_SPANS: usize = 200_000;

/// Op wall times, seconds: exact count and sum, plus the first `CAP`
/// values for the percentiles. The buffer is allocated and touched before
/// anything is measured, so the benchmark's own bookkeeping never grows
/// the resident set with run length.
pub struct Samples {
    kept: Vec<f64>,
    len: usize,
    seen: u64,
    sum: f64,
}

impl Samples {
    /// Far above any declared run: `model`, the busiest workload, runs
    /// about 2300 ops in 36 s.
    const CAP: usize = 1 << 16;

    fn new() -> Self {
        // A non-zero fill writes every page (a zeroed buffer may stay
        // unmapped until first use).
        Self {
            kept: vec![-1.0; Self::CAP],
            len: 0,
            seen: 0,
            sum: 0.0,
        }
    }

    fn push(&mut self, x: f64) {
        self.seen += 1;
        self.sum += x;
        if self.len < Self::CAP {
            self.kept[self.len] = x;
            self.len += 1;
        }
    }

    /// The kept values (every value while fewer than `CAP` were pushed).
    pub fn values(&self) -> &[f64] {
        &self.kept[..self.len]
    }

    /// How many values were pushed.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Sum of every pushed value.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// What one run measured.
pub struct Outcome {
    /// Wall time of every set-up pass, seconds.
    pub setup_s: Vec<f64>,
    /// Measured op times (traced ops in a traced run).
    pub op_s: Samples,
    /// Traced run: untraced op times measured first, for the overhead.
    pub baseline_op_s: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// The first few check failures.
    pub failures: Vec<String>,
    /// `VmHWM` at the end of the run, MiB.
    pub peak_rss_mib: f64,
    /// Share of the machine's CPU time the hypervisor gave to other guests
    /// while the ops ran (`steal` in `/proc/stat`), percent; `None` where
    /// the kernel does not report it.
    pub host_steal_pct: Option<f64>,
    pub tracer: Tracer,
}

/// Spreads the set-up passes evenly over the timed phase, so `setup_s`
/// sees the same machine conditions as the ops.
struct SetupSchedule<'a, W: Workload> {
    input: &'a W::Input,
    start: Instant,
    budget: Duration,
    times: Vec<f64>,
}

impl<W: Workload> SetupSchedule<'_, W> {
    /// One timed set-up pass; the state it builds is returned untimed.
    fn pass(&mut self, tr: &mut Tracer) -> W {
        tr.set_group(Phase::Setup, self.times.len() as u64);
        let t0 = Instant::now();
        let w = W::setup(self.input, tr);
        self.times.push(t0.elapsed().as_secs_f64());
        w
    }

    /// Run the passes due by now.
    fn catch_up(&mut self, tr: &mut Tracer) {
        let frac = if self.budget.is_zero() {
            1.0
        } else {
            self.start.elapsed().as_secs_f64() / self.budget.as_secs_f64()
        };
        let due = ((W::SETUP_REPEATS as f64 * frac).ceil() as usize).min(W::SETUP_REPEATS);
        while self.times.len() < due {
            drop(self.pass(tr));
        }
    }
}

/// The state one run's op loops share.
struct Runner<'a, W: Workload> {
    w: W,
    reference: W::Reference,
    tr: Tracer,
    setups: SetupSchedule<'a, W>,
    next_op: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl<W: Workload> Runner<'_, W> {
    /// Issue ops back to back until `budget` has passed (at least one op),
    /// pushing each op's wall time into `times`; `probe` runs the traced
    /// run's decomposition after each op.
    fn op_loop(&mut self, budget: Duration, probe: bool, times: &mut Samples) {
        let deadline = Instant::now() + budget;
        loop {
            let i = self.next_op;
            self.next_op += 1;
            self.tr.set_group(Phase::Op, i);
            let root = self.tr.begin("op");
            let t0 = Instant::now();
            let result = self.w.op(i, &mut self.tr);
            let dt = t0.elapsed().as_secs_f64();
            self.tr.end(root);
            times.push(dt);
            self.attempted += 1;
            if let Err(why) = self.w.check(&self.reference, &result) {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(format!("op {i}: {why}"));
                }
            }
            drop(result);
            if probe {
                self.tr.set_group(Phase::Probe, i);
                self.w.probe(i, &mut self.tr);
            }
            self.setups.catch_up(&mut self.tr);
            if Instant::now() >= deadline || self.tr.spans().len() >= MAX_SPANS {
                return;
            }
        }
    }
}

/// Run workload `W` with `settings`.
pub fn run<W: Workload>(settings: Settings) -> Outcome {
    let input = W::inputs(settings.seed);
    let mut tr = Tracer::new(settings.trace);
    let budget = Duration::from_secs_f64(settings.seconds.max(0.0));
    let mut setups = SetupSchedule::<W> {
        input: &input,
        start: Instant::now(),
        budget,
        times: Vec::with_capacity(W::SETUP_REPEATS),
    };

    // The first set-up pass builds the state every op uses.
    let mut w = setups.pass(&mut tr);
    let mut reference = w.reference();
    if settings.corrupt_reference {
        W::corrupt(&mut reference);
    }
    w.warm_up();

    setups.start = Instant::now();
    let mut r = Runner {
        w,
        reference,
        tr,
        setups,
        next_op: 0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let mut op_s = Samples::new();
    let mut baseline_op_s = Samples::new();
    let cpu0 = cpu_jiffies();
    if settings.trace {
        // A third of the run untraced, then the traced ops: the two
        // medians give the tracing overhead.
        r.tr.set_enabled(false);
        r.op_loop(budget / 3, false, &mut baseline_op_s);
        r.tr.set_enabled(true);
        r.op_loop(budget * 2 / 3, true, &mut op_s);
    } else {
        r.op_loop(budget, false, &mut op_s);
    }
    let host_steal_pct = cpu0.zip(cpu_jiffies()).and_then(|((s0, t0), (s1, t1))| {
        (t1 > t0).then(|| 100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
    });
    r.setups.budget = Duration::ZERO;
    r.setups.catch_up(&mut r.tr);
    Outcome {
        setup_s: r.setups.times,
        op_s,
        baseline_op_s,
        attempted: r.attempted,
        failed: r.failed,
        failures: r.failures,
        peak_rss_mib: crate::trace::status_kib("VmHWM:").map_or(0.0, |k| k as f64 / 1024.0),
        host_steal_pct,
        tracer: r.tr,
    }
}

/// The machine's (steal, total) CPU time so far, in jiffies, from the
/// first line of `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A small deterministic generator for the seeded inputs (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}
