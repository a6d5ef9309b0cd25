//! Adaptive concurrency limits: pluggable algorithms behind one inflight
//! gauge, in the style of the Netflix/Sui concurrency limiters.
//!
//! A limit is a number of *work units* (queries) the runtime will have in
//! flight or dispatch per scheduling round. The algorithm searches for the
//! knee of the latency/throughput curve from observed samples:
//!
//! * [`AimdLimit`] — TCP-style additive-increase / multiplicative-decrease:
//!   grow by a constant while latency is under target and the limit is
//!   actually being used, back off multiplicatively the moment a sample
//!   breaches the target (or a shed happens).
//! * [`GradientLimit`] — tracks the gradient between a long-term latency
//!   EWMA and the recent windowed median; when recent latency inflates
//!   relative to history the limit contracts proportionally, plus a
//!   `√limit` queue allowance so it can still probe upward.
//!
//! Both are fed *windowed* p50/p99 signals ([`WindowedHistogram`]) rather
//! than lifetime aggregates, and are plain deterministic state machines:
//! identical sample sequences produce identical limit trajectories, which
//! is what makes shed decisions reproducible under the virtual clock.
//!
//! The [`InflightGauge`] is deliberately decoupled from the algorithm — it
//! counts units actually outstanding (mirroring the engine-pool occupancy
//! gauge, [`spanner_graph::parallel::EnginePool::inflight`]), while the
//! algorithm only decides how many *should* be.

use std::time::Duration;

use super::window::WindowedHistogram;

/// One observation fed to a [`LimitAlgorithm`] after a dispatch (or a shed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LimitSample {
    /// Mean per-query service latency of the dispatched chunk.
    pub per_query: Duration,
    /// Work units (queries) in the chunk.
    pub units: usize,
    /// Work units still queued behind it when the sample was taken.
    pub queued: usize,
    /// `true` when this sample reports a shed batch instead of a dispatch.
    pub shed: bool,
}

/// A concurrency-limit search algorithm: a deterministic state machine from
/// latency samples to a unit limit.
pub trait LimitAlgorithm: std::fmt::Debug + Send {
    /// Feeds one sample plus the current windowed latency view.
    fn on_sample(&mut self, sample: LimitSample, window: &WindowedHistogram);
    /// The current limit, in work units (always at least 1).
    fn limit(&self) -> usize;
}

/// Fallback latency target when neither an explicit target nor a windowed
/// median is available yet.
const DEFAULT_TARGET: Duration = Duration::from_millis(1);

/// Additive-increase / multiplicative-decrease limit.
///
/// A sample breaches when its per-query latency exceeds the target — an
/// explicit [`AimdLimit::with_target`], or `tolerance ×` the windowed
/// median when none is set — or when it reports a shed. Breach ⇒ the limit
/// shrinks by the backoff ratio; a clean sample that actually saturated the
/// limit ⇒ it grows by the additive step. All parameters are clamped into
/// valid ranges at construction, never at sample time.
#[derive(Debug, Clone, PartialEq)]
pub struct AimdLimit {
    limit: f64,
    min: usize,
    max: usize,
    increase: f64,
    backoff: f64,
    target: Option<Duration>,
    tolerance: f64,
}

impl AimdLimit {
    /// An AIMD limit starting at `initial` units (clamped ≥ 1), with range
    /// `[1, 1024]`, step `+1`, backoff `×0.9`, and a `2× windowed median`
    /// adaptive target.
    pub fn new(initial: usize) -> Self {
        AimdLimit {
            limit: initial.max(1) as f64,
            min: 1,
            max: 1024,
            increase: 1.0,
            backoff: 0.9,
            target: None,
            tolerance: 2.0,
        }
    }

    /// Sets the `[min, max]` unit range (min clamped ≥ 1, max ≥ min); the
    /// current limit is clamped into it.
    pub fn with_range(mut self, min: usize, max: usize) -> Self {
        self.min = min.max(1);
        self.max = max.max(self.min);
        self.limit = self.limit.clamp(self.min as f64, self.max as f64);
        self
    }

    /// Fixes an explicit per-query latency target instead of the adaptive
    /// windowed-median target.
    pub fn with_target(mut self, target: Duration) -> Self {
        self.target = Some(target.max(Duration::from_nanos(1)));
        self
    }

    /// Sets the adaptive-target tolerance (target = `tolerance × windowed
    /// p50`; clamped ≥ 1).
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = if tolerance.is_finite() {
            tolerance.max(1.0)
        } else {
            2.0
        };
        self
    }

    /// Sets the additive step (clamped > 0).
    pub fn with_increase(mut self, increase: f64) -> Self {
        self.increase = if increase.is_finite() && increase > 0.0 {
            increase
        } else {
            1.0
        };
        self
    }

    /// Sets the multiplicative backoff ratio (clamped into `(0, 1)`).
    pub fn with_backoff(mut self, backoff: f64) -> Self {
        self.backoff = if backoff.is_finite() {
            backoff.clamp(0.1, 0.999)
        } else {
            0.9
        };
        self
    }

    fn effective_target(&self, window: &WindowedHistogram) -> Duration {
        if let Some(t) = self.target {
            return t;
        }
        match window.p50() {
            Some(p50) => p50.mul_f64(self.tolerance),
            None => DEFAULT_TARGET,
        }
    }
}

impl LimitAlgorithm for AimdLimit {
    fn on_sample(&mut self, sample: LimitSample, window: &WindowedHistogram) {
        let breach = sample.shed || sample.per_query > self.effective_target(window);
        if breach {
            self.limit = (self.limit * self.backoff).max(self.min as f64);
        } else if sample.units + sample.queued >= self.limit as usize {
            // Only probe upward when the limit is actually the bottleneck.
            self.limit = (self.limit + self.increase).min(self.max as f64);
        }
    }

    fn limit(&self) -> usize {
        (self.limit as usize).max(self.min)
    }
}

/// Gradient limit: contracts when the recent windowed median inflates
/// relative to a long-term EWMA of itself, with a `√limit` queue allowance
/// for upward probing and smoothing on every move.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientLimit {
    limit: f64,
    min: usize,
    max: usize,
    smoothing: f64,
    tolerance: f64,
    long_alpha: f64,
    long_nanos: Option<f64>,
}

impl GradientLimit {
    /// A gradient limit starting at `initial` units (clamped ≥ 1), range
    /// `[1, 1024]`, smoothing `0.2`, tolerance `1.5`, long-EWMA α `0.05`.
    pub fn new(initial: usize) -> Self {
        GradientLimit {
            limit: initial.max(1) as f64,
            min: 1,
            max: 1024,
            smoothing: 0.2,
            tolerance: 1.5,
            long_alpha: 0.05,
            long_nanos: None,
        }
    }

    /// Sets the `[min, max]` unit range (min clamped ≥ 1, max ≥ min).
    pub fn with_range(mut self, min: usize, max: usize) -> Self {
        self.min = min.max(1);
        self.max = max.max(self.min);
        self.limit = self.limit.clamp(self.min as f64, self.max as f64);
        self
    }

    /// Sets the per-move smoothing factor (clamped into `(0, 1]`).
    pub fn with_smoothing(mut self, smoothing: f64) -> Self {
        self.smoothing = if smoothing.is_finite() {
            smoothing.clamp(0.01, 1.0)
        } else {
            0.2
        };
        self
    }

    /// Sets the latency-inflation tolerance (clamped ≥ 1).
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = if tolerance.is_finite() {
            tolerance.max(1.0)
        } else {
            1.5
        };
        self
    }
}

impl LimitAlgorithm for GradientLimit {
    fn on_sample(&mut self, sample: LimitSample, window: &WindowedHistogram) {
        let short = window.p50().unwrap_or(sample.per_query).as_nanos().max(1) as f64;
        let long = *self.long_nanos.get_or_insert(short);
        self.long_nanos = Some(long + self.long_alpha * (short - long));
        let gradient = if sample.shed {
            0.5
        } else {
            (self.tolerance * long / short).clamp(0.5, 1.0)
        };
        let proposed = self.limit * gradient + self.limit.sqrt();
        self.limit = (self.limit * (1.0 - self.smoothing) + proposed * self.smoothing)
            .clamp(self.min as f64, self.max as f64);
    }

    fn limit(&self) -> usize {
        (self.limit as usize).max(self.min)
    }
}

/// A constant limit — no adaptation. Useful to pin behavior in tests and as
/// a baseline in benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedLimit(usize);

impl FixedLimit {
    /// A fixed limit of `limit` units (clamped ≥ 1).
    pub fn new(limit: usize) -> Self {
        FixedLimit(limit.max(1))
    }
}

impl LimitAlgorithm for FixedLimit {
    fn on_sample(&mut self, _sample: LimitSample, _window: &WindowedHistogram) {}

    fn limit(&self) -> usize {
        self.0
    }
}

/// Counts work units actually outstanding, with a high-water mark. Owned by
/// the [`Limiter`] and shared by every algorithm — the algorithm decides
/// the limit, the gauge reports reality.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InflightGauge {
    current: usize,
    peak: usize,
}

impl InflightGauge {
    /// Marks `units` as in flight.
    pub fn acquire(&mut self, units: usize) {
        self.current += units;
        self.peak = self.peak.max(self.current);
    }

    /// Marks `units` as done.
    pub fn release(&mut self, units: usize) {
        self.current = self.current.saturating_sub(units);
    }

    /// Units currently in flight.
    pub fn current(&self) -> usize {
        self.current
    }

    /// Most units ever simultaneously in flight.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

/// The runtime's admission limiter: a pluggable [`LimitAlgorithm`] behind a
/// shared [`InflightGauge`], fed from a [`WindowedHistogram`] of recent
/// per-query latencies.
#[derive(Debug)]
pub struct Limiter {
    algorithm: Box<dyn LimitAlgorithm>,
    gauge: InflightGauge,
    window: WindowedHistogram,
}

impl Limiter {
    /// A limiter driven by [`AimdLimit`].
    pub fn aimd(algorithm: AimdLimit) -> Self {
        Limiter::from_algorithm(Box::new(algorithm))
    }

    /// A limiter driven by [`GradientLimit`].
    pub fn gradient(algorithm: GradientLimit) -> Self {
        Limiter::from_algorithm(Box::new(algorithm))
    }

    /// A limiter pinned to a constant limit.
    pub fn fixed(limit: usize) -> Self {
        Limiter::from_algorithm(Box::new(FixedLimit::new(limit)))
    }

    /// A limiter driven by any boxed [`LimitAlgorithm`].
    pub fn from_algorithm(algorithm: Box<dyn LimitAlgorithm>) -> Self {
        Limiter {
            algorithm,
            gauge: InflightGauge::default(),
            window: WindowedHistogram::default(),
        }
    }

    /// Replaces the latency window with one of `slots × samples_per_slot`.
    pub fn with_window(mut self, slots: usize, samples_per_slot: u64) -> Self {
        self.window = WindowedHistogram::new(slots, samples_per_slot);
        self
    }

    /// The current limit in work units.
    pub fn limit(&self) -> usize {
        self.algorithm.limit()
    }

    /// Records a dispatched chunk: `units` queries at `per_query` mean
    /// service latency with `queued` units still waiting. Updates the
    /// window, then the algorithm.
    pub fn observe(&mut self, per_query: Duration, units: usize, queued: usize) {
        for _ in 0..units {
            self.window.record(per_query);
        }
        self.algorithm.on_sample(
            LimitSample {
                per_query,
                units,
                queued,
                shed: false,
            },
            &self.window,
        );
    }

    /// Records a shed batch (no latency — the work never ran).
    pub fn observe_shed(&mut self, units: usize, queued: usize) {
        self.algorithm.on_sample(
            LimitSample {
                per_query: Duration::ZERO,
                units,
                queued,
                shed: true,
            },
            &self.window,
        );
    }

    /// The windowed latency view feeding the algorithm.
    pub fn window(&self) -> &WindowedHistogram {
        &self.window
    }

    /// The shared occupancy gauge.
    pub fn gauge(&self) -> &InflightGauge {
        &self.gauge
    }

    /// Mutable access to the gauge, for the dispatch loop.
    pub fn gauge_mut(&mut self) -> &mut InflightGauge {
        &mut self.gauge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(per_query_us: u64, units: usize, queued: usize) -> LimitSample {
        LimitSample {
            per_query: Duration::from_micros(per_query_us),
            units,
            queued,
            shed: false,
        }
    }

    #[test]
    fn aimd_grows_when_saturated_and_backs_off_on_breach() {
        let window = WindowedHistogram::default();
        let mut aimd = AimdLimit::new(10)
            .with_range(2, 64)
            .with_target(Duration::from_micros(500));
        // Fast + saturated: additive growth.
        aimd.on_sample(sample(100, 10, 5), &window);
        assert_eq!(aimd.limit(), 11);
        // Fast but underutilized: no growth.
        aimd.on_sample(sample(100, 1, 0), &window);
        assert_eq!(aimd.limit(), 11);
        // Slow: multiplicative decrease.
        aimd.on_sample(sample(5000, 10, 5), &window);
        assert_eq!(aimd.limit(), 9);
        // Repeated breaches floor at min.
        for _ in 0..100 {
            aimd.on_sample(sample(5000, 10, 5), &window);
        }
        assert_eq!(aimd.limit(), 2);
        // Repeated clean saturation ceilings at max.
        for _ in 0..1000 {
            aimd.on_sample(sample(100, 64, 64), &window);
        }
        assert_eq!(aimd.limit(), 64);
    }

    #[test]
    fn aimd_adaptive_target_follows_the_window() {
        let mut window = WindowedHistogram::new(2, 8);
        for _ in 0..16 {
            window.record(Duration::from_micros(100));
        }
        let mut aimd = AimdLimit::new(10).with_tolerance(2.0);
        // 150µs against a 100µs windowed median is within 2× tolerance.
        aimd.on_sample(sample(150, 10, 10), &window);
        assert_eq!(aimd.limit(), 11);
        // 10× the median breaches the adaptive target.
        aimd.on_sample(sample(1000, 10, 10), &window);
        assert!(aimd.limit() < 11);
    }

    #[test]
    fn gradient_contracts_under_inflation_and_recovers() {
        let mut window = WindowedHistogram::new(4, 16);
        let mut gradient = GradientLimit::new(32).with_range(1, 256);
        // Stable latency: the √limit allowance lets it probe upward.
        for _ in 0..50 {
            for _ in 0..8 {
                window.record(Duration::from_micros(100));
            }
            gradient.on_sample(sample(100, 8, 8), &window);
        }
        let stable = gradient.limit();
        assert!(stable > 32, "stable latency probes upward, got {stable}");
        // Latency inflates 20×: the windowed median rises against the long
        // EWMA and the limit contracts sharply. Once the EWMA re-baselines
        // to the new latency the gradient flattens again — so the invariant
        // is a deep trough during the transition, not a permanent floor.
        let mut trough = stable;
        for _ in 0..50 {
            for _ in 0..8 {
                window.record(Duration::from_micros(2000));
            }
            gradient.on_sample(sample(2000, 8, 8), &window);
            trough = trough.min(gradient.limit());
        }
        assert!(
            trough < stable / 2,
            "inflation must contract the limit: trough {trough} vs stable {stable}"
        );
    }

    #[test]
    fn shed_samples_back_both_algorithms_off() {
        let window = WindowedHistogram::default();
        let shed = LimitSample {
            per_query: Duration::ZERO,
            units: 8,
            queued: 100,
            shed: true,
        };
        let mut aimd = AimdLimit::new(32);
        aimd.on_sample(shed, &window);
        assert!(aimd.limit() < 32);
        let mut gradient = GradientLimit::new(32);
        for _ in 0..20 {
            gradient.on_sample(shed, &window);
        }
        assert!(gradient.limit() < 32);
    }

    #[test]
    fn limiter_facade_and_gauge() {
        let mut limiter = Limiter::aimd(AimdLimit::new(4)).with_window(2, 4);
        assert_eq!(limiter.limit(), 4);
        limiter.gauge_mut().acquire(3);
        assert_eq!(limiter.gauge().current(), 3);
        limiter.gauge_mut().release(2);
        assert_eq!(limiter.gauge().current(), 1);
        assert_eq!(limiter.gauge().peak(), 3);
        limiter.observe(Duration::from_micros(50), 4, 0);
        assert_eq!(limiter.window().total(), 4);
        let fixed = Limiter::fixed(7);
        assert_eq!(fixed.limit(), 7);
        assert_eq!(FixedLimit::new(0).limit(), 1, "fixed clamps to 1");
    }
}
