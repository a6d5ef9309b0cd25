//! Order statistics over measured samples.

/// The `q`-quantile (nearest rank) of `values`; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (mean of the two middle values for even lengths).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Consecutive blocks a timed phase's samples are split into for
/// [`block_quantile`].
pub const BLOCKS: usize = 5;

/// The least, over `BLOCKS` consecutive blocks of `values` (in the order
/// they were taken), of each block's `q`-quantile: the figure of the
/// run's least disturbed stretch. Other work on a shared machine only ever
/// slows a run, for stretches of seconds to minutes; a stretch that spares
/// one block does not move this figure, while a change that slows every
/// block moves it fully. This is the best-of-N the repository's micro
/// benches take, applied to blocks of one run.
pub fn block_quantile(values: &[f64], q: f64) -> f64 {
    (0..BLOCKS)
        .map(|b| {
            let block = &values[b * values.len() / BLOCKS..(b + 1) * values.len() / BLOCKS];
            quantile(block, q)
        })
        .fold(f64::INFINITY, f64::min)
}
