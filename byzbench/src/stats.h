// Order statistics the benchmark reports, with the sample-count rule:
// a percentile q is reported only when at least ten samples lie beyond
// it, i.e. count * (1 - q) >= 10 (p99 needs 1000 samples).
#pragma once

#include <cstddef>
#include <vector>

namespace byzbench {

inline constexpr double kMinSamplesBeyond = 10;
/// The end-to-end latency tail: p90, the highest percentile that the
/// 150 broadcasts of the smallest run (des_sparse_2k) support.
inline constexpr double kTailQ = 0.90;

/// True when `count` samples support reporting percentile `q` in (0, 1).
bool percentile_supported(double q, std::size_t count);

/// Nearest-rank percentile of `samples` (sorted in place). Returns 0 for
/// an empty vector.
double percentile(std::vector<double>& samples, double q);

/// Median (mean of the two middle values for even counts); 0 when empty.
double median(std::vector<double> values);

}  // namespace byzbench
