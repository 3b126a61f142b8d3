#include "stats.h"

#include <algorithm>
#include <cmath>

namespace byzbench {

bool percentile_supported(double q, std::size_t count) {
  return q > 0 && q < 1 &&
         static_cast<double>(count) * (1 - q) >= kMinSamplesBeyond - 1e-9;
}

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(q * static_cast<double>(samples.size()));
  std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

}  // namespace byzbench
