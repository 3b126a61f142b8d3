// The benchmark's metric catalogue and its result line.
//
// Every metric the benchmark can print is declared once here, with its
// unit. An untraced run (--trace 0) must set exactly the end-to-end
// metrics and a traced run (--trace 1) exactly the per-layer ones;
// Report refuses anything else, so the printed set cannot drift from
// the declaration. BENCHMARK.json lists the same names (run.py checks).
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace byzbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Names start with a letter or digit, use only [A-Za-z0-9_.-] and are at
/// most 64 characters long.
bool valid_metric_name(std::string_view name);

/// A correctness check of the program's output failed. The benchmark
/// exits non-zero and prints no result line.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailed with `what` unless `ok`.
void check(bool ok, const std::string& what);

class Report {
 public:
  explicit Report(bool trace);

  /// Sets a declared metric of this run's set; throws on an unknown name.
  void set(const std::string& name, double value);

  /// Operations attempted / failed, for the failure-rate rule.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Human-readable table, one metric per line with its unit.
  [[nodiscard]] std::string table() const;
  /// The single-line result object. Throws unless every metric is set.
  [[nodiscard]] std::string json() const;

 private:
  const std::vector<MetricDef>& defs_;
  std::map<std::string, double> values_;
};

}  // namespace byzbench
