// The benchmark's workloads and the measurement helpers they share.
//
// Each workload runs the library through its public entry points only,
// times every layer from outside, checks the outputs and fills a Report:
// the end-to-end set when untraced, the per-layer set when traced.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace byzbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;  ///< sets how many scenarios or repeats a run covers
  bool trace = false;
};

/// One-line descriptions of a workload's parameters (printed per run).
std::string des_params(const std::string& workload);
std::string live_params();

/// Runs `opt.workload` and fills `report`. `log` receives human-readable
/// lines (sample counts, the layer account). Throws CheckFailed when an
/// output is wrong.
void run_des_workload(const RunOptions& opt, Report& report, std::string& log);
void run_live_workload(const RunOptions& opt, Report& report, std::string& log);

/// Appends printf-style `fmt`, formatted with up to three numbers, to `log`.
inline void append(std::string& log, const char* fmt, double a, double b = 0,
                   double c = 0) {
  char line[256];
  std::snprintf(line, sizeof line, fmt, a, b, c);
  log += line;
}

// --- measurement helpers -----------------------------------------------------

inline double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time, user + system, in seconds.
inline double cpu_now_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set of this process so far, in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace byzbench
