// byzbench: one run of one benchmark workload.
//
//   byzbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints the host and build, the workload parameters, a metric table and,
// as the last line of stdout, one JSON object:
//   {"correct": true, "attempted": A, "failed": F, "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// A failed correctness check prints the reason to stderr, no result line,
// and exits 3; bad arguments exit 2.
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

const char* const kWorkloads[] = {"des_sparse_2k", "des_load_300", "live_mesh_16"};

int usage(const char* why) {
  std::fprintf(stderr,
               "byzbench: %s\nusage: byzbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  return 2;
}

std::string host_line() {
  utsname u{};
  uname(&u);
  char line[256];
  std::snprintf(line, sizeof line, "host=%s kernel=%s nproc=%ld compiler=%s build=%s",
                u.nodename, u.release, sysconf(_SC_NPROCESSORS_ONLN),
                BYZBENCH_COMPILER, BYZBENCH_BUILD_TYPE);
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  byzbench::RunOptions opt;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have[2] = *end == '\0' && opt.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.trace = value == "1";
      have[3] = true;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const char* w : kWorkloads) known |= opt.workload == w;
  if (!known) return usage(("unknown workload " + opt.workload).c_str());
  if (std::string(BYZBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "byzbench: refusing to measure a %s build\n",
                 BYZBENCH_BUILD_TYPE);
    return 2;
  }

  std::printf("# %s\n", host_line().c_str());
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  const bool des = opt.workload.rfind("des_", 0) == 0;
  std::printf("# params: %s\n", des ? byzbench::des_params(opt.workload).c_str()
                                     : byzbench::live_params().c_str());
  std::fflush(stdout);

  byzbench::Report report(opt.trace);
  std::string log;
  try {
    if (des) {
      byzbench::run_des_workload(opt, report, log);
    } else {
      byzbench::run_live_workload(opt, report, log);
    }
    std::string json = report.json();  // throws if a metric is missing
    std::printf("%s", log.c_str());
    std::printf("attempted=%llu failed=%llu failed_share=%.6f\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                report.attempted == 0
                    ? 0.0
                    : static_cast<double>(report.failed) /
                          static_cast<double>(report.attempted));
    std::printf("%s", report.table().c_str());
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const byzbench::CheckFailed& e) {
    std::fprintf(stderr, "byzbench: correctness check failed: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "byzbench: error: %s\n", e.what());
    return 1;
  }
}
