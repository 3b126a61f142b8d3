// Open-loop workload generator: the benchmark's only source of inputs.
//
// Arrivals are drawn up front from the workload seed, so the same seed
// always yields the same schedule, origins and payload bytes, and the
// program under test only ever sees broadcast(payload) calls. The loop is
// open: each arrival is due at its scheduled time whether or not earlier
// broadcasts have been delivered, so a stalled system builds a backlog
// instead of being offered less load.
//
// The count is fixed at rate * duration and Poisson due times are that
// many uniform draws, sorted: a Poisson process conditioned on its count.
// Sizes and origins are assigned in exact proportion and shuffled. Seeds
// then change when and from where each broadcast happens, never how much
// work a run offers, so figures of different seeds stay comparable.
#pragma once

#include <cstdint>
#include <vector>

namespace byzbench {

/// One payload size and the share of arrivals that use it.
struct SizeShare {
  std::uint32_t bytes = 0;
  double share = 0;
};

struct GeneratorSpec {
  /// Total arrivals per second across all origins.
  double rate_per_s = 1;
  /// false: arrival i is due at phase + i / rate_per_s, with the phase
  /// drawn from [0, 1 / rate_per_s) (periodic).
  /// true: rate_per_s * duration_s arrivals at uniform random times.
  bool poisson = true;
  /// Poisson arrivals are due in [0, duration_s); periodic ones start
  /// within the first period.
  double duration_s = 1;
  /// Arrivals are spread evenly over origin indexes [0, origins).
  std::uint32_t origins = 1;
  /// Payload size mix; shares need not sum to exactly 1.
  std::vector<SizeShare> sizes{{256, 1.0}};
};

struct Arrival {
  double due_s = 0;          ///< offset from the start of the measured phase
  std::uint32_t origin = 0;  ///< index into the workload's origin list
  std::vector<std::uint8_t> payload;
};

/// Draws the full arrival schedule for `seed`. Deterministic per
/// (spec, seed); arrivals come out sorted by due time.
std::vector<Arrival> generate_arrivals(const GeneratorSpec& spec,
                                       std::uint64_t seed);

}  // namespace byzbench
