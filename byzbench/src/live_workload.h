// Pieces of the live workload exposed for the benchmark's self-tests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/io_loop.h"
#include "net/udp_backend.h"

namespace byzbench {

/// Candidate first port of a 16-port block for `attempt`; mixes in the
/// process id so concurrent runs (or ctest's live harnesses) start apart.
std::uint16_t default_port_base(std::uint64_t seed, int attempt);

/// Binds `n` UdpTransports on 127.0.0.1 at consecutive ports from
/// candidate_base(attempt), each peered with all the others. When any
/// port of a block is taken the whole block is released and the next
/// candidate tried, up to `max_attempts`; throws std::runtime_error when
/// none binds. `attempts_used`, when given, receives the attempt count.
std::vector<std::unique_ptr<byzcast::net::UdpTransport>> bind_fleet(
    byzcast::net::IoLoop& loop, std::size_t n,
    const std::function<std::uint16_t(int)>& candidate_base, int max_attempts,
    int* attempts_used);

}  // namespace byzbench
