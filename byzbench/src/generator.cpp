#include "generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "des/rng.h"

namespace byzbench {
namespace {

/// `count` labels drawn from `shares` in exact proportion (largest
/// remainders), then shuffled.
template <typename T>
std::vector<T> stratified(const std::vector<std::pair<T, double>>& shares,
                          std::size_t count, byzcast::des::Rng& rng) {
  double total = 0;
  for (const auto& s : shares) total += s.second;
  std::vector<T> out;
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t k = 0; k < shares.size(); ++k) {
    double exact = static_cast<double>(count) * shares[k].second / total;
    auto whole = static_cast<std::size_t>(exact);
    out.insert(out.end(), whole, shares[k].first);
    remainders.emplace_back(exact - static_cast<double>(whole), k);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; out.size() < count; ++i) {
    out.push_back(shares[remainders[i % remainders.size()].second].first);
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.next_below(i)]);
  }
  return out;
}

}  // namespace

std::vector<Arrival> generate_arrivals(const GeneratorSpec& spec,
                                       std::uint64_t seed) {
  if (spec.rate_per_s <= 0 || spec.duration_s <= 0 || spec.origins == 0 ||
      spec.sizes.empty()) {
    throw std::invalid_argument("generate_arrivals: empty or invalid spec");
  }
  byzcast::des::Rng root(seed);
  byzcast::des::Rng timing = root.split();
  byzcast::des::Rng choice = root.split();
  byzcast::des::Rng bytes = root.split();

  const auto count =
      static_cast<std::size_t>(std::llround(spec.rate_per_s * spec.duration_s));
  std::vector<double> due(count);
  const double phase = timing.next_double() / spec.rate_per_s;
  for (std::size_t i = 0; i < count; ++i) {
    due[i] = spec.poisson ? timing.next_double() * spec.duration_s
                          : phase + static_cast<double>(i) / spec.rate_per_s;
  }
  std::sort(due.begin(), due.end());

  std::vector<std::pair<std::uint32_t, double>> size_shares, origin_shares;
  for (const SizeShare& s : spec.sizes) size_shares.emplace_back(s.bytes, s.share);
  for (std::uint32_t o = 0; o < spec.origins; ++o) origin_shares.emplace_back(o, 1.0);
  const std::vector<std::uint32_t> sizes = stratified(size_shares, count, choice);
  const std::vector<std::uint32_t> origins = stratified(origin_shares, count, choice);

  std::vector<Arrival> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i].due_s = due[i];
    out[i].origin = origins[i];
    out[i].payload.resize(sizes[i]);
    for (std::uint8_t& b : out[i].payload) {
      b = static_cast<std::uint8_t>(bytes.next_u64());
    }
  }
  return out;
}

}  // namespace byzbench
