#include "fd/verbose_fd.h"

#include <algorithm>

namespace byzcast::fd {

VerboseFd::VerboseFd(net::Env& env, VerboseFdConfig config)
    : env_(env),
      config_(config),
      aging_timer_(env, config.aging_period, [this] { age_counters(); }) {
  aging_timer_.start();
}

void VerboseFd::set_min_spacing(std::uint8_t type, des::SimDuration spacing) {
  if (type >= min_spacing_.size()) min_spacing_.resize(type + 1, 0);
  min_spacing_[type] = spacing;
}

void VerboseFd::indict(NodeId node) {
  int count = ++indictments_[node];
  if (count < config_.suspicion_threshold) return;
  bool newly = !suspected(node);
  suspected_until_[node] = env_.now() + config_.suspicion_interval;
  if (newly && on_suspect_) on_suspect_(node);
}

void VerboseFd::observe(const MessageHeader& header, NodeId from) {
  if (header.type >= min_spacing_.size()) return;
  const des::SimDuration spacing = min_spacing_[header.type];
  if (spacing == 0) return;
  std::uint64_t key =
      (static_cast<std::uint64_t>(from) << 8) | header.type;
  auto [it, first_time] = last_arrival_.emplace(key, env_.now());
  if (!first_time) {
    if (env_.now() - it->second < spacing) indict(from);
    it->second = env_.now();
  }
}

void VerboseFd::age_counters() {
  for (auto it = indictments_.begin(); it != indictments_.end();) {
    if (--it->second <= 0) {
      it = indictments_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = suspected_until_.begin(); it != suspected_until_.end();) {
    if (it->second <= env_.now()) {
      it = suspected_until_.erase(it);
    } else {
      ++it;
    }
  }
}

bool VerboseFd::suspected(NodeId node) const {
  auto it = suspected_until_.find(node);
  return it != suspected_until_.end() && it->second > env_.now();
}

std::vector<NodeId> VerboseFd::suspects() const {
  std::vector<NodeId> out;
  for (const auto& [node, until] : suspected_until_) {
    if (until > env_.now()) out.push_back(node);
  }
  std::sort(out.begin(), out.end());
  return out;
}

int VerboseFd::indictment_count(NodeId node) const {
  auto it = indictments_.find(node);
  return it == indictments_.end() ? 0 : it->second;
}

void VerboseFd::reset() {
  last_arrival_.clear();
  indictments_.clear();
  suspected_until_.clear();
}

}  // namespace byzcast::fd
