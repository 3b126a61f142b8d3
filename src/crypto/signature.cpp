#include "crypto/signature.h"

#include <algorithm>
#include <stdexcept>

#include "obs/profiler.h"

namespace byzcast::crypto {

void write_wire_signature(util::ByteWriter& w, Signature sig) {
  w.u64(sig.tag);
  for (std::size_t i = 8; i < kWireSignatureBytes; ++i) w.u8(0);
}

Signature read_wire_signature(util::ByteReader& r) {
  static_assert((kWireSignatureBytes - 8) % 8 == 0);
  Signature sig{r.u64()};
  // The padding is checked a word at a time: every received gossip entry
  // and DATA frame carries at least one of these.
  for (std::size_t i = 8; i < kWireSignatureBytes; i += 8) {
    if (r.u64() != 0) r.fail();
  }
  return sig;
}

std::uint64_t Pki::tag_for(NodeId id, SipKey key,
                           std::span<const std::uint8_t> data) {
  // Domain-separate by signer id so a tag from node A is never valid for
  // node B even if (impossibly) their keys collided. The concatenation
  // buffer is stack-allocated for every packet-sized input; sign/verify
  // run for every signature of every transmission, and a heap allocation
  // here showed up in kernel-scale profiles.
  constexpr std::size_t kStackData = 2048;
  if (data.size() <= kStackData) {
    std::uint8_t buf[4 + kStackData];
    for (int i = 0; i < 4; ++i) {
      buf[i] = static_cast<std::uint8_t>(id >> (8 * i));
    }
    std::copy(data.begin(), data.end(), buf + 4);
    return siphash24(key, {buf, 4 + data.size()});
  }
  std::vector<std::uint8_t> buf;
  buf.reserve(4 + data.size());
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<std::uint8_t>(id >> (8 * i)));
  }
  buf.insert(buf.end(), data.begin(), data.end());
  return siphash24(key, buf);
}

Signature Signer::sign(std::span<const std::uint8_t> data) const {
  BYZCAST_PROFILE(obs::ProfileCategory::kSignatureSign);
  return Signature{Pki::tag_for(id_, key_, data)};
}

Signer Pki::register_node(NodeId id) {
  if (id < keys_.size() && keys_[id].issued) {
    throw std::invalid_argument("Pki::register_node: id already registered");
  }
  if (id >= keys_.size()) keys_.resize(id + 1);
  SipKey key{rng_.next_u64(), rng_.next_u64()};
  keys_[id] = {true, key};
  ++registered_;
  return Signer(id, key);
}

bool Pki::verify(NodeId claimed_signer, std::span<const std::uint8_t> data,
                 Signature sig) const {
  BYZCAST_PROFILE(obs::ProfileCategory::kSignatureVerify);
  if (claimed_signer >= keys_.size() || !keys_[claimed_signer].issued) {
    return false;
  }
  return tag_for(claimed_signer, keys_[claimed_signer].key, data) == sig.tag;
}

}  // namespace byzcast::crypto
