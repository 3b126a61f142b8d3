// One decode and one signature verdict per radio transmission (DESIGN.md
// §16, "One decode per transmission").
//
// A wireless broadcast hands every neighbour in range the same immutable
// util::Buffer. Parsing it and verifying its signatures depend only on
// those bytes and on the Pki, so the first receiver's work serves every
// other receiver of the same transmission: decode_frame() memoizes the
// last decoded frame per thread, keyed by buffer identity (allocation,
// offset and size) and Pki. Everything that depends on the receiver —
// the sender check, failure-detector observations, store, claims,
// suspicion, tracing — stays with the receiver.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/message.h"
#include "crypto/signature.h"
#include "util/bytes.h"

namespace byzcast::core {

class DecodedFrame {
 public:
  DecodedFrame(util::Buffer bytes, const crypto::Pki& pki);
  DecodedFrame(const DecodedFrame&) = delete;
  DecodedFrame& operator=(const DecodedFrame&) = delete;

  /// nullopt when the bytes do not parse.
  [[nodiscard]] const std::optional<Packet>& packet() const { return packet_; }
  [[nodiscard]] bool decodes(const util::Buffer& bytes,
                             const crypto::Pki& pki) const {
    return &pki == pki_ && bytes.same_view_as(bytes_);
  }

  /// The verdict of the signature carried by `signed_part`, computing it
  /// with `verify` on first use. `signed_part` is the DataMsg, the
  /// standalone or piggybacked HelloMsg, one GossipEntry of a GOSSIP, or
  /// the entry of a REQUEST or FIND, all inside packet(). Anything else —
  /// a copy, or a message built by the caller — is verified afresh.
  template <typename Verify>
  bool judge(const void* signed_part, Verify&& verify) {
    std::int8_t* slot = verdict_slot(signed_part);
    if (slot == nullptr) return verify();
    if (*slot == kUnknown) *slot = verify() ? 1 : 0;
    return *slot == 1;
  }

 private:
  static constexpr std::int8_t kUnknown = -1;
  std::int8_t* verdict_slot(const void* signed_part);

  util::Buffer bytes_;  // held, so its identity is not recycled
  const crypto::Pki* pki_;
  std::optional<Packet> packet_;
  /// Slot 0: the DATA signature pair, the HELLO (standalone or
  /// piggybacked) or the REQUEST/FIND entry; slot 1 + i: GOSSIP entry i.
  std::vector<std::int8_t> verdicts_;
};

/// The decoded form of `bytes`: the memo when the last frame decoded on
/// this thread was the same transmission under the same Pki, else a fresh
/// parse that becomes the memo. Callers hold the returned pointer while
/// dispatching, so a re-entrant delivery that replaces the memo cannot
/// free the packet under them.
std::shared_ptr<DecodedFrame> decode_frame(const util::Buffer& bytes,
                                           const crypto::Pki& pki);

}  // namespace byzcast::core
