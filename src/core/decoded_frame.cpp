#include "core/decoded_frame.h"

#include <functional>
#include <utility>

namespace byzcast::core {

DecodedFrame::DecodedFrame(util::Buffer bytes, const crypto::Pki& pki)
    : bytes_(std::move(bytes)),
      pki_(&pki),
      packet_(parse_packet_shared(bytes_)) {
  std::size_t slots = 1;
  if (packet_) {
    if (const auto* gossip = std::get_if<GossipMsg>(&*packet_)) {
      slots += gossip->entries.size();
    }
  }
  verdicts_.assign(slots, kUnknown);
}

std::int8_t* DecodedFrame::verdict_slot(const void* signed_part) {
  if (!packet_) return nullptr;
  const Packet& packet = *packet_;
  if (const auto* data = std::get_if<DataMsg>(&packet)) {
    if (signed_part == data) return &verdicts_[0];
  } else if (const auto* hello = std::get_if<HelloMsg>(&packet)) {
    if (signed_part == hello) return &verdicts_[0];
  } else if (const auto* request = std::get_if<RequestMsg>(&packet)) {
    if (signed_part == &request->entry) return &verdicts_[0];
  } else if (const auto* find = std::get_if<FindMissingMsg>(&packet)) {
    if (signed_part == &find->entry) return &verdicts_[0];
  } else if (const auto* gossip = std::get_if<GossipMsg>(&packet)) {
    if (gossip->hello && signed_part == &*gossip->hello) {
      return &verdicts_[0];
    }
    // std::less: a total order even over pointers into other objects.
    const std::less<const void*> before;
    const GossipEntry* first = gossip->entries.data();
    const GossipEntry* last = first + gossip->entries.size();
    if (!before(signed_part, first) && before(signed_part, last)) {
      return &verdicts_[1 + static_cast<std::size_t>(
                                static_cast<const GossipEntry*>(signed_part) -
                                first)];
    }
  }
  return nullptr;
}

std::shared_ptr<DecodedFrame> decode_frame(const util::Buffer& bytes,
                                           const crypto::Pki& pki) {
  thread_local std::shared_ptr<DecodedFrame> last;
  if (last == nullptr || !last->decodes(bytes, pki)) {
    last = std::make_shared<DecodedFrame>(bytes, pki);
  }
  return last;
}

}  // namespace byzcast::core
