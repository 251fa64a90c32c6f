// Multi-response wire format (kSmrResponseMany) — the response-side twin of
// the submit path's SUBMIT_MANY.
//
// Replicas coalesce the replies of an execution batch that target the same
// client-proxy node into one wire message (see response_coalescer.h); the
// proxy demultiplexes it back into individual Responses.  Layout:
//
//   u32 count                      (1 <= count <= kMaxResponsesPerMessage)
//   count x { u32 len, len bytes } (each an encoded smr::Response)
//
// The decode side is deliberately paranoid: this is the one message type a
// client proxy accepts from the network, so a malformed frame must be
// rejected without ever reading past the buffer (util::Reader bounds-checks
// every access) and without amplifying a small frame into a huge allocation
// (the count is validated against both the hard cap and the bytes actually
// present before anything is reserved).
#pragma once

#include <optional>
#include <vector>

#include "smr/command.h"

namespace psmr::smr {

/// Hard cap on responses per wire message.  Far above any coalescer flush
/// cap; its job is to bound what a decoder will attempt for a hostile count.
inline constexpr std::uint32_t kMaxResponsesPerMessage = 4096;

/// Encodes pre-encoded responses (each produced by Response::encode) into
/// one kSmrResponseMany payload.  The coalescer spools encoded responses, so
/// taking them in that form avoids a second marshaling pass.
inline util::Buffer encode_response_batch(
    const std::vector<util::Buffer>& encoded) {
  std::size_t size = 4;
  for (const auto& r : encoded) size += 4 + r.size();
  util::Writer w;
  w.reserve(size);
  w.u32(static_cast<std::uint32_t>(encoded.size()));
  for (const auto& r : encoded) w.bytes(r);
  return w.take();
}

/// Decodes a kSmrResponseMany payload.  Returns std::nullopt if the frame is
/// malformed in any way: zero responses, a count above the cap or beyond
/// what the remaining bytes could possibly hold, a truncated length prefix
/// or body, an inner Response that does not decode, or trailing bytes.
inline std::optional<std::vector<Response>> decode_response_batch(
    std::span<const std::uint8_t> data) {
  try {
    util::Reader r(data);
    const std::uint32_t count = r.u32();
    if (count == 0 || count > kMaxResponsesPerMessage) return std::nullopt;
    // Each response costs at least a length prefix (4 bytes) plus the
    // minimal Response encoding; reject impossible counts before reserving.
    if (static_cast<std::size_t>(count) * sizeof(std::uint32_t) >
        r.remaining()) {
      return std::nullopt;
    }
    std::vector<Response> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      auto body = r.bytes_view();  // bounds-checked length prefix
      auto resp = Response::decode(body);
      if (!resp) return std::nullopt;
      out.push_back(std::move(*resp));
    }
    if (!r.done()) return std::nullopt;
    return out;
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace psmr::smr
