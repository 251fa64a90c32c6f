#include "smr/submit_spooler.h"

namespace psmr::smr {

SubmitSpooler::SubmitSpooler(multicast::Bus& bus, SubmitSpoolerOptions opt)
    : bus_(bus), opt_(opt), spools_(bus_.num_rings()) {}

bool SubmitSpooler::spool(transport::NodeId from, const Command& c) {
  const std::size_t ring = bus_.ring_index_for(c.groups);
  Spool& s = spools_[ring];
  if (s.count == 0) {
    // A fresh frame in the smallest class; PayloadWriter grows it as
    // commands arrive, so a one-command burst pins no large block.
    s.w = util::PayloadWriter(util::BufferPool::kClasses[0]);
    s.w.u32(0);  // count slot, patched at flush
  }
  // kPaxosSubmitMany entry: u32 length prefix + the command envelope,
  // marshaled straight into the pooled frame.
  s.w.u32(static_cast<std::uint32_t>(c.encoded_size()));
  c.encode_into(s.w);
  ++s.count;
  add(kSpooled, 1);
  if (s.count >= opt_.max_commands) return flush(ring, from, kOnCount);
  if (s.w.size() >= opt_.max_bytes) return flush(ring, from, kOnBytes);
  return true;
}

void SubmitSpooler::flush_all(transport::NodeId from, bool poll_entry) {
  for (std::size_t ring = 0; ring < spools_.size(); ++ring) {
    if (spools_[ring].count > 0) {
      flush(ring, from, poll_entry ? kOnPoll : kOnBytes);
    }
  }
}

bool SubmitSpooler::flush(std::size_t ring, transport::NodeId from,
                          Counter reason) {
  Spool& s = spools_[ring];
  const std::size_t count = s.count;
  const std::size_t bytes = s.w.size();
  s.w.patch_u32(0, static_cast<std::uint32_t>(count));
  util::Payload frame = s.w.take();
  s.count = 0;

  add(kFlushes, 1);
  add(kFlushedCommands, count);
  add(kFlushedBytes, bytes);
  add(reason, 1);
  if (!bus_.submit_encoded(ring, from, std::move(frame), count)) {
    add(kFailed, count);
    return false;
  }
  return true;
}

SpoolStats SubmitSpooler::stats() const {
  auto get = [this](Counter k) {
    return n_[k].load(std::memory_order_relaxed);
  };
  SpoolStats s;
  s.spooled_commands = get(kSpooled);
  s.flushes = get(kFlushes);
  s.flushed_commands = get(kFlushedCommands);
  s.flushed_bytes = get(kFlushedBytes);
  s.flush_on_count = get(kOnCount);
  s.flush_on_bytes = get(kOnBytes);
  s.flush_on_poll = get(kOnPoll);
  s.failed_flush_commands = get(kFailed);
  return s;
}

}  // namespace psmr::smr
