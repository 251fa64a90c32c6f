// Client-side submit pipelining: the submit-path mirror of the reply-side
// ResponseCoalescer.
//
// Without it, every ClientProxy::submit marshals its command into a fresh
// buffer and runs the full per-command Bus::multicast → SubmitCoalescer
// lock round-trip — one wire message and one coalescer critical section per
// command.  The spooler instead keeps one open pooled SUBMIT_MANY frame per
// destination ring; submit() marshals the command *straight into that
// frame* (util::PayloadWriter, no intermediate Buffer) and returns.
//
// Each ClientProxy owns its own spooler, so spooling takes no lock and one
// client's submits never wait on another's flush.  A spool flushes as a
// single pre-encoded burst — one Bus::submit_encoded call, one wire
// message — when:
//
//   * it reaches max_commands or max_bytes (bounded burst size), or
//   * its proxy enters poll() (flush-before-wait: a client about to block
//     for replies first pushes its own spooled commands out, so nothing it
//     waits on can be stranded), or
//   * flush_all() is called explicitly (benches, shutdown).
//
// There is no timer thread, exactly like the ResponseCoalescer and the
// SubmitCoalescer: a client that awaits a reply always polls, and the poll
// entry is the flush trigger.  Batching across clients happens one hop
// later, where the ring coordinator cuts the bursts of all clients into
// batches.  Ordering is preserved where it matters — commands of one
// client to one ring stay FIFO within and across frames, and same-key
// commands of a client map to the same ring by construction (the C-G
// function is deterministic on keys).
//
// A frame starts in the pool's smallest block class and grows with its
// contents, so a spool that carries one command holds one small block.
//
// The wire format is the unchanged kPaxosSubmitMany frame: u32 count +
// count × length-prefixed commands; the count is patched into the frame's
// first 4 bytes at flush time.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "multicast/amcast.h"
#include "smr/command.h"

namespace psmr::smr {

struct SubmitSpoolerOptions {
  /// Disables spooling entirely (ClientProxy falls back to per-command
  /// Bus::multicast through the SubmitCoalescer).
  bool enabled = true;
  /// Flush a ring's spool once it holds this many commands.
  std::size_t max_commands = 64;
  /// ... or once its frame reaches this many bytes.  Kept a few batches
  /// deep: the coordinator re-cuts the burst into max_batch_bytes batches.
  std::size_t max_bytes = 32 * 1024;
};

/// Counters, partitioned by flush trigger.  flushed_commands ==
/// spooled_commands once every spool has drained; mean burst size is
/// flushed_commands / flushes.
struct SpoolStats {
  std::uint64_t spooled_commands = 0;
  std::uint64_t flushes = 0;
  std::uint64_t flushed_commands = 0;
  std::uint64_t flushed_bytes = 0;
  std::uint64_t flush_on_count = 0;
  std::uint64_t flush_on_bytes = 0;
  std::uint64_t flush_on_poll = 0;
  /// Commands in flushes the transport rejected (shutdown/disconnect);
  /// recovered end-to-end by client retransmission, same contract as
  /// SubmitCoalescer::Stats::failed_flush_commands.
  std::uint64_t failed_flush_commands = 0;

  [[nodiscard]] double mean_commands_per_flush() const {
    return flushes == 0 ? 0.0
                        : static_cast<double>(flushed_commands) /
                              static_cast<double>(flushes);
  }

  SpoolStats& operator+=(const SpoolStats& o) {
    spooled_commands += o.spooled_commands;
    flushes += o.flushes;
    flushed_commands += o.flushed_commands;
    flushed_bytes += o.flushed_bytes;
    flush_on_count += o.flush_on_count;
    flush_on_bytes += o.flush_on_bytes;
    flush_on_poll += o.flush_on_poll;
    failed_flush_commands += o.failed_flush_commands;
    return *this;
  }
};

/// Owned by one ClientProxy.  One spool — an open pooled SUBMIT_MANY frame
/// — per destination ring.  spool() and flush_all() must be called from one
/// thread at a time (the proxy's); stats() may be read from any thread.
class SubmitSpooler {
 public:
  SubmitSpooler(multicast::Bus& bus, SubmitSpoolerOptions opt);

  SubmitSpooler(const SubmitSpooler&) = delete;
  SubmitSpooler& operator=(const SubmitSpooler&) = delete;

  /// Marshals `c` into the spool of the ring its group set routes to.  The
  /// spool flushes inline when a cap is hit.  Returns false only when a
  /// cap-triggered flush was rejected by the transport (shutdown); the
  /// command itself is then gone with the failed frame, matching the
  /// fire-and-forget submit contract.
  bool spool(transport::NodeId from, const Command& c);

  /// Flushes every non-empty spool (poll-entry / explicit trigger).
  /// `poll_entry` only attributes the flush reason in stats.
  void flush_all(transport::NodeId from, bool poll_entry = true);

  [[nodiscard]] SpoolStats stats() const;

 private:
  struct Spool {
    util::PayloadWriter w{0};
    std::size_t count = 0;
  };

  /// SpoolStats fields, in order.  Only the owning thread writes them.
  enum Counter : std::size_t {
    kSpooled,
    kFlushes,
    kFlushedCommands,
    kFlushedBytes,
    kOnCount,
    kOnBytes,
    kOnPoll,
    kFailed,
    kNumCounters
  };

  void add(Counter k, std::uint64_t d) {
    n_[k].store(n_[k].load(std::memory_order_relaxed) + d,
                std::memory_order_relaxed);
  }
  /// Sends spool `ring` as one pre-encoded SUBMIT_MANY frame.  False when
  /// the transport rejected the frame.
  bool flush(std::size_t ring, transport::NodeId from, Counter reason);

  multicast::Bus& bus_;
  const SubmitSpoolerOptions opt_;
  std::vector<Spool> spools_;  // index-aligned with the bus's ring indices
  std::atomic<std::uint64_t> n_[kNumCounters] = {};
};

}  // namespace psmr::smr
