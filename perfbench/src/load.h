// Load generation: the fixed-rate (seeded Poisson) phase and the closed-loop
// phase, driven through ClientProxy::submit/poll from at most four threads.
//
// The benchmark keeps its own table of in-flight commands with an answer
// deadline.  A command unanswered by its deadline, or answered `rejected`,
// counts as failed.  In the closed loop a command gives up its window slot
// after kSlotUs, so a lost command cannot wedge the loop.  A wrong answer
// is never a failure: it is recorded as an error and fails the run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "smr/client.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// Answer deadline of every command.
inline constexpr std::int64_t kDeadlineUs = 500'000;
/// Closed loop: a command unanswered this long gives up its window slot and
/// is still awaited until its deadline.  It is above every answer time seen
/// on a busy host (about 70 ms at most), so in practice only lost commands
/// give up their slots.  Were a lost command to hold its slot until the
/// deadline, P-SMR's lost commands (README.md, fault 2) and not the program
/// would set its closed-loop rate on kv_dependent.
inline constexpr std::int64_t kSlotUs = 100'000;

/// One load thread's client: one proxy for all of its commands.
struct LoadClient {
  std::unique_ptr<psmr::smr::ClientProxy> proxy;
  ClientModel* model = nullptr;  // owned by the run
};

struct PhaseConfig {
  /// Aggregate Poisson arrival rate (fixed-rate phase); 0 = closed loop.
  double rate_cps = 0;
  /// Outstanding commands per thread (closed loop), not counting those
  /// older than kSlotUs.
  std::size_t window = 50;
  /// Absolute bounds (util::now_us) of the measured interval; the phase
  /// starts submitting at `start_us`, stops at `until_us`, then drains.
  std::int64_t start_us = 0;
  std::int64_t from_us = 0;
  std::int64_t until_us = 0;
  /// Closed loop: completions are also counted per sub-window of this
  /// length, so a stall or a slow start moves the median rate little.
  std::int64_t bucket_us = 500'000;
  /// Per-phase input seed; thread t draws from seed ^ mix(t).
  std::uint64_t seed = 1;
  /// Span-name prefix for sampled commands, e.g. "smr.fixed" (traced run).
  std::string trace_prefix;
  /// One in this many commands gets a span chain (traced run).
  std::uint64_t trace_every = 256;
};

struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;
  /// Deadline expiries + rejected + submits the transport refused.
  std::uint64_t failed = 0;
  /// Answers that arrived after their command's deadline.
  std::uint64_t late = 0;
  /// What the checks found wrong in answers (the first few; any fails the
  /// run).
  std::vector<std::string> errors;

  /// Completions per sub-window of the measured interval.
  std::vector<std::uint64_t> buckets;
  /// Latency of each completion inside the measured interval, from its due
  /// time (fixed rate) or its submit time (closed loop), in microseconds.
  std::vector<double> latency_us;
  /// The sub-window each entry of `latency_us` completed in.
  std::vector<std::uint32_t> latency_window;
  /// How late the generator submitted each command after its due time
  /// (fixed rate, measured interval).
  std::vector<double> lateness_us;
  /// Host interference per sub-window (host.h), filled in by the caller.
  std::vector<double> interference;

  // Client-layer timing (traced run only).
  double submit_ns = 0;
  std::uint64_t submits = 0;
  double poll_ns = 0;
  double thread_ns = 0;
};

/// Runs one phase over `clients` (one thread each) and merges the results.
PhaseResult run_phase(std::vector<LoadClient>& clients, const PhaseConfig& cfg);

/// Quantile q of `v` (sorts in place); 0 when empty.
double quantile(std::vector<double>& v, double q);

}  // namespace perfbench
