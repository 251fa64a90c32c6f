// Checks that span the replicas, and the self-test of every check.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// After a phase: both replicas' state digests agree, and each replica
/// executed exactly the answered commands, plus at most `unknown` commands
/// whose fate is unknown (failed by deadline: maybe executed, maybe not).
/// Empty when the replicas pass.
[[nodiscard]] std::string check_replicas(
    std::span<const std::uint64_t> executed,
    std::span<const std::uint64_t> digests, std::uint64_t answered,
    std::uint64_t unknown);

/// Feeds every check a corrupted answer and a good one; returns one line
/// per check that accepted a wrong answer or rejected a right one.
[[nodiscard]] std::vector<std::string> run_selftest(bool verbose);

}  // namespace perfbench
