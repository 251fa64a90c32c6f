// Workloads: command generation from a seed, the deployments they run on,
// and the output checks computed apart from the program.
//
// Every check here derives the expected answer from the benchmark's own
// model of what it sent (the preload rule, the tags it wrote, the blocks it
// generated), never from a stored copy of earlier output.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "smr/runtime.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace perfbench {

enum class WorkloadKind { kKvRead, kKvDependent, kNetfsRw };

/// Fixed make-up of a workload's inputs (see README.md).
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kKvRead;
  std::string name;
  /// KV: keys 0..preload_keys-1 are preloaded with value = key.
  std::uint64_t preload_keys = 10'000'000;
  /// kv_dependent: keys each client inserts and deletes, in its own slice
  /// of the range starting at preload_keys.
  std::uint64_t keys_per_client = 4096;
  /// NetFS: files preloaded with one generated 1 KB block each.
  std::uint32_t files = 64;
  std::uint32_t block_bytes = 1024;
  /// Aggregate Poisson rate of the fixed-rate phase: light enough that
  /// every architecture keeps up, so latency is the critical path rather
  /// than a backlog that grows with run length.
  double fixed_rate_cps = 5000;
};

bool parse_workload(const std::string& name, WorkloadSpec& out);

/// Builds a deployment of `mode` (mpl 4 for sP-SMR/P-SMR) for the workload,
/// with every other setting at its DeploymentConfig default.
[[nodiscard]] psmr::smr::DeploymentConfig deployment_config(
    const WorkloadSpec& w, psmr::smr::Mode mode,
    std::function<std::unique_ptr<psmr::smr::Service>()> service_factory);

/// The C-G function a client of `mode` uses (ordering-only probe).
[[nodiscard]] std::shared_ptr<const psmr::smr::CGFunction> client_cg(
    const WorkloadSpec& w, psmr::smr::Mode mode);

/// A fresh, preloaded service instance.
[[nodiscard]] std::unique_ptr<psmr::smr::Service> make_service(
    const WorkloadSpec& w);

/// One generated command plus what the checker needs to judge its answer.
struct Op {
  psmr::smr::CommandId cmd = 0;
  psmr::util::Buffer params;
  /// KV key, or NetFS file index.
  std::uint64_t key = 0;
  /// kv_dependent insert/delete: the status the client's model predicts
  /// (kAnyStatus when the key's state is unknown).
  int expect = -1;
  /// kv_dependent insert/delete: model epoch of the key at submit time.
  std::uint32_t epoch = 0;
};

inline constexpr int kAnyStatus = -1;

/// State shared by every client of one deployment (NetFS write registry).
class SharedModel {
 public:
  explicit SharedModel(std::uint32_t files) : written_(files) {}
  /// Records that `block_id` may be written to `file` from now on.
  void note_write(std::uint32_t file, std::uint64_t block_id);
  [[nodiscard]] bool was_written(std::uint32_t file,
                                 std::uint64_t block_id) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unordered_set<std::uint64_t>> written_;
};

/// Per-client generator and checker.  One per load thread and deployment;
/// it persists across the deployment's phases (the kv_dependent key model
/// carries over).
class ClientModel {
 public:
  ClientModel(const WorkloadSpec& w, SharedModel& shared, std::uint32_t client,
              std::uint64_t seed);

  /// Reseeds the generator for a phase (inputs depend only on the seed).
  void reseed(std::uint64_t seed) { rng_ = psmr::util::SplitMix64(seed); }

  /// Next command.
  Op next();

  /// A read of preloaded data (key 0, file 0) that leaves the model as it
  /// is: the command a fresh deployment must answer to count as set up.
  [[nodiscard]] Op first_read() const;

  /// Empty when the answer is right; otherwise what is wrong with it.
  [[nodiscard]] std::string check(const Op& op,
                                  const psmr::util::Buffer& payload) const;

  /// The command left the in-flight table: answered (and checked), or
  /// `failed` (deadline, rejection, refused submit).  A failed command's
  /// effect is unknown, so its key drops out of the insert/delete status
  /// check.
  void settle(const Op& op, bool failed);

 private:
  const WorkloadSpec& w_;
  SharedModel& shared_;
  std::uint32_t client_;
  psmr::util::SplitMix64 rng_;
  std::uint32_t write_version_ = 0;
  std::uint32_t update_nonce_ = 0;
  /// kv_dependent insert/delete: the op's slot in the client's own keys,
  /// or -1 for any other command.
  [[nodiscard]] std::int64_t slot_of(const Op& op) const;

  /// kv_dependent: per owned key, 1 present, 0 absent, -1 unknown.
  std::vector<std::int8_t> present_;
  std::vector<std::uint32_t> epoch_;
  /// kv_dependent: inserts/deletes in flight per owned key.  A prediction
  /// holds only if no other command on the key was in flight when the
  /// answer came: one still in flight may yet fail, and then nothing says
  /// whether it ran before this one.
  std::vector<std::uint32_t> inflight_;
};

// --- Value and block encodings (exposed for the self-test) ---

/// A value an update or insert writes: tagged with its key, so a read can
/// tell it apart from any value written to another key.
[[nodiscard]] std::uint64_t tagged_value(std::uint64_t key,
                                         std::uint32_t nonce);
/// A read of `key` must return the preloaded value (== key) or a value
/// tagged with `key`.
[[nodiscard]] bool valid_read_value(std::uint64_t key, std::uint64_t value);

/// Identity of a NetFS block: (file, client, version).
struct BlockId {
  std::uint32_t file = 0;
  std::uint32_t client = 0;
  std::uint32_t version = 0;
  [[nodiscard]] std::uint64_t packed() const {
    return (static_cast<std::uint64_t>(client) << 32) | version;
  }
};
/// Client id of the preloaded blocks.
inline constexpr std::uint32_t kPreloadClient = 0xFFFFFFFFu;

/// Generates a block: a header naming its identity, then text whose bytes
/// are a function of the header.
[[nodiscard]] psmr::util::Buffer make_block(const BlockId& id,
                                            std::uint32_t bytes);
/// Empty when `data` is a block this benchmark could have written to
/// `file`: its header names `file`, it regenerates byte for byte, and it is
/// the preloaded block or one registered in `shared`.
[[nodiscard]] std::string check_block(const SharedModel& shared,
                                      std::uint32_t file,
                                      std::uint32_t bytes,
                                      std::span<const std::uint8_t> data);

[[nodiscard]] std::string file_path(std::uint32_t file);

}  // namespace perfbench
