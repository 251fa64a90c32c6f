// Layer probes for the traced run.  Each calls public functions of one
// module only, outside the end-to-end timing:
//   * ordering only: a multicast::Bus with a deployment's group layout,
//     Bus::multicast -> MergeDeliverer::next, no service behind it;
//   * execution only: a workload's generated command stream replayed
//     through Service::execute_batch (KvService, make_batched(FsService));
//   * the B+-tree lookups at the preloaded size and the LZ codec.
#pragma once

#include <cstdint>

#include "smr/runtime.h"
#include "workload.h"

namespace perfbench {

struct OrderResult {
  double p50_us = 0;   // fixed rate: due time -> delivery at the executor
  double kcps = 0;     // closed loop: deliveries per second
  std::uint64_t failed = 0;  // multicasts the bus refused
};

/// Ordering-only probe for `mode`'s group layout and `w`'s C-G function.
OrderResult order_probe(const WorkloadSpec& w, psmr::smr::Mode mode,
                        double rate_cps, double seconds, std::uint64_t seed);

struct ExecResult {
  double kv_ns_per_cmd = 0;      // KvService::execute_batch, runs of <= 16
  double netfs_us_per_cmd = 0;   // make_batched(FsService) execute_batch
  double find_ns = 0;            // BPlusTree::find
  double find_batch_ns = 0;      // BPlusTree::find_batch, per key
  double lz_compress_us = 0;     // per 1 KB block
  double lz_decompress_us = 0;   // per 1 KB block
};

/// Execution-only replays and module timings.  `w` picks the KV command
/// stream (kv_read's for non-KV workloads); NetFS always replays netfs_rw.
ExecResult exec_probe(const WorkloadSpec& w, std::uint64_t seed);

}  // namespace perfbench
