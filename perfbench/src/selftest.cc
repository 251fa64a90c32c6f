#include <cstdio>

#include "checks.h"
#include "kvstore/kv_service.h"
#include "netfs/fs_service.h"
#include "util/compress.h"
#include "workload.h"

namespace perfbench {

namespace kv = psmr::kvstore;
namespace fs = psmr::netfs;
using psmr::util::Buffer;

std::string check_replicas(std::span<const std::uint64_t> executed,
                           std::span<const std::uint64_t> digests,
                           std::uint64_t answered, std::uint64_t unknown) {
  for (std::size_t i = 1; i < digests.size(); ++i) {
    if (digests[i] != digests[0]) {
      return "replica " + std::to_string(i) +
             " state digest differs from replica 0";
    }
  }
  for (std::size_t i = 0; i < executed.size(); ++i) {
    if (executed[i] < answered || executed[i] > answered + unknown) {
      return "replica " + std::to_string(i) + " executed " +
             std::to_string(executed[i]) + " commands, " +
             std::to_string(answered) + " were answered";
    }
  }
  return {};
}

namespace {

Buffer kv_answer(kv::KvStatus status, std::uint64_t value) {
  return kv::encode_result(kv::KvResult{status, value});
}

Buffer fs_read_answer(const Buffer& data) {
  psmr::util::Writer w;
  w.i64(0);
  w.bytes(data);
  return psmr::util::lz_compress(w.view());
}

/// Generates ops until one with command `cmd` comes up.
Op next_of(ClientModel& m, psmr::smr::CommandId cmd) {
  for (int i = 0; i < 100000; ++i) {
    Op op = m.next();
    if (op.cmd == cmd) return op;
  }
  return Op{};
}

}  // namespace

std::vector<std::string> run_selftest(bool verbose) {
  std::vector<std::string> failures;
  auto expect = [&](const char* what, const std::string& verdict,
                    bool should_pass) {
    const bool passed = verdict.empty();
    if (verbose) {
      std::printf("%-58s %s%s%s\n", what, passed ? "accepted" : "rejected",
                  passed ? "" : ": ", verdict.c_str());
    }
    if (passed != should_pass) {
      failures.push_back(std::string(what) + (should_pass
                                                   ? " was rejected: " + verdict
                                                   : " was accepted"));
    }
  };

  WorkloadSpec read_w, dep_w, fs_w;
  parse_workload("kv_read", read_w);
  parse_workload("kv_dependent", dep_w);
  parse_workload("netfs_rw", fs_w);
  SharedModel shared_kv(1), shared_fs(fs_w.files);

  {
    ClientModel m(read_w, shared_kv, 0, 7);
    const Op op = next_of(m, kv::kKvRead);
    expect("kv_read: read returns its key",
           m.check(op, kv_answer(kv::kKvOk, op.key)), true);
    expect("kv_read: read returns another key's value",
           m.check(op, kv_answer(kv::kKvOk, op.key + 1)), false);
    expect("kv_read: read returns not-found",
           m.check(op, kv_answer(kv::kKvNotFound, op.key)), false);
  }
  {
    ClientModel m(dep_w, shared_kv, 1, 7);
    const Op rd = next_of(m, kv::kKvRead);
    expect("kv_dependent: read returns a value tagged with its key",
           m.check(rd, kv_answer(kv::kKvOk, tagged_value(rd.key, 99))), true);
    expect("kv_dependent: read returns a value tagged with another key",
           m.check(rd, kv_answer(kv::kKvOk, tagged_value(rd.key + 1, 99))),
           false);
    const Op up = next_of(m, kv::kKvUpdate);
    expect("kv_dependent: update reports not-found",
           m.check(up, kv_answer(kv::kKvNotFound, 0)), false);
    const Op ins = next_of(m, kv::kKvInsert);  // first touch: key absent
    expect("kv_dependent: insert of an absent key reports exists",
           m.check(ins, kv_answer(kv::kKvExists, 0)), false);
    expect("kv_dependent: insert of an absent key succeeds",
           m.check(ins, kv_answer(kv::kKvOk, 0)), true);
    m.settle(ins, true);
    expect("kv_dependent: a forgotten key accepts either insert status",
           m.check(ins, kv_answer(kv::kKvExists, 0)), true);
  }
  {
    ClientModel m(fs_w, shared_fs, 2, 7);
    const Op rd = next_of(m, fs::kFsRead);
    const auto file = static_cast<std::uint32_t>(rd.key);
    auto block = [&](std::uint32_t f, std::uint32_t client, std::uint32_t v) {
      return make_block(BlockId{f, client, v}, fs_w.block_bytes);
    };
    const Buffer initial = block(file, kPreloadClient, 0);
    expect("netfs_rw: read returns the file's initial block",
           m.check(rd, fs_read_answer(initial)), true);
    const std::uint32_t other = (file + 1) % fs_w.files;
    expect("netfs_rw: read returns another file's block",
           m.check(rd, fs_read_answer(block(other, kPreloadClient, 0))), false);
    Buffer flipped = initial;
    flipped[500] ^= 1;
    expect("netfs_rw: read returns a corrupted block",
           m.check(rd, fs_read_answer(flipped)), false);
    expect("netfs_rw: read returns a block never written",
           m.check(rd, fs_read_answer(block(file, 3, 9))), false);
    Buffer short_block = initial;
    short_block.resize(fs_w.block_bytes / 2);
    expect("netfs_rw: read returns half a block",
           m.check(rd, fs_read_answer(short_block)), false);
  }
  {
    const std::uint64_t same[] = {5, 5};
    const std::uint64_t differ[] = {5, 6};
    const std::uint64_t done[] = {100, 100};
    const std::uint64_t extra[] = {100, 101};
    expect("replicas: equal digests, executed == answered",
           check_replicas(done, same, 100, 0), true);
    expect("replicas: mismatched digests",
           check_replicas(done, differ, 100, 0), false);
    expect("replicas: a replica executed a command twice",
           check_replicas(extra, same, 100, 0), false);
    expect("replicas: answered commands missing from a replica",
           check_replicas(done, same, 101, 0), false);
  }
  return failures;
}

}  // namespace perfbench
