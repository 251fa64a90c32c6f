#include "workload.h"

#include <cerrno>
#include <cstring>

#include "kvstore/kv_service.h"
#include "netfs/fs_service.h"
#include "util/hash.h"

namespace perfbench {

using psmr::util::Buffer;

namespace kv = psmr::kvstore;
namespace fs = psmr::netfs;

bool parse_workload(const std::string& name, WorkloadSpec& out) {
  out = WorkloadSpec{};
  out.name = name;
  if (name == "kv_read") {
    out.kind = WorkloadKind::kKvRead;
  } else if (name == "kv_dependent") {
    out.kind = WorkloadKind::kKvDependent;
    // P-SMR's g_all barriers make its latency depend on run length at
    // 5 Kcps (deployment p50s from 0.7 to 10 ms) and still now and then at
    // 2 Kcps; 1 Kcps is light enough for its median to repeat.
    out.fixed_rate_cps = 1000;
  } else if (name == "netfs_rw") {
    out.kind = WorkloadKind::kNetfsRw;
  } else {
    return false;
  }
  return true;
}

std::string file_path(std::uint32_t file) {
  return "/f" + std::to_string(file);
}

namespace {

constexpr std::uint32_t kBlockMagic = 0x50534D52;  // "PSMR"
constexpr std::size_t kBlockHeader = 16;
constexpr std::size_t kMpl = 4;

std::unique_ptr<psmr::smr::Service> make_netfs_service(const WorkloadSpec& w) {
  auto svc = std::make_unique<fs::FsService>();
  for (std::uint32_t f = 0; f < w.files; ++f) {
    psmr::smr::Command c;
    c.cmd = fs::kFsCreate;
    c.params = fs::pack_params(fs::encode_path_mode(file_path(f), 0644));
    (void)svc->execute(c);
    const Buffer block = make_block(BlockId{f, kPreloadClient, 0},
                                    w.block_bytes);
    c.cmd = fs::kFsWrite;
    c.params = fs::pack_params(fs::encode_write(file_path(f), 0, block));
    (void)svc->execute(c);
  }
  return psmr::smr::make_batched(std::move(svc));
}

}  // namespace

std::unique_ptr<psmr::smr::Service> make_service(const WorkloadSpec& w) {
  if (w.kind == WorkloadKind::kNetfsRw) return make_netfs_service(w);
  return std::make_unique<kv::KvService>(w.preload_keys);
}

std::shared_ptr<const psmr::smr::CGFunction> client_cg(
    const WorkloadSpec& w, psmr::smr::Mode mode) {
  const std::size_t k = mode == psmr::smr::Mode::kPsmr ? kMpl : 1;
  return w.kind == WorkloadKind::kNetfsRw ? fs::fs_cg(k) : kv::kv_keyed_cg(k);
}

psmr::smr::DeploymentConfig deployment_config(
    const WorkloadSpec& w, psmr::smr::Mode mode,
    std::function<std::unique_ptr<psmr::smr::Service>()> service_factory) {
  psmr::smr::DeploymentConfig cfg;
  cfg.mode = mode;
  cfg.mpl = kMpl;
  cfg.replicas = 2;
  cfg.service_factory = std::move(service_factory);
  if (w.kind == WorkloadKind::kNetfsRw) {
    cfg.cg_factory = [](std::size_t k) { return fs::fs_cg(k); };
  } else {
    cfg.cg_factory = [](std::size_t k) { return kv::kv_keyed_cg(k); };
  }
  return cfg;
}

// --- Shared model ---

void SharedModel::note_write(std::uint32_t file, std::uint64_t block_id) {
  std::lock_guard lock(mu_);
  written_.at(file).insert(block_id);
}

bool SharedModel::was_written(std::uint32_t file,
                              std::uint64_t block_id) const {
  std::lock_guard lock(mu_);
  return file < written_.size() && written_[file].count(block_id) != 0;
}

// --- Values and blocks ---

std::uint64_t tagged_value(std::uint64_t key, std::uint32_t nonce) {
  return (1ULL << 63) | ((key & 0xFFFFFFFFULL) << 31) | (nonce & 0x7FFFFFFFU);
}

bool valid_read_value(std::uint64_t key, std::uint64_t value) {
  if (value == key) return true;
  return (value >> 63) == 1 && ((value >> 31) & 0xFFFFFFFFULL) == key;
}

Buffer make_block(const BlockId& id, std::uint32_t bytes) {
  static const char* const kWords[] = {
      "replica", "command", "ordering", "paxos",  "ring",   "batch",
      "group",   "merge",   "worker",   "client", "proxy",  "deliver",
      "execute", "state",   "machine",  "tree",   "leaf",   "router",
      "file",    "block",   "write",    "read",   "offset", "skip",
      "consensus", "quorum", "acceptor", "learner", "scheduler", "window",
      "latency", "throughput"};
  psmr::util::Writer w;
  w.u32(kBlockMagic);
  w.u32(id.file);
  w.u32(id.client);
  w.u32(id.version);
  Buffer out = w.take();
  psmr::util::SplitMix64 rng(psmr::util::mix64(
      (static_cast<std::uint64_t>(id.file) << 40) ^ id.packed()));
  while (out.size() < bytes) {
    const char* word = kWords[rng.next_below(std::size(kWords))];
    out.insert(out.end(), word, word + std::strlen(word));
    out.push_back(rng.next_below(8) == 0 ? '\n' : ' ');
  }
  out.resize(bytes);
  return out;
}

std::string check_block(const SharedModel& shared, std::uint32_t file,
                        std::uint32_t bytes,
                        std::span<const std::uint8_t> data) {
  if (data.size() != bytes) {
    return "read returned " + std::to_string(data.size()) + " bytes, want " +
           std::to_string(bytes);
  }
  psmr::util::Reader r(data.first(kBlockHeader));
  if (r.u32() != kBlockMagic) return "block header has no magic";
  BlockId id;
  id.file = r.u32();
  id.client = r.u32();
  id.version = r.u32();
  if (id.file != file) {
    return "read of " + file_path(file) + " returned a block of " +
           file_path(id.file);
  }
  const Buffer want = make_block(id, bytes);
  if (!std::equal(want.begin(), want.end(), data.begin())) {
    return "block of " + file_path(file) + " does not regenerate";
  }
  const bool preload = id.client == kPreloadClient && id.version == 0;
  if (!preload && !shared.was_written(file, id.packed())) {
    return "block (client " + std::to_string(id.client) + ", version " +
           std::to_string(id.version) + ") was never written to " +
           file_path(file);
  }
  return {};
}

// --- Client model ---

ClientModel::ClientModel(const WorkloadSpec& w, SharedModel& shared,
                         std::uint32_t client, std::uint64_t seed)
    : w_(w), shared_(shared), client_(client), rng_(seed) {
  if (w.kind == WorkloadKind::kKvDependent) {
    present_.assign(w.keys_per_client, 0);
    epoch_.assign(w.keys_per_client, 0);
    inflight_.assign(w.keys_per_client, 0);
  }
}

Op ClientModel::next() {
  Op op;
  switch (w_.kind) {
    case WorkloadKind::kKvRead:
      op.cmd = kv::kKvRead;
      op.key = rng_.next_below(w_.preload_keys);
      op.params = kv::encode_key(op.key);
      break;
    case WorkloadKind::kKvDependent: {
      // 79% reads, 15% updates, 3% inserts, 3% deletes.
      const std::uint64_t dice = rng_.next_below(100);
      if (dice < 94) {
        op.key = rng_.next_below(w_.preload_keys);
        if (dice < 79) {
          op.cmd = kv::kKvRead;
          op.params = kv::encode_key(op.key);
        } else {
          op.cmd = kv::kKvUpdate;
          op.params = kv::encode_key_value(
              op.key, tagged_value(op.key, (client_ << 24) ^ ++update_nonce_));
        }
        break;
      }
      const std::uint64_t slot = rng_.next_below(w_.keys_per_client);
      op.key = w_.preload_keys + client_ * w_.keys_per_client + slot;
      op.epoch = epoch_[slot];
      ++inflight_[slot];
      const std::int8_t state = present_[slot];
      if (dice < 97) {
        op.cmd = kv::kKvInsert;
        op.params = kv::encode_key_value(op.key, tagged_value(op.key, 0));
        op.expect = state < 0 ? kAnyStatus : (state ? kv::kKvExists
                                                    : kv::kKvOk);
        present_[slot] = 1;
      } else {
        op.cmd = kv::kKvDelete;
        op.params = kv::encode_key(op.key);
        op.expect = state < 0 ? kAnyStatus : (state ? kv::kKvOk
                                                    : kv::kKvNotFound);
        present_[slot] = 0;
      }
      break;
    }
    case WorkloadKind::kNetfsRw: {
      const auto file = static_cast<std::uint32_t>(rng_.next_below(w_.files));
      op.key = file;
      if (rng_.next_below(2) == 0) {
        op.cmd = fs::kFsRead;
        op.params = fs::pack_params(
            fs::encode_read(file_path(file), 0, w_.block_bytes));
      } else {
        const BlockId id{file, client_, ++write_version_};
        shared_.note_write(file, id.packed());
        op.cmd = fs::kFsWrite;
        op.params = fs::pack_params(fs::encode_write(
            file_path(file), 0, make_block(id, w_.block_bytes)));
      }
      break;
    }
  }
  return op;
}

Op ClientModel::first_read() const {
  Op op;
  if (w_.kind == WorkloadKind::kNetfsRw) {
    op.cmd = fs::kFsRead;
    op.params =
        fs::pack_params(fs::encode_read(file_path(0), 0, w_.block_bytes));
  } else {
    op.cmd = kv::kKvRead;
    op.params = kv::encode_key(0);
  }
  return op;
}

std::string ClientModel::check(const Op& op, const Buffer& payload) const {
  if (w_.kind == WorkloadKind::kNetfsRw) {
    const fs::FsResult res = fs::decode_result(op.cmd, payload);
    if (res.err != 0) {
      return std::string(op.cmd == fs::kFsRead ? "read" : "write") + " of " +
             file_path(static_cast<std::uint32_t>(op.key)) + " failed: err " +
             std::to_string(res.err);
    }
    if (op.cmd == fs::kFsWrite) return {};
    return check_block(shared_, static_cast<std::uint32_t>(op.key),
                       w_.block_bytes, res.data);
  }
  if (payload.size() != 9) {
    return "KV response of " + std::to_string(payload.size()) + " bytes";
  }
  const kv::KvResult res = kv::decode_result(payload);
  const std::string key = std::to_string(op.key);
  switch (op.cmd) {
    case kv::kKvRead:
      if (res.status != kv::kKvOk) return "read " + key + ": status not ok";
      if (w_.kind == WorkloadKind::kKvRead ? res.value != op.key
                                           : !valid_read_value(op.key,
                                                               res.value)) {
        return "read " + key + " returned " + std::to_string(res.value);
      }
      return {};
    case kv::kKvUpdate:
      return res.status == kv::kKvOk ? std::string{}
                                     : "update " + key + ": status not ok";
    case kv::kKvInsert:
    case kv::kKvDelete: {
      const bool ins = op.cmd == kv::kKvInsert;
      const int other = ins ? kv::kKvExists : kv::kKvNotFound;
      if (res.status != kv::kKvOk && res.status != other) {
        return (ins ? "insert " : "delete ") + key + ": status " +
               std::to_string(res.status);
      }
      const std::int64_t slot = slot_of(op);
      const auto i = static_cast<std::size_t>(slot);
      const bool strict = op.expect != kAnyStatus && slot >= 0 &&
                          epoch_[i] == op.epoch && inflight_[i] == 1;
      if (strict && res.status != op.expect) {
        return (ins ? "insert " : "delete ") + key + ": status " +
               std::to_string(res.status) + ", model predicts " +
               std::to_string(op.expect);
      }
      return {};
    }
    default:
      return "unexpected command " + std::to_string(op.cmd);
  }
}

std::int64_t ClientModel::slot_of(const Op& op) const {
  if (w_.kind != WorkloadKind::kKvDependent ||
      (op.cmd != kv::kKvInsert && op.cmd != kv::kKvDelete)) {
    return -1;
  }
  const std::uint64_t slot =
      op.key - w_.preload_keys - client_ * w_.keys_per_client;
  return slot < present_.size() ? static_cast<std::int64_t>(slot) : -1;
}

void ClientModel::settle(const Op& op, bool failed) {
  const std::int64_t slot = slot_of(op);
  if (slot < 0) return;
  const auto i = static_cast<std::size_t>(slot);
  if (inflight_[i] > 0) --inflight_[i];
  if (failed) {
    present_[i] = -1;
    ++epoch_[i];
  }
}

}  // namespace perfbench
