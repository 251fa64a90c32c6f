#include "probes.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "kvstore/kv_service.h"
#include "load.h"
#include "multicast/amcast.h"
#include "trace.h"
#include "util/clock.h"
#include "util/compress.h"
#include "util/hash.h"

namespace perfbench {

using psmr::util::now_us;
namespace smr = psmr::smr;

namespace {

constexpr std::size_t kSenders = 4;
constexpr std::size_t kWindow = 50;
/// Per-run cap on ordering-probe messages (sizes the due-time table).
constexpr std::size_t kMaxMessages = 2'000'000;

smr::Command to_command(Op op, smr::ClientId client, smr::Seq seq) {
  smr::Command c;
  c.cmd = op.cmd;
  c.client = client;
  c.seq = seq;
  c.params = std::move(op.params);
  return c;
}

std::vector<smr::Command> generate(const WorkloadSpec& w, std::uint64_t seed,
                                   std::size_t n) {
  SharedModel shared(w.files);
  ClientModel model(w, shared, 0, seed);
  std::vector<smr::Command> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(to_command(model.next(), 1, i + 1));
  }
  return out;
}

/// Executes `cmds` the way a replica worker does: runs of up to 16
/// pairwise-independent commands per execute_batch.  Returns ns per command.
double replay(smr::Service& svc, const std::vector<smr::Command>& cmds,
              const char* span_name) {
  Tracer::Buffer* buf = nullptr;
  if (Tracer::get().on()) buf = Tracer::get().thread_buffer(span_name);
  const std::int64_t t0 = now_ns();
  std::size_t i = 0;
  while (i < cmds.size()) {
    std::size_t j = i + 1;
    while (j < cmds.size() && j - i < 16) {
      bool indep = true;
      for (std::size_t k = i; k < j && indep; ++k) {
        indep = svc.may_share_batch(cmds[k], cmds[j]);
      }
      if (!indep) break;
      ++j;
    }
    smr::CollectingSink sink(j - i);
    smr::CommandBatch batch{std::span<const smr::Command>(&cmds[i], j - i),
                            &sink};
    timed_call(buf, span_name, [&] { svc.execute_batch(batch); });
    i = j;
  }
  return static_cast<double>(now_ns() - t0) /
         static_cast<double>(cmds.size());
}

}  // namespace

OrderResult order_probe(const WorkloadSpec& w, smr::Mode mode,
                        double rate_cps, double seconds, std::uint64_t seed) {
  psmr::transport::Network net;
  psmr::multicast::BusConfig bc;
  bc.num_groups = mode == smr::Mode::kPsmr ? 4 : 1;
  psmr::multicast::Bus bus(net, bc);
  const auto cg = client_cg(w, mode);
  std::vector<std::unique_ptr<psmr::multicast::MergeDeliverer>> subs;
  for (std::size_t g = 0; g < bc.num_groups; ++g) {
    subs.push_back(bus.subscribe(static_cast<psmr::multicast::GroupId>(g)));
  }
  bus.start();

  const bool traced = Tracer::get().on();
  const std::string prefix =
      std::string("order.") + (mode == smr::Mode::kSmr     ? "smr"
                               : mode == smr::Mode::kSpsmr ? "spsmr"
                                                           : "psmr");
  const char* mc_name = Tracer::get().intern(prefix + ".multicast");
  const char* next_name = Tracer::get().intern(prefix + ".next");

  std::vector<std::int64_t> due(kMaxMessages, 0);
  std::atomic<std::size_t> inflight[kSenders + 1];
  for (auto& x : inflight) x.store(0);
  std::atomic<bool> fixed_phase{true};
  std::atomic<std::int64_t> from_us{0}, until_us{0};
  // The fixed-rate window, kept apart so a late fixed-rate delivery cannot
  // land in the closed-loop window.
  std::atomic<std::int64_t> fixed_from_us{0}, fixed_until_us{0};
  std::atomic<std::uint64_t> delivered{0};
  std::vector<std::vector<double>> lat(subs.size());

  std::vector<std::thread> deliverers;
  for (std::size_t g = 0; g < subs.size(); ++g) {
    deliverers.emplace_back([&, g] {
      Tracer::Buffer* buf =
          traced ? Tracer::get().thread_buffer(prefix + ".deliver") : nullptr;
      while (true) {
        const bool fixed = fixed_phase.load(std::memory_order_relaxed);
        auto d = timed_call(fixed ? buf : nullptr, next_name,
                            [&] { return subs[g]->next(); });
        if (!d) return;
        auto c = smr::Command::decode(d->message);
        if (!c || c->groups.min() != g) continue;  // executor delivery only
        const std::int64_t now_exact = now_ns();
        const std::int64_t now = now_exact / 1000;
        if (c->client == 0) {
          if (now >= fixed_from_us.load() && now < fixed_until_us.load()) {
            lat[g].push_back(
                static_cast<double>(now_exact - due[c->seq] * 1000) / 1e3);
          }
        } else {
          if (now >= from_us.load() && now < until_us.load()) {
            delivered.fetch_add(1, std::memory_order_relaxed);
          }
          inflight[c->client].fetch_sub(1);
          inflight[c->client].notify_one();
        }
      }
    });
  }

  OrderResult out;
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::size_t> next_id{1};
  const double half = seconds / 2;
  const std::int64_t warm = 200'000;

  // Fixed rate: one Poisson sender (client 0), latency from the due time.
  {
    auto [node, box] = net.register_node();
    SharedModel shared(w.files);
    ClientModel model(w, shared, 0, seed);
    psmr::util::SplitMix64 rng(seed ^ 0x5eed);
    Tracer::Buffer* buf =
        traced ? Tracer::get().thread_buffer(prefix + ".send") : nullptr;
    const std::int64_t start = now_us();
    fixed_from_us = start + warm;
    fixed_until_us = start + warm + static_cast<std::int64_t>(half * 1e6);
    std::int64_t t = start;
    while (t < fixed_until_us.load()) {
      t += static_cast<std::int64_t>(-std::log1p(-rng.next_double()) * 1e6 /
                                     rate_cps);
      while (now_us() < t) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::max<std::int64_t>(1, t - now_us() - 60)));
      }
      const std::size_t id = next_id.fetch_add(1);
      if (id >= kMaxMessages) break;
      due[id] = t;
      smr::Command c = to_command(model.next(), 0, id);
      c.groups = cg->groups(c);
      if (!timed_call(buf, mc_name, [&] {
            return bus.multicast(node, c.groups, c.encode());
          })) {
        failed.fetch_add(1);
      }
    }
  }

  // Closed loop: kSenders senders, each with kWindow messages in flight.
  fixed_phase = false;
  {
    const std::int64_t start = now_us() + 1000;
    from_us = start + warm;
    until_us = start + warm + static_cast<std::int64_t>(half * 1e6);
    std::vector<std::thread> senders;
    for (std::size_t s = 1; s <= kSenders; ++s) {
      senders.emplace_back([&, s] {
        auto [node, box] = net.register_node();
        SharedModel shared(w.files);
        ClientModel model(w, shared, static_cast<std::uint32_t>(s),
                          seed ^ psmr::util::mix64(s));
        while (now_us() < until_us.load()) {
          std::size_t cur = inflight[s].load();
          if (cur >= kWindow) {
            inflight[s].wait(cur);
            continue;
          }
          smr::Command c = to_command(model.next(), s, next_id.fetch_add(1));
          c.groups = cg->groups(c);
          inflight[s].fetch_add(1);
          if (!bus.multicast(node, c.groups, c.encode())) {
            inflight[s].fetch_sub(1);
            failed.fetch_add(1);
          }
        }
        // Drain (bounded): the stream stops at bus.stop() otherwise.
        const std::int64_t give_up = now_us() + 2'000'000;
        while (inflight[s].load() > 0 && now_us() < give_up) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    for (auto& th : senders) th.join();
    out.kcps = static_cast<double>(delivered.load()) / (half * 1e3);
  }

  bus.stop();
  for (auto& s : subs) s->close();
  net.shutdown();
  for (auto& th : deliverers) th.join();
  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  out.p50_us = quantile(all, 0.5);
  out.failed = failed.load();
  return out;
}

ExecResult exec_probe(const WorkloadSpec& w, std::uint64_t seed) {
  ExecResult r;
  WorkloadSpec kvw = w;
  if (w.kind == WorkloadKind::kNetfsRw) parse_workload("kv_read", kvw);
  WorkloadSpec fsw;
  parse_workload("netfs_rw", fsw);
  Tracer::Buffer* buf =
      Tracer::get().on() ? Tracer::get().thread_buffer("probe") : nullptr;

  {
    auto svc = make_service(kvw);
    const auto& tree =
        dynamic_cast<psmr::kvstore::KvService&>(*svc).tree();
    psmr::util::SplitMix64 rng(seed ^ 0xf1d);
    std::vector<std::uint64_t> keys(200'000);
    for (auto& k : keys) k = rng.next_below(kvw.preload_keys);
    std::uint64_t sum = 0;
    timed_call(buf, "kvstore.find_loop", [&] {
      const std::int64_t t0 = now_ns();
      for (auto k : keys) sum += tree.find(k).value_or(0);
      r.find_ns = static_cast<double>(now_ns() - t0) /
                  static_cast<double>(keys.size());
    });
    timed_call(buf, "kvstore.find_batch_loop", [&] {
      std::optional<std::uint64_t> vals[16];
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i + 16 <= keys.size(); i += 16) {
        tree.find_batch(&keys[i], 16, vals);
        sum += vals[0].value_or(0);
      }
      r.find_batch_ns = static_cast<double>(now_ns() - t0) /
                        static_cast<double>(keys.size());
    });
    if (sum == 42) std::printf("#");  // keeps the lookups observable
    r.kv_ns_per_cmd =
        replay(*svc, generate(kvw, seed, 64'000), "kvstore.execute_batch");
  }
  {
    auto svc = make_service(fsw);
    r.netfs_us_per_cmd =
        replay(*svc, generate(fsw, seed, 4'000), "netfs.execute_batch") /
        1e3;
  }
  {
    std::vector<psmr::util::Buffer> blocks;
    for (std::uint32_t f = 0; f < 64; ++f) {
      blocks.push_back(make_block(BlockId{f, 1, f}, fsw.block_bytes));
    }
    constexpr int kReps = 40;
    std::vector<psmr::util::Buffer> packed(blocks.size());
    timed_call(buf, "util.lz_compress_loop", [&] {
      const std::int64_t t0 = now_ns();
      for (int rep = 0; rep < kReps; ++rep) {
        for (std::size_t i = 0; i < blocks.size(); ++i) {
          packed[i] = psmr::util::lz_compress(blocks[i]);
        }
      }
      r.lz_compress_us = static_cast<double>(now_ns() - t0) /
                         (1e3 * kReps * static_cast<double>(blocks.size()));
    });
    std::size_t bytes = 0;
    timed_call(buf, "util.lz_decompress_loop", [&] {
      const std::int64_t t0 = now_ns();
      for (int rep = 0; rep < kReps; ++rep) {
        for (const auto& p : packed) {
          bytes += psmr::util::lz_decompress(p).value_or(psmr::util::Buffer{})
                       .size();
        }
      }
      r.lz_decompress_us = static_cast<double>(now_ns() - t0) /
                           (1e3 * kReps * static_cast<double>(packed.size()));
    });
    if (bytes == 1) std::printf("#");
  }
  return r;
}

}  // namespace perfbench
