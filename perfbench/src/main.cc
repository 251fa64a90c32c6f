// End-to-end benchmark: SMR, sP-SMR (mpl 4) and P-SMR (mpl 4) on one
// workload, each through a fixed-rate phase (latency) and a closed-loop
// phase (peak throughput).  See README.md for the workloads, the metrics and
// what each layer metric should move.
//
//   perfbench --workload kv_read|kv_dependent|netfs_rw --seed N
//             --seconds S --trace 0|1
//   perfbench --selftest
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics (end-to-end ones untraced, per-layer ones traced).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "host.h"
#include "load.h"
#include "probes.h"
#include "smr/runtime.h"
#include "trace.h"
#include "util/alloc_hook.h"
#include "util/buffer_pool.h"
#include "util/clock.h"
#include "util/hash.h"
#include "workload.h"

#ifdef PERFBENCH_TRACED
PSMR_DEFINE_ALLOC_HOOK();
#endif

namespace perfbench {
namespace {

namespace smr = psmr::smr;
using psmr::util::now_us;

constexpr std::size_t kThreads = 4;
constexpr std::int64_t kFixedWarmupUs = 200'000;
constexpr std::int64_t kClosedWarmupUs = 500'000;
/// Long enough for P-SMR's closed-loop delivery to fall from its start-up
/// burst (up to about 1 s) to the rate the merge pacing allows.
constexpr std::int64_t kPsmrClosedWarmupUs = 1'500'000;
/// Closed-loop throughput and fixed-rate latency are summarised per
/// sub-window of these lengths, and each sub-window's host interference is
/// measured, so the figures can be taken over the quiet ones (host.h).
constexpr std::int64_t kBucketUs = 250'000;
constexpr std::int64_t kFixedWindowUs = 250'000;
/// Deployments per architecture in one run, interleaved (SMR, sP-SMR,
/// P-SMR, SMR, ...).  Throughput settles into a different level per
/// deployment (thread placement on a small host), and another guest's load
/// comes and goes over seconds, so a run looks at each architecture at
/// several times rather than one long look at a single deployment.
constexpr int kRounds = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12;
  bool trace = false;
  bool selftest = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has = i + 1 < argc;
    if (k == "--workload" && has) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has) {
      a.seconds = std::atof(argv[++i]);
    } else if (k == "--trace" && has) {
      a.trace = std::strcmp(argv[++i], "1") == 0;
    } else if (k == "--selftest") {
      a.selftest = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", k.c_str());
      return false;
    }
  }
  return a.selftest || (!a.workload.empty() && a.seconds > 0);
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// --- Layer counters sampled around each closed-loop measured interval ---

struct Counters {
  std::int64_t t_us = 0;
  psmr::transport::NetworkStats net;
  psmr::paxos::CoordinatorStats mc;
  smr::ExecStats exec;
  smr::ResponseStats resp;
  smr::SpoolStats spool;
  psmr::util::PoolStats pool;
  double cpu_us = 0;
  double ctx = 0;
  std::uint64_t allocs = 0;
};

Counters snapshot(smr::Deployment& d) {
  Counters c;
  c.t_us = now_us();
  c.net = d.network().stats();
  c.mc = d.multicast_stats();
  c.exec = d.exec_stats();
  c.resp = d.response_stats();
  c.spool = d.spool_stats();
  c.pool = psmr::util::BufferPool::global().stats();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  c.cpu_us = us(ru.ru_utime) + us(ru.ru_stime);
  c.ctx = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  c.allocs = psmr::util::allochook::allocations();
  return c;
}

/// Layer counters summed over a mode's closed-loop measured intervals.
struct LayerTotals {
  double seconds = 0, cmds = 0, cpu_us = 0, ctx = 0;
  double msgs = 0, bytes = 0;
  double sealed_batches = 0, sealed_cmds = 0, sealed_on_timeout = 0;
  double submit_msgs = 0, submit_cmds = 0, skips = 0;
  double exec_batches = 0, exec_cmds = 0, exec_batched_reads = 0;
  double resp_msgs = 0, resp_count = 0;
  double spool_flushes = 0, spool_cmds = 0;
  double allocs = 0, pool_hits = 0, pool_acquires = 0;
  double threads = 0, rss_mb = 0;  // maxima

  void add(const Counters& a, const Counters& b, std::size_t replicas) {
    auto d = [](auto x, auto y) { return static_cast<double>(y - x); };
    seconds += d(a.t_us, b.t_us) / 1e6;
    // Commands each replica executed in the window.
    cmds += d(a.exec.commands, b.exec.commands) / static_cast<double>(replicas);
    cpu_us += b.cpu_us - a.cpu_us;
    ctx += b.ctx - a.ctx;
    msgs += d(a.net.messages_sent, b.net.messages_sent);
    bytes += d(a.net.bytes_sent, b.net.bytes_sent);
    sealed_batches += d(a.mc.sealed_batches, b.mc.sealed_batches);
    sealed_cmds += d(a.mc.sealed_commands, b.mc.sealed_commands);
    sealed_on_timeout += d(a.mc.sealed_on_timeout, b.mc.sealed_on_timeout);
    submit_msgs += d(a.mc.submit_msgs, b.mc.submit_msgs);
    submit_cmds += d(a.mc.submit_commands, b.mc.submit_commands);
    skips += d(a.mc.decided_skips, b.mc.decided_skips);
    exec_batches += d(a.exec.batches, b.exec.batches);
    exec_cmds += d(a.exec.commands, b.exec.commands);
    exec_batched_reads += d(a.exec.batched_reads, b.exec.batched_reads);
    resp_msgs += d(a.resp.wire_messages, b.resp.wire_messages);
    resp_count += d(a.resp.responses, b.resp.responses);
    spool_flushes += d(a.spool.flushes, b.spool.flushes);
    spool_cmds += d(a.spool.flushed_commands, b.spool.flushed_commands);
    allocs += d(a.allocs, b.allocs);
    const double hits = d(a.pool.hits, b.pool.hits);
    pool_hits += hits;
    pool_acquires += hits + d(a.pool.misses, b.pool.misses) +
                     d(a.pool.oversize, b.pool.oversize);
  }
};

/// Threads and resident MB of this process, from /proc/self/status.
std::pair<double, double> process_status() {
  std::ifstream f("/proc/self/status");
  std::string line;
  double threads = 0, rss_mb = 0;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) threads = std::atof(line.c_str() + 8);
    if (line.rfind("VmRSS:", 0) == 0) {
      rss_mb = std::atof(line.c_str() + 6) / 1024;
    }
  }
  return {threads, rss_mb};
}

// --- One architecture's deployments ---

struct ModeRun {
  smr::Mode mode = smr::Mode::kSmr;
  std::string key;  // metric prefix
  std::vector<double> setup_s;      // per deployment
  std::vector<PhaseResult> fixed;   // per deployment
  std::vector<PhaseResult> closed;  // per deployment
  LayerTotals layers;
  std::uint64_t attempted = 0, failed = 0;
  /// Whether attempted/failed go into the run's totals, which must be the
  /// same share in every run.
  bool counted = true;
  std::vector<std::string> errors;
};

/// Mounts long-lived, preloaded state in a deployment: the replicas of the
/// run's successive deployments all execute against the same two service
/// instances (one per replica), so the 10 M-key preload is paid once per
/// run and deployments are cheap enough to repeat.  Deployments never
/// overlap.
class SharedService final : public smr::Service {
 public:
  explicit SharedService(std::shared_ptr<smr::Service> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] bool may_share_batch(const smr::Command& x,
                                     const smr::Command& y) const override {
    return inner_->may_share_batch(x, y);
  }
  [[nodiscard]] std::uint64_t state_digest() const override {
    return inner_->state_digest();
  }
  [[nodiscard]] smr::ExecStats exec_stats() const override {
    return inner_->exec_stats();
  }

 protected:
  void do_execute_batch(smr::CommandBatch& batch) override {
    inner_->execute_batch(batch);
  }

 private:
  std::shared_ptr<smr::Service> inner_;
};

/// State that lives for the whole run: the replicas' preloaded services and
/// the clients' models of what they wrote.
struct RunState {
  std::shared_ptr<smr::Service> replica[2];
  SharedModel shared;
  std::vector<std::unique_ptr<ClientModel>> models;
  RunState(const WorkloadSpec& w, std::uint64_t seed) : shared(w.files) {
    for (std::size_t t = 0; t < kThreads; ++t) {
      models.push_back(std::make_unique<ClientModel>(
          w, shared, static_cast<std::uint32_t>(t),
          seed ^ psmr::util::mix64(t)));
    }
  }
};

/// Waits until every replica has executed every answered command, then
/// checks the executed counts.
std::string quiesce_and_check(smr::Deployment& d, std::uint64_t answered,
                              std::uint64_t unknown) {
  const std::size_t n = d.num_services();
  std::vector<std::uint64_t> executed(n);
  const std::int64_t give_up = now_us() + 5'000'000;
  while (true) {
    bool settled = true;
    for (std::size_t i = 0; i < n; ++i) {
      executed[i] = d.executed(i);
      settled = settled && executed[i] >= answered &&
                executed[i] == executed[0];
    }
    if (settled || now_us() > give_up) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Settle a moment longer so a straggler on either replica shows.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (std::size_t i = 0; i < n; ++i) executed[i] = d.executed(i);
  return check_replicas(executed, {}, answered, unknown);
}

/// Stops the deployment, which joins every replica thread, so the state
/// reads that follow see all execution; then checks that the replicas'
/// state digests agree.
std::string stop_and_compare(smr::Deployment& d) {
  d.stop();
  std::vector<std::uint64_t> digests;
  for (std::size_t i = 0; i < d.num_services(); ++i) {
    digests.push_back(d.state_digest(i));
  }
  return check_replicas({}, digests, 0, 0);
}

std::vector<LoadClient> make_clients(smr::Deployment& d, RunState& st) {
  std::vector<LoadClient> clients(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients[t].proxy = d.make_client();
    clients[t].model = st.models[t].get();
  }
  return clients;
}

/// The first command a fresh deployment answers: a read of preloaded data.
std::string first_answer(LoadClient& c) {
  const Op op = c.model->first_read();
  auto payload = c.proxy->call(op.cmd, op.params, std::chrono::seconds(10));
  if (!payload) return "first command was not answered";
  return c.model->check(op, *payload);
}

PhaseConfig phase_window(double measure_s, std::uint64_t seed,
                         std::int64_t warmup_us) {
  PhaseConfig p;
  p.start_us = now_us() + 5'000;
  p.from_us = p.start_us + warmup_us;
  p.until_us = p.from_us + static_cast<std::int64_t>(measure_s * 1e6);
  p.seed = seed;
  return p;
}

/// Runs one phase while measuring the host's interference in each of its
/// sub-windows.
PhaseResult run_metered_phase(std::vector<LoadClient>& clients,
                              const PhaseConfig& p) {
  WindowMeter meter(p.from_us, p.bucket_us,
                    static_cast<std::size_t>((p.until_us - p.from_us) /
                                             p.bucket_us));
  PhaseResult r = run_phase(clients, p);
  r.interference = meter.finish();
  return r;
}

/// One deployment of `m.mode` over the run's shared state: set up, a
/// fixed-rate phase, a closed-loop phase, checks after each.
void run_deployment(const WorkloadSpec& w, ModeRun& m, RunState& st,
                    const Args& a, std::uint64_t seed) {
  // Each architecture's share of the run, split over its deployments.  The
  // bounded figures are SMR's and sP-SMR's closed-loop rates and P-SMR's
  // fixed-rate p50 (README.md), so those phases get the most windows.
  const bool psmr = m.mode == smr::Mode::kPsmr;
  const double share = a.seconds * (psmr ? 0.3 : 0.35) / kRounds;
  const double fixed_s = share * (psmr ? 0.4 : 0.3);
  const double closed_s = share - fixed_s;
  auto note = [&m](const PhaseResult& r, const char* phase) {
    m.attempted += r.attempted;
    m.failed += r.failed;
    for (const auto& e : r.errors) {
      m.errors.push_back(m.key + " " + phase + ": " + e);
    }
  };

  const std::int64_t t0 = now_us();
  auto next_replica = std::make_shared<std::size_t>(0);
  auto cfg = deployment_config(w, m.mode, [&st, next_replica] {
    return std::make_unique<SharedService>(st.replica[(*next_replica)++ % 2]);
  });
  smr::Deployment d(std::move(cfg));
  d.start();
  auto clients = make_clients(d, st);
  std::uint64_t answered = 1, unknown = 0;
  m.attempted += 1;
  if (std::string err = first_answer(clients[0]); !err.empty()) {
    m.errors.push_back(m.key + " setup: " + err);
  }
  m.setup_s.push_back(static_cast<double>(now_us() - t0) / 1e6);

  {
    PhaseConfig p = phase_window(fixed_s, seed ^ 0xF1, kFixedWarmupUs);
    p.rate_cps = w.fixed_rate_cps;
    p.bucket_us = kFixedWindowUs;
    p.trace_prefix = m.key + ".fixed";
    p.trace_every = 8;
    PhaseResult r = run_metered_phase(clients, p);
    note(r, "fixed-rate");
    answered += r.answered + r.late;
    unknown += r.failed;
    m.fixed.push_back(std::move(r));
    std::string err = quiesce_and_check(d, answered, unknown);
    if (!err.empty()) m.errors.push_back(m.key + " after fixed-rate: " + err);
  }
  {
    const std::int64_t warmup_us =
        psmr ? kPsmrClosedWarmupUs : kClosedWarmupUs;
    PhaseConfig p = phase_window(closed_s, seed ^ 0xC1, warmup_us);
    p.window = 50;
    p.bucket_us = kBucketUs;
    p.trace_prefix = m.key + ".closed";
    Counters c0, c1;
    std::thread sampler([&] {
      auto sleep_to = [](std::int64_t t) {
        const std::int64_t now = now_us();
        if (t > now) {
          std::this_thread::sleep_for(std::chrono::microseconds(t - now));
        }
      };
      sleep_to(p.from_us);
      c0 = snapshot(d);
      sleep_to((p.from_us + p.until_us) / 2);
      const auto [threads, rss] = process_status();
      m.layers.threads = std::max(m.layers.threads, threads);
      m.layers.rss_mb = std::max(m.layers.rss_mb, rss);
      sleep_to(p.until_us);
      c1 = snapshot(d);
    });
    PhaseResult r = run_metered_phase(clients, p);
    sampler.join();
    m.layers.add(c0, c1, d.num_services());
    note(r, "closed-loop");
    answered += r.answered + r.late;
    unknown += r.failed;
    m.closed.push_back(std::move(r));
    std::string err = quiesce_and_check(d, answered, unknown);
    if (!err.empty()) m.errors.push_back(m.key + " after closed-loop: " + err);
  }
  clients.clear();
  if (std::string err = stop_and_compare(d); !err.empty()) {
    m.errors.push_back(m.key + " at stop: " + err);
  }
}

// --- Reporting ---

/// Highest percentile with at least 10 samples beyond it.
double tail_q(std::size_t n) {
  return n < 40 ? 0.5 : 1.0 - 10.0 / static_cast<double>(n);
}

/// A mode's figures over its deployments.
struct Summary {
  std::vector<double> kcps;  // every closed-loop sub-window of every deployment
  std::vector<double> kcps_interference;  // host interference, per window
  /// Throughput is taken over the windows moved to zero interference, p50
  /// over the quiet windows (host.h).  What interference the meter misses
  /// only ever takes SMR's and sP-SMR's throughput away and adds latency,
  /// so a figure is the quartile of its windows on the side the host cannot
  /// flatter: the upper one for throughput, the lower one for p50.
  double kcps_figure = 0;
  double kcps_slope = 0;  // Kcps per unit of interference (host.h)
  std::vector<double> window_p50s;  // per fixed-rate sub-window
  std::vector<double> p50_interference;
  double p50 = 0;                   // lower quartile of the quiet ones
  std::size_t p50_quiet = 0;
  std::vector<double> p50s, p90s;   // per deployment
  double p90 = 0;                   // median of p90s
  std::vector<double> latency;     // pooled fixed-rate latencies
  std::vector<double> closed_latency;  // pooled closed-loop latencies
  std::vector<double> lateness;
  std::uint64_t fixed_attempted = 0, fixed_failed = 0;
  std::uint64_t closed_attempted = 0, closed_failed = 0, late = 0;
  double submit_ns = 0, poll_ns = 0, thread_ns = 0;
  std::uint64_t submits = 0;
  double fixed_submit_ns = 0;
  std::uint64_t fixed_submits = 0;
};

Summary summarize(const ModeRun& m) {
  Summary s;
  for (const PhaseResult& r : m.fixed) {
    std::vector<std::vector<double>> by_window(r.buckets.size());
    for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
      if (r.latency_window[i] < by_window.size()) {
        by_window[r.latency_window[i]].push_back(r.latency_us[i]);
      }
    }
    for (std::size_t b = 0; b < by_window.size(); ++b) {
      if (by_window[b].empty()) continue;
      s.window_p50s.push_back(quantile(by_window[b], 0.5));
      s.p50_interference.push_back(
          b < r.interference.size() ? r.interference[b] : 1.0);
    }
    std::vector<double> lat = r.latency_us;
    s.p50s.push_back(quantile(lat, 0.5));
    s.p90s.push_back(quantile(lat, 0.9));
    s.latency.insert(s.latency.end(), lat.begin(), lat.end());
    s.lateness.insert(s.lateness.end(), r.lateness_us.begin(),
                      r.lateness_us.end());
    s.fixed_attempted += r.attempted;
    s.fixed_failed += r.failed;
    s.late += r.late;
    s.fixed_submit_ns += r.submit_ns;
    s.fixed_submits += r.submits;
  }
  for (const PhaseResult& r : m.closed) {
    for (std::size_t b = 0; b < r.buckets.size(); ++b) {
      s.kcps.push_back(static_cast<double>(r.buckets[b]) /
                       static_cast<double>(kBucketUs) * 1e3);
      s.kcps_interference.push_back(
          b < r.interference.size() ? r.interference[b] : 1.0);
    }
    s.closed_latency.insert(s.closed_latency.end(), r.latency_us.begin(),
                            r.latency_us.end());
    s.closed_attempted += r.attempted;
    s.closed_failed += r.failed;
    s.late += r.late;
    s.submit_ns += r.submit_ns;
    s.submits += r.submits;
    s.poll_ns += r.poll_ns;
    s.thread_ns += r.thread_ns;
  }
  s.kcps_slope = falling_slope(s.kcps, s.kcps_interference);
  std::vector<double> v = s.kcps;
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] -= s.kcps_slope * s.kcps_interference[i];
  }
  s.kcps_figure = quantile(v, 0.75);
  v = quiet_values(s.window_p50s, s.p50_interference);
  s.p50_quiet = v.size();
  s.p50 = quantile(v, 0.25);
  v = s.p90s;
  s.p90 = quantile(v, 0.5);
  return s;
}

void print_mode(const ModeRun& m, double rate_cps) {
  Summary s = summarize(m);
  const std::size_t n = s.latency.size();
  const double tq = tail_q(n);
  std::printf("%-6s fixed %.0f cps: p50 %.1f us (lower quartile of %zu quiet "
              "of %zu %.2f s windows), p90 %.1f us (median over %zu "
              "deployments; p50s",
              m.key.c_str(), rate_cps, s.p50, s.p50_quiet,
              s.window_p50s.size(), static_cast<double>(kFixedWindowUs) / 1e6,
              s.p90, m.fixed.size());
  for (double v : s.p50s) std::printf(" %.0f", v);
  std::printf(", window p50s/interference %%");
  for (std::size_t i = 0; i < s.window_p50s.size(); ++i) {
    std::printf(" %.0f/%.0f", s.window_p50s[i], 100 * s.p50_interference[i]);
  }
  std::printf(", p90s");
  for (double v : s.p90s) std::printf(" %.0f", v);
  std::printf("); pooled p99 %.0f us, p%.2f %.0f us (n=%zu); generator "
              "lateness p50 %.0f us max %.0f us\n",
              quantile(s.latency, 0.99), tq * 100, quantile(s.latency, tq), n,
              quantile(s.lateness, 0.5), quantile(s.lateness, 1.0));
  std::printf("%-6s closed 4x50: %.2f Kcps, upper quartile of %zu %.2f s "
              "windows moved to zero interference (slope %.1f Kcps per "
              "interference %%; Kcps/interference %%):",
              m.key.c_str(), s.kcps_figure, s.kcps.size(),
              static_cast<double>(kBucketUs) / 1e6, s.kcps_slope / 100);
  for (std::size_t i = 0; i < s.kcps.size(); ++i) {
    std::printf(" %.1f/%.0f", s.kcps[i], 100 * s.kcps_interference[i]);
  }
  std::printf("; latency p99 %.0f us, max %.0f us",
              quantile(s.closed_latency, 0.99),
              quantile(s.closed_latency, 1.0));
  std::printf("\n%-6s setup s:", m.key.c_str());
  for (double v : m.setup_s) std::printf(" %.4f", v);
  std::printf(" | fixed-rate attempted %llu failed %llu; closed-loop "
              "attempted %llu failed %llu; answered after deadline %llu\n",
              static_cast<unsigned long long>(s.fixed_attempted),
              static_cast<unsigned long long>(s.fixed_failed),
              static_cast<unsigned long long>(s.closed_attempted),
              static_cast<unsigned long long>(s.closed_failed),
              static_cast<unsigned long long>(s.late));
  if (!m.counted) {
    std::printf("%-6s %llu of %llu commands failed (%.2f%%); not in the run's "
                "attempted/failed, as their share varies with timing\n",
                m.key.c_str(), static_cast<unsigned long long>(m.failed),
                static_cast<unsigned long long>(m.attempted),
                100 * ratio(static_cast<double>(m.failed),
                            static_cast<double>(m.attempted)));
  }
}

struct Metrics {
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> list;
  void add(const std::string& name, double v, const char* unit) {
    list.push_back({name, v, unit});
  }
};

/// Per-layer metrics of one mode (traced run).
void layer_metrics(Metrics& out, const ModeRun& m, const OrderResult& order,
                   double exec_us,
                   const std::map<std::string, Tracer::Agg>& agg) {
  const std::string& k = m.key;
  const LayerTotals& t = m.layers;
  const Summary s = summarize(m);
  out.add(k + ".cpu_us_per_cmd", ratio(t.cpu_us, t.cmds), "us");
  out.add(k + ".ctx_switches_per_cmd", ratio(t.ctx, t.cmds), "count");
  out.add(k + ".threads", t.threads, "count");
  out.add(k + ".rss_mb", t.rss_mb, "MB");
  out.add(k + ".client.submit_ns",
          ratio(s.submit_ns, static_cast<double>(s.submits)), "ns");
  out.add(k + ".client.poll_wait_share", ratio(s.poll_ns, s.thread_ns),
          "ratio");
  out.add(k + ".spool.cmds_per_flush", ratio(t.spool_cmds, t.spool_flushes),
          "count");
  out.add(k + ".transport.msgs_per_cmd", ratio(t.msgs, t.cmds), "count");
  out.add(k + ".transport.bytes_per_cmd", ratio(t.bytes, t.cmds), "B");
  out.add(k + ".paxos.cmds_per_batch", ratio(t.sealed_cmds, t.sealed_batches),
          "count");
  out.add(k + ".paxos.timeout_seal_share",
          ratio(t.sealed_on_timeout, t.sealed_batches), "ratio");
  out.add(k + ".paxos.submit_msgs_per_cmd",
          ratio(t.submit_msgs, t.submit_cmds), "count");
  out.add(k + ".paxos.skips_per_s", ratio(t.skips, t.seconds), "1/s");
  out.add(k + ".order.kcps", order.kcps, "Kcmd/s");
  out.add(k + ".order.p50_us", order.p50_us, "us");
  out.add(k + ".exec.cmds_per_batch", ratio(t.exec_cmds, t.exec_batches),
          "count");
  out.add(k + ".exec.batched_read_share",
          ratio(t.exec_batched_reads, t.exec_cmds), "ratio");
  out.add(k + ".reply.responses_per_msg", ratio(t.resp_count, t.resp_msgs),
          "count");
  out.add(k + ".alloc_per_cmd", ratio(t.allocs, t.cmds), "count");
  out.add(k + ".pool.hit_share", ratio(t.pool_hits, t.pool_acquires), "ratio");
  const double submit_us =
      ratio(s.fixed_submit_ns, static_cast<double>(s.fixed_submits)) / 1e3;
  out.add(k + ".latency.unattributed_us",
          s.p50 - submit_us - order.p50_us - exec_us, "us");
  out.add(k + ".latency.p90_us", s.p90, "us");
  std::vector<double> pooled = s.latency;
  out.add(k + ".latency.p99_us", quantile(pooled, 0.99), "us");
  out.add(k + ".trace.kcps", s.kcps_figure, "Kcmd/s");
  out.add(k + ".trace.p50_us", s.p50, "us");
  auto self_us = [&](const std::string& name) {
    auto it = agg.find(name);
    return it == agg.end() ? 0.0
                           : it->second.self_ns / 1e3 /
                                 static_cast<double>(it->second.count);
  };
  out.add(k + ".trace.submit_self_us", self_us(k + ".fixed.submit"), "us");
  out.add(k + ".trace.poll_self_us", self_us(k + ".fixed.poll"), "us");
  out.add(k + ".trace.wait_self_us", self_us(k + ".fixed.command"), "us");
}

int run(const Args& a) {
  WorkloadSpec w;
  if (!parse_workload(a.workload, w)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 a.workload.c_str());
    return 2;
  }
  std::vector<std::string> errors;
  // The checks' self-test runs first in every run: a check that accepts a
  // corrupted answer would make every later verdict meaningless.
  for (auto& e : run_selftest(false)) errors.push_back("self-test: " + e);

  Tracer::get().enable(a.trace);
  std::printf("perfbench workload=%s seed=%llu seconds=%.1f trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);

  RunState st(w, a.seed);
  const std::int64_t t0 = now_us();
  st.replica[0] = make_service(w);
  st.replica[1] = make_service(w);
  const double preload_s = static_cast<double>(now_us() - t0) / 1e6;

  std::vector<ModeRun> runs(3);
  runs[0].mode = smr::Mode::kSmr;
  runs[0].key = "smr";
  runs[1].mode = smr::Mode::kSpsmr;
  runs[1].key = "spsmr";
  runs[2].mode = smr::Mode::kPsmr;
  runs[2].key = "psmr";
  // On the dependent mix P-SMR loses commands (README.md, "P-SMR drops
  // commands"), a share that changes from run to run.  They count as failed
  // on P-SMR's own line and in psmr.answered_share.
  runs[2].counted = w.kind != WorkloadKind::kKvDependent;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto salt = static_cast<std::uint64_t>(round * 8) + i;
      run_deployment(w, runs[i], st, a, a.seed ^ psmr::util::mix64(salt));
    }
  }
  st.replica[0].reset();
  st.replica[1].reset();

  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> setups;
  for (auto& m : runs) {
    print_mode(m, w.fixed_rate_cps);
    if (m.counted) {
      attempted += m.attempted;
      failed += m.failed;
    }
    setups.insert(setups.end(), m.setup_s.begin(), m.setup_s.end());
    for (auto& e : m.errors) errors.push_back(e);
  }
  const double setup_s = preload_s + quantile(setups, 0.5);
  std::printf("setup: preload %.3f s + median deployment start %.4f s = "
              "%.3f s\n",
              preload_s, quantile(setups, 0.5), setup_s);

  Metrics metrics;
  if (!a.trace) {
    // What does not repeat from run to run is printed above and reported by
    // the traced run instead (README.md, "Dropped for unsteadiness"):
    // P-SMR's closed-loop rate (fault 1), SMR's and sP-SMR's p50 (host
    // contention that lasts a whole run) and every p90.
    metrics.add("smr.kcps", summarize(runs[0]).kcps_figure, "Kcmd/s");
    metrics.add("spsmr.kcps", summarize(runs[1]).kcps_figure, "Kcmd/s");
    metrics.add("psmr.p50_us", summarize(runs[2]).p50, "us");
    // Only P-SMR loses commands (fault 2); its answered share is how a fix
    // or a worsening of that fault shows end to end.
    const ModeRun& psmr_run = runs[2];
    metrics.add("psmr.answered_share",
                1 - ratio(static_cast<double>(psmr_run.failed),
                          static_cast<double>(psmr_run.attempted)),
                "ratio");
    metrics.add("setup_s", setup_s, "s");
  } else {
    const ExecResult ex = exec_probe(w, a.seed);
    const double exec_us = w.kind == WorkloadKind::kNetfsRw
                               ? ex.netfs_us_per_cmd
                               : ex.kv_ns_per_cmd / 1e3;
    std::vector<OrderResult> orders;
    for (auto& m : runs) {
      orders.push_back(order_probe(w, m.mode, w.fixed_rate_cps, 2.0, a.seed));
      std::printf("%-6s ordering only: p50 %.1f us at %.0f cps, %.1f Kcps "
                  "closed loop\n",
                  m.key.c_str(), orders.back().p50_us, w.fixed_rate_cps,
                  orders.back().kcps);
      if (orders.back().failed != 0) {
        errors.push_back(m.key + " ordering probe: bus refused " +
                         std::to_string(orders.back().failed) + " multicasts");
      }
    }
    const auto agg = Tracer::get().aggregate();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      layer_metrics(metrics, runs[i], orders[i], exec_us, agg);
    }
    metrics.add("util.lz_compress_us", ex.lz_compress_us, "us");
    metrics.add("util.lz_decompress_us", ex.lz_decompress_us, "us");
    metrics.add("kvstore.find_ns", ex.find_ns, "ns");
    metrics.add("kvstore.find_batch_ns", ex.find_batch_ns, "ns");
    metrics.add("kvstore.exec_ns_per_cmd", ex.kv_ns_per_cmd, "ns");
    metrics.add("netfs.exec_us_per_cmd", ex.netfs_us_per_cmd, "us");

    const char* out_dir = std::getenv("PERFBENCH_OUT");
    const std::string path = std::string(out_dir ? out_dir : ".") +
                             "/trace-" + w.name + "-" +
                             std::to_string(a.seed) + ".json";
    if (Tracer::get().write_json(path)) {
      std::printf("spans written to %s\n", path.c_str());
    } else {
      errors.push_back("cannot write " + path);
    }
    std::printf("self time per span name, us per call:");
    for (const auto& [name, ag] : agg) {
      std::printf(" %s=%.2f(n=%llu)", name.c_str(),
                  ag.self_ns / 1e3 / static_cast<double>(ag.count),
                  static_cast<unsigned long long>(ag.count));
    }
    std::printf("\n");
  }

  for (const auto& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.list.size(); ++i) {
    const auto& e = metrics.list[i];
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", i ? ", " : "",
                e.name.c_str(), e.value, e.unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload kv_read|kv_dependent|netfs_rw "
                 "--seed N --seconds S --trace 0|1  |  perfbench --selftest\n");
    return 2;
  }
  if (a.selftest) {
    const auto errors = perfbench::run_selftest(true);
    for (const auto& e : errors) {
      std::printf("SELF-TEST FAILED: %s\n", e.c_str());
    }
    return errors.empty() ? 0 : 1;
  }
  return perfbench::run(a);
}
