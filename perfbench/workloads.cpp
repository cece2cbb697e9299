#include "workloads.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "host.hpp"
#include "run/traffic.hpp"
#include "util/rng.hpp"
#include "workloads/spec.hpp"
#include "workloads/suite.hpp"

namespace perfbench {
namespace {

using sigvp::AppInstance;
using sigvp::Backend;
using sigvp::ExecMode;
using sigvp::ScenarioResult;
namespace wl = sigvp::workloads;

// --- traffic ---------------------------------------------------------------
constexpr std::uint32_t kTrafficVps = 64;
constexpr std::uint32_t kTrafficRequestsPerVp = 500;
constexpr std::uint64_t kTrafficN = 4096;  // multiple of 32 (mlInference)
/// Per-VP mean Poisson inter-arrival. The single dispatcher pays
/// DispatchConfig::dispatch_overhead_us per dispatched job or coalesced
/// group (~6.3 per request here), so 64 VPs at this rate offer ~0.7 of the
/// load that saturates it and the queue stays bounded.
constexpr double kTrafficInterarrivalUs = 700000.0;

// --- fleet -----------------------------------------------------------------
constexpr std::size_t kFleetVps = 16384;
constexpr std::uint32_t kFleetDomains = 32;
constexpr std::uint64_t kFleetN = 256;
constexpr std::uint64_t kFleetArenaBytes = 32ull << 20;  // per domain, as fleet_scale
constexpr std::uint32_t kFleetLaunchesPerIter = 2;
constexpr std::uint32_t kFleetMaxIterations = 3;  // VPs run 1..3 iterations
constexpr std::size_t kFleetMaxShards = 4;

// --- functional ------------------------------------------------------------
/// histogram's global atomics keep it on Tier 1 and out of the launch cache.
constexpr const char* kFunctionalApps[] = {"nbody",  "BlackScholes", "matrixMul",
                                           "dct8x8", "Mandelbrot",   "histogram"};
/// VPs per app: the first ones run the app's estimate size (identical
/// launches the launch cache replays), the last one half that size (its
/// launches differ and must be interpreted).
constexpr std::size_t kFunctionalVpsPerApp = 4;
constexpr std::uint32_t kFunctionalIterations = 8;

/// Seeded Fisher-Yates over a fixed multiset: the seed changes which VP gets
/// which entry, never the total work, so every seed measures the same size.
template <typename T>
void seeded_shuffle(std::vector<T>& v, std::uint64_t seed) {
  sigvp::Rng rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

std::unique_ptr<BenchWorkload> build_traffic(std::uint64_t seed) {
  auto w = std::make_unique<BenchWorkload>();
  w->name = "traffic";
  w->suite_ms = time_ms([&] { w->suite = wl::make_app_suite(); });
  w->streams_ms = time_ms([&] {
    wl::WorkloadSpec spec;
    spec.request_count = kTrafficRequestsPerVp;
    spec.vp_count = kTrafficVps;
    spec.mix = {{"graphAnalytics", 40}, {"mlInference", 30}, {"camPipeline", 30}};
    spec.base_n = kTrafficN;
    spec.scalar_jitter = true;
    spec.seed = seed;
    std::vector<std::vector<wl::Request>> streams = wl::build_request_streams(spec, w->suite);

    sigvp::run::traffic::TrafficConfig tc;
    tc.shape = sigvp::run::traffic::Shape::kPoisson;
    tc.mean_interarrival_us = kTrafficInterarrivalUs;
    tc.seed = seed;
    w->apps.reserve(streams.size());
    for (std::size_t vp = 0; vp < streams.size(); ++vp) {
      // camPipeline runs canonical scalars so its eligible stages coalesce;
      // graph/ml keep their per-VP jitter and must never merge.
      for (wl::Request& req : streams[vp]) {
        if (req.workload->app == "camPipeline") req.jitter = 0;
      }
      AppInstance a;
      a.workload = streams[vp].front().workload;
      a.n = kTrafficN;
      a.arrivals = sigvp::run::traffic::arrival_times(tc, static_cast<std::uint32_t>(vp),
                                                      kTrafficRequestsPerVp);
      a.requests = std::move(streams[vp]);
      w->offered_requests += a.arrivals.size();
      w->apps.push_back(std::move(a));
    }
  });
  w->config.backend = Backend::kSigmaVp;
  w->config.mode = ExecMode::kAnalytic;
  w->config.dispatch.interleave = true;
  w->config.dispatch.coalesce = true;
  return w;
}

std::unique_ptr<BenchWorkload> build_fleet(std::uint64_t seed) {
  auto w = std::make_unique<BenchWorkload>();
  w->name = "fleet";
  w->suite_ms = time_ms([&] { w->suite = wl::make_suite(); });
  w->streams_ms = time_ms([&] {
    const wl::Workload& va = wl::find(w->suite, "vectorAdd");
    std::vector<std::uint32_t> iterations(kFleetVps);
    for (std::size_t i = 0; i < kFleetVps; ++i) {
      iterations[i] = 1 + static_cast<std::uint32_t>(i % kFleetMaxIterations);
    }
    seeded_shuffle(iterations, seed);
    w->apps.reserve(kFleetVps);
    for (const std::uint32_t it : iterations) {
      wl::AppTraits t = va.traits;
      t.iterations = it;
      t.launches_per_iter = kFleetLaunchesPerIter;
      t.iter_h2d_bytes = 0;
      t.iter_d2h_bytes = 0;
      t.noncuda_guest_instrs = 0.0;
      AppInstance a;
      a.workload = &va;
      a.n = kFleetN;
      a.traits = t;
      w->apps.push_back(std::move(a));
    }
  });
  w->config.backend = Backend::kSigmaVp;
  w->config.mode = ExecMode::kAnalytic;
  w->config.gpu_mem_bytes = kFleetArenaBytes;
  w->config.fleet.domains = kFleetDomains;
  w->config.fleet.edge_latency_us = 500.0;
  w->config.dispatch.interleave = true;
  w->config.async_launches = true;
  w->check_shards = std::min(host_cores(), kFleetMaxShards);
  return w;
}

std::unique_ptr<BenchWorkload> build_functional(std::uint64_t seed) {
  auto w = std::make_unique<BenchWorkload>();
  w->name = "functional";
  w->suite_ms = time_ms([&] { w->suite = wl::make_suite(); });
  w->streams_ms = time_ms([&] {
    std::vector<std::pair<const wl::Workload*, std::uint64_t>> vps;
    for (const char* app : kFunctionalApps) {
      const wl::Workload& a = wl::find(w->suite, app);
      const std::uint64_t n = a.estimate_n != 0 ? a.estimate_n : a.test_n;
      for (std::size_t i = 0; i + 1 < kFunctionalVpsPerApp; ++i) vps.emplace_back(&a, n);
      vps.emplace_back(&a, n / 2);
    }
    seeded_shuffle(vps, seed);
    w->apps.reserve(vps.size());
    for (const auto& [app, n] : vps) {
      wl::AppTraits t = app->traits;
      t.iterations = kFunctionalIterations;
      t.launches_per_iter = 1;
      t.iter_h2d_bytes = 0;
      t.iter_d2h_bytes = 0;
      AppInstance a;
      a.workload = app;
      a.n = n;
      a.traits = t;
      w->apps.push_back(std::move(a));
    }
  });
  w->config.backend = Backend::kSigmaVp;
  w->config.mode = ExecMode::kFunctional;
  w->config.functional_io = true;
  w->config.dispatch.interleave = true;
  w->config.dispatch.coalesce = true;
  w->config.async_launches = true;
  return w;
}

}  // namespace

std::uint64_t BenchWorkload::arena_count() const {
  const std::uint64_t devices = std::max<std::size_t>(1, config.host_gpus.size());
  return std::max<std::uint32_t>(1, config.fleet.domains) * devices;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"traffic", "fleet", "functional"};
  return names;
}

std::unique_ptr<BenchWorkload> build_workload(const std::string& name, std::uint64_t seed) {
  if (name == "traffic") return build_traffic(seed);
  if (name == "fleet") return build_fleet(seed);
  if (name == "functional") return build_functional(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<std::string> check_invariants(const BenchWorkload& w, const ScenarioResult& r) {
  std::vector<std::string> bad;
  auto require = [&bad](bool ok, const std::string& what) {
    if (!ok) bad.push_back(what);
  };

  require(r.jobs_dispatched > 0, "no jobs dispatched");
  require(r.app_done_us.size() == w.apps.size(),
          std::to_string(r.app_done_us.size()) + " of " + std::to_string(w.apps.size()) +
              " apps finished");
  double last = 0.0;
  for (const double t : r.app_done_us) {
    require(t > 0.0 && t <= r.makespan_us, "app done time outside (0, makespan]");
    last = std::max(last, t);
  }
  require(last == r.makespan_us, "makespan is not the last app's completion");

  if (w.offered_requests > 0) {
    require(r.requests_completed == w.offered_requests,
            "served " + std::to_string(r.requests_completed) + " of " +
                std::to_string(w.offered_requests) + " requests");
    require(r.latency.count == w.offered_requests, "latency histogram incomplete");
    const double p50 = r.latency.quantile(0.50);
    const double p95 = r.latency.quantile(0.95);
    const double p99 = r.latency.quantile(0.99);
    require(p50 <= p95 && p95 <= p99 && p99 <= r.latency.max, "percentiles not monotone");
    require(r.coalesced_groups > 0, "canonical camPipeline stages never coalesced");
  }
  if (w.config.fleet.domains >= 2) {
    require(r.fleet.domains == w.config.fleet.domains, "fleet ran on the wrong domain count");
    require(r.fleet.sync_rounds > 0, "fleet ran no horizon sync rounds");
    require(r.fleet.fleet_done_us >= r.makespan_us, "fleet done before its last app");
  }
  if (w.config.functional_io) {
    require(r.app_outputs.size() == w.apps.size(), "missing app outputs");
    // VPs running the same app at the same size compute on the same inputs,
    // so their outputs must match byte for byte (replayed or interpreted).
    std::map<std::pair<const wl::Workload*, std::uint64_t>, std::size_t> first;
    for (std::size_t i = 0; i < r.app_outputs.size() && i < w.apps.size(); ++i) {
      require(!r.app_outputs[i].empty(), "app " + std::to_string(i) + " produced no output");
      const auto [it, fresh] = first.emplace(std::make_pair(w.apps[i].workload, w.apps[i].n), i);
      if (!fresh) {
        require(r.app_outputs[i] == r.app_outputs[it->second],
                "apps " + std::to_string(it->second) + " and " + std::to_string(i) +
                    " ran identical inputs but disagree");
      }
    }
  }
  return bad;
}

}  // namespace perfbench
