#include "core/scenario.hpp"

#include <algorithm>
#include <memory>

#include "core/fleet.hpp"
#include "sched/dispatcher.hpp"
#include "snapshot/serial.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace sigvp {

std::string backend_name(Backend backend) {
  switch (backend) {
    case Backend::kNativeGpu: return "native-gpu";
    case Backend::kEmulationHostCpu: return "emulation-host-cpu";
    case Backend::kEmulationOnVp: return "emulation-on-vp";
    case Backend::kSigmaVp: return "sigma-vp";
  }
  return "?";
}

std::vector<AppInstance> replicate(const workloads::Workload& workload, std::uint64_t n,
                                   std::size_t count) {
  std::vector<AppInstance> apps(count);
  for (auto& a : apps) {
    a.workload = &workload;
    a.n = n;
  }
  return apps;
}

ScenarioResult run_scenario(const ScenarioConfig& config, const std::vector<AppInstance>& apps) {
  return run_scenario(config, apps, CaptureOptions{}, nullptr);
}

ScenarioResult run_scenario(const ScenarioConfig& config, const std::vector<AppInstance>& apps,
                            const CaptureOptions& capture,
                            std::vector<FleetCapture>* out_captures) {
  SIGVP_REQUIRE(!apps.empty(), "scenario needs at least one application");
  for (const AppInstance& a : apps) {
    SIGVP_REQUIRE(a.workload != nullptr && a.n > 0, "malformed app instance");
  }

  for (const AppInstance& a : apps) {
    SIGVP_REQUIRE(a.arrivals.empty() || !config.functional_io,
                  "open-loop request streams are timing-only (no functional_io)");
    SIGVP_REQUIRE(a.requests.empty() || a.requests.size() == a.arrivals.size(),
                  "per-request overrides must align with the arrival schedule");
  }

  if (config.host_gpus.size() > 1) {
    // The placement layer lives in the ΣVP dispatcher; other backends have
    // no job queue to place over. Fault injection models one flaky device —
    // combining it with a device *set* is undefined until someone needs it.
    SIGVP_REQUIRE(config.backend == Backend::kSigmaVp,
                  "multiple host GPUs require the ΣVP backend");
    SIGVP_REQUIRE(!config.fault.enabled(),
                  "fault injection supports a single host GPU only");
  }

  SIGVP_REQUIRE(config.fleet.domains >= 1, "fleet.domains must be >= 1");
  if (config.fleet.domains > 1) {
    // Sharded fleet: D scheduler/dispatcher domains over contiguous app
    // slices, advanced between conservative synchronization horizons.
    return run_scenario_sharded(config, apps, capture, out_captures);
  }

  // Single-domain (classic) path: one FleetDomain covering every app —
  // construction, event composition and result assembly are the exact
  // pre-sharding sequences, so results stay byte-identical to every release
  // before the fleet executor existed.
  FleetDomain dom;
  dom.build(config, apps, 0, apps.size(), 0, 1,
            backend_name(config.backend) + " x" + std::to_string(apps.size()));
  dom.start({});

  // Periodic fleet capture: a self-rescheduling event that digests every
  // stateful component at a fixed sim-time cadence. The capture event
  // re-arms only while other events remain, so it never keeps the queue
  // alive on its own — the scenario still terminates exactly when the
  // fleet is done. With capture disabled none of this enters the queue,
  // keeping the plain overload byte-identical.
  std::size_t verify_idx = 0;
  std::function<void()> take;  // re-arms from itself by reference, so it owns no copy of itself
  if (capture.every_us > 0.0) {
    take = [&] {
      FleetCapture fc;
      fc.at_us = dom.queue.now();
      fc.events_processed = dom.queue.events_processed();
      snapshot::Writer w;
      dom.capture_components(w, dom.functional);
      fc.digest = w.digest();
      if (verify_idx < capture.expect.size()) {
        const FleetCapture& e = capture.expect[verify_idx];
        if (!(fc == e)) {
          throw snapshot::SnapshotError(
              "fleet capture " + std::to_string(verify_idx) + " diverged from checkpoint: " +
              "expected t=" + std::to_string(e.at_us) + " events=" +
              std::to_string(e.events_processed) + " digest=" + std::to_string(e.digest) +
              ", got t=" + std::to_string(fc.at_us) + " events=" +
              std::to_string(fc.events_processed) + " digest=" + std::to_string(fc.digest));
        }
      }
      ++verify_idx;
      if (out_captures != nullptr) out_captures->push_back(fc);
      if (capture.on_capture) capture.on_capture(fc);
      if (dom.queue.pending() > 0) {
        dom.queue.schedule_at(dom.queue.now() + capture.every_us, take);
      }
    };
    dom.queue.schedule_at(capture.every_us, take);
  }

  dom.queue.run();

  if (verify_idx < capture.expect.size()) {
    throw snapshot::SnapshotError(
        "replay produced " + std::to_string(verify_idx) + " fleet captures but the checkpoint " +
        "recorded " + std::to_string(capture.expect.size()) + " — runs diverged");
  }

  // Stall detector: the event queue drained, so if the dispatcher still
  // holds queued or in-flight jobs the system deadlocked — fail loudly with
  // a per-VP diagnostic instead of reporting a bogus "finished" scenario.
  if (dom.dispatcher && !dom.dispatcher->idle()) {
    SIGVP_ASSERT(false, "event queue drained with the dispatcher stalled — " +
                            dom.dispatcher->stall_report());
  }

  ScenarioResult result;
  dom.append_app_results(result, config.functional_io && dom.functional);
  dom.fold_counters(result);
  if (dom.rt) {
    // Close out run-level gauges; everything here is a pure function of the
    // scenario (sim-domain), so the registry stays deterministic.
    dom.rt->metrics.gauge("run.makespan_us").record_max(result.makespan_us);
    if (result.latency.count > 0) {
      dom.rt->metrics.counter("traffic.requests").value += result.requests_completed;
      dom.rt->metrics.histogram("traffic.request_latency_us", trace::latency_buckets_us())
          .merge(result.latency);
    }
    if (result.makespan_us > 0.0 && dom.device) {
      // Utilization is per device: divide the summed busy time by the
      // declared device count (1 for every legacy scenario).
      const double devs = result.gpus.devices > 0 ? result.gpus.devices : 1.0;
      dom.rt->metrics.gauge("gpu.compute_utilization")
          .record_max(result.gpu_compute_busy_us / (devs * result.makespan_us));
      dom.rt->metrics.gauge("gpu.copy_utilization")
          .record_max(result.gpu_copy_busy_us / (devs * result.makespan_us));
    }
    if (result.gpus.devices > 0) {
      dom.rt->metrics.counter("placement.migrations").value += result.gpus.migrations;
      dom.rt->metrics.counter("placement.migrated_bytes").value += result.gpus.migrated_bytes;
    }
    result.metrics = std::make_shared<trace::Metrics>(std::move(dom.rt->metrics));
  }
  return result;
}

}  // namespace sigvp
