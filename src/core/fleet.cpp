#include "core/fleet.hpp"

#include <algorithm>
#include <utility>

#include "core/app_run.hpp"
#include "core/request_stream.hpp"
#include "fault/health.hpp"
#include "gpu/launch_cache.hpp"
#include "ipc/ipc_manager.hpp"
#include "run/thread_pool.hpp"
#include "sim/topology.hpp"
#include "snapshot/serial.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "vp/emulation_driver.hpp"
#include "vp/native_driver.hpp"
#include "vp/sigmavp_driver.hpp"

namespace sigvp {

namespace {

/// splitmix64-style mix: derives a domain-local fault seed from the
/// scenario seed, so sharded fleets keep seeded fault injection per domain
/// without correlating decisions across domains.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t domain) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (domain + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

FleetDomain::FleetDomain() = default;
// Runs and streams keep themselves alive until they finish; a domain torn
// down early (its scenario threw) releases them.
FleetDomain::~FleetDomain() {
  for (const std::shared_ptr<AppRun>& run : runs) {
    if (run) run->abandon();
  }
  for (const std::shared_ptr<RequestStream>& stream : streams) {
    if (stream) stream->abandon();
  }
}

void FleetDomain::build(const ScenarioConfig& config, const std::vector<AppInstance>& apps,
                        std::size_t begin, std::size_t end, std::uint32_t domain_id,
                        std::uint32_t num_domains, const std::string& trace_label) {
  SIGVP_REQUIRE(begin < end && end <= apps.size(), "malformed fleet domain slice");
  const Calibration& calib = config.calib;
  const bool sharded = num_domains > 1;
  id = domain_id;
  app_begin = begin;
  app_end = end;
  functional = config.mode == ExecMode::kFunctional;

  // Host-side infrastructure (only built when the backend needs it). An
  // empty host_gpus declaration resolves to one implicit device from the
  // legacy gpu/gpu_mem_bytes fields — byte-identical to every prior release.
  // HostGpuSet gives each device a private launch-cache shard whenever the
  // fleet is sharded or the set is multi-device: hit/miss sequences stay a
  // pure function of each device's own launch stream (the process singleton
  // would make first-fill outcomes depend on shard-thread interleaving).
  const bool needs_gpu =
      config.backend == Backend::kNativeGpu || config.backend == Backend::kSigmaVp;
  if (needs_gpu) {
    std::vector<HostGpuSpec> specs = config.host_gpus;
    if (specs.empty()) specs.push_back(HostGpuSpec{config.gpu, config.gpu_mem_bytes});
    multi_gpu = specs.size() > 1;
    gpus = std::make_unique<HostGpuSet>(queue, specs, sharded);
    device = gpus->primary();
  }
  if (config.backend == Backend::kSigmaVp) {
    ipc = std::make_unique<IpcManager>(queue, calib.ipc);
    // Migration only makes sense where the working set is priced, not
    // carried: analytic mode without faults. Functional runs keep VPs
    // pinned so device-memory contents stay where the VP allocated them.
    PlacementConfig placement = config.placement;
    if (config.mode != ExecMode::kAnalytic || config.fault.enabled()) {
      placement.allow_migration = false;
    }
    dispatcher =
        std::make_unique<Dispatcher>(queue, gpus->device_ptrs(), config.dispatch, placement);
    ipc->set_sink([&d = *dispatcher](Job job) { d.submit(std::move(job)); });
  }

  // Observability (ΣVP only): one track group + metrics registry per
  // domain. Built only when collection is on, so the default path hands
  // every component a null pointer — a branch-on-null no-op.
  if (config.backend == Backend::kSigmaVp && trace::collecting()) {
    rt = std::make_unique<trace::RunTrace>(trace_label);
    ipc->set_trace(rt.get());
    dispatcher->set_trace(rt.get());
    // Device 0 keeps the legacy gpu.compute/copy tracks; every extra device
    // of a multi-GPU set gets its own named track triple.
    for (std::size_t g = 0; g < gpus->count(); ++g) {
      GpuDevice& dev = gpus->device(g);
      dev.set_trace(rt.get());
      if (g >= 1) {
        const std::uint32_t base = 2000 + 8 * static_cast<std::uint32_t>(g);
        dev.set_trace_tids(base, base + 1, base + 2);
        const std::string nm = "gpu" + std::to_string(g);
        rt->thread_name(base, nm + ".compute");
        rt->thread_name(base + 1, nm + ".copy_in");
        rt->thread_name(base + 2, nm + ".copy_out");
      }
    }
  }

  // Fault injection + tolerance (ΣVP only). A zero-fault config builds none
  // of this, so the legacy code paths stay byte-identical. Sharded fleets
  // reseed the plan per domain and remap the stall-VP index into the slice.
  FaultConfig fc = config.fault;
  if (sharded) {
    fc.seed = mix_seed(fc.seed, domain_id);
    if (fc.stall_vp >= 0) {
      const std::int64_t sv = fc.stall_vp;
      fc.stall_vp = (sv >= static_cast<std::int64_t>(begin) &&
                     sv < static_cast<std::int64_t>(end))
                        ? sv - static_cast<std::int64_t>(begin)
                        : -1;
    }
  }
  faults_on = config.backend == Backend::kSigmaVp && fc.enabled();
  if (faults_on) {
    fault_plan = std::make_unique<FaultPlan>(fc);
    fault_stats = std::make_unique<FaultStats>();
    fault_stats->active = true;
    health = std::make_unique<HealthPolicy>(config.recovery, *fault_stats);
    device->set_fault(fault_plan.get(), fault_stats.get());
    ipc->set_fault(fault_plan.get(), fault_stats.get(), health.get(), config.recovery);
    dispatcher->set_fault(fault_plan.get(), fault_stats.get(), health.get(), config.recovery);
    for (SimTime t : fc.device_reset_at_us) {
      queue.schedule_at(t, [&d = *dispatcher] { d.inject_device_reset(); });
    }
  }

  // Multi-GPU sets: compute the slice's initial VP↔device assignment before
  // any VP registers. Weights proxy each app's demand (problem size times
  // request count); the affinity policy spreads them LPT-greedily over the
  // devices' relative speeds, round-robin ignores both.
  std::vector<std::uint32_t> assign;
  if (config.backend == Backend::kSigmaVp && gpus->count() > 1) {
    std::vector<std::uint64_t> weights;
    weights.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      const AppInstance& a = apps[i];
      weights.push_back(a.n * std::max<std::uint64_t>(1, a.arrivals.size()));
    }
    assign = initial_placement(config.placement.policy, weights, gpus->relative_speeds());
  }

  // Per-app CPU contexts and drivers. On the paper's 32-core host each VP
  // gets its own core, so CPU contexts run concurrently in simulated time.
  // Tags use the *global* app index, so traces of a sharded fleet name VPs
  // consistently across domains.
  for (std::size_t i = begin; i < end; ++i) {
    const std::string tag = "app" + std::to_string(i);
    switch (config.backend) {
      case Backend::kNativeGpu: {
        cpus.push_back(std::make_unique<Processor>(queue, tag + ".hostcpu",
                                                   calib.host_cpu.effective_ips));
        drivers.push_back(std::make_unique<NativeDriver>(queue, *device, calib.host_cpu));
        break;
      }
      case Backend::kEmulationHostCpu: {
        EmulationConfig ec = calib.emulation_on_host(functional);
        ec.cpu_ips /= calib.emulation_contention(apps.size());
        cpus.push_back(std::make_unique<Processor>(queue, tag + ".hostcpu", ec.cpu_ips));
        drivers.push_back(std::make_unique<EmulationDriver>(*cpus.back(), ec));
        break;
      }
      case Backend::kEmulationOnVp: {
        EmulationConfig ec = calib.emulation_on_vp(functional);
        ec.cpu_ips /= calib.emulation_contention(apps.size());
        cpus.push_back(std::make_unique<Processor>(queue, tag + ".guest", ec.cpu_ips));
        drivers.push_back(std::make_unique<EmulationDriver>(*cpus.back(), ec));
        break;
      }
      case Backend::kSigmaVp: {
        cpus.push_back(std::make_unique<Processor>(queue, tag + ".guest",
                                                   calib.vp.guest_ips(calib.host_cpu)));
        const std::uint32_t ipc_id = ipc->register_vp(tag);
        const std::uint32_t dev_idx = assign.empty() ? 0 : assign[i - begin];
        dispatcher->register_vp(dev_idx);
        GpuDevice& vp_dev = gpus->device(dev_idx);
        auto drv =
            std::make_unique<SigmaVpDriver>(*cpus.back(), *ipc, vp_dev, ipc_id, calib.vp);
        if (faults_on) {
          health->register_vp();
          // Graceful-degradation path: an emulation driver on the guest CPU
          // that borrows the real device's address space, so jobs escalated
          // mid-run keep operating on valid device pointers and data.
          fallback_drivers.push_back(std::make_unique<EmulationDriver>(
              *cpus.back(), calib.emulation_on_vp(functional), vp_dev.memory()));
          drv->enable_fallback(fallback_drivers.back().get());
          sigma_drivers.push_back(drv.get());
        }
        drivers.push_back(std::move(drv));
        break;
      }
    }
  }

  if (faults_on) {
    // One escalation funnel for both escalation sources (IPC retry-budget
    // exhaustion and dispatcher launch-retry exhaustion / failed-VP purge):
    // hand the job to its driver's seq-ordered fallback queue.
    auto escalate = [&stats = *fault_stats, &sigma = sigma_drivers](std::uint32_t vp_id,
                                                                    Job job) {
      ++stats.fallback_jobs;
      sigma.at(vp_id)->run_fallback_job(std::move(job));
    };
    ipc->set_escalation(escalate);
    dispatcher->set_escalation(escalate);
    // Every in-order completion release may unblock the next parked
    // fallback job of that VP.
    ipc->set_release_listener(
        [&sigma = sigma_drivers](std::uint32_t vp_id) { sigma.at(vp_id)->pump_fallback(); });
    // When a VP is declared failed, its queued (not yet dispatched) jobs
    // escalate with it so nothing is stranded behind the failure.
    health->on_failed = [&d = *dispatcher](std::uint32_t vp_id) { d.purge_vp(vp_id); };
  }

  // Build every application — closed-loop AppRun by default, open-loop
  // RequestStream when the instance carries an arrival schedule. `runs`/
  // `streams` are index-aligned with the slice (exactly one non-null per
  // slot). Bulk event insertion at start() benefits from a pre-sized heap.
  const std::size_t slice = end - begin;
  queue.reserve(queue.pending() + slice + 1);
  runs.resize(slice);
  streams.resize(slice);
  for (std::size_t i = 0; i < slice; ++i) {
    const AppInstance& app = apps[begin + i];
    if (!app.arrivals.empty()) {
      streams[i] = std::make_shared<RequestStream>(queue, *drivers[i], *app.workload, app.n,
                                                   config.mode, app.jitter, app.arrivals,
                                                   app.requests);
      continue;
    }
    const workloads::AppTraits* traits = app.traits.has_value() ? &*app.traits : nullptr;
    runs[i] = std::make_shared<AppRun>(queue, *drivers[i], *cpus[i], *app.workload, app.n,
                                       config.mode, traits, config.async_launches,
                                       config.functional_io && functional, app.jitter);
  }
}

void FleetDomain::start(const std::function<void(std::size_t, SimTime)>& on_app_done) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::function<void(SimTime)> done;
    if (on_app_done) {
      done = [on_app_done, global = app_begin + i](SimTime t) { on_app_done(global, t); };
    }
    if (runs[i]) runs[i]->start(std::move(done));
    if (streams[i]) streams[i]->start(std::move(done));
  }
}

void FleetDomain::capture_components(snapshot::Writer& w, bool hash_memory) const {
  queue.capture_state(w);
  if (gpus) {
    // Declaration order; a 1-device set digests exactly like the legacy
    // single-device capture.
    for (std::size_t g = 0; g < gpus->count(); ++g) {
      gpus->device(g).capture_state(w, hash_memory);
    }
  }
  if (ipc) ipc->capture_state(w);
  if (dispatcher) dispatcher->capture_state(w);
  for (const auto& cpu : cpus) {
    w.f64(cpu->busy_until());
    w.f64(cpu->busy_total());
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (streams[i]) {
      streams[i]->capture_state(w);
    } else {
      w.boolean(runs[i]->finished());
      w.f64(runs[i]->finished_at());
      w.u64(runs[i]->kernels_launched());
    }
  }
  if (faults_on) {
    w.u64(fault_stats->retransmits);
    w.u64(fault_stats->duplicates_suppressed);
    w.u64(fault_stats->launch_retries);
    w.u64(fault_stats->fallback_jobs);
    w.u64(fault_stats->unrecovered_jobs);
  }
}

void FleetDomain::append_app_results(ScenarioResult& result, bool want_outputs) const {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (streams[i]) {
      SIGVP_ASSERT(streams[i]->finished(),
                   "event queue drained but a request stream never finished");
      result.app_done_us.push_back(streams[i]->finished_at());
      result.makespan_us = std::max(result.makespan_us, streams[i]->finished_at());
      // Canonical input order, so the folded histogram is bit-identical for
      // any sweep worker count.
      result.latency.merge(streams[i]->latency());
      result.requests_completed += streams[i]->requests_completed();
      continue;
    }
    const auto& run = runs[i];
    SIGVP_ASSERT(run->finished(), "event queue drained but an app never finished");
    result.app_done_us.push_back(run->finished_at());
    result.makespan_us = std::max(result.makespan_us, run->finished_at());
    if (want_outputs) result.app_outputs.push_back(run->output_bytes());
  }
}

void FleetDomain::fold_counters(ScenarioResult& result) const {
  if (dispatcher) {
    result.jobs_dispatched += dispatcher->jobs_dispatched();
    result.reorders += dispatcher->reorders();
    result.coalesced_groups += dispatcher->coalesced_groups();
    result.coalesced_jobs += dispatcher->coalesced_jobs();
  }
  if (ipc) result.ipc_messages += ipc->messages_sent();
  if (gpus) {
    // The legacy gpu_* totals sum over the whole set, so 1-device results
    // are unchanged and multi-GPU results stay comparable.
    for (std::size_t g = 0; g < gpus->count(); ++g) {
      const GpuDevice& dev = gpus->device(g);
      result.gpu_dynamic_energy_j += dev.dynamic_energy_j();
      result.gpu_compute_busy_us += dev.compute_busy_us();
      result.gpu_copy_busy_us += dev.copy_busy_us();
    }
  }
  if (multi_gpu) {
    MultiGpuStats& mg = result.gpus;
    mg.devices = static_cast<std::uint32_t>(gpus->count());
    if (mg.per_device.size() < gpus->count()) mg.per_device.resize(gpus->count());
    for (std::size_t g = 0; g < gpus->count(); ++g) {
      const GpuDevice& dev = gpus->device(g);
      GpuDeviceStats& ds = mg.per_device[g];
      if (ds.arch.empty()) ds.arch = dev.arch().name;
      ds.vps += dispatcher->vps_on_device(g);
      ds.jobs += dispatcher->lane_jobs(g);
      ds.kernels += dev.kernels_launched();
      ds.compute_busy_us += dev.compute_busy_us();
      ds.copy_busy_us += dev.copy_busy_us();
      ds.energy_j += dev.dynamic_energy_j();
    }
    mg.migrations += dispatcher->migrations();
    mg.migrated_bytes += dispatcher->migrated_bytes();
  }
  if (faults_on) result.fault.merge(*fault_stats);
}

std::uint64_t FleetDomain::resident_bytes() const {
  std::uint64_t total = sizeof(FleetDomain) + queue.resident_bytes();
  if (gpus) total += gpus->resident_bytes();
  if (ipc) total += ipc->resident_bytes();
  if (dispatcher) total += dispatcher->resident_bytes();
  total += cpus.size() * sizeof(Processor);
  total += drivers.size() * sizeof(SigmaVpDriver);  // largest driver variant
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i]) total += sizeof(AppRun);
    if (streams[i]) total += sizeof(RequestStream);
  }
  total += fallback_drivers.size() * sizeof(EmulationDriver);
  total += captures.capacity() * sizeof(FleetCapture);
  total += outbox.capacity() * sizeof(FabricMsg);
  return total;
}

ScenarioResult run_scenario_sharded(const ScenarioConfig& config,
                                    const std::vector<AppInstance>& apps,
                                    const CaptureOptions& capture,
                                    std::vector<FleetCapture>* out_captures) {
  const std::uint32_t D = config.fleet.domains;
  SIGVP_REQUIRE(config.backend == Backend::kSigmaVp,
                "sharded fleets (fleet.domains >= 2) require the ΣVP backend");
  SIGVP_REQUIRE(static_cast<std::size_t>(D) <= apps.size(),
                "a sharded fleet needs at least one app per domain");
  const FleetTopology topo =
      FleetTopology::parse(config.fleet.topology, D, config.fleet.edge_latency_us);
  const SimTime lookahead = topo.lookahead_us();
  const bool functional = config.mode == ExecMode::kFunctional;

  // Contiguous near-equal app slices: domain d owns [slice_at(d), slice_at(d+1)).
  auto slice_at = [&apps, D](std::uint32_t d) { return apps.size() * d / D; };

  // Shard execution: domains advance between barriers on a parallel_for of
  // width `--shards`. Purely an execution knob — each domain touches only
  // its own state, and every merge below visits domains in index order.
  std::vector<std::unique_ptr<FleetDomain>> doms(D);
  const std::size_t shard_width = std::min<std::size_t>(run::fleet_shards(), D);

  const std::string base_label = backend_name(config.backend);
  run::parallel_for(D, shard_width, [&](std::size_t d) {
    const std::size_t begin = slice_at(static_cast<std::uint32_t>(d));
    const std::size_t end = slice_at(static_cast<std::uint32_t>(d + 1));
    auto dom = std::make_unique<FleetDomain>();
    dom->build(config, apps, begin, end, static_cast<std::uint32_t>(d), D,
               base_label + " x" + std::to_string(end - begin) + " shard" +
                   std::to_string(d));
    doms[d] = std::move(dom);
  });
  FleetDomain& root = *doms[0];
  const std::uint64_t remote_reports_expected =
      apps.size() - (root.app_end - root.app_begin);

  // Fabric completion hooks: the root processes its own apps' completions
  // locally; every other domain reports leaf → root with the path latency,
  // and the root acks back. All hooks run inside their domain's events.
  for (std::uint32_t d = 0; d < D; ++d) {
    FleetDomain& dom = *doms[d];
    if (d == 0) {
      dom.start([&root](std::size_t, SimTime done) {
        if (done > root.fleet_done_us) root.fleet_done_us = done;
      });
    } else {
      const SimTime path = topo.to_root_us(d);
      dom.start([&dom, path](std::size_t app, SimTime done) {
        dom.outbox.push_back({done + path, dom.id, 0, dom.fabric_seq++, app, false});
        ++dom.reports_sent;
      });
    }
  }

  // Per-domain capture chains on the shared cadence grid. A chain re-arms
  // while its domain has pending events or open fabric business, so the
  // folded fleet captures span the whole fleet lifetime; everything feeding
  // the re-arm decision is sim-domain deterministic. Each chain re-arms
  // from its closure in `chains` by reference, so no closure owns a copy of
  // itself; `chains` outlives the horizon loop.
  std::vector<std::function<void()>> chains(capture.every_us > 0.0 ? D : 0);
  for (std::uint32_t d = 0; d < chains.size(); ++d) {
    FleetDomain& dom = *doms[d];
    const bool is_root = d == 0;
    std::function<void()>& take = chains[d];
    take = [&dom, &take, every = capture.every_us, functional, is_root,
            remote_reports_expected] {
      FleetCapture fc;
      fc.at_us = dom.queue.now();
      fc.events_processed = dom.queue.events_processed();
      snapshot::Writer w;
      dom.capture_components(w, functional);
      w.u64(dom.reports_sent);
      w.u64(dom.acks_received);
      w.u64(dom.reports_received);
      w.f64(dom.fleet_done_us);
      fc.digest = w.digest();
      dom.captures.push_back(fc);
      const bool fabric_open =
          dom.reports_sent > dom.acks_received ||
          (is_root && dom.reports_received < remote_reports_expected);
      if (dom.queue.pending() > 0 || fabric_open) {
        dom.queue.schedule_at(dom.queue.now() + every, take);
      }
    };
    dom.queue.schedule_at(capture.every_us, take);
  }

  ScenarioResult result;
  result.fleet.domains = D;
  result.fleet.lookahead_us = lookahead;

  auto resident_total = [&doms] {
    std::uint64_t sum = 0;
    for (const auto& dom : doms) sum += dom->resident_bytes();
    return sum;
  };
  std::uint64_t peak_resident = resident_total();  // construction peak

  // Barrier-time message routing: canonical (arrival, src, seq) order keeps
  // the destination queue's sequence assignment — and therefore every
  // downstream scheduling decision — independent of shard interleaving.
  auto route = [&](const FleetDomain::FabricMsg& m) {
    const std::uint32_t far_end = m.ack ? m.dst : m.src;
    ++result.fleet.fabric_messages;
    result.fleet.fabric_hops += topo.hops_to_root(far_end);
    if (!m.ack) {
      const SimTime back = topo.to_root_us(m.src);
      root.queue.schedule_at(m.arrive_us, [&root, src = m.src, app = m.app, back] {
        const SimTime now = root.queue.now();
        if (now > root.fleet_done_us) root.fleet_done_us = now;
        ++root.reports_received;
        if (root.rt) {
          root.rt->instant(trace::RunTrace::kTidIpc, "fabric", "report", now,
                           {trace::arg("app", static_cast<std::uint64_t>(app)),
                            trace::arg("src", static_cast<int>(src))});
        }
        root.outbox.push_back({now + back, 0, src, root.fabric_seq++, app, true});
      });
    } else {
      FleetDomain& dst = *doms[m.dst];
      dst.queue.schedule_at(m.arrive_us, [&dst] { ++dst.acks_received; });
    }
  };

  // Fold the per-domain capture chains into fleet captures, grid point by
  // grid point, verifying against the expected sequence as we go. The grid
  // accumulates (prev + every_us) exactly like the chains do, so times
  // match bit-for-bit.
  std::size_t folded = 0;
  std::size_t verify_idx = 0;
  SimTime next_grid = capture.every_us;
  bool chains_dead = capture.every_us <= 0.0;
  auto fold_captures = [&](SimTime horizon) {
    while (!chains_dead && next_grid <= horizon) {
      FleetCapture fc;
      fc.at_us = next_grid;
      snapshot::Writer w;
      std::uint64_t contributors = 0;
      for (std::uint32_t d = 0; d < D; ++d) {
        if (doms[d]->captures.size() > folded) ++contributors;
      }
      if (contributors == 0) {
        chains_dead = true;  // every chain ended — no entry at this grid, ever
        break;
      }
      w.u64(contributors);
      for (std::uint32_t d = 0; d < D; ++d) {
        if (doms[d]->captures.size() <= folded) continue;
        const FleetCapture& c = doms[d]->captures[folded];
        SIGVP_ASSERT(c.at_us == next_grid, "fleet capture chain left its cadence grid");
        w.u32(d);
        w.u64(c.events_processed);
        w.u64(c.digest);
        fc.events_processed += c.events_processed;
      }
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
      ++folded;
      next_grid += capture.every_us;
      if (out_captures != nullptr) out_captures->push_back(fc);
      if (capture.on_capture) capture.on_capture(fc);
    }
  };

  // The conservative horizon loop. Any message sent by an event at time t
  // arrives at t + path >= t + lookahead, and every event processed in a
  // round has t >= the round's earliest pending time, so advancing all
  // domains to (earliest + lookahead) can never deliver into a domain's
  // past — and idle stretches are skipped at full speed because the horizon
  // chases the earliest *pending* event, wherever it is.
  std::vector<FleetDomain::FabricMsg> msgs;
  for (;;) {
    bool any = false;
    SimTime earliest = 0.0;
    for (const auto& dom : doms) {
      if (dom->queue.empty()) continue;
      const SimTime t = dom->queue.next_event_time();
      if (!any || t < earliest) earliest = t;
      any = true;
    }
    if (!any) break;
    const SimTime horizon = earliest + lookahead;
    ++result.fleet.sync_rounds;

    run::parallel_for(D, shard_width,
                      [&doms, horizon](std::size_t d) { doms[d]->queue.run_until(horizon); });

    msgs.clear();
    for (const auto& dom : doms) {
      msgs.insert(msgs.end(), dom->outbox.begin(), dom->outbox.end());
      dom->outbox.clear();
    }
    std::sort(msgs.begin(), msgs.end(),
              [](const FleetDomain::FabricMsg& a, const FleetDomain::FabricMsg& b) {
                if (a.arrive_us != b.arrive_us) return a.arrive_us < b.arrive_us;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    for (const FleetDomain::FabricMsg& m : msgs) route(m);
    fold_captures(horizon);
  }

  if (verify_idx < capture.expect.size()) {
    throw snapshot::SnapshotError(
        "replay produced " + std::to_string(verify_idx) + " fleet captures but the checkpoint " +
        "recorded " + std::to_string(capture.expect.size()) + " — runs diverged");
  }

  // Fleet-level liveness: every queue drained, so any dispatcher with queued
  // or in-flight jobs, any unacked report, or any unreported app means the
  // system deadlocked — fail loudly instead of reporting a bogus result.
  for (const auto& dom : doms) {
    if (dom->dispatcher && !dom->dispatcher->idle()) {
      SIGVP_ASSERT(false, "fleet domain " + std::to_string(dom->id) +
                              " drained with the dispatcher stalled — " +
                              dom->dispatcher->stall_report());
    }
    SIGVP_ASSERT(dom->outbox.empty(), "fleet drained with fabric messages unrouted");
    SIGVP_ASSERT(dom->acks_received == dom->reports_sent,
                 "fleet drained with unacknowledged completion reports");
  }
  SIGVP_ASSERT(root.reports_received == remote_reports_expected,
               "fleet drained before every completion report reached the root");

  peak_resident = std::max(peak_resident, resident_total());

  // Canonical merge: domain order == global app order (slices are
  // contiguous and ascending), counters sum, histograms/metrics fold in
  // domain order — bit-identical for any shard/worker count.
  for (const auto& dom : doms) {
    dom->append_app_results(result, config.functional_io && functional);
    dom->fold_counters(result);
  }
  result.fleet.fleet_done_us = root.fleet_done_us;
  result.fleet.resident_bytes = peak_resident;
  for (const auto& dom : doms) {
    if (!dom->gpus || !dom->gpus->has_private_caches()) continue;
    const LaunchCacheStats cs = dom->gpus->cache_stats();
    result.fleet.cache_hits += cs.hits;
    result.fleet.cache_misses += cs.misses;
  }

  if (root.rt) {
    auto merged = std::make_shared<trace::Metrics>();
    for (const auto& dom : doms) merged->merge(dom->rt->metrics);
    merged->gauge("run.makespan_us").record_max(result.makespan_us);
    if (result.latency.count > 0) {
      merged->counter("traffic.requests").value += result.requests_completed;
      merged->histogram("traffic.request_latency_us", trace::latency_buckets_us())
          .merge(result.latency);
    }
    if (result.makespan_us > 0.0) {
      // Aggregate utilization across every device of every domain.
      const double devs = result.gpus.devices > 0 ? result.gpus.devices : 1.0;
      merged->gauge("gpu.compute_utilization")
          .record_max(result.gpu_compute_busy_us / (D * devs * result.makespan_us));
      merged->gauge("gpu.copy_utilization")
          .record_max(result.gpu_copy_busy_us / (D * devs * result.makespan_us));
    }
    if (result.gpus.devices > 0) {
      merged->counter("placement.migrations").value += result.gpus.migrations;
      merged->counter("placement.migrated_bytes").value += result.gpus.migrated_bytes;
    }
    merged->counter("fleet.fabric_messages").value += result.fleet.fabric_messages;
    merged->counter("fleet.sync_rounds").value += result.fleet.sync_rounds;
    merged->gauge("fleet.resident_bytes")
        .record_max(static_cast<double>(result.fleet.resident_bytes));
    result.metrics = std::move(merged);
  }
  return result;
}

}  // namespace sigvp
