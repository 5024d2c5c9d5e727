// Telemetry hook overhead: the cost of the ALVC_COUNT / ALVC_OBSERVE /
// ALVC_SPAN macros on hot control-plane paths.
//
// Three angles:
//  * Micro: raw cost of one counter add / histogram record / scoped span,
//    single-threaded and with contending writer threads (the sharded
//    design should keep contention near-zero).
//  * Macro: a full AL batch build over rack-partitioned service groups
//    (each group owns its own racks and OPS block) with the global tracer
//    disabled vs logical. The acceptance bar for the subsystem is <2%
//    added wall time with hooks compiled in; compare an -DALVC_TELEMETRY=OFF
//    build of this bench against ON to see the compiled-out floor (the two
//    should be indistinguishable with the tracer disabled).
//
// Run:   ./bench_telemetry_overhead
// Repro: see EXPERIMENTS.md "TEL1".
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "cluster/cluster_manager.h"
#include "telemetry/metric_registry.h"
#include "telemetry/span.h"
#include "telemetry/telemetry.h"
#include "topology/topology.h"

namespace {

using alvc::cluster::ClusterManager;
using alvc::cluster::VertexCoverAlBuilder;
using alvc::telemetry::ClockMode;
using alvc::telemetry::Histogram;
using alvc::telemetry::MetricRegistry;
using alvc::telemetry::ScopedSpan;
using alvc::telemetry::Tracer;
using alvc::topology::DataCenterTopology;
using alvc::topology::Resources;
using alvc::util::OpsId;
using alvc::util::ServiceId;
using alvc::util::TorId;

void BM_CounterAdd(benchmark::State& state) {
  MetricRegistry reg;
  auto& counter = reg.counter("bench.counter");
  for (auto _ : state) {
    counter.add();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);

void BM_CounterAddContended(benchmark::State& state) {
  static MetricRegistry reg;
  auto& counter = reg.counter("bench.contended");
  for (auto _ : state) {
    counter.add();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAddContended)->Threads(2)->Threads(4)->UseRealTime();

void BM_HistogramRecord(benchmark::State& state) {
  MetricRegistry reg;
  auto& hist = reg.histogram("bench.hist", 0.0, 64.0, 32);
  double sample = 0.0;
  for (auto _ : state) {
    hist.record(sample);
    sample = sample < 64.0 ? sample + 0.5 : 0.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_HookMacroDisabledTracer(benchmark::State& state) {
  // The common production shape: hooks compiled in, tracer disabled —
  // counters still count, spans cost one relaxed load and bail.
  Tracer::global().set_mode(ClockMode::kDisabled);
  for (auto _ : state) {
    ALVC_COUNT("bench.hook.count");
    ALVC_SPAN(span, "bench.hook.span");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HookMacroDisabledTracer);

void BM_ScopedSpanLogical(benchmark::State& state) {
  Tracer tracer;
  tracer.set_mode(ClockMode::kLogical);
  tracer.set_logical_time_s(1.0);
  for (auto _ : state) {
    ScopedSpan span(tracer, "bench.span");
    benchmark::ClobberMemory();
    if (tracer.span_count() > 1u << 20) {
      state.PauseTiming();
      tracer.clear();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedSpanLogical);

/// Partitioned multi-group DC: each group owns 4 racks and an OPS ring.
DataCenterTopology make_partitioned(std::size_t groups) {
  DataCenterTopology topo;
  const Resources server_capacity{.cpu_cores = 32, .memory_gb = 128, .storage_gb = 1024};
  constexpr std::size_t kRacks = 4;
  constexpr std::size_t kServers = 4;
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<OpsId> block;
    for (std::size_t o = 0; o < kRacks + 4; ++o) {
      block.push_back(topo.add_ops(/*optoelectronic=*/o % 2 == 0));
    }
    for (std::size_t i = 0; i < block.size(); ++i) {
      topo.connect_ops_ops(block[i], block[(i + 1) % block.size()]);
    }
    for (std::size_t r = 0; r < kRacks; ++r) {
      const TorId tor = topo.add_tor();
      for (std::size_t u = 0; u < 4; ++u) {
        topo.connect_tor_ops(tor, block[(r + u) % block.size()]);
      }
      for (std::size_t s = 0; s < kServers; ++s) {
        const auto server = topo.add_server(tor, server_capacity);
        topo.add_vm(server, ServiceId{static_cast<ServiceId::value_type>(g)});
      }
    }
  }
  return topo;
}

void BM_AlBatchBuild(benchmark::State& state, ClockMode mode) {
  const std::size_t groups = static_cast<std::size_t>(state.range(0));
  DataCenterTopology topo = make_partitioned(groups);
  const VertexCoverAlBuilder builder;
  Tracer::global().set_mode(mode);
  for (auto _ : state) {
    ClusterManager manager(topo);
    auto ids = manager.build_all_clusters(builder);
    benchmark::DoNotOptimize(ids.has_value());
    state.PauseTiming();
    Tracer::global().clear();          // don't let the trace buffer grow run-over-run
    MetricRegistry::global().reset();  // nor the counters
    state.ResumeTiming();
  }
  Tracer::global().set_mode(ClockMode::kDisabled);
  state.SetItemsProcessed(state.iterations() * groups);
}

void BM_AlBatchBuild_TracerDisabled(benchmark::State& state) {
  BM_AlBatchBuild(state, ClockMode::kDisabled);
}
BENCHMARK(BM_AlBatchBuild_TracerDisabled)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_AlBatchBuild_TracerLogical(benchmark::State& state) {
  BM_AlBatchBuild(state, ClockMode::kLogical);
}
BENCHMARK(BM_AlBatchBuild_TracerLogical)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
