// Experiment P1 — the planning service: cold vs warm plan latency and
// portfolio vs auto-dispatch schema quality.
//
// Cold plans canonicalize, miss the cache, and run the full algorithm
// portfolio; warm plans canonicalize, hit the sharded LRU cache, and
// only rewrite the cached canonical schema back to the request's input
// ids. Expected shape: warm plans are orders of magnitude faster than
// cold plans (the hit path does no solving), and the portfolio never
// returns more reducers than the auto dispatcher — occasionally fewer,
// which is the point of running all constructions.
//
// Results are mirrored to bench_p1_planner.csv in the working
// directory.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "core/a2a.h"
#include "core/instance.h"
#include "planner/service.h"
#include "util/csv_writer.h"
#include "util/table.h"
#include "util/timer.h"
#include "workload/sizes.h"

namespace {

using namespace msp;

struct Shape {
  std::string name;
  std::vector<InputSize> sizes;
  InputSize q;
};

std::vector<Shape> MakeShapes() {
  return {
      {"uniform m=200", wl::UniformSizes(200, 2, 30, 11), 90},
      {"uniform m=2000", wl::UniformSizes(2000, 2, 30, 12), 90},
      {"zipf m=200", wl::ZipfSizes(200, 2, 45, 1.3, 13), 100},
      {"zipf m=2000", wl::ZipfSizes(2000, 2, 45, 1.3, 14), 100},
      {"equal m=1000", wl::EqualSizes(1000, 4), 40},
  };
}

void PrintColdWarmTable(CsvWriter* csv) {
  TablePrinter table("P1a: cold (portfolio solve) vs warm (cache hit) plans");
  table.SetHeader(
      {"instance", "cold us", "warm us", "speedup", "warm hit"});
  csv->WriteRow({"table", "instance", "cold_us", "warm_us", "speedup",
                 "warm_hit"});
  for (const Shape& shape : MakeShapes()) {
    const auto in = A2AInstance::Create(shape.sizes, shape.q).value();
    planner::PlannerService service;
    const planner::PlanResult cold = service.Plan(in);
    // Re-plan several times; every call after the first must hit.
    uint64_t warm_us = 0;
    constexpr int kWarmRuns = 20;
    planner::PlanResult warm;
    Stopwatch watch;
    for (int i = 0; i < kWarmRuns; ++i) warm = service.Plan(in);
    // Clamp to 1us so sub-microsecond warm plans don't read as 0x.
    warm_us = std::max<uint64_t>(1, watch.ElapsedMicros() / kWarmRuns);
    const double speedup = static_cast<double>(cold.plan_micros) /
                           static_cast<double>(warm_us);
    table.AddRow({shape.name, TablePrinter::Fmt(cold.plan_micros),
                  TablePrinter::Fmt(warm_us),
                  TablePrinter::Fmt(speedup, 1) + "x",
                  warm.cache_hit ? "yes" : "NO"});
    csv->WriteRow({"P1a", shape.name, std::to_string(cold.plan_micros),
                   std::to_string(warm_us), TablePrinter::Fmt(speedup, 1),
                   warm.cache_hit ? "1" : "0"});
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: warm plans skip all solving, so the\n"
               "speedup grows with instance size; 'warm hit' must be yes\n"
               "on every row.\n\n";
}

void PrintQualityTable(CsvWriter* csv) {
  TablePrinter table("P1b: portfolio winner vs auto dispatcher");
  table.SetHeader({"instance", "auto z", "portfolio z", "winner",
                   "comm ratio"});
  csv->WriteRow({"table", "instance", "auto_reducers",
                 "portfolio_reducers", "winner", "comm_ratio"});
  for (const Shape& shape : MakeShapes()) {
    const auto in = A2AInstance::Create(shape.sizes, shape.q).value();
    auto auto_schema = SolveA2AAuto(in);
    if (!auto_schema.has_value()) continue;
    const SchemaStats auto_stats = SchemaStats::Compute(in, *auto_schema);

    planner::PlannerService service;
    const planner::PlanResult plan = service.Plan(in);
    const double comm_ratio =
        auto_stats.communication_cost == 0
            ? 0.0
            : static_cast<double>(plan.stats.communication_cost) /
                  static_cast<double>(auto_stats.communication_cost);
    table.AddRow({shape.name, TablePrinter::Fmt(auto_stats.num_reducers),
                  TablePrinter::Fmt(plan.stats.num_reducers), plan.algorithm,
                  TablePrinter::Fmt(comm_ratio)});
    csv->WriteRow({"P1b", shape.name,
                   std::to_string(auto_stats.num_reducers),
                   std::to_string(plan.stats.num_reducers), plan.algorithm,
                   TablePrinter::Fmt(comm_ratio)});
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: portfolio z <= auto z on every row (auto\n"
               "is one of the candidates), with the winner column showing\n"
               "which construction beat the dispatcher's pick.\n\n";
}

void BM_PlanCold(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const auto in =
      A2AInstance::Create(wl::ZipfSizes(m, 2, 45, 1.3, 21), 100).value();
  planner::PlannerService service;
  for (auto _ : state) {
    service.ClearCache();
    auto result = service.Plan(in);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PlanCold)->Arg(200)->Arg(2'000);

void BM_PlanWarm(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const auto in =
      A2AInstance::Create(wl::ZipfSizes(m, 2, 45, 1.3, 22), 100).value();
  planner::PlannerService service;
  service.Plan(in);  // prime the cache
  for (auto _ : state) {
    auto result = service.Plan(in);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PlanWarm)->Arg(200)->Arg(2'000);

void BM_PlanManyBatch(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::vector<A2AInstance> instances;
  instances.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    instances.push_back(
        A2AInstance::Create(wl::ZipfSizes(200, 2, 45, 1.3, i + 1), 100)
            .value());
  }
  planner::PlannerService service;
  for (auto _ : state) {
    auto results = service.PlanMany(instances);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_PlanManyBatch)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  CsvWriter csv("bench_p1_planner.csv");
  PrintColdWarmTable(&csv);
  PrintQualityTable(&csv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
