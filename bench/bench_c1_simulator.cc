// Experiment C1 — the cluster simulator: executing update traces on
// the MapReduce engine and reconciling predicted vs. actually
// re-shuffled bytes.
//
// For each trace shape (the mixed A2A/X2Y streams plus the flash-crowd
// and capacity-oscillation adversarial shapes), a ClusterSimulator
// replays the trace: every update's re-shuffle plan runs as a real
// engine job, and the engine-measured bytes are reconciled against the
// assigner's predicted churn. The table reports both sides, their gap
// (the whole point: it must be exactly 0 on every shape — this is the
// executable form of the paper's communication cost model), and the
// simulator's throughput (updates/s including engine execution, vs the
// accounting-only replay of bench_o1_online).
//
// `--smoke` runs shortened traces and skips the Google Benchmark
// loops — the CI Release leg uses it so the predicted-vs-executed
// reconciliation runs on every push. The process exits non-zero when
// any shape fails to reconcile, in smoke and full mode alike.
//
// `--json=FILE` writes the BENCH_c1_simulator.json trajectory file
// (gated: per-shape gap/mismatch/executed-bytes/replans — see
// tools/benchgate.py). Results are mirrored to bench_c1_simulator.csv
// in the working directory.

#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "online/trace.h"
#include "sim/simulator.h"
#include "util/csv_writer.h"
#include "util/table.h"
#include "util/timer.h"
#include "workload/updates.h"

namespace {

using namespace msp;

struct TraceShape {
  std::string name;
  std::string key;  // metric-name prefix in the bench JSON
  wl::TraceConfig config;
};

std::vector<TraceShape> MakeShapes(bool smoke) {
  const std::size_t steps = smoke ? 120 : 400;
  wl::TraceConfig mixed_a2a;
  mixed_a2a.initial_inputs = 30;
  mixed_a2a.steps = steps;
  mixed_a2a.seed = 71;
  wl::TraceConfig mixed_x2y = mixed_a2a;
  mixed_x2y.x2y = true;
  mixed_x2y.seed = 72;
  wl::TraceConfig flash = mixed_a2a;
  flash.shape = wl::TraceShape::kFlashCrowd;
  flash.seed = 73;
  wl::TraceConfig oscillation = mixed_a2a;
  oscillation.shape = wl::TraceShape::kCapacityOscillation;
  oscillation.seed = 74;
  return {
      {"a2a mixed", "a2a_mixed", mixed_a2a},
      {"x2y mixed", "x2y_mixed", mixed_x2y},
      {"a2a flash-crowd", "a2a_flash", flash},
      {"a2a capacity-osc", "a2a_caposc", oscillation},
  };
}

sim::SimConfig MakeSimConfig(const online::UpdateTrace& trace) {
  sim::SimConfig config;
  config.online.x2y = trace.x2y;
  config.online.capacity = trace.initial_capacity;
  config.online.plan_options.use_portfolio = false;
  config.oracle_every = 50;
  return config;
}

// Returns the number of shapes that failed to reconcile.
int PrintReconciliationTable(bool smoke, CsvWriter* csv,
                             benchutil::BenchJson* json) {
  TablePrinter table(
      "C1: predicted vs executed re-shuffle across trace shapes");
  table.SetHeader({"trace", "steps", "predicted B", "executed B", "gap B",
                   "mismatched", "replans", "engine jobs", "updates/s"});
  csv->WriteRow({"table", "trace", "steps", "predicted_bytes",
                 "executed_bytes", "gap_bytes", "mismatched_steps",
                 "replans", "engine_jobs", "updates_per_s"});
  int failures = 0;
  for (const TraceShape& shape : MakeShapes(smoke)) {
    const online::UpdateTrace trace = wl::GenerateTrace(shape.config);
    sim::ClusterSimulator simulator(MakeSimConfig(trace));
    Stopwatch wall;
    const bool ok = simulator.ReplayTrace(trace);
    const double seconds = wall.ElapsedSeconds();
    const sim::SimReport& report = simulator.report();
    if (!ok) {
      ++failures;
      std::cout << "RECONCILIATION FAILED (" << shape.name
                << "): " << report.first_error << "\n";
    }
    const uint64_t gap =
        report.predicted_bytes > report.executed_bytes
            ? report.predicted_bytes - report.executed_bytes
            : report.executed_bytes - report.predicted_bytes;
    const double rate =
        seconds > 0.0
            ? static_cast<double>(trace.updates.size()) / seconds
            : 0.0;
    table.AddRow({shape.name, TablePrinter::Fmt(trace.updates.size()),
                  TablePrinter::Fmt(report.predicted_bytes),
                  TablePrinter::Fmt(report.executed_bytes),
                  TablePrinter::Fmt(gap),
                  TablePrinter::Fmt(report.mismatched_steps),
                  TablePrinter::Fmt(simulator.assigner().totals().replans),
                  TablePrinter::Fmt(report.reshuffle_jobs),
                  TablePrinter::Fmt(rate, 0)});
    csv->WriteRow({"C1", shape.name, std::to_string(trace.updates.size()),
                   std::to_string(report.predicted_bytes),
                   std::to_string(report.executed_bytes),
                   std::to_string(gap),
                   std::to_string(report.mismatched_steps),
                   std::to_string(simulator.assigner().totals().replans),
                   std::to_string(report.reshuffle_jobs),
                   TablePrinter::Fmt(rate, 0)});
    // Deterministic series are gated (any drift > 15% fails CI);
    // throughput is trajectory-only.
    json->Add(shape.key + ".gap_bytes", static_cast<double>(gap), "bytes");
    json->Add(shape.key + ".mismatched_steps",
              static_cast<double>(report.mismatched_steps), "steps");
    json->Add(shape.key + ".executed_bytes",
              static_cast<double>(report.executed_bytes), "bytes");
    json->Add(shape.key + ".replans",
              static_cast<double>(simulator.assigner().totals().replans),
              "replans");
    json->Add(shape.key + ".updates_per_s", rate, "updates/s", "higher",
              /*gate=*/false);
  }
  table.Print(std::cout);
  std::cout
      << "\nExpected shape: the gap is exactly 0 on every trace — the bytes\n"
         "the engine re-shuffles executing each update's plan equal the\n"
         "assigner's predicted churn bytes, including min-move re-plan\n"
         "deploys. Throughput is bounded by the engine jobs (compare the\n"
         "accounting-only replay rates in bench_o1_online).\n\n";
  return failures;
}

void BM_SimulatorStep(benchmark::State& state) {
  wl::TraceConfig config;
  config.initial_inputs = static_cast<std::size_t>(state.range(0));
  config.steps = 200;
  config.seed = 75;
  const online::UpdateTrace trace = wl::GenerateTrace(config);
  for (auto _ : state) {
    sim::ClusterSimulator simulator(MakeSimConfig(trace));
    const bool ok = simulator.ReplayTrace(trace);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.updates.size()));
}
BENCHMARK(BM_SimulatorStep)->Arg(30)->Arg(100);

}  // namespace

int main(int argc, char** argv) {
  const benchutil::BenchArgs args = benchutil::ParseBenchArgs(&argc, argv);

  CsvWriter csv("bench_c1_simulator.csv");
  benchutil::BenchJson json("c1_simulator");
  const int failures = PrintReconciliationTable(args.smoke, &csv, &json);
  if (benchutil::EmitBenchJson(json, args) != 0) return 1;
  if (failures > 0) return 1;
  if (!args.smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
