// Experiment S1 — the sharded serving layer: throughput scaling with
// shard count on a many-instance replay workload. The same bundle of
// per-instance update traces is replayed through ServingServices with
// 1, 2, and 4 shards (one worker thread per shard, all escalating to
// one shared planner). Expected shape: near-linear updates/s scaling
// until the machine runs out of cores (a single-core container
// flattens at 1x).
//
// `--smoke` shortens the workloads and skips the Google Benchmark
// loops; `--json=FILE` writes the BENCH_s1_serving.json trajectory
// file (gated metric: the processed-update accounting; throughput and
// latency ride along ungated). Results are mirrored to
// bench_s1_serving.csv in the working directory.

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "online/assigner.h"
#include "online/trace.h"
#include "serving/service.h"
#include "util/csv_writer.h"
#include "util/summary_stats.h"
#include "util/table.h"
#include "util/timer.h"
#include "workload/updates.h"

namespace {

using namespace msp;

std::vector<online::UpdateTrace> MakeWorkload(std::size_t instances,
                                              std::size_t initial,
                                              std::size_t steps) {
  std::vector<online::UpdateTrace> traces;
  traces.reserve(instances);
  wl::TraceConfig config;
  config.initial_inputs = initial;
  config.steps = steps;
  for (std::size_t i = 0; i < instances; ++i) {
    config.x2y = i % 2 == 1;
    config.seed = 900 + i;
    traces.push_back(wl::GenerateTrace(config));
  }
  return traces;
}

online::OnlineConfig InstanceConfig(const online::UpdateTrace& trace) {
  online::OnlineConfig config;
  config.x2y = trace.x2y;
  config.capacity = trace.initial_capacity;
  config.policy_spec.name = "drift";
  config.policy_spec.cooldown = 8;
  config.plan_options.use_portfolio = false;
  return config;
}

struct ServeOutcome {
  double seconds = 0;
  uint64_t updates = 0;
  double p50_us = 0;
  double p99_us = 0;
};

ServeOutcome RunWorkload(const std::vector<online::UpdateTrace>& traces,
                         std::size_t shards, std::size_t batch) {
  serving::ServingConfig config;
  config.num_shards = shards;
  serving::ServingService service(config);
  Stopwatch watch;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const std::string key = "bench-" + std::to_string(i);
    service.CreateInstance(key, InstanceConfig(traces[i]),
                           /*translate_trace_ids=*/true);
    service.SubmitBatch(key, traces[i].updates, batch);
  }
  service.Flush();
  ServeOutcome outcome;
  outcome.seconds = watch.ElapsedSeconds();
  const serving::ServingStats stats = service.stats();
  outcome.updates = stats.total.updates;
  if (stats.total.latency.count() > 0) {
    outcome.p50_us = stats.total.latency.Percentile(50.0);
    outcome.p99_us = stats.total.latency.Percentile(99.0);
  }
  std::string error;
  if (!service.ValidateAll(&error)) {
    std::cerr << "S1: INVALID serving result: " << error << "\n";
  }
  return outcome;
}

void PrintScalingTable(bool smoke, CsvWriter* csv,
                       benchutil::BenchJson* json) {
  const auto traces = MakeWorkload(/*instances=*/8, /*initial=*/60,
                                   smoke ? 120 : 300);
  TablePrinter table(
      "S1: serving throughput vs shard count (8 instances, batch=8)");
  table.SetHeader({"shards", "updates", "seconds", "updates/s", "speedup"});
  csv->WriteRow({"table", "shards", "updates", "seconds", "updates_per_s",
                 "speedup"});
  double base_rate = 0;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    const ServeOutcome outcome = RunWorkload(traces, shards, 8);
    const double rate =
        outcome.seconds > 0
            ? static_cast<double>(outcome.updates) / outcome.seconds
            : 0;
    if (shards == 1) base_rate = rate;
    const double speedup = base_rate > 0 ? rate / base_rate : 0;
    table.AddRow({TablePrinter::Fmt(static_cast<uint64_t>(shards)),
                  TablePrinter::Fmt(outcome.updates),
                  TablePrinter::Fmt(outcome.seconds, 3),
                  TablePrinter::Fmt(rate, 0),
                  TablePrinter::Fmt(speedup, 2)});
    csv->WriteRow({"S1", std::to_string(shards),
                   std::to_string(outcome.updates),
                   TablePrinter::Fmt(outcome.seconds, 3),
                   TablePrinter::Fmt(rate, 0),
                   TablePrinter::Fmt(speedup, 2)});
    const std::string key = "scaling.shards" + std::to_string(shards);
    // The processed-update count is workload accounting, not timing —
    // a drift means updates were dropped or double-counted.
    json->Add(key + ".updates", static_cast<double>(outcome.updates),
              "updates");
    json->Add(key + ".updates_per_s", rate, "updates/s", "higher",
              /*gate=*/false);
    json->Add(key + ".p99_us", outcome.p99_us, "us", "lower",
              /*gate=*/false);
  }
  table.Print(std::cout);
  std::cout
      << "\nExpected shape: updates/s grows near-linearly in shards while\n"
         "cores last — instances are pinned to shard workers and never\n"
         "contend, and the shared planner only serializes escalations.\n\n";
}

void BM_ServingReplay(benchmark::State& state) {
  const auto traces = MakeWorkload(/*instances=*/6, /*initial=*/40,
                                   /*steps=*/150);
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const ServeOutcome outcome = RunWorkload(traces, shards, 8);
    benchmark::DoNotOptimize(outcome);
  }
  uint64_t events = 0;
  for (const auto& trace : traces) events += trace.updates.size();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events));
}
BENCHMARK(BM_ServingReplay)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const benchutil::BenchArgs args = benchutil::ParseBenchArgs(&argc, argv);

  CsvWriter csv("bench_s1_serving.csv");
  benchutil::BenchJson json("s1_serving");
  PrintScalingTable(args.smoke, &csv, &json);
  if (benchutil::EmitBenchJson(json, args) != 0) return 1;
  if (!args.smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
