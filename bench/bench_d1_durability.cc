// Experiment D1 — the durability layer: changelog append throughput
// and crash-recovery time.
//
// Two questions the WAL design trades off:
//
//  * What does group commit buy? Append throughput vs fsync_every_n
//    across record sizes (the record payload scales with the instance
//    key) — fsync_every_n=1 is the write-through floor, larger batches
//    amortize the sync until the codec is the bottleneck.
//  * What does recovery cost? Parse time (checksum walk of the log)
//    and replay time (deterministic re-application into a fresh
//    assigner) as the logged history grows, reported separately —
//    parse scales with bytes, replay with the repair work the log
//    encodes.
//
// `--smoke` shortens the sweeps and skips the Google Benchmark loops;
// the CI Release leg runs it on every push. In smoke and full mode
// alike the recovery sweep differentially verifies each recovered
// state against the live run (schema text + update totals) and the
// process exits non-zero on divergence.
//
// `--json=FILE` writes the BENCH_d1_durability.json trajectory file
// (gated: codec bytes/record and recovery record/byte counts — see
// tools/benchgate.py). Results are mirrored to bench_d1_durability.csv.

#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/schema_io.h"
#include "durability/changelog.h"
#include "durability/stream.h"
#include "durability/wal.h"
#include "online/assigner.h"
#include "online/trace.h"
#include "util/csv_writer.h"
#include "util/fs.h"
#include "util/table.h"
#include "util/timer.h"
#include "workload/updates.h"

namespace {

using namespace msp;

// ---------------------------------------------------------------------
// Append throughput.

// A synthetic applied-add record: the append sweep measures the codec
// and the writer, not the stream step.
durability::LogRecord SampleRecord(const std::string& key, uint64_t seq) {
  durability::LogRecord record;
  record.kind = durability::RecordKind::kApplied;
  record.seq = seq;
  record.key = key;
  record.update = online::Update::Add(17 + seq % 23);
  return record;
}

struct AppendResult {
  uint64_t records = 0;
  uint64_t bytes = 0;
  uint64_t fsyncs = 0;
  double seconds = 0.0;
};

AppendResult AppendSweep(std::size_t key_len, uint64_t fsync_every_n,
                         uint64_t records) {
  MemFileSystem fs;
  durability::ChangelogWriterOptions options;
  options.fsync_every_n = fsync_every_n;
  std::string error;
  auto writer =
      durability::ChangelogWriter::Create(&fs, "wal", 1, options, &error);
  const std::string key(key_len, 'k');
  AppendResult result;
  Stopwatch wall;
  for (uint64_t i = 1; i <= records; ++i) {
    writer->Append(SampleRecord(key, i), &error);
  }
  writer->Sync(&error);
  result.seconds = wall.ElapsedSeconds();
  result.records = writer->appended_records();
  result.bytes = writer->bytes_appended();
  result.fsyncs = writer->fsyncs();
  return result;
}

void PrintAppendTable(bool smoke, CsvWriter* csv,
                      benchutil::BenchJson* json) {
  const uint64_t records = smoke ? 20'000 : 200'000;
  TablePrinter table("D1: changelog append throughput (group commit)");
  table.SetHeader({"key bytes", "fsync every", "records", "MB", "fsyncs",
                   "records/s", "MB/s"});
  csv->WriteRow({"table", "key_bytes", "fsync_every_n", "records", "bytes",
                 "fsyncs", "records_per_s", "mb_per_s"});
  for (const std::size_t key_len : {8, 64, 256}) {
    for (const uint64_t fsync_every : {uint64_t{1}, uint64_t{8},
                                       uint64_t{64}, uint64_t{0}}) {
      const AppendResult r = AppendSweep(key_len, fsync_every, records);
      const double rate =
          r.seconds > 0.0 ? static_cast<double>(r.records) / r.seconds : 0.0;
      const double mb = static_cast<double>(r.bytes) / (1024.0 * 1024.0);
      const double mb_rate = r.seconds > 0.0 ? mb / r.seconds : 0.0;
      const std::string every =
          fsync_every == 0 ? "close-only" : TablePrinter::Fmt(fsync_every);
      table.AddRow({TablePrinter::Fmt(key_len), every,
                    TablePrinter::Fmt(r.records), TablePrinter::Fmt(mb, 1),
                    TablePrinter::Fmt(r.fsyncs), TablePrinter::Fmt(rate, 0),
                    TablePrinter::Fmt(mb_rate, 1)});
      csv->WriteRow({"D1-append", std::to_string(key_len), every,
                     std::to_string(r.records), std::to_string(r.bytes),
                     std::to_string(r.fsyncs), TablePrinter::Fmt(rate, 0),
                     TablePrinter::Fmt(mb_rate, 1)});
      if (key_len == 64 && fsync_every == 64) {
        // Encoded bytes per record are a property of the codec, not
        // the machine — gate them so a format bloat fails CI.
        json->Add("append.bytes_per_record_k64",
                  r.records > 0 ? static_cast<double>(r.bytes) /
                                      static_cast<double>(r.records)
                                : 0.0,
                  "bytes");
        json->Add("append.records_per_s_k64_f64", rate, "records/s",
                  "higher", /*gate=*/false);
      }
    }
  }
  table.Print(std::cout);
}

// ---------------------------------------------------------------------
// Recovery time, differentially verified against the live run.

online::InstanceSpec RecoverySpec(const online::UpdateTrace& trace) {
  online::InstanceSpec spec;
  spec.x2y = trace.x2y;
  spec.use_portfolio = false;
  spec.capacity = trace.initial_capacity;
  spec.policy.name = "drift";
  spec.policy.cooldown = 8;
  return spec;
}

// Replays `trace` through the durable stream step every host runs,
// logging every record (windows of 8, no trailing checkpoint), and
// returns the live end state for verification.
struct LiveRun {
  std::string schema;
  uint64_t updates = 0;
  std::string bytes;  // the changelog image
};

LiveRun LogTrace(const online::UpdateTrace& trace) {
  MemFileSystem fs;
  durability::ChangelogWriterOptions options;
  options.fsync_every_n = 64;
  std::string error;
  auto writer =
      durability::ChangelogWriter::Create(&fs, "wal", 1, options, &error);
  durability::Stream stream("s", RecoverySpec(trace).ToOnlineConfig(),
                            /*translate=*/true);
  stream.Create(writer.get(), &error);
  for (const online::Update& update : trace.updates) {
    stream.Apply(update, /*window=*/8, writer.get());
  }
  writer->Sync(&error);
  LiveRun run;
  run.schema = SchemaToText(stream.assigner().Schema());
  run.updates = stream.assigner().totals().updates;
  run.bytes = fs.WrittenContents("wal");
  return run;
}

// Returns the number of recovery sweeps that diverged from the live
// state.
int PrintRecoveryTable(bool smoke, CsvWriter* csv,
                       benchutil::BenchJson* json) {
  TablePrinter table("D1: crash-recovery time (parse + replay)");
  table.SetHeader({"trace steps", "records", "KB", "parse ms", "replay ms",
                   "replayed rec/s", "identical"});
  csv->WriteRow({"table", "steps", "records", "bytes", "parse_ms",
                 "replay_ms", "replayed_records_per_s", "identical"});
  int failures = 0;
  std::vector<std::size_t> sweeps = smoke
                                        ? std::vector<std::size_t>{60, 200}
                                        : std::vector<std::size_t>{200, 800,
                                                                   3200};
  for (const std::size_t steps : sweeps) {
    wl::TraceConfig shape;
    shape.initial_inputs = 24;
    shape.steps = steps;
    shape.seed = 81;
    const online::UpdateTrace trace = wl::GenerateTrace(shape);
    const LiveRun live = LogTrace(trace);

    Stopwatch parse_wall;
    std::string error;
    const auto contents = durability::ReadChangelog(live.bytes, &error);
    const double parse_ms = parse_wall.ElapsedSeconds() * 1e3;

    double replay_ms = 0.0;
    bool identical = false;
    std::size_t records = 0;
    if (contents.has_value()) {
      records = contents->records.size();
      Stopwatch replay_wall;
      std::map<std::string, durability::Stream> streams;
      const bool ok = durability::ReplayRecords(contents->records, &streams,
                                                nullptr, nullptr, &error);
      replay_ms = replay_wall.ElapsedSeconds() * 1e3;
      if (ok) {
        const online::OnlineAssigner& recovered = streams.at("s").assigner();
        identical = SchemaToText(recovered.Schema()) == live.schema &&
                    recovered.totals().updates == live.updates;
      }
    }
    if (!identical) {
      ++failures;
      std::cout << "RECOVERY DIVERGED (steps=" << steps << "): " << error
                << "\n";
    }
    const double total_s = (parse_ms + replay_ms) / 1e3;
    const double rate =
        total_s > 0.0 ? static_cast<double>(records) / total_s : 0.0;
    table.AddRow({TablePrinter::Fmt(steps), TablePrinter::Fmt(records),
                  TablePrinter::Fmt(live.bytes.size() / 1024.0, 1),
                  TablePrinter::Fmt(parse_ms, 2),
                  TablePrinter::Fmt(replay_ms, 2),
                  TablePrinter::Fmt(rate, 0), identical ? "yes" : "NO"});
    csv->WriteRow({"D1-recovery", std::to_string(steps),
                   std::to_string(records),
                   std::to_string(live.bytes.size()),
                   TablePrinter::Fmt(parse_ms, 2),
                   TablePrinter::Fmt(replay_ms, 2),
                   TablePrinter::Fmt(rate, 0), identical ? "yes" : "NO"});
    const std::string key = "recovery.steps" + std::to_string(steps);
    json->Add(key + ".records", static_cast<double>(records), "records");
    json->Add(key + ".log_bytes", static_cast<double>(live.bytes.size()),
              "bytes");
    json->Add(key + ".replay_ms", replay_ms, "ms", "lower",
              /*gate=*/false);
  }
  table.Print(std::cout);
  std::cout
      << "\nExpected shape: append throughput rises with fsync_every_n and\n"
         "falls with record size; close-only is the codec ceiling. Parse\n"
         "time scales with log bytes (one checksum walk), replay with the\n"
         "repair work the records encode — recovery is replay-dominated,\n"
         "which is what snapshot rotation bounds.\n\n";
  return failures;
}

void BM_ChangelogAppend(benchmark::State& state) {
  const auto fsync_every = static_cast<uint64_t>(state.range(0));
  const std::string key(32, 'k');
  MemFileSystem fs;
  durability::ChangelogWriterOptions options;
  options.fsync_every_n = fsync_every;
  std::string error;
  auto writer =
      durability::ChangelogWriter::Create(&fs, "wal", 1, options, &error);
  uint64_t seq = 0;
  for (auto _ : state) {
    const bool ok = writer->Append(SampleRecord(key, ++seq), &error);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ChangelogAppend)->Arg(1)->Arg(8)->Arg(64);

void BM_Recovery(benchmark::State& state) {
  wl::TraceConfig shape;
  shape.initial_inputs = 24;
  shape.steps = static_cast<std::size_t>(state.range(0));
  shape.seed = 82;
  const LiveRun live = LogTrace(wl::GenerateTrace(shape));
  for (auto _ : state) {
    std::string error;
    const auto contents = durability::ReadChangelog(live.bytes, &error);
    std::map<std::string, durability::Stream> streams;
    const bool ok = durability::ReplayRecords(contents->records, &streams,
                                              nullptr, nullptr, &error);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Recovery)->Arg(200)->Arg(800);

}  // namespace

int main(int argc, char** argv) {
  const benchutil::BenchArgs args = benchutil::ParseBenchArgs(&argc, argv);

  CsvWriter csv("bench_d1_durability.csv");
  benchutil::BenchJson json("d1_durability");
  PrintAppendTable(args.smoke, &csv, &json);
  const int failures = PrintRecoveryTable(args.smoke, &csv, &json);
  if (benchutil::EmitBenchJson(json, args) != 0) return 1;
  if (failures > 0) return 1;
  if (!args.smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
