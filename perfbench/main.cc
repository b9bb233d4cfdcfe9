// perfbench_serve — runs one workload of the serving request-path
// benchmark and prints its metrics; see bench.h and README.md.
//
//   perfbench_serve --workload ingest-small --seed 1 --seconds 10
//                   --trace 0 --scratch DIR
//   perfbench_serve --self-test --scratch DIR
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace
// 1 prints the per-layer metrics: an untraced phase with the layer-peel
// replays ("where the time goes"), then a phase with the tracer and a
// metrics registry armed. Either way the last stdout line is one JSON
// object {correct, attempted, failed, metrics}. Any failed correctness
// check or stationarity guard exits 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.h"
#include "core/schema_io.h"
#include "obs/export.h"
#include "obs/span.h"
#include "rpc/protocol.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace obs = msp::obs;
using msp::serving::ServingStats;

constexpr std::size_t kSetupReps = 9;
constexpr std::size_t kMaxAttempts = 2;
constexpr double kCalmSteal = 0.01;
constexpr std::size_t kTraceEventCap = 300000;
constexpr uint64_t kSelfTestSteps = 150;
// The stationarity guard: the mean alive-input count per instance at
// the end of the timed phase must stay within this share of m0.
constexpr double kStationarySlack = 0.25;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool self_test = false;
  std::string scratch;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = std::stoi(value);
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (args->scratch.empty()) {
    *error = "--scratch DIR is required";
    return false;
  }
  if (!args->self_test && FindWorkload(args->workload) == nullptr) {
    *error = "unknown workload '" + args->workload + "'";
    return false;
  }
  if (!args->self_test && !(args->seconds > 0)) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Small numeric helpers.

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Aggregate CPU time counters of /proc/stat, in clock ticks.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks ticks;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && stat; ++field) {
    uint64_t value = 0;
    stat >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

// Share of all CPU time since `start` that the hypervisor gave to other
// guests: a run with a high share measured a contended host.
double StealShareSince(const CpuTicks& start) {
  const CpuTicks now = ReadCpuTicks();
  return Ratio(static_cast<double>(now.steal - start.steal),
               static_cast<double>(now.total - start.total));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Percentile of the samples recorded between two snapshots of one
// histogram, with HistogramSnapshot::Percentile's bucket rule.
double DeltaPercentile(const obs::HistogramSnapshot& before,
                       const obs::HistogramSnapshot& after, double p) {
  const uint64_t count = after.count() - before.count();
  if (count == 0) return 0;
  uint64_t target = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  target = std::max<uint64_t>(target, 1);
  const std::vector<uint64_t>& a = after.buckets();
  const std::vector<uint64_t>& b = before.buckets();
  uint64_t seen = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    seen += a[i] - (i < b.size() ? b[i] : 0);
    if (seen >= target) {
      const double lower = static_cast<double>(obs::HistogramBucketLower(i));
      const double upper = static_cast<double>(obs::HistogramBucketUpper(i));
      return lower + (upper - lower) / 2.0;
    }
  }
  return static_cast<double>(after.max());
}

// ---------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // printed in the human table only
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintTable(const std::string& title, const std::vector<Metric>& rows) {
  std::printf("\n%s\n", title.c_str());
  for (const Metric& m : rows) {
    std::printf("  %-34s %16.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::fflush(stdout);
  std::cout << json << std::endl;
}

std::string Machine() {
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         ", build=" PERFBENCH_BUILD_TYPE;
}

// ---------------------------------------------------------------------
// Set-up, snapshots and the correctness gate.

void Teardown(Env* env) {
  if (env->server != nullptr) env->server->Shutdown();
  env->server.reset();
  env->service.reset();
}

// Sets up `reps` times (each timed) and keeps the last environment for
// the timed phase: set-up time is reported as the median.
Env SetUp(const WorkloadSpec& spec, std::vector<KeyStream>* streams,
          const std::string& scratch, const std::string& tag,
          std::size_t reps, obs::Registry* metrics,
          std::vector<double>* setup_s) {
  for (std::size_t r = 0;; ++r) {
    const std::string dir =
        spec.wal ? scratch + "/" + tag + "-wal" + std::to_string(r) : "";
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
    Env env = StartEnv(spec, streams, dir, metrics);
    if (!env.error.empty() || r + 1 == reps) {
      if (env.error.empty()) setup_s->push_back(env.setup_s);
      return env;
    }
    setup_s->push_back(env.setup_s);
    Teardown(&env);
    if (!dir.empty()) fs::remove_all(dir, ec);
  }
}

struct Snap {
  ServingStats serving;
  msp::planner::PlannerStats planner;
  obs::HistogramSnapshot plan_latency;
  msp::rpc::RpcServerCounters rpc;
};

Snap TakeSnap(Env& env) {
  Snap snap;
  snap.serving = env.service->stats();
  snap.planner = env.service->planner().stats();
  snap.plan_latency = env.service->planner().latency();
  snap.rpc = env.server->counters();
  return snap;
}

struct Gate {
  std::vector<std::string> failures;
  ServingStats final_stats;
  msp::planner::PlannerStats final_planner;
  uint64_t phase_updates = 0;
  double recover_s = 0;
  std::map<std::string, std::string> schemas;
  AssignerReplay replay;
};

// Drains the server and checks every output of the run: the service's
// own validity oracle, acked == applied, each schema against a
// single-threaded reference assigner, and (with a WAL) recovery.
Gate RunGate(const WorkloadSpec& spec, Env* env,
             const std::vector<KeyStream>& streams, const PhaseResult& phase,
             const Snap& before, obs::Registry* metrics) {
  Gate gate;
  std::vector<std::string>& failures = gate.failures;
  env->server->Shutdown();
  gate.final_stats = env->service->stats();
  gate.final_planner = env->service->planner().stats();
  uint64_t acked = env->setup_acked;
  uint64_t stale = phase.barrier_stale;
  for (const ConnRecord& rec : phase.conns) {
    acked += rec.acked;
    stale += rec.stale_reads;
    gate.phase_updates += rec.acked;
    if (!rec.error.empty()) failures.push_back("connection: " + rec.error);
  }
  const msp::serving::ShardStats& total = gate.final_stats.total;
  if (acked != total.updates) {
    failures.push_back("acked " + std::to_string(acked) + " != applied " +
                    std::to_string(total.updates));
  }
  if (total.rejected != 0 || total.skipped != 0) {
    failures.push_back("rejected or skipped updates on a feasible trace");
  }
  if (gate.phase_updates != total.updates - before.serving.total.updates) {
    failures.push_back("phase acks do not match the phase's applied updates");
  }
  if (stale != 0) {
    failures.push_back(std::to_string(stale) +
                       " queries missed an acked write");
  }
  std::string error;
  if (!env->service->ValidateAll(&error)) {
    failures.push_back("ValidateAll: " + error);
  }

  std::map<std::string, uint64_t> applied;
  env->service->ForEachInstance(
      [&](const std::string& key, const msp::online::OnlineAssigner& a) {
        gate.schemas[key] = msp::SchemaToText(a.Schema());
        applied[key] = a.totals().updates;
      });

  gate.replay = ReplayAssigners(spec, streams);
  if (gate.replay.schema_text != gate.schemas) {
    failures.push_back("a live schema differs from the reference assigner's");
  }
  if (gate.replay.quality_points != kQualityPoints * streams.size()) {
    failures.push_back("an instance had no lower bounds at a quality point");
  }
  if (spec.policy == "never" && gate.final_planner.plans != 0) {
    failures.push_back("planner ran under policy never");
  }

  if (spec.wal) {
    Teardown(env);  // seals the changelogs
    msp::serving::ServingConfig config;
    config.num_shards = kShards;
    config.metrics = metrics;
    msp::serving::ServingService recovered(config);
    msp::durability::WalOptions wal;
    wal.dir = env->wal_dir;
    wal.recover = true;
    wal.metrics = metrics;
    const Clock::time_point t0 = Clock::now();
    bool ok = false;
    {
      obs::Span span("bench.durability.recover");
      ok = recovered.AttachWal(wal, &error);
    }
    gate.recover_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (!ok) {
      failures.push_back("recovery: " + error);
    } else {
      std::size_t same = 0;
      recovered.ForEachInstance(
          [&](const std::string& key, const msp::online::OnlineAssigner& a) {
            const auto it = gate.schemas.find(key);
            if (it != gate.schemas.end() &&
                it->second == msp::SchemaToText(a.Schema()) &&
                applied[key] == a.totals().updates) {
              ++same;
            }
          });
      if (same != gate.schemas.size()) {
        failures.push_back("recovered state differs from the live state");
      }
    }
  }
  return gate;
}

// Acked updates per second over [from_s, to_s) of a phase, from the
// submits' completion times (every submit acks `batch` updates).
double AckRate(const PhaseResult& phase, std::size_t batch, double from_s,
               double to_s) {
  if (to_s <= from_s) return 0;
  const double lo = from_s * 1e9;
  const double hi = to_s * 1e9;
  uint64_t submits = 0;
  for (const ConnRecord& rec : phase.conns) {
    for (uint64_t done : rec.submit_done_ns) {
      const auto t = static_cast<double>(done);
      if (t >= lo && t < hi) ++submits;
    }
  }
  return static_cast<double>(submits * batch) / (to_s - from_s);
}

struct Stationarity {
  bool ok = true;
  std::vector<Metric> rows;
};

Stationarity CheckStationarity(const WorkloadSpec& spec, const Env& env,
                               const PhaseResult& phase) {
  Stationarity st;
  const double n = static_cast<double>(spec.instances);
  const double start = static_cast<double>(env.alive_start) / n;
  const double end = static_cast<double>(phase.alive_end) / n;
  const double m0 = static_cast<double>(spec.m0);
  st.ok = std::abs(end - m0) <= kStationarySlack * m0;
  st.rows.push_back({"alive_per_instance.start", start, "count", ""});
  st.rows.push_back({"alive_per_instance.end", end, "count",
                     st.ok ? "(within 25% of m0)" : "OUTSIDE 25% of m0"});
  for (int q = 0; q < 4; ++q) {
    st.rows.push_back({"updates_per_s.quarter" + std::to_string(q + 1),
                       AckRate(phase, spec.batch, phase.loop_s * q / 4,
                               phase.loop_s * (q + 1) / 4),
                       "1/s", ""});
  }
  return st;
}

// Latency percentiles and rates are taken per segment — kSegments
// equal slices of the timed phase by completion time — and reported as
// the median over the segments, so one burst of outside interference
// moves one segment, not the figure.
constexpr std::size_t kSegments = 5;

struct Segmented {
  double p50 = 0;
  double p99 = 0;
  uint64_t samples = 0;      // in the whole phase
  uint64_t min_segment = 0;  // samples in the smallest segment
};

Segmented SegmentLatency(const PhaseResult& phase, bool query) {
  std::vector<std::vector<uint64_t>> seg(kSegments);
  const double span_ns = std::max(phase.loop_s, 1e-9) * 1e9;
  for (const ConnRecord& rec : phase.conns) {
    const std::vector<uint64_t>& ns = query ? rec.query_ns : rec.submit_ns;
    const std::vector<uint64_t>& done =
        query ? rec.query_done_ns : rec.submit_done_ns;
    for (std::size_t i = 0; i < ns.size(); ++i) {
      const auto k = static_cast<std::size_t>(
          static_cast<double>(done[i]) / span_ns * kSegments);
      seg[std::min(k, kSegments - 1)].push_back(ns[i]);
    }
  }
  Segmented out;
  std::vector<double> p50;
  std::vector<double> p99;
  out.min_segment = UINT64_MAX;
  for (std::vector<uint64_t>& s : seg) {
    std::sort(s.begin(), s.end());
    p50.push_back(Percentile(s, 50) / 1e3);
    p99.push_back(Percentile(s, 99) / 1e3);
    out.samples += s.size();
    out.min_segment = std::min<uint64_t>(out.min_segment, s.size());
  }
  out.p50 = Median(p50);
  out.p99 = Median(p99);
  return out;
}

std::string SampleNote(const Segmented& s, double p) {
  const auto beyond = static_cast<uint64_t>(
      static_cast<double>(s.min_segment) * (100.0 - p) / 100.0);
  return "(n=" + std::to_string(s.samples) + "; median of " +
         std::to_string(kSegments) + " segments, >=" +
         std::to_string(s.min_segment) + " each, >=" +
         std::to_string(beyond) + " beyond) [" + Machine() + "]";
}

double SegmentRate(const PhaseResult& phase, std::size_t batch) {
  std::vector<double> rates;
  for (std::size_t k = 0; k < kSegments; ++k) {
    rates.push_back(AckRate(phase, batch, phase.loop_s * k / kSegments,
                            phase.loop_s * (k + 1) / kSegments));
  }
  return Median(rates);
}

void Attempts(const PhaseResult& phase, uint64_t* attempted,
              uint64_t* failed) {
  *attempted += phase.barrier_requests;
  *failed += phase.barrier_failed;
  for (const ConnRecord& rec : phase.conns) {
    *attempted += rec.attempted;
    *failed += rec.failed;
  }
}

// ---------------------------------------------------------------------
// One untraced measured run: set-up (median of kSetupReps), the timed
// phase, the gate. Everything the end-to-end table needs.

struct Measured {
  std::vector<double> setups;
  Env env;
  Snap before;
  PhaseResult phase;
  double peak_rss_mb = 0;
  double steal_share = 0;
  Gate gate;
  Stationarity stationarity;
  std::string error;
};

Measured MeasureRun(const WorkloadSpec& spec, std::vector<KeyStream>* streams,
                    const Args& args, const std::string& tag,
                    std::size_t reps, const RunLimit& limit) {
  Measured m;
  m.env = SetUp(spec, streams, args.scratch, tag, reps, nullptr, &m.setups);
  if (!m.env.error.empty()) {
    m.error = "set-up: " + m.env.error;
    return m;
  }
  m.before = TakeSnap(m.env);
  const CpuTicks ticks = ReadCpuTicks();
  m.phase = RunPhase(spec, m.env.server->port(), args.seed, streams, limit, 0);
  m.steal_share = StealShareSince(ticks);
  m.peak_rss_mb = PeakRssMb();
  m.gate = RunGate(spec, &m.env, *streams, m.phase, m.before, nullptr);
  m.stationarity = CheckStationarity(spec, m.env, m.phase);
  Teardown(&m.env);
  std::error_code ec;
  if (!m.env.wal_dir.empty()) fs::remove_all(m.env.wal_dir, ec);
  return m;
}

std::vector<Metric> EndToEnd(const WorkloadSpec& spec, const Measured& m) {
  const Segmented submit = SegmentLatency(m.phase, false);
  const Segmented query = SegmentLatency(m.phase, true);
  const std::string machine = "[" + Machine() + "]";
  const AssignerReplay& r = m.gate.replay;
  return {
      {"setup_s", Median(m.setups), "s",
       "(median of " + std::to_string(m.setups.size()) + ") " + machine},
      {"updates_per_s", SegmentRate(m.phase, spec.batch), "1/s",
       "(median of " + std::to_string(kSegments) + " segments; whole phase " +
           Num(Ratio(static_cast<double>(m.gate.phase_updates),
                     m.phase.wall_s)) +
           ") " + machine},
      {"submit_p50_us", submit.p50, "us", SampleNote(submit, 50)},
      {"query_p50_us", query.p50, "us", SampleNote(query, 50)},
      {"query_p99_us", query.p99, "us", SampleNote(query, 99)},
      {"reducers_over_lb", r.reducers_over_lb, "ratio", "(exact)"},
      {"comm_over_lb", r.comm_over_lb, "ratio", "(exact)"},
      {"churn_bytes_per_update", r.churn_bytes_per_update, "bytes",
       "(exact)"},
      {"peak_rss_mb", m.peak_rss_mb, "MB", ""},
  };
}

bool ReportGate(const std::string& label, const Gate& gate,
                const Stationarity& st) {
  PrintTable("stationarity guard (" + label + ")", st.rows);
  std::printf("\ncorrectness gate (%s): %s\n", label.c_str(),
              gate.failures.empty() ? "pass" : "FAIL");
  for (const std::string& why : gate.failures) {
    std::printf("  FAIL: %s\n", why.c_str());
  }
  return gate.failures.empty() && st.ok;
}

// ---------------------------------------------------------------------
// Traced run helpers.

struct RegSnap {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, obs::HistogramSnapshot> hists;
};

obs::HistogramSnapshot ShardMerged(obs::Registry& reg,
                                   const std::string& name) {
  obs::HistogramSnapshot merged;
  for (std::size_t i = 0; i < kShards; ++i) {
    merged.Merge(reg.histogram(name, {{"shard", std::to_string(i)}})
                     ->snapshot());
  }
  return merged;
}

RegSnap TakeReg(obs::Registry& reg) {
  RegSnap s;
  for (const char* name :
       {"online.policy_consults_total", "online.replans_total",
        "online.allocs_total", "planner.allocs_total"}) {
    s.counters[name] = reg.counter(name)->value();
  }
  for (const char* name :
       {"rpc.handle_latency_us", "durability.fsync_latency_us",
        "durability.group_commit_batch", "durability.recovery_replay_us"}) {
    s.hists[name] = reg.histogram(name)->snapshot();
  }
  for (const char* name :
       {"serving.queue_dwell_us", "serving.apply_latency_us"}) {
    s.hists[name] = ShardMerged(reg, name);
  }
  return s;
}

// The run's own requests and responses replayed through the codec:
// encode + frame, deframe + decode, both directions.
double CodecNsPerRequest(const WorkloadSpec& spec,
                         const std::vector<KeyStream>& streams,
                         const PhaseResult& phase) {
  namespace rpc = msp::rpc;
  std::vector<rpc::Request> requests;
  std::vector<rpc::Response> responses;
  std::vector<std::size_t> next(streams.size(), spec.m0);
  constexpr std::size_t kMaxRequests = 20000;
  for (const ConnRecord& rec : phase.conns) {
    for (std::size_t i = 0;
         i < rec.steps.size() && requests.size() < kMaxRequests; ++i) {
      const KeyStream& s = streams[rec.steps[i]];
      std::size_t& pos = next[rec.steps[i]];
      rpc::Request submit =
          SubmitRequest(s, pos, spec.batch, requests.size() + 1);
      pos += spec.batch;
      rpc::Response ok;
      ok.type = rpc::MsgType::kOk;
      ok.req_id = submit.req_id;
      ok.shard = static_cast<uint32_t>(s.shard);
      ok.accepted = spec.batch;
      requests.push_back(std::move(submit));
      responses.push_back(ok);
      if ((i + 1) % spec.query_every == 0) {
        rpc::Request query = QueryRequest(s, requests.size() + 1);
        rpc::Response result;
        result.type = rpc::MsgType::kQueryResult;
        result.req_id = query.req_id;
        result.found = true;
        result.inputs = spec.m0;
        result.reducers = spec.m0;
        result.capacity = spec.capacity;
        result.applied_updates = pos;
        requests.push_back(std::move(query));
        responses.push_back(result);
      }
    }
  }
  if (requests.empty()) return 0;
  uint64_t done = 0;
  uint64_t checksum = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0;
  while (elapsed < 0.2) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      for (int dir = 0; dir < 2; ++dir) {
        const std::string frame = rpc::EncodeFrame(
            dir == 0 ? rpc::EncodeRequest(requests[i])
                     : rpc::EncodeResponse(responses[i]));
        std::size_t frame_size = 0;
        std::string_view payload;
        std::string error;
        rpc::DecodeFrame(frame, &frame_size, &payload, &error);
        if (dir == 0) {
          rpc::Request decoded;
          rpc::DecodeRequest(payload, &decoded, &error);
          checksum += decoded.updates.size();
        } else {
          rpc::Response decoded;
          rpc::DecodeResponse(payload, &decoded, &error);
          checksum += decoded.accepted;
        }
      }
    }
    done += requests.size();
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  if (checksum == 0) std::printf("codec replay decoded nothing\n");
  return elapsed * 1e9 / static_cast<double>(done);
}

bool WriteTrace(const std::string& path) {
  std::string error;
  if (!obs::WriteTraceFile(path, &error)) {
    std::fprintf(stderr, "trace: %s\n", error.c_str());
    return false;
  }
  std::printf("chrome trace: %s (%zu events)\n", path.c_str(),
              obs::Tracer::event_count());
  return true;
}

// ---------------------------------------------------------------------
// Modes.

int RunUntraced(const WorkloadSpec& spec, const Args& args) {
  RunLimit limit;
  limit.seconds = args.seconds;
  std::vector<KeyStream> streams = MakeStreams(
      spec, args.seed,
      spec.ceiling_updates_per_s * args.seconds / kConnections);
  // On a virtual machine the hypervisor may take CPU time from this
  // guest while it measures. A phase that lost more than kCalmSteal of
  // all CPU time is measured again, up to kMaxAttempts times, and the
  // least disturbed attempt is reported. Every attempt is checked, and
  // every attempt's requests count in `attempted` and `failed`.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool gates_pass = true;
  double peak_rss_mb = 0;
  std::vector<double> steal;
  Measured m;
  for (std::size_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    Measured next = MeasureRun(spec, &streams, args,
                               "e2e" + std::to_string(attempt), kSetupReps,
                               limit);
    if (!next.error.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", next.error.c_str());
      return 1;
    }
    Attempts(next.phase, &attempted, &failed);
    steal.push_back(next.steal_share);
    if (!next.gate.failures.empty() || !next.stationarity.ok) {
      ReportGate("attempt " + std::to_string(attempt), next.gate,
                 next.stationarity);
      gates_pass = false;
    }
    if (attempt == 0) peak_rss_mb = next.peak_rss_mb;
    if (attempt == 0 || next.steal_share < m.steal_share) m = std::move(next);
    if (m.steal_share <= kCalmSteal) break;
  }
  // Later attempts run in a process that still holds the heap the first
  // one grew, so resident memory is the first attempt's.
  m.peak_rss_mb = peak_rss_mb;
  const std::vector<Metric> e2e = EndToEnd(spec, m);
  PrintTable("end-to-end: " + spec.name + " (seed " +
                 std::to_string(args.seed) + ", " + Machine() + ")",
             e2e);
  std::string steal_note = "of the reported attempt; every attempt:";
  for (double share : steal) steal_note += " " + Num(share);
  // Printed but kept out of the JSON line; README.md says why.
  const Segmented submit = SegmentLatency(m.phase, false);
  std::vector<Metric> extra = {
      {"submit_p99_us", submit.p99, "us", SampleNote(submit, 99)},
      {"failed_ratio", Ratio(failed, attempted), "ratio",
       "(" + std::to_string(failed) + " of " + std::to_string(attempted) +
           " requests)"},
      {"host_steal_share", m.steal_share, "ratio", steal_note}};
  if (spec.wal) {
    extra.push_back({"recover_s", m.gate.recover_s, "s",
                     "[" + Machine() + "]"});
  }
  PrintTable("also reported", extra);
  const bool correct =
      ReportGate("timed phase", m.gate, m.stationarity) && gates_pass;
  PrintResult(correct, attempted, failed, e2e);
  return correct ? 0 : 1;
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  // Half the run untraced (the baseline and the layer-peel ledger),
  // half traced (registry + tracer armed).
  RunLimit limit;
  limit.seconds = args.seconds / 2;
  std::vector<KeyStream> streams = MakeStreams(
      spec, args.seed,
      spec.ceiling_updates_per_s * limit.seconds / kConnections);
  Measured u = MeasureRun(spec, &streams, args, "peel", 1, limit);
  if (!u.error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", u.error.c_str());
    return 1;
  }
  bool correct = ReportGate("untraced phase", u.gate, u.stationarity);

  // Layer peels over the untraced phase's recorded streams.
  std::string error;
  std::error_code ec;
  const std::string peel_wal = args.scratch + "/peel-direct-wal";
  fs::remove_all(peel_wal, ec);
  const double t_total = u.phase.wall_s;
  const double t_serving = ReplayServing(spec, streams, u.phase,
                                         spec.wal ? peel_wal : "", &error);
  const double t_serving_nowal =
      spec.wal ? ReplayServing(spec, streams, u.phase, "", &error)
               : t_serving;
  fs::remove_all(peel_wal, ec);
  if (!error.empty()) {
    std::printf("layer peel: FAIL: %s\n", error.c_str());
    correct = false;
  }
  const AssignerReplay& replay = u.gate.replay;
  std::size_t slowest = 0;
  double assigner_total = 0;
  for (std::size_t g = 0; g < replay.group_s.size(); ++g) {
    assigner_total += replay.group_s[g];
    if (replay.group_s[g] > replay.group_s[slowest]) slowest = g;
  }
  const double t_assigner = replay.group_s[slowest];
  const double t_planner = replay.group_planner_s[slowest];
  // Subtraction ledger: each peel removes one layer; rows are clamped
  // at zero and whatever the clamps or overlaps leave is unattributed,
  // so the rows always sum to the timed phase.
  const double rpc_s = std::max(0.0, t_total - t_serving);
  const double durability_s = std::max(0.0, t_serving - t_serving_nowal);
  const double planner_s = std::max(0.0, t_planner);
  const double online_s = std::max(0.0, t_assigner - t_planner);
  const double serving_s = std::max(0.0, t_serving_nowal - t_assigner);
  const double unattributed_s =
      t_total - rpc_s - durability_s - planner_s - online_s - serving_s;
  const std::vector<Metric> ledger = {
      {"time.rpc_s", rpc_s, "s", "timed phase - direct ServingService replay"},
      {"time.serving_s", serving_s, "s",
       "direct replay (no WAL) - slowest shard's assigner replay"},
      {"time.online_s", online_s, "s",
       "slowest shard's assigner replay - its planner time"},
      {"time.planner_s", planner_s, "s", "planner time on the slowest shard"},
      {"time.durability_s", durability_s, "s",
       "direct replay with WAL - without"},
      {"time.unattributed_s", unattributed_s, "s",
       "timed phase - the rows above"},
  };
  PrintTable("where the time goes: " + spec.name + " (timed phase " +
                 Num(t_total) + " s, " + Machine() + ")",
             ledger);

  // Traced phase: registry on server, service and WAL; tracer armed.
  obs::Registry reg;
  std::vector<double> unused;
  Env env = SetUp(spec, &streams, args.scratch, "traced", 1, &reg, &unused);
  if (!env.error.empty()) {
    std::fprintf(stderr, "perfbench: traced set-up: %s\n", env.error.c_str());
    return 1;
  }
  const Snap before = TakeSnap(env);
  const RegSnap reg_before = TakeReg(reg);
  obs::Tracer::Start();
  const PhaseResult phase = RunPhase(spec, env.server->port(), args.seed,
                                     &streams, limit, kTraceEventCap);
  obs::Tracer::Stop();
  const Snap after = TakeSnap(env);
  const RegSnap reg_after = TakeReg(reg);
  WriteTrace(args.scratch + "/trace-" + spec.name + "-rpc.json");
  obs::Tracer::Start();
  Gate gate = RunGate(spec, &env, streams, phase, before, &reg);
  obs::Tracer::Stop();
  WriteTrace(args.scratch + "/trace-" + spec.name + "-replay.json");
  const RegSnap reg_final = TakeReg(reg);
  correct = ReportGate("traced phase", gate,
                       CheckStationarity(spec, env, phase)) &&
            correct;
  Teardown(&env);

  const auto d = [](uint64_t a, uint64_t b) {
    return static_cast<double>(a - b);
  };
  const auto hist = [&](const char* name, double p) {
    return DeltaPercentile(reg_before.hists.at(name),
                           reg_after.hists.at(name), p);
  };
  const msp::serving::ShardStats& t0 = before.serving.total;
  const msp::serving::ShardStats& t1 = after.serving.total;
  const double updates = d(t1.updates, t0.updates);
  double shard_max = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    shard_max = std::max(shard_max, d(after.serving.shards[i].updates,
                                      before.serving.shards[i].updates));
  }
  const double requests = d(after.rpc.requests, before.rpc.requests);
  const double plans = d(after.planner.plans, before.planner.plans);
  const double replans = d(reg_after.counters.at("online.replans_total"),
                           reg_before.counters.at("online.replans_total"));
  const auto counter = [&](const char* name) {
    return d(reg_after.counters.at(name), reg_before.counters.at(name));
  };
  // Same window on both phases: from the start until the tracer stopped.
  const double traced_rate = AckRate(phase, spec.batch, 0, phase.trace_stop_s);
  const double untraced_rate =
      AckRate(u.phase, spec.batch, 0,
              std::min(phase.trace_stop_s, u.phase.loop_s));
  std::vector<Metric> layers = {
      {"rpc.requests", requests, "count", ""},
      {"rpc.overloaded", d(after.rpc.overloaded, before.rpc.overloaded),
       "count", ""},
      {"rpc.errors", d(after.rpc.errors, before.rpc.errors), "count", ""},
      {"rpc.bytes_per_request",
       Ratio(d(after.rpc.bytes_read + after.rpc.bytes_written,
               before.rpc.bytes_read + before.rpc.bytes_written),
             requests),
       "bytes", ""},
      {"rpc.handle_p50_us", hist("rpc.handle_latency_us", 50), "us", ""},
      {"rpc.handle_p99_us", hist("rpc.handle_latency_us", 99), "us", ""},
      {"rpc.codec_ns_per_request", CodecNsPerRequest(spec, streams, phase),
       "ns", ""},
      {"serving.queue_dwell_p50_us", hist("serving.queue_dwell_us", 50), "us",
       ""},
      {"serving.queue_dwell_p99_us", hist("serving.queue_dwell_us", 99), "us",
       ""},
      {"serving.apply_p50_us", hist("serving.apply_latency_us", 50), "us",
       ""},
      {"serving.apply_p99_us", hist("serving.apply_latency_us", 99), "us",
       ""},
      {"serving.tasks_per_update",
       Ratio(d(t1.processed_tasks, t0.processed_tasks), updates), "ratio",
       ""},
      {"serving.shard_imbalance", Ratio(shard_max, updates / kShards),
       "ratio", "max over mean applied updates per shard"},
      {"serving.direct_updates_per_s",
       Ratio(static_cast<double>(u.gate.phase_updates), t_serving_nowal),
       "1/s", "direct ServingService replay, no WAL"},
      {"online.direct_updates_per_s",
       Ratio(static_cast<double>(replay.updates), assigner_total), "1/s",
       "single-threaded assigner replay"},
      {"online.repair_p50_us", Percentile(replay.apply_ns, 50) / 1e3, "us",
       ""},
      {"online.repair_p99_us", Percentile(replay.apply_ns, 99) / 1e3, "us",
       ""},
      {"online.checkpoint_p99_us",
       Percentile(replay.checkpoint_ns, 99) / 1e3, "us", ""},
      {"online.policy_consults", counter("online.policy_consults_total"),
       "count", ""},
      {"online.replans", replans, "count", "deployed re-plans"},
      {"online.plans_discarded_ratio",
       plans > 0 ? 1.0 - replans / plans : 0.0, "ratio",
       "1 - deployed/computed"},
      {"online.allocs_per_update",
       Ratio(counter("online.allocs_total"), updates), "count", ""},
      {"planner.plans", plans, "count", ""},
      {"planner.cache_hit_ratio",
       Ratio(d(after.planner.cache_hits, before.planner.cache_hits), plans),
       "ratio", ""},
      {"planner.plan_p50_us",
       DeltaPercentile(before.plan_latency, after.plan_latency, 50), "us",
       ""},
      {"planner.plan_p99_us",
       DeltaPercentile(before.plan_latency, after.plan_latency, 99), "us",
       ""},
      {"planner.busy_s",
       d(after.plan_latency.sum(), before.plan_latency.sum()) / 1e6, "s", ""},
      {"planner.allocs_per_plan",
       Ratio(counter("planner.allocs_total"), plans), "count", ""},
      {"durability.records_per_update",
       Ratio(d(t1.wal_records, t0.wal_records), updates), "ratio", ""},
      {"durability.bytes_per_update",
       Ratio(d(t1.wal_bytes, t0.wal_bytes), updates), "bytes", ""},
      {"durability.fsyncs_per_update",
       Ratio(d(t1.wal_fsyncs, t0.wal_fsyncs), updates), "ratio", ""},
      {"durability.group_commit_p50", hist("durability.group_commit_batch", 50),
       "count", "records per fsync"},
      {"durability.fsync_p50_us", hist("durability.fsync_latency_us", 50),
       "us", ""},
      {"durability.fsync_p99_us", hist("durability.fsync_latency_us", 99),
       "us", ""},
      {"durability.rotations", d(t1.wal_rotations, t0.wal_rotations), "count",
       ""},
      {"durability.replay_us",
       d(reg_final.hists.at("durability.recovery_replay_us").sum(),
         reg_after.hists.at("durability.recovery_replay_us").sum()),
       "us", "recovery replay of the traced run's WAL"},
      {"obs.trace_overhead_ratio", Ratio(traced_rate, untraced_rate), "ratio",
       "traced over untraced updates/s, first " + Num(phase.trace_stop_s) +
           " s of each phase"},
  };
  layers.insert(layers.end(), ledger.begin(), ledger.end());
  PrintTable("per-layer: " + spec.name + " (seed " +
                 std::to_string(args.seed) + ", " + Machine() + ")",
             layers);
  if (spec.policy == "never" && plans != 0) {
    std::printf("FAIL: planner.plans must be 0 under policy never\n");
    correct = false;
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Attempts(u.phase, &attempted, &failed);
  Attempts(phase, &attempted, &failed);
  PrintResult(correct, attempted, failed, layers);
  return correct ? 0 : 1;
}

// Tiny deterministic runs (fixed step counts instead of a clock): the
// same seed must give the same exact metrics and schemas, another seed
// other traces.
struct Exact {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> schemas;
  std::string first_trace;
  std::vector<std::string> failures;
};

Exact ExactRun(const WorkloadSpec& spec, const Args& args, uint64_t seed) {
  Args run_args = args;
  run_args.seed = seed;
  RunLimit limit;
  limit.steps = kSelfTestSteps;
  std::vector<KeyStream> streams = MakeStreams(
      spec, seed, static_cast<double>(kSelfTestSteps * spec.batch));
  Measured m =
      MeasureRun(spec, &streams, run_args, "selftest-" + spec.name, 1, limit);
  Exact e;
  e.first_trace = msp::online::TraceToText(streams[0].trace);
  if (!m.error.empty()) {
    e.failures.push_back(m.error);
    return e;
  }
  e.failures = m.gate.failures;
  if (!m.stationarity.ok) e.failures.push_back("stationarity");
  const msp::serving::ShardStats& t0 = m.before.serving.total;
  const msp::serving::ShardStats& t1 = m.gate.final_stats.total;
  const double updates = static_cast<double>(m.gate.phase_updates);
  for (const Metric& metric : EndToEnd(spec, m)) {
    if (metric.note == "(exact)") e.metrics[metric.name] = metric.value;
  }
  e.metrics["online.replans"] = static_cast<double>(t1.replans - t0.replans);
  e.metrics["planner.plans"] = static_cast<double>(
      m.gate.final_planner.plans - m.before.planner.plans);
  e.metrics["durability.records_per_update"] =
      Ratio(static_cast<double>(t1.wal_records - t0.wal_records), updates);
  e.schemas = m.gate.schemas;
  return e;
}

int RunSelfTest(const Args& args) {
  bool ok = true;
  for (const WorkloadSpec& spec : Workloads()) {
    const Exact a = ExactRun(spec, args, 11);
    const Exact b = ExactRun(spec, args, 11);
    const Exact c = ExactRun(spec, args, 12);
    std::vector<std::string> problems = a.failures;
    problems.insert(problems.end(), b.failures.begin(), b.failures.end());
    problems.insert(problems.end(), c.failures.begin(), c.failures.end());
    if (a.metrics != b.metrics) problems.push_back("exact metrics differ");
    if (a.schemas != b.schemas) problems.push_back("schemas differ");
    if (a.first_trace == c.first_trace) {
      problems.push_back("another seed gave the same trace");
    }
    std::printf("self-test %-14s %s\n", spec.name.c_str(),
                problems.empty() ? "pass" : "FAIL");
    for (const auto& [name, value] : a.metrics) {
      std::printf("  %-32s %.17g\n", name.c_str(), value);
    }
    for (const std::string& p : problems) {
      std::printf("  FAIL: %s\n", p.c_str());
    }
    ok = ok && problems.empty();
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench_serve: %s\n", error.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.scratch, ec);
  if (args.self_test) return RunSelfTest(args);
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  return args.trace != 0 ? RunTraced(spec, args) : RunUntraced(spec, args);
}
