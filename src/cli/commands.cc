#include "cli/commands.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/sizes_io.h"
#include "core/a2a.h"
#include "durability/changelog.h"
#include "durability/stream.h"
#include "durability/wal.h"
#include "core/bounds.h"
#include "core/improve.h"
#include "core/instance.h"
#include "core/schema.h"
#include "core/schema_io.h"
#include "core/validate.h"
#include "core/x2y.h"
#include "online/assigner.h"
#include "online/budget.h"
#include "online/delta.h"
#include "online/policy.h"
#include "online/snapshot.h"
#include "online/spec.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/flight.h"
#include "obs/profile.h"
#include "obs/span.h"
#include "obs/watchdog.h"
#include "online/trace.h"
#include "planner/service.h"
#include "rpc/server.h"
#include "serving/service.h"
#include "sim/simulator.h"
#include "util/csv_writer.h"
#include "util/fs.h"
#include "util/summary_stats.h"
#include "util/table.h"
#include "util/timer.h"
#include "workload/sizes.h"
#include "workload/updates.h"

namespace msp::cli {

namespace {

// Per-invocation observability behind --metrics-out / --trace-out /
// --profile-out: a registry pre-seeded with the standard
// cross-subsystem series, plus the process-global tracer armed for the
// command's duration (either dump of span data arms it). The command
// wires registry() (null when no --metrics-out, so every hot path
// stays a pointer test) into its config structs, runs, then calls
// Finish() to dump the files — for --profile-out that aggregates the
// span buffer into a call-tree profile (obs/profile.h), writes the
// collapsed-stack file, and prints the top spans to `err`. The
// destructor disarms the tracer on early-error paths so a failed
// command never leaves tracing on.
class ObsSession {
 public:
  ObsSession() = default;
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  void Init(const ArgParser& parser) {
    metrics_path_ = parser.GetString("metrics-out");
    trace_path_ = parser.GetString("trace-out");
    profile_path_ = parser.GetString("profile-out");
    if (!metrics_path_.empty()) obs::RegisterStandardMetrics(&registry_);
    if (!trace_path_.empty() || !profile_path_.empty()) {
      obs::Tracer::Start();
      tracing_ = true;
    }
  }

  // Null when no metrics dump was requested.
  obs::Registry* registry() {
    return metrics_path_.empty() ? nullptr : &registry_;
  }

  // Thread-safe re-dump of the metrics file (`serve --stats-every`).
  // Refreshes the process.* gauges first so every dump carries a
  // current uptime/RSS/thread-count sample.
  bool WriteMetricsNow(std::string* error) {
    obs::SampleProcessMetrics(&registry_);
    return obs::WriteMetricsFile(registry_, metrics_path_, error);
  }

  // Stops the tracer and writes whatever was requested. Returns false
  // (after reporting to `err`) when a dump cannot be written.
  bool Finish(std::ostream& err) {
    bool ok = true;
    std::string error;
    if (tracing_) {
      obs::Tracer::Stop();
      tracing_ = false;
      if (!trace_path_.empty() &&
          !obs::WriteTraceFile(trace_path_, &error)) {
        err << "error: " << error << "\n";
        ok = false;
      }
      if (!profile_path_.empty()) {
        const obs::Profile profile =
            obs::Profile::Build(obs::Tracer::Snapshot());
        if (!obs::WriteProfileFile(profile, profile_path_, &error)) {
          err << "error: " << error << "\n";
          ok = false;
        }
        profile.PrintTop(15, err);
      }
    }
    if (!metrics_path_.empty() && !WriteMetricsNow(&error)) {
      err << "error: " << error << "\n";
      ok = false;
    }
    return ok;
  }

  ~ObsSession() {
    if (tracing_) obs::Tracer::Stop();
  }

 private:
  obs::Registry registry_;
  std::string metrics_path_;
  std::string trace_path_;
  std::string profile_path_;
  bool tracing_ = false;
};

// Background thread for `serve --stats-every N`: re-dumps the metrics
// file every N milliseconds while the serving run is in flight, so an
// operator can watch gauges move. Stop() (and the destructor) joins
// the thread and then writes one final dump, so the file always ends
// on a complete post-run snapshot — including on early-error exits
// where the run never reached its own Finish() dump.
class PeriodicMetricsDumper {
 public:
  PeriodicMetricsDumper(ObsSession& session, uint64_t interval_ms,
                        std::ostream& err)
      : session_(session), interval_ms_(interval_ms), err_(err) {
    thread_ = std::thread([this] { Loop(); });
  }

  ~PeriodicMetricsDumper() { Stop(); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    thread_.join();
    std::string error;
    if (!session_.WriteMetricsNow(&error)) {
      err_ << "warning: final metrics dump failed: " << error << "\n";
    } else {
      dumps_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  uint64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopped_) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                       [this] { return stopped_; })) {
        break;
      }
      std::string error;
      if (!session_.WriteMetricsNow(&error)) {
        err_ << "warning: periodic metrics dump failed: " << error << "\n";
        break;
      }
      dumps_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  ObsSession& session_;
  const uint64_t interval_ms_;
  std::ostream& err_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::atomic<uint64_t> dumps_{0};
  std::thread thread_;
};

// Reads --sizes=<path> into an A2A instance with --q=<capacity>.
std::optional<A2AInstance> LoadA2A(const ArgParser& parser,
                                   std::ostream& err) {
  const std::string path = parser.GetString("sizes");
  if (path.empty()) {
    err << "error: --sizes=<file> is required\n";
    return std::nullopt;
  }
  std::string io_error;
  const auto sizes = ReadSizesFile(path, &io_error);
  if (!sizes.has_value()) {
    err << "error: " << io_error << "\n";
    return std::nullopt;
  }
  const auto q = parser.GetUint("q", 0);
  if (!q.has_value() || *q == 0) {
    err << "error: --q=<capacity> is required and must be positive\n";
    return std::nullopt;
  }
  auto instance = A2AInstance::Create(*sizes, *q);
  if (!instance.has_value()) {
    err << "error: invalid instance (zero size or an input larger than "
           "q)\n";
    return std::nullopt;
  }
  return instance;
}

// Reads --x-sizes/--y-sizes/--q into an X2Y instance.
std::optional<X2YInstance> LoadX2Y(const ArgParser& parser,
                                   std::ostream& err) {
  const std::string x_path = parser.GetString("x-sizes");
  const std::string y_path = parser.GetString("y-sizes");
  if (x_path.empty() || y_path.empty()) {
    err << "error: --x-sizes=<file> and --y-sizes=<file> are required\n";
    return std::nullopt;
  }
  std::string io_error;
  const auto x_sizes = ReadSizesFile(x_path, &io_error);
  if (!x_sizes.has_value()) {
    err << "error: " << io_error << "\n";
    return std::nullopt;
  }
  const auto y_sizes = ReadSizesFile(y_path, &io_error);
  if (!y_sizes.has_value()) {
    err << "error: " << io_error << "\n";
    return std::nullopt;
  }
  const auto q = parser.GetUint("q", 0);
  if (!q.has_value() || *q == 0) {
    err << "error: --q=<capacity> is required\n";
    return std::nullopt;
  }
  auto instance = X2YInstance::Create(*x_sizes, *y_sizes, *q);
  if (!instance.has_value()) {
    err << "error: invalid instance\n";
  }
  return instance;
}

std::optional<MappingSchema> LoadSchema(const std::string& path,
                                        std::ostream& err) {
  std::ifstream in(path);
  if (!in.good()) {
    err << "error: cannot open " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto schema = SchemaFromText(buffer.str());
  if (!schema.has_value()) {
    err << "error: " << path << " is not a valid mapping-schema v1 file\n";
  }
  return schema;
}

int CmdGen(const ArgParser& parser, std::ostream& out, std::ostream& err) {
  const auto m = parser.GetUint("m", 1000);
  const auto lo = parser.GetUint("lo", 1);
  const auto hi = parser.GetUint("hi", 100);
  const auto seed = parser.GetUint("seed", 1);
  const auto skew = parser.GetDouble("skew", 1.2);
  const std::string dist = parser.GetString("dist", "uniform");
  if (!m || !lo || !hi || !seed || !skew || *lo == 0 || *lo > *hi) {
    err << "error: bad --m/--lo/--hi/--seed/--skew\n";
    return 2;
  }
  std::vector<InputSize> sizes;
  if (dist == "uniform") {
    sizes = wl::UniformSizes(*m, *lo, *hi, *seed);
  } else if (dist == "zipf") {
    sizes = wl::ZipfSizes(*m, *lo, *hi, *skew, *seed);
  } else if (dist == "equal") {
    sizes = wl::EqualSizes(*m, *hi);
  } else if (dist == "normal") {
    const double mean = static_cast<double>(*lo + *hi) / 2;
    sizes = wl::NormalSizes(*m, mean, mean / 3, *lo, *hi, *seed);
  } else {
    err << "error: unknown --dist '" << dist
        << "' (uniform|zipf|equal|normal)\n";
    return 2;
  }
  for (InputSize w : sizes) out << w << "\n";
  return 0;
}

int CmdBounds(const ArgParser& parser, std::ostream& out, std::ostream& err) {
  const auto instance = LoadA2A(parser, err);
  if (!instance.has_value()) return 2;
  if (!instance->IsFeasible()) {
    out << "infeasible: the two largest inputs exceed q together\n";
    return 1;
  }
  const A2ALowerBounds lb = A2ALowerBounds::Compute(*instance);
  TablePrinter table("lower bounds");
  table.SetHeader({"bound", "value"});
  table.AddRow({"pair-mass reducers", TablePrinter::Fmt(lb.pair_mass)});
  table.AddRow({"pair-count reducers", TablePrinter::Fmt(lb.pair_count)});
  table.AddRow({"replication reducers", TablePrinter::Fmt(lb.replication)});
  if (lb.schonheim > 0) {
    table.AddRow({"Schonheim reducers", TablePrinter::Fmt(lb.schonheim)});
  }
  table.AddRow({"reducers (max)", TablePrinter::Fmt(lb.reducers)});
  table.AddRow({"communication", TablePrinter::Fmt(lb.communication)});
  table.Print(out);
  return 0;
}

std::optional<A2AAlgorithm> ParseA2AAlgorithm(const std::string& name) {
  if (name == "auto") return std::nullopt;  // handled by caller
  for (A2AAlgorithm algo :
       {A2AAlgorithm::kSingleReducer, A2AAlgorithm::kNaiveAllPairs,
        A2AAlgorithm::kEqualGrouping, A2AAlgorithm::kBinPackPairing,
        A2AAlgorithm::kBinPackTriples, A2AAlgorithm::kBigSmall,
        A2AAlgorithm::kGreedyCover}) {
    if (A2AAlgorithmName(algo) == name) return algo;
  }
  return std::nullopt;
}

int CmdSolveA2A(const ArgParser& parser, std::ostream& out,
                std::ostream& err) {
  const auto instance = LoadA2A(parser, err);
  if (!instance.has_value()) return 2;
  const std::string algo_name = parser.GetString("algorithm", "auto");
  std::optional<MappingSchema> schema;
  if (algo_name == "auto") {
    schema = SolveA2AAuto(*instance);
  } else {
    const auto algo = ParseA2AAlgorithm(algo_name);
    if (!algo.has_value()) {
      err << "error: unknown --algorithm '" << algo_name << "'\n";
      return 2;
    }
    schema = SolveA2A(*instance, *algo);
  }
  if (!schema.has_value()) {
    err << "no schema: instance infeasible or algorithm inapplicable\n";
    return 1;
  }
  const SchemaStats stats = SchemaStats::Compute(*instance, *schema);
  err << "reducers=" << stats.num_reducers
      << " communication=" << stats.communication_cost
      << " replication=" << stats.replication_rate
      << " max_load=" << stats.max_load << "\n";
  out << SchemaToText(*schema);
  return 0;
}

int CmdSolveX2Y(const ArgParser& parser, std::ostream& out,
                std::ostream& err) {
  const auto instance = LoadX2Y(parser, err);
  if (!instance.has_value()) return 2;
  const auto schema = SolveX2YAuto(*instance);
  if (!schema.has_value()) {
    err << "no schema: instance infeasible\n";
    return 1;
  }
  const SchemaStats stats = SchemaStats::Compute(*instance, *schema);
  err << "reducers=" << stats.num_reducers
      << " communication=" << stats.communication_cost << "\n";
  out << SchemaToText(*schema);
  return 0;
}

int CmdValidate(const ArgParser& parser, std::ostream& out,
                std::ostream& err) {
  const auto instance = LoadA2A(parser, err);
  if (!instance.has_value()) return 2;
  const std::string schema_path = parser.GetString("schema");
  if (schema_path.empty()) {
    err << "error: --schema=<file> is required\n";
    return 2;
  }
  const auto schema = LoadSchema(schema_path, err);
  if (!schema.has_value()) return 2;
  const ValidationResult result = ValidateA2A(*instance, *schema);
  if (result.ok) {
    out << "valid: covers " << result.covered_outputs << "/"
        << result.required_outputs << " outputs\n";
    return 0;
  }
  out << "INVALID: " << result.error << "\n";
  return 1;
}

int CmdImprove(const ArgParser& parser, std::ostream& out,
               std::ostream& err) {
  const auto instance = LoadA2A(parser, err);
  if (!instance.has_value()) return 2;
  const std::string schema_path = parser.GetString("schema");
  if (schema_path.empty()) {
    err << "error: --schema=<file> is required\n";
    return 2;
  }
  auto schema = LoadSchema(schema_path, err);
  if (!schema.has_value()) return 2;
  const ValidationResult valid = ValidateA2A(*instance, *schema);
  if (!valid.ok) {
    err << "error: input schema is invalid: " << valid.error << "\n";
    return 1;
  }
  const ImproveStats merged = MergeReducers(*instance, &*schema);
  const uint64_t pruned = PruneRedundantCopiesA2A(*instance, &*schema);
  err << "merges=" << merged.merges << " pruned_copies=" << pruned
      << " reducers=" << merged.reducers_before << "->"
      << schema->num_reducers() << "\n";
  out << SchemaToText(*schema);
  return 0;
}

// Renders the portfolio scoreboard of a plan result.
void PrintScoreboard(const planner::PlanResult& result, std::ostream& err) {
  if (result.scoreboard.empty()) return;
  // Scoreboard values are in canonical (gcd-scaled) size units; the
  // summary line above reports the de-canonicalized (original) costs.
  TablePrinter table("portfolio scoreboard (canonical units)");
  table.SetHeader({"algorithm", "reducers", "communication", "micros"});
  for (const planner::AlgorithmScore& score : result.scoreboard) {
    if (!score.produced) {
      table.AddRow({score.name, "-", "-", TablePrinter::Fmt(score.micros)});
      continue;
    }
    table.AddRow({score.name, TablePrinter::Fmt(score.reducers),
                  TablePrinter::Fmt(score.communication),
                  TablePrinter::Fmt(score.micros)});
  }
  table.Print(err);
}

// plan — run the PlannerService (canonicalization + plan cache +
// portfolio) on an A2A instance (--sizes) or X2Y pair
// (--x-sizes/--y-sizes). --repeat demonstrates the warm cache path
// (portfolio plans only; --portfolio=0 solves on every repeat);
// --stats prints the service counters (hit rate, portfolio vs auto
// runs) after all repeats.
int CmdPlan(const ArgParser& parser, std::ostream& out, std::ostream& err) {
  const auto shards = parser.GetUint("cache-shards", 8);
  const auto portfolio = parser.GetUint("portfolio", 1);
  const auto budget_ms = parser.GetDouble("budget-ms", 0.0);
  const auto repeat = parser.GetUint("repeat", 2);
  if (!shards || *shards == 0 || !portfolio || !budget_ms || !repeat ||
      *repeat == 0) {
    err << "error: bad --cache-shards/--portfolio/--budget-ms/--repeat\n";
    return 2;
  }

  ObsSession obs_session;
  obs_session.Init(parser);

  planner::PlannerConfig config;
  config.cache_shards = *shards;
  config.metrics = obs_session.registry();
  planner::PlanOptions opts;
  opts.use_portfolio = *portfolio != 0;
  opts.budget_ms = *budget_ms;

  const bool x2y = parser.Has("x-sizes") || parser.Has("y-sizes");
  std::optional<A2AInstance> a2a;
  std::optional<X2YInstance> xy;
  if (x2y) {
    xy = LoadX2Y(parser, err);
    if (!xy.has_value()) return 2;
  } else {
    a2a = LoadA2A(parser, err);
    if (!a2a.has_value()) return 2;
  }

  planner::PlannerService service(config);
  planner::PlanResult result;
  planner::PlanResult cold;  // first call, the one with the scoreboard
  for (uint64_t i = 0; i < *repeat; ++i) {
    result = x2y ? service.Plan(*xy, opts) : service.Plan(*a2a, opts);
    if (i == 0) cold = result;
    // Infeasible plans are never cached; repeating would just re-solve.
    if (!result.schema.has_value()) break;
  }
  if (!result.schema.has_value()) {
    err << "no schema: instance infeasible\n";
    obs_session.Finish(err);
    return 1;
  }
  err << "algorithm=" << result.algorithm
      << " reducers=" << result.stats.num_reducers
      << " communication=" << result.stats.communication_cost
      << " cache_hit=" << (result.cache_hit ? 1 : 0)
      << " plan_micros=" << result.plan_micros << "\n";
  PrintScoreboard(cold, err);
  if (parser.Has("stats")) service.PrintStats(err);
  if (!obs_session.Finish(err)) return 2;
  out << SchemaToText(*result.schema);
  return 0;
}

// Ceiling on --initial/--steps: keeps a wrapped-negative value
// (strtoull turns "-1" into 2^64-1) from hanging the generator.
// Capacity is capped at online::kMaxCapacity for the same reason.
constexpr uint64_t kMaxTraceEvents = 10'000'000;

// gen-trace — emit a seeded update trace (arrival/departure/resize/
// retune stream with Zipf sizes) for `mspctl online` and the online
// benchmarks.
int CmdGenTrace(const ArgParser& parser, std::ostream& out,
                std::ostream& err) {
  const std::string kind = parser.GetString("kind", "a2a");
  if (kind != "a2a" && kind != "x2y") {
    err << "error: --kind must be a2a or x2y\n";
    return 2;
  }
  wl::TraceConfig config;
  config.x2y = kind == "x2y";
  const std::string shape = parser.GetString("shape", "mixed");
  if (shape == "mixed") {
    config.shape = wl::TraceShape::kMixed;
  } else if (shape == "flash-crowd") {
    config.shape = wl::TraceShape::kFlashCrowd;
  } else if (shape == "capacity-oscillation") {
    config.shape = wl::TraceShape::kCapacityOscillation;
  } else {
    err << "error: unknown --shape '" << shape
        << "' (mixed|flash-crowd|capacity-oscillation)\n";
    return 2;
  }
  const auto initial = parser.GetUint("initial", config.initial_inputs);
  const auto steps = parser.GetUint("steps", config.steps);
  const auto q = parser.GetUint("q", config.capacity);
  const auto lo = parser.GetUint("lo", config.lo);
  const auto hi = parser.GetUint("hi", config.hi);
  const auto skew = parser.GetDouble("skew", config.skew);
  const auto seed = parser.GetUint("seed", config.seed);
  const auto p_add = parser.GetDouble("p-add", config.p_add);
  const auto p_remove = parser.GetDouble("p-remove", config.p_remove);
  const auto p_resize = parser.GetDouble("p-resize", config.p_resize);
  if (!initial || !steps || !q || !lo || !hi || !skew || !seed || !p_add ||
      !p_remove || !p_resize || *q < 2 || *lo == 0 || *lo > *hi ||
      *lo > *q / 2 || *skew < 0.0 || *p_add < 0.0 || *p_remove < 0.0 ||
      *p_resize < 0.0 || *p_add + *p_remove + *p_resize > 1.0 ||
      *initial > kMaxTraceEvents || *steps > kMaxTraceEvents ||
      *q > online::kMaxCapacity) {
    err << "error: bad gen-trace options (need 2<=q<=10^18, 0<lo<=hi, "
           "q>=2*lo so a pair of lo-sized inputs fits, skew>=0, "
           "0<=p-add+p-remove+p-resize<=1, initial/steps <= 10^7)\n";
    return 2;
  }
  config.initial_inputs = *initial;
  config.steps = *steps;
  config.capacity = *q;
  config.lo = *lo;
  config.hi = *hi;
  config.skew = *skew;
  config.seed = *seed;
  config.p_add = *p_add;
  config.p_remove = *p_remove;
  config.p_resize = *p_resize;
  out << online::TraceToText(wl::GenerateTrace(config));
  return 0;
}

// Loads and parses an update-trace file.
std::optional<online::UpdateTrace> LoadTrace(const std::string& path,
                                             std::ostream& err) {
  if (path.empty()) {
    err << "error: --trace=<file> is required (see mspctl gen-trace)\n";
    return std::nullopt;
  }
  std::ifstream in(path);
  if (!in.good()) {
    err << "error: cannot open " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string parse_error;
  auto trace = online::TraceFromText(buffer.str(), &parse_error);
  if (!trace.has_value()) {
    err << "error: " << path << ": " << parse_error << "\n";
  }
  return trace;
}

// Reads the spec flags every instance-building command shares
// (WithSpecFlags below) into the one instance spec (online/spec.h); the
// caller supplies the shape and capacity (from the trace, or serve's
// --kind/--q). Prints the reason and returns nullopt when a flag is
// malformed or the spec fails Validate().
std::optional<online::InstanceSpec> LoadInstanceSpec(const ArgParser& parser,
                                                     bool x2y,
                                                     InputSize capacity,
                                                     std::ostream& err) {
  online::InstanceSpec spec;
  spec.x2y = x2y;
  spec.capacity = capacity;
  spec.policy.name = parser.GetString("policy", "drift");
  const auto threshold = parser.GetDouble("replan-threshold", 1.5);
  const auto every_n = parser.GetUint("every-n", 64);
  const auto cooldown = parser.GetUint("cooldown", 0);
  const auto matching_gap = parser.GetUint("matching-gap", 0);
  const auto portfolio = parser.GetUint("portfolio", 0);
  const auto budget_bytes = parser.GetUint("churn-budget", 0);
  const auto budget_window = parser.GetUint("budget-window", 64);
  if (!threshold || !every_n || !cooldown || !matching_gap || !portfolio ||
      !budget_bytes || !budget_window) {
    err << "error: bad --replan-threshold/--every-n/--cooldown/"
           "--matching-gap/--portfolio/--churn-budget/--budget-window\n";
    return std::nullopt;
  }
  if (parser.Has("budget-window") && *budget_bytes == 0) {
    err << "error: --budget-window needs --churn-budget (without a budget "
           "there is no window to size)\n";
    return std::nullopt;
  }
  const std::string matching = parser.GetString("matching", "greedy");
  if (matching == "hungarian") {
    spec.matching = online::DeltaMatching::kHungarian;
  } else if (matching != "greedy") {
    err << "error: unknown --matching '" << matching
        << "' (greedy|hungarian)\n";
    return std::nullopt;
  }
  spec.policy.reducer_drift = *threshold;
  spec.policy.comm_drift = std::max(1.0, *threshold * 1.5);
  spec.policy.every_n = *every_n;
  spec.policy.cooldown = *cooldown;
  spec.measure_matching_gap = *matching_gap != 0;
  spec.use_portfolio = *portfolio != 0;
  spec.budget.bytes_per_window = *budget_bytes;
  spec.budget.window_updates = *budget_window;
  const std::string invalid = spec.Validate();
  if (!invalid.empty()) {
    err << "error: bad instance spec: " << invalid << "\n";
    return std::nullopt;
  }
  return spec;
}

// serve --listen stop flag, set by SIGINT/SIGTERM so a foreground
// server drains gracefully on Ctrl-C.
std::atomic<bool> g_serve_stop{false};
void ServeStopHandler(int) { g_serve_stop.store(true); }

// Latency/skip tallies of one CLI trace replay (possibly resumed
// mid-trace).
struct TraceReplayStats {
  uint64_t skipped = 0;
  std::vector<double> repair_us;  // per applied update, repair only
};

// Record key of the single-stream CLI changelog (`online --wal-out` /
// `restore --wal`). The serving layer keys records by instance; the
// CLI replays exactly one stream, so the key is a constant.
constexpr char kCliStreamKey[] = "stream";

// The one CLI replay loop: feeds trace.updates[begin, end) to the
// caller's own apply step (the durable stream, or the churn-budget
// wrapper), `apply(update, step, &repair_us)`, which sets `repair_us`
// when the event was applied now and returns false to stop the replay
// (its error already printed). Keeps each applied event's repair time
// (also recorded into `repair_latency`, the registry's
// online.repair_latency_us series, when non-null) and oracle-checks
// `assigner` every `validate_every` steps (0 disables). Returns false
// when a step fails or the oracle rejects an intermediate schema.
template <typename ApplyStep>
bool ReplayEvents(const online::UpdateTrace& trace, std::size_t begin,
                  std::size_t end, uint64_t validate_every,
                  const online::OnlineAssigner& assigner,
                  const ApplyStep& apply, obs::Histogram* repair_latency,
                  TraceReplayStats* stats, std::ostream& err) {
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t step = i + 1;
    std::optional<uint64_t> repair_us;
    if (!apply(trace.updates[i], step, &repair_us)) return false;
    if (repair_us.has_value()) {
      stats->repair_us.push_back(static_cast<double>(*repair_us));
      if (repair_latency != nullptr) repair_latency->Record(*repair_us);
    }
    if (validate_every != 0 && step % validate_every == 0) {
      std::string validate_error;
      if (!assigner.ValidateNow(&validate_error)) {
        err << "INVALID schema after step " << step << ": "
            << validate_error << "\n";
        return false;
      }
    }
  }
  return true;
}

// Replays trace.updates[cursor, end) through the durable stream step
// (trace ids translated through the stream's cursor, the policy every
// `batch` applied events, every record appended to `wal` when non-null
// before the next event runs), with the CLI's per-step warnings. A
// trailing partial window is checkpointed only when `final_checkpoint`
// is set (end of the whole trace, not a snapshot cut). Returns false
// when the oracle rejects a schema or the changelog cannot be written.
bool ReplayStream(const online::UpdateTrace& trace, std::size_t end,
                  std::size_t batch, uint64_t validate_every,
                  bool final_checkpoint, durability::Stream* stream,
                  durability::ChangelogWriter* wal,
                  obs::Histogram* repair_latency, TraceReplayStats* stats,
                  std::ostream& err) {
  std::string wal_error;
  const auto apply = [&](const online::Update& update, std::size_t step,
                         std::optional<uint64_t>* repair_us) {
    const durability::StepResult result = stream->Apply(update, batch, wal);
    if (result.kind == durability::RecordKind::kSkipped) {
      err << "warning: step " << step
          << " skipped: targets an unknown or rejected input\n";
    } else if (result.kind == durability::RecordKind::kRejected) {
      err << "warning: step " << step << " rejected: " << result.reason
          << "\n";
    } else {
      *repair_us = result.repair_us;
    }
    wal_error = result.log_error;
    return wal_error.empty();
  };
  const bool replayed =
      ReplayEvents(trace, stream->cursor().next_event, end, validate_every,
                   stream->assigner(), apply, repair_latency, stats, err) &&
      (!final_checkpoint || stream->Checkpoint(wal, &wal_error));
  stats->skipped = stream->skipped();
  if (!wal_error.empty()) {
    err << "error: changelog append failed: " << wal_error << "\n";
  }
  return replayed;
}

// Renders the replay / churn / quality tables shared by `online` and
// `restore`, plus the final validity line. Returns the exit code.
int PrintReplayReport(const online::OnlineAssigner& assigner,
                      const TraceReplayStats& stats, std::ostream& out,
                      std::ostream& err) {
  const online::OnlineTotals& totals = assigner.totals();
  TablePrinter replay("online replay (" +
                      assigner.config().policy_spec.name + ")");
  replay.SetHeader({"metric", "value"});
  replay.AddRow({"updates applied", TablePrinter::Fmt(totals.updates)});
  replay.AddRow({"updates rejected", TablePrinter::Fmt(totals.rejected)});
  if (stats.skipped > 0) {
    replay.AddRow(
        {"steps skipped (bad id)", TablePrinter::Fmt(stats.skipped)});
  }
  replay.AddRow({"local repairs", TablePrinter::Fmt(totals.repairs)});
  replay.AddRow({"full re-plans", TablePrinter::Fmt(totals.replans)});
  if (!stats.repair_us.empty()) {
    const SummaryStats latency = SummaryStats::Compute(stats.repair_us);
    replay.AddRow({"mean repair us", TablePrinter::Fmt(latency.mean())});
    replay.AddRow(
        {"p50 repair us", TablePrinter::Fmt(latency.Percentile(50.0))});
    replay.AddRow(
        {"p99 repair us", TablePrinter::Fmt(latency.Percentile(99.0))});
    replay.AddRow({"max repair us", TablePrinter::Fmt(latency.max())});
  }
  replay.Print(err);

  TablePrinter churn("churn");
  churn.SetHeader({"metric", "value"});
  churn.AddRow({"inputs moved", TablePrinter::Fmt(totals.churn.inputs_moved)});
  churn.AddRow(
      {"inputs dropped", TablePrinter::Fmt(totals.churn.inputs_dropped)});
  churn.AddRow({"bytes moved", TablePrinter::Fmt(totals.churn.bytes_moved)});
  churn.AddRow(
      {"reducers created", TablePrinter::Fmt(totals.churn.reducers_created)});
  churn.AddRow({"reducers destroyed",
                TablePrinter::Fmt(totals.churn.reducers_destroyed)});
  churn.Print(err);

  const online::QualitySnapshot quality = assigner.Quality();
  TablePrinter quality_table("final quality vs lower bounds");
  quality_table.SetHeader({"metric", "live", "lower bound", "ratio"});
  if (quality.bounds_available) {
    const auto ratio = [](uint64_t live, uint64_t lb) {
      return lb == 0 ? std::string("-")
                     : TablePrinter::Fmt(static_cast<double>(live) /
                                         static_cast<double>(lb));
    };
    quality_table.AddRow({"reducers",
                          TablePrinter::Fmt(quality.live_reducers),
                          TablePrinter::Fmt(quality.lb_reducers),
                          ratio(quality.live_reducers, quality.lb_reducers)});
    quality_table.AddRow(
        {"communication", TablePrinter::Fmt(quality.live_communication),
         TablePrinter::Fmt(quality.lb_communication),
         ratio(quality.live_communication, quality.lb_communication)});
  } else {
    quality_table.AddRow({"instance too small to bound", "-", "-", "-"});
  }
  quality_table.Print(err);

  std::string final_error;
  const bool final_valid = assigner.ValidateNow(&final_error);
  err << "final: inputs=" << assigner.num_inputs()
      << " capacity=" << assigner.capacity()
      << " reducers=" << assigner.Schema().num_reducers()
      << " valid=" << (final_valid ? "yes" : "NO") << "\n";
  if (!final_valid) {
    err << "INVALID final schema: " << final_error << "\n";
    return 1;
  }
  out << SchemaToText(assigner.Schema());
  return 0;
}

// The budgeted variant of the `online` replay: every event goes
// through a BudgetedAssigner so each window of --budget-window submits
// ships at most --churn-budget repair bytes (over-budget events defer
// FIFO and drain at window rollovers). The report proves the contract:
// the maximum observed window spend, sampled after every submit and
// every drain, against the configured budget. Exit 1 when the budget
// was exceeded (never expected — that would be a budget.h bug) or the
// final schema fails the oracle.
int ReplayTraceBudgeted(const online::UpdateTrace& trace,
                        const online::OnlineConfig& config,
                        const online::BudgetConfig& budget,
                        std::size_t batch, uint64_t validate_every,
                        obs::Histogram* repair_latency,
                        ObsSession& obs_session, std::ostream& out,
                        std::ostream& err) {
  online::BudgetedAssigner budgeted(config, budget);
  const std::size_t window = batch == 0 ? 1 : batch;
  uint64_t max_window_spend = 0;
  uint64_t applied_now = 0;
  const auto submit = [&](const online::Update& update, std::size_t,
                          std::optional<uint64_t>* repair_us) {
    Stopwatch watch;
    const online::SubmitOutcome outcome = budgeted.Submit(update);
    const uint64_t us = watch.ElapsedMicros();
    max_window_spend =
        std::max(max_window_spend, budgeted.window_spent_bytes());
    if (outcome == online::SubmitOutcome::kApplied) {
      ++applied_now;
      *repair_us = us;
      if (budgeted.assigner().pending_decision_updates() >= window) {
        budgeted.PolicyCheckpoint();
      }
    }
    return true;
  };
  TraceReplayStats stats;
  if (!ReplayEvents(trace, 0, trace.updates.size(), validate_every,
                    budgeted.assigner(), submit, repair_latency, &stats,
                    err)) {
    return 1;
  }
  // End of stream: refresh the window while the deferred queue makes
  // progress (a head that fits in no whole window stays pending).
  while (budgeted.deferred() > 0 && budgeted.CloseWindow() > 0) {
    max_window_spend =
        std::max(max_window_spend, budgeted.window_spent_bytes());
  }
  budgeted.PolicyCheckpoint();
  // Translation failures bump only the wrapper's rejected counter; the
  // assigner's own books carry the infeasible ones.
  stats.skipped =
      budgeted.rejected_total() - budgeted.assigner().totals().rejected;

  const bool respected = max_window_spend <= budget.bytes_per_window;
  TablePrinter table("churn budget");
  table.SetHeader({"metric", "value"});
  table.AddRow(
      {"bytes per window", TablePrinter::Fmt(budget.bytes_per_window)});
  table.AddRow(
      {"window updates", TablePrinter::Fmt(budget.window_updates)});
  table.AddRow(
      {"windows closed", TablePrinter::Fmt(budgeted.windows_closed())});
  table.AddRow({"applied at submit", TablePrinter::Fmt(applied_now)});
  table.AddRow(
      {"deferred total", TablePrinter::Fmt(budgeted.deferred_total())});
  table.AddRow({"still pending",
                TablePrinter::Fmt(
                    static_cast<uint64_t>(budgeted.deferred()))});
  table.AddRow(
      {"max window spend", TablePrinter::Fmt(max_window_spend)});
  table.Print(err);
  err << "budget: max window spend " << max_window_spend
      << (respected ? " <= " : " EXCEEDS ") << budget.bytes_per_window
      << " bytes per window\n";

  if (!obs_session.Finish(err)) return 2;
  const int code = PrintReplayReport(budgeted.assigner(), stats, out, err);
  return code == 0 && !respected ? 1 : code;
}

// online — replay an update trace through the OnlineAssigner and
// report churn, repair-vs-replan counts, and live quality against the
// lower bounds. Every intermediate schema is checked against the
// validate oracle every --validate-every updates (0 disables);
// --batch amortizes the policy over windows of updates. --wal-out
// appends every processed event to a changelog file (epoch 1) that
// `mspctl restore --wal` can replay past a snapshot cursor.
int CmdOnline(const ArgParser& parser, std::ostream& out, std::ostream& err) {
  const auto trace = LoadTrace(parser.GetString("trace"), err);
  if (!trace.has_value()) return 2;
  const auto spec = LoadInstanceSpec(parser, trace->x2y,
                                     trace->initial_capacity, err);
  if (!spec.has_value()) return 2;
  const auto validate_every = parser.GetUint("validate-every", 1);
  const auto batch = parser.GetUint("batch", 0);
  const auto fsync_every = parser.GetUint("fsync-every", 32);
  if (!validate_every || !batch || !fsync_every) {
    err << "error: bad --validate-every/--batch/--fsync-every\n";
    return 2;
  }

  ObsSession obs_session;
  obs_session.Init(parser);

  online::OnlineConfig config = spec->ToOnlineConfig();
  config.metrics = obs_session.registry();
  obs::Registry* registry = obs_session.registry();
  obs::Histogram* repair_latency =
      registry == nullptr ? nullptr
                          : registry->histogram("online.repair_latency_us");

  std::unique_ptr<durability::ChangelogWriter> wal;
  const std::string wal_out = parser.GetString("wal-out");
  if (spec->budget.bytes_per_window > 0) {
    if (!wal_out.empty()) {
      err << "error: --churn-budget is incompatible with --wal-out (the "
             "changelog records events at apply time in submit order, "
             "which budget deferral would reorder)\n";
      return 2;
    }
    return ReplayTraceBudgeted(*trace, config, spec->budget,
                               static_cast<std::size_t>(*batch),
                               *validate_every, repair_latency, obs_session,
                               out, err);
  }
  if (!wal_out.empty()) {
    durability::ChangelogWriterOptions wal_options;
    wal_options.fsync_every_n = *fsync_every;
    wal_options.metrics = obs_session.registry();
    std::string wal_error;
    wal = durability::ChangelogWriter::Create(RealFileSystem::Default(),
                                              wal_out, /*epoch=*/1,
                                              wal_options, &wal_error);
    if (wal == nullptr) {
      err << "error: " << wal_error << "\n";
      return 2;
    }
  }

  durability::Stream stream(kCliStreamKey, config, /*translate=*/true);
  // The stream header record: replaying this log from scratch must
  // rebuild the same assigner configuration.
  std::string wal_error;
  if (!stream.Create(wal.get(), &wal_error)) {
    err << "error: " << wal_error << "\n";
    return 2;
  }
  TraceReplayStats stats;
  if (!ReplayStream(*trace, trace->updates.size(),
                    static_cast<std::size_t>(*batch), *validate_every,
                    /*final_checkpoint=*/true, &stream, wal.get(),
                    repair_latency, &stats, err)) {
    return 1;
  }
  if (wal != nullptr) {
    if (!wal->Sync(&wal_error)) {
      err << "error: changelog fsync failed: " << wal_error << "\n";
      return 1;
    }
    err << "wal: " << wal_out << " records=" << wal->appended_records()
        << " bytes=" << wal->bytes_appended()
        << " fsyncs=" << wal->fsyncs() << "\n";
  }
  if (!obs_session.Finish(err)) return 2;
  return PrintReplayReport(stream.assigner(), stats, out, err);
}

// Oracle-checks every instance of a quiescent `service`, printing one
// `instance=... valid=yes|NO` line per instance to `out` and the
// reason for each invalid one to `err`. Returns whether all are valid.
bool ReportInstances(const serving::ServingService& service,
                     std::ostream& out, std::ostream& err) {
  bool all_valid = true;
  service.ForEachInstance([&](const std::string& key,
                              const online::OnlineAssigner& assigner) {
    std::string error;
    const bool valid = assigner.ValidateNow(&error);
    all_valid = all_valid && valid;
    out << "instance=" << key << " shard=" << service.ShardOf(key)
        << " inputs=" << assigner.num_inputs()
        << " reducers=" << assigner.Schema().num_reducers()
        << " valid=" << (valid ? "yes" : "NO") << "\n";
    if (!valid) err << "INVALID instance '" << key << "': " << error << "\n";
  });
  return all_valid;
}

// serve — the sharded serving layer end to end: generate one update
// trace per instance (seeds seed, seed+1, ...), route them by instance
// key across --shards worker threads sharing one planner, replay
// everything, oracle-check every final schema, and print the per-shard
// latency/churn tables.
int CmdServe(const ArgParser& parser, std::ostream& out, std::ostream& err) {
  const std::string kind = parser.GetString("kind", "a2a");
  if (kind != "a2a" && kind != "x2y") {
    err << "error: --kind must be a2a or x2y\n";
    return 2;
  }
  wl::TraceConfig trace_config;
  trace_config.x2y = kind == "x2y";
  const auto instances = parser.GetUint("instances", 4);
  const auto shards = parser.GetUint("shards", 4);
  const auto initial = parser.GetUint("initial", trace_config.initial_inputs);
  const auto steps = parser.GetUint("steps", trace_config.steps);
  const auto q = parser.GetUint("q", trace_config.capacity);
  const auto lo = parser.GetUint("lo", trace_config.lo);
  const auto hi = parser.GetUint("hi", trace_config.hi);
  const auto skew = parser.GetDouble("skew", trace_config.skew);
  const auto seed = parser.GetUint("seed", trace_config.seed);
  const auto batch = parser.GetUint("batch", 0);
  const auto fsync_every = parser.GetUint("fsync-every", 32);
  const auto rotate_every = parser.GetUint("rotate-every", 0);
  const auto stats_every = parser.GetUint("stats-every", 0);
  const auto watchdog_ms = parser.GetUint("watchdog-ms", 0);
  const std::string watchdog_dump = parser.GetString("watchdog-dump");
  if (!stats_every) {
    err << "error: bad --stats-every\n";
    return 2;
  }
  if (*stats_every != 0 && parser.GetString("metrics-out").empty()) {
    err << "error: --stats-every requires --metrics-out=FILE\n";
    return 2;
  }
  if (!watchdog_ms) {
    err << "error: bad --watchdog-ms\n";
    return 2;
  }
  if (!watchdog_dump.empty() && *watchdog_ms == 0) {
    err << "error: --watchdog-dump requires --watchdog-ms=N\n";
    return 2;
  }
  if (!instances || !shards || !initial || !steps || !q || !lo || !hi ||
      !skew || !seed || !batch || !fsync_every || !rotate_every ||
      *instances == 0 ||
      *instances > 4096 || *shards == 0 || *shards > 256 || *q < 2 ||
      *lo == 0 || *lo > *hi || *lo > *q / 2 || *skew < 0.0 ||
      *initial > kMaxTraceEvents || *steps > kMaxTraceEvents ||
      *q > online::kMaxCapacity) {
    err << "error: bad serve options (need 1<=instances<=4096, "
           "1<=shards<=256, 2<=q<=10^18, 0<lo<=hi, q>=2*lo, skew>=0, "
           "initial/steps <= 10^7)\n";
    return 2;
  }
  const auto spec = LoadInstanceSpec(parser, trace_config.x2y, *q, err);
  if (!spec.has_value()) return 2;

  ObsSession obs_session;
  obs_session.Init(parser);

  serving::ServingConfig serving_config;
  serving_config.num_shards = static_cast<std::size_t>(*shards);
  serving_config.metrics = obs_session.registry();
  serving_config.default_budget = spec->budget;
  serving::ServingService service(serving_config);

  // The periodic dumper starts before WAL attach so even a run that
  // fails during setup leaves a final metrics snapshot behind (Stop()
  // dumps once after joining, on every exit path via the destructor).
  std::optional<PeriodicMetricsDumper> dumper;
  if (*stats_every != 0) dumper.emplace(obs_session, *stats_every, err);

  // Stall watchdog over the per-shard worker heartbeats; also hooked
  // to fatal signals so a crash leaves the same post-mortem dump.
  std::optional<obs::Watchdog> watchdog;
  if (*watchdog_ms != 0) {
    obs::WatchdogOptions wd_options;
    wd_options.stall_ms = *watchdog_ms;
    wd_options.dump_path = watchdog_dump;
    wd_options.metrics = obs_session.registry();
    std::vector<obs::WatchdogSource> wd_sources;
    for (std::size_t i = 0; i < service.num_shards(); ++i) {
      const serving::ShardHeartbeat& hb = service.shard_heartbeat(i);
      wd_sources.push_back(
          {"shard-" + std::to_string(i), [&hb] {
             obs::WatchdogReading reading;
             reading.last_progress_us =
                 hb.last_progress_us.load(std::memory_order_relaxed);
             reading.last_ordinal =
                 hb.last_ordinal.load(std::memory_order_relaxed);
             reading.queue_depth =
                 hb.queue_depth.load(std::memory_order_relaxed);
             reading.busy = hb.busy.load(std::memory_order_relaxed);
             return reading;
           }});
    }
    watchdog.emplace(std::move(wd_options), std::move(wd_sources));
    watchdog->Start();
    obs::Watchdog::InstallSignalDump(&*watchdog);
  }

  const std::string wal_dir = parser.GetString("wal-dir");
  if (!wal_dir.empty()) {
    durability::WalOptions wal_options;
    wal_options.dir = wal_dir;
    wal_options.fsync_every_n = *fsync_every;
    wal_options.rotate_every = *rotate_every;
    std::string wal_error;
    if (!service.AttachWal(wal_options, &wal_error)) {
      err << "error: cannot attach changelog: " << wal_error << "\n";
      return 2;
    }
  }

  // --listen switches serve from replay mode to network mode: no
  // traces are generated; the RPC front door accepts remote
  // CreateInstance/Submit/Query/Stats until --serve-ms elapses (0 =
  // until SIGINT/SIGTERM), then drains and prints the usual tables.
  if (parser.Has("listen")) {
    const auto listen = parser.GetUint("listen", 0);
    const auto serve_ms = parser.GetUint("serve-ms", 0);
    const auto max_depth = parser.GetUint("max-depth", 256);
    if (!listen || !serve_ms || !max_depth || *listen > 65535 ||
        *max_depth == 0) {
      err << "error: bad --listen/--serve-ms/--max-depth "
             "(listen <= 65535, max-depth > 0)\n";
      return 2;
    }
    rpc::RpcServerOptions rpc_options;
    rpc_options.service = &service;
    rpc_options.port = static_cast<uint16_t>(*listen);
    rpc_options.max_mailbox_depth = *max_depth;
    rpc_options.metrics = obs_session.registry();
    rpc::RpcServer server(rpc_options);
    std::string rpc_error;
    if (!server.Start(&rpc_error)) {
      err << "error: cannot start rpc server: " << rpc_error << "\n";
      return 2;
    }
    out << "rpc: listening on 127.0.0.1:" << server.port() << "\n"
        << std::flush;

    g_serve_stop.store(false);
    std::signal(SIGINT, ServeStopHandler);
    std::signal(SIGTERM, ServeStopHandler);
    Stopwatch uptime;
    while (!g_serve_stop.load(std::memory_order_relaxed) &&
           (*serve_ms == 0 ||
            uptime.ElapsedSeconds() * 1000.0 <
                static_cast<double>(*serve_ms))) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);

    server.Shutdown();
    service.CheckpointAll();
    service.Flush();
    if (watchdog.has_value()) {
      obs::Watchdog::InstallSignalDump(nullptr);
      watchdog->Stop();
    }
    if (dumper.has_value()) dumper->Stop();

    const rpc::RpcServerCounters rpc_counters = server.counters();
    err << "rpc: connections=" << rpc_counters.connections_opened
        << " requests=" << rpc_counters.requests
        << " responses=" << rpc_counters.responses
        << " overloaded=" << rpc_counters.overloaded
        << " errors=" << rpc_counters.errors
        << " frame-errors=" << rpc_counters.frame_errors << "\n";
    service.PrintStats(err);
    if (parser.Has("stats")) service.planner().PrintStats(err);

    const bool all_valid = ReportInstances(service, out, err);
    if (!obs_session.Finish(err)) return 2;
    return all_valid ? 0 : 1;
  }

  trace_config.initial_inputs = static_cast<std::size_t>(*initial);
  trace_config.steps = static_cast<std::size_t>(*steps);
  trace_config.capacity = *q;
  trace_config.lo = *lo;
  trace_config.hi = *hi;
  trace_config.skew = *skew;

  // Generate all traces up front: the throughput figure below must
  // time the serving layer, not the single-threaded generator.
  std::vector<online::UpdateTrace> traces;
  uint64_t total_events = 0;
  for (uint64_t i = 0; i < *instances; ++i) {
    trace_config.seed = *seed + i;
    traces.push_back(wl::GenerateTrace(trace_config));
    total_events += traces.back().updates.size();
  }

  Stopwatch wall;
  for (uint64_t i = 0; i < *instances; ++i) {
    const std::string key = "trace-" + std::to_string(i);
    online::OnlineConfig config = spec->ToOnlineConfig();
    config.capacity = traces[i].initial_capacity;
    const std::string refused =
        service.CreateInstance(key, config, /*translate_trace_ids=*/true);
    if (!refused.empty()) {
      err << "error: cannot create " << key << ": " << refused << "\n";
      return 2;
    }
    service.SubmitBatch(key, std::move(traces[i].updates),
                        static_cast<std::size_t>(*batch));
  }
  // Streams are complete: flush the trailing partial batch windows so
  // the final schemas match what `mspctl online --batch` reports.
  service.CheckpointAll();
  service.Flush();
  const double seconds = wall.ElapsedSeconds();
  if (watchdog.has_value()) {
    obs::Watchdog::InstallSignalDump(nullptr);
    watchdog->Stop();
    if (watchdog->stall_count() > 0) {
      err << "watchdog: " << watchdog->stall_count()
          << " stall episode(s) detected\n";
    }
  }
  if (dumper.has_value()) {
    dumper->Stop();
    err << "stats: " << dumper->dumps() << " periodic metrics dump(s)\n";
  }

  service.PrintStats(err);
  err << "throughput: " << TablePrinter::Fmt(
             seconds > 0.0 ? static_cast<double>(total_events) / seconds
                           : 0.0,
             0)
      << " updates/s over " << *shards << " shard(s)\n";
  if (parser.Has("stats")) service.planner().PrintStats(err);

  const bool all_valid = ReportInstances(service, out, err);
  if (!obs_session.Finish(err)) return 2;
  return all_valid ? 0 : 1;
}

// snapshot — replay the first --steps events of a trace, then write a
// checksummed binary snapshot (live state + config + replay cursor) so
// `mspctl restore` can continue without replaying the prefix. --epoch
// stamps the snapshot for pairing with a changelog written by
// `online --wal-out` (epoch 1); a mismatched pair makes `restore
// --wal` fail with a stale-changelog error.
int CmdSnapshot(const ArgParser& parser, std::ostream& out,
                std::ostream& err) {
  const auto trace = LoadTrace(parser.GetString("trace"), err);
  if (!trace.has_value()) return 2;
  const std::string out_path = parser.GetString("out");
  if (out_path.empty()) {
    err << "error: --out=<file> is required\n";
    return 2;
  }
  const auto spec = LoadInstanceSpec(parser, trace->x2y,
                                     trace->initial_capacity, err);
  if (!spec.has_value()) return 2;
  if (spec->budget.bytes_per_window > 0) {
    err << "error: --churn-budget cannot be snapshotted (the budget's "
           "deferral queue is not part of the snapshot)\n";
    return 2;
  }
  const auto steps = parser.GetUint("steps", trace->updates.size());
  const auto batch = parser.GetUint("batch", 0);
  const auto epoch = parser.GetUint("epoch", 0);
  if (!steps || !batch || !epoch || *steps > trace->updates.size()) {
    err << "error: bad --steps/--batch/--epoch (steps <= trace length "
        << trace->updates.size() << ")\n";
    return 2;
  }

  durability::Stream stream(kCliStreamKey, spec->ToOnlineConfig(),
                            /*translate=*/true);
  TraceReplayStats stats;
  if (!ReplayStream(*trace, static_cast<std::size_t>(*steps),
                    static_cast<std::size_t>(*batch), /*validate_every=*/0,
                    /*final_checkpoint=*/false, &stream, /*wal=*/nullptr,
                    /*repair_latency=*/nullptr, &stats, err)) {
    return 1;
  }
  const online::OnlineAssigner& assigner = stream.assigner();
  std::string validate_error;
  if (!assigner.ValidateNow(&validate_error)) {
    err << "INVALID schema at the snapshot point: " << validate_error
        << "\n";
    return 1;
  }
  std::string io_error;
  if (!WriteSnapshotFile(out_path, assigner, stream.cursor(), &io_error,
                         *epoch)) {
    err << "error: " << io_error << "\n";
    return 2;
  }
  out << "snapshot=" << out_path << " events=" << stream.cursor().next_event
      << " inputs=" << assigner.num_inputs()
      << " reducers=" << assigner.Schema().num_reducers() << "\n";
  return 0;
}

// restore — load a snapshot and (optionally) continue replaying the
// trace it was cut from, producing the same report `online` prints.
// --wal replays a changelog written by `online --wal-out` past the
// snapshot cursor first — after checking that the snapshot actually
// pairs with the changelog (same epoch in both headers; a snapshot
// stamped newer than its changelog means the log tail was lost).
int CmdRestore(const ArgParser& parser, std::ostream& out,
               std::ostream& err) {
  const std::string snapshot_path = parser.GetString("snapshot");
  if (snapshot_path.empty()) {
    err << "error: --snapshot=<file> is required\n";
    return 2;
  }
  std::string restore_error;
  auto restored = online::ReadSnapshotFile(snapshot_path, &restore_error);
  if (!restored.has_value()) {
    err << "error: " << restore_error << "\n";
    return 2;
  }
  const uint64_t resumed_at = restored->cursor.next_event;
  const uint64_t snapshot_epoch = restored->epoch;
  // A one-stream map, so a changelog can re-create the stream exactly
  // like recovery would.
  std::map<std::string, durability::Stream> streams;
  streams.emplace(kCliStreamKey,
                  durability::Stream(kCliStreamKey, std::move(*restored),
                                     /*translate=*/true));

  const std::string wal_path = parser.GetString("wal");
  if (!wal_path.empty()) {
    std::string bytes;
    std::string io_error;
    if (!RealFileSystem::Default()->ReadFileToString(wal_path, &bytes,
                                                     &io_error)) {
      err << "error: " << io_error << "\n";
      return 2;
    }
    std::string parse_error;
    const auto log = durability::ReadChangelog(bytes, &parse_error);
    if (!log.has_value()) {
      err << "error: " << wal_path << ": " << parse_error << "\n";
      return 2;
    }
    if (log->epoch != snapshot_epoch) {
      err << "error: stale changelog: snapshot " << snapshot_path
          << " (epoch " << snapshot_epoch
          << ") does not pair with changelog " << wal_path << " (epoch "
          << log->epoch << ")\n";
      return 2;
    }
    if (!log->clean) {
      err << "warning: changelog tail torn after " << log->records.size()
          << " record(s): " << log->tail_error << "\n";
    }
    durability::ReplayStats replayed;
    std::string replay_error;
    if (!durability::ReplayRecords(log->records, &streams, nullptr,
                                   &replayed, &replay_error)) {
      err << "error: " << replay_error << "\n";
      return 1;
    }
    err << "wal: " << wal_path << " replayed="
        << replayed.applied + replayed.rejected + replayed.skipped
        << " stale=" << replayed.stale
        << " checkpoints=" << replayed.checkpoints << "\n";
  }
  durability::Stream& stream = streams.at(kCliStreamKey);
  TraceReplayStats stats;
  stats.skipped = stream.skipped();
  const std::string trace_path = parser.GetString("trace");
  if (!trace_path.empty()) {
    const auto trace = LoadTrace(trace_path, err);
    if (!trace.has_value()) return 2;
    const auto validate_every = parser.GetUint("validate-every", 1);
    const auto batch = parser.GetUint("batch", 0);
    if (!validate_every || !batch) {
      err << "error: bad --validate-every/--batch\n";
      return 2;
    }
    if (trace->x2y != stream.assigner().config().x2y ||
        stream.cursor().next_event > trace->updates.size()) {
      err << "error: snapshot does not belong to this trace (shape or "
             "length mismatch)\n";
      return 2;
    }
    if (!ReplayStream(*trace, trace->updates.size(),
                      static_cast<std::size_t>(*batch), *validate_every,
                      /*final_checkpoint=*/true, &stream, /*wal=*/nullptr,
                      /*repair_latency=*/nullptr, &stats, err)) {
      return 1;
    }
  }
  err << "restored: " << snapshot_path << " resumed-at=" << resumed_at
      << " replayed-to=" << stream.cursor().next_event << "\n";
  return PrintReplayReport(stream.assigner(), stats, out, err);
}

// recover — rebuild a serving service from a --wal-dir written by
// `mspctl serve`: the MANIFEST pins the shard count, every shard
// crash-recovers from its newest valid snapshot image + changelog
// replay, every recovered instance is oracle-checked, and the
// per-shard durability tables (with the recovery counters) print to
// stderr. Exit 1 when recovery or validation fails.
int CmdRecover(const ArgParser& parser, std::ostream& out,
               std::ostream& err) {
  const std::string wal_dir = parser.GetString("wal-dir");
  if (wal_dir.empty()) {
    err << "error: --wal-dir=<dir> is required\n";
    return 2;
  }
  std::size_t num_shards = 0;
  std::string error;
  if (!durability::ReadManifest(RealFileSystem::Default(), wal_dir,
                                &num_shards, &error)) {
    err << "error: " << error << "\n";
    return 2;
  }
  ObsSession obs_session;
  obs_session.Init(parser);
  serving::ServingConfig serving_config;
  serving_config.num_shards = num_shards;
  serving_config.metrics = obs_session.registry();
  serving::ServingService service(serving_config);
  durability::WalOptions wal_options;
  wal_options.dir = wal_dir;
  wal_options.recover = true;
  if (!service.AttachWal(wal_options, &error)) {
    err << "error: recovery failed: " << error << "\n";
    return 1;
  }
  service.Flush();
  service.PrintStats(err);
  const bool all_valid = ReportInstances(service, out, err);
  err << "recovered: shards=" << num_shards
      << " instances=" << service.stats().total.instances
      << " valid=" << (all_valid ? "yes" : "NO") << "\n";
  if (!obs_session.Finish(err)) return 2;
  return all_valid ? 0 : 1;
}

// simulate — execute an update trace on the cluster simulator: every
// update's re-shuffle plan runs as a real MapReduce job (src/sim), and
// the engine-measured bytes/records are reconciled exactly against the
// assigner's predicted churn, per step and cumulatively. Per-step rows
// go to stdout (capped at --max-rows; mismatched steps always print)
// and, completely, to --csv; the reconciliation tables go to stderr.
// Exit 1 when any step fails to reconcile or a check fails.
int CmdSimulate(const ArgParser& parser, std::ostream& out,
                std::ostream& err) {
  const auto trace = LoadTrace(parser.GetString("trace"), err);
  if (!trace.has_value()) return 2;
  const auto spec = LoadInstanceSpec(parser, trace->x2y,
                                     trace->initial_capacity, err);
  if (!spec.has_value()) return 2;
  if (spec->budget.bytes_per_window > 0) {
    err << "error: simulate does not support --churn-budget (it executes "
           "every update as it arrives)\n";
    return 2;
  }
  const auto shards = parser.GetUint("shards", 1);
  const auto batch = parser.GetUint("batch", 0);
  const auto oracle_every = parser.GetUint("oracle-every", 25);
  const auto max_rows = parser.GetUint("max-rows", 20);
  if (!shards || !batch || !oracle_every || !max_rows || *shards == 0 ||
      *shards > 256) {
    err << "error: bad --shards/--batch/--oracle-every/--max-rows "
           "(need 1 <= shards <= 256)\n";
    return 2;
  }

  ObsSession obs_session;
  obs_session.Init(parser);

  sim::SimConfig config;
  config.online = spec->ToOnlineConfig();
  config.shards = static_cast<std::size_t>(*shards);
  config.batch = static_cast<std::size_t>(*batch);
  config.oracle_every = *oracle_every;
  config.metrics = obs_session.registry();

  // Open the CSV before the (potentially long) simulation runs, so a
  // bad path fails fast instead of discarding the finished run.
  const std::string csv_path = parser.GetString("csv");
  std::optional<CsvWriter> csv;
  if (!csv_path.empty()) {
    csv.emplace(csv_path);
    if (!csv->ok()) {
      err << "error: cannot open " << csv_path << " for writing\n";
      return 2;
    }
  }

  sim::ClusterSimulator simulator(config);
  simulator.ReplayTrace(*trace);
  const sim::SimReport& report = simulator.report();

  if (csv.has_value()) {
    csv->WriteRow(sim::ClusterSimulator::CsvHeader());
    for (const sim::StepRecord& step : report.steps) {
      csv->WriteRow(sim::ClusterSimulator::CsvRow(step));
    }
  }

  // Per-step table: the first --max-rows steps that moved data, plus
  // every step that failed to reconcile.
  TablePrinter steps_table("simulated steps (moved data or failed)");
  steps_table.SetHeader({"step", "kind", "pred B", "exec B", "moves",
                         "drops", "z", "max load", "ok"});
  uint64_t printed = 0;
  uint64_t suppressed = 0;
  for (const sim::StepRecord& step : report.steps) {
    const bool moved = step.predicted_moved_bytes > 0 ||
                       step.executed_shipped_bytes > 0 ||
                       step.predicted_dropped_inputs > 0;
    const bool failed = !step.reconciled || !step.placement_ok;
    if (!moved && !failed) continue;
    if (printed >= *max_rows && !failed) {
      ++suppressed;
      continue;
    }
    ++printed;
    steps_table.AddRow(
        {TablePrinter::Fmt(step.step),
         sim::ClusterSimulator::CsvRow(step)[1],  // kind/checkpoint label
         TablePrinter::Fmt(step.predicted_moved_bytes),
         TablePrinter::Fmt(step.executed_shipped_bytes),
         TablePrinter::Fmt(step.predicted_moved_inputs),
         TablePrinter::Fmt(step.predicted_dropped_inputs),
         TablePrinter::Fmt(step.live_reducers),
         TablePrinter::Fmt(step.max_reducer_load),
         failed ? "NO" : "yes"});
  }
  steps_table.Print(out);
  if (suppressed > 0) {
    out << "(" << suppressed << " more steps "
        << (csv.has_value() ? "in " + csv_path
                            : std::string("suppressed; pass --csv=FILE "
                                          "for all rows"))
        << ")\n";
  }

  const online::OnlineTotals& totals = simulator.assigner().totals();
  TablePrinter recon("predicted vs executed reconciliation (" +
                     spec->policy.name + ")");
  recon.SetHeader({"metric", "predicted", "executed", "match"});
  const auto match = [](uint64_t a, uint64_t b) {
    return a == b ? std::string("yes") : std::string("NO");
  };
  recon.AddRow({"re-shuffled bytes", TablePrinter::Fmt(report.predicted_bytes),
                TablePrinter::Fmt(report.executed_bytes),
                match(report.predicted_bytes, report.executed_bytes)});
  recon.AddRow({"copies shipped", TablePrinter::Fmt(report.predicted_inputs),
                TablePrinter::Fmt(report.executed_records),
                match(report.predicted_inputs, report.executed_records)});
  recon.AddRow({"copies dropped", TablePrinter::Fmt(report.predicted_drops),
                TablePrinter::Fmt(report.executed_drops),
                match(report.predicted_drops, report.executed_drops)});
  recon.Print(err);

  TablePrinter summary("cluster simulation");
  summary.SetHeader({"metric", "value"});
  summary.AddRow({"steps", TablePrinter::Fmt(report.steps.size())});
  summary.AddRow({"updates applied", TablePrinter::Fmt(totals.updates)});
  summary.AddRow({"updates rejected", TablePrinter::Fmt(report.rejected)});
  if (report.skipped > 0) {
    summary.AddRow(
        {"steps skipped (bad id)", TablePrinter::Fmt(report.skipped)});
  }
  summary.AddRow({"full re-plans", TablePrinter::Fmt(totals.replans)});
  summary.AddRow(
      {"re-shuffle engine jobs", TablePrinter::Fmt(report.reshuffle_jobs)});
  summary.AddRow({"engine oracle checks",
                  TablePrinter::Fmt(report.oracle_checks)});
  summary.AddRow({"mismatched steps",
                  TablePrinter::Fmt(report.mismatched_steps)});
  summary.AddRow({"placement failures",
                  TablePrinter::Fmt(report.placement_failures)});
  summary.AddRow(
      {"oracle failures", TablePrinter::Fmt(report.oracle_failures)});
  summary.Print(err);
  if (!report.first_error.empty()) {
    err << "first error: " << report.first_error << "\n";
  }

  std::string validate_error;
  const bool valid = simulator.assigner().ValidateNow(&validate_error);
  err << "final: inputs=" << simulator.assigner().num_inputs()
      << " capacity=" << simulator.assigner().capacity()
      << " reducers=" << simulator.assigner().Schema().num_reducers()
      << " reconciled=" << (report.ok() ? "yes" : "NO")
      << " valid=" << (valid ? "yes" : "NO") << "\n";
  if (!valid) err << "INVALID final schema: " << validate_error << "\n";
  if (!obs_session.Finish(err)) return 2;
  return report.ok() && valid ? 0 : 1;
}

}  // namespace

void PrintUsage(std::ostream& out) {
  out << "mspctl — mapping schema toolbox "
         "(Afrati et al., EDBT 2015 reproduction)\n"
         "\n"
         "usage: mspctl <command> [options]\n"
         "\n"
         "commands:\n"
         "  gen        --m=N --dist=uniform|zipf|equal|normal --lo=L --hi=H\n"
         "             [--skew=S] [--seed=K]        write sizes to stdout\n"
         "  bounds     --sizes=FILE --q=Q           print lower bounds\n"
         "  solve-a2a  --sizes=FILE --q=Q [--algorithm=NAME]\n"
         "             write schema to stdout, stats to stderr\n"
         "  solve-x2y  --x-sizes=FILE --y-sizes=FILE --q=Q\n"
         "  validate   --sizes=FILE --q=Q --schema=FILE\n"
         "  improve    --sizes=FILE --q=Q --schema=FILE\n"
         "  plan       --sizes=FILE --q=Q   (or --x-sizes/--y-sizes)\n"
         "             [--portfolio=0|1] [--cache-shards=N]\n"
         "             [--budget-ms=MS] [--repeat=N] [--stats]\n"
         "             [--metrics-out=FILE] [--trace-out=FILE]\n"
         "             [--profile-out=FILE]\n"
         "             planning service: canonicalize, cache, portfolio\n"
         "  gen-trace  --kind=a2a|x2y [--initial=M] [--steps=N] [--q=Q]\n"
         "             [--shape=mixed|flash-crowd|capacity-oscillation]\n"
         "             [--lo=L] [--hi=H] [--skew=S] [--seed=K]\n"
         "             [--p-add=P] [--p-remove=P] [--p-resize=P]\n"
         "             write an update trace to stdout\n"
         "  online     --trace=FILE [SPEC] [--validate-every=N] [--batch=B]\n"
         "             [--wal-out=FILE] [--fsync-every=N]\n"
         "             [--metrics-out=FILE]\n"
         "             [--trace-out=FILE] [--profile-out=FILE]\n"
         "             replay a trace through the online assigner\n"
         "  serve      [--kind=a2a|x2y] [--instances=N] [--shards=N]\n"
         "             [--initial=M] [--steps=N] [--q=Q] [--lo=L] [--hi=H]\n"
         "             [--skew=S] [--seed=K] [--batch=B] [--stats] [SPEC]\n"
         "             [--wal-dir=DIR] [--fsync-every=N] [--rotate-every=N]\n"
         "             [--metrics-out=FILE] [--trace-out=FILE]\n"
         "             [--profile-out=FILE]\n"
         "             [--stats-every=MS]  (periodic metrics re-dumps)\n"
         "             [--watchdog-ms=N] [--watchdog-dump=FILE]\n"
         "             replay one trace per instance across serving shards\n"
         "             --listen=PORT serves the RPC front door instead\n"
         "             (0 = ephemeral; prints the bound port), with\n"
         "             [--serve-ms=MS] (0 = until SIGINT/SIGTERM) and\n"
         "             [--max-depth=N] mailbox admission threshold\n"
         "  recover    --wal-dir=DIR [--metrics-out=FILE] "
         "[--trace-out=FILE]\n"
         "             crash-recover a serve run from its changelogs\n"
         "  snapshot   --trace=FILE --out=FILE [--steps=K] [--batch=B]\n"
         "             [SPEC] [--epoch=E]\n"
         "             replay a trace prefix and write a binary snapshot\n"
         "  restore    --snapshot=FILE [--trace=FILE] [--validate-every=N]\n"
         "             [--batch=B] [--wal=FILE]\n"
         "             restore a snapshot and continue the replay\n"
         "  simulate   --trace=FILE [SPEC] [--shards=N] [--batch=B]\n"
         "             [--csv=FILE] [--oracle-every=N] [--max-rows=N]\n"
         "             [--metrics-out=FILE]\n"
         "             [--trace-out=FILE] [--profile-out=FILE]\n"
         "             execute a trace on the MapReduce engine and\n"
         "             reconcile predicted vs re-shuffled bytes\n"
         "\n"
         "SPEC, the instance spec flags (the trace, or serve's --kind/--q,\n"
         "  gives the shape and capacity):\n"
         "  [--policy=drift|never|always|every-n] [--replan-threshold=R]\n"
         "  [--every-n=N] [--cooldown=N] [--portfolio=0|1]\n"
         "  [--matching=greedy|hungarian] [--matching-gap=0|1]\n"
         "  (measure the greedy-vs-exact deploy gap; feeds the drift\n"
         "  policy) [--churn-budget=BYTES] [--budget-window=N] (cap\n"
         "  repair bytes shipped per window of N events; over-budget\n"
         "  events defer FIFO). A command that cannot honour a field\n"
         "  refuses it: a churn budget with --wal-out/--wal-dir, in a\n"
         "  snapshot, or in simulate exits 2, and so does\n"
         "  --budget-window without --churn-budget.\n"
         "\n"
         "observability: --metrics-out dumps every registry series at\n"
         "  exit (Prometheus text, or CSV when FILE ends in .csv);\n"
         "  --trace-out writes a Chrome trace-event JSON of the run's\n"
         "  spans (load in Perfetto / chrome://tracing);\n"
         "  --profile-out aggregates the same spans into a collapsed-\n"
         "  stack profile (flamegraph.pl / speedscope) and prints the\n"
         "  top spans by exclusive time to stderr;\n"
         "  serve --watchdog-ms=N flags shards stalled >N ms and\n"
         "  --watchdog-dump=FILE writes a post-mortem JSON (flight-\n"
         "  recorder rings, heartbeats, metrics) on stall or crash\n"
         "\n"
         "a2a algorithms: auto single-reducer naive-all-pairs "
         "equal-grouping\n"
         "  binpack-pairing binpack-triples big-small greedy-cover\n";
}

namespace {

// Dispatch table with each command's accepted --options. Misspelled
// flags silently falling back to defaults would produce wrong
// experiment data with no hint, so every command is strict.
struct CommandSpec {
  const char* name;
  int (*run)(const ArgParser&, std::ostream&, std::ostream&);
  std::vector<std::string> flags;
};

// `flags` plus the instance-spec flags LoadInstanceSpec reads.
std::vector<std::string> WithSpecFlags(std::vector<std::string> flags) {
  for (const char* name :
       {"policy", "replan-threshold", "every-n", "cooldown", "matching",
        "matching-gap", "portfolio", "churn-budget", "budget-window"}) {
    flags.push_back(name);
  }
  return flags;
}

const std::vector<CommandSpec>& Commands() {
  static const std::vector<CommandSpec> kCommands = {
      {"gen", CmdGen, {"m", "lo", "hi", "seed", "skew", "dist"}},
      {"bounds", CmdBounds, {"sizes", "q"}},
      {"solve-a2a", CmdSolveA2A, {"sizes", "q", "algorithm"}},
      {"solve-x2y", CmdSolveX2Y, {"x-sizes", "y-sizes", "q"}},
      {"validate", CmdValidate, {"sizes", "q", "schema"}},
      {"improve", CmdImprove, {"sizes", "q", "schema"}},
      {"plan", CmdPlan,
       {"sizes", "x-sizes", "y-sizes", "q", "cache-shards", "portfolio",
        "budget-ms", "repeat", "stats", "metrics-out", "trace-out",
        "profile-out"}},
      {"gen-trace", CmdGenTrace,
       {"kind", "shape", "initial", "steps", "q", "lo", "hi", "skew",
        "seed", "p-add", "p-remove", "p-resize"}},
      {"online", CmdOnline,
       WithSpecFlags({"trace", "validate-every", "batch", "wal-out",
                      "fsync-every", "metrics-out", "trace-out",
                      "profile-out"})},
      {"serve", CmdServe,
       WithSpecFlags({"kind", "instances", "shards", "initial", "steps",
                      "q", "lo", "hi", "skew", "seed", "batch", "stats",
                      "wal-dir", "fsync-every", "rotate-every", "listen",
                      "serve-ms", "max-depth", "metrics-out", "trace-out",
                      "profile-out", "stats-every", "watchdog-ms",
                      "watchdog-dump"})},
      {"recover", CmdRecover, {"wal-dir", "metrics-out", "trace-out"}},
      {"snapshot", CmdSnapshot,
       WithSpecFlags({"trace", "out", "steps", "batch", "epoch"})},
      {"restore", CmdRestore,
       {"snapshot", "trace", "validate-every", "batch", "wal"}},
      {"simulate", CmdSimulate,
       WithSpecFlags({"trace", "shards", "batch", "oracle-every",
                      "max-rows", "csv", "metrics-out", "trace-out",
                      "profile-out"})},
  };
  return kCommands;
}

}  // namespace

int RunCommand(const ArgParser& parser, std::ostream& out,
               std::ostream& err) {
  if (parser.positional().empty()) {
    PrintUsage(err);
    return 2;
  }
  const std::string& command = parser.positional()[0];
  if (command == "help") {
    PrintUsage(out);
    return 0;
  }
  for (const CommandSpec& spec : Commands()) {
    if (command != spec.name) continue;
    for (const std::string& name : parser.OptionNames()) {
      if (std::find(spec.flags.begin(), spec.flags.end(), name) ==
          spec.flags.end()) {
        err << "error: unknown option --" << name << " for '" << command
            << "' (see mspctl help)\n";
        return 2;
      }
    }
    return spec.run(parser, out, err);
  }
  err << "error: unknown command '" << command << "'\n";
  PrintUsage(err);
  return 2;
}

}  // namespace msp::cli
