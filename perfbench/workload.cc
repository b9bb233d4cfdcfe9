// Workload definitions, per-key traces, and the single-threaded
// reference replay (which doubles as the "online" layer peel).

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>

#include "bench.h"
#include "core/schema_io.h"
#include "obs/span.h"
#include "planner/service.h"
#include "util/zipf.h"

namespace perfbench {

using msp::online::OnlineAssigner;
using msp::online::TraceIdTranslator;
using msp::online::Update;
using msp::online::UpdateKind;

const std::vector<WorkloadSpec>& Workloads() {
  // Why each workload exists is in its `why`; the figures they were
  // sized against are in perfbench/README.md.
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w(3);
    w[0].name = "ingest-small";
    w[0].why =
        "many small instances, policy never, one Submit per update: the "
        "front door (rpc) and the mailbox (serving) set the pace";
    w[0].instances = 32;
    w[0].m0 = 40;
    w[0].batch = 1;
    w[0].query_every = 15;  // every 16th request is a Query
    w[0].quality_horizon = 40000;
    w[0].ceiling_updates_per_s = 80000;

    w[1].name = "replan-large";
    w[1].why =
        "larger instances under the drift policy, windows of 4: policy "
        "consults, planner calls and min-move deploys (online, planner) "
        "dominate";
    w[1].instances = 8;
    w[1].m0 = 100;
    w[1].policy = "drift";
    w[1].cooldown = 8;
    w[1].batch = 4;
    w[1].query_every = 1;
    w[1].p_retune = 0.01;
    w[1].quality_horizon = 8000;
    w[1].ceiling_updates_per_s = 12000;

    w[2].name = "durable-rw";
    w[2].why =
        "WAL attached, every write followed by a read barrier: append, "
        "fsync, rotation and recovery (durability) and the query path "
        "dominate";
    w[2].instances = 16;
    w[2].m0 = 60;
    w[2].batch = 1;
    w[2].query_every = 1;
    w[2].wal = true;
    w[2].alternate_shapes = true;
    w[2].quality_horizon = 20000;
    w[2].ceiling_updates_per_s = 25000;
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

msp::rpc::InstanceSpec InstanceSpecOf(const WorkloadSpec& spec, bool x2y) {
  msp::rpc::InstanceSpec instance;
  instance.x2y = x2y;
  instance.capacity = spec.capacity;
  instance.policy.name = spec.policy;
  instance.policy.cooldown = spec.cooldown;
  return instance;
}

msp::online::OnlineConfig ConfigOf(const msp::rpc::InstanceSpec& spec) {
  // Field for field what RpcServer::HandleRequest builds on
  // kCreateInstance.
  msp::online::OnlineConfig config;
  config.x2y = spec.x2y;
  config.capacity = spec.capacity;
  config.policy_spec = spec.policy;
  config.delta_matching = spec.matching;
  config.measure_matching_gap = spec.measure_matching_gap;
  config.plan_options.use_portfolio = spec.use_portfolio;
  return config;
}

namespace {

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

void KeyStream::Reserve(std::size_t events) {
  if (trace.updates.size() >= events) return;
  config.steps = std::max(2 * config.steps,
                          events - config.initial_inputs + 64);
  trace = msp::wl::GenerateTrace(config);
}

std::vector<KeyStream> MakeStreams(const WorkloadSpec& spec, uint64_t seed,
                                   double updates_per_conn) {
  std::vector<KeyStream> streams(spec.instances);
  std::vector<std::size_t> rank_in_conn(kConnections, 0);
  const std::size_t keys_per_conn =
      (spec.instances + kConnections - 1) / kConnections;
  const msp::ZipfDistribution zipf(keys_per_conn, kZipfSkew);
  for (std::size_t i = 0; i < spec.instances; ++i) {
    KeyStream& s = streams[i];
    s.key = "inst-" + std::to_string(i);
    s.x2y = i >= spec.instances / 2;
    s.conn = i % kConnections;
    const double share = zipf.Pmf(++rank_in_conn[s.conn]);

    msp::wl::TraceConfig& c = s.config;
    c.x2y = s.x2y;
    c.initial_inputs = spec.m0;
    c.capacity = spec.capacity;
    // Arrivals and departures balance in the long run: departures are a
    // little likelier, and a departure that would take an instance
    // below `min_alive` (just under m0) is emitted as an arrival. The
    // alive count therefore hovers near m0 instead of random-walking
    // away from it over a long run.
    c.p_add = 0.30;
    c.p_remove = 0.35;
    c.p_resize = 1.0 - c.p_add - c.p_remove - spec.p_retune;
    const std::size_t per_side = s.x2y ? spec.m0 / 2 : spec.m0;
    c.min_alive = per_side - per_side / 8;
    c.seed = Mix(seed * 1000003u + i);
    if (spec.alternate_shapes && (i / kConnections) % 2 == 1) {
      c.shape = msp::wl::TraceShape::kCapacityOscillation;
    }
    // The quality horizon: a fixed, seed-determined prefix of the key's
    // stream, whole submit windows long, proportional to its traffic.
    const auto windows = static_cast<std::size_t>(
        std::ceil(share * static_cast<double>(spec.quality_horizon) /
                  static_cast<double>(spec.batch)));
    s.horizon = spec.m0 + spec.batch * std::max<std::size_t>(windows, 1);
    c.steps = std::max(static_cast<std::size_t>(
                           std::ceil(1.25 * share * updates_per_conn)),
                       s.horizon - spec.m0) +
              64;
    s.trace = msp::wl::GenerateTrace(c);
  }
  return streams;
}

double Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

namespace {

struct GroupOut {
  std::map<std::string, std::string> schema_text;
  std::vector<uint64_t> apply_ns;
  std::vector<uint64_t> checkpoint_ns;
  uint64_t updates = 0;
  uint64_t consults = 0;
  double seconds = 0;
  double planner_s = 0;
  double reducer_ratio_sum = 0;
  double comm_ratio_sum = 0;
  uint64_t quality_points = 0;
  uint64_t horizon_churn_bytes = 0;
  uint64_t horizon_updates = 0;
};

// Event count of the j-th of kQualityPoints evenly spaced quality
// samples on [m0, horizon], rounded up to a whole submit window.
std::size_t QualityPoint(const WorkloadSpec& spec, const KeyStream& s,
                         std::size_t j) {
  const std::size_t windows = (s.horizon - spec.m0) / spec.batch;
  return spec.m0 +
         spec.batch * ((j * windows + kQualityPoints - 1) / kQualityPoints);
}

// Replays one shard's keys through private assigners, mirroring
// ServingShard::Process: translate, ApplyDeferred, and a policy
// checkpoint whenever an applied update fills the task's window. Only
// the events the live run sent are timed; past them the replay runs on
// to the key's quality horizon untimed.
void ReplayGroup(const WorkloadSpec& spec,
                 const std::vector<const KeyStream*>& keys, GroupOut* out) {
  auto planner = std::make_shared<msp::planner::PlannerService>(
      msp::planner::PlannerConfig{.num_threads = 1});
  for (const KeyStream* s : keys) {
    msp::obs::Span span("bench.online.replay_key");
    msp::online::OnlineConfig config = ConfigOf(InstanceSpecOf(spec, s->x2y));
    config.shared_planner = planner;
    OnlineAssigner assigner(config);
    std::vector<std::optional<msp::InputId>> live_of_trace;
    TraceIdTranslator translator(&live_of_trace);
    const auto run_task = [&](std::size_t begin, std::size_t end,
                              std::size_t window, bool timed) {
      for (std::size_t i = begin; i < end; ++i) {
        Update update = s->trace.updates[i];
        if (!translator.Translate(&update)) continue;
        const Clock::time_point t0 = Clock::now();
        const msp::online::UpdateResult result = assigner.ApplyDeferred(update);
        const Clock::time_point t1 = Clock::now();
        if (timed) out->apply_ns.push_back(Ns(t0, t1));
        if (update.kind == UpdateKind::kAddInput) {
          translator.RecordAdd(result.applied ? result.new_id : std::nullopt);
        }
        if (!result.applied) continue;
        if (timed) ++out->updates;
        if (assigner.pending_decision_updates() >= window) {
          assigner.PolicyCheckpoint();
          if (timed) {
            out->checkpoint_ns.push_back(Ns(t1, Clock::now()));
            ++out->consults;
          }
        }
      }
    };
    const uint64_t planner_us_start = planner->latency().sum();
    const std::size_t end = std::max(s->sent, s->horizon);
    msp::online::OnlineTotals at_m0;
    std::size_t next_point = 1;
    for (std::size_t pos = 0; pos < end;) {
      const std::size_t window = pos == 0 ? spec.m0 : spec.batch;
      const std::size_t task_end = std::min(pos + window, end);
      const bool timed = task_end <= s->sent;
      const Clock::time_point t0 = Clock::now();
      run_task(pos, task_end, window, timed);
      if (timed) {
        out->seconds += static_cast<double>(Ns(t0, Clock::now())) / 1e9;
      }
      pos = task_end;
      if (pos == spec.m0) at_m0 = assigner.totals();
      if (pos == s->sent) {
        out->schema_text[s->key] = msp::SchemaToText(assigner.Schema());
        out->planner_s +=
            static_cast<double>(planner->latency().sum() - planner_us_start) /
            1e6;
      }
      for (; next_point <= kQualityPoints &&
             pos >= QualityPoint(spec, *s, next_point);
           ++next_point) {
        msp::obs::Span quality_span("bench.online.quality");
        const msp::online::QualitySnapshot q = assigner.Quality();
        if (!q.bounds_available || q.lb_reducers == 0 ||
            q.lb_communication == 0) {
          continue;
        }
        out->reducer_ratio_sum += static_cast<double>(q.live_reducers) /
                                  static_cast<double>(q.lb_reducers);
        out->comm_ratio_sum += static_cast<double>(q.live_communication) /
                               static_cast<double>(q.lb_communication);
        ++out->quality_points;
      }
      if (pos == s->horizon) {
        out->horizon_churn_bytes +=
            assigner.totals().churn.bytes_moved - at_m0.churn.bytes_moved;
        out->horizon_updates += assigner.totals().updates - at_m0.updates;
      }
    }
  }
}

}  // namespace

AssignerReplay ReplayAssigners(const WorkloadSpec& spec,
                               const std::vector<KeyStream>& streams) {
  std::vector<std::vector<const KeyStream*>> groups(kShards);
  for (const KeyStream& s : streams) groups[s.shard].push_back(&s);
  std::vector<GroupOut> outs(kShards);
  {
    std::vector<std::thread> threads;
    for (std::size_t g = 0; g < kShards; ++g) {
      threads.emplace_back(
          [&, g] { ReplayGroup(spec, groups[g], &outs[g]); });
    }
    for (std::thread& t : threads) t.join();
  }
  AssignerReplay replay;
  double reducer_ratio_sum = 0;
  double comm_ratio_sum = 0;
  uint64_t points = 0;
  uint64_t churn_bytes = 0;
  uint64_t horizon_updates = 0;
  for (GroupOut& out : outs) {
    replay.schema_text.merge(out.schema_text);
    replay.group_s.push_back(out.seconds);
    replay.group_planner_s.push_back(out.planner_s);
    replay.apply_ns.insert(replay.apply_ns.end(), out.apply_ns.begin(),
                           out.apply_ns.end());
    replay.checkpoint_ns.insert(replay.checkpoint_ns.end(),
                                out.checkpoint_ns.begin(),
                                out.checkpoint_ns.end());
    replay.updates += out.updates;
    replay.consults += out.consults;
    reducer_ratio_sum += out.reducer_ratio_sum;
    comm_ratio_sum += out.comm_ratio_sum;
    points += out.quality_points;
    churn_bytes += out.horizon_churn_bytes;
    horizon_updates += out.horizon_updates;
  }
  std::sort(replay.apply_ns.begin(), replay.apply_ns.end());
  std::sort(replay.checkpoint_ns.begin(), replay.checkpoint_ns.end());
  replay.quality_points = points;
  if (points > 0) {
    replay.reducers_over_lb = reducer_ratio_sum / static_cast<double>(points);
    replay.comm_over_lb = comm_ratio_sum / static_cast<double>(points);
  }
  if (horizon_updates > 0) {
    replay.churn_bytes_per_update = static_cast<double>(churn_bytes) /
                                    static_cast<double>(horizon_updates);
  }
  return replay;
}

}  // namespace perfbench
