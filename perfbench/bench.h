// perfbench — one benchmark for the serving request path:
//
//   RpcClient → RpcServer (decode, admission) → shard mailbox →
//   OnlineAssigner (repair | policy consult | planner | min-move delta)
//   → WAL append/fsync → response.
//
// One process starts an in-process RpcServer over a 2-shard
// ServingService and drives it from 2 closed-loop RpcClient
// connections. Each connection owns a disjoint set of instance keys,
// picks among them with Zipf(0.99) and sends each key's next events
// from an update trace generated beforehand from the seed, so per-key
// order — and therefore every final schema — is a function of the
// seed and of how many events each key received.
//
// The layers are measured from outside: timed calls into their public
// functions, and the obs-registry series they already publish. See
// perfbench/README.md for the workloads, the metrics and which layer
// metric should move which end-to-end metric.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "online/assigner.h"
#include "rpc/server.h"
#include "serving/service.h"
#include "workload/updates.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t Ns(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kConnections = 2;
inline constexpr double kZipfSkew = 0.99;

/// One named traffic mix.
struct WorkloadSpec {
  std::string name;
  std::string why;
  std::size_t instances = 0;  // half A2A, half X2Y
  std::size_t m0 = 0;         // initial inputs per instance
  msp::InputSize capacity = 100;
  std::string policy = "never";
  uint64_t cooldown = 0;
  std::size_t batch = 1;        // events per submit request; 1 = Submit
  std::size_t query_every = 1;  // a Query follows every this many submits
  bool wal = false;
  /// Every other key (per connection) uses kCapacityOscillation.
  bool alternate_shapes = false;
  /// Share of kMixed events that retune q (the rest of the mix is
  /// fixed: 0.30 arrivals, 0.35 departures, resizes).
  double p_retune = 0.10;
  /// Updates per connection in the quality horizon: the fixed stream
  /// prefix over which the schema-quality and churn metrics are taken,
  /// so that they depend on the seed only, never on the run's speed.
  std::size_t quality_horizon = 0;
  /// Upper estimate of the applied-update rate; sizes the traces
  /// generated before the run (they grow on demand past it).
  double ceiling_updates_per_s = 0;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// The OnlineConfig the RPC front door builds for this workload's
/// CreateInstance (so reference replays configure identically).
msp::rpc::InstanceSpec InstanceSpecOf(const WorkloadSpec& spec, bool x2y);
msp::online::OnlineConfig ConfigOf(const msp::rpc::InstanceSpec& spec);

/// One instance key and the trace it draws its events from.
struct KeyStream {
  std::string key;
  bool x2y = false;
  std::size_t conn = 0;  // owning connection
  std::size_t shard = 0;
  msp::wl::TraceConfig config;
  msp::online::UpdateTrace trace;
  std::size_t sent = 0;  // events submitted, initial adds included
  std::size_t horizon = 0;  // events in the quality horizon, adds included

  /// Grows the trace to at least `events` events. The generator is
  /// prefix-stable in `steps`, so earlier events never change.
  void Reserve(std::size_t events);
};

/// Builds every key's stream for `seed`, with traces sized for about
/// `updates_per_conn` updates sent by each connection.
std::vector<KeyStream> MakeStreams(const WorkloadSpec& spec, uint64_t seed,
                                   double updates_per_conn);

/// The request that submits `count` events of `s` from event `pos` on
/// (a Submit for one event, else a SubmitBatch with that window).
msp::rpc::Request SubmitRequest(const KeyStream& s, std::size_t pos,
                                std::size_t count, uint64_t req_id);
msp::rpc::Request QueryRequest(const KeyStream& s, uint64_t req_id);

/// Run length: wall-clock seconds, or (when `steps` > 0) exactly
/// `steps` submit steps per connection — the deterministic mode the
/// self-test uses.
struct RunLimit {
  double seconds = 0;
  uint64_t steps = 0;
};

/// Per-connection record of one timed phase.
struct ConnRecord {
  std::vector<uint32_t> steps;  // key index of each submit step, in order
  std::vector<uint64_t> submit_ns;       // round trip of each submit
  std::vector<uint64_t> submit_done_ns;  // its completion, from phase start
  std::vector<uint64_t> query_ns;
  std::vector<uint64_t> query_done_ns;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t acked = 0;
  uint64_t stale_reads = 0;  // queries that did not see every acked write
  std::string error;
};

/// A live server + service with every instance created and loaded.
struct Env {
  std::unique_ptr<msp::serving::ServingService> service;
  std::unique_ptr<msp::rpc::RpcServer> server;
  double setup_s = 0;
  uint64_t setup_acked = 0;
  uint64_t alive_start = 0;  // total alive inputs after set-up
  std::string wal_dir;       // empty without a WAL
  std::string error;
};

/// Starts a fresh environment (timed as set-up). `wal_dir` empty = no
/// WAL. `metrics` non-null attaches the registry to server, service
/// and WAL. Resets every stream's `sent` counter.
Env StartEnv(const WorkloadSpec& spec, std::vector<KeyStream>* streams,
             const std::string& wal_dir, msp::obs::Registry* metrics);

struct PhaseResult {
  double wall_s = 0;  // first request to the end of the final barrier
  std::vector<ConnRecord> conns;
  uint64_t alive_end = 0;
  uint64_t barrier_requests = 0;
  uint64_t barrier_failed = 0;
  uint64_t barrier_stale = 0;
  /// Seconds from the phase start until the submit loops ended (the
  /// final barrier follows).
  double loop_s = 0;
  /// Seconds from the phase start until the tracer was stopped because
  /// its buffer reached the cap (= loop_s when it never did).
  double trace_stop_s = 0;
};

/// Runs the closed-loop timed phase against the server on `port`.
/// With `trace_event_cap` > 0 and the tracer armed, connection 0 stops
/// the tracer once its buffer holds that many events.
PhaseResult RunPhase(const WorkloadSpec& spec, uint16_t port, uint64_t seed,
                     std::vector<KeyStream>* streams, const RunLimit& limit,
                     std::size_t trace_event_cap);

/// Layer peel 1: the recorded per-connection step sequences replayed
/// straight into a fresh ServingService (no socket). Queries become
/// Inspect probes the producer waits for. Returns the wall seconds of
/// the replayed phase (set-up excluded).
double ReplayServing(const WorkloadSpec& spec,
                     const std::vector<KeyStream>& streams,
                     const PhaseResult& phase, const std::string& wal_dir,
                     std::string* error);

/// Layer peel 2 and the correctness reference: every key's stream fed
/// to its own single-threaded OnlineAssigner with the shard's window
/// rule, up to the events the live run sent (timed) and on to the
/// quality horizon (untimed). Keys are grouped by shard, one thread per
/// group.
struct AssignerReplay {
  std::map<std::string, std::string> schema_text;
  std::vector<double> group_s;          // per shard: replay wall seconds
  std::vector<double> group_planner_s;  // per shard: planner time inside
  std::vector<uint64_t> apply_ns;       // per ApplyDeferred call
  std::vector<uint64_t> checkpoint_ns;  // per PolicyCheckpoint call
  uint64_t updates = 0;
  uint64_t consults = 0;
  /// Schema quality over the quality horizon: the mean, over instances
  /// and kQualityPoints evenly spaced points of each one's horizon, of
  /// live reducers (communication) over the paper's lower bound.
  double reducers_over_lb = 0;
  double comm_over_lb = 0;
  uint64_t quality_points = 0;
  /// Bytes shipped by repairs and deployed re-plans per applied update
  /// over the quality horizon (initial adds excluded).
  double churn_bytes_per_update = 0;
};
inline constexpr std::size_t kQualityPoints = 8;
AssignerReplay ReplayAssigners(const WorkloadSpec& spec,
                               const std::vector<KeyStream>& streams);

/// Value at percentile `p` of `sorted` (nearest rank).
double Percentile(const std::vector<uint64_t>& sorted, double p);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
