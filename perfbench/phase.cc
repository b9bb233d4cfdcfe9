// Set-up, the closed-loop RPC timed phase, and the direct-to-service
// layer peel.

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>

#include "bench.h"
#include "obs/span.h"
#include "rpc/client.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace perfbench {

namespace rpc = msp::rpc;
using msp::online::Update;

namespace {

// Enough rotations per run to exercise the rotation path many times
// (the shard logs about two records per Submit: event + checkpoint).
constexpr uint64_t kRotateEvery = 4096;
// Admission bounces are retried after this pause, never dropped: the
// per-key stream must arrive complete and in order.
constexpr auto kRetryPause = std::chrono::microseconds(100);
constexpr int kMaxRetries = 20000;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

msp::durability::WalOptions WalOptionsFor(const std::string& dir,
                                          msp::obs::Registry* metrics) {
  msp::durability::WalOptions wal;
  wal.dir = dir;
  wal.rotate_every = kRotateEvery;
  wal.metrics = metrics;
  return wal;
}

// Sends `request` until it is answered with `expected` (admission
// bounces are retried). Counts every attempt and every answer that was
// not `expected`. Returns the round trip of the successful attempt, or
// nullopt (with `*error`) when the connection or the request broke.
std::optional<uint64_t> CallUntil(rpc::RpcClient* client,
                                  const rpc::Request& request,
                                  rpc::MsgType expected,
                                  rpc::Response* response, uint64_t* attempted,
                                  uint64_t* failed, std::string* error) {
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    ++*attempted;
    const Clock::time_point t0 = Clock::now();
    if (!client->Call(request, response, error)) {
      ++*failed;
      return std::nullopt;
    }
    const Clock::time_point t1 = Clock::now();
    if (response->req_id != request.req_id) {
      ++*failed;
      *error = "response id mismatch";
      return std::nullopt;
    }
    if (response->type == expected) return Ns(t0, t1);
    ++*failed;
    if (response->type != rpc::MsgType::kOverloaded) {
      *error = "unexpected response " +
               std::string(rpc::MsgTypeName(response->type)) + ": " +
               response->error;
      return std::nullopt;
    }
    std::this_thread::sleep_for(kRetryPause);
  }
  *error = "still overloaded after retries";
  return std::nullopt;
}

}  // namespace

rpc::Request SubmitRequest(const KeyStream& s, std::size_t pos,
                           std::size_t count, uint64_t req_id) {
  rpc::Request request;
  request.type =
      count == 1 ? rpc::MsgType::kSubmit : rpc::MsgType::kSubmitBatch;
  request.req_id = req_id;
  request.key = s.key;
  request.updates.assign(s.trace.updates.begin() + pos,
                         s.trace.updates.begin() + pos + count);
  request.batch_size = count == 1 ? 0 : static_cast<uint32_t>(count);
  return request;
}

rpc::Request QueryRequest(const KeyStream& s, uint64_t req_id) {
  rpc::Request request;
  request.type = rpc::MsgType::kQuery;
  request.req_id = req_id;
  request.key = s.key;
  return request;
}

Env StartEnv(const WorkloadSpec& spec, std::vector<KeyStream>* streams,
             const std::string& wal_dir, msp::obs::Registry* metrics) {
  msp::obs::Span span("bench.setup");
  Env env;
  env.wal_dir = wal_dir;
  const Clock::time_point start = Clock::now();
  msp::serving::ServingConfig config;
  config.num_shards = kShards;
  config.metrics = metrics;
  env.service = std::make_unique<msp::serving::ServingService>(config);
  if (!wal_dir.empty()) {
    msp::obs::Span wal_span("bench.serving.attach_wal");
    if (!env.service->AttachWal(WalOptionsFor(wal_dir, metrics),
                                &env.error)) {
      env.error = "AttachWal: " + env.error;
      return env;
    }
  }
  rpc::RpcServerOptions options;
  options.service = env.service.get();
  options.metrics = metrics;
  env.server = std::make_unique<rpc::RpcServer>(options);
  if (!env.server->Start(&env.error)) {
    env.error = "server start: " + env.error;
    return env;
  }
  rpc::RpcClient admin;
  if (!admin.Connect("127.0.0.1", env.server->port(), &env.error)) {
    env.error = "admin connect: " + env.error;
    return env;
  }
  uint64_t req_id = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  rpc::Response response;
  const auto call = [&](const rpc::Request& request, rpc::MsgType expected) {
    return CallUntil(&admin, request, expected, &response, &attempted,
                     &failed, &env.error)
        .has_value();
  };
  for (KeyStream& s : *streams) {
    s.sent = 0;
    s.shard = env.service->ShardOf(s.key);
    rpc::Request create;
    create.type = rpc::MsgType::kCreateInstance;
    create.req_id = ++req_id;
    create.key = s.key;
    create.spec = InstanceSpecOf(spec, s.x2y);
    if (!call(create, rpc::MsgType::kOk)) return env;
  }
  for (KeyStream& s : *streams) {
    if (!call(SubmitRequest(s, s.sent, spec.m0, ++req_id), rpc::MsgType::kOk)) {
      return env;
    }
    env.setup_acked += response.accepted;
    s.sent = spec.m0;
  }
  for (KeyStream& s : *streams) {
    if (!call(QueryRequest(s, ++req_id), rpc::MsgType::kQueryResult)) {
      return env;
    }
    if (!response.found || response.applied_updates != s.sent) {
      env.error = "set-up barrier: " + s.key + " not fully applied";
      return env;
    }
    env.alive_start += response.inputs;
  }
  env.setup_s = Seconds(start, Clock::now());
  return env;
}

PhaseResult RunPhase(const WorkloadSpec& spec, uint16_t port, uint64_t seed,
                     std::vector<KeyStream>* streams, const RunLimit& limit,
                     std::size_t trace_event_cap) {
  PhaseResult result;
  result.conns.resize(kConnections);
  std::vector<uint64_t> alive_end(kConnections, 0);
  std::vector<uint64_t> barrier_requests(kConnections, 0);
  std::vector<uint64_t> barrier_failed(kConnections, 0);
  std::vector<uint64_t> barrier_stale(kConnections, 0);
  std::vector<Clock::time_point> loop_end(kConnections);
  std::vector<Clock::time_point> conn_end(kConnections);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  std::atomic<int64_t> trace_stop_ns{-1};

  const auto worker = [&](std::size_t c) {
    ConnRecord& rec = result.conns[c];
    std::vector<uint32_t> keys;
    for (uint32_t i = 0; i < streams->size(); ++i) {
      if ((*streams)[i].conn == c) keys.push_back(i);
    }
    msp::Rng rng(seed * 7919u + 17u * c + 1u);
    const msp::ZipfDistribution zipf(keys.size(), kZipfSkew);
    rpc::RpcClient client;
    const bool connected = client.Connect("127.0.0.1", port, &rec.error);
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    if (!connected) return;
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(limit.seconds));
    // Reserved up front so the records grow without reallocation
    // copies, which would put the benchmark's own bookkeeping into the
    // peak-RSS figure in power-of-two jumps.
    const auto expected_steps = static_cast<std::size_t>(
        limit.steps > 0 ? limit.steps
                        : spec.ceiling_updates_per_s * limit.seconds /
                              kConnections / spec.batch);
    rec.steps.reserve(expected_steps);
    rec.submit_ns.reserve(expected_steps);
    rec.submit_done_ns.reserve(expected_steps);
    rec.query_ns.reserve(expected_steps / spec.query_every + 1);
    rec.query_done_ns.reserve(expected_steps / spec.query_every + 1);
    uint64_t req_id = 0;
    rpc::Response response;
    for (uint64_t step = 0;; ++step) {
      if (limit.steps > 0 ? step >= limit.steps : Clock::now() >= deadline) {
        break;
      }
      const uint32_t k = keys[zipf.Sample(&rng) - 1];
      KeyStream& s = (*streams)[k];
      s.Reserve(s.sent + spec.batch);
      std::optional<uint64_t> ns;
      {
        msp::obs::Span span("bench.rpc.submit");
        ns = CallUntil(&client, SubmitRequest(s, s.sent, spec.batch, ++req_id),
                       rpc::MsgType::kOk, &response, &rec.attempted,
                       &rec.failed, &rec.error);
      }
      if (!ns) break;
      const Clock::time_point acked_at = Clock::now();
      rec.submit_ns.push_back(*ns);
      rec.submit_done_ns.push_back(Ns(start, acked_at));
      rec.steps.push_back(k);
      s.sent += spec.batch;
      rec.acked += response.accepted;

      if ((step + 1) % spec.query_every == 0) {
        msp::obs::Span span("bench.rpc.query");
        ns = CallUntil(&client, QueryRequest(s, ++req_id),
                       rpc::MsgType::kQueryResult, &response, &rec.attempted,
                       &rec.failed, &rec.error);
        if (!ns) break;
        rec.query_ns.push_back(*ns);
        rec.query_done_ns.push_back(Ns(start, Clock::now()));
        if (!response.found || response.applied_updates != s.sent) {
          ++rec.stale_reads;
        }
      }
      if (c == 0 && trace_event_cap > 0 && step % 256 == 0 &&
          msp::obs::Tracer::enabled() &&
          msp::obs::Tracer::event_count() >= trace_event_cap) {
        msp::obs::Tracer::Stop();
        trace_stop_ns.store(static_cast<int64_t>(Ns(start, Clock::now())));
      }
    }
    loop_end[c] = Clock::now();
    if (!rec.error.empty()) {
      conn_end[c] = loop_end[c];
      return;
    }
    // Final barrier: every acked update of every owned key is applied.
    for (uint32_t k : keys) {
      KeyStream& s = (*streams)[k];
      if (!CallUntil(&client, QueryRequest(s, ++req_id),
                     rpc::MsgType::kQueryResult, &response,
                     &barrier_requests[c], &barrier_failed[c], &rec.error)) {
        break;
      }
      if (!response.found || response.applied_updates != s.sent) {
        ++barrier_stale[c];
      }
      alive_end[c] += response.inputs;
    }
    conn_end[c] = Clock::now();
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back(worker, c);
  }
  while (ready.load() < kConnections) std::this_thread::yield();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  Clock::time_point end = start;
  Clock::time_point loop = start;
  for (std::size_t c = 0; c < kConnections; ++c) {
    end = std::max(end, conn_end[c]);
    loop = std::max(loop, loop_end[c]);
    result.alive_end += alive_end[c];
    result.barrier_requests += barrier_requests[c];
    result.barrier_failed += barrier_failed[c];
    result.barrier_stale += barrier_stale[c];
  }
  result.wall_s = Seconds(start, end);
  result.loop_s = Seconds(start, loop);
  const int64_t stop_ns = trace_stop_ns.load();
  result.trace_stop_s =
      stop_ns < 0 ? result.loop_s : static_cast<double>(stop_ns) / 1e9;
  return result;
}

double ReplayServing(const WorkloadSpec& spec,
                     const std::vector<KeyStream>& streams,
                     const PhaseResult& phase, const std::string& wal_dir,
                     std::string* error) {
  msp::serving::ServingConfig config;
  config.num_shards = kShards;
  msp::serving::ServingService service(config);
  if (!wal_dir.empty() &&
      !service.AttachWal(WalOptionsFor(wal_dir, nullptr), error)) {
    return 0;
  }
  uint64_t expected = 0;
  for (const KeyStream& s : streams) {
    service.CreateInstance(s.key, ConfigOf(InstanceSpecOf(spec, s.x2y)),
                           /*translate_trace_ids=*/true);
    service.SubmitBatch(
        s.key,
        std::vector<Update>(s.trace.updates.begin(),
                            s.trace.updates.begin() + spec.m0),
        spec.m0);
    expected += s.sent;
  }
  service.Flush();

  std::vector<std::size_t> next(streams.size(), spec.m0);
  const auto wait_visible = [&](const std::string& key) {
    std::promise<void> seen;
    std::future<void> done = seen.get_future();
    service.Inspect(key, [&seen](const msp::serving::ServingShard::
                                     InstanceProbe&) { seen.set_value(); });
    done.wait();
  };
  const auto producer = [&](std::size_t c) {
    const ConnRecord& rec = phase.conns[c];
    for (std::size_t i = 0; i < rec.steps.size(); ++i) {
      const KeyStream& s = streams[rec.steps[i]];
      std::size_t& pos = next[rec.steps[i]];
      if (spec.batch == 1) {
        msp::obs::Span span("bench.serving.submit");
        service.Submit(s.key, s.trace.updates[pos]);
      } else {
        msp::obs::Span span("bench.serving.submit_batch");
        service.SubmitBatch(
            s.key,
            std::vector<Update>(s.trace.updates.begin() + pos,
                                s.trace.updates.begin() + pos + spec.batch),
            spec.batch);
      }
      pos += spec.batch;
      if ((i + 1) % spec.query_every == 0) {
        msp::obs::Span span("bench.serving.inspect");
        wait_visible(s.key);
      }
    }
    for (const KeyStream& s : streams) {
      if (s.conn == c) wait_visible(s.key);
    }
  };
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back(producer, c);
    }
    for (std::thread& t : threads) t.join();
  }
  const double seconds = Seconds(start, Clock::now());
  const uint64_t applied = service.stats().total.updates;
  if (applied != expected) {
    *error = "direct replay applied " + std::to_string(applied) + " of " +
             std::to_string(expected) + " updates";
  }
  return seconds;
}

}  // namespace perfbench
