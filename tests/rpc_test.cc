// Tests of the network front door: the frame codec's corruption
// properties (mirroring the durability changelog's torn-tail and
// mutation sweeps), the request/response codecs, and the epoll server
// over real loopback sockets — end-to-end reconciliation, disconnect
// and oversized-frame handling, and the mailbox-depth admission
// control surfacing as typed kOverloaded verdicts under a wedged
// shard.

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "durability/wal.h"
#include "gtest/gtest.h"
#include "online/budget.h"
#include "online/delta.h"
#include "online/policy.h"
#include "online/trace.h"
#include "rpc/client.h"
#include "rpc/protocol.h"
#include "rpc/server.h"
#include "serving/service.h"
#include "util/fs.h"
#include "util/rng.h"

namespace msp::rpc {
namespace {

using online::Update;

// ---------------------------------------------------------------------------
// Codec round-trips.
// ---------------------------------------------------------------------------

Request DecodedRequest(const Request& request) {
  const std::string frame = EncodeFrame(EncodeRequest(request));
  std::size_t frame_size = 0;
  std::string_view payload;
  std::string error;
  EXPECT_EQ(DecodeFrame(frame, &frame_size, &payload, &error),
            FrameStatus::kFrame)
      << error;
  EXPECT_EQ(frame_size, frame.size());
  Request out;
  EXPECT_TRUE(DecodeRequest(payload, &out, &error)) << error;
  return out;
}

Response DecodedResponse(const Response& response) {
  const std::string frame = EncodeFrame(EncodeResponse(response));
  std::size_t frame_size = 0;
  std::string_view payload;
  std::string error;
  EXPECT_EQ(DecodeFrame(frame, &frame_size, &payload, &error),
            FrameStatus::kFrame)
      << error;
  Response out;
  EXPECT_TRUE(DecodeResponse(payload, &out, &error)) << error;
  return out;
}

TEST(RpcCodecTest, CreateInstanceRequestRoundTripsEveryField) {
  Request request;
  request.type = MsgType::kCreateInstance;
  request.req_id = 77;
  request.key = "tenant-42";
  request.spec.x2y = true;
  request.spec.capacity = 1234;
  request.spec.policy.name = "every-n";
  request.spec.policy.reducer_drift = 1.75;
  request.spec.policy.comm_drift = 2.5;
  request.spec.policy.max_updates = 99;
  request.spec.policy.every_n = 17;
  request.spec.policy.cooldown = 5;
  request.spec.matching = online::DeltaMatching::kHungarian;
  request.spec.measure_matching_gap = true;
  request.spec.budget.window_updates = 32;
  request.spec.budget.bytes_per_window = 4096;
  request.spec.use_portfolio = true;

  const Request out = DecodedRequest(request);
  EXPECT_EQ(out.type, request.type);
  EXPECT_EQ(out.req_id, request.req_id);
  EXPECT_EQ(out.key, request.key);
  EXPECT_EQ(out.spec, request.spec);
}

TEST(RpcCodecTest, SubmitBatchRequestRoundTripsEveryUpdateKind) {
  Request request;
  request.type = MsgType::kSubmitBatch;
  request.req_id = 3;
  request.key = "k";
  request.batch_size = 8;
  request.updates.push_back(Update::Add(30));
  request.updates.push_back(Update::Add(11, online::Side::kY));
  request.updates.push_back(Update::Remove(0));
  request.updates.push_back(Update::Resize(1, 55));
  request.updates.push_back(Update::SetCapacity(200));

  const Request out = DecodedRequest(request);
  EXPECT_EQ(out.type, request.type);
  EXPECT_EQ(out.batch_size, request.batch_size);
  EXPECT_EQ(out.updates, request.updates);
}

TEST(RpcCodecTest, QueryAndStatsRequestsRoundTrip) {
  for (const MsgType type : {MsgType::kQuery, MsgType::kStats}) {
    Request request;
    request.type = type;
    request.req_id = 9;
    request.key = type == MsgType::kQuery ? "probe-me" : "";
    const Request out = DecodedRequest(request);
    EXPECT_EQ(out.type, type);
    EXPECT_EQ(out.req_id, 9u);
    EXPECT_EQ(out.key, request.key);
  }
}

TEST(RpcCodecTest, EveryResponseTypeRoundTrips) {
  {
    Response ok;
    ok.type = MsgType::kOk;
    ok.req_id = 1;
    ok.shard = 3;
    ok.accepted = 12;
    const Response out = DecodedResponse(ok);
    EXPECT_EQ(out.type, MsgType::kOk);
    EXPECT_EQ(out.shard, 3u);
    EXPECT_EQ(out.accepted, 12u);
  }
  {
    Response busy;
    busy.type = MsgType::kOverloaded;
    busy.req_id = 2;
    busy.shard = 1;
    busy.queue_depth = 300;
    busy.depth_limit = 256;
    const Response out = DecodedResponse(busy);
    EXPECT_EQ(out.type, MsgType::kOverloaded);
    EXPECT_EQ(out.queue_depth, 300u);
    EXPECT_EQ(out.depth_limit, 256u);
  }
  {
    Response query;
    query.type = MsgType::kQueryResult;
    query.req_id = 4;
    query.found = true;
    query.inputs = 24;
    query.reducers = 6;
    query.capacity = 100;
    query.applied_updates = 150;
    query.rejected_updates = 2;
    query.deferred_pending = 7;
    const Response out = DecodedResponse(query);
    EXPECT_EQ(out.type, MsgType::kQueryResult);
    EXPECT_TRUE(out.found);
    EXPECT_EQ(out.inputs, 24u);
    EXPECT_EQ(out.reducers, 6u);
    EXPECT_EQ(out.capacity, 100u);
    EXPECT_EQ(out.applied_updates, 150u);
    EXPECT_EQ(out.rejected_updates, 2u);
    EXPECT_EQ(out.deferred_pending, 7u);
  }
  {
    Response stats;
    stats.type = MsgType::kStatsResult;
    stats.req_id = 5;
    ShardCounts a;
    a.applied = 10;
    a.rejected = 1;
    a.skipped = 2;
    a.deferred_pending = 3;
    a.queue_depth = 4;
    a.rpc_accepted = 11;
    a.rpc_overloaded = 5;
    ShardCounts b;
    b.applied = 99;
    stats.shards = {a, b};
    const Response out = DecodedResponse(stats);
    EXPECT_EQ(out.type, MsgType::kStatsResult);
    ASSERT_EQ(out.shards.size(), 2u);
    EXPECT_EQ(out.shards[0], a);
    EXPECT_EQ(out.shards[1], b);
  }
  {
    Response error;
    error.type = MsgType::kError;
    error.req_id = 6;
    error.error = "unknown instance";
    const Response out = DecodedResponse(error);
    EXPECT_EQ(out.type, MsgType::kError);
    EXPECT_EQ(out.error, "unknown instance");
  }
}

// ---------------------------------------------------------------------------
// Frame corruption properties — the same contract the durability
// changelog proves for its on-disk records, applied to the wire.
// ---------------------------------------------------------------------------

std::string SampleFrame() {
  Request request;
  request.type = MsgType::kSubmitBatch;
  request.req_id = 42;
  request.key = "torn-frame-instance";
  request.batch_size = 4;
  for (int i = 0; i < 12; ++i) {
    request.updates.push_back(Update::Add(10 + i));
  }
  return EncodeFrame(EncodeRequest(request));
}

// A proper prefix of a valid frame is always an incomplete read —
// never a decoded frame, never a framing error. This is what lets the
// server treat a slow sender and a torn send identically: keep
// buffering until the length-prefixed boundary arrives.
TEST(RpcFrameTest, EveryProperPrefixIsNeedMore) {
  const std::string frame = SampleFrame();
  ASSERT_GT(frame.size(), kFrameHeaderSize);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    std::size_t frame_size = 0;
    std::string_view payload;
    std::string error;
    const FrameStatus status = DecodeFrame(frame.substr(0, len), &frame_size,
                                           &payload, &error);
    EXPECT_EQ(status, FrameStatus::kNeedMore)
        << "prefix of " << len << " bytes: " << error;
  }
}

// No single corrupted byte, anywhere in the frame, may decode as a
// clean frame carrying the original payload. Header corruption trips
// the magic/version/length checks (or legitimately asks for more
// bytes — a larger length is indistinguishable from a longer frame);
// payload corruption trips the FNV-1a checksum.
TEST(RpcFrameTest, EveryOneByteMutationIsDetected) {
  const std::string frame = SampleFrame();
  std::size_t clean_size = 0;
  std::string_view clean_payload;
  std::string error;
  ASSERT_EQ(DecodeFrame(frame, &clean_size, &clean_payload, &error),
            FrameStatus::kFrame);
  const std::string original(clean_payload);

  Rng rng(4242);
  for (std::size_t offset = 0; offset < frame.size(); ++offset) {
    std::vector<uint8_t> flips = {0x01,
                                  static_cast<uint8_t>(
                                      1 + rng.UniformInt(255))};
    for (const uint8_t flip : flips) {
      std::string corrupt = frame;
      corrupt[offset] = static_cast<char>(corrupt[offset] ^ flip);
      std::size_t frame_size = 0;
      std::string_view payload;
      std::string why;
      const FrameStatus status =
          DecodeFrame(corrupt, &frame_size, &payload, &why);
      const bool clean_identical_parse =
          status == FrameStatus::kFrame && std::string(payload) == original;
      EXPECT_FALSE(clean_identical_parse)
          << "byte " << offset << " xor 0x" << std::hex << int{flip}
          << " slipped through as a clean parse";
    }
  }
}

TEST(RpcFrameTest, OversizedLengthIsRejectedBeforeAllocation) {
  const std::string frame = EncodeFrame(std::string(100, 'x'));
  std::size_t frame_size = 0;
  std::string_view payload;
  std::string error;
  // The same frame is fine under the global cap...
  EXPECT_EQ(DecodeFrame(frame, &frame_size, &payload, &error),
            FrameStatus::kFrame);
  // ...and a hard kBad (not kNeedMore) under a tighter server cap: the
  // decoder must never wait for bytes it would refuse to accept.
  EXPECT_EQ(DecodeFrame(frame, &frame_size, &payload, &error,
                        /*max_payload=*/64),
            FrameStatus::kBad);
  EXPECT_FALSE(error.empty());
}

TEST(RpcFrameTest, BadMagicAndBadVersionAreRejected) {
  std::string frame = EncodeFrame("payload");
  {
    std::string bad_magic = frame;
    bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0xFF);
    std::size_t frame_size = 0;
    std::string_view payload;
    std::string error;
    EXPECT_EQ(DecodeFrame(bad_magic, &frame_size, &payload, &error),
              FrameStatus::kBad);
  }
  {
    std::string bad_version = frame;
    bad_version[4] = static_cast<char>(bad_version[4] ^ 0xFF);
    std::size_t frame_size = 0;
    std::string_view payload;
    std::string error;
    EXPECT_EQ(DecodeFrame(bad_version, &frame_size, &payload, &error),
              FrameStatus::kBad);
  }
}

// Version 2 changed the kCreateInstance spec layout; a peer still
// speaking version 1 is refused at the frame boundary, by name.
TEST(RpcFrameTest, PreviousProtocolVersionIsRefused) {
  std::string frame = EncodeFrame("payload");
  ASSERT_EQ(kProtocolVersion, 2u);
  frame[4] = 1;  // version u32, little-endian, after the magic
  std::size_t frame_size = 0;
  std::string_view payload;
  std::string error;
  EXPECT_EQ(DecodeFrame(frame, &frame_size, &payload, &error),
            FrameStatus::kBad);
  EXPECT_NE(error.find("unsupported protocol version 1"), std::string::npos)
      << error;
}

TEST(RpcFrameTest, BackToBackFramesDecodeOneAtATime) {
  const std::string first = EncodeFrame("first");
  const std::string second = EncodeFrame("second, longer payload");
  const std::string stream = first + second;
  std::size_t frame_size = 0;
  std::string_view payload;
  std::string error;
  ASSERT_EQ(DecodeFrame(stream, &frame_size, &payload, &error),
            FrameStatus::kFrame);
  EXPECT_EQ(payload, "first");
  EXPECT_EQ(frame_size, first.size());
  ASSERT_EQ(DecodeFrame(std::string_view(stream).substr(frame_size),
                        &frame_size, &payload, &error),
            FrameStatus::kFrame);
  EXPECT_EQ(payload, "second, longer payload");
}

// ---------------------------------------------------------------------------
// Socket tests: a real server over a real ServingService on loopback.
// ---------------------------------------------------------------------------

Request MakeCreate(uint64_t req_id, const std::string& key,
                   uint64_t capacity = 100) {
  Request request;
  request.type = MsgType::kCreateInstance;
  request.req_id = req_id;
  request.key = key;
  request.spec.capacity = capacity;
  request.spec.policy.name = "drift";
  request.spec.policy.cooldown = 8;
  return request;
}

Request MakeSubmit(uint64_t req_id, const std::string& key, uint64_t size) {
  Request request;
  request.type = MsgType::kSubmit;
  request.req_id = req_id;
  request.key = key;
  request.updates.push_back(Update::Add(size));
  return request;
}

Request MakeQuery(uint64_t req_id, const std::string& key) {
  Request request;
  request.type = MsgType::kQuery;
  request.req_id = req_id;
  request.key = key;
  return request;
}

Request MakeStats(uint64_t req_id) {
  Request request;
  request.type = MsgType::kStats;
  request.req_id = req_id;
  return request;
}

// Keys spread over both shards so the reconciliation below exercises
// cross-shard routing, not one mailbox.
std::vector<std::string> KeysCoveringBothShards(
    const serving::ServingService& service) {
  std::vector<std::string> keys;
  bool shard_seen[2] = {false, false};
  for (int i = 0; keys.size() < 4 && i < 64; ++i) {
    const std::string key = "tenant-" + std::to_string(i);
    const std::size_t shard = service.ShardOf(key);
    // First fill one key per shard, then round out to four keys.
    if (keys.size() < 2 && shard_seen[shard]) continue;
    shard_seen[shard] = true;
    keys.push_back(key);
  }
  return keys;
}

TEST(RpcServerTest, EndToEndCountsReconcileAcrossConnectionsAndShards) {
  serving::ServingConfig sconfig;
  sconfig.num_shards = 2;
  serving::ServingService service(sconfig);

  RpcServerOptions options;
  options.service = &service;
  RpcServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  const std::vector<std::string> keys = KeysCoveringBothShards(service);
  ASSERT_EQ(keys.size(), 4u);
  EXPECT_TRUE(service.ShardOf(keys[0]) != service.ShardOf(keys[1]) ||
              service.ShardOf(keys[2]) != service.ShardOf(keys[3]));

  // One connection per key: create, then a burst of adds, every one
  // individually acked with the target shard and an accepted count.
  constexpr uint64_t kAddsPerKey = 25;
  uint64_t client_accepted = 0;
  std::vector<RpcClient> clients(keys.size());
  for (std::size_t c = 0; c < keys.size(); ++c) {
    ASSERT_TRUE(clients[c].Connect("127.0.0.1", server.port(), &error))
        << error;
    Response response;
    ASSERT_TRUE(clients[c].Call(MakeCreate(1, keys[c]), &response, &error))
        << error;
    ASSERT_EQ(response.type, MsgType::kOk);
    EXPECT_EQ(response.req_id, 1u);
    EXPECT_EQ(response.shard, service.ShardOf(keys[c]));
    for (uint64_t i = 0; i < kAddsPerKey; ++i) {
      ASSERT_TRUE(clients[c].Call(MakeSubmit(2 + i, keys[c], 1 + i % 40),
                                  &response, &error))
          << error;
      ASSERT_EQ(response.type, MsgType::kOk) << "add " << i;
      EXPECT_EQ(response.req_id, 2 + i);
      client_accepted += response.accepted;
    }
  }
  EXPECT_EQ(client_accepted, kAddsPerKey * keys.size());

  // Query each key on its own connection: the probe is ordered after
  // every admitted submit of that key, so applied must already equal
  // the acked adds (all sizes fit under the capacity).
  for (std::size_t c = 0; c < keys.size(); ++c) {
    Response response;
    ASSERT_TRUE(clients[c].Call(MakeQuery(100, keys[c]), &response, &error))
        << error;
    ASSERT_EQ(response.type, MsgType::kQueryResult);
    EXPECT_EQ(response.req_id, 100u);
    EXPECT_TRUE(response.found);
    EXPECT_EQ(response.applied_updates, kAddsPerKey);
    EXPECT_EQ(response.rejected_updates, 0u);
    EXPECT_EQ(response.inputs, kAddsPerKey);
  }

  // The Stats view must reconcile exactly with the client-side acks:
  // admitted == applied once the queries above flushed behind the
  // submits.
  Response stats;
  ASSERT_TRUE(clients[0].Call(MakeStats(200), &stats, &error)) << error;
  ASSERT_EQ(stats.type, MsgType::kStatsResult);
  ASSERT_EQ(stats.shards.size(), sconfig.num_shards);
  uint64_t applied = 0;
  uint64_t rpc_accepted = 0;
  uint64_t rpc_overloaded = 0;
  for (const ShardCounts& shard : stats.shards) {
    applied += shard.applied;
    rpc_accepted += shard.rpc_accepted;
    rpc_overloaded += shard.rpc_overloaded;
  }
  EXPECT_EQ(applied, client_accepted);
  EXPECT_EQ(rpc_accepted, client_accepted);
  EXPECT_EQ(rpc_overloaded, 0u);

  server.Shutdown();
  EXPECT_FALSE(server.running());

  const RpcServerCounters counters = server.counters();
  EXPECT_EQ(counters.requests, counters.responses);
  EXPECT_EQ(counters.frame_errors, 0u);
  EXPECT_EQ(counters.overloaded, 0u);
  EXPECT_EQ(counters.connections_opened, keys.size());

  // Server-side ground truth agrees with everything the wire reported.
  const serving::ServingStats sstats = service.stats();
  EXPECT_EQ(sstats.total.updates, client_accepted);
}

TEST(RpcServerTest, PipelinedRequestsComeBackInOrder) {
  serving::ServingConfig sconfig;
  sconfig.num_shards = 2;
  serving::ServingService service(sconfig);
  RpcServerOptions options;
  options.service = &service;
  RpcServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Pipeline create + submits + a query (which parks the writer on the
  // shard worker) + stats behind it, then collect: responses must come
  // back in request order with matching ids even though the stats
  // answer was computable long before the query landed.
  RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(client.Send(MakeCreate(1, "pipelined"), &error)) << error;
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.Send(MakeSubmit(2 + i, "pipelined", 5), &error))
        << error;
  }
  ASSERT_TRUE(client.Send(MakeQuery(10, "pipelined"), &error)) << error;
  ASSERT_TRUE(client.Send(MakeStats(11), &error)) << error;

  for (uint64_t expect_id = 1; expect_id <= 11; ++expect_id) {
    Response response;
    ASSERT_TRUE(client.Recv(&response, &error)) << error;
    EXPECT_EQ(response.req_id, expect_id);
    if (expect_id == 10) {
      EXPECT_EQ(response.type, MsgType::kQueryResult);
      EXPECT_EQ(response.applied_updates, 8u);
    } else if (expect_id == 11) {
      EXPECT_EQ(response.type, MsgType::kStatsResult);
    } else {
      EXPECT_EQ(response.type, MsgType::kOk);
    }
  }
  server.Shutdown();
}

TEST(RpcServerTest, QueryForUnknownKeyReportsNotFound) {
  serving::ServingService service{serving::ServingConfig{}};
  RpcServerOptions options;
  options.service = &service;
  RpcServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  Response response;
  ASSERT_TRUE(client.Call(MakeQuery(1, "never-created"), &response, &error))
      << error;
  EXPECT_EQ(response.type, MsgType::kQueryResult);
  EXPECT_FALSE(response.found);
  server.Shutdown();
}

TEST(RpcServerTest, MidRequestDisconnectLeavesServerServing) {
  serving::ServingService service{serving::ServingConfig{}};
  RpcServerOptions options;
  options.service = &service;
  RpcServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // A client dies halfway through a frame: the server must drop the
  // connection without wedging the loop or leaking the partial bytes
  // into anyone else's stream.
  {
    RpcClient torn;
    ASSERT_TRUE(torn.Connect("127.0.0.1", server.port(), &error)) << error;
    const std::string frame =
        EncodeFrame(EncodeRequest(MakeSubmit(1, "gone", 5)));
    ASSERT_TRUE(torn.SendRaw(frame.substr(0, frame.size() / 2), &error))
        << error;
    torn.Close();
  }

  // The next client gets full service on a fresh connection.
  RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  Response response;
  ASSERT_TRUE(client.Call(MakeCreate(1, "alive"), &response, &error)) << error;
  EXPECT_EQ(response.type, MsgType::kOk);
  ASSERT_TRUE(client.Call(MakeSubmit(2, "alive", 9), &response, &error))
      << error;
  EXPECT_EQ(response.type, MsgType::kOk);
  server.Shutdown();
  EXPECT_EQ(service.stats().total.updates, 1u);
}

TEST(RpcServerTest, OversizedFrameClosesOnlyTheOffendingConnection) {
  serving::ServingService service{serving::ServingConfig{}};
  RpcServerOptions options;
  options.service = &service;
  options.max_frame_payload = 256;
  RpcServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  RpcClient offender;
  ASSERT_TRUE(offender.Connect("127.0.0.1", server.port(), &error)) << error;
  // A structurally valid frame whose length exceeds the server's cap:
  // the framing contract says close, because the stream can no longer
  // be trusted to resynchronize.
  ASSERT_TRUE(offender.SendRaw(EncodeFrame(std::string(1024, 'x')), &error))
      << error;
  Response response;
  EXPECT_FALSE(offender.Recv(&response, &error));

  RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(client.Call(MakeCreate(1, "survivor"), &response, &error))
      << error;
  EXPECT_EQ(response.type, MsgType::kOk);
  server.Shutdown();
  EXPECT_GE(server.counters().frame_errors, 1u);
}

TEST(RpcServerTest, MalformedPayloadGetsErrorAndConnectionStaysUsable) {
  serving::ServingService service{serving::ServingConfig{}};
  RpcServerOptions options;
  options.service = &service;
  RpcServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  // The frame itself is sound (magic/len/checksum all valid) but the
  // payload is not a request: kError comes back and the connection
  // keeps working — payload decode errors are the client's bug, not a
  // stream desync.
  ASSERT_TRUE(client.SendRaw(EncodeFrame("not a request"), &error)) << error;
  Response response;
  ASSERT_TRUE(client.Recv(&response, &error)) << error;
  EXPECT_EQ(response.type, MsgType::kError);
  EXPECT_FALSE(response.error.empty());

  ASSERT_TRUE(client.Call(MakeCreate(1, "still-here"), &response, &error))
      << error;
  EXPECT_EQ(response.type, MsgType::kOk);
  server.Shutdown();
  EXPECT_GE(server.counters().errors, 1u);
  EXPECT_EQ(server.counters().frame_errors, 0u);
}

TEST(RpcServerTest, CreateWithBadSpecIsRejectedWithError) {
  serving::ServingService service{serving::ServingConfig{}};
  RpcServerOptions options;
  options.service = &service;
  RpcServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  {
    Request request = MakeCreate(1, "zero-capacity", /*capacity=*/0);
    Response response;
    ASSERT_TRUE(client.Call(request, &response, &error)) << error;
    EXPECT_EQ(response.type, MsgType::kError);
  }
  {
    Request request = MakeCreate(2, "bad-policy");
    request.spec.policy.name = "no-such-policy";
    Response response;
    ASSERT_TRUE(client.Call(request, &response, &error)) << error;
    EXPECT_EQ(response.type, MsgType::kError);
  }
  {
    // kSubmit always carries exactly one update on the wire, so the
    // empty-batch rejection is only reachable through kSubmitBatch.
    Request request;
    request.type = MsgType::kSubmitBatch;
    request.req_id = 3;
    request.key = "no-updates";
    Response response;
    ASSERT_TRUE(client.Call(request, &response, &error)) << error;
    EXPECT_EQ(response.type, MsgType::kError);
  }
  server.Shutdown();
}

// Each of these specs used to abort the whole server: the policy,
// assigner and budget constructors CHECK their preconditions. The spec
// is now validated at decode, so each gets a typed kError naming the
// reason (echoing its req_id), the connection stays usable, and a
// valid Create, Submit and Query on it still work.
TEST(RpcServerTest, InvalidSpecGetsTypedErrorAndServerKeepsServing) {
  serving::ServingService service{serving::ServingConfig{}};
  RpcServerOptions options;
  options.service = &service;
  RpcServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  const std::vector<
      std::pair<const char*, std::function<void(InstanceSpec*)>>>
      invalid = {
          {"drift reducer_drift=0.5",
           [](InstanceSpec* s) { s->policy.reducer_drift = 0.5; }},
          {"every-n every_n=0",
           [](InstanceSpec* s) {
             s->policy.name = "every-n";
             s->policy.every_n = 0;
           }},
          {"capacity=2e18",
           [](InstanceSpec* s) { s->capacity = 2'000'000'000'000'000'000; }},
          {"budget window 0",
           [](InstanceSpec* s) {
             s->budget.bytes_per_window = 10;
             s->budget.window_updates = 0;
           }},
          {"drift reducer_drift=NaN",
           [](InstanceSpec* s) {
             s->policy.reducer_drift =
                 std::numeric_limits<double>::quiet_NaN();
           }},
      };
  uint64_t req_id = 0;
  Response response;
  for (const auto& [name, mutate] : invalid) {
    Request request = MakeCreate(++req_id, std::string("bad ") + name);
    mutate(&request.spec);
    ASSERT_TRUE(client.Call(request, &response, &error)) << error;
    EXPECT_EQ(response.type, MsgType::kError) << name;
    EXPECT_EQ(response.req_id, req_id) << name;
    EXPECT_NE(response.error.find("invalid instance spec"), std::string::npos)
        << name << ": " << response.error;
  }

  ASSERT_TRUE(client.Call(MakeCreate(++req_id, "good"), &response, &error))
      << error;
  EXPECT_EQ(response.type, MsgType::kOk);
  ASSERT_TRUE(client.Call(MakeSubmit(++req_id, "good", 30), &response,
                          &error))
      << error;
  EXPECT_EQ(response.type, MsgType::kOk);
  ASSERT_TRUE(client.Call(MakeQuery(++req_id, "good"), &response, &error))
      << error;
  ASSERT_EQ(response.type, MsgType::kQueryResult);
  EXPECT_TRUE(response.found);
  EXPECT_EQ(response.applied_updates, 1u);
  server.Shutdown();
  EXPECT_EQ(server.counters().errors, invalid.size());
}

// A churn budget cannot ride a WAL (the changelog logs in apply
// order, which deferral would reorder): the create is refused with a
// typed error instead of the budget being dropped.
TEST(RpcServerTest, BudgetedCreateOnWalServiceGetsTypedError) {
  MemFileSystem fs;
  serving::ServingService service{serving::ServingConfig{}};
  durability::WalOptions wal;
  wal.dir = "wal";
  wal.fs = &fs;
  std::string error;
  ASSERT_TRUE(service.AttachWal(wal, &error)) << error;
  RpcServerOptions options;
  options.service = &service;
  RpcServer server(options);
  ASSERT_TRUE(server.Start(&error)) << error;
  RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  Request budgeted = MakeCreate(1, "budgeted");
  budgeted.spec.budget.bytes_per_window = 1000;
  Response response;
  ASSERT_TRUE(client.Call(budgeted, &response, &error)) << error;
  EXPECT_EQ(response.type, MsgType::kError);
  EXPECT_NE(response.error.find("WAL"), std::string::npos) << response.error;
  ASSERT_TRUE(client.Call(MakeCreate(2, "plain"), &response, &error))
      << error;
  EXPECT_EQ(response.type, MsgType::kOk);
  server.Shutdown();
  service.Flush();
  std::vector<std::string> keys;
  service.ForEachInstance(
      [&keys](const std::string& key, const online::OnlineAssigner&) {
        keys.push_back(key);
      });
  EXPECT_EQ(keys, std::vector<std::string>{"plain"});
}

// The headline backpressure contract: a wedged shard surfaces as typed
// kOverloaded verdicts at the admission edge — with the observed depth
// and the limit — never as unbounded queue growth, and every update
// that WAS acked is applied once the wedge lifts.
TEST(RpcServerTest, WedgedShardBouncesSubmitsWithOverloadedVerdicts) {
  serving::ServingConfig sconfig;
  sconfig.num_shards = 1;
  serving::ServingService service(sconfig);

  RpcServerOptions options;
  options.service = &service;
  options.max_mailbox_depth = 4;
  RpcServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  Response response;
  ASSERT_TRUE(client.Call(MakeCreate(1, "wedged"), &response, &error))
      << error;
  ASSERT_EQ(response.type, MsgType::kOk);

  // Wedge the (only) shard: every applied update now takes 5ms, while
  // the closed client loop turns around in microseconds.
  service.InjectApplyDelayForTest(0, 5000);
  uint64_t accepted = 0;
  uint64_t overloaded = 0;
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(client.Call(MakeSubmit(10 + i, "wedged", 3), &response,
                            &error))
        << error;
    if (response.type == MsgType::kOk) {
      accepted += response.accepted;
    } else {
      ASSERT_EQ(response.type, MsgType::kOverloaded);
      ++overloaded;
      EXPECT_EQ(response.depth_limit, options.max_mailbox_depth);
      EXPECT_GE(response.queue_depth, options.max_mailbox_depth);
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(overloaded, 0u);

  // Lift the wedge; shutdown drains every admitted task.
  service.InjectApplyDelayForTest(0, 0);
  server.Shutdown();

  EXPECT_EQ(server.counters().overloaded, overloaded);
  // Exactly what was acked got applied — overload bounces were never
  // enqueued, accepted submits were never dropped.
  EXPECT_EQ(service.stats().total.updates, accepted);
}

TEST(RpcServerTest, ShutdownIsIdempotentAndStartReportsBindFailure) {
  serving::ServingService service{serving::ServingConfig{}};
  RpcServerOptions options;
  options.service = &service;
  RpcServer first(options);
  std::string error;
  ASSERT_TRUE(first.Start(&error)) << error;

  // Binding a second server to the same explicit port must fail
  // cleanly with a readable error, leaving the first untouched.
  RpcServerOptions clash = options;
  clash.port = first.port();
  RpcServer second(clash);
  EXPECT_FALSE(second.Start(&error));
  EXPECT_FALSE(error.empty());

  first.Shutdown();
  first.Shutdown();  // idempotent
  EXPECT_FALSE(first.running());
}

}  // namespace
}  // namespace msp::rpc
