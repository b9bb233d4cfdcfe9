// Wire protocol of the network front door (rpc/server.h).
//
// The server speaks a small length-prefixed binary protocol over TCP:
// a stream of self-delimiting frames, each carrying one request or one
// response message. The frame layout reuses the snapshot/changelog
// framing idiom (durability/changelog.h): a magic, a version, and an
// FNV-1a checksum over the payload, so torn and corrupted frames are
// detected at the boundary instead of desynchronizing the stream.
//
//   frame := magic u32 ("MRPC") | version u32 | len u32
//          | fnv1a(payload) u64 | payload (len bytes)
//
// `len` is capped (kMaxFramePayload) so a corrupt or hostile length
// can never provoke a giant allocation — an oversized frame is a
// protocol error and the connection is closed. Everything is
// little-endian via util/binary_io.h, platform independent.
//
// A payload is one message: `type u8 | req_id u64 | body`. The client
// chooses req_id; the server echoes it on the response, so a client
// may pipeline requests on one connection and match responses by id
// (responses to one connection always come back in request order).
//
// Requests: CreateInstance (key + InstanceSpec), Submit (key + one
// update), SubmitBatch (key + window of updates + batch size), Query
// (key; answered from the shard worker, ordered after every earlier
// submit of that key on any connection), Stats (whole-service counter
// snapshot). Updates travel in *trace-side* id form, exactly like the
// CLI replay format: instances are created with translate_trace_ids,
// so remove/resize targets are translated through the add history.
//
// Responses: Ok (ack: shard + accepted count), Overloaded (typed
// backpressure verdict: the target shard's mailbox depth and the
// admission limit — the request was NOT enqueued; retry later),
// QueryResult, StatsResult, Error (malformed or unserviceable
// request; the connection stays usable unless framing itself broke).

#ifndef MSP_RPC_PROTOCOL_H_
#define MSP_RPC_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "online/spec.h"
#include "online/trace.h"

namespace msp::rpc {

/// "MRPC", little-endian.
inline constexpr uint32_t kFrameMagic = 0x4350524du;
/// Version 2 carries the full InstanceSpec on kCreateInstance.
inline constexpr uint32_t kProtocolVersion = 2;
/// magic + version + len + checksum.
inline constexpr std::size_t kFrameHeaderSize = 4 + 4 + 4 + 8;
/// Hard cap on one frame's payload: bounds per-connection memory and
/// rejects corrupt lengths before any allocation happens.
inline constexpr uint32_t kMaxFramePayload = 1u << 20;
/// Cap on updates in one SubmitBatch (fits comfortably in a frame).
inline constexpr uint32_t kMaxBatchUpdates = 32768;

enum class MsgType : uint8_t {
  // Requests.
  kCreateInstance = 0,
  kSubmit = 1,
  kSubmitBatch = 2,
  kQuery = 3,
  kStats = 4,
  // Responses.
  kOk = 16,
  kOverloaded = 17,
  kQueryResult = 18,
  kStatsResult = 19,
  kError = 20,
};

/// Everything a remote client may configure on a new instance: the
/// one instance spec (online/spec.h), in its one codec. A spec that
/// fails Validate() is refused at decode with a kError.
using InstanceSpec = online::InstanceSpec;

struct Request {
  MsgType type = MsgType::kSubmit;
  uint64_t req_id = 0;
  std::string key;                       // all but kStats
  InstanceSpec spec;                     // kCreateInstance
  std::vector<online::Update> updates;   // kSubmit (1) / kSubmitBatch
  uint32_t batch_size = 0;               // kSubmitBatch policy window
};

/// Per-shard slice of a kStatsResult.
struct ShardCounts {
  uint64_t applied = 0;        // updates applied by the shard's workers
  uint64_t rejected = 0;       // infeasible updates refused
  uint64_t skipped = 0;        // unknown/rejected trace ids
  uint64_t deferred_pending = 0;  // budget queue occupancy right now
  uint64_t queue_depth = 0;    // mailbox depth right now
  uint64_t rpc_accepted = 0;   // updates admitted over RPC
  uint64_t rpc_overloaded = 0; // submits bounced by admission control

  bool operator==(const ShardCounts&) const = default;
};

struct Response {
  MsgType type = MsgType::kOk;
  uint64_t req_id = 0;
  // kOk: where the work went.
  uint32_t shard = 0;
  uint64_t accepted = 0;       // updates enqueued by this request
  // kOverloaded: the admission verdict.
  uint64_t queue_depth = 0;
  uint64_t depth_limit = 0;
  // kQueryResult.
  bool found = false;
  uint64_t inputs = 0;
  uint64_t reducers = 0;
  uint64_t capacity = 0;
  uint64_t applied_updates = 0;
  uint64_t rejected_updates = 0;
  uint64_t deferred_pending = 0;  // budgeted instances: queued events
  // kStatsResult.
  std::vector<ShardCounts> shards;
  // kError.
  std::string error;
};

/// Wraps `payload` in one frame (header + checksum + payload).
std::string EncodeFrame(std::string_view payload);

enum class FrameStatus : uint8_t {
  kNeedMore,  // `buffer` holds a valid but incomplete prefix
  kFrame,     // one whole frame decoded; *frame_size consumed
  kBad,       // framing broken (magic/version/len/checksum) — close
};

/// Incremental decode of the first frame in `buffer`. On kFrame,
/// `*payload` views the payload bytes inside `buffer` and
/// `*frame_size` is the total frame length to consume. On kBad,
/// `*error` says why. `max_payload` lets tests/servers tighten the
/// global cap.
FrameStatus DecodeFrame(std::string_view buffer, std::size_t* frame_size,
                        std::string_view* payload, std::string* error,
                        uint32_t max_payload = kMaxFramePayload);

std::string EncodeRequest(const Request& request);
bool DecodeRequest(std::string_view payload, Request* request,
                   std::string* error);

std::string EncodeResponse(const Response& response);
bool DecodeResponse(std::string_view payload, Response* response,
                    std::string* error);

/// Human-readable message-type name for metrics labels and errors.
std::string_view MsgTypeName(MsgType type);

}  // namespace msp::rpc

#endif  // MSP_RPC_PROTOCOL_H_
