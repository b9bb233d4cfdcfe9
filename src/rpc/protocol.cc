#include "rpc/protocol.h"

#include "online/spec.h"
#include "util/binary_io.h"
#include "util/fnv.h"

namespace msp::rpc {

namespace {

constexpr uint64_t kMaxKeyLen = 4096;
constexpr uint64_t kMaxErrorLen = 4096;
constexpr uint32_t kMaxStatsShards = 65536;

bool IsRequestType(MsgType type) {
  switch (type) {
    case MsgType::kCreateInstance:
    case MsgType::kSubmit:
    case MsgType::kSubmitBatch:
    case MsgType::kQuery:
    case MsgType::kStats:
      return true;
    default:
      return false;
  }
}

bool IsResponseType(MsgType type) {
  switch (type) {
    case MsgType::kOk:
    case MsgType::kOverloaded:
    case MsgType::kQueryResult:
    case MsgType::kStatsResult:
    case MsgType::kError:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::string_view MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kCreateInstance: return "create_instance";
    case MsgType::kSubmit: return "submit";
    case MsgType::kSubmitBatch: return "submit_batch";
    case MsgType::kQuery: return "query";
    case MsgType::kStats: return "stats";
    case MsgType::kOk: return "ok";
    case MsgType::kOverloaded: return "overloaded";
    case MsgType::kQueryResult: return "query_result";
    case MsgType::kStatsResult: return "stats_result";
    case MsgType::kError: return "error";
  }
  return "unknown";
}

std::string EncodeFrame(std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  PutU32(&frame, kFrameMagic);
  PutU32(&frame, kProtocolVersion);
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU64(&frame, Fnv1a(payload));
  frame.append(payload);
  return frame;
}

FrameStatus DecodeFrame(std::string_view buffer, std::size_t* frame_size,
                        std::string_view* payload, std::string* error,
                        uint32_t max_payload) {
  if (buffer.size() < kFrameHeaderSize) {
    // The magic and version are still checkable on whatever prefix we
    // have: a stream that opens with garbage is broken now, not after
    // 20 bytes trickle in.
    BinaryReader head(buffer);
    uint32_t magic = 0;
    if (buffer.size() >= 4 && head.GetU32(&magic) && magic != kFrameMagic) {
      *error = "bad frame magic";
      return FrameStatus::kBad;
    }
    return FrameStatus::kNeedMore;
  }
  BinaryReader in(buffer);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t len = 0;
  uint64_t checksum = 0;
  if (!in.GetU32(&magic) || !in.GetU32(&version) || !in.GetU32(&len) ||
      !in.GetU64(&checksum)) {
    return FrameStatus::kNeedMore;  // unreachable given the size check
  }
  if (magic != kFrameMagic) {
    *error = "bad frame magic";
    return FrameStatus::kBad;
  }
  if (version != kProtocolVersion) {
    *error = "unsupported protocol version " + std::to_string(version);
    return FrameStatus::kBad;
  }
  if (len > max_payload) {
    *error = "frame payload " + std::to_string(len) + " exceeds cap " +
             std::to_string(max_payload);
    return FrameStatus::kBad;
  }
  if (buffer.size() < kFrameHeaderSize + len) return FrameStatus::kNeedMore;
  const std::string_view body = buffer.substr(kFrameHeaderSize, len);
  if (Fnv1a(body) != checksum) {
    *error = "frame checksum mismatch";
    return FrameStatus::kBad;
  }
  *frame_size = kFrameHeaderSize + len;
  *payload = body;
  return FrameStatus::kFrame;
}

std::string EncodeRequest(const Request& request) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(request.type));
  PutU64(&payload, request.req_id);
  switch (request.type) {
    case MsgType::kCreateInstance:
      PutString(&payload, request.key);
      online::PutSpec(&payload, request.spec);
      break;
    case MsgType::kSubmit:
      PutString(&payload, request.key);
      online::PutUpdate(&payload, request.updates.empty()
                                      ? online::Update{}
                                      : request.updates[0]);
      break;
    case MsgType::kSubmitBatch:
      PutString(&payload, request.key);
      PutU32(&payload, request.batch_size);
      PutU32(&payload, static_cast<uint32_t>(request.updates.size()));
      for (const online::Update& update : request.updates) {
        online::PutUpdate(&payload, update);
      }
      break;
    case MsgType::kQuery:
      PutString(&payload, request.key);
      break;
    case MsgType::kStats:
      break;
    default:
      break;  // encoding a response type as a request is a caller bug
  }
  return payload;
}

bool DecodeRequest(std::string_view payload, Request* request,
                   std::string* error) {
  BinaryReader in(payload);
  uint8_t type = 0;
  if (!in.GetU8(&type) || !in.GetU64(&request->req_id)) {
    *error = "request header truncated";
    return false;
  }
  request->type = static_cast<MsgType>(type);
  if (!IsRequestType(request->type)) {
    *error = "unknown request type " + std::to_string(type);
    return false;
  }
  request->key.clear();
  request->updates.clear();
  request->batch_size = 0;
  switch (request->type) {
    case MsgType::kCreateInstance:
      if (!in.GetString(&request->key, kMaxKeyLen)) {
        *error = "request key truncated";
        return false;
      }
      if (!online::GetSpec(&in, &request->spec, error)) return false;
      break;
    case MsgType::kSubmit: {
      online::Update update;
      if (!in.GetString(&request->key, kMaxKeyLen)) {
        *error = "request key truncated";
        return false;
      }
      if (!online::GetUpdate(&in, &update, error)) return false;
      request->updates.push_back(update);
      break;
    }
    case MsgType::kSubmitBatch: {
      uint32_t count = 0;
      if (!in.GetString(&request->key, kMaxKeyLen) ||
          !in.GetU32(&request->batch_size) || !in.GetU32(&count)) {
        *error = "batch header truncated";
        return false;
      }
      if (count > kMaxBatchUpdates) {
        *error = "batch of " + std::to_string(count) + " exceeds cap";
        return false;
      }
      request->updates.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        online::Update update;
        if (!online::GetUpdate(&in, &update, error)) return false;
        request->updates.push_back(update);
      }
      break;
    }
    case MsgType::kQuery:
      if (!in.GetString(&request->key, kMaxKeyLen)) {
        *error = "request key truncated";
        return false;
      }
      break;
    case MsgType::kStats:
      break;
    default:
      return false;  // unreachable: IsRequestType filtered
  }
  if (!in.exhausted()) {
    *error = "trailing bytes after request";
    return false;
  }
  return true;
}

std::string EncodeResponse(const Response& response) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(response.type));
  PutU64(&payload, response.req_id);
  switch (response.type) {
    case MsgType::kOk:
      PutU32(&payload, response.shard);
      PutU64(&payload, response.accepted);
      break;
    case MsgType::kOverloaded:
      PutU32(&payload, response.shard);
      PutU64(&payload, response.queue_depth);
      PutU64(&payload, response.depth_limit);
      break;
    case MsgType::kQueryResult:
      PutU32(&payload, response.shard);
      PutU8(&payload, response.found ? 1 : 0);
      PutU64(&payload, response.inputs);
      PutU64(&payload, response.reducers);
      PutU64(&payload, response.capacity);
      PutU64(&payload, response.applied_updates);
      PutU64(&payload, response.rejected_updates);
      PutU64(&payload, response.deferred_pending);
      break;
    case MsgType::kStatsResult:
      PutU32(&payload, static_cast<uint32_t>(response.shards.size()));
      for (const ShardCounts& s : response.shards) {
        PutU64(&payload, s.applied);
        PutU64(&payload, s.rejected);
        PutU64(&payload, s.skipped);
        PutU64(&payload, s.deferred_pending);
        PutU64(&payload, s.queue_depth);
        PutU64(&payload, s.rpc_accepted);
        PutU64(&payload, s.rpc_overloaded);
      }
      break;
    case MsgType::kError:
      PutString(&payload, response.error);
      break;
    default:
      break;
  }
  return payload;
}

bool DecodeResponse(std::string_view payload, Response* response,
                    std::string* error) {
  BinaryReader in(payload);
  uint8_t type = 0;
  if (!in.GetU8(&type) || !in.GetU64(&response->req_id)) {
    *error = "response header truncated";
    return false;
  }
  response->type = static_cast<MsgType>(type);
  if (!IsResponseType(response->type)) {
    *error = "unknown response type " + std::to_string(type);
    return false;
  }
  uint8_t flag = 0;
  switch (response->type) {
    case MsgType::kOk:
      if (!in.GetU32(&response->shard) || !in.GetU64(&response->accepted)) {
        *error = "ok response truncated";
        return false;
      }
      break;
    case MsgType::kOverloaded:
      if (!in.GetU32(&response->shard) ||
          !in.GetU64(&response->queue_depth) ||
          !in.GetU64(&response->depth_limit)) {
        *error = "overload response truncated";
        return false;
      }
      break;
    case MsgType::kQueryResult:
      if (!in.GetU32(&response->shard) || !in.GetU8(&flag) ||
          !in.GetU64(&response->inputs) || !in.GetU64(&response->reducers) ||
          !in.GetU64(&response->capacity) ||
          !in.GetU64(&response->applied_updates) ||
          !in.GetU64(&response->rejected_updates) ||
          !in.GetU64(&response->deferred_pending)) {
        *error = "query response truncated";
        return false;
      }
      response->found = flag != 0;
      break;
    case MsgType::kStatsResult: {
      uint32_t count = 0;
      if (!in.GetU32(&count) || count > kMaxStatsShards) {
        *error = "stats response truncated";
        return false;
      }
      response->shards.assign(count, {});
      for (ShardCounts& s : response->shards) {
        if (!in.GetU64(&s.applied) || !in.GetU64(&s.rejected) ||
            !in.GetU64(&s.skipped) || !in.GetU64(&s.deferred_pending) ||
            !in.GetU64(&s.queue_depth) || !in.GetU64(&s.rpc_accepted) ||
            !in.GetU64(&s.rpc_overloaded)) {
          *error = "stats response truncated";
          return false;
        }
      }
      break;
    }
    case MsgType::kError:
      if (!in.GetString(&response->error, kMaxErrorLen)) {
        *error = "error response truncated";
        return false;
      }
      break;
    default:
      return false;
  }
  if (!in.exhausted()) {
    *error = "trailing bytes after response";
    return false;
  }
  return true;
}

}  // namespace msp::rpc
