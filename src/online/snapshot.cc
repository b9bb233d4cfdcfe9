#include "online/snapshot.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "online/spec.h"
#include "util/binary_io.h"
#include "util/fnv.h"

namespace msp::online {

namespace {

using Reader = BinaryReader;

constexpr char kMagic[8] = {'M', 'S', 'P', 'S', 'N', 'A', 'P', '1'};

void PutChurn(std::string* out, const ChurnStats& churn) {
  PutU64(out, churn.inputs_moved);
  PutU64(out, churn.inputs_dropped);
  PutU64(out, churn.bytes_moved);
  PutU64(out, churn.reducers_created);
  PutU64(out, churn.reducers_destroyed);
}

bool GetChurn(Reader* in, ChurnStats* churn) {
  return in->GetU64(&churn->inputs_moved) &&
         in->GetU64(&churn->inputs_dropped) &&
         in->GetU64(&churn->bytes_moved) &&
         in->GetU64(&churn->reducers_created) &&
         in->GetU64(&churn->reducers_destroyed);
}

// Guards against absurd counts from corrupted length fields before any
// large allocation happens.
constexpr uint64_t kMaxCount = uint64_t{1} << 32;

}  // namespace

std::string SnapshotCodec::Serialize(const OnlineAssigner& assigner,
                                     const ReplayCursor& cursor,
                                     uint64_t epoch) {
  const LiveState& state = assigner.state_;

  std::string payload;
  // --- rotation epoch (first payload field, so the checksum covers
  // it — a flipped epoch must not defeat stale-pair detection) ---
  PutU64(&payload, epoch);
  // --- configuration ---
  PutSpec(&payload, InstanceSpec::Of(assigner.config_));

  // --- live state ---
  PutU64(&payload, state.capacity);
  PutU64(&payload, state.sizes.size());
  for (InputSize w : state.sizes) PutU64(&payload, w);
  for (Side side : state.sides) PutU8(&payload, static_cast<uint8_t>(side));
  for (bool a : state.alive) PutU8(&payload, a ? 1 : 0);
  PutU64(&payload, state.alive_ids.size());
  for (InputId id : state.alive_ids) PutU32(&payload, id);
  PutU64(&payload, state.reducers.size());
  for (const Reducer& reducer : state.reducers) {
    PutU64(&payload, reducer.size());
    for (InputId id : reducer) PutU32(&payload, id);
  }

  // --- counters ---
  PutU64(&payload, assigner.totals_.updates);
  PutU64(&payload, assigner.totals_.rejected);
  PutU64(&payload, assigner.totals_.repairs);
  PutU64(&payload, assigner.totals_.replans);
  PutChurn(&payload, assigner.totals_.churn);
  PutU64(&payload, assigner.updates_since_replan_);
  PutU64(&payload, assigner.updates_since_decision_);
  PutU64(&payload, assigner.last_fresh_reducers_);
  PutU64(&payload, assigner.last_matching_gap_bytes_);

  // --- replay cursor ---
  PutU64(&payload, cursor.next_event);
  PutU64(&payload, cursor.live_of_trace.size());
  for (const std::optional<InputId>& id : cursor.live_of_trace) {
    PutU8(&payload, id.has_value() ? 1 : 0);
    PutU32(&payload, id.value_or(0));
  }

  std::string bytes;
  bytes.reserve(sizeof(kMagic) + 20 + payload.size());
  bytes.append(kMagic, sizeof(kMagic));
  PutU32(&bytes, kSnapshotVersion);
  PutU64(&bytes, payload.size());
  bytes.append(payload);
  PutU64(&bytes, Fnv1a(payload));
  return bytes;
}

std::optional<SnapshotCodec::Restored> SnapshotCodec::Restore(
    std::string_view bytes, std::string* error,
    std::shared_ptr<planner::PlannerService> shared_planner) {
  const auto fail = [error](const std::string& why)
      -> std::optional<SnapshotCodec::Restored> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };

  if (bytes.size() < sizeof(kMagic) + 12) return fail("snapshot truncated");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return fail("not a snapshot file (bad magic)");
  }
  Reader header(bytes.substr(sizeof(kMagic)));
  uint32_t version = 0;
  uint64_t payload_size = 0;
  if (!header.GetU32(&version)) return fail("snapshot truncated");
  if (version != kSnapshotVersion) {
    return fail("unsupported snapshot version " + std::to_string(version));
  }
  if (!header.GetU64(&payload_size)) return fail("snapshot truncated");
  const std::size_t payload_at = sizeof(kMagic) + header.pos();
  if (payload_size + 8 != bytes.size() - payload_at) {
    return fail("snapshot truncated (payload size mismatch)");
  }
  const std::string_view payload = bytes.substr(payload_at, payload_size);
  Reader footer(bytes.substr(payload_at + payload_size));
  uint64_t checksum = 0;
  if (!footer.GetU64(&checksum)) return fail("snapshot truncated");
  if (checksum != Fnv1a(payload)) {
    return fail("snapshot corrupted (checksum mismatch)");
  }

  Reader in(payload);
  uint64_t epoch = 0;
  if (!in.GetU64(&epoch)) {
    return fail("snapshot payload truncated (epoch)");
  }
  InstanceSpec spec;
  std::string why;
  if (!GetSpec(&in, &spec, &why)) {
    return fail("snapshot config rejected: " + why);
  }
  if (spec.budget.bytes_per_window != 0) {
    // The budget wraps the assigner; its deferral queue is not
    // snapshotted, so a budgeted spec cannot be restored faithfully.
    return fail("snapshot config holds a churn budget");
  }

  uint64_t capacity = 0;
  uint64_t num_inputs = 0;
  if (!in.GetU64(&capacity) || !in.GetU64(&num_inputs)) {
    return fail("snapshot payload truncated (state header)");
  }
  if (capacity == 0 || capacity > kMaxCapacity) {
    return fail("snapshot corrupted (capacity out of range)");
  }
  if (num_inputs > kMaxCount) {
    return fail("snapshot corrupted (input count out of range)");
  }

  std::vector<InputSize> sizes(num_inputs);
  std::vector<Side> sides(num_inputs);
  std::vector<bool> alive(num_inputs);
  for (uint64_t i = 0; i < num_inputs; ++i) {
    if (!in.GetU64(&sizes[i])) return fail("snapshot truncated (sizes)");
    if (sizes[i] == 0) return fail("snapshot corrupted (zero size)");
  }
  for (uint64_t i = 0; i < num_inputs; ++i) {
    uint8_t side = 0;
    if (!in.GetU8(&side)) return fail("snapshot truncated (sides)");
    if (side > 1) return fail("snapshot corrupted (side out of range)");
    sides[i] = static_cast<Side>(side);
  }
  uint64_t num_alive = 0;
  for (uint64_t i = 0; i < num_inputs; ++i) {
    uint8_t flag = 0;
    if (!in.GetU8(&flag)) return fail("snapshot truncated (alive)");
    if (flag > 1) return fail("snapshot corrupted (alive flag)");
    alive[i] = flag != 0;
    num_alive += flag;
  }

  uint64_t alive_count = 0;
  if (!in.GetU64(&alive_count)) return fail("snapshot truncated");
  if (alive_count != num_alive) {
    return fail("snapshot corrupted (alive index disagrees with flags)");
  }
  std::vector<InputId> alive_ids(alive_count);
  std::vector<uint32_t> alive_pos(num_inputs, LiveState::kNoPos);
  for (uint64_t i = 0; i < alive_count; ++i) {
    if (!in.GetU32(&alive_ids[i])) return fail("snapshot truncated");
    if (alive_ids[i] >= num_inputs || !alive[alive_ids[i]] ||
        alive_pos[alive_ids[i]] != LiveState::kNoPos) {
      return fail("snapshot corrupted (alive index entry)");
    }
    alive_pos[alive_ids[i]] = static_cast<uint32_t>(i);
  }

  uint64_t num_reducers = 0;
  if (!in.GetU64(&num_reducers) || num_reducers > kMaxCount) {
    return fail("snapshot corrupted (reducer count)");
  }
  std::vector<Reducer> reducers(num_reducers);
  for (uint64_t r = 0; r < num_reducers; ++r) {
    uint64_t members = 0;
    if (!in.GetU64(&members) || members > num_inputs) {
      return fail("snapshot corrupted (reducer size)");
    }
    reducers[r].resize(members);
    for (uint64_t i = 0; i < members; ++i) {
      if (!in.GetU32(&reducers[r][i])) {
        return fail("snapshot truncated (reducer members)");
      }
      if (reducers[r][i] >= num_inputs || !alive[reducers[r][i]]) {
        return fail("snapshot corrupted (reducer references a dead input)");
      }
    }
  }

  OnlineTotals totals;
  uint64_t updates_since_replan = 0;
  uint64_t updates_since_decision = 0;
  uint64_t last_fresh_reducers = 0;
  uint64_t last_matching_gap_bytes = 0;
  if (!in.GetU64(&totals.updates) || !in.GetU64(&totals.rejected) ||
      !in.GetU64(&totals.repairs) || !in.GetU64(&totals.replans) ||
      !GetChurn(&in, &totals.churn) || !in.GetU64(&updates_since_replan) ||
      !in.GetU64(&updates_since_decision) ||
      !in.GetU64(&last_fresh_reducers) ||
      !in.GetU64(&last_matching_gap_bytes)) {
    return fail("snapshot payload truncated (counters)");
  }

  ReplayCursor cursor;
  uint64_t translation_count = 0;
  if (!in.GetU64(&cursor.next_event) || !in.GetU64(&translation_count) ||
      translation_count > kMaxCount) {
    return fail("snapshot payload truncated (replay cursor)");
  }
  cursor.live_of_trace.reserve(translation_count);
  for (uint64_t i = 0; i < translation_count; ++i) {
    uint8_t has = 0;
    uint32_t id = 0;
    if (!in.GetU8(&has) || !in.GetU32(&id) || has > 1) {
      return fail("snapshot corrupted (replay translation)");
    }
    cursor.live_of_trace.push_back(
        has != 0 ? std::optional<InputId>(id) : std::nullopt);
  }
  if (!in.exhausted()) {
    return fail("snapshot corrupted (trailing payload bytes)");
  }

  OnlineConfig config = spec.ToOnlineConfig();
  config.shared_planner = std::move(shared_planner);
  Restored restored;
  restored.assigner = std::make_unique<OnlineAssigner>(config);
  restored.cursor = std::move(cursor);
  restored.epoch = epoch;
  OnlineAssigner& assigner = *restored.assigner;
  assigner.state_.capacity = capacity;
  assigner.state_.sizes = std::move(sizes);
  assigner.state_.sides = std::move(sides);
  assigner.state_.alive = std::move(alive);
  assigner.state_.alive_ids = std::move(alive_ids);
  assigner.state_.alive_pos = std::move(alive_pos);
  assigner.state_.reducers = std::move(reducers);
  assigner.state_.RebuildDerived();
  for (const Reducer& reducer : assigner.state_.reducers) {
    // RebuildDerived sorted the members; duplicates would double-count
    // loads and coverage.
    if (std::adjacent_find(reducer.begin(), reducer.end()) != reducer.end()) {
      return fail("snapshot corrupted (duplicate reducer member)");
    }
  }
  for (InputSize load : assigner.state_.loads) {
    if (load > assigner.state_.capacity) {
      return fail("snapshot corrupted (reducer overflows capacity)");
    }
  }
  assigner.totals_ = totals;
  assigner.updates_since_replan_ = updates_since_replan;
  assigner.updates_since_decision_ = updates_since_decision;
  assigner.last_fresh_reducers_ = last_fresh_reducers;
  assigner.last_matching_gap_bytes_ = last_matching_gap_bytes;
  return std::optional<Restored>(std::move(restored));
}

bool WriteSnapshotFile(const std::string& path,
                       const OnlineAssigner& assigner,
                       const ReplayCursor& cursor, std::string* error,
                       uint64_t epoch) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  const std::string bytes = SnapshotCodec::Serialize(assigner, cursor, epoch);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) {
    if (error != nullptr) *error = "short write to " + path;
    return false;
  }
  return true;
}

std::optional<SnapshotCodec::Restored> ReadSnapshotFile(
    const std::string& path, std::string* error,
    std::shared_ptr<planner::PlannerService> shared_planner) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return SnapshotCodec::Restore(buffer.str(), error,
                                std::move(shared_planner));
}

}  // namespace msp::online
