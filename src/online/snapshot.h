// Binary snapshot / restore of an OnlineAssigner.
//
// A serving node that dies mid-stream should not have to replay the
// full update trace to rebuild its live schemas. A snapshot captures
// everything a bit-identical continuation needs:
//
//  * the assigner configuration, as its InstanceSpec (spec.h) in the
//    one spec codec;
//  * the live state (current capacity, sizes, sides, alive flags, the
//    alive-id index *in its exact swap-pop order* — the repair engine's
//    partner scans iterate it, so the order shapes every later repair —
//    and the reducer member lists);
//  * the lifetime counters (churn ledger, update/repair/replan counts,
//    drift clock, hysteresis memory, last measured matching gap);
//  * an optional replay cursor (next trace event + the trace-id ->
//    live-id translation built so far) so a CLI replay can resume.
//
// Loads and pair coverage are derived state and are rebuilt on
// restore. The format is versioned and checksummed (FNV-1a over the
// payload); truncated, corrupted, or alien files are rejected with an
// error message, never a crash. Policies supplied as live objects
// (OnlineConfig::policy) are not serializable — snapshot flows must
// configure policies through OnlineConfig::policy_spec.

#ifndef MSP_ONLINE_SNAPSHOT_H_
#define MSP_ONLINE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "online/assigner.h"
#include "planner/service.h"

namespace msp::online {

/// Current snapshot format version. Version 2 added the rotation
/// epoch (see below); version 3 stores the config as an InstanceSpec
/// and the last matching gap. Older files are rejected with a clear
/// error.
inline constexpr uint32_t kSnapshotVersion = 3;

/// Where a trace replay stood when the snapshot was taken. `next_event`
/// indexes into UpdateTrace::updates; `live_of_trace` maps each `add`
/// event seen so far to the live id it received (nullopt = rejected).
struct ReplayCursor {
  uint64_t next_event = 0;
  std::vector<std::optional<InputId>> live_of_trace;

  bool operator==(const ReplayCursor&) const = default;
};

/// Serializer/deserializer for assigner snapshots (friend of
/// OnlineAssigner; stateless, all methods static).
class SnapshotCodec {
 public:
  struct Restored {
    std::unique_ptr<OnlineAssigner> assigner;
    ReplayCursor cursor;
    /// Rotation epoch the snapshot was cut at (0 = standalone, no
    /// paired changelog). A snapshot at epoch e pairs with changelog
    /// epoch e: restore flows that replay a changelog must reject a
    /// mismatched pair — in particular a snapshot *newer* than its
    /// changelog, which would silently lose the tail (see
    /// durability/changelog.h).
    uint64_t epoch = 0;
  };

  /// Renders the assigner (plus a replay cursor, when resuming traces
  /// matters, and the rotation epoch pairing it with a changelog) into
  /// the versioned binary format.
  static std::string Serialize(const OnlineAssigner& assigner,
                               const ReplayCursor& cursor = {},
                               uint64_t epoch = 0);

  /// Parses and validates `bytes`. On failure returns nullopt and sets
  /// `*error`. `shared_planner` (optional) replaces the restored
  /// assigner's private planner, e.g. to rejoin a ServingService pool.
  static std::optional<Restored> Restore(
      std::string_view bytes, std::string* error = nullptr,
      std::shared_ptr<planner::PlannerService> shared_planner = nullptr);
};

/// Convenience file wrappers. WriteSnapshotFile returns false and sets
/// `*error` on I/O failure; ReadSnapshotFile layers file errors on top
/// of SnapshotCodec::Restore's format errors.
bool WriteSnapshotFile(const std::string& path,
                       const OnlineAssigner& assigner,
                       const ReplayCursor& cursor = {},
                       std::string* error = nullptr, uint64_t epoch = 0);
std::optional<SnapshotCodec::Restored> ReadSnapshotFile(
    const std::string& path, std::string* error = nullptr,
    std::shared_ptr<planner::PlannerService> shared_planner = nullptr);

}  // namespace msp::online

#endif  // MSP_ONLINE_SNAPSHOT_H_
