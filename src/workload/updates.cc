#include "workload/updates.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace msp::wl {

namespace {

using online::Side;
using online::Update;
using online::UpdateTrace;

// Mirror of the assigner's alive set while emitting, so the generator
// can pick valid remove/resize targets and keep feasibility.
struct AliveMirror {
  std::vector<InputId> ids;
  std::vector<InputSize> sizes;
  std::vector<Side> sides;

  std::size_t CountSide(Side side) const {
    std::size_t n = 0;
    for (Side s : sides) n += s == side ? 1 : 0;
    return n;
  }
  InputSize MaxSize() const {
    InputSize max = 0;
    for (InputSize w : sizes) max = std::max(max, w);
    return max;
  }
};

}  // namespace

UpdateTrace GenerateTrace(const TraceConfig& config) {
  MSP_CHECK_GT(config.capacity, 1u);
  MSP_CHECK_LE(config.capacity, online::kMaxCapacity);
  MSP_CHECK_GT(config.lo, 0u);
  MSP_CHECK_LE(config.lo, config.hi);
  // Sizes are clamped into [lo, q/2]; q < 2*lo would leave no feasible
  // size (pairs of lo-sized inputs overflow q), emitting adds the
  // assigner rejects — and since ids are numbered assuming every add
  // lands, later remove/resize events would desync onto wrong inputs.
  // Phrased as a division so lo >= 2^63 cannot wrap the comparison.
  MSP_CHECK_LE(config.lo, config.capacity / 2)
      << "trace capacity must fit a pair of lo-sized inputs";
  MSP_CHECK_GE(config.max_retune_factor, 1.0);
  MSP_CHECK_GT(config.burst_every, 0u);
  MSP_CHECK_GT(config.burst_size, 0u);
  MSP_CHECK_GT(config.osc_period, 0u);
  MSP_CHECK_GE(config.osc_factor, 1.0);

  Rng rng(config.seed);
  UpdateTrace trace;
  trace.x2y = config.x2y;
  trace.initial_capacity = config.capacity;
  // Every initial input and every step emits exactly one event, so the
  // trace is allocated once, at its final size.
  trace.updates.reserve(config.initial_inputs + config.steps);

  InputSize q = config.capacity;
  AliveMirror alive;
  InputId next_id = 0;

  // Sizes track the live capacity: clamped into [lo, q/2] so every
  // pair of inputs always fits in one reducer. The rank count is
  // capped — ZipfDistribution materializes its CDF as one double per
  // rank, so an astronomic q/hi would otherwise allocate terabytes;
  // past ~10^6 distinct size ranks the extra granularity is noise.
  constexpr uint64_t kMaxZipfRanks = 1 << 20;
  const uint64_t ranks = std::max<uint64_t>(
      1, std::min<uint64_t>(
             kMaxZipfRanks,
             std::min<InputSize>(config.hi, q / 2) / config.lo));
  ZipfDistribution zipf(ranks, config.skew);
  auto draw_size = [&]() -> InputSize {
    const InputSize cap = std::max<InputSize>(config.lo, q / 2);
    const InputSize hi = std::min(config.hi, cap);
    return std::min<InputSize>(hi, config.lo * zipf.Sample(&rng));
  };
  auto emit_add = [&](Side side) {
    Update u = Update::Add(draw_size(), side);
    trace.updates.push_back(u);
    alive.ids.push_back(next_id++);
    alive.sizes.push_back(u.value);
    alive.sides.push_back(side);
  };

  for (std::size_t i = 0; i < config.initial_inputs; ++i) {
    const Side side =
        config.x2y && i % 2 == 1 ? Side::kY : Side::kX;
    emit_add(side);
  }

  const double total = config.p_add + config.p_remove + config.p_resize;
  MSP_CHECK_LE(total, 1.0 + 1e-9);

  // One event of the regular mix. Shapes that own the capacity channel
  // (flash crowd never retunes; oscillation retunes on its own clock)
  // rescale the roll so the retune branch is unreachable.
  const auto emit_mixed = [&](bool allow_retune) {
    if (!allow_retune && total <= 0.0) {
      // Degenerate mix (all probabilities zero) with the retune
      // channel closed: arrivals are the only event left.
      emit_add(config.x2y && rng.Bernoulli(0.5) ? Side::kY : Side::kX);
      return;
    }
    const double roll = allow_retune ? rng.UniformDouble()
                                     : rng.UniformDouble() * total;
    if (roll < config.p_add || alive.ids.empty()) {
      const Side side = config.x2y && rng.Bernoulli(0.5) ? Side::kY : Side::kX;
      emit_add(side);
      return;
    }
    if (roll < config.p_add + config.p_remove) {
      // Departure; keep at least min_alive inputs per side.
      const std::size_t pick = rng.UniformInt(alive.ids.size());
      const Side side = alive.sides[pick];
      const std::size_t side_count =
          config.x2y ? alive.CountSide(side) : alive.ids.size();
      if (side_count <= config.min_alive) {
        emit_add(side);  // too thin to shrink: arrival instead
        return;
      }
      trace.updates.push_back(Update::Remove(alive.ids[pick]));
      alive.ids.erase(alive.ids.begin() + pick);
      alive.sizes.erase(alive.sizes.begin() + pick);
      alive.sides.erase(alive.sides.begin() + pick);
      return;
    }
    if (roll < total) {
      const std::size_t pick = rng.UniformInt(alive.ids.size());
      const InputSize size = draw_size();
      trace.updates.push_back(Update::Resize(alive.ids[pick], size));
      alive.sizes[pick] = size;
      return;
    }
    // Capacity retune: stay within the configured band of the initial
    // capacity and never below twice the largest alive size (so the
    // trace remains feasible and future draws keep headroom).
    const double factor =
        1.0 / config.max_retune_factor +
        rng.UniformDouble() *
            (config.max_retune_factor - 1.0 / config.max_retune_factor);
    // llround on a product past LLONG_MAX is unspecified, and a setq
    // above kMaxCapacity would make the emitted trace unreplayable;
    // clamp the scaled capacity to the online subsystem's limit.
    const double scaled =
        std::min(static_cast<double>(config.capacity) * factor,
                 static_cast<double>(online::kMaxCapacity));
    InputSize new_q = static_cast<InputSize>(std::llround(scaled));
    new_q = std::max<InputSize>(new_q, 2 * std::max<InputSize>(
                                               alive.MaxSize(), config.lo));
    if (new_q == q) {
      emit_add(config.x2y && rng.Bernoulli(0.5) ? Side::kY : Side::kX);
      return;
    }
    trace.updates.push_back(Update::SetCapacity(new_q));
    q = new_q;
  };

  // One near-q/2 arrival: the crowd's inputs pair at most one-per-
  // reducer, so every burst forces a reducer-count spike.
  const auto emit_burst_add = [&]() {
    const InputSize high = std::max<InputSize>(config.lo, q / 2);
    const InputSize low =
        std::min(high, std::max<InputSize>(config.lo, 2 * (q / 5)));
    Update u = Update::Add(
        low + rng.UniformInt(static_cast<std::size_t>(high - low + 1)),
        config.x2y && rng.Bernoulli(0.5) ? Side::kY : Side::kX);
    trace.updates.push_back(u);
    alive.ids.push_back(next_id++);
    alive.sizes.push_back(u.value);
    alive.sides.push_back(u.side);
  };

  switch (config.shape) {
    case TraceShape::kMixed:
      for (std::size_t step = 0; step < config.steps; ++step) {
        emit_mixed(/*allow_retune=*/true);
      }
      break;
    case TraceShape::kFlashCrowd:
      for (std::size_t step = 0; step < config.steps;) {
        if (step % config.burst_every == 0) {
          for (std::size_t i = 0;
               i < config.burst_size && step < config.steps; ++i, ++step) {
            emit_burst_add();
          }
          continue;
        }
        emit_mixed(/*allow_retune=*/false);
        ++step;
      }
      break;
    case TraceShape::kCapacityOscillation:
      for (std::size_t step = 0; step < config.steps; ++step) {
        if (step > 0 && step % config.osc_period == 0) {
          const bool shrink = (step / config.osc_period) % 2 == 1;
          InputSize new_q = config.capacity;
          if (shrink) {
            new_q = static_cast<InputSize>(std::llround(
                static_cast<double>(config.capacity) / config.osc_factor));
          }
          new_q = std::max<InputSize>(
              new_q, 2 * std::max<InputSize>(alive.MaxSize(), config.lo));
          new_q = std::min<InputSize>(new_q, online::kMaxCapacity);
          if (new_q != q) {
            trace.updates.push_back(Update::SetCapacity(new_q));
            q = new_q;
            continue;
          }
          // Clamped into a no-op swing: fall through to a mixed event
          // so the step count still advances the trace.
        }
        emit_mixed(/*allow_retune=*/false);
      }
      break;
  }
  MSP_DCHECK_EQ(trace.updates.size(), config.initial_inputs + config.steps);
  return trace;
}

}  // namespace msp::wl
