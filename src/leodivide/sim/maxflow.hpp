#pragma once
// Max-flow (Dinic) and the optimal beam-allocation upper bound.
//
// The greedy scheduler (scheduler.hpp) is an online heuristic. To know how
// much of its shortfall is *fundamental* (not enough satellites in view)
// versus *algorithmic* (bad packing), we solve the fractional relaxation
// exactly: model beam capacity in "slots" (one beam = beamspread slots,
// a cell needing b beams = b * beamspread slots), connect cells to visible
// satellites, and compute the maximum slot flow. No scheduler — greedy,
// optimal, or otherwise — can serve more slots than this bound.

#include <cstdint>
#include <vector>

#include "leodivide/sim/scheduler.hpp"

namespace leodivide::sim {

/// Dinic's max-flow over an explicit graph. Vertices are dense indices;
/// capacities are 64-bit.
class MaxFlow {
 public:
  explicit MaxFlow(std::size_t vertices);

  /// Adds a directed edge u -> v with capacity `cap` (and a residual
  /// reverse edge of zero capacity).
  void add_edge(std::uint32_t u, std::uint32_t v, std::int64_t cap);

  /// Computes the maximum flow from s to t. May be called once.
  [[nodiscard]] std::int64_t solve(std::uint32_t s, std::uint32_t t);

  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return graph_.size();
  }

 private:
  struct Edge {
    std::uint32_t to;
    std::uint32_t rev;  ///< index of the reverse edge in graph_[to]
    std::int64_t cap;
  };
  bool bfs(std::uint32_t s, std::uint32_t t);
  std::int64_t dfs(std::uint32_t v, std::uint32_t t, std::int64_t pushed);

  std::vector<std::vector<Edge>> graph_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
};

/// Result of the relaxation.
struct FlowBound {
  std::int64_t slots_demanded = 0;  ///< sum over cells of beams * beamspread
  std::int64_t slots_served = 0;    ///< max-flow value
  double slot_coverage = 0.0;       ///< served / demanded
};

/// Solves the slot relaxation for one epoch: every cell may split its
/// demand across all satellites visible at kMinElevationDeg; each
/// satellite offers kBeamsPerSatellite * beamspread slots.
[[nodiscard]] FlowBound optimal_slot_bound(
    const std::vector<SchedCell>& cells,
    const std::vector<orbit::SatState>& sats, const SchedulerConfig& config);

}  // namespace leodivide::sim
