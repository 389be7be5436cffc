#include "baselines/planner_factory.h"

#include "baselines/acp_planner.h"
#include "baselines/rp_planner.h"
#include "baselines/sap_planner.h"
#include "baselines/twp_planner.h"
#include "srp/srp_planner.h"

namespace carp::baselines {

std::unique_ptr<core::Planner> MakePlanner(std::string_view algorithm,
                                           const core::WarehouseMatrix& matrix,
                                           const PlannerBuildOptions& build) {
  if (algorithm == "SAP") {
    GridPlannerOptions options;
    options.heuristic = build.heuristic;
    options.heuristic_budget_bytes = build.heuristic_budget_bytes;
    options.queue = build.queue;
    return std::make_unique<SapPlanner>(matrix, options);
  }
  if (algorithm == "RP") {
    RpPlannerOptions options;
    options.grid.heuristic = build.heuristic;
    options.grid.heuristic_budget_bytes = build.heuristic_budget_bytes;
    options.grid.queue = build.queue;
    return std::make_unique<RpPlanner>(matrix, options);
  }
  if (algorithm == "TWP") {
    TwpPlannerOptions options;
    options.grid.heuristic = build.heuristic;
    options.grid.heuristic_budget_bytes = build.heuristic_budget_bytes;
    options.grid.queue = build.queue;
    return std::make_unique<TwpPlanner>(matrix, options);
  }
  if (algorithm == "ACP") {
    AcpPlannerOptions options;
    options.grid.heuristic = build.heuristic;
    options.grid.heuristic_budget_bytes = build.heuristic_budget_bytes;
    options.grid.queue = build.queue;
    if (build.acp_cache_budget_bytes != 0) {
      options.cache_budget_bytes = build.acp_cache_budget_bytes;
    }
    return std::make_unique<AcpPlanner>(matrix, options);
  }
  if (algorithm == "SRP") {
    srp::SrpPlannerOptions options;
    options.heuristic = build.heuristic;
    options.heuristic_budget_bytes = build.heuristic_budget_bytes;
    options.kernel = build.kernel;
    options.queue = build.queue;
    return std::make_unique<srp::SrpPlanner>(matrix, options);
  }
  if (algorithm == "SRP-noindex") {
    srp::SrpPlannerOptions options;
    options.use_slope_index = false;
    options.heuristic = build.heuristic;
    options.heuristic_budget_bytes = build.heuristic_budget_bytes;
    options.kernel = build.kernel;
    options.queue = build.queue;
    return std::make_unique<srp::SrpPlanner>(matrix, options);
  }
  return nullptr;
}

std::unique_ptr<core::Planner> MakePlanner(
    std::string_view algorithm, const core::WarehouseMatrix& matrix) {
  return MakePlanner(algorithm, matrix, PlannerBuildOptions{});
}

std::vector<std::string> PaperAlgorithms() {
  return {"SAP", "RP", "TWP", "ACP", "SRP"};
}

}  // namespace carp::baselines
