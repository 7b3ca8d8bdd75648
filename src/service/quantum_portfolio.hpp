// qsmt::service — quantum rungs for the escalation ladder. Kept apart from
// the serving core so qsmt_service does not link the hardware-graph layer:
// only callers that put quantum samplers on the ladder (the quantum bench,
// the embedding-cache tests) pull in qsmt_graph.
#pragma once

#include <string>
#include <vector>

#include "anneal/pimc.hpp"
#include "graph/embedded_sampler.hpp"
#include "service/service.hpp"

namespace qsmt::service {

/// Path-integral (simulated quantum annealing) rung.
PortfolioMember path_integral_member(std::string name,
                                     anneal::PathIntegralParams base = {});

/// Minor-embedded hardware-simulation rung. `target` must outlive the
/// service; the cancel token threads through the inner annealer.
PortfolioMember embedded_member(std::string name, const graph::Graph& target,
                                graph::EmbeddedSamplerParams base = {});

/// A quantum-inclusive ladder: sa-fast, then a light path-integral rung,
/// then a minor-embedded rung onto `target` (which must outlive the
/// service). The embedded rung shares one structure-keyed embedding cache
/// across all of its attempts, so batches of same-shaped string QUBOs embed
/// once and then sample warm — the workload Abel et al. describe for
/// annealer model building.
std::vector<PortfolioMember> quantum_portfolio(const graph::Graph& target);

}  // namespace qsmt::service
