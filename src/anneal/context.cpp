#include "anneal/context.hpp"

#include "telemetry/telemetry.hpp"

namespace qsmt::anneal {

AnnealContext& thread_local_context() {
  thread_local AnnealContext context;
  return context;
}

void record_read_stats(const ReadStats& stats) {
  if (!telemetry::enabled()) return;
  // Interned once; the handles record into the calling thread's shard, so
  // concurrent pool workers never contend here.
  static const auto reads = telemetry::counter("anneal.reads");
  static const auto early_exits = telemetry::counter("anneal.read.early_exits");
  static const auto flips =
      telemetry::histogram("anneal.read.flips", telemetry::Unit::kCount);
  static const auto sweeps =
      telemetry::histogram("anneal.read.sweeps", telemetry::Unit::kCount);
  static const auto acceptance =
      telemetry::histogram("anneal.read.acceptance", telemetry::Unit::kRatio);
  reads.add();
  if (stats.early_exit) early_exits.add();
  flips.record(static_cast<double>(stats.flips));
  sweeps.record(static_cast<double>(stats.sweeps_executed));
  const double attempts = static_cast<double>(stats.sweeps_executed) *
                          static_cast<double>(stats.num_variables);
  if (attempts > 0.0) {
    acceptance.record(static_cast<double>(stats.flips) / attempts);
  }
}

}  // namespace qsmt::anneal
