// Summary statistics every report in the benchmark shares, and the
// post-pass over the telemetry trace buffer that links the traced run's
// spans.
//
// The layer replay records its spans with telemetry::Span (trace mode)
// from the benchmark's own code around calls into each solver layer's
// public functions, tagging each with its request id; the solver's own
// spans land in the same buffer. telemetry::TraceEvent keeps a name,
// start, duration and args but no parent, so link_spans() derives the
// parent from same-thread nesting and adds it, the self time and the
// request id to every event's args before the Chrome trace is written.
#pragma once

#include <string_view>
#include <vector>

#include "telemetry/span.hpp"

namespace qsmt::e2ebench {

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

/// Arithmetic mean; 0 when empty.
double mean(const std::vector<double>& values);

/// Durations in seconds of every event called `name`.
std::vector<double> durations(const std::vector<telemetry::TraceEvent>& events,
                              std::string_view name);

/// Adds to every event's args its index ("span"), the index of the
/// innermost event on the same thread that encloses it ("parent", -1 for a
/// root), its self time ("self_us": duration minus the time its children
/// cover; children of one span run on its thread and nest strictly, so
/// they never overlap each other) and, when it has none, the "request" of
/// its nearest tagged ancestor.
void link_spans(std::vector<telemetry::TraceEvent>& events);

}  // namespace qsmt::e2ebench
