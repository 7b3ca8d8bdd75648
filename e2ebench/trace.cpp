#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>

namespace qsmt::e2ebench {

namespace {

/// Timestamps are doubles in microseconds; a child that starts or ends
/// within this of its parent's edge still nests.
constexpr double kEdgeUs = 1e-3;

std::optional<double> find_arg(const telemetry::TraceEvent& event,
                               std::string_view key) {
  for (const auto& [name, value] : event.args) {
    if (name == key) return value;
  }
  return std::nullopt;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * fraction;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::vector<double> durations(const std::vector<telemetry::TraceEvent>& events,
                              std::string_view name) {
  std::vector<double> out;
  for (const telemetry::TraceEvent& event : events) {
    if (event.name == name) out.push_back(event.dur_us * 1e-6);
  }
  return out;
}

void link_spans(std::vector<telemetry::TraceEvent>& events) {
  // Per thread, in start order with enclosing spans first: a stack of the
  // spans still open at each start gives the parent.
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const telemetry::TraceEvent& x = events[a];
    const telemetry::TraceEvent& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    return x.dur_us > y.dur_us;
  });
  std::vector<std::int64_t> parent(events.size(), -1);
  std::vector<double> child_us(events.size(), 0.0);
  std::vector<std::optional<double>> request(events.size());
  std::vector<std::size_t> open;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const telemetry::TraceEvent& event = events[i];
    if (k > 0 && events[order[k - 1]].tid != event.tid) open.clear();
    const auto end_us = [&](std::size_t j) {
      return events[j].ts_us + events[j].dur_us;
    };
    while (!open.empty() && end_us(open.back()) < end_us(i) - kEdgeUs) {
      open.pop_back();
    }
    request[i] = find_arg(event, "request");
    if (!open.empty()) {
      const std::size_t up = open.back();
      parent[i] = static_cast<std::int64_t>(up);
      child_us[up] += event.dur_us;
      if (!request[i]) request[i] = request[up];
    }
    open.push_back(i);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    auto& args = events[i].args;
    if (request[i] && !find_arg(events[i], "request")) {
      args.emplace_back("request", *request[i]);
    }
    args.emplace_back("span", static_cast<double>(i));
    args.emplace_back("parent", static_cast<double>(parent[i]));
    args.emplace_back("self_us", events[i].dur_us - child_us[i]);
  }
}

}  // namespace qsmt::e2ebench
