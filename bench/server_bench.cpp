// Server bench: end-to-end daemon throughput against the in-process batch
// path over the same generated workload.
//
// Three configurations solve the identical script list with the default
// sa-fast/sa-deep portfolio on an 8-worker pool:
//
//   * in-process: service.solve_scripts — the PR3 batch entry point and
//     the ceiling the daemon is measured against (no sockets, no framing,
//     no per-session driver);
//   * server x1: one socket connection replaying the scripts one request
//     frame at a time (reset between scripts) — pays the full protocol
//     cost with zero overlap;
//   * server x8: the scripts partitioned round-robin across 8 concurrent
//     connections — admission-gated fair sharing of the same pool, where
//     sibling sessions overlap their solves.
//
// Writes BENCH_server.json in the CWD (run from the repo root to refresh
// the tracked baseline). The acceptance bar: 8 concurrent connections
// must out-run the single connection by >= 1.5x on any multi-core host.
// `--smoke` runs a small correctness pass (every reply a verdict, both
// transports agree) without touching the tracked JSON — the CI gate.
#include <atomic>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/server.hpp"
#include "service/service.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stopwatch.hpp"
#include "workload/generator.hpp"
#include "workload/smt2_render.hpp"

namespace {

using namespace qsmt;

constexpr std::size_t kNumWorkers = 8;
constexpr std::size_t kNumConnections = 8;
constexpr std::uint64_t kSeed = 29;

std::vector<std::string> make_scripts(std::size_t count) {
  workload::GeneratorParams params;
  params.min_length = 2;
  params.max_length = 6;
  params.seed = kSeed;
  workload::Generator generator(params);
  std::vector<std::string> scripts;
  while (scripts.size() < count) {
    if (auto script = workload::to_smt2(generator.next())) {
      scripts.push_back(std::move(*script));
    }
  }
  return scripts;
}

/// The workload scripts end in (check-sat)(get-model): a healthy reply
/// leads with a verdict line, then the model (or a no-model error).
bool is_verdict(const std::string& reply) {
  return reply.rfind("sat\n", 0) == 0 || reply.rfind("unsat\n", 0) == 0 ||
         reply.rfind("unknown\n", 0) == 0;
}

/// Replays `scripts` striped across `num_clients` concurrent socket
/// connections; returns the number of replies that were not verdicts.
std::size_t replay_over_sockets(std::uint16_t port,
                                const std::vector<std::string>& scripts,
                                std::size_t num_clients) {
  std::atomic<std::size_t> bad{0};
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      server::Client client;
      client.connect(port);
      for (std::size_t i = c; i < scripts.size(); i += num_clients) {
        if (!is_verdict(client.request(scripts[i]))) bad.fetch_add(1);
        client.request("(reset)");
      }
      client.request("(exit)");
    });
  }
  for (std::thread& client : clients) client.join();
  return bad.load();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t num_scripts = smoke ? 8 : 48;
  const std::vector<std::string> scripts = make_scripts(num_scripts);
  telemetry::set_mode(telemetry::Mode::kSummary);

  // In-process ceiling: the batch entry point on the same pool shape.
  service::ServiceOptions pool_options;
  pool_options.num_workers = kNumWorkers;
  service::SolveService pool(pool_options);
  service::JobOptions job;
  job.seed = kSeed;
  Stopwatch inprocess_timer;
  const std::vector<service::JobResult> batch =
      pool.solve_scripts(scripts, job);
  const double inprocess_seconds = inprocess_timer.elapsed_seconds();
  std::size_t batch_unknowns = 0;
  for (const service::JobResult& result : batch) {
    if (result.status == smtlib::CheckSatStatus::kUnknown) ++batch_unknowns;
  }

  // The daemon under test: same worker count, default admission bounds.
  server::ServerOptions options;
  options.service.num_workers = kNumWorkers;
  options.seed = kSeed;
  server::Server node(options);
  const std::uint16_t port = node.listen(0);
  node.start();

  Stopwatch serial_timer;
  const std::size_t serial_bad = replay_over_sockets(port, scripts, 1);
  const double serial_seconds = serial_timer.elapsed_seconds();

  Stopwatch concurrent_timer;
  const std::size_t concurrent_bad =
      replay_over_sockets(port, scripts, kNumConnections);
  const double concurrent_seconds = concurrent_timer.elapsed_seconds();

  node.shutdown();
  const server::Server::Stats stats = node.stats();

  const double inprocess_jps =
      static_cast<double>(scripts.size()) / inprocess_seconds;
  const double serial_jps =
      static_cast<double>(scripts.size()) / serial_seconds;
  const double concurrent_jps =
      static_cast<double>(scripts.size()) / concurrent_seconds;
  const double scaling = concurrent_jps / serial_jps;
  const double daemon_overhead = concurrent_jps / inprocess_jps;

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "server_bench: " << scripts.size() << " scripts, "
            << kNumWorkers << " workers, default portfolio\n";
  std::cout << "  in-process solve_scripts: " << inprocess_seconds << " s ("
            << inprocess_jps << " jobs/s)\n";
  std::cout << "  server, 1 connection:     " << serial_seconds << " s ("
            << serial_jps << " jobs/s)\n";
  std::cout << "  server, " << kNumConnections
            << " connections:    " << concurrent_seconds << " s ("
            << concurrent_jps << " jobs/s)\n";
  std::cout << "  concurrency scaling:      " << scaling << "x, vs in-process "
            << daemon_overhead << "x\n";

  if (serial_bad != 0 || concurrent_bad != 0) {
    std::cerr << "server_bench: FAIL " << (serial_bad + concurrent_bad)
              << " non-verdict replies\n";
    return 1;
  }
  if (stats.sessions_opened != stats.sessions_closed) {
    std::cerr << "server_bench: FAIL session leak (" << stats.sessions_opened
              << " opened, " << stats.sessions_closed << " closed)\n";
    return 1;
  }

  if (smoke) {
    // CI gate: correctness of the full socket path under concurrency, no
    // timing assertions (shared runners), no tracked-baseline refresh.
    std::cout << "server_bench: SMOKE PASS (" << scripts.size()
              << " scripts x 2 transports, verdicts only, no leaks)\n";
    return 0;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const char* gate = hw < 2            ? "skipped_single_core_host"
                     : scaling >= 1.5 ? "pass"
                                      : "fail";

  std::ofstream out("BENCH_server.json");
  out << std::fixed << std::setprecision(4);
  out << "{\n"
      << "  \"num_scripts\": " << scripts.size() << ",\n"
      << "  \"num_workers\": " << kNumWorkers << ",\n"
      << "  \"num_connections\": " << kNumConnections << ",\n"
      << "  \"hardware_concurrency\": " << hw << ",\n"
      << "  \"gate\": \"" << gate << "\",\n"
      << "  \"inprocess_seconds\": " << inprocess_seconds << ",\n"
      << "  \"inprocess_jobs_per_second\": " << inprocess_jps << ",\n"
      << "  \"serial_seconds\": " << serial_seconds << ",\n"
      << "  \"serial_jobs_per_second\": " << serial_jps << ",\n"
      << "  \"concurrent_seconds\": " << concurrent_seconds << ",\n"
      << "  \"concurrent_jobs_per_second\": " << concurrent_jps << ",\n"
      << "  \"concurrency_scaling\": " << scaling << ",\n"
      << "  \"daemon_vs_inprocess\": " << daemon_overhead << ",\n"
      << "  \"batch_unknowns\": " << batch_unknowns << "\n"
      << "}\n";

  // The daemon exists to let many tenants share one pool; fail loudly if
  // concurrent connections stop out-running a single one. Like the
  // service gate, scaling is parallelism and only binds where some
  // exists: a single-core host can only interleave.
  if (hw < 2) {
    std::cout << "server_bench: gate skipped (single-core host; scaling "
              << scaling << "x not meaningful)\n";
    return 0;
  }
  if (scaling < 1.5) {
    std::cerr << "server_bench: FAIL scaling " << scaling << " < 1.5\n";
    return 1;
  }
  std::cout << "server_bench: PASS (>= 1.5x)\n";
  return 0;
}
