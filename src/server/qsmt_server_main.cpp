// qsmt-server binary: the SMT-LIB solver daemon (docs/server.md).
//
//   qsmt-server                       # stdio session (default)
//   qsmt-server --listen 0            # localhost socket, ephemeral port
//   qsmt-server --listen 7411 --workers 8 --deadline-ms 2000
//   qsmt-server --exact               # deterministic exhaustive portfolio
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "canon/answer_cache.hpp"
#include "server/server.hpp"
#include "service/service.hpp"

namespace {

void usage() {
  std::cout <<
      R"(qsmt-server: SMT-LIB v2 string-solver daemon (see docs/server.md)

  --stdio                serve one SMT-LIB session on stdin/stdout (default)
  --listen PORT          serve the framed socket protocol on 127.0.0.1:PORT
                         (0 picks an ephemeral port, printed on stderr)
  --workers N            solve-service worker threads (0 = usable CPUs)
  --exact                single exhaustive-enumeration portfolio lane:
                         deterministic verdicts, <= 30 QUBO variables
  --deadline-ms N        per-check-sat deadline (0 = none)
  --max-inflight N       concurrently admitted check-sats (0 = per worker)
  --max-waiting N        admission line length before overload rejection
  --max-frame-bytes N    socket frame payload ceiling
  --seed N               base RNG seed for tenant streams
  --answer-cache-mb N    canonical answer cache shared across every session
                         and tenant, N MiB budget (0 disables; default 8)
  --answer-snapshot F    load the answer cache from file F at boot (ignored
                         when missing/malformed) and save it back on clean
                         shutdown, so a warmed cache survives restarts
  --help                 this text
)";
}

std::uint64_t parse_u64(const std::string& flag, const char* value) {
  if (value == nullptr) {
    std::cerr << "qsmt-server: " << flag << " needs a value\n";
    std::exit(2);
  }
  return std::strtoull(value, nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qsmt;

  server::ServerOptions options;
  bool use_socket = false;
  std::uint16_t port = 0;
  std::size_t answer_cache_mb = 8;
  std::string answer_snapshot_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--stdio") {
      use_socket = false;
    } else if (arg == "--listen") {
      use_socket = true;
      port = static_cast<std::uint16_t>(parse_u64(arg, value));
      ++i;
    } else if (arg == "--workers") {
      options.service.num_workers =
          static_cast<std::size_t>(parse_u64(arg, value));
      ++i;
    } else if (arg == "--exact") {
      options.service.portfolio = {service::exact_member("exact")};
    } else if (arg == "--deadline-ms") {
      options.check_sat_deadline =
          std::chrono::milliseconds(parse_u64(arg, value));
      ++i;
    } else if (arg == "--max-inflight") {
      options.max_inflight = static_cast<std::size_t>(parse_u64(arg, value));
      ++i;
    } else if (arg == "--max-waiting") {
      options.max_waiting = static_cast<std::size_t>(parse_u64(arg, value));
      ++i;
    } else if (arg == "--max-frame-bytes") {
      options.max_frame_bytes =
          static_cast<std::size_t>(parse_u64(arg, value));
      ++i;
    } else if (arg == "--seed") {
      options.seed = parse_u64(arg, value);
      ++i;
    } else if (arg == "--answer-cache-mb") {
      answer_cache_mb = static_cast<std::size_t>(parse_u64(arg, value));
      ++i;
    } else if (arg == "--answer-snapshot") {
      if (value == nullptr) {
        std::cerr << "qsmt-server: --answer-snapshot needs a value\n";
        return 2;
      }
      answer_snapshot_path = value;
      ++i;
    } else {
      std::cerr << "qsmt-server: unknown flag " << arg << " (--help)\n";
      return 2;
    }
  }

  // One answer cache for the whole daemon: every session and tenant shares
  // it through the solve service, so tenant B's alpha-variant of tenant A's
  // query is answered from A's verified verdict.
  std::shared_ptr<canon::AnswerCache> answer_cache;
  if (answer_cache_mb > 0) {
    canon::AnswerCacheOptions cache_options;
    cache_options.max_bytes = answer_cache_mb << 20;
    answer_cache = std::make_shared<canon::AnswerCache>(cache_options);
    options.service.answer_cache = answer_cache;
    if (!answer_snapshot_path.empty()) {
      std::ifstream in(answer_snapshot_path);
      if (in) {
        std::ostringstream text;
        text << in.rdbuf();
        if (answer_cache->load_snapshot(text.str())) {
          std::cerr << "qsmt-server: answer cache warmed with "
                    << answer_cache->size() << " entries\n";
        } else {
          std::cerr << "qsmt-server: ignoring malformed answer snapshot "
                    << answer_snapshot_path << "\n";
        }
      }
    }
  }
  const auto save_snapshot = [&] {
    if (!answer_cache || answer_snapshot_path.empty()) return;
    std::ofstream out(answer_snapshot_path, std::ios::trunc);
    if (out) {
      out << answer_cache->save_snapshot();
    } else {
      std::cerr << "qsmt-server: cannot write answer snapshot "
                << answer_snapshot_path << "\n";
    }
  };

  server::Server server(options);
  if (!use_socket) {
    const int rc = server.run_stdio(std::cin, std::cout);
    save_snapshot();
    return rc;
  }
  const std::uint16_t bound = server.listen(port);
  std::cerr << "qsmt-server: listening on 127.0.0.1:" << bound << "\n";
  server.serve();
  save_snapshot();
  return 0;
}
