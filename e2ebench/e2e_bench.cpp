// e2e_bench: the end-to-end qsmt-server benchmark.
//
//   e2e_bench --workload solve-cold --seed 7 --seconds 10 --trace 0
//
// Starts an in-process server::Server configured the way `qsmt-server`
// runs by default (socket transport, default worker count and portfolio,
// one shared 8 MiB answer cache) and drives it closed-loop through
// server::Client: each of up to 4 connections sends a request frame and
// waits for its reply before sending the next, as an SMT client that
// issues a check-sat and blocks on the verdict does. Every reply is
// checked: a sat model must pass the benchmark's own classical check
// (strqubo::verify_string) against the constraints it planted, and an
// unsat on a planted-witness input is a failure.
//
// Before timing, every script under tests/corpus/ and benchmarks/ is
// replayed through the server on a fresh connection and compared with its
// `; expect:` pins. Then the daemon is set up several times (construct,
// listen, connect every client in tenant order, warm up on queries from a
// different seed) and the median set-up time is reported; the last set-up
// serves the timed pass.
//
// --trace 0 prints the end-to-end metrics of an untraced pass. --trace 1
// runs an untraced socket pass and one with the daemon's telemetry on (its
// histograms and counters give the service, engine and anneal figures),
// then the in-process replays (layers.hpp) for what no daemon counter
// splits out, and prints the per-layer metrics. The layer replay runs
// untraced and then traced over the same check-sats; the difference is
// the tracing overhead, and the traced spans go to a Chrome trace file.
//
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"}. The line before it is the result envelope, one schema for
// every workload; --record FILE also writes the envelope to FILE, and is
// refused for runs too short to carry a p99.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "host.hpp"
#include "layers.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "smtlib/compiler.hpp"
#include "strqubo/verify.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"
#include "trace.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace qsmt::e2ebench {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kMaxConnections = 4;
/// Check-sats each connection sends while warming up a set-up.
constexpr std::size_t kWarmupChecks = 128;
/// Set-ups per untraced run; setup_s is their median.
constexpr std::size_t kSetups = 7;
/// The first check-sats of every connection, whose unknowns the envelope
/// counts: the count repeats across runs of one seed wherever answer-cache
/// timing does not decide which check-sats are re-solved.
constexpr std::size_t kPrefixChecks = 200;
/// Windows a timed pass is cut into for its per-window figures.
constexpr std::size_t kWindows = 20;
/// Steal share (of the machine's CPU time) a window may exceed the pass's
/// median window by and still be kept.
constexpr double kStealSlack = 0.02;
/// A p99 needs ten samples beyond it.
constexpr std::size_t kMinCheckSats = 1000;
/// --record refuses runs shorter than this.
constexpr double kMinRecordSeconds = 10.0;
/// The largest median window steal share the recorded baseline runs saw
/// (0.17). A run above it fell wholly inside a busy period on a shared
/// host; the envelope flags it ("steal": {"ok": false}) so it is repeated
/// rather than compared.
constexpr double kMaxStealShare = 0.2;
/// Every run warms up on the same inputs, so set-up time does not vary
/// with --seed; a run whose seed is this one warms up on the next seed.
constexpr std::uint64_t kWarmupSeed = 0x77a2b0c5d1e3f405ULL;

std::uint64_t warmup_seed(std::uint64_t seed) {
  return seed == kWarmupSeed ? kWarmupSeed + 1 : kWarmupSeed;
}

struct Options {
  Workload workload = Workload::kSolveCold;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string record;
  std::string trace_file;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "e2e_bench: " << message << "\n"
            << "usage: e2e_bench --workload solve-cold|repeat-alpha|"
               "incremental-chain --seed N --seconds S --trace 0|1 "
               "[--root DIR] [--record FILE] "
               "[--trace-file FILE]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto workload = parse_workload(value);
        if (!workload) usage_error("unknown workload " + value);
        options.workload = *workload;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--root") {
        options.root = value;
      } else if (flag == "--record") {
        options.record = value;
      } else if (flag == "--trace-file") {
        options.trace_file = value;
      } else {
        usage_error("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (!(options.seconds > 0.0)) usage_error("--seconds must be positive");
  return options;
}

// ---- Reply checking -------------------------------------------------------

enum class Outcome { kSat, kUnsat, kUnknown, kBad };

Outcome leading_verdict(const std::string& reply) {
  const std::string first = reply.substr(0, reply.find('\n'));
  if (first == "sat") return Outcome::kSat;
  if (first == "unsat") return Outcome::kUnsat;
  if (first == "unknown") return Outcome::kUnknown;
  return Outcome::kBad;
}

/// The value of `variable` in a (get-model) reply, SMT-LIB quotes undone.
std::optional<std::string> model_value(const std::string& reply,
                                       const std::string& variable) {
  const std::string head = "(define-fun " + variable + " () String \"";
  std::size_t at = reply.find(head);
  if (at == std::string::npos) return std::nullopt;
  std::string value;
  for (at += head.size(); at < reply.size(); ++at) {
    if (reply[at] == '"') {
      if (at + 1 < reply.size() && reply[at + 1] == '"') {
        value += '"';
        ++at;
        continue;
      }
      return value;
    }
    value += reply[at];
  }
  return std::nullopt;
}

/// Why `value` is not a model of `constraints` (empty when it is).
std::string check_model(const std::string& value,
                        const std::vector<strqubo::Constraint>& constraints) {
  for (const strqubo::Constraint& constraint : constraints) {
    if (!strqubo::verify_string(constraint, value)) {
      return "model \"" + value + "\" fails " + strqubo::describe(constraint);
    }
  }
  return "";
}

/// Checks one check-sat reply against what the benchmark planted. Returns
/// an empty string when the reply is acceptable, else why it is not.
std::string check_reply(const std::string& reply, const Query& query,
                        Outcome& outcome) {
  outcome = leading_verdict(reply);
  switch (outcome) {
    case Outcome::kUnknown:
      return "";
    case Outcome::kUnsat:
      return "unsat on an input with a planted witness";
    case Outcome::kBad:
      return "no verdict in reply: " + reply.substr(0, 120);
    case Outcome::kSat:
      break;
  }
  const std::optional<std::string> value = model_value(reply, query.variable);
  if (!value) return "sat without a model for " + query.variable;
  return check_model(*value, query.constraints);
}

// ---- The daemon under test ------------------------------------------------

/// One default-configured daemon on an ephemeral localhost port and its
/// client connections. Clients are declared after the server so they close
/// first; the server's destructor then joins every thread it started.
struct Daemon {
  std::unique_ptr<server::Server> server;
  std::vector<std::unique_ptr<server::Client>> clients;
};

/// Connects one client at a time, each finishing a round trip before the
/// next connects, so tenant ids (the accept order, which seeds each
/// session's streams) are the connection indices.
std::unique_ptr<Daemon> start_daemon(std::size_t connections) {
  auto daemon = std::make_unique<Daemon>();
  server::ServerOptions options;
  options.service = daemon_service_options();
  daemon->server = std::make_unique<server::Server>(options);
  const std::uint16_t port = daemon->server->listen(0);
  daemon->server->start();
  for (std::size_t c = 0; c < connections; ++c) {
    auto client = std::make_unique<server::Client>();
    client->connect(port);
    const std::string reply = client->request("(echo \"ready\")");
    if (reply.find("ready") == std::string::npos) {
      throw std::runtime_error("connection " + std::to_string(c) +
                               " got no echo: " + reply);
    }
    daemon->clients.push_back(std::move(client));
  }
  return daemon;
}

struct PassResult {
  std::vector<double> latency_s;
  /// (seconds since the pass started, latency) of every answered check-sat.
  std::vector<std::pair<double, double>> completions;
  /// Per-window p50 latency, answered check-sats per second and CPU per
  /// check-sat over the windows fill_windows kept, and the share of the
  /// machine's CPU time the hypervisor withheld in every window.
  std::vector<double> window_p50_s;
  std::vector<double> window_jobs_per_s;
  std::vector<double> window_cpu_s;
  std::vector<double> window_steal_share;
  /// Answered check-sats per second and CPU seconds per check-sat pooled
  /// over the kept windows (all their check-sats over all their time).
  double jobs_per_s = 0.0;
  double cpu_s_per_check_sat = 0.0;
  std::size_t check_sats = 0;
  std::size_t unknown = 0;
  /// Unknowns among the first kPrefixChecks check-sats of each connection.
  std::size_t prefix_unknown = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void merge(PassResult&& other) {
    latency_s.insert(latency_s.end(), other.latency_s.begin(),
                     other.latency_s.end());
    completions.insert(completions.end(), other.completions.begin(),
                       other.completions.end());
    check_sats += other.check_sats;
    unknown += other.unknown;
    prefix_unknown += other.prefix_unknown;
    failed += other.failed;
    for (std::string& failure : other.failures) {
      if (failures.size() < 8) failures.push_back(std::move(failure));
    }
  }
};

/// Process CPU and host steal seconds at one window boundary.
struct Mark {
  double cpu_s = 0.0;
  double steal_s = 0.0;
};

Mark mark_now() { return Mark{process_cpu_seconds(), host_steal_seconds()}; }

/// Cuts a timed pass into `marks.size() - 1` equal windows (marks[k] taken
/// at the start of window k) and fills the per-window statistics. On a
/// shared virtual machine the hypervisor withholds CPU time in bursts, and
/// a window it hits measures the neighbours rather than the solver: a
/// window whose steal share exceeds the pass's median by more than
/// kStealSlack is dropped, so at least half of them are always kept and
/// all of them when steal is even. Throughput and CPU are pooled over the
/// kept windows rather than taken as a median of them: on repeat-alpha the
/// unknown re-solves cluster, and one window's rate varies twofold.
void fill_windows(PassResult& pass, double seconds,
                  const std::vector<Mark>& marks) {
  const std::size_t windows = marks.size() - 1;
  const double width = seconds / static_cast<double>(windows);
  std::vector<std::vector<double>> latencies(windows);
  for (const auto& [end, latency] : pass.completions) {
    const auto window = static_cast<std::size_t>(end / width);
    if (window < windows) latencies[window].push_back(latency);
  }
  std::vector<double> steal(windows);
  for (std::size_t k = 0; k < windows; ++k) {
    steal[k] = marks[k + 1].steal_s - marks[k].steal_s;
    pass.window_steal_share.push_back(
        steal[k] / (width * static_cast<double>(online_cpus())));
  }
  const double median_share = quantile(pass.window_steal_share, 0.5);
  double kept_checks = 0.0;
  double kept_cpu_s = 0.0;
  double kept_s = 0.0;
  for (std::size_t k = 0; k < windows; ++k) {
    const auto count = static_cast<double>(latencies[k].size());
    if (count == 0.0 ||
        pass.window_steal_share[k] > median_share + kStealSlack) {
      continue;
    }
    const double cpu_s = marks[k + 1].cpu_s - marks[k].cpu_s;
    pass.window_p50_s.push_back(quantile(latencies[k], 0.5));
    pass.window_jobs_per_s.push_back(count / width);
    pass.window_cpu_s.push_back(cpu_s / count);
    kept_checks += count;
    kept_cpu_s += cpu_s;
    kept_s += width;
  }
  pass.jobs_per_s = kept_s > 0.0 ? kept_checks / kept_s : 0.0;
  pass.cpu_s_per_check_sat = kept_checks > 0.0 ? kept_cpu_s / kept_checks : 0.0;
}

/// Drives every connection closed-loop until `seconds` pass or each has
/// sent `max_checks` check-sats. With `windows` > 0 a monitor thread
/// marks process CPU and host steal time at each window boundary for
/// fill_windows.
PassResult drive(Daemon& daemon, Source& source, double seconds,
                 std::size_t max_checks, std::size_t windows = 0) {
  const std::size_t connections = daemon.clients.size();
  std::vector<PassResult> partial(connections);
  std::vector<Mark> marks{mark_now()};
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  std::thread monitor;
  if (windows > 0) {
    monitor = std::thread([&] {
      for (std::size_t k = 1; k <= windows; ++k) {
        std::this_thread::sleep_until(
            start + std::chrono::duration<double>(
                        seconds * static_cast<double>(k) /
                        static_cast<double>(windows)));
        marks.push_back(mark_now());
      }
    });
  }
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      PassResult& out = partial[c];
      server::Client& client = *daemon.clients[c];
      while (out.check_sats < max_checks &&
             std::chrono::steady_clock::now() < deadline) {
        const Request request = source.next(c);
        std::string reply;
        Stopwatch round_trip;
        try {
          reply = client.request(request.frame);
        } catch (const std::exception& error) {
          ++out.failed;
          if (request.query) ++out.check_sats;
          out.failures.push_back("connection " + std::to_string(c) +
                                 " dropped: " + error.what());
          return;
        }
        const double elapsed = round_trip.elapsed_seconds();
        if (!request.query) {
          if (!reply.empty()) {
            ++out.failed;
            out.failures.push_back("unexpected reply to " +
                                   request.frame.substr(0, 40) + ": " + reply);
          }
          continue;
        }
        ++out.check_sats;
        out.latency_s.push_back(elapsed);
        Outcome outcome = Outcome::kBad;
        const std::string problem = check_reply(reply, *request.query, outcome);
        if (outcome != Outcome::kBad) {
          out.completions.emplace_back(
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count(),
              elapsed);
        }
        if (outcome == Outcome::kUnknown) {
          ++out.unknown;
          if (out.check_sats <= kPrefixChecks) ++out.prefix_unknown;
        }
        if (!problem.empty()) {
          ++out.failed;
          out.failures.push_back(problem);
        }
      }
      // End the session the pass may have stopped inside, so the next
      // pass on this connection starts from a clean assertion stack.
      try {
        const std::string reply = client.request("(reset)\n");
        if (!reply.empty()) throw std::runtime_error(reply);
      } catch (const std::exception& error) {
        ++out.failed;
        out.failures.push_back("connection " + std::to_string(c) +
                               " failed its closing (reset): " + error.what());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (monitor.joinable()) monitor.join();
  PassResult total;
  for (PassResult& part : partial) total.merge(std::move(part));
  if (windows > 0) fill_windows(total, seconds, marks);
  return total;
}

/// Checked requests and failures across every phase of a run: corpus
/// replay, warm-ups and timed passes.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void add(std::size_t checks, std::size_t failures_seen,
           const std::vector<std::string>& messages) {
    attempted += checks;
    failed += failures_seen;
    failures.insert(failures.end(), messages.begin(), messages.end());
  }
  void add(const PassResult& pass) {
    add(pass.check_sats, pass.failed, pass.failures);
  }
};

/// One set-up: daemon construction, listen, every connection accepted, and
/// a warm-up on the workload drawn from a different seed, so the pool and
/// the sampler thread teams are live but the timed queries are not cached.
/// Returns the warm-up's base keys in `warm_keys` for the timed source to
/// avoid.
std::unique_ptr<Daemon> set_up(const Options& options, std::size_t connections,
                               Tally& tally,
                               std::unordered_set<std::string>& warm_keys) {
  auto daemon = start_daemon(connections);
  Source source(options.workload, warmup_seed(options.seed), connections);
  tally.add(drive(*daemon, source, 1e9, kWarmupChecks));
  warm_keys = source.base_keys();
  return daemon;
}

// ---- Corpus replay --------------------------------------------------------

struct CorpusResult {
  std::size_t files = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> lines_with_prefix(const std::string& text,
                                           const std::string& prefix) {
  std::vector<std::string> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::string rest = line.substr(prefix.size());
    if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
    out.push_back(rest);
  }
  return out;
}

std::vector<std::string> reply_verdicts(const std::string& reply) {
  std::vector<std::string> out;
  std::istringstream lines(reply);
  std::string line;
  while (std::getline(lines, line)) {
    if (line == "sat" || line == "unsat" || line == "unknown") {
      out.push_back(line);
    }
  }
  return out;
}

std::string smt_quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    out += c;
    if (c == '"') out += '"';
  }
  return out + "\"";
}

/// Why `reply` does not match the pins of `script` (empty when it does).
/// A script with no `; expect:` pin is a generated planted-witness instance:
/// each verdict must be sat or unknown, and each sat model must satisfy
/// every compiled conjunct.
std::string check_corpus_reply(const std::string& script,
                               const std::string& reply) {
  const std::vector<std::string> throws =
      lines_with_prefix(script, "; expect-throw:");
  if (!throws.empty()) {
    // Malformed input must never be solved. A framed session answers an
    // unterminated command with nothing (the frame may continue), so an
    // empty reply is the framed form of the in-process parse error.
    if (!reply_verdicts(reply).empty() ||
        (!reply.empty() && (reply.find("(error") == std::string::npos ||
                            reply.find(throws.front()) == std::string::npos))) {
      return "expected no verdict and an (error ...) with '" + throws.front() +
             "', got: " + reply;
    }
    return "";
  }
  const std::vector<std::string> expected =
      lines_with_prefix(script, "; expect:");
  const std::vector<std::string> verdicts = reply_verdicts(reply);
  if (expected.empty()) {
    if (verdicts.empty()) return "no verdict";
    const AssertionSet set = assertion_set(script);
    const smtlib::CompiledQuery compiled =
        smtlib::compile_assertions(set.assertions, set.declared);
    for (const std::string& verdict : verdicts) {
      if (verdict == "unsat") return "unsat on a planted-witness benchmark";
    }
    if (verdicts.front() == "sat") {
      const auto value = model_value(reply, compiled.variable);
      if (!value) return "sat without a model";
      return check_model(*value, compiled.constraints);
    }
    return "";
  }
  if (verdicts != expected) {
    std::string got;
    for (const std::string& verdict : verdicts) got += verdict + " ";
    return "verdicts [" + got + "] differ from the expect pins";
  }
  // A model pin can only be compared with a model the script asked for;
  // scripts without (get-model) pin the in-process SmtDriver's history.
  const bool has_model = reply.find("(model") != std::string::npos;
  for (const std::string& model : lines_with_prefix(script, "; expect-model:")) {
    if (has_model &&
        reply.find("String " + smt_quoted(model) + ")") == std::string::npos) {
      return "model " + model + " missing";
    }
  }
  for (const std::string& text :
       lines_with_prefix(script, "; expect-contains:")) {
    if (reply.find(text) == std::string::npos) return "'" + text + "' missing";
  }
  return "";
}

/// Replays every checked-in script through a default daemon, each on a
/// fresh connection: a malformed script ends its framed session, so sharing
/// one connection would leave every later file an empty reply.
CorpusResult replay_corpus(const std::string& root) {
  std::vector<fs::path> files;
  for (const char* dir : {"tests/corpus", "benchmarks"}) {
    const fs::path path = fs::path(root) / dir;
    if (!fs::is_directory(path)) continue;
    for (const auto& entry : fs::directory_iterator(path)) {
      if (entry.path().extension() == ".smt2") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  CorpusResult result;
  if (files.empty()) {
    result.failed = 1;
    result.failures.push_back("no .smt2 scripts under " + root);
    return result;
  }
  auto daemon = start_daemon(0);
  for (const fs::path& file : files) {
    ++result.files;
    const std::string script = read_file(file);
    std::string problem;
    try {
      server::Client client;
      client.connect(daemon->server->port());
      problem = check_corpus_reply(script, client.request(script));
    } catch (const std::exception& error) {
      problem = std::string("request failed: ") + error.what();
    }
    if (!problem.empty()) {
      ++result.failed;
      result.failures.push_back(file.filename().string() + ": " + problem);
    }
  }
  return result;
}

// ---- Reporting ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream out;
  out.precision(12);
  out << value;
  return out.str();
}

std::string json_list(const std::vector<double>& values, double scale) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_number(values[i] * scale);
  }
  return out + "]";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// The eight end-to-end metrics of one timed pass.
std::vector<Metric> end_to_end(const PassResult& pass, double setup_s,
                               const Tally& tally) {
  const auto checks = static_cast<double>(pass.check_sats);
  return {
      {"checksat_p50_ms", quantile(pass.window_p50_s, 0.5) * 1e3, "ms"},
      {"checksat_p99_ms", quantile(pass.latency_s, 0.99) * 1e3, "ms"},
      {"jobs_per_s", pass.jobs_per_s, "1/s"},
      {"cpu_ms_per_checksat", pass.cpu_s_per_check_sat * 1e3, "ms"},
      {"unknown_ratio", ratio(static_cast<double>(pass.unknown), checks),
       "ratio"},
      {"error_ratio",
       ratio(static_cast<double>(tally.failed),
             static_cast<double>(tally.attempted)),
       "ratio"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
}

/// A timed socket pass over a freshly set-up daemon.
struct SocketPass {
  PassResult pass;
  std::unordered_set<std::string> warm_keys;
  /// Service counters around the timed part and the telemetry the daemon
  /// recorded in it (passes with telemetry on only).
  service::SolveService::Stats before;
  service::SolveService::Stats after;
  telemetry::Snapshot telemetry;
};

/// With `telemetry_on` the daemon's telemetry runs in summary mode for the
/// timed part, so its own histograms and counters describe that part only.
SocketPass socket_pass(const Options& options, std::size_t connections,
                       double seconds, bool telemetry_on, Tally& tally) {
  SocketPass out;
  auto daemon = set_up(options, connections, tally, out.warm_keys);
  Source source(options.workload, options.seed, connections, out.warm_keys);
  if (telemetry_on) {
    telemetry::reset();
    telemetry::set_mode(telemetry::Mode::kSummary);
  }
  out.before = daemon->server->service().stats();
  out.pass = drive(*daemon, source, seconds, SIZE_MAX, kWindows);
  out.after = daemon->server->service().stats();
  if (telemetry_on) {
    telemetry::set_mode(telemetry::Mode::kOff);
    out.telemetry = telemetry::registry().snapshot();
  }
  tally.add(out.pass);
  return out;
}

/// p50 and p99 of a daemon histogram, bucket-estimated (power-of-two
/// buckets), scaled; 0 when the pass never recorded it.
std::pair<double, double> histogram_p50_p99(const telemetry::Snapshot& snapshot,
                                            std::string_view name,
                                            double scale) {
  const telemetry::HistogramStat* stat = snapshot.histogram(name);
  if (stat == nullptr) return {0.0, 0.0};
  return {stat->quantile(0.5) * scale, stat->quantile(0.99) * scale};
}

/// The traced run. Two socket passes, each over a fresh daemon: one
/// untraced, one with the daemon's telemetry on, whose histograms and
/// service counters give the service, engine and anneal figures. Then the
/// in-process replays (layers.hpp) for the figures no daemon counter
/// splits out, named replay.*. The layer replay runs traced and untraced
/// over the same check-sats; its wall-time difference is the tracing
/// overhead. Returns the per-layer metrics; `untraced_pass` receives the
/// untraced socket pass, whose counts the envelope reports.
std::vector<Metric> traced_run(const Options& options, std::size_t connections,
                               Tally& tally, PassResult& untraced_pass,
                               std::vector<Metric>& overhead) {
  const double seconds = options.seconds;
  const SocketPass untraced =
      socket_pass(options, connections, seconds * 0.2, false, tally);
  const SocketPass traced =
      socket_pass(options, connections, seconds * 0.2, true, tally);
  untraced_pass = untraced.pass;

  ReplayInput input;
  input.workload = options.workload;
  input.seed = options.seed;
  input.connections = connections;
  input.exclude = untraced.warm_keys;
  input.seconds = seconds * 0.15;
  const ServiceReplay service = replay_service(input);
  tally.add(service.jobs, service.failed,
            service.failed > 0 ? std::vector<std::string>{"service replay: "
                                                          "unsat on a planted "
                                                          "witness"}
                               : std::vector<std::string>{});
  input.seconds = seconds * 0.1;
  const SessionReplay sessions = replay_sessions(input);
  tally.add(sessions.consume_s.size(), sessions.errors,
            sessions.errors > 0
                ? std::vector<std::string>{"session replay: error replies"}
                : std::vector<std::string>{});
  // The first layer replay fixes how many check-sats the traced and the
  // untraced replays cover; it also warms the process, so the traced
  // replay is compared with the untraced one that follows it.
  input.seconds = seconds * 0.1;
  const LayerReplay warm = replay_layers(input, SIZE_MAX, false);
  input.seconds = 1e9;
  telemetry::reset();
  telemetry::clear_trace_events();
  (void)telemetry::trace_now_us();  // fixes the trace epoch before any span
  const LayerReplay layers = replay_layers(input, warm.check_sats, true);
  std::vector<telemetry::TraceEvent> events = telemetry::trace_events();
  telemetry::clear_trace_events();
  const LayerReplay plain = replay_layers(input, warm.check_sats, false);

  if (!options.trace_file.empty()) {
    link_spans(events);
    std::ofstream file(options.trace_file, std::ios::trunc);
    telemetry::write_chrome_trace(file, events);
    if (!file) {
      std::cerr << "e2e_bench: cannot write " << options.trace_file << "\n";
    }
  }

  const auto p50 = [](const std::vector<double>& s) { return quantile(s, 0.5); };
  const auto checksat_p50_ms = [&](const PassResult& pass) {
    return p50(pass.window_p50_s) * 1e3;
  };
  const auto replay_us_per_check_sat = [](const LayerReplay& replay) {
    return ratio(replay.wall_s, static_cast<double>(replay.check_sats)) * 1e6;
  };
  overhead = {
      {"untraced_p50_ms", checksat_p50_ms(untraced.pass), "ms"},
      {"telemetry_p50_ms", checksat_p50_ms(traced.pass), "ms"},
      {"untraced_jobs_per_s", untraced.pass.jobs_per_s, "1/s"},
      {"telemetry_jobs_per_s", traced.pass.jobs_per_s, "1/s"},
      {"replay_untraced_us_per_check_sat", replay_us_per_check_sat(plain),
       "us"},
      {"replay_traced_us_per_check_sat", replay_us_per_check_sat(layers),
       "us"},
  };

  const auto us = [&](std::string_view span, double q) {
    return quantile(durations(events, span), q) * 1e6;
  };
  const auto ms = [&](std::string_view span, double q) {
    return quantile(durations(events, span), q) * 1e3;
  };
  const double session_us = p50(sessions.consume_s) * 1e6;
  const telemetry::Snapshot& daemon = traced.telemetry;
  const auto [queue_p50, queue_p99] =
      histogram_p50_p99(daemon, "service.job.wait_seconds", 1e3);
  const auto [solve_p50, solve_p99] =
      histogram_p50_p99(daemon, "service.job.seconds", 1e3);
  const auto [sample_p50, sample_p99] =
      histogram_p50_p99(daemon, "anneal.sample.seconds", 1e3);
  const auto [script_p50, script_p99] =
      histogram_p50_p99(daemon, "engine.solve_script.seconds", 1e3);
  const telemetry::HistogramStat* script_calls =
      daemon.histogram("engine.solve_script.seconds");
  const telemetry::CounterStat* reads = daemon.counter("anneal.reads");
  const telemetry::HistogramStat* sweeps =
      daemon.histogram("anneal.read.sweeps");
  const telemetry::HistogramStat* acceptance =
      daemon.histogram("anneal.read.acceptance");
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  const auto delta = [&](std::uint64_t service::SolveService::Stats::*field) {
    return count(traced.after.*field - traced.before.*field);
  };
  const double jobs = delta(&service::SolveService::Stats::jobs_submitted);
  const double answer_hits = delta(&service::SolveService::Stats::answer_hits);
  const double warm_starts = delta(&service::SolveService::Stats::warm_starts);
  const double warm_hits = delta(&service::SolveService::Stats::warm_hits);

  return {
      // Daemon figures: the telemetry-on socket pass.
      {"service.queue_ms.p50", queue_p50, "ms"},
      {"service.queue_ms.p99", queue_p99, "ms"},
      {"service.solve_ms.p50", solve_p50, "ms"},
      {"service.solve_ms.p99", solve_p99, "ms"},
      {"service.cancelled_per_job",
       ratio(delta(&service::SolveService::Stats::members_cancelled), jobs),
       "count"},
      {"service.fused_ratio",
       ratio(delta(&service::SolveService::Stats::jobs_fused), jobs), "ratio"},
      {"service.warm_starts", warm_starts, "count"},
      {"service.warm_hits", warm_hits, "count"},
      {"service.warm_hit_ratio", ratio(warm_hits, warm_starts), "ratio"},
      {"canon.hit_ratio", ratio(answer_hits, jobs), "ratio"},
      {"canon.fallbacks",
       delta(&service::SolveService::Stats::answer_fallbacks), "count"},
      {"engine.solve_script_ms.p50", script_p50, "ms"},
      {"engine.solve_script_ms.p99", script_p99, "ms"},
      {"engine.solve_script_calls",
       script_calls != nullptr ? count(script_calls->count) : 0.0, "count"},
      {"anneal.sample_ms.p50", sample_p50, "ms"},
      {"anneal.sample_ms.p99", sample_p99, "ms"},
      {"anneal.reads_per_job",
       ratio(reads != nullptr ? count(reads->value) : 0.0, jobs - answer_hits),
       "count"},
      {"anneal.sweeps_per_read", sweeps != nullptr ? sweeps->mean() : 0.0,
       "count"},
      {"anneal.acceptance", acceptance != nullptr ? acceptance->mean() : 0.0,
       "ratio"},
      // Replay figures: what no daemon counter splits out.
      {"replay.server.session_us", session_us, "us"},
      {"replay.server.transport_us",
       checksat_p50_ms(untraced.pass) * 1e3 - session_us, "us"},
      {"replay.service.attempts_per_job",
       ratio(count(service.attempts), count(service.jobs)), "count"},
      {"replay.service.reset_warm_starts", count(service.reset_warm_starts),
       "count"},
      {"replay.service.reset_warm_hit_ratio",
       ratio(count(service.reset_warm_hits), count(service.reset_warm_starts)),
       "ratio"},
      {"replay.canon.canonicalize_us", us("e2e.canon.canonicalize", 0.5), "us"},
      {"replay.canon.lookup_us", us("e2e.canon.lookup", 0.5), "us"},
      {"replay.canon.insert_us", us("e2e.canon.insert", 0.5), "us"},
      {"replay.smtlib.parse_us", us("e2e.smtlib.parse_script", 0.5), "us"},
      {"replay.smtlib.compile_us", us("e2e.smtlib.compile_assertions", 0.5),
       "us"},
      {"replay.baseline.certify_us.p50", us("e2e.baseline.certify_unsat", 0.5),
       "us"},
      {"replay.baseline.certify_us.p99", us("e2e.baseline.certify_unsat", 0.99),
       "us"},
      {"replay.strqubo.prepare_us", us("e2e.strqubo.prepare", 0.5), "us"},
      {"replay.strqubo.verify_us", us("e2e.strqubo.decode_and_verify", 0.5),
       "us"},
      {"replay.qubo.variables", mean(layers.qubo_variables), "count"},
      {"replay.qubo.separable_ratio",
       ratio(count(layers.separable), count(layers.qubo_variables.size())),
       "ratio"},
      {"replay.anneal.sample_ms.sa-fast.p50",
       ms("e2e.anneal.sample.sa-fast", 0.5), "ms"},
      {"replay.anneal.sample_ms.sa-fast.p99",
       ms("e2e.anneal.sample.sa-fast", 0.99), "ms"},
      {"replay.anneal.sample_ms.sa-deep.p50",
       ms("e2e.anneal.sample.sa-deep", 0.5), "ms"},
      {"replay.anneal.sample_ms.sa-deep.p99",
       ms("e2e.anneal.sample.sa-deep", 0.99), "ms"},
      {"replay.anneal.cpu_per_wall",
       ratio(layers.sample_cpu_s, layers.sample_wall_s), "ratio"},
      {"replay.check_sats", count(layers.check_sats), "count"},
      // Overheads: daemon telemetry on the socket path, spans in the replay.
      {"trace.telemetry_p50_delta_ms",
       checksat_p50_ms(traced.pass) - checksat_p50_ms(untraced.pass), "ms"},
      {"trace.telemetry_jobs_per_s_delta",
       untraced.pass.jobs_per_s - traced.pass.jobs_per_s, "1/s"},
      {"trace.span_us_per_check_sat",
       replay_us_per_check_sat(layers) - replay_us_per_check_sat(plain), "us"},
  };
}

int run(const Options& options) {
  if (!options.record.empty() &&
      (options.trace || options.seconds < kMinRecordSeconds)) {
    std::cerr << "e2e_bench: refusing --record for a traced or shorter than "
              << kMinRecordSeconds << " s run\n";
    return 3;
  }
  telemetry::set_mode(telemetry::Mode::kOff);
  Stopwatch clock;
  const HostProbe host = probe_host();
  const std::size_t connections = std::min(kMaxConnections, host.cpus);
  const double probe_s = clock.elapsed_seconds();

  const CorpusResult corpus = replay_corpus(options.root);
  Tally tally;
  tally.add(corpus.files, corpus.failed, corpus.failures);
  const double corpus_s = clock.elapsed_seconds() - probe_s;

  std::vector<Metric> metrics;
  std::vector<Metric> overhead;
  std::vector<double> setup_samples;
  PassResult pass;
  if (options.trace) {
    metrics = traced_run(options, connections, tally, pass, overhead);
  } else {
    std::unique_ptr<Daemon> daemon;
    std::unordered_set<std::string> warm_keys;
    for (std::size_t i = 0; i < kSetups; ++i) {
      daemon.reset();
      Stopwatch timer;
      daemon = set_up(options, connections, tally, warm_keys);
      setup_samples.push_back(timer.elapsed_seconds());
    }
    Source source(options.workload, options.seed, connections, warm_keys);
    pass = drive(*daemon, source, options.seconds, SIZE_MAX, kWindows);
    daemon.reset();
    tally.add(pass);
    metrics = end_to_end(pass, quantile(setup_samples, 0.5), tally);
  }
  const bool correct = tally.failed == 0;
  const double median_steal = quantile(pass.window_steal_share, 0.5);
  const bool steal_ok = median_steal <= kMaxStealShare;

  for (std::size_t i = 0; i < tally.failures.size() && i < 10; ++i) {
    std::cerr << "e2e_bench: FAIL " << tally.failures[i] << "\n";
  }
  std::cerr << "e2e_bench: " << workload_name(options.workload) << " seed "
            << options.seed << ", " << connections << " connections, "
            << pass.check_sats << " timed check-sats, host "
            << host.effective_cores << " of " << host.cpus
            << " cores effective; probe " << probe_s << " s, corpus "
            << corpus_s << " s, total " << clock.elapsed_seconds() << " s\n";
  if (!steal_ok) {
    std::cerr << "e2e_bench: WARNING the host withheld " << median_steal
              << " of the CPU time in the median window (more than "
              << kMaxStealShare
              << "); repeat this run rather than compare it\n";
  }
  for (const Metric& metric : metrics) {
    std::cerr << "  " << metric.name << " = " << metric.value << " "
              << metric.unit << "\n";
  }

  std::string samples;
  for (double s : setup_samples) {
    samples += (samples.empty() ? "" : ", ") + json_number(s);
  }
  const std::string envelope =
      std::string("{\"schema\": \"qsmt-e2ebench/1\", \"workload\": \"") +
      workload_name(options.workload) + "\", \"seed\": " +
      std::to_string(options.seed) + ", \"seconds\": " +
      json_number(options.seconds) + ", \"trace\": " +
      (options.trace ? "1" : "0") + ", \"connections\": " +
      std::to_string(connections) + ", \"check_sats\": " +
      std::to_string(pass.check_sats) + ", \"p99_supported\": " +
      (pass.check_sats >= kMinCheckSats ? "true" : "false") +
      ", \"prefix_unknowns\": {\"per_connection\": " +
      std::to_string(kPrefixChecks) + ", \"unknown\": " +
      std::to_string(pass.prefix_unknown) + "}" +
      ", \"host\": {\"cpus\": " + std::to_string(host.cpus) +
      ", \"one_thread_s\": " + json_number(host.one_thread_s) +
      ", \"all_threads_s\": " + json_number(host.all_threads_s) +
      ", \"effective_cores\": " + json_number(host.effective_cores) + "}" +
      ", \"corpus\": {\"files\": " + std::to_string(corpus.files) +
      ", \"failed\": " + std::to_string(corpus.failed) + "}" +
      ", \"setup_s_samples\": [" + samples + "]" +
      ", \"windows\": {\"p50_ms\": " + json_list(pass.window_p50_s, 1e3) +
      ", \"jobs_per_s\": " + json_list(pass.window_jobs_per_s, 1.0) +
      ", \"cpu_ms\": " + json_list(pass.window_cpu_s, 1e3) +
      ", \"steal_share\": " + json_list(pass.window_steal_share, 1.0) + "}" +
      ", \"steal\": {\"median_share\": " + json_number(median_steal) +
      ", \"ok\": " + (steal_ok ? "true" : "false") + "}" +
      ", \"trace_overhead\": " + metrics_json(overhead) +
      ", \"correct\": " + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(tally.attempted) +
      ", \"failed\": " + std::to_string(tally.failed) +
      ", \"metrics\": " + metrics_json(metrics) + "}";
  std::cout << envelope << "\n";

  if (!options.record.empty()) {
    if (!correct || pass.check_sats < kMinCheckSats) {
      std::cerr << "e2e_bench: refusing --record: run was not correct or "
                   "carried fewer than "
                << kMinCheckSats << " check-sats\n";
      return 3;
    }
    std::ofstream out(options.record, std::ios::trunc);
    out << envelope << "\n";
    if (!out) {
      std::cerr << "e2e_bench: cannot write " << options.record << "\n";
      return 3;
    }
  }

  // The result line carries error_ratio as its own failed/attempted.
  std::vector<Metric> promised;
  for (const Metric& metric : metrics) {
    if (metric.name != "error_ratio") promised.push_back(metric);
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << metrics_json(promised) << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace qsmt::e2ebench

int main(int argc, char** argv) {
  const qsmt::e2ebench::Options options =
      qsmt::e2ebench::parse_options(argc, argv);
  try {
    return qsmt::e2ebench::run(options);
  } catch (const std::exception& error) {
    std::cerr << "e2e_bench: " << error.what() << "\n";
    return 1;
  }
}
