#include "layers.hpp"

#include <thread>

#include "baseline/unsat.hpp"
#include "canon/answer_cache.hpp"
#include "canon/canon.hpp"
#include "engine/engine.hpp"
#include "host.hpp"
#include "server/admission.hpp"
#include "server/session.hpp"
#include "smtlib/compiler.hpp"
#include "smtlib/parser.hpp"
#include "strqubo/solver.hpp"
#include "strqubo/verify.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace qsmt::e2ebench {

namespace {

/// The script a server session submits for a script job: its declarations
/// and assertions re-printed, then one check-sat.
std::string session_script(const AssertionSet& set) {
  std::string script;
  for (const auto& [name, sort] : set.declared) {
    script += "(declare-const " + name + " " + smtlib::sort_name(sort) + ")\n";
  }
  for (const smtlib::TermPtr& term : set.assertions) {
    script += "(assert " + smtlib::to_string(term) + ")\n";
  }
  script += "(check-sat)\n";
  return script;
}

/// The next request of `connection` that carries a check-sat.
Request next_check_sat(Source& source, std::size_t connection) {
  for (;;) {
    Request request = source.next(connection);
    if (request.query) return request;
  }
}

/// Switches telemetry to trace mode for as long as a span is constructed.
struct TraceModeFor {
  explicit TraceModeFor(bool trace) {
    if (trace) telemetry::set_mode(telemetry::Mode::kTrace);
  }
};

/// A benchmark span tagged with the check-sat it belongs to; with `trace`
/// unset it is inert. telemetry::Span reads the mode once, at
/// construction, so trace mode is on only while the span is opened: the
/// layer calls inside it run with telemetry off, as in a default daemon
/// (in trace mode the sampler would leave its batched kernel for the
/// scalar one, and every solver span would add its own cost).
class RequestSpan : private TraceModeFor, public telemetry::Span {
 public:
  RequestSpan(std::string_view name, std::uint64_t request, bool trace)
      : TraceModeFor(trace), Span(name) {
    arg("request", static_cast<double>(request));
    if (trace) telemetry::set_mode(telemetry::Mode::kOff);
  }
};

bool witness_fits(const strqubo::Constraint& constraint,
                  const std::string& witness) {
  return witness.size() * 7 <= strqubo::constraint_num_variables(constraint);
}

}  // namespace

AssertionSet assertion_set(const std::string& script) {
  AssertionSet set;
  for (const smtlib::Command& command : smtlib::parse_script(script)) {
    if (const auto* declare = std::get_if<smtlib::DeclareConst>(&command)) {
      set.declared[declare->name] = declare->sort;
    } else if (const auto* assertion =
                   std::get_if<smtlib::AssertCmd>(&command)) {
      set.assertions.push_back(assertion->term);
    }
  }
  return set;
}

service::ServiceOptions daemon_service_options() {
  service::ServiceOptions options;
  canon::AnswerCacheOptions cache;
  cache.max_bytes = kAnswerCacheBytes;
  options.answer_cache = std::make_shared<canon::AnswerCache>(cache);
  return options;
}

std::uint64_t session_job_seed(std::uint64_t tenant, std::uint64_t ordinal) {
  std::uint64_t z = tenant + ordinal * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ServiceReplay replay_service(const ReplayInput& input) {
  service::SolveService service(daemon_service_options());
  Source source(input.workload, input.seed, input.connections, input.exclude);
  std::vector<ServiceReplay> partial(input.connections);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(input.seconds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < input.connections; ++c) {
    threads.emplace_back([&, c] {
      ServiceReplay& out = partial[c];
      std::optional<std::string> last_model;
      std::uint64_t ordinal = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        const Request request = next_check_sat(source, c);
        const Query& query = *request.query;
        service::JobOptions job;
        job.seed = session_job_seed(c, ++ordinal);
        job.tag = c;
        job.warm_start = last_model;
        const bool reset_warm = query.constraint_job && query.after_reset &&
                                last_model.has_value() &&
                                witness_fits(query.constraints.front(),
                                             *last_model);
        const service::JobResult result =
            query.constraint_job
                ? service.submit(query.constraints.front(), job).get()
                : service
                      .submit_script(
                          session_script(assertion_set(query.script)), job)
                      .get();
        ++out.jobs;
        out.attempts += result.attempts;
        if (reset_warm && !result.answer_cache_hit) {
          ++out.reset_warm_starts;
          for (const std::string& note : result.notes) {
            if (note == "warm start") ++out.reset_warm_hits;
          }
        }
        if (result.status == smtlib::CheckSatStatus::kSat) {
          last_model = result.text ? *result.text : result.model_value;
        } else if (result.status == smtlib::CheckSatStatus::kUnsat) {
          ++out.failed;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  ServiceReplay total;
  for (const ServiceReplay& part : partial) {
    total.jobs += part.jobs;
    total.attempts += part.attempts;
    total.reset_warm_starts += part.reset_warm_starts;
    total.reset_warm_hits += part.reset_warm_hits;
    total.failed += part.failed;
  }
  return total;
}

SessionReplay replay_sessions(const ReplayInput& input) {
  service::SolveService service(daemon_service_options());
  server::AdmissionGate gate(service.num_workers(), 64);
  Source source(input.workload, input.seed, input.connections, input.exclude);
  std::vector<SessionReplay> partial(input.connections);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(input.seconds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < input.connections; ++c) {
    threads.emplace_back([&, c] {
      server::SessionOptions options;
      options.seed = c;
      options.tenant = c;
      server::Session session(service, &gate, options);
      SessionReplay& out = partial[c];
      while (std::chrono::steady_clock::now() < deadline) {
        const Request request = source.next(c);
        Stopwatch timer;
        session.consume(request.frame);
        if (request.query) out.consume_s.push_back(timer.elapsed_seconds());
      }
      const server::Session::Stats stats = session.stats();
      out.errors = stats.errors + stats.overload_rejects;
    });
  }
  for (std::thread& thread : threads) thread.join();

  SessionReplay total;
  for (const SessionReplay& part : partial) {
    total.consume_s.insert(total.consume_s.end(), part.consume_s.begin(),
                           part.consume_s.end());
    total.errors += part.errors;
  }
  return total;
}

LayerReplay replay_layers(const ReplayInput& input,
                          std::size_t max_check_sats, bool trace) {
  Source source(input.workload, input.seed, input.connections, input.exclude);
  canon::AnswerCacheOptions cache_options;
  cache_options.max_bytes = kAnswerCacheBytes;
  canon::AnswerCache cache(cache_options);
  const std::vector<service::PortfolioMember> portfolio =
      service::default_portfolio();
  const strqubo::BuildOptions build;
  std::vector<std::uint64_t> ordinals(input.connections, 0);
  LayerReplay out;
  Stopwatch clock;
  std::uint64_t request_id = 0;

  while (clock.elapsed_seconds() < input.seconds &&
         out.check_sats < max_check_sats) {
    for (std::size_t c = 0;
         c < input.connections && out.check_sats < max_check_sats; ++c) {
      const Request request = next_check_sat(source, c);
      const Query& query = *request.query;
      const std::uint64_t id = request_id++;
      const std::uint64_t job_seed = session_job_seed(c, ++ordinals[c]);
      ++out.check_sats;
      RequestSpan root("e2e.check_sat", id, trace);

      {
        RequestSpan span("e2e.smtlib.parse_script", id, trace);
        (void)smtlib::parse_script(request.frame);
      }
      const AssertionSet set = assertion_set(query.script);
      smtlib::CompiledQuery compiled;
      {
        RequestSpan span("e2e.smtlib.compile_assertions", id, trace);
        compiled = smtlib::compile_assertions(set.assertions, set.declared);
      }
      {
        RequestSpan span("e2e.baseline.certify_unsat", id, trace);
        (void)baseline::certify_unsat(compiled.constraints);
      }
      std::string key;
      {
        RequestSpan span("e2e.canon.canonicalize", id, trace);
        if (query.constraint_job) {
          key = canon::constraint_answer_key(compiled.constraints.front(),
                                             build);
        } else {
          key = canon::script_answer_key(
              canon::canonicalize_script(session_script(set)), build);
        }
      }
      std::optional<canon::CachedAnswer> cached;
      {
        RequestSpan span("e2e.canon.lookup", id, trace);
        cached = cache.lookup(key);
      }
      if (cached) {
        RequestSpan span("e2e.strqubo.verify_string", id, trace);
        for (const strqubo::Constraint& constraint : query.constraints) {
          (void)strqubo::verify_string(constraint, cached->text.value_or(""));
        }
        continue;
      }

      std::optional<std::string> witness;
      if (query.constraint_job) {
        const strqubo::Constraint& constraint = compiled.constraints.front();
        const strqubo::PreparedConstraint prepared = [&] {
          RequestSpan span("e2e.strqubo.prepare", id, trace);
          return strqubo::prepare(constraint, build);
        }();
        out.qubo_variables.push_back(
            static_cast<double>(prepared.model.num_variables()));
        if (prepared.model.num_interactions() == 0) ++out.separable;
        // Every member samples in full: the per-member cost is the number
        // wanted, not which member would have won the race.
        for (std::size_t m = 0; m < portfolio.size(); ++m) {
          const auto sampler = portfolio[m].make(
              mix_seed(mix_seed(job_seed, m + 1), 1), CancelToken{});
          anneal::SampleSet samples;
          const double cpu_before = process_cpu_seconds();
          Stopwatch wall;
          {
            RequestSpan span("e2e.anneal.sample." + portfolio[m].name, id,
                             trace);
            samples = sampler->sample(prepared.adjacency);
          }
          out.sample_wall_s += wall.elapsed_seconds();
          out.sample_cpu_s += process_cpu_seconds() - cpu_before;
          strqubo::SolveResult solved;
          {
            RequestSpan span("e2e.strqubo.decode_and_verify", id, trace);
            solved = strqubo::decode_and_verify(constraint, samples);
          }
          if (solved.satisfied && !witness) witness = solved.text;
        }
      } else {
        const std::string script = session_script(set);
        for (std::size_t m = 0; m < portfolio.size(); ++m) {
          const auto sampler = portfolio[m].make(
              mix_seed(mix_seed(job_seed, m + 1), 1), CancelToken{});
          engine::ScriptResult solved;
          {
            RequestSpan span("e2e.engine.solve_script." + portfolio[m].name,
                             id, trace);
            solved = engine::solve_script(script, *sampler, build);
          }
          if (solved.status == smtlib::CheckSatStatus::kSat && !witness) {
            witness = solved.model_value;
          }
        }
      }
      if (witness) {
        canon::CachedAnswer answer;
        answer.status = smtlib::CheckSatStatus::kSat;
        answer.text = witness;
        RequestSpan span("e2e.canon.insert", id, trace);
        cache.insert(key, std::move(answer));
      }
    }
  }
  out.wall_s = clock.elapsed_seconds();
  return out;
}

}  // namespace qsmt::e2ebench
