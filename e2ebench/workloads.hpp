// The benchmark's three closed-loop traffic mixes, generated from a seed.
//
// The server only ever sees the SMT-LIB text of Request::frame. Everything
// else a Request carries is the benchmark's own knowledge of what it sent:
// the constraints of the check-sat's assertion set, each satisfied by the
// witness the generator planted, so every reply can be checked classically.
//
//  * solve-cold: distinct generated scripts (all 11 op families that render
//    to SMT-LIB, string lengths 4-8), each sent as (check-sat)(get-model)
//    followed by a (reset) frame. No structure key repeats, so every
//    check-sat misses the answer cache and runs prepare -> sample -> verify.
//  * repeat-alpha: blocks of 48 distinct queries, each sent 12 times as an
//    alpha-renamed, argument-permuted variant, shuffled within the block.
//    After the first sighting the answer cache serves the query, so the
//    mix exercises session, parse, compile, canonicalize, lookup and one
//    verification. The miss share stays 1/12 however fast the server is.
//  * incremental-chain: sessions of 24 check-sats over one planted
//    witness: a length fact and a base conjunct, one plain check-sat, then
//    (push)(assert fact)(check-sat)(pop) and check-sat-assuming with a fact
//    not used before in the session. These multi-conjunct check-sats take
//    the service's script-job path.
//
// Requests are assigned to connections statically: connection c's k-th
// request is a pure function of (workload, seed, c, k), generated lazily so
// a run's length is bounded by time, not by a pre-built list.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "strqubo/constraint.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace qsmt::e2ebench {

enum class Workload { kSolveCold, kRepeatAlpha, kIncrementalChain };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);

/// What the benchmark knows about one check-sat it sends.
struct Query {
  /// The string constant the model must define.
  std::string variable;
  /// The assertion set at this check-sat as compiled constraints; the
  /// planted witness satisfies every one.
  std::vector<strqubo::Constraint> constraints;
  /// A plain script with the same assertion set (declarations, asserts,
  /// one check-sat): the input of the in-process layer replays.
  std::string script;
  /// The server submits it as a constraint job (one string-producing
  /// conjunct) rather than a script job.
  bool constraint_job = false;
  /// This connection's previous check-sat, if any, happened before a
  /// (reset): a warm-start witness reaching this job crossed the reset.
  bool after_reset = false;
};

struct Request {
  std::string frame;
  /// Set when the frame carries a check-sat; its reply must lead with a
  /// verdict. Frames without one must draw an empty reply.
  std::optional<Query> query;
};

class Source {
 public:
  /// `exclude` holds structure keys the distinct-query workloads must not
  /// reuse (the warm-up's, so the timed queries start out of the cache).
  Source(Workload workload, std::uint64_t seed, std::size_t connections,
         std::unordered_set<std::string> exclude = {});

  Source(const Source&) = delete;
  Source& operator=(const Source&) = delete;

  /// Connection `connection`'s next request. Thread-safe; each connection
  /// must be driven by one thread at a time.
  Request next(std::size_t connection);

  /// Structure keys of every distinct base query generated so far.
  std::unordered_set<std::string> base_keys() const;

 private:
  struct Cursor {
    std::size_t checks = 0;  ///< Check-sats handed out on this connection.
    std::deque<Request> pending;
  };

  const strqubo::Constraint& base_locked(std::size_t index);
  Query alpha_variant_locked(std::size_t item);
  void fill_session(std::size_t connection, Cursor& cursor);

  Workload workload_;
  std::uint64_t seed_;
  std::size_t connections_;
  std::unordered_set<std::string> exclude_;

  mutable std::mutex mutex_;  ///< Guards the lazily extended base sequence.
  workload::Generator generator_;
  std::vector<strqubo::Constraint> bases_;
  std::unordered_set<std::string> keys_;
  std::vector<std::vector<std::uint16_t>> block_orders_;
  std::vector<Cursor> cursors_;  ///< One per connection, touched by its thread.
  std::vector<std::size_t> sessions_;
};

}  // namespace qsmt::e2ebench
