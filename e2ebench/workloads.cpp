#include "workloads.hpp"

#include <algorithm>
#include <utility>

#include "strqubo/verify.hpp"
#include "workload/smt2_render.hpp"

namespace qsmt::e2ebench {

namespace {

constexpr std::size_t kMinLength = 4;
constexpr std::size_t kMaxLength = 8;
constexpr std::size_t kBlockQueries = 48;
constexpr std::size_t kVariantsPerQuery = 12;
constexpr std::size_t kBlockItems = kBlockQueries * kVariantsPerQuery;
constexpr std::size_t kSessionChecks = 24;

workload::Generator make_generator(std::uint64_t seed) {
  workload::GeneratorParams params;
  params.min_length = kMinLength;
  params.max_length = kMaxLength;
  params.seed = seed;
  return workload::Generator(params);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    if (end > begin) lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

/// (assert (= A B)) -> (assert (= B A)) when A is the variable or its
/// str.len; other lines are returned unchanged. `=` is symmetric, so the
/// flipped script is alpha-equivalent to the original.
std::string flip_equality(const std::string& line, const std::string& variable) {
  const std::string head = "(assert (= ";
  if (line.rfind(head, 0) != 0 || line.size() < head.size() + 2) return line;
  const std::string body =
      line.substr(head.size(), line.size() - head.size() - 2);
  for (const std::string& lhs : {variable, "(str.len " + variable + ")"}) {
    if (body.rfind(lhs + " ", 0) == 0) {
      return head + body.substr(lhs.size() + 1) + " " + lhs + "))";
    }
  }
  return line;
}

std::string quoted(const std::string& text) { return "\"" + text + "\""; }

/// One conjunct of an incremental-chain session: its SMT-LIB term over `x`
/// and the constraint the server's compiler turns it into.
struct Fact {
  std::string term;
  strqubo::Constraint constraint;
};

/// A random fact that the planted witness `w` satisfies, other than a
/// char-at on `base_index` (which would duplicate the base conjunct).
Fact draw_fact(Xoshiro256& rng, const std::string& w, std::size_t base_index) {
  const std::size_t n = w.size();
  for (;;) {
    const std::size_t len = 1 + rng.below(3);
    const std::size_t at = rng.below(n - len + 1);
    const std::string sub = w.substr(at, len);
    Fact fact;
    switch (rng.below(6)) {
      case 0: {
        const std::size_t j = rng.below(n);
        if (j == base_index) continue;
        fact.term = "(= (str.at x " + std::to_string(j) + ") " +
                    quoted(std::string(1, w[j])) + ")";
        fact.constraint = strqubo::CharAt{n, j, w[j]};
        break;
      }
      case 1:
        fact.term = "(str.contains x " + quoted(sub) + ")";
        fact.constraint = strqubo::SubstringMatch{n, sub};
        break;
      case 2: {
        const std::size_t first = w.find(sub);
        fact.term = "(= (str.indexof x " + quoted(sub) + " 0) " +
                    std::to_string(first) + ")";
        fact.constraint = strqubo::IndexOf{n, sub, first};
        break;
      }
      case 3: {
        const std::string prefix = w.substr(0, len);
        fact.term = "(str.prefixof " + quoted(prefix) + " x)";
        fact.constraint = strqubo::IndexOf{n, prefix, 0};
        break;
      }
      case 4: {
        // The compiler lowers suffixof to a first-occurrence index, so a
        // suffix that also occurs earlier in w is not a fact about w;
        // verify_string below rejects it and the loop draws again.
        const std::string suffix = w.substr(n - len);
        fact.term = "(str.suffixof " + quoted(suffix) + " x)";
        fact.constraint = strqubo::IndexOf{n, suffix, n - len};
        break;
      }
      default: {
        std::string absent;
        absent.push_back(static_cast<char>('a' + rng.below(26)));
        absent.push_back(static_cast<char>('a' + rng.below(26)));
        fact.term = "(not (str.contains x " + quoted(absent) + "))";
        fact.constraint = strqubo::NotContains{n, absent};
        break;
      }
    }
    if (strqubo::verify_string(fact.constraint, w)) return fact;
  }
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "solve-cold") return Workload::kSolveCold;
  if (name == "repeat-alpha") return Workload::kRepeatAlpha;
  if (name == "incremental-chain") return Workload::kIncrementalChain;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kSolveCold:
      return "solve-cold";
    case Workload::kRepeatAlpha:
      return "repeat-alpha";
    case Workload::kIncrementalChain:
      return "incremental-chain";
  }
  return "?";
}

Source::Source(Workload workload, std::uint64_t seed, std::size_t connections,
               std::unordered_set<std::string> exclude)
    : workload_(workload),
      seed_(seed),
      connections_(connections),
      exclude_(std::move(exclude)),
      generator_(make_generator(seed)),
      cursors_(connections),
      sessions_(connections, 0) {}

std::unordered_set<std::string> Source::base_keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return keys_;
}

const strqubo::Constraint& Source::base_locked(std::size_t index) {
  while (bases_.size() <= index) {
    strqubo::Constraint constraint = generator_.next();
    // Includes renders to no script (it has no free string variable).
    if (!workload::to_smt2(constraint)) continue;
    std::string key = strqubo::structure_key(constraint);
    if (exclude_.contains(key) || !keys_.insert(std::move(key)).second) {
      continue;
    }
    bases_.push_back(std::move(constraint));
  }
  return bases_[index];
}

Query Source::alpha_variant_locked(std::size_t item) {
  const std::size_t block = item / kBlockItems;
  while (block_orders_.size() <= block) {
    std::vector<std::uint16_t> order(kBlockItems);
    for (std::size_t i = 0; i < kBlockItems; ++i) {
      order[i] = static_cast<std::uint16_t>(i);
    }
    Xoshiro256 rng(seed_, 0xb10c000000ULL + block_orders_.size());
    for (std::size_t i = kBlockItems - 1; i > 0; --i) {
      std::swap(order[i], order[rng.below(i + 1)]);
    }
    block_orders_.push_back(std::move(order));
  }
  const std::size_t slot = block_orders_[block][item % kBlockItems];
  const strqubo::Constraint& base =
      base_locked(block * kBlockQueries + slot / kVariantsPerQuery);

  Xoshiro256 rng(seed_, 0xa1fa000000ULL + block * kBlockItems + slot);
  std::string variable = "q";
  for (std::uint64_t id = rng.below(36ULL * 36 * 36 * 36); variable.size() < 5;
       id /= 36) {
    variable += "0123456789abcdefghijklmnopqrstuvwxyz"[id % 36];
  }
  std::vector<std::string> lines =
      split_lines(*workload::to_smt2_asserts(base, variable));
  for (std::string& line : lines) {
    if (rng.coin()) line = flip_equality(line, variable);
  }
  if (lines.size() == 2 && rng.coin()) std::swap(lines[0], lines[1]);
  Query query;
  query.script = "(set-logic QF_S)\n(declare-const " + variable + " String)\n";
  for (const std::string& line : lines) query.script += line + "\n";
  query.script += "(check-sat)\n(get-model)\n";
  query.constraints = {base};
  query.variable = std::move(variable);
  return query;
}

void Source::fill_session(std::size_t connection, Cursor& cursor) {
  const std::size_t session = sessions_[connection]++;
  Xoshiro256 rng(mix_seed(seed_, 0x5e55100ULL + connection), session);
  const std::size_t n = kMinLength + rng.below(kMaxLength - kMinLength + 1);
  std::string w(n, 'a');
  for (char& c : w) c = static_cast<char>('a' + rng.below(26));
  const std::size_t base_index = rng.below(n);
  const strqubo::Constraint base = strqubo::CharAt{n, base_index, w[base_index]};
  const std::string prelude =
      "(declare-const x String)\n(assert (= (str.len x) " + std::to_string(n) +
      "))\n(assert (= (str.at x " + std::to_string(base_index) + ") " +
      quoted(std::string(1, w[base_index])) + "))\n";

  cursor.pending.push_back(Request{prelude, std::nullopt});
  Query first;
  first.variable = "x";
  first.constraints = {base};
  first.script = prelude + "(check-sat)\n";
  first.constraint_job = true;
  first.after_reset = session > 0;
  cursor.pending.push_back(
      Request{"(check-sat)\n(get-model)\n", std::move(first)});
  // Facts do not repeat within a session: a repeat would be served from
  // the answer cache instead of taking the script-job path.
  std::unordered_set<std::string> used;
  for (std::size_t i = 1; i < kSessionChecks; ++i) {
    Fact fact = draw_fact(rng, w, base_index);
    while (!used.insert(fact.term).second) {
      fact = draw_fact(rng, w, base_index);
    }
    Query query;
    query.variable = "x";
    query.constraints = {base, fact.constraint};
    query.script = prelude + "(assert " + fact.term + ")\n(check-sat)\n";
    std::string frame =
        i % 4 == 0
            ? "(check-sat-assuming (" + fact.term + "))\n(get-model)\n"
            : "(push 1)\n(assert " + fact.term +
                  ")\n(check-sat)\n(get-model)\n(pop 1)\n";
    cursor.pending.push_back(Request{std::move(frame), std::move(query)});
  }
  cursor.pending.push_back(Request{"(reset)\n", std::nullopt});
}

Request Source::next(std::size_t connection) {
  Cursor& cursor = cursors_.at(connection);
  if (cursor.pending.empty()) {
    if (workload_ == Workload::kIncrementalChain) {
      fill_session(connection, cursor);
    } else {
      const std::size_t item = cursor.checks * connections_ + connection;
      Query query;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (workload_ == Workload::kSolveCold) {
          const strqubo::Constraint& base = base_locked(item);
          query.script = *workload::to_smt2(base);
          query.constraints = {base};
          query.variable = "x";
        } else {
          query = alpha_variant_locked(item);
        }
      }
      query.constraint_job = true;
      query.after_reset = cursor.checks > 0;
      std::string frame = query.script;
      cursor.pending.push_back(Request{std::move(frame), std::move(query)});
      cursor.pending.push_back(Request{"(reset)\n", std::nullopt});
    }
  }
  if (cursor.pending.front().query) ++cursor.checks;
  Request request = std::move(cursor.pending.front());
  cursor.pending.pop_front();
  return request;
}

}  // namespace qsmt::e2ebench
