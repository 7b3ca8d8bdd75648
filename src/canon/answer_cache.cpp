#include "canon/answer_cache.hpp"

#include <sstream>
#include <utility>
#include <vector>

namespace qsmt::canon {

namespace {

constexpr char kSnapshotHeader[] = "qsmt-answer-cache v1";

std::string hex_encode(const std::string& text) {
  static const char kDigits[] = "0123456789abcdef";
  if (text.empty()) return "-";
  std::string out;
  out.reserve(text.size() * 2);
  for (unsigned char c : text) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xf];
  }
  return out;
}

/// "-" decodes to ""; anything else must be well-formed lowercase hex.
bool hex_decode(const std::string& token, std::string& out) {
  out.clear();
  if (token == "-") return true;
  if (token.empty() || token.size() % 2 != 0) return false;
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  out.reserve(token.size() / 2);
  for (std::size_t i = 0; i < token.size(); i += 2) {
    const int hi = nibble(token[i]);
    const int lo = nibble(token[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out += static_cast<char>((hi << 4) | lo);
  }
  return true;
}

const char* status_token(smtlib::CheckSatStatus status) {
  switch (status) {
    case smtlib::CheckSatStatus::kSat:
      return "sat";
    case smtlib::CheckSatStatus::kUnsat:
      return "unsat";
    case smtlib::CheckSatStatus::kUnknown:
      break;
  }
  return "unknown";
}

/// Heap bytes of an entry's key and answer strings.
std::size_t strings_heap_bytes(const std::string& key,
                               const CachedAnswer& answer) {
  return util::heap_bytes(key) +
         (answer.text ? util::heap_bytes(*answer.text) : 0) +
         util::heap_bytes(answer.variable) + util::heap_bytes(answer.note);
}

}  // namespace

AnswerCache::AnswerCache(AnswerCacheOptions options)
    : cache_("answer_cache", options.max_entries, options.max_bytes) {}

std::size_t AnswerCache::entry_bytes(const std::string& key,
                                     const CachedAnswer& answer) {
  return Lru::kNodeBytes + strings_heap_bytes(key, answer);
}

std::optional<CachedAnswer> AnswerCache::lookup(const std::string& key) {
  return cache_.get(key);
}

void AnswerCache::insert(const std::string& key, CachedAnswer answer) {
  if (answer.status == smtlib::CheckSatStatus::kUnknown) return;
  // A key already present is refreshed: the same canonical form re-solved
  // (e.g. after a snapshot load raced an in-flight job) keeps the newer
  // answer.
  const std::size_t heap = strings_heap_bytes(key, answer);
  cache_.insert(key, std::move(answer), heap);
}

void AnswerCache::clear() { cache_.clear(); }

std::size_t AnswerCache::size() const { return cache_.stats().entries; }

std::size_t AnswerCache::bytes() const { return cache_.stats().bytes; }

AnswerCache::Stats AnswerCache::stats() const { return cache_.stats(); }

std::string AnswerCache::save_snapshot() const {
  std::ostringstream out;
  out << kSnapshotHeader << '\n';
  cache_.for_each([&](const std::string& key, const CachedAnswer& answer) {
    out << "entry " << status_token(answer.status) << ' ';
    if (answer.position) {
      out << *answer.position;
    } else {
      out << '~';
    }
    out << ' ' << hex_encode(key) << ' ';
    if (answer.text) {
      out << 't' << hex_encode(*answer.text);
    } else {
      out << '~';
    }
    out << ' ' << hex_encode(answer.variable) << ' ' << hex_encode(answer.note)
        << '\n';
  });
  return out.str();
}

bool AnswerCache::load_snapshot(const std::string& snapshot) {
  std::istringstream in(snapshot);
  std::string line;
  if (!std::getline(in, line) || line != kSnapshotHeader) return false;
  std::vector<Lru::Entry> loaded;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag, status, position, key, text, variable, note;
    if (!(fields >> tag >> status >> position >> key >> text >> variable >>
          note)) {
      return false;
    }
    std::string trailing;
    if (fields >> trailing) return false;
    if (tag != "entry") return false;
    Lru::Entry entry;
    if (status == "sat") {
      entry.value.status = smtlib::CheckSatStatus::kSat;
    } else if (status == "unsat") {
      entry.value.status = smtlib::CheckSatStatus::kUnsat;
    } else {
      return false;
    }
    if (position != "~") {
      std::size_t parsed = 0;
      try {
        std::size_t consumed = 0;
        parsed = std::stoull(position, &consumed);
        if (consumed != position.size()) return false;
      } catch (const std::exception&) {
        return false;
      }
      entry.value.position = parsed;
    }
    if (!hex_decode(key, entry.key) || entry.key.empty()) return false;
    if (text != "~") {
      if (text.empty() || text[0] != 't') return false;
      std::string decoded;
      if (!hex_decode(text.substr(1), decoded)) return false;
      entry.value.text = std::move(decoded);
    }
    if (!hex_decode(variable, entry.value.variable)) return false;
    if (!hex_decode(note, entry.value.note)) return false;
    entry.heap_bytes = strings_heap_bytes(entry.key, entry.value);
    loaded.push_back(std::move(entry));
  }
  cache_.assign(std::move(loaded));
  return true;
}

}  // namespace qsmt::canon
