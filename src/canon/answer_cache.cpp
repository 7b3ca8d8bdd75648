#include "canon/answer_cache.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

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

/// The heap block a string of this length needs: none while it fits the
/// string's inline buffer, else its characters plus the terminator. Sized
/// by length, not capacity, so a snapshot round trip restores bytes()
/// exactly.
std::size_t heap_bytes(const std::string& text) {
  static const std::size_t kInline = std::string().capacity();
  return text.size() > kInline ? text.size() + 1 : 0;
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

}  // namespace

AnswerCache::AnswerCache(AnswerCacheOptions options) : options_(options) {
  if (options_.max_entries == 0) options_.max_entries = 1;
}

std::size_t AnswerCache::entry_bytes(const std::string& key,
                                     const CachedAnswer& answer) {
  constexpr std::size_t kListNode = sizeof(Entry) + 2 * sizeof(void*);
  constexpr std::size_t kIndexNode =
      sizeof(void*) + sizeof(std::string_view) +
      sizeof(std::list<Entry>::iterator) + sizeof(std::size_t) +
      sizeof(void*);  // Next link, key, iterator, cached hash; bucket slot.
  return kListNode + kIndexNode + heap_bytes(key) +
         (answer.text ? heap_bytes(*answer.text) : 0) +
         heap_bytes(answer.variable) + heap_bytes(answer.note);
}

std::optional<CachedAnswer> AnswerCache::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    if (telemetry::enabled()) {
      telemetry::counter("answer_cache.misses").add();
    }
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  if (telemetry::enabled()) {
    telemetry::counter("answer_cache.hits").add();
  }
  return lru_.front().answer;
}

void AnswerCache::insert(const std::string& key, CachedAnswer answer) {
  if (answer.status == smtlib::CheckSatStatus::kUnknown) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh: same canonical form re-solved (e.g. after a snapshot load
    // raced an in-flight job). Keep the newer answer.
    bytes_ -= it->second->bytes;
    it->second->bytes = entry_bytes(key, answer);
    bytes_ += it->second->bytes;
    it->second->answer = std::move(answer);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    Entry entry;
    entry.key = key;
    entry.bytes = entry_bytes(key, answer);
    entry.answer = std::move(answer);
    bytes_ += entry.bytes;
    lru_.push_front(std::move(entry));
    // The index views the list's copy of the key, which never moves.
    index_.emplace(lru_.front().key, lru_.begin());
  }
  ++stats_.insertions;
  if (telemetry::enabled()) {
    telemetry::counter("answer_cache.insertions").add();
  }
  evict_to_budget_locked();
  publish_occupancy_locked();
}

void AnswerCache::evict_to_budget_locked() {
  while (lru_.size() > 1 &&
         (lru_.size() > options_.max_entries || bytes_ > options_.max_bytes)) {
    bytes_ -= lru_.back().bytes;
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    if (telemetry::enabled()) {
      telemetry::counter("answer_cache.evictions").add();
    }
  }
}

void AnswerCache::publish_occupancy_locked() {
  if (telemetry::enabled()) {
    telemetry::gauge("answer_cache.entries")
        .set(static_cast<double>(lru_.size()));
    telemetry::gauge("answer_cache.bytes", telemetry::Unit::kBytes)
        .set(static_cast<double>(bytes_));
  }
}

void AnswerCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  index_.clear();  // Its keys view the entries: drop them first.
  lru_.clear();
  bytes_ = 0;
  publish_occupancy_locked();
}

std::size_t AnswerCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::size_t AnswerCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

AnswerCache::Stats AnswerCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  stats.entries = lru_.size();
  stats.bytes = bytes_;
  return stats;
}

std::string AnswerCache::save_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << kSnapshotHeader << '\n';
  for (const Entry& entry : lru_) {
    out << "entry " << status_token(entry.answer.status) << ' ';
    if (entry.answer.position) {
      out << *entry.answer.position;
    } else {
      out << '~';
    }
    out << ' ' << hex_encode(entry.key) << ' ';
    if (entry.answer.text) {
      out << 't' << hex_encode(*entry.answer.text);
    } else {
      out << '~';
    }
    out << ' ' << hex_encode(entry.answer.variable) << ' '
        << hex_encode(entry.answer.note) << '\n';
  }
  return out.str();
}

bool AnswerCache::load_snapshot(const std::string& snapshot) {
  std::istringstream in(snapshot);
  std::string line;
  if (!std::getline(in, line) || line != kSnapshotHeader) return false;
  std::list<Entry> loaded;
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
    Entry entry;
    if (status == "sat") {
      entry.answer.status = smtlib::CheckSatStatus::kSat;
    } else if (status == "unsat") {
      entry.answer.status = smtlib::CheckSatStatus::kUnsat;
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
      entry.answer.position = parsed;
    }
    if (!hex_decode(key, entry.key) || entry.key.empty()) return false;
    if (text != "~") {
      if (text.empty() || text[0] != 't') return false;
      std::string decoded;
      if (!hex_decode(text.substr(1), decoded)) return false;
      entry.answer.text = std::move(decoded);
    }
    if (!hex_decode(variable, entry.answer.variable)) return false;
    if (!hex_decode(note, entry.answer.note)) return false;
    entry.bytes = entry_bytes(entry.key, entry.answer);
    loaded.push_back(std::move(entry));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  index_.clear();  // Its keys view the entries being replaced.
  lru_ = std::move(loaded);
  bytes_ = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (!index_.emplace(it->key, it).second) {
      it = lru_.erase(it);  // Duplicate key: keep the more recent (earlier).
      continue;
    }
    bytes_ += it->bytes;
    ++it;
  }
  evict_to_budget_locked();
  publish_occupancy_locked();
  return true;
}

}  // namespace qsmt::canon
