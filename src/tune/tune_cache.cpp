#include "tune/tune_cache.hpp"

#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "graph/fingerprint.hpp"

namespace hymm {

TuneCache::TuneCache(std::string path) : path_(std::move(path)) {
  std::lock_guard<std::mutex> lock(mutex_);
  load_locked();
}

std::optional<TuneCacheEntry> TuneCache::lookup(
    std::uint64_t graph_fingerprint, std::uint64_t config_hash,
    const std::string& mode) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const TuneCacheEntry& e : entries_) {
    if (e.graph_fingerprint == graph_fingerprint &&
        e.config_hash == config_hash && e.mode == mode) {
      return e;
    }
  }
  return std::nullopt;
}

void TuneCache::insert(const TuneCacheEntry& entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (TuneCacheEntry& e : entries_) {
    if (e.graph_fingerprint == entry.graph_fingerprint &&
        e.config_hash == entry.config_hash && e.mode == entry.mode) {
      e = entry;
      save_locked();
      return;
    }
  }
  entries_.push_back(entry);
  save_locked();
}

std::size_t TuneCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::string TuneCache::to_json() const {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.field("schema", kSchema);
  w.key("entries");
  w.begin_array();
  for (const TuneCacheEntry& e : entries_) {
    w.begin_object();
    w.field("graph_fingerprint", fingerprint_hex(e.graph_fingerprint));
    w.field("config_hash", fingerprint_hex(e.config_hash));
    w.field("mode", e.mode);
    w.field("threshold", e.threshold);
    w.field("cycles", e.cycles);
    w.field("dataset", e.dataset);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
  return out.str();
}

void TuneCache::load_locked() {
  if (path_.empty()) return;
  std::ifstream in(path_);
  if (!in) return;  // absent file: start empty
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::optional<JsonValue> doc = json_parse(buf.str());
  if (!doc || !doc->is_object()) return;
  if (doc->get_string("schema") != kSchema) return;
  const JsonValue* entries = doc->find("entries");
  if (entries == nullptr || !entries->is_array()) return;
  for (const JsonValue& item : entries->array_items) {
    if (!item.is_object()) continue;
    const auto fp = parse_fingerprint_hex(item.get_string("graph_fingerprint"));
    const auto ch = parse_fingerprint_hex(item.get_string("config_hash"));
    const std::string mode = item.get_string("mode");
    const JsonValue* threshold = item.find("threshold");
    if (!fp || !ch || mode.empty() || threshold == nullptr ||
        !threshold->is_number()) {
      continue;  // malformed entry: skip, keep the rest
    }
    TuneCacheEntry e;
    e.graph_fingerprint = *fp;
    e.config_hash = *ch;
    e.mode = mode;
    e.threshold = threshold->number_value;
    e.cycles = item.get_number("cycles");
    e.dataset = item.get_string("dataset");
    entries_.push_back(std::move(e));
  }
}

void TuneCache::save_locked() const {
  if (path_.empty()) return;
  std::ofstream out(path_, std::ios::trunc);
  if (!out) return;  // unwritable path: stay memory-only
  out << to_json();
}

}  // namespace hymm
