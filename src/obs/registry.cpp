#include "src/obs/registry.hpp"

#include <utility>

namespace soc::obs {

namespace {
bool allowed(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}
}  // namespace

std::string Registry::sanitize(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (!allowed(c)) c = '_';
  }
  return out;
}

Registry::Entry& Registry::entry(std::string_view name, bool deterministic) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_.emplace(sanitize(name), Entry{}).first;
  }
  it->second.deterministic = it->second.deterministic && deterministic;
  return it->second;
}

void Registry::set(std::string_view name, double value, bool deterministic) {
  Entry& e = entry(name, deterministic);
  e.value = value;
  e.fn = nullptr;
}

void Registry::gauge(std::string_view name, std::function<double()> fn,
                     bool deterministic) {
  entry(name, deterministic).fn = std::move(fn);
}

std::vector<MetricSample> Registry::snapshot() const {
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    out.push_back(MetricSample{
        name, e.fn ? e.fn() : e.value, e.deterministic});
  }
  return out;
}

}  // namespace soc::obs
