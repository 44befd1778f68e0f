#include "src/sweep/shard.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/json_mini.hpp"
#include "src/sweep/io.hpp"

namespace soc::sweep {

std::vector<Shard> partition(const SweepSpec& spec, std::size_t shards_total) {
  SOC_CHECK(shards_total > 0);
  std::vector<Shard> shards(shards_total);
  for (std::size_t i = 0; i < shards_total; ++i) shards[i].id = i;
  // enumerate() yields cells sorted by key (canonical grid order), and a
  // stable append per shard preserves that order within each shard.
  for (SweepCell& cell : spec.enumerate()) {
    shards[shard_of(cell, shards_total)].cells.push_back(std::move(cell));
  }
  return shards;
}

std::string shard_path(const std::string& dir, std::size_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/shard-%zu.json", id);
  return dir + buf;
}

std::string manifest_path(const std::string& dir) {
  return dir + "/manifest.json";
}

bool write_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << content;
    out.flush();
    if (!out) return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool write_manifest(const std::string& dir, const Manifest& manifest) {
  std::string out = "{\n";
  out += "  \"sweep_manifest\": 1,\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  \"spec_fingerprint\": \"%016llx\",\n",
                static_cast<unsigned long long>(manifest.spec_fingerprint));
  out += buf;
  out += "  \"spec\": \"" + json_mini::escape(manifest.spec) + "\",\n";
  std::snprintf(buf, sizeof(buf), "  \"shards_total\": %zu,\n",
                manifest.shards_total);
  out += buf;
  out += "  \"shards\": [\n";
  for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
    const ShardStatus& s = manifest.shards[i];
    std::snprintf(buf, sizeof(buf),
                  "    { \"id\": %zu, \"cells\": %zu, \"state\": \"%s\" }%s\n",
                  s.id, s.cells, json_mini::escape(s.state).c_str(),
                  i + 1 < manifest.shards.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return write_atomic(manifest_path(dir), out);
}

std::optional<Manifest> read_manifest(const std::string& dir) {
  const auto text = read_file(manifest_path(dir));
  const auto doc = text.has_value() ? json_mini::Value::parse(*text)
                                    : std::nullopt;
  if (!doc.has_value()) return std::nullopt;
  json_mini::Fields f(*doc);
  Manifest m;
  const bool version_ok = f.as_u64("sweep_manifest") == 1;
  m.spec_fingerprint = f.as_hex64("spec_fingerprint");
  m.spec = f.as_string("spec");
  m.shards_total = f.as_u64("shards_total");
  for (const json_mini::Value& shard : f.as_array("shards")) {
    json_mini::Fields s(shard);
    m.shards.push_back(
        {s.as_u64("id"), s.as_u64("cells"), s.as_string("state")});
    if (!s.ok()) return std::nullopt;
  }
  if (!f.ok() || !version_ok) return std::nullopt;
  return m;
}

bool dir_matches_sweep(const std::string& dir,
                       std::uint64_t spec_fingerprint,
                       std::size_t shards_total) {
  const auto existing = read_manifest(dir);
  if (!existing.has_value()) return true;
  if (existing->spec_fingerprint == spec_fingerprint &&
      existing->shards_total == shards_total) {
    return true;
  }
  std::fprintf(stderr,
               "sweep: %s already holds a different sweep (manifest "
               "fingerprint %016llx/%zu shards, ours %016llx/%zu) — use a "
               "fresh --dir\n",
               dir.c_str(),
               static_cast<unsigned long long>(existing->spec_fingerprint),
               existing->shards_total,
               static_cast<unsigned long long>(spec_fingerprint),
               shards_total);
  return false;
}

}  // namespace soc::sweep
