// Deterministic partition of a SweepSpec's cells into disjoint shards, and
// the sweep manifest that tracks shard completion across processes (and
// machines) for crash-resume.
//
// A cell's shard id is fnv1a(cell.key) mod shards_total — derived from the
// cell's content, not from enumeration order — so the partition is stable
// under any reordering of the spec's axis vectors, and two machines that
// independently partition the same spec agree on every assignment.
// Within a shard, cells stay sorted by key (the enumeration order of the
// normalized spec), fixing each worker's execution order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/sweep/spec.hpp"

namespace soc::sweep {

/// Shard id of one cell under a `shards_total`-way partition.
[[nodiscard]] inline std::size_t shard_of(const SweepCell& cell,
                                          std::size_t shards_total) {
  return static_cast<std::size_t>(fnv1a(cell.key) %
                                  static_cast<std::uint64_t>(shards_total));
}

struct Shard {
  std::size_t id = 0;
  std::vector<SweepCell> cells;  ///< sorted by key; may be empty
};

/// Partition the spec's grid: exactly `shards_total` shards, every cell in
/// exactly one (exhaustive + disjoint by construction).
[[nodiscard]] std::vector<Shard> partition(const SweepSpec& spec,
                                           std::size_t shards_total);

// ---------------------------------------------------------------------------
// Manifest: <dir>/manifest.json.
//
// The orchestrator writes it before spawning workers and rewrites it
// (atomically) as shards complete, so a kill at any instant leaves either
// the old or the new manifest — never a torn one.  The authoritative
// completion record is the per-shard result files themselves (a shard is
// done iff its result file exists, parses, and carries this sweep's
// fingerprint); the manifest carries the sweep identity for resume-time
// validation, the shard inventory for humans/other machines, and the last
// observed status snapshot.
// ---------------------------------------------------------------------------

struct ShardStatus {
  std::size_t id = 0;
  std::size_t cells = 0;
  std::string state;  ///< "pending" | "done" | "failed"
};

struct Manifest {
  std::uint64_t spec_fingerprint = 0;
  std::string spec;  ///< SweepSpec::describe()
  std::size_t shards_total = 0;
  std::vector<ShardStatus> shards;
};

/// Result-file path for one shard: <dir>/shard-<id>.json.
[[nodiscard]] std::string shard_path(const std::string& dir, std::size_t id);
[[nodiscard]] std::string manifest_path(const std::string& dir);

/// Atomic write (tmp + rename).  Returns false on I/O error.
bool write_manifest(const std::string& dir, const Manifest& manifest);

/// nullopt when absent, not strict JSON, or missing a written field.
[[nodiscard]] std::optional<Manifest> read_manifest(const std::string& dir);

/// True when `dir` carries no manifest yet, or its manifest names exactly
/// this sweep (fingerprint + shard count).  Every mode that writes into a
/// sweep directory (orchestrate, worker, plan) must check this first —
/// mixing two sweeps' artifacts in one directory destroys completed
/// compute and would merge garbage.
[[nodiscard]] bool dir_matches_sweep(const std::string& dir,
                                     std::uint64_t spec_fingerprint,
                                     std::size_t shards_total);

}  // namespace soc::sweep
