// `sweep_run --mode=plan` end to end, driving the real sweep_run binary
// (path injected as SOC_SWEEP_BIN by CMake): plan a tiny sweep, check the
// manifest it writes parses, run every worker command it prints, merge,
// and require the merged report to be byte-identical to `--mode=local`.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "src/sweep/io.hpp"
#include "src/sweep/shard.hpp"

#ifndef SOC_SWEEP_BIN
#error "SOC_SWEEP_BIN must point at the sweep_run binary"
#endif

namespace soc::sweep {
namespace {

namespace fs = std::filesystem;

constexpr const char* kSpec =
    " --protocols=HID-CAN,Newscast --lambdas=0.5 --node-counts=24"
    " --repeats=2 --base-seed=3 --hours=0.2";

/// Run a shell command; returns its stdout, and its exit status in `rc`.
std::string run(const std::string& cmd, int* rc) {
  std::string out;
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) {
    *rc = -1;
    return out;
  }
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) out.append(buf, n);
  *rc = ::pclose(p);
  return out;
}

TEST(SweepPlan, PrintedWorkerCommandsMergeLikeLocalMode) {
  const std::string root = (fs::temp_directory_path() /
                            ("soc_sweepplan_" + std::to_string(::getpid())))
                               .string();
  fs::remove_all(root);
  const std::string planned = root + "/planned";
  const std::string local = root + "/local";
  const std::string bin = SOC_SWEEP_BIN;

  int rc = 0;
  const std::string plan =
      run(bin + " --mode=plan --shards=3 --dir=" + planned + kSpec, &rc);
  ASSERT_EQ(rc, 0) << plan;

  const auto manifest = read_manifest(planned);
  ASSERT_TRUE(manifest.has_value()) << "plan must write a valid manifest";
  EXPECT_EQ(manifest->shards_total, 3u);
  ASSERT_EQ(manifest->shards.size(), 3u);
  for (const ShardStatus& s : manifest->shards) EXPECT_EQ(s.state, "pending");

  // Every printed worker line, with the binary's real path.
  std::istringstream lines(plan);
  std::string line;
  std::size_t workers = 0;
  const std::string exe = " sweep_run";
  while (std::getline(lines, line)) {
    if (line.rfind(exe + " --mode=worker ", 0) != 0) continue;
    ++workers;
    const std::string out = run(bin + line.substr(exe.size()), &rc);
    ASSERT_EQ(rc, 0) << line << "\n" << out;
  }
  EXPECT_EQ(workers, manifest->shards.size());

  const std::string merged =
      run(bin + " --mode=merge --shards=3 --dir=" + planned + kSpec, &rc);
  ASSERT_EQ(rc, 0) << merged;
  const std::string reference =
      run(bin + " --mode=local --shards=3 --dir=" + local + kSpec, &rc);
  ASSERT_EQ(rc, 0) << reference;

  const auto a = read_file(planned + "/SWEEP_merged.json");
  const auto b = read_file(local + "/SWEEP_merged.json");
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(*a, *b) << "plan + workers + merge must equal --mode=local";
  fs::remove_all(root);
}

// Count flags parse strictly: a negative or partly numeric value is a
// usage error (exit 2, a message naming the flag), never a wrapped count,
// an uncaught exception or a silently truncated number.  Every case fails
// while parsing, before any directory is made or worker started.
TEST(SweepPlan, RejectsMalformedCountFlags) {
  const std::string dir = (fs::temp_directory_path() /
                           ("soc_sweepflags_" + std::to_string(::getpid())))
                              .string();
  const std::string bin = SOC_SWEEP_BIN;
  const char* bad[] = {
      "--mode=plan --repeats=-1",  "--mode=plan --repeats=2x",
      "--mode=plan --shards=-1",   "--mode=plan --shards=2x",
      "--mode=plan --shards=+2",   "--mode=plan --shards=' 2'",
      "--mode=plan --workers=-1",  "--mode=worker --shards=2 --shard=-1",
      "--mode=worker --shards=2 --shard=1x",
      "--mode=plan --shards=99999999999999999999",
  };
  for (const char* flags : bad) {
    int rc = 0;
    const std::string out =
        run(bin + " --dir=" + dir + kSpec + " " + flags + " 2>&1", &rc);
    ASSERT_TRUE(WIFEXITED(rc)) << flags << "\n" << out;
    EXPECT_EQ(WEXITSTATUS(rc), 2) << flags << "\n" << out;
    EXPECT_NE(out.find("is not a non-negative integer"), std::string::npos)
        << flags << "\n" << out;
  }
  EXPECT_FALSE(fs::exists(dir));
}

// A mistyped --mode is refused before --dir is created, like a malformed
// count flag: a typo must not leave an empty sweep directory behind.
TEST(SweepPlan, RejectsUnknownModeBeforeCreatingDir) {
  const std::string dir = (fs::temp_directory_path() /
                           ("soc_sweepmode_" + std::to_string(::getpid())))
                              .string();
  fs::remove_all(dir);
  int rc = 0;
  const std::string out = run(std::string(SOC_SWEEP_BIN) +
                                  " --mode=bogus --dir=" + dir + kSpec +
                                  " 2>&1",
                              &rc);
  ASSERT_TRUE(WIFEXITED(rc)) << out;
  EXPECT_EQ(WEXITSTATUS(rc), 2) << out;
  EXPECT_NE(out.find("unknown --mode 'bogus'"), std::string::npos) << out;
  EXPECT_FALSE(fs::exists(dir));
}

}  // namespace
}  // namespace soc::sweep
