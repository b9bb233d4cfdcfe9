// Tests for the mspctl subcommand implementations (sizes file parsing
// and end-to-end command flows through temp files).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.h"
#include "cli/sizes_io.h"
#include "durability/changelog.h"
#include "gtest/gtest.h"
#include "util/flags.h"

namespace msp::cli {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/msp_cli_" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

struct CommandResult {
  int code;
  std::string out;
  std::string err;
};

CommandResult RunCli(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "mspctl");
  const ArgParser parser(static_cast<int>(argv.size()), argv.data());
  std::ostringstream out;
  std::ostringstream err;
  const int code = RunCommand(parser, out, err);
  return {code, out.str(), err.str()};
}

// The value cell of the first "| <metric> | <value> |" table row, or
// "" when no row carries that metric.
std::string TableCell(const std::string& text, const std::string& metric) {
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("| " + metric + " ", 0) != 0) continue;
    const std::size_t start = line.find('|', 1) + 1;
    const std::size_t end = line.find('|', start);
    std::string cell = line.substr(start, end - start);
    cell.erase(0, cell.find_first_not_of(' '));
    cell.erase(cell.find_last_not_of(' ') + 1);
    return cell;
  }
  return "";
}

TEST(SizesIoTest, ParsesPlainAndCommented) {
  std::istringstream in("5\n# comment\n7 9\n\n3 # trailing\n");
  std::string error;
  const auto sizes = ParseSizes(in, &error);
  ASSERT_TRUE(sizes.has_value()) << error;
  EXPECT_EQ(*sizes, (std::vector<InputSize>{5, 7, 9, 3}));
}

TEST(SizesIoTest, RejectsZeroAndGarbage) {
  std::string error;
  std::istringstream zero("1\n0\n");
  EXPECT_FALSE(ParseSizes(zero, &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos);
  std::istringstream garbage("1\ntwo\n");
  EXPECT_FALSE(ParseSizes(garbage, &error).has_value());
}

TEST(SizesIoTest, FileRoundTrip) {
  const std::string path = TempPath("roundtrip.sizes");
  ASSERT_TRUE(WriteSizesFile(path, {4, 5, 6}));
  std::string error;
  const auto sizes = ReadSizesFile(path, &error);
  ASSERT_TRUE(sizes.has_value()) << error;
  EXPECT_EQ(*sizes, (std::vector<InputSize>{4, 5, 6}));
  std::remove(path.c_str());
}

TEST(SizesIoTest, MissingFileReportsError) {
  std::string error;
  EXPECT_FALSE(ReadSizesFile("/nonexistent/xyz.sizes", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(CommandsTest, NoCommandPrintsUsage) {
  const CommandResult result = RunCli({});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("usage:"), std::string::npos);
}

TEST(CommandsTest, UnknownCommandFails) {
  const CommandResult result = RunCli({"frobnicate"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(CommandsTest, HelpSucceeds) {
  const CommandResult result = RunCli({"help"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("mspctl"), std::string::npos);
}

TEST(CommandsTest, GenProducesParsableSizes) {
  const CommandResult result =
      RunCli({"gen", "--m=50", "--dist=zipf", "--lo=2", "--hi=40",
           "--seed=9"});
  ASSERT_EQ(result.code, 0) << result.err;
  std::istringstream in(result.out);
  std::string error;
  const auto sizes = ParseSizes(in, &error);
  ASSERT_TRUE(sizes.has_value()) << error;
  EXPECT_EQ(sizes->size(), 50u);
}

TEST(CommandsTest, GenRejectsBadDistribution) {
  const CommandResult result = RunCli({"gen", "--dist=cauchy"});
  EXPECT_EQ(result.code, 2);
}

TEST(CommandsTest, SolveValidateImproveFlow) {
  // gen -> solve-a2a -> validate -> improve, through real files.
  const std::string sizes_path = TempPath("flow.sizes");
  WriteFile(sizes_path, "40 35 30 25\n20 15 10 5\n");

  const CommandResult solved = RunCli(
      {"solve-a2a", "--sizes", sizes_path.c_str(), "--q=100",
       "--algorithm=naive-all-pairs"});
  ASSERT_EQ(solved.code, 0) << solved.err;
  EXPECT_NE(solved.err.find("reducers=28"), std::string::npos);

  const std::string schema_path = TempPath("flow.schema");
  WriteFile(schema_path, solved.out);

  const CommandResult valid = RunCli({"validate", "--sizes", sizes_path.c_str(),
                                   "--q=100", "--schema",
                                   schema_path.c_str()});
  EXPECT_EQ(valid.code, 0) << valid.out;
  EXPECT_NE(valid.out.find("valid"), std::string::npos);

  const CommandResult improved =
      RunCli({"improve", "--sizes", sizes_path.c_str(), "--q=100", "--schema",
           schema_path.c_str()});
  ASSERT_EQ(improved.code, 0) << improved.err;
  // The naive 28-reducer schema is mergeable; write it back and
  // re-validate.
  const std::string improved_path = TempPath("flow2.schema");
  WriteFile(improved_path, improved.out);
  const CommandResult revalid =
      RunCli({"validate", "--sizes", sizes_path.c_str(), "--q=100", "--schema",
           improved_path.c_str()});
  EXPECT_EQ(revalid.code, 0) << revalid.out;

  std::remove(sizes_path.c_str());
  std::remove(schema_path.c_str());
  std::remove(improved_path.c_str());
}

TEST(CommandsTest, ValidateDetectsBrokenSchema) {
  const std::string sizes_path = TempPath("broken.sizes");
  WriteFile(sizes_path, "5 5 5\n");
  const std::string schema_path = TempPath("broken.schema");
  WriteFile(schema_path, "mapping-schema v1\nreducers 1\n0 1\n");
  const CommandResult result =
      RunCli({"validate", "--sizes", sizes_path.c_str(), "--q=100", "--schema",
           schema_path.c_str()});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.out.find("INVALID"), std::string::npos);
  std::remove(sizes_path.c_str());
  std::remove(schema_path.c_str());
}

TEST(CommandsTest, BoundsOnInfeasibleInstance) {
  const std::string sizes_path = TempPath("infeasible.sizes");
  WriteFile(sizes_path, "90 90\n");
  const CommandResult result =
      RunCli({"bounds", "--sizes", sizes_path.c_str(), "--q=100"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.out.find("infeasible"), std::string::npos);
  std::remove(sizes_path.c_str());
}

TEST(CommandsTest, BoundsPrintsTable) {
  const std::string sizes_path = TempPath("bounds.sizes");
  WriteFile(sizes_path, "10 10 10 10 10 10\n");
  const CommandResult result =
      RunCli({"bounds", "--sizes", sizes_path.c_str(), "--q=30"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("reducers (max)"), std::string::npos);
  std::remove(sizes_path.c_str());
}

TEST(CommandsTest, SolveX2YFlow) {
  const std::string x_path = TempPath("x.sizes");
  const std::string y_path = TempPath("y.sizes");
  WriteFile(x_path, "5 5 5 5\n");
  WriteFile(y_path, "3 3\n");
  const CommandResult result =
      RunCli({"solve-x2y", "--x-sizes", x_path.c_str(), "--y-sizes",
           y_path.c_str(), "--q=16"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("mapping-schema v1"), std::string::npos);
  std::remove(x_path.c_str());
  std::remove(y_path.c_str());
}

TEST(CommandsTest, MissingRequiredOptions) {
  EXPECT_EQ(RunCli({"solve-a2a"}).code, 2);
  EXPECT_EQ(RunCli({"solve-x2y", "--q=10"}).code, 2);
  EXPECT_EQ(RunCli({"validate", "--q=10"}).code, 2);
  EXPECT_EQ(RunCli({"plan"}).code, 2);
  EXPECT_EQ(RunCli({"plan", "--x-sizes=/nope", "--q=10"}).code, 2);
}

TEST(CommandsTest, PlanA2AFlow) {
  const std::string sizes_path = TempPath("plan.sizes");
  WriteFile(sizes_path, "40 35 30 25\n20 15 10 5\n");
  const CommandResult result =
      RunCli({"plan", "--sizes", sizes_path.c_str(), "--q=100"});
  ASSERT_EQ(result.code, 0) << result.err;
  // Default --repeat=2: the reported (last) plan is a cache hit and the
  // cold run's scoreboard goes to stderr. Service stats are opt-in.
  EXPECT_NE(result.err.find("cache_hit=1"), std::string::npos);
  EXPECT_NE(result.err.find("portfolio scoreboard"), std::string::npos);
  EXPECT_EQ(result.err.find("planner stats"), std::string::npos);

  // The emitted schema must validate against the instance.
  const std::string schema_path = TempPath("plan.schema");
  WriteFile(schema_path, result.out);
  const CommandResult valid =
      RunCli({"validate", "--sizes", sizes_path.c_str(), "--q=100",
              "--schema", schema_path.c_str()});
  EXPECT_EQ(valid.code, 0) << valid.out;
  std::remove(sizes_path.c_str());
  std::remove(schema_path.c_str());
}

TEST(CommandsTest, PlanX2YFlow) {
  const std::string x_path = TempPath("plan_x.sizes");
  const std::string y_path = TempPath("plan_y.sizes");
  WriteFile(x_path, "5 5 5 5\n");
  WriteFile(y_path, "3 3\n");
  const CommandResult result =
      RunCli({"plan", "--x-sizes", x_path.c_str(), "--y-sizes",
              y_path.c_str(), "--q=16", "--cache-shards=2"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("mapping-schema v1"), std::string::npos);
  EXPECT_NE(result.err.find("algorithm="), std::string::npos);
  std::remove(x_path.c_str());
  std::remove(y_path.c_str());
}

TEST(CommandsTest, PlanBudgetFallsBackToAuto) {
  const std::string sizes_path = TempPath("plan_budget.sizes");
  WriteFile(sizes_path, "9 8 7 6 5 4 3 2\n");
  const CommandResult result =
      RunCli({"plan", "--sizes", sizes_path.c_str(), "--q=20",
              "--budget-ms=0.01", "--repeat=1"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.err.find("algorithm=auto"), std::string::npos);
  // The auto fallback runs no portfolio, so there is no scoreboard.
  EXPECT_EQ(result.err.find("portfolio scoreboard"), std::string::npos);
  std::remove(sizes_path.c_str());
}

TEST(CommandsTest, PlanInfeasibleInstanceFails) {
  const std::string sizes_path = TempPath("plan_infeasible.sizes");
  WriteFile(sizes_path, "90 90\n");
  const CommandResult result =
      RunCli({"plan", "--sizes", sizes_path.c_str(), "--q=100"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("infeasible"), std::string::npos);
  std::remove(sizes_path.c_str());
}

TEST(CommandsTest, PlanListedInHelp) {
  const CommandResult result = RunCli({"help"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("plan"), std::string::npos);
}

TEST(CommandsTest, PlanStatsFlagPrintsServiceCounters) {
  const std::string sizes_path = TempPath("plan_stats.sizes");
  WriteFile(sizes_path, "40 35 30 25\n20 15 10 5\n");
  const CommandResult result = RunCli(
      {"plan", "--sizes", sizes_path.c_str(), "--q=100", "--repeat=3",
       "--stats"});
  ASSERT_EQ(result.code, 0) << result.err;
  // --stats prints the PlannerService counters after the repeats: the
  // cache behavior (1 miss + 2 hits) is observable from the CLI.
  EXPECT_NE(result.err.find("planner stats"), std::string::npos);
  EXPECT_NE(result.err.find("cache hits"), std::string::npos);
  std::remove(sizes_path.c_str());
}

TEST(CommandsTest, GenTraceOnlineReplayFlow) {
  // gen-trace -> online through a real file, for both shapes.
  for (const char* kind : {"a2a", "x2y"}) {
    const CommandResult trace = RunCli(
        {"gen-trace", "--kind", kind, "--initial=12", "--steps=60",
         "--q=80", "--seed=5"});
    ASSERT_EQ(trace.code, 0) << trace.err;
    EXPECT_NE(trace.out.find("update-trace v1"), std::string::npos);

    const std::string trace_path = TempPath(std::string("flow.") + kind +
                                            ".trace");
    WriteFile(trace_path, trace.out);
    const CommandResult replay =
        RunCli({"online", "--trace", trace_path.c_str()});
    ASSERT_EQ(replay.code, 0) << replay.err;
    EXPECT_NE(replay.err.find("online replay"), std::string::npos);
    EXPECT_NE(replay.err.find("churn"), std::string::npos);
    EXPECT_NE(replay.err.find("valid=yes"), std::string::npos);
    EXPECT_NE(replay.out.find("mapping-schema v1"), std::string::npos);
    std::remove(trace_path.c_str());
  }
}

TEST(CommandsTest, OnlinePolicyVariantsReplay) {
  const CommandResult trace =
      RunCli({"gen-trace", "--kind=a2a", "--initial=10", "--steps=40",
              "--q=60", "--seed=9"});
  ASSERT_EQ(trace.code, 0) << trace.err;
  const std::string trace_path = TempPath("policies.trace");
  WriteFile(trace_path, trace.out);
  for (const char* policy : {"never", "always", "every-n", "drift"}) {
    const CommandResult replay =
        RunCli({"online", "--trace", trace_path.c_str(), "--policy", policy,
                "--every-n=10", "--replan-threshold=1.3"});
    ASSERT_EQ(replay.code, 0) << policy << ": " << replay.err;
    EXPECT_NE(replay.err.find("valid=yes"), std::string::npos) << policy;
  }
  std::remove(trace_path.c_str());
}

TEST(CommandsTest, OnlineRejectsBadInvocations) {
  EXPECT_EQ(RunCli({"online"}).code, 2);  // --trace required
  EXPECT_EQ(RunCli({"online", "--trace=/nonexistent.trace"}).code, 2);
  EXPECT_EQ(RunCli({"gen-trace", "--kind=diagonal"}).code, 2);
  // q < 2*lo admits no feasible size: two lo-sized inputs overflow q,
  // which would desync the trace's implicit id numbering on replay.
  EXPECT_EQ(RunCli({"gen-trace", "--kind=a2a", "--q=10", "--lo=8",
                    "--hi=8"})
                .code,
            2);
  // Bad numeric ranges are usage errors, not library CHECK aborts.
  EXPECT_EQ(RunCli({"gen-trace", "--kind=a2a", "--skew=-1"}).code, 2);
  EXPECT_EQ(RunCli({"gen-trace", "--kind=a2a", "--p-add=-0.2"}).code, 2);
  // "-1" wraps to 2^64-1 through strtoull; the event cap must catch it
  // before the generator tries to emit that many adds.
  EXPECT_EQ(RunCli({"gen-trace", "--kind=a2a", "--initial=-1"}).code, 2);
  EXPECT_EQ(RunCli({"gen-trace", "--kind=a2a", "--steps=-1"}).code, 2);
  // Misspelled flags are rejected, not silently defaulted — for the
  // online commands and the pre-existing ones alike.
  EXPECT_EQ(RunCli({"gen-trace", "--shape=x2y"}).code, 2);
  EXPECT_EQ(RunCli({"plan", "--sizes=x", "--q=10", "--stat"}).code, 2);
  EXPECT_EQ(RunCli({"gen", "--dist=zipf", "--seeed=3"}).code, 2);
  // Wrapped-negative uints are rejected at the ArgParser layer for
  // every command, not just gen-trace.
  EXPECT_EQ(RunCli({"gen", "--m=-1"}).code, 2);
  // lo >= 2^63 must not wrap the q >= 2*lo feasibility guard.
  EXPECT_EQ(RunCli({"gen-trace", "--kind=a2a", "--q=4",
                    "--lo=9223372036854775808",
                    "--hi=9223372036854775808"})
                .code,
            2);
  // A wrapped-negative --q must not reach the retune computation,
  // whose llround overflows past ~9.2e18.
  EXPECT_EQ(RunCli({"gen-trace", "--kind=a2a", "--q=-1"}).code, 2);
  // An astronomic q/hi range must not abort on the Zipf CDF allocation.
  const CommandResult huge =
      RunCli({"gen-trace", "--kind=a2a", "--q=1000000000000",
              "--lo=1", "--hi=1000000000000", "--initial=5", "--steps=5"});
  EXPECT_EQ(huge.code, 0) << huge.err;
  EXPECT_NE(huge.out.find("update-trace v1"), std::string::npos);

  const CommandResult trace = RunCli(
      {"gen-trace", "--kind=a2a", "--initial=6", "--steps=5", "--q=40"});
  ASSERT_EQ(trace.code, 0);
  const std::string trace_path = TempPath("bad_online.trace");
  WriteFile(trace_path, trace.out);
  EXPECT_EQ(
      RunCli({"online", "--trace", trace_path.c_str(), "--policy=voodoo"})
          .code,
      2);
  EXPECT_EQ(RunCli({"online", "--trace", trace_path.c_str(),
                    "--replan-threshold=0.5"})
                .code,
            2);
  EXPECT_EQ(RunCli({"online", "--trace", trace_path.c_str(),
                    "--replan-treshold=3"})
                .code,
            2);
  // A malformed trace file is a usage error, not a crash.
  WriteFile(trace_path, "not a trace\n");
  EXPECT_EQ(RunCli({"online", "--trace", trace_path.c_str()}).code, 2);
  // A replay header capacity above 10^18 would wrap the assigner's
  // feasibility sums; the parser rejects it up front.
  WriteFile(trace_path,
            "update-trace v1 a2a q=18446744073709551615\nadd 5\n");
  EXPECT_EQ(RunCli({"online", "--trace", trace_path.c_str()}).code, 2);
  std::remove(trace_path.c_str());
}

TEST(CommandsTest, ServeReplaysAcrossShards) {
  const CommandResult result =
      RunCli({"serve", "--instances=4", "--shards=2", "--initial=12",
              "--steps=50", "--seed=3", "--batch=4", "--cooldown=8"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.err.find("serving shards"), std::string::npos);
  EXPECT_NE(result.err.find("serving churn"), std::string::npos);
  EXPECT_NE(result.err.find("throughput"), std::string::npos);
  // One summary line per instance, each oracle-valid.
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(result.out.find("instance=trace-" + std::to_string(i)),
              std::string::npos);
  }
  EXPECT_EQ(result.out.find("valid=NO"), std::string::npos);
}

TEST(CommandsTest, ServeRejectsBadOptions) {
  EXPECT_EQ(RunCli({"serve", "--shards=0"}).code, 2);
  EXPECT_EQ(RunCli({"serve", "--instances=0"}).code, 2);
  EXPECT_EQ(RunCli({"serve", "--kind=frob"}).code, 2);
  EXPECT_EQ(RunCli({"serve", "--policy=frob"}).code, 2);
  EXPECT_EQ(RunCli({"serve", "--frob=1"}).code, 2);  // unknown flag
}

TEST(CommandsTest, SnapshotRestoreContinuationIsBitIdentical) {
  const CommandResult trace =
      RunCli({"gen-trace", "--kind=a2a", "--initial=15", "--steps=90",
              "--q=80", "--seed=21"});
  ASSERT_EQ(trace.code, 0) << trace.err;
  const std::string trace_path = TempPath("snap.trace");
  WriteFile(trace_path, trace.out);

  // Reference: uninterrupted replay (batched, with hysteresis).
  const CommandResult full =
      RunCli({"online", "--trace", trace_path.c_str(), "--batch=8",
              "--cooldown=8"});
  ASSERT_EQ(full.code, 0) << full.err;

  // Snapshot mid-trace (mid-window on purpose), restore, continue.
  const std::string snap_path = TempPath("state.snap");
  const CommandResult snap =
      RunCli({"snapshot", "--trace", trace_path.c_str(), "--steps=53",
              "--out", snap_path.c_str(), "--batch=8", "--cooldown=8"});
  ASSERT_EQ(snap.code, 0) << snap.err;
  EXPECT_NE(snap.out.find("events=53"), std::string::npos);

  const CommandResult cont =
      RunCli({"restore", "--snapshot", snap_path.c_str(), "--trace",
              trace_path.c_str(), "--batch=8"});
  ASSERT_EQ(cont.code, 0) << cont.err;
  EXPECT_NE(cont.err.find("resumed-at=53"), std::string::npos);
  EXPECT_NE(cont.err.find("valid=yes"), std::string::npos);
  EXPECT_EQ(cont.out, full.out) << "continuation diverged from the "
                                   "uninterrupted replay";

  std::remove(trace_path.c_str());
  std::remove(snap_path.c_str());
}

TEST(CommandsTest, RestoreWithoutTraceJustReports) {
  const CommandResult trace =
      RunCli({"gen-trace", "--kind=x2y", "--initial=12", "--steps=40",
              "--q=80", "--seed=8"});
  ASSERT_EQ(trace.code, 0) << trace.err;
  const std::string trace_path = TempPath("report.trace");
  const std::string snap_path = TempPath("report.snap");
  WriteFile(trace_path, trace.out);
  ASSERT_EQ(RunCli({"snapshot", "--trace", trace_path.c_str(),
                    "--steps=30", "--out", snap_path.c_str()})
                .code,
            0);
  const CommandResult result =
      RunCli({"restore", "--snapshot", snap_path.c_str()});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.err.find("valid=yes"), std::string::npos);
  EXPECT_NE(result.out.find("mapping-schema v1"), std::string::npos);
  std::remove(trace_path.c_str());
  std::remove(snap_path.c_str());
}

TEST(CommandsTest, RestoreRejectsCorruptAndMismatchedSnapshots) {
  const CommandResult trace =
      RunCli({"gen-trace", "--kind=a2a", "--initial=10", "--steps=30",
              "--q=60", "--seed=4"});
  ASSERT_EQ(trace.code, 0);
  const std::string trace_path = TempPath("corrupt.trace");
  const std::string snap_path = TempPath("corrupt.snap");
  WriteFile(trace_path, trace.out);
  ASSERT_EQ(RunCli({"snapshot", "--trace", trace_path.c_str(),
                    "--steps=20", "--out", snap_path.c_str()})
                .code,
            0);

  // Flip one byte in the middle of the file.
  std::ifstream in(snap_path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = buffer.str();
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  std::ofstream(snap_path, std::ios::binary | std::ios::trunc) << bytes;
  const CommandResult corrupt =
      RunCli({"restore", "--snapshot", snap_path.c_str()});
  EXPECT_EQ(corrupt.code, 2);
  EXPECT_NE(corrupt.err.find("corrupt"), std::string::npos);

  // A snapshot resumed against the wrong trace shape is refused.
  ASSERT_EQ(RunCli({"snapshot", "--trace", trace_path.c_str(),
                    "--steps=20", "--out", snap_path.c_str()})
                .code,
            0);
  const CommandResult x2y_trace =
      RunCli({"gen-trace", "--kind=x2y", "--initial=10", "--steps=30",
              "--q=60", "--seed=4"});
  ASSERT_EQ(x2y_trace.code, 0);
  WriteFile(trace_path, x2y_trace.out);
  const CommandResult mismatch =
      RunCli({"restore", "--snapshot", snap_path.c_str(), "--trace",
              trace_path.c_str()});
  EXPECT_EQ(mismatch.code, 2);
  EXPECT_NE(mismatch.err.find("does not belong"), std::string::npos);

  EXPECT_EQ(RunCli({"restore"}).code, 2);
  EXPECT_EQ(RunCli({"restore", "--snapshot=/nope.snap"}).code, 2);
  EXPECT_EQ(RunCli({"snapshot", "--trace", trace_path.c_str()}).code, 2);
  std::remove(trace_path.c_str());
  std::remove(snap_path.c_str());
}

TEST(CommandsTest, OnlineCoverageAndBatchFlags) {
  const CommandResult trace =
      RunCli({"gen-trace", "--kind=a2a", "--initial=10", "--steps=40",
              "--q=60", "--seed=9"});
  ASSERT_EQ(trace.code, 0);
  const std::string trace_path = TempPath("coverage.trace");
  WriteFile(trace_path, trace.out);
  // A batched replay is deterministic and valid.
  const CommandResult batched =
      RunCli({"online", "--trace", trace_path.c_str(), "--batch=4"});
  const CommandResult again =
      RunCli({"online", "--trace", trace_path.c_str(), "--batch=4"});
  ASSERT_EQ(batched.code, 0) << batched.err;
  EXPECT_NE(batched.err.find("valid=yes"), std::string::npos);
  EXPECT_EQ(batched.out, again.out);
  // The coverage backend is no longer selectable: the pair counts are
  // always the triangular array, so the flag is an unknown option.
  EXPECT_EQ(
      RunCli({"online", "--trace", trace_path.c_str(), "--coverage=hash"})
          .code,
      2);
  std::remove(trace_path.c_str());
}

TEST(CommandsTest, SimulateReconcilesPredictedAndExecuted) {
  // gen-trace -> simulate through a real file, for both shapes.
  for (const char* kind : {"a2a", "x2y"}) {
    const CommandResult trace = RunCli(
        {"gen-trace", "--kind", kind, "--initial=12", "--steps=60",
         "--q=80", "--seed=5"});
    ASSERT_EQ(trace.code, 0) << trace.err;
    const std::string trace_path = TempPath(std::string("sim.") + kind +
                                            ".trace");
    WriteFile(trace_path, trace.out);
    const CommandResult run =
        RunCli({"simulate", "--trace", trace_path.c_str(), "--shards=2",
                "--batch=4"});
    EXPECT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("simulated steps"), std::string::npos);
    EXPECT_NE(run.err.find("re-shuffled bytes"), std::string::npos);
    EXPECT_NE(run.err.find("reconciled=yes"), std::string::npos);
    EXPECT_NE(run.err.find("valid=yes"), std::string::npos);
    EXPECT_EQ(run.err.find("| NO"), std::string::npos);
    std::remove(trace_path.c_str());
  }
}

TEST(CommandsTest, SimulateAdversarialShapes) {
  for (const char* shape : {"flash-crowd", "capacity-oscillation"}) {
    const CommandResult trace =
        RunCli({"gen-trace", "--kind=a2a", "--shape", shape,
                "--initial=10", "--steps=60", "--q=60", "--seed=3"});
    ASSERT_EQ(trace.code, 0) << trace.err;
    const std::string trace_path = TempPath(std::string("sim.") + shape +
                                            ".trace");
    WriteFile(trace_path, trace.out);
    const CommandResult run =
        RunCli({"simulate", "--trace", trace_path.c_str()});
    EXPECT_EQ(run.code, 0) << shape << ": " << run.err;
    EXPECT_NE(run.err.find("reconciled=yes"), std::string::npos) << shape;
    std::remove(trace_path.c_str());
  }
  EXPECT_EQ(RunCli({"gen-trace", "--shape=diagonal"}).code, 2);
}

TEST(CommandsTest, SimulateCsvGoldenSmoke) {
  const CommandResult trace =
      RunCli({"gen-trace", "--kind=a2a", "--initial=8", "--steps=30",
              "--q=60", "--seed=13"});
  ASSERT_EQ(trace.code, 0) << trace.err;
  const std::string trace_path = TempPath("sim_csv.trace");
  const std::string csv_path = TempPath("sim_csv.csv");
  WriteFile(trace_path, trace.out);
  const CommandResult run = RunCli(
      {"simulate", "--trace", trace_path.c_str(), "--csv",
       csv_path.c_str()});
  ASSERT_EQ(run.code, 0) << run.err;
  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.good());
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line,
            "step,kind,applied,replanned,predicted_bytes,executed_bytes,"
            "predicted_moves,executed_records,predicted_drops,"
            "executed_drops,reducers,max_load,reconciled,placement_ok");
  std::size_t rows = 0;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line.rfind("1,add,1,", 0), 0u) << line;
  ++rows;
  while (std::getline(csv, line)) ++rows;
  // One row per trace event (8 initial adds + 30 steps), no trailing
  // checkpoint in unbatched mode.
  EXPECT_EQ(rows, 38u);
  std::remove(trace_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(CommandsTest, SimulateRejectsBadInvocations) {
  EXPECT_EQ(RunCli({"simulate"}).code, 2);  // --trace required
  EXPECT_EQ(RunCli({"simulate", "--trace=/nonexistent.trace"}).code, 2);
  const std::string trace_path = TempPath("sim_bad.trace");
  WriteFile(trace_path, "not a trace\n");
  EXPECT_EQ(RunCli({"simulate", "--trace", trace_path.c_str()}).code, 2);
  const CommandResult trace = RunCli(
      {"gen-trace", "--kind=a2a", "--initial=6", "--steps=5", "--q=40"});
  ASSERT_EQ(trace.code, 0);
  WriteFile(trace_path, trace.out);
  EXPECT_EQ(RunCli({"simulate", "--trace", trace_path.c_str(),
                    "--policy=voodoo"})
                .code,
            2);
  EXPECT_EQ(RunCli({"simulate", "--trace", trace_path.c_str(),
                    "--shards=0"})
                .code,
            2);
  EXPECT_EQ(RunCli({"simulate", "--trace", trace_path.c_str(),
                    "--shards=-1"})
                .code,
            2);
  // Misspelled flags are rejected, not silently defaulted.
  EXPECT_EQ(RunCli({"simulate", "--trace", trace_path.c_str(),
                    "--shard=2"})
                .code,
            2);
  std::remove(trace_path.c_str());
}

TEST(CommandsTest, OnlineReplayStaysInSyncPastRejectedAdds) {
  // The 9-input is rejected (5 + 9 > q = 10), so trace id 1 never gets
  // a live id; `remove 1` must be skipped — not silently applied to
  // the 3-input, which the assigner numbered 1 in the trace's stead.
  const std::string trace_path = TempPath("desync.trace");
  WriteFile(trace_path,
            "update-trace v1 a2a q=10\nadd 5\nadd 9\nadd 3\nremove 1\n");
  const CommandResult replay =
      RunCli({"online", "--trace", trace_path.c_str()});
  EXPECT_EQ(replay.code, 0) << replay.err;
  EXPECT_NE(replay.err.find("rejected"), std::string::npos);
  EXPECT_NE(replay.err.find("step 4 skipped"), std::string::npos);
  EXPECT_NE(replay.err.find("inputs=2"), std::string::npos);
  EXPECT_NE(replay.err.find("valid=yes"), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST(CommandsTest, OnlineWalRestoreContinuationIsBitIdentical) {
  const CommandResult trace =
      RunCli({"gen-trace", "--kind=a2a", "--initial=15", "--steps=90",
              "--q=80", "--seed=33"});
  ASSERT_EQ(trace.code, 0) << trace.err;
  const std::string trace_path = TempPath("wal.trace");
  WriteFile(trace_path, trace.out);

  // Reference: uninterrupted replay.
  const CommandResult full =
      RunCli({"online", "--trace", trace_path.c_str()});
  ASSERT_EQ(full.code, 0) << full.err;

  // Durable run: same replay, appending every event to a changelog.
  const std::string wal_path = TempPath("wal.log");
  const CommandResult logged =
      RunCli({"online", "--trace", trace_path.c_str(), "--wal-out",
              wal_path.c_str(), "--fsync-every=4"});
  ASSERT_EQ(logged.code, 0) << logged.err;
  EXPECT_NE(logged.err.find("wal: "), std::string::npos);
  EXPECT_NE(logged.err.find("records="), std::string::npos);
  EXPECT_EQ(logged.out, full.out);

  // "Crash" after step 60: the snapshot is the state we salvaged, the
  // changelog replays the tail past it — the result must be the
  // uninterrupted run, bit for bit.
  const std::string snap_path = TempPath("wal.snap");
  ASSERT_EQ(RunCli({"snapshot", "--trace", trace_path.c_str(),
                    "--steps=60", "--out", snap_path.c_str(),
                    "--epoch=1"})
                .code,
            0);
  const CommandResult recovered =
      RunCli({"restore", "--snapshot", snap_path.c_str(), "--wal",
              wal_path.c_str()});
  ASSERT_EQ(recovered.code, 0) << recovered.err;
  EXPECT_NE(recovered.err.find("replayed="), std::string::npos);
  EXPECT_NE(recovered.err.find("valid=yes"), std::string::npos);
  EXPECT_EQ(recovered.out, full.out)
      << "changelog continuation diverged from the uninterrupted replay";

  // Stale pair: a snapshot from epoch 2 must refuse an epoch-1 log.
  const std::string stale_path = TempPath("wal.stale.snap");
  ASSERT_EQ(RunCli({"snapshot", "--trace", trace_path.c_str(),
                    "--steps=60", "--out", stale_path.c_str(),
                    "--epoch=2"})
                .code,
            0);
  const CommandResult stale =
      RunCli({"restore", "--snapshot", stale_path.c_str(), "--wal",
              wal_path.c_str()});
  EXPECT_EQ(stale.code, 2);
  EXPECT_NE(stale.err.find("stale changelog"), std::string::npos)
      << stale.err;

  std::remove(trace_path.c_str());
  std::remove(wal_path.c_str());
  std::remove(snap_path.c_str());
  std::remove(stale_path.c_str());
}

// Best-effort recursive cleanup of a serve --wal-dir tree.
void RemoveWalDir(const std::string& dir, std::size_t shards) {
  for (std::size_t s = 0; s < shards; ++s) {
    const std::string shard = dir + "/shard-" + std::to_string(s);
    for (int e = 1; e <= 32; ++e) {
      std::remove((shard + "/wal." + std::to_string(e)).c_str());
      std::remove((shard + "/snap." + std::to_string(e)).c_str());
    }
    std::remove((shard + "/snap.tmp").c_str());
    std::remove(shard.c_str());
  }
  std::remove((dir + "/MANIFEST").c_str());
  std::remove(dir.c_str());
}

TEST(CommandsTest, ServeWalRecoverRoundTrip) {
  const std::string wal_dir = TempPath("serve.wal");
  RemoveWalDir(wal_dir, 2);  // a previous run may have left state

  const CommandResult serve =
      RunCli({"serve", "--instances=4", "--shards=2", "--initial=12",
              "--steps=50", "--seed=3", "--batch=4", "--cooldown=8",
              "--wal-dir", wal_dir.c_str(), "--fsync-every=4",
              "--rotate-every=40"});
  ASSERT_EQ(serve.code, 0) << serve.err;
  EXPECT_EQ(serve.out.find("valid=NO"), std::string::npos);

  const CommandResult recover =
      RunCli({"recover", "--wal-dir", wal_dir.c_str()});
  ASSERT_EQ(recover.code, 0) << recover.err;
  // The recovered instance table is byte-identical to the serve run's:
  // every instance came back with its exact schema shape.
  EXPECT_EQ(recover.out.substr(0, serve.out.size()), serve.out);
  EXPECT_NE(recover.err.find("recovered: shards=2 instances=4 valid=yes"),
            std::string::npos)
      << recover.err;
  EXPECT_NE(recover.err.find("durability"), std::string::npos);

  // A fresh serve into the now-populated directory must refuse.
  const CommandResult dirty =
      RunCli({"serve", "--instances=2", "--shards=2", "--wal-dir",
              wal_dir.c_str()});
  EXPECT_EQ(dirty.code, 2);
  EXPECT_NE(dirty.err.find("cannot attach changelog"), std::string::npos);

  RemoveWalDir(wal_dir, 2);
}

// The event and checkpoint records of the changelog at `path`, one
// line each, without the key (which names the instance).
std::vector<std::string> StreamRecords(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::string error;
  const auto contents = durability::ReadChangelog(bytes.str(), &error);
  EXPECT_TRUE(contents.has_value()) << path << ": " << error;
  std::vector<std::string> records;
  if (!contents.has_value()) return records;
  for (const durability::LogRecord& record : contents->records) {
    if (record.kind == durability::RecordKind::kCreate) continue;
    const online::Update& u = record.update;
    records.push_back(
        "kind=" + std::to_string(static_cast<int>(record.kind)) +
        " seq=" + std::to_string(record.seq) +
        " update=" + std::to_string(static_cast<int>(u.kind)) + "/" +
        std::to_string(static_cast<int>(u.side)) + "/" +
        std::to_string(u.id) + "/" + std::to_string(u.value));
  }
  return records;
}

// `serve --wal-dir` and `online --wal-out` run the same stream step, so
// the same trace and window must log the same records. The trace's 64
// applied updates fill exactly 16 windows of 4: the last window closes
// at apply time, and serve's end-of-stream CheckpointAll must then log
// nothing more.
TEST(CommandsTest, ServeAndOnlineLogTheSameRecords) {
  const std::string wal_dir = TempPath("same.wal");
  RemoveWalDir(wal_dir, 1);
  const CommandResult trace =
      RunCli({"gen-trace", "--kind=a2a", "--initial=12", "--steps=52",
              "--seed=3"});
  ASSERT_EQ(trace.code, 0) << trace.err;
  const std::string trace_path = TempPath("same.trace");
  WriteFile(trace_path, trace.out);
  const std::string wal_out = TempPath("same.log");

  const CommandResult online =
      RunCli({"online", "--trace", trace_path.c_str(), "--batch=4",
              "--wal-out", wal_out.c_str()});
  ASSERT_EQ(online.code, 0) << online.err;
  ASSERT_EQ(TableCell(online.err, "updates applied"), "64");
  const CommandResult serve =
      RunCli({"serve", "--instances=1", "--shards=1", "--initial=12",
              "--steps=52", "--seed=3", "--batch=4", "--wal-dir",
              wal_dir.c_str()});
  ASSERT_EQ(serve.code, 0) << serve.err;

  const auto want = StreamRecords(wal_out);
  ASSERT_EQ(want.size(), 64u + 16u);
  EXPECT_EQ(want.back().rfind("kind=4 seq=64 ", 0), 0u) << want.back();
  EXPECT_EQ(StreamRecords(wal_dir + "/shard-0/wal.1"), want);

  std::remove(trace_path.c_str());
  std::remove(wal_out.c_str());
  RemoveWalDir(wal_dir, 1);
}

TEST(CommandsTest, RecoverRejectsBadInvocations) {
  EXPECT_EQ(RunCli({"recover"}).code, 2);  // --wal-dir required
  const CommandResult missing =
      RunCli({"recover", "--wal-dir=/nonexistent/msp-wal"});
  EXPECT_EQ(missing.code, 2);
  EXPECT_EQ(RunCli({"recover", "--frob=1"}).code, 2);  // unknown flag
}

// Satellite proof for the churn-budget wiring: a budgeted replay must
// report its window accounting and the max window spend must respect
// the configured byte budget (the command exits non-zero otherwise).
TEST(CommandsTest, OnlineChurnBudgetReplayRespectsTheWindowBudget) {
  const CommandResult trace =
      RunCli({"gen-trace", "--kind=a2a", "--initial=12", "--steps=120",
              "--q=80", "--seed=21"});
  ASSERT_EQ(trace.code, 0) << trace.err;
  const std::string trace_path = TempPath("budget.trace");
  WriteFile(trace_path, trace.out);

  const CommandResult replay =
      RunCli({"online", "--trace", trace_path.c_str(),
              "--churn-budget=2000", "--budget-window=16"});
  ASSERT_EQ(replay.code, 0) << replay.err;
  EXPECT_NE(replay.err.find("churn budget"), std::string::npos);
  EXPECT_NE(replay.err.find("budget: max window spend"), std::string::npos);
  EXPECT_NE(replay.err.find(" <= 2000 bytes per window"), std::string::npos);
  EXPECT_EQ(replay.err.find("EXCEEDS"), std::string::npos);
  EXPECT_NE(replay.out.find("mapping-schema v1"), std::string::npos);
  std::remove(trace_path.c_str());
}

// A step that targets a rejected add is skipped, not rejected; the
// budgeted replay must report it like the plain one does.
TEST(CommandsTest, OnlineChurnBudgetReportsSkippedSteps) {
  const std::string trace_path = TempPath("budget-skip.trace");
  WriteFile(trace_path,
            "update-trace v1 a2a q=100\nadd 30\nadd 20\nadd 80\nremove 2\n"
            "add 10\nresize 0 25\n");
  const CommandResult plain =
      RunCli({"online", "--trace", trace_path.c_str()});
  const CommandResult budgeted =
      RunCli({"online", "--trace", trace_path.c_str(),
              "--churn-budget=1000", "--budget-window=2"});
  for (const CommandResult* replay : {&plain, &budgeted}) {
    ASSERT_EQ(replay->code, 0) << replay->err;
    EXPECT_EQ(TableCell(replay->err, "updates rejected"), "1")
        << replay->err;
    EXPECT_EQ(TableCell(replay->err, "steps skipped (bad id)"), "1")
        << replay->err;
  }
  std::remove(trace_path.c_str());
}

TEST(CommandsTest, OnlineBudgetAndMatchingRejectBadInvocations) {
  const CommandResult trace =
      RunCli({"gen-trace", "--kind=a2a", "--initial=10", "--steps=30",
              "--q=60", "--seed=4"});
  ASSERT_EQ(trace.code, 0) << trace.err;
  const std::string trace_path = TempPath("budget-bad.trace");
  WriteFile(trace_path, trace.out);

  // Budgets re-order applies relative to the WAL's apply-before-log
  // contract, so the combination is refused outright.
  const std::string wal_out = TempPath("budget-wal.bin");
  EXPECT_EQ(RunCli({"online", "--trace", trace_path.c_str(),
                    "--churn-budget=1000", "--wal-out", wal_out.c_str()})
                .code,
            2);
  EXPECT_EQ(RunCli({"online", "--trace", trace_path.c_str(),
                    "--churn-budget=1000", "--budget-window=0"})
                .code,
            2);
  EXPECT_EQ(RunCli({"online", "--trace", trace_path.c_str(),
                    "--matching=bogus"})
                .code,
            2);
  // The listen/serve-ms knobs belong to `serve`, not `online`.
  EXPECT_EQ(RunCli({"online", "--trace", trace_path.c_str(), "--listen=0"})
                .code,
            2);

  // The hungarian matching plus gap measurement is a valid replay.
  const CommandResult hungarian =
      RunCli({"online", "--trace", trace_path.c_str(),
              "--matching=hungarian", "--matching-gap=1"});
  EXPECT_EQ(hungarian.code, 0) << hungarian.err;
  EXPECT_NE(hungarian.out.find("mapping-schema v1"), std::string::npos);
  std::remove(trace_path.c_str());
}

// A budget window without a budget sizes nothing: it is refused with a
// reason (exit 2), not silently ignored, by every spec-reading command.
TEST(CommandsTest, BudgetWindowWithoutChurnBudgetIsRefused) {
  const CommandResult trace =
      RunCli({"gen-trace", "--kind=a2a", "--initial=10", "--steps=20",
              "--q=60", "--seed=5"});
  ASSERT_EQ(trace.code, 0) << trace.err;
  const std::string trace_path = TempPath("window-only.trace");
  WriteFile(trace_path, trace.out);
  const std::string snap_path = TempPath("window-only.snap");
  const std::vector<std::vector<std::string>> invocations = {
      {"online", "--trace", trace_path, "--budget-window=8"},
      {"serve", "--instances=2", "--steps=10", "--budget-window=8"},
      {"snapshot", "--trace", trace_path, "--steps=10", "--out", snap_path,
       "--budget-window=8"},
      {"simulate", "--trace", trace_path, "--budget-window=8"},
  };
  for (const auto& args : invocations) {
    std::vector<const char*> argv;
    for (const std::string& arg : args) argv.push_back(arg.c_str());
    const CommandResult result = RunCli(argv);
    EXPECT_EQ(result.code, 2) << args[0];
    EXPECT_NE(result.err.find("--budget-window needs --churn-budget"),
              std::string::npos)
        << args[0] << ": " << result.err;
  }
  // With a budget the window is honoured, as before.
  EXPECT_EQ(RunCli({"online", "--trace", trace_path.c_str(),
                    "--churn-budget=1000", "--budget-window=8"})
                .code,
            0);
  std::remove(trace_path.c_str());
  std::remove(snap_path.c_str());
}

TEST(CommandsTest, ServeListenBringsUpTheRpcFrontDoor) {
  const CommandResult result =
      RunCli({"serve", "--listen=0", "--serve-ms=100", "--shards=2",
              "--instances=2", "--initial=10", "--steps=20"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("rpc: listening on 127.0.0.1:"),
            std::string::npos);
  EXPECT_NE(result.err.find("rpc: connections=0"), std::string::npos);
}

TEST(CommandsTest, ServeRejectsBadRpcAndBudgetOptions) {
  EXPECT_EQ(RunCli({"serve", "--listen=0", "--serve-ms=50",
                    "--max-depth=0"})
                .code,
            2);
  EXPECT_EQ(RunCli({"serve", "--listen=99999", "--serve-ms=50"}).code, 2);
  EXPECT_EQ(RunCli({"serve", "--matching=bogus"}).code, 2);
  EXPECT_EQ(RunCli({"serve", "--churn-budget=100", "--budget-window=0"})
                .code,
            2);
  // A churn budget cannot ride a WAL: refused, not dropped.
  const std::string wal_dir = TempPath("budget-serve.wal");
  RemoveWalDir(wal_dir, 4);
  const CommandResult budgeted =
      RunCli({"serve", "--instances=2", "--steps=10", "--churn-budget=100",
              "--wal-dir", wal_dir.c_str()});
  EXPECT_EQ(budgeted.code, 2);
  EXPECT_NE(budgeted.err.find("churn budget"), std::string::npos)
      << budgeted.err;
  RemoveWalDir(wal_dir, 4);
}

// The churn table of a replay report: from its title to the next one.
std::string ChurnTable(const std::string& report) {
  const std::size_t begin = report.find("== churn ==");
  if (begin == std::string::npos) return "";
  return report.substr(begin, report.find("== ", begin + 1) - begin);
}

// Every spec flag survives the snapshot: `snapshot` with Hungarian
// matching and gap measurement, then `restore`, prints the same schema
// and churn table as one uninterrupted `online` run with those flags.
// On this trace greedy matching moves 18,298 bytes and Hungarian
// 18,082, so a dropped field shows.
TEST(CommandsTest, SnapshotRestoreKeepsMatchingAndGap) {
  const CommandResult trace =
      RunCli({"gen-trace", "--kind=a2a", "--initial=30", "--steps=200",
              "--q=100", "--seed=11"});
  ASSERT_EQ(trace.code, 0) << trace.err;
  const std::string trace_path = TempPath("spec-roundtrip.trace");
  const std::string snap_path = TempPath("spec-roundtrip.snap");
  WriteFile(trace_path, trace.out);

  const CommandResult online =
      RunCli({"online", "--trace", trace_path.c_str(), "--batch=4",
              "--replan-threshold=1.1", "--matching=hungarian",
              "--matching-gap=1"});
  ASSERT_EQ(online.code, 0) << online.err;
  const CommandResult greedy =
      RunCli({"online", "--trace", trace_path.c_str(), "--batch=4",
              "--replan-threshold=1.1"});
  ASSERT_EQ(greedy.code, 0) << greedy.err;
  EXPECT_NE(ChurnTable(online.err).find("18,082"), std::string::npos)
      << online.err;
  EXPECT_NE(ChurnTable(greedy.err).find("18,298"), std::string::npos)
      << greedy.err;

  const CommandResult snap =
      RunCli({"snapshot", "--trace", trace_path.c_str(), "--batch=4",
              "--replan-threshold=1.1", "--matching=hungarian",
              "--matching-gap=1", "--steps=120", "--out",
              snap_path.c_str()});
  ASSERT_EQ(snap.code, 0) << snap.err;
  const CommandResult restored =
      RunCli({"restore", "--snapshot", snap_path.c_str(), "--trace",
              trace_path.c_str(), "--batch=4"});
  ASSERT_EQ(restored.code, 0) << restored.err;
  EXPECT_EQ(restored.out, online.out);
  EXPECT_EQ(ChurnTable(restored.err), ChurnTable(online.err));
  EXPECT_NE(ChurnTable(restored.err), "");

  // Fields a command cannot honour are refused, never dropped.
  EXPECT_EQ(RunCli({"snapshot", "--trace", trace_path.c_str(),
                    "--churn-budget=100", "--out", snap_path.c_str()})
                .code,
            2);
  EXPECT_EQ(RunCli({"simulate", "--trace", trace_path.c_str(),
                    "--churn-budget=100"})
                .code,
            2);
  std::remove(trace_path.c_str());
  std::remove(snap_path.c_str());
}

}  // namespace
}  // namespace msp::cli
