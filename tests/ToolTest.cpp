//===- tests/ToolTest.cpp - the uccc CLI end to end -----------------------===//
//
// Shells out to the real `uccc` binary (path injected by CMake) and walks
// the full sink-to-sensor flow on disk: compile, update, patch, run, diff.
//
//===----------------------------------------------------------------------===//

#include "TestJson.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

namespace {

#ifndef UCC_TOOL_PATH
#define UCC_TOOL_PATH "uccc"
#endif

/// A scratch directory for one test.
class ToolFixture : public ::testing::Test {
protected:
  void SetUp() override {
    char Template[] = "/tmp/uccc-test-XXXXXX";
    ASSERT_NE(mkdtemp(Template), nullptr);
    Dir = Template;
  }

  void TearDown() override {
    std::system(("rm -rf " + Dir).c_str());
  }

  std::string path(const std::string &Name) const {
    return Dir + "/" + Name;
  }

  void writeFile(const std::string &Name, const std::string &Text) const {
    std::ofstream Out(path(Name));
    Out << Text;
  }

  std::string readFile(const std::string &Name) const {
    std::ifstream In(path(Name), std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(In),
                       std::istreambuf_iterator<char>());
  }

  /// Runs `uccc <ArgsLine>`; stdout/stderr go to a capture file. Returns
  /// the exit code.
  int uccc(const std::string &ArgsLine) const {
    std::string Cmd = std::string(UCC_TOOL_PATH) + " " + ArgsLine + " > " +
                      path("out.txt") + " 2>&1";
    int Status = std::system(Cmd.c_str());
    return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  }

  std::string capturedOutput() const { return readFile("out.txt"); }

  std::string Dir;
};

const char *SourceV1 = R"(
int total;
void main() {
  int i;
  for (i = 1; i <= 5; i = i + 1) { total = total + i; }
  __out(15, total);
  __halt();
}
)";

const char *SourceV2 = R"(
int total;
void main() {
  int i;
  for (i = 1; i <= 5; i = i + 1) { total = total + i * 2; }
  __out(15, total);
  __halt();
}
)";

TEST_F(ToolFixture, CompileRunFlow) {
  writeFile("app.mc", SourceV1);
  ASSERT_EQ(uccc("compile " + path("app.mc") + " -o " + path("app.img") +
                 " --record " + path("app.rec")),
            0)
      << capturedOutput();
  EXPECT_FALSE(readFile("app.img").empty());
  EXPECT_FALSE(readFile("app.rec").empty());

  ASSERT_EQ(uccc("run " + path("app.img")), 0) << capturedOutput();
  EXPECT_NE(capturedOutput().find("debug: 15"), std::string::npos)
      << capturedOutput();
}

TEST_F(ToolFixture, LexerHostileSourcesAreErrorsNotCrashes) {
  // 200000 stray characters once overflowed the lexer's stack (SIGSEGV),
  // and a 30-digit literal once wrapped and compiled.
  writeFile("stray.mc",
            "int main() { return " + std::string(200000, '@') + " 0; }\n");
  EXPECT_EQ(uccc("compile " + path("stray.mc") + " -o " + path("stray.img")),
            1);
  EXPECT_NE(capturedOutput().find("1:21: error: unexpected character '@'"),
            std::string::npos);
  writeFile("wide.mc",
            "int main() { return 123456789012345678901234567890; }\n");
  EXPECT_EQ(uccc("compile " + path("wide.mc") + " -o " + path("wide.img")), 1);
  EXPECT_NE(capturedOutput().find("integer literal "
                                  "123456789012345678901234567890 exceeds "
                                  "16 bits"),
            std::string::npos)
      << capturedOutput();
}

TEST_F(ToolFixture, UpdatePatchFlowReproducesFreshImage) {
  writeFile("v1.mc", SourceV1);
  writeFile("v2.mc", SourceV2);
  ASSERT_EQ(uccc("compile " + path("v1.mc") + " -o " + path("v1.img") +
                 " --record " + path("v1.rec")),
            0)
      << capturedOutput();
  ASSERT_EQ(uccc("update " + path("v2.mc") + " --record " + path("v1.rec") +
                 " --image " + path("v1.img") + " -o " + path("v2.img") +
                 " --script " + path("up.pkg")),
            0)
      << capturedOutput();
  ASSERT_EQ(uccc("patch " + path("v1.img") + " " + path("up.pkg") + " -o " +
                 path("patched.img")),
            0)
      << capturedOutput();
  EXPECT_EQ(readFile("patched.img"), readFile("v2.img"))
      << "the patched image must be byte-identical to the fresh build";

  ASSERT_EQ(uccc("run " + path("patched.img")), 0) << capturedOutput();
  EXPECT_NE(capturedOutput().find("debug: 30"), std::string::npos)
      << capturedOutput();
}

TEST_F(ToolFixture, DiffAndDisassembleReport) {
  writeFile("v1.mc", SourceV1);
  writeFile("v2.mc", SourceV2);
  ASSERT_EQ(uccc("compile " + path("v1.mc") + " -o " + path("v1.img") +
                 " --record " + path("v1.rec")),
            0);
  ASSERT_EQ(uccc("update " + path("v2.mc") + " --record " + path("v1.rec") +
                 " --image " + path("v1.img") + " -o " + path("v2.img")),
            0);
  ASSERT_EQ(uccc("diff " + path("v1.img") + " " + path("v2.img")), 0);
  EXPECT_NE(capturedOutput().find("total Diff_inst:"), std::string::npos);

  ASSERT_EQ(uccc("dis " + path("v1.img")), 0);
  EXPECT_NE(capturedOutput().find("main:"), std::string::npos);
  EXPECT_NE(capturedOutput().find("halt"), std::string::npos);
}

TEST_F(ToolFixture, TraceJsonEmitsTheDocumentedSchema) {
  writeFile("v1.mc", SourceV1);
  writeFile("v2.mc", SourceV2);
  ASSERT_EQ(uccc("compile " + path("v1.mc") + " -o " + path("v1.img") +
                 " --record " + path("v1.rec") + " --trace-json " +
                 path("compile.json")),
            0)
      << capturedOutput();
  ASSERT_EQ(uccc("update " + path("v2.mc") + " --record " + path("v1.rec") +
                 " --image " + path("v1.img") + " -o " + path("v2.img") +
                 " --trace-json " + path("update.json")),
            0)
      << capturedOutput();

  // The compile trace: a "compile" span with the per-phase children.
  auto CompileDoc = testjson::parse(readFile("compile.json"));
  ASSERT_TRUE(CompileDoc.has_value()) << readFile("compile.json");
  ASSERT_EQ(CompileDoc->get("version")->Num, 1.0);
  const testjson::Value *Spans = CompileDoc->get("spans");
  ASSERT_NE(Spans, nullptr);
  ASSERT_EQ(Spans->Arr.size(), 1u);
  const testjson::Value &Compile = *Spans->Arr[0];
  EXPECT_EQ(Compile.get("name")->Str, "compile");
  const testjson::Value *Children = Compile.get("children");
  ASSERT_NE(Children, nullptr);
  for (const char *Phase : {"parse", "opt", "isel", "ra", "da", "encode"}) {
    bool Found = false;
    for (const auto &C : Children->Arr)
      Found |= C->get("name")->Str == Phase;
    EXPECT_TRUE(Found) << "missing phase span: " << Phase;
  }

  // The update trace: "recompile" + "diff" spans, the declared solver
  // counters (zero here — greedy strategy), and edit-script byte counts.
  auto UpdateDoc = testjson::parse(readFile("update.json"));
  ASSERT_TRUE(UpdateDoc.has_value()) << readFile("update.json");
  const testjson::Value *USpans = UpdateDoc->get("spans");
  ASSERT_NE(USpans, nullptr);
  bool SawRecompile = false, SawDiff = false;
  for (const auto &S : USpans->Arr) {
    SawRecompile |= S->get("name")->Str == "recompile";
    SawDiff |= S->get("name")->Str == "diff";
  }
  EXPECT_TRUE(SawRecompile);
  EXPECT_TRUE(SawDiff);

  const testjson::Value *Counters = UpdateDoc->get("counters");
  ASSERT_NE(Counters, nullptr);
  for (const char *Key :
       {"lp.pivots", "lp.bb_nodes", "ra.pref_honored", "ra.pref_broken",
        "diff.script_bytes", "diff.bytes.insert", "diff.bytes.replace"})
    EXPECT_NE(Counters->get(Key), nullptr) << "missing counter: " << Key;
  EXPECT_GT(Counters->get("diff.script_bytes")->Num, 0.0);
  EXPECT_GT(Counters->get("ra.pref_honored")->Num, 0.0);

  // --stats prints the human-readable summary without disturbing output.
  ASSERT_EQ(uccc("diff " + path("v1.img") + " " + path("v2.img") +
                 " --stats"),
            0)
      << capturedOutput();
  EXPECT_NE(capturedOutput().find("--- telemetry ---"), std::string::npos)
      << capturedOutput();
}

TEST_F(ToolFixture, TraceJsonCapturesIlpSolverWork) {
  // Straight-line sources: the ILP engine only takes single-block
  // functions, and the default model budget (400 binaries) is too small
  // even for these — hence --ilp-max-binaries.
  writeFile("s1.mc", R"(
int a; int b; int c;
void main() {
  a = 3; b = a + 4; c = a + b;
  __out(15, c);
  __halt();
}
)");
  writeFile("s2.mc", R"(
int a; int b; int c;
void main() {
  a = 3; b = a + 9; c = a + b;
  __out(15, c);
  __halt();
}
)");
  ASSERT_EQ(uccc("compile " + path("s1.mc") + " -o " + path("s1.img") +
                 " --record " + path("s1.rec")),
            0);
  ASSERT_EQ(uccc("update " + path("s2.mc") + " --record " + path("s1.rec") +
                 " --image " + path("s1.img") + " -o " + path("s2.img") +
                 " --strategy hybrid --ilp-max-binaries 4000 --trace-json " +
                 path("ilp.json")),
            0)
      << capturedOutput();

  auto Doc = testjson::parse(readFile("ilp.json"));
  ASSERT_TRUE(Doc.has_value()) << readFile("ilp.json");
  const testjson::Value *Counters = Doc->get("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_GT(Counters->get("ra.ilp_windows")->Num, 0.0);
  EXPECT_GT(Counters->get("lp.ilp_solves")->Num, 0.0);
  EXPECT_GT(Counters->get("lp.bb_nodes")->Num, 0.0);
  EXPECT_GT(Counters->get("lp.pivots")->Num, 0.0);
  const testjson::Value *Gauges = Doc->get("gauges");
  ASSERT_NE(Gauges, nullptr);
  EXPECT_NE(Gauges->get("lp.ilp_seconds"), nullptr);
}

TEST_F(ToolFixture, RejectsBrokenInputs) {
  writeFile("bad.mc", "void main() { int x = ; }");
  EXPECT_NE(uccc("compile " + path("bad.mc") + " -o " + path("bad.img")),
            0);
  EXPECT_NE(capturedOutput().find("error"), std::string::npos);

  writeFile("garbage.img", "this is not an image");
  EXPECT_NE(uccc("run " + path("garbage.img")), 0);
  EXPECT_NE(uccc("dis " + path("garbage.img")), 0);
}

TEST_F(ToolFixture, BaselineFlagProducesBiggerScript) {
  writeFile("v1.mc", SourceV1);
  writeFile("v2.mc", SourceV2);
  ASSERT_EQ(uccc("compile " + path("v1.mc") + " -o " + path("v1.img") +
                 " --record " + path("v1.rec")),
            0);
  ASSERT_EQ(uccc("update " + path("v2.mc") + " --record " + path("v1.rec") +
                 " --image " + path("v1.img") + " -o " + path("a.img") +
                 " --script " + path("ucc.pkg")),
            0);
  ASSERT_EQ(uccc("update " + path("v2.mc") + " --record " + path("v1.rec") +
                 " --image " + path("v1.img") + " -o " + path("b.img") +
                 " --script " + path("base.pkg") + " --baseline"),
            0);
  EXPECT_LE(readFile("ucc.pkg").size(), readFile("base.pkg").size());
}

TEST_F(ToolFixture, CliUsageErrorsExitTwoWithAMessage) {
  writeFile("v1.mc", SourceV1);

  // Unknown command.
  EXPECT_EQ(uccc("frobnicate"), 2);
  EXPECT_NE(capturedOutput().find("unknown command"), std::string::npos)
      << capturedOutput();

  // Unknown flag — must be rejected, not silently ignored.
  EXPECT_EQ(uccc("compile " + path("v1.mc") + " -o " + path("v1.img") +
                 " --bogus-flag"),
            2);
  EXPECT_NE(capturedOutput().find("unknown argument '--bogus-flag'"),
            std::string::npos)
      << capturedOutput();

  // There is one optimization level. A record does not say which level
  // built it, so an `--O0` image could not be updated like-for-like.
  EXPECT_EQ(uccc("compile " + path("v1.mc") + " -o " + path("v1.img") +
                 " --O0"),
            2);
  EXPECT_NE(capturedOutput().find("unknown argument '--O0'"),
            std::string::npos)
      << capturedOutput();

  // A value flag at the end of the line has no value.
  EXPECT_EQ(uccc("compile " + path("v1.mc") + " -o"), 2);
  EXPECT_NE(capturedOutput().find("option '-o' expects a value"),
            std::string::npos)
      << capturedOutput();

  // Malformed numbers are diagnosed instead of atoi'd to zero.
  writeFile("dummy.img", "x");
  EXPECT_EQ(uccc("run " + path("dummy.img") + " --steps banana"), 2);
  EXPECT_NE(capturedOutput().find("--steps expects an integer"),
            std::string::npos)
      << capturedOutput();

  // `ilp` named the same allocator as `hybrid` and is no longer a
  // strategy.
  EXPECT_EQ(uccc("commit " + path("v1.mc") + " --store " + path("s") +
                 " --strategy ilp"),
            2);
  EXPECT_NE(capturedOutput().find("unknown --strategy 'ilp'"),
            std::string::npos)
      << capturedOutput();

  // A stray positional is rejected too.
  EXPECT_EQ(uccc("compile " + path("v1.mc") + " extra.mc -o " +
                 path("v1.img")),
            2);
  EXPECT_NE(capturedOutput().find("unknown argument"), std::string::npos)
      << capturedOutput();
}

TEST_F(ToolFixture, RecordLoadFailureIsDiagnosed) {
  writeFile("v2.mc", SourceV2);
  writeFile("broken.rec", "not a record at all");
  writeFile("v1.img", "x");
  EXPECT_EQ(uccc("update " + path("v2.mc") + " --record " +
                 path("broken.rec") + " --image " + path("v1.img") +
                 " -o " + path("out.img")),
            1);
  EXPECT_NE(capturedOutput().find("not a valid compilation record"),
            std::string::npos)
      << capturedOutput();

  EXPECT_EQ(uccc("update " + path("v2.mc") + " --record " +
                 path("missing.rec") + " --image " + path("v1.img") +
                 " -o " + path("out.img")),
            1);
  EXPECT_NE(capturedOutput().find("cannot open"), std::string::npos)
      << capturedOutput();
}

TEST_F(ToolFixture, StoreWorkflowCommitHistoryPlanCampaign) {
  writeFile("v1.mc", SourceV1);
  writeFile("v2.mc", SourceV2);
  std::string Store = " --store " + path("store");

  // Three commits: v0 (initial), v1, v2 (back to the old source).
  ASSERT_EQ(uccc("commit " + path("v1.mc") + Store), 0)
      << capturedOutput();
  EXPECT_NE(capturedOutput().find("committed v0"), std::string::npos);
  ASSERT_EQ(uccc("commit " + path("v2.mc") + Store), 0)
      << capturedOutput();
  EXPECT_NE(capturedOutput().find("committed v1"), std::string::npos);
  ASSERT_EQ(uccc("commit " + path("v1.mc") + Store), 0)
      << capturedOutput();
  EXPECT_NE(capturedOutput().find("committed v2"), std::string::npos);

  // The artifacts live on disk.
  EXPECT_FALSE(readFile("store/manifest.json").empty());
  EXPECT_FALSE(readFile("store/v2.img").empty());
  EXPECT_FALSE(readFile("store/v2.rec").empty());

  ASSERT_EQ(uccc("history" + Store), 0) << capturedOutput();
  EXPECT_NE(capturedOutput().find("3 version(s)"), std::string::npos)
      << capturedOutput();

  // Plan across the whole chain and write the package; it must patch v0's
  // stored image to v2's, byte for byte.
  ASSERT_EQ(uccc("plan" + Store + " --from 0 --to 2 -o " +
                 path("plan.pkg")),
            0)
      << capturedOutput();
  EXPECT_NE(capturedOutput().find("direct diff:"), std::string::npos);
  EXPECT_NE(capturedOutput().find("composed route:"), std::string::npos);
  ASSERT_EQ(uccc("patch " + path("store/v0.img") + " " + path("plan.pkg") +
                 " -o " + path("patched.img")),
            0)
      << capturedOutput();
  EXPECT_EQ(readFile("patched.img"), readFile("store/v2.img"));

  // A campaign over a mixed-version line fleet reports per-cohort floods.
  ASSERT_EQ(uccc("campaign" + Store +
                 " --target 2 --deployed 2,0,0,1,1,2 --loss 0.1"),
            0)
      << capturedOutput();
  EXPECT_NE(capturedOutput().find("cohort v0"), std::string::npos)
      << capturedOutput();
  EXPECT_NE(capturedOutput().find("cohort v1"), std::string::npos);
  EXPECT_NE(capturedOutput().find("4 node(s) updated, 1 already current"),
            std::string::npos)
      << capturedOutput();

  // Planning to a downgrade target works too: the rollback composes
  // through the version graph and competes with the direct diff.
  ASSERT_EQ(uccc("plan" + Store + " --from 2 --to 0"), 0)
      << capturedOutput();
  EXPECT_NE(capturedOutput().find("composed route: "), std::string::npos)
      << capturedOutput();
  EXPECT_NE(capturedOutput().find("(2 steps)"), std::string::npos)
      << capturedOutput();
}

TEST_F(ToolFixture, StoreCliDiagnostics) {
  writeFile("v1.mc", SourceV1);
  // --store is required.
  EXPECT_EQ(uccc("history"), 2);
  EXPECT_NE(capturedOutput().find("requires --store"), std::string::npos)
      << capturedOutput();

  // Planning in an empty store is an operational error.
  EXPECT_EQ(uccc("plan --store " + path("empty") + " --from 0 --to 1"), 1);
  EXPECT_NE(capturedOutput().find("cannot plan"), std::string::npos)
      << capturedOutput();

  // --parent on the very first commit is meaningless.
  EXPECT_EQ(uccc("commit " + path("v1.mc") + " --store " + path("fresh") +
                 " --parent 0"),
            2);
  EXPECT_NE(capturedOutput().find("initial commit"), std::string::npos)
      << capturedOutput();

  // A corrupt manifest is reported, not crashed on.
  ASSERT_EQ(uccc("commit " + path("v1.mc") + " --store " + path("store")),
            0);
  writeFile("store/manifest.json", "{ broken");
  EXPECT_EQ(uccc("history --store " + path("store")), 1);
  EXPECT_NE(capturedOutput().find("cannot open version store"),
            std::string::npos)
      << capturedOutput();

  // Campaign argument validation: deployed list must match the topology.
  EXPECT_EQ(uccc("campaign --store " + path("store") +
                 " --target 0 --deployed 0,0 --topology line:5"),
            2);
  EXPECT_NE(capturedOutput().find("2 versions but the topology has 5"),
            std::string::npos)
      << capturedOutput();
}

TEST_F(ToolFixture, BatchPlanAndServeBenchFlow) {
  writeFile("v1.mc", SourceV1);
  writeFile("v2.mc", SourceV2);
  std::string Store = " --store " + path("store");
  ASSERT_EQ(uccc("commit " + path("v1.mc") + Store), 0) << capturedOutput();
  ASSERT_EQ(uccc("commit " + path("v2.mc") + Store), 0) << capturedOutput();
  ASSERT_EQ(uccc("commit " + path("v1.mc") + Store), 0) << capturedOutput();

  // Batch planning dedupes the repeated pair and reports one cache hit is
  // not needed: the duplicate never reaches the planner at all.
  ASSERT_EQ(uccc("plan" + Store + " --batch 0:2,1:2,0:2"), 0)
      << capturedOutput();
  EXPECT_NE(capturedOutput().find("3 request(s)"), std::string::npos)
      << capturedOutput();
  EXPECT_NE(capturedOutput().find("2 planned"), std::string::npos);
  EXPECT_NE(capturedOutput().find("1 deduped"), std::string::npos);

  // The serving benchmark runs against the same store and reports
  // throughput plus the service's cache accounting.
  ASSERT_EQ(uccc("serve-bench" + Store + " --requests 50 --warm"), 0)
      << capturedOutput();
  EXPECT_NE(capturedOutput().find("plans/sec"), std::string::npos)
      << capturedOutput();
  EXPECT_NE(capturedOutput().find("hits "), std::string::npos)
      << capturedOutput();
  EXPECT_NE(capturedOutput().find("misses "), std::string::npos);
}

TEST_F(ToolFixture, BatchPlanAndServeBenchDiagnostics) {
  writeFile("v1.mc", SourceV1);
  writeFile("v2.mc", SourceV2);
  std::string Store = " --store " + path("store");
  ASSERT_EQ(uccc("commit " + path("v1.mc") + Store), 0) << capturedOutput();

  // Usage errors (exit 2): malformed batch specs, mixing --batch with the
  // single-pair flags, and --cache outside batch mode.
  EXPECT_EQ(uccc("plan" + Store + " --batch 0:zz"), 2);
  EXPECT_NE(capturedOutput().find("--batch"), std::string::npos)
      << capturedOutput();
  EXPECT_EQ(uccc("plan" + Store + " --batch 0:1 --from 0"), 2);
  EXPECT_EQ(uccc("plan" + Store + " --cache 4 --from 0 --to 1"), 2);
  EXPECT_NE(capturedOutput().find("--cache requires --batch"),
            std::string::npos)
      << capturedOutput();
  EXPECT_EQ(uccc("serve-bench" + Store + " --requests -2"), 2);
  EXPECT_EQ(uccc("serve-bench" + Store + " --batch 0"), 2);
  EXPECT_NE(capturedOutput().find("--batch expects a positive integer"),
            std::string::npos)
      << capturedOutput();
  EXPECT_EQ(uccc("serve-bench --requests 50"), 2);
  EXPECT_NE(capturedOutput().find("requires --store"), std::string::npos)
      << capturedOutput();
  // The plan cache has one residency policy (LRU): no admission or TTL
  // flags.
  EXPECT_EQ(uccc("serve-bench" + Store + " --admission freq"), 2);
  EXPECT_NE(capturedOutput().find("unknown argument '--admission'"),
            std::string::npos)
      << capturedOutput();
  EXPECT_EQ(uccc("serve-bench" + Store + " --ttl 5"), 2);
  EXPECT_NE(capturedOutput().find("unknown argument '--ttl'"),
            std::string::npos)
      << capturedOutput();
  // Nor a metrics stream, SLO watch or live console: --trace-json,
  // --trace-events and --stats are the ways to observe a run.
  for (std::string Gone : {"--metrics", "--metrics-every", "--slo-p99-us",
                           "--flight-record"}) {
    EXPECT_EQ(uccc("serve-bench" + Store + " " + Gone + " 5"), 2) << Gone;
    EXPECT_NE(capturedOutput().find("unknown argument '" + Gone + "'"),
              std::string::npos)
        << capturedOutput();
  }
  EXPECT_EQ(uccc("monitor --metrics m.jsonl --once"), 2);
  EXPECT_NE(capturedOutput().find("unknown command 'monitor'"),
            std::string::npos)
      << capturedOutput();

  // Operational errors (exit 1): a store too small to serve from, and a
  // batch that names a version the store does not have.
  EXPECT_EQ(uccc("serve-bench" + Store), 1);
  EXPECT_NE(capturedOutput().find("at least two versions"), std::string::npos)
      << capturedOutput();
  EXPECT_EQ(uccc("plan" + Store + " --batch 0:9"), 1);
}

TEST_F(ToolFixture, ServeBenchHasNoShardFlag) {
  // The plan cache is one LRU under one lock, so there is no shard count
  // to choose: --shards is an unknown argument, a usage error.
  writeFile("v1.mc", SourceV1);
  writeFile("v2.mc", SourceV2);
  std::string Store = " --store " + path("store");
  ASSERT_EQ(uccc("commit " + path("v1.mc") + Store), 0) << capturedOutput();
  ASSERT_EQ(uccc("commit " + path("v2.mc") + Store), 0) << capturedOutput();
  EXPECT_EQ(uccc("serve-bench" + Store + " --requests 50 --shards 4"), 2);
  EXPECT_NE(capturedOutput().find("unknown argument '--shards'"),
            std::string::npos)
      << capturedOutput();
}

TEST_F(ToolFixture, ServeBenchTracedBatchCrossesWorkerTracks) {
  writeFile("v1.mc", SourceV1);
  writeFile("v2.mc", SourceV2);
  std::string Store = " --store " + path("store");
  // Six versions so each batch dedupes to several unique pairs and the
  // fan-out genuinely spreads across the pool.
  for (int K = 0; K < 6; ++K)
    ASSERT_EQ(uccc("commit " + path(K % 2 ? "v2.mc" : "v1.mc") + Store), 0)
        << capturedOutput();

  // The acceptance shape: a traced batched run whose per-request spans
  // ride flow arrows from the pipeline track onto worker tracks. Items
  // are handed out by an atomic counter, so a heavily loaded machine can
  // let the caller thread drain a whole batch before the spawned workers
  // are scheduled — retry a few independent runs before calling the
  // >=2-track assertion failed.
  std::string Trace = path("events.json");
  std::string Text;
  std::set<double> FlowStartIds, FlowEndIds, EndTids, WorkerLabelTids;
  bool SawBatchSpan = false, SawPlanTraceArg = false;
  for (int Attempt = 0; Attempt < 5 && EndTids.size() < 2; ++Attempt) {
    FlowStartIds.clear();
    FlowEndIds.clear();
    EndTids.clear();
    WorkerLabelTids.clear();
    SawBatchSpan = SawPlanTraceArg = false;
    ASSERT_EQ(uccc("serve-bench" + Store +
                   " --requests 64 --batch 16 --jobs 4 --trace-events " +
                   Trace),
              0)
        << capturedOutput();
    Text = readFile("events.json");
    auto Doc = testjson::parse(Text);
    ASSERT_TRUE(Doc.has_value());
    const testjson::Value *Events = Doc->get("traceEvents");
    ASSERT_NE(Events, nullptr);
    for (const auto &E : Events->Arr) {
      const std::string &Ph = E->get("ph")->Str;
      const std::string &Name = E->get("name")->Str;
      if (Ph == "s")
        FlowStartIds.insert(E->get("id")->Num);
      if (Ph == "f") {
        FlowEndIds.insert(E->get("id")->Num);
        EndTids.insert(E->get("tid")->Num);
      }
      if (Name == "serve.batch" && Ph == "B")
        SawBatchSpan = true;
      if (Name == "serve.plan" && Ph == "B") {
        const testjson::Value *Args = E->get("args");
        if (Args && Args->get("trace"))
          SawPlanTraceArg = true;
      }
      if (Name == "thread_name" && Ph == "M") {
        const testjson::Value *Args = E->get("args");
        const testjson::Value *Tid = E->get("tid");
        if (Tid && Args && Args->get("name") &&
            Args->get("name")->Str.rfind("worker ", 0) == 0)
          WorkerLabelTids.insert(Tid->Num);
      }
    }
  }
  EXPECT_TRUE(SawBatchSpan) << Text.substr(0, 2000);
  EXPECT_TRUE(SawPlanTraceArg)
      << "per-request spans must carry the batch's trace id";
  EXPECT_FALSE(FlowStartIds.empty());
  EXPECT_EQ(FlowStartIds, FlowEndIds) << "every fan-out arrow must land";
  EXPECT_GE(EndTids.size(), 2u)
      << "64 requests over 4 workers must span >=2 worker tracks";
  // Which workers claim items is pure scheduling (under TSan the spawned
  // threads can drain a whole batch before the caller's own Work() call
  // gets a turn), so assert the labeling contract itself: every track a
  // fan-out arrow landed on carries a "worker N" thread_name row.
  for (double Tid : EndTids)
    EXPECT_TRUE(WorkerLabelTids.count(Tid))
        << "worker track " << Tid << " must be labeled for Perfetto";
}

TEST_F(ToolFixture, IntegerFlagsRejectOutOfRangeValues) {
  // 2^32 + 1 would wrap to 1 if narrowed to int: a usage error instead,
  // checked before the store is opened.
  EXPECT_EQ(uccc("serve-bench --store " + path("s") +
                 " --requests 4294967297"),
            2);
  EXPECT_NE(capturedOutput().find("--requests expects an integer, got "
                                  "'4294967297'"),
            std::string::npos)
      << capturedOutput();
  EXPECT_EQ(uccc("plan --store " + path("s") + " --from -4294967296 --to 1"),
            2);
  EXPECT_NE(capturedOutput().find("--from expects an integer"),
            std::string::npos)
      << capturedOutput();
}

TEST_F(ToolFixture, NumberFlagsRejectNonFiniteValues) {
  // strtod reads nan and inf; as knob values they would skew the request
  // stream, the allocator's cost model or the radio channel, so they are
  // usage errors, checked before the store is opened.
  std::string Store = " --store " + path("s");
  for (std::string Bad : {"nan", "inf", "infinity", "NAN"}) {
    EXPECT_EQ(uccc("serve-bench" + Store + " --zipf " + Bad), 2) << Bad;
    EXPECT_NE(capturedOutput().find("--zipf expects a number, got '" + Bad +
                                    "'"),
              std::string::npos)
        << capturedOutput();
  }
  writeFile("v1.mc", SourceV1);
  EXPECT_EQ(uccc("commit " + path("v1.mc") + Store + " --cnt nan"), 2);
  EXPECT_NE(capturedOutput().find("--cnt expects a number"),
            std::string::npos)
      << capturedOutput();
  EXPECT_EQ(uccc("campaign" + Store + " --target 1 --deployed 0 --loss inf"),
            2);
  EXPECT_NE(capturedOutput().find("--loss expects a number"),
            std::string::npos)
      << capturedOutput();
}

} // namespace
