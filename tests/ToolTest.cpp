//===- tests/ToolTest.cpp - the uccc CLI end to end -----------------------===//
//
// Shells out to the real `uccc` binary (path injected by CMake) and walks
// the full sink-to-sensor flow on disk: compile, update, patch, run, diff.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

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
  auto CompileDoc = ucc::json::parse(readFile("compile.json"));
  ASSERT_TRUE(CompileDoc.has_value()) << readFile("compile.json");
  ASSERT_EQ(CompileDoc->find("version")->Num, 1.0);
  const ucc::json::Value *Spans = CompileDoc->find("spans");
  ASSERT_NE(Spans, nullptr);
  ASSERT_EQ(Spans->Arr.size(), 1u);
  const ucc::json::Value &Compile = Spans->Arr[0];
  EXPECT_EQ(Compile.find("name")->Str, "compile");
  const ucc::json::Value *Children = Compile.find("children");
  ASSERT_NE(Children, nullptr);
  for (const char *Phase : {"parse", "opt", "isel", "ra", "da", "encode"}) {
    bool Found = false;
    for (const auto &C : Children->Arr)
      Found |= C.find("name")->Str == Phase;
    EXPECT_TRUE(Found) << "missing phase span: " << Phase;
  }

  // The update trace: "recompile" + "diff" spans, the declared solver
  // counters (zero here — greedy strategy), and edit-script byte counts.
  auto UpdateDoc = ucc::json::parse(readFile("update.json"));
  ASSERT_TRUE(UpdateDoc.has_value()) << readFile("update.json");
  const ucc::json::Value *USpans = UpdateDoc->find("spans");
  ASSERT_NE(USpans, nullptr);
  bool SawRecompile = false, SawDiff = false;
  for (const auto &S : USpans->Arr) {
    SawRecompile |= S.find("name")->Str == "recompile";
    SawDiff |= S.find("name")->Str == "diff";
  }
  EXPECT_TRUE(SawRecompile);
  EXPECT_TRUE(SawDiff);

  const ucc::json::Value *Counters = UpdateDoc->find("counters");
  ASSERT_NE(Counters, nullptr);
  for (const char *Key :
       {"lp.pivots", "lp.bb_nodes", "ra.pref_honored", "ra.pref_broken",
        "diff.script_bytes", "diff.bytes.insert", "diff.bytes.replace"})
    EXPECT_NE(Counters->find(Key), nullptr) << "missing counter: " << Key;
  EXPECT_GT(Counters->find("diff.script_bytes")->Num, 0.0);
  EXPECT_GT(Counters->find("ra.pref_honored")->Num, 0.0);

  // The diff trace: the images are diffed by building the update package,
  // so its "diff" span and edit-script bytes are recorded.
  ASSERT_EQ(uccc("diff " + path("v1.img") + " " + path("v2.img") +
                 " --trace-json " + path("diff.json")),
            0)
      << capturedOutput();
  auto DiffDoc = ucc::json::parse(readFile("diff.json"));
  ASSERT_TRUE(DiffDoc.has_value()) << readFile("diff.json");
  const ucc::json::Value *DSpans = DiffDoc->find("spans");
  ASSERT_NE(DSpans, nullptr);
  ASSERT_EQ(DSpans->Arr.size(), 1u);
  EXPECT_EQ(DSpans->Arr[0].find("name")->Str, "diff");
  const ucc::json::Value *DCounters = DiffDoc->find("counters");
  ASSERT_NE(DCounters, nullptr);
  ASSERT_NE(DCounters->find("diff.script_bytes"), nullptr);
  EXPECT_GT(DCounters->find("diff.script_bytes")->Num, 0.0);

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

  auto Doc = ucc::json::parse(readFile("ilp.json"));
  ASSERT_TRUE(Doc.has_value()) << readFile("ilp.json");
  const ucc::json::Value *Counters = Doc->find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_GT(Counters->find("ra.ilp_windows")->Num, 0.0);
  EXPECT_GT(Counters->find("lp.ilp_solves")->Num, 0.0);
  EXPECT_GT(Counters->find("lp.bb_nodes")->Num, 0.0);
  EXPECT_GT(Counters->find("lp.pivots")->Num, 0.0);
  const ucc::json::Value *Gauges = Doc->find("gauges");
  ASSERT_NE(Gauges, nullptr);
  EXPECT_NE(Gauges->find("lp.ilp_seconds"), nullptr);
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
  // Each cohort line splits its joules over the radio states.
  for (const char *Column : {"(tx ", ", rx ", ", listen ", ", sleep "})
    EXPECT_NE(capturedOutput().find(Column), std::string::npos)
        << Column << "\n"
        << capturedOutput();
  EXPECT_EQ(capturedOutput().find("incomplete"), std::string::npos)
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

  // Non-positive dimensions and node counts past the int range are
  // rejected before any topology is built: no abort, no wrapped count.
  std::string Campaign =
      "campaign --store " + path("store") + " --target 0 --deployed 0,0";
  for (const char *Bad : {"line:-1", "star:-2"}) {
    EXPECT_EQ(uccc(Campaign + " --topology " + Bad), 2) << Bad;
    EXPECT_NE(capturedOutput().find("needs positive dimensions"),
              std::string::npos)
        << capturedOutput();
  }
  EXPECT_EQ(uccc(Campaign + " --topology grid:50000x50000"), 2);
  EXPECT_NE(capturedOutput().find("the topology has 2500000000 nodes"),
            std::string::npos)
      << capturedOutput();
  EXPECT_EQ(uccc(Campaign + " --topology grid:65536x65536"), 2);
  EXPECT_NE(capturedOutput().find("the topology has 4294967296 nodes"),
            std::string::npos)
      << capturedOutput();
}

TEST_F(ToolFixture, BatchPlanFlow) {
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
}

TEST_F(ToolFixture, BatchPlanDiagnostics) {
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
  EXPECT_EQ(uccc("plan --batch 0:1"), 2);
  EXPECT_NE(capturedOutput().find("requires --store"), std::string::npos)
      << capturedOutput();
  // The plan cache is one LRU under one lock: no shard count, admission
  // or TTL flags. Nor a metrics stream or SLO watch: --trace-json,
  // --trace-events and --stats are the ways to observe a run.
  for (std::string Gone : {"--shards", "--admission", "--ttl", "--metrics",
                           "--metrics-every", "--slo-p99-us",
                           "--flight-record"}) {
    EXPECT_EQ(uccc("plan" + Store + " --batch 0:0 " + Gone + " 5"), 2) << Gone;
    EXPECT_NE(capturedOutput().find("unknown argument '" + Gone + "'"),
              std::string::npos)
        << capturedOutput();
  }
  // uccc has no load generator or live console: serving load is
  // perfbench's plan-storm.
  for (std::string Gone : {"serve-bench", "monitor"}) {
    EXPECT_EQ(uccc(Gone + Store), 2) << Gone;
    EXPECT_NE(capturedOutput().find("unknown command '" + Gone + "'"),
              std::string::npos)
        << capturedOutput();
  }

  // Operational error (exit 1): a batch that names a version the store
  // does not have.
  EXPECT_EQ(uccc("plan" + Store + " --batch 0:9"), 1);
}

TEST_F(ToolFixture, BatchPlanTracedCrossesWorkerTracks) {
  writeFile("v1.mc", SourceV1);
  writeFile("v2.mc", SourceV2);
  std::string Store = " --store " + path("store");
  // Six versions, so the batch holds 30 distinct pairs and the fan-out
  // genuinely spreads across the pool.
  for (int K = 0; K < 6; ++K)
    ASSERT_EQ(uccc("commit " + path(K % 2 ? "v2.mc" : "v1.mc") + Store), 0)
        << capturedOutput();
  std::string Batch;
  for (int From = 0; From < 6; ++From)
    for (int To = 0; To < 6; ++To)
      if (From != To)
        Batch += std::to_string(From) + ":" + std::to_string(To) + ",";
  Batch.pop_back();

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
    ASSERT_EQ(uccc("plan" + Store + " --batch " + Batch +
                   " --jobs 4 --trace-events " + Trace),
              0)
        << capturedOutput();
    Text = readFile("events.json");
    auto Doc = ucc::json::parse(Text);
    ASSERT_TRUE(Doc.has_value());
    const ucc::json::Value *Events = Doc->find("traceEvents");
    ASSERT_NE(Events, nullptr);
    for (const auto &E : Events->Arr) {
      const std::string &Ph = E.find("ph")->Str;
      const std::string &Name = E.find("name")->Str;
      if (Ph == "s")
        FlowStartIds.insert(E.find("id")->Num);
      if (Ph == "f") {
        FlowEndIds.insert(E.find("id")->Num);
        EndTids.insert(E.find("tid")->Num);
      }
      if (Name == "serve.batch" && Ph == "B")
        SawBatchSpan = true;
      if (Name == "serve.plan" && Ph == "B") {
        const ucc::json::Value *Args = E.find("args");
        if (Args && Args->find("trace"))
          SawPlanTraceArg = true;
      }
      if (Name == "thread_name" && Ph == "M") {
        const ucc::json::Value *Args = E.find("args");
        const ucc::json::Value *Tid = E.find("tid");
        if (Tid && Args && Args->find("name") &&
            Args->find("name")->Str.rfind("worker ", 0) == 0)
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
      << "30 pairs over 4 workers must span >=2 worker tracks";
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
  EXPECT_EQ(uccc("plan --store " + path("s") +
                 " --batch 0:1 --cache 4294967297"),
            2);
  EXPECT_NE(capturedOutput().find("--cache expects an integer, got "
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
  // strtod reads nan and inf; as knob values they would skew the
  // allocator's cost model or the radio channel, so they are usage errors,
  // checked before the store is opened.
  std::string Store = " --store " + path("s");
  std::string Campaign = "campaign" + Store + " --target 1 --deployed 0";
  for (std::string Bad : {"nan", "inf", "infinity", "NAN"}) {
    EXPECT_EQ(uccc(Campaign + " --loss " + Bad), 2) << Bad;
    EXPECT_NE(capturedOutput().find("--loss expects a number, got '" + Bad +
                                    "'"),
              std::string::npos)
        << capturedOutput();
  }
  writeFile("v1.mc", SourceV1);
  EXPECT_EQ(uccc("commit " + path("v1.mc") + Store + " --cnt nan"), 2);
  EXPECT_NE(capturedOutput().find("--cnt expects a number"),
            std::string::npos)
      << capturedOutput();
}

} // namespace
