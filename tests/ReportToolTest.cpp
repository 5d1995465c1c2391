//===- tests/ReportToolTest.cpp - the ucc-report CLI end to end -----------===//
//
// Shells out to the real `ucc-report` binary (path injected by CMake) and
// exercises the aggregation/regression pipeline on disk: ingest synthetic
// bench reports, aggregate to BENCH.json, seed a baseline, then inject a
// regression and assert the non-zero exit plus the markdown diff. One test
// drives run mode over fake bench scripts, one of which fails after
// writing its report; another runs a real bench binary
// (`bench_fig03_power_model --report-json`) to pin the producer side of
// the contract.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

namespace {

#ifndef UCC_REPORT_PATH
#define UCC_REPORT_PATH "ucc-report"
#endif
#ifndef UCC_BENCH_FIG03_PATH
#define UCC_BENCH_FIG03_PATH "bench_fig03_power_model"
#endif

class ReportFixture : public ::testing::Test {
protected:
  void SetUp() override {
    char Template[] = "/tmp/ucc-report-test-XXXXXX";
    ASSERT_NE(mkdtemp(Template), nullptr);
    Dir = Template;
  }

  void TearDown() override { std::system(("rm -rf " + Dir).c_str()); }

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

  /// Runs `ucc-report <ArgsLine>`; output goes to a capture file.
  int uccReport(const std::string &ArgsLine) const {
    std::string Cmd = std::string(UCC_REPORT_PATH) + " " + ArgsLine +
                      " > " + path("out.txt") + " 2> " + path("err.txt");
    int Status = std::system(Cmd.c_str());
    return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  }

  /// Two synthetic bench report documents (the producer schema of
  /// docs/OBSERVABILITY.md) standing in for real bench runs.
  void writeSyntheticReports(double DiffInstUcc = 79.0) const {
    char Buf[512];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\"schema_version\":1,\"bench\":\"fig10_dissemination\","
        "\"profile\":\"full\",\"metrics\":{"
        "\"diff_inst_gcc_total\":183,\"diff_inst_ucc_total\":%g,"
        "\"total_solve_seconds\":0.25}}\n",
        DiffInstUcc);
    writeFile("fig10.json", Buf);
    writeFile("fig15.json",
              "{\"schema_version\":1,\"bench\":\"fig15_solve_time\","
              "\"profile\":\"full\",\"metrics\":{"
              "\"pivots_total\":1200}}\n");
  }

  std::string Dir;
};

TEST_F(ReportFixture, AggregatesReportsIntoBenchJson) {
  writeSyntheticReports();
  ASSERT_EQ(uccReport(path("fig10.json") + " " + path("fig15.json") +
                      " --out " + path("BENCH.json")),
            0)
      << readFile("err.txt");
  auto Doc = ucc::json::parse(readFile("BENCH.json"));
  ASSERT_TRUE(Doc.has_value()) << readFile("BENCH.json");
  EXPECT_EQ(Doc->find("schema_version")->Num, 1.0);
  EXPECT_EQ(Doc->find("tool")->Str, "ucc-report");
  EXPECT_EQ(Doc->find("profile")->Str, "full");
  const ucc::json::Value *Benches = Doc->find("benches");
  ASSERT_NE(Benches, nullptr);
  const ucc::json::Value *Fig10 = Benches->find("fig10_dissemination");
  ASSERT_NE(Fig10, nullptr);
  EXPECT_EQ(Fig10->find("metrics")->find("diff_inst_ucc_total")->Num, 79.0);
  ASSERT_NE(Benches->find("fig15_solve_time"), nullptr);
}

TEST_F(ReportFixture, RoundTripThroughBaselinePasses) {
  writeSyntheticReports();
  std::string Reports = path("fig10.json") + " " + path("fig15.json");
  ASSERT_EQ(uccReport(Reports + " --baseline " + path("baseline.json") +
                      " --update-baseline"),
            0)
      << readFile("err.txt");
  // The same run against the freshly seeded baseline must pass.
  EXPECT_EQ(uccReport(Reports + " --baseline " + path("baseline.json") +
                      " --report " + path("report.md")),
            0)
      << readFile("err.txt");
  std::string Md = readFile("report.md");
  EXPECT_NE(Md.find("Verdict: PASS"), std::string::npos) << Md;
  EXPECT_NE(Md.find("fig10_dissemination"), std::string::npos);
}

TEST_F(ReportFixture, InjectedRegressionFailsWithMarkdownDiff) {
  writeSyntheticReports();
  std::string Reports = path("fig10.json") + " " + path("fig15.json");
  ASSERT_EQ(uccReport(Reports + " --baseline " + path("baseline.json") +
                      " --update-baseline"),
            0);
  // Regress one metric by ~27% — far beyond the default tolerance.
  writeSyntheticReports(/*DiffInstUcc=*/100.0);
  EXPECT_EQ(uccReport(Reports + " --baseline " + path("baseline.json") +
                      " --report " + path("report.md")),
            1)
      << readFile("err.txt");
  std::string Md = readFile("report.md");
  EXPECT_NE(Md.find("REGRESSED"), std::string::npos) << Md;
  EXPECT_NE(Md.find("Verdict: FAIL"), std::string::npos);
  // The diff row names the metric with both values.
  EXPECT_NE(Md.find("diff_inst_ucc_total"), std::string::npos);
  EXPECT_NE(Md.find("| 79 | 100 |"), std::string::npos) << Md;
  // The untouched metric still passes.
  EXPECT_NE(Md.find("| diff_inst_gcc_total | 183 | 183 |"),
            std::string::npos)
      << Md;
}

TEST_F(ReportFixture, TopMoversDigestRanksByPercentDelta) {
  writeSyntheticReports();
  std::string Reports = path("fig10.json") + " " + path("fig15.json");
  ASSERT_EQ(uccReport(Reports + " --baseline " + path("baseline.json") +
                      " --update-baseline"),
            0);
  // Move two metrics by different magnitudes: the digest must lead with
  // the larger mover and print signed percent deltas.
  writeFile("fig10.json",
            "{\"schema_version\":1,\"bench\":\"fig10_dissemination\","
            "\"profile\":\"full\",\"metrics\":{"
            "\"diff_inst_gcc_total\":183,\"diff_inst_ucc_total\":100,"
            "\"total_solve_seconds\":0.25}}\n");
  writeFile("fig15.json",
            "{\"schema_version\":1,\"bench\":\"fig15_solve_time\","
            "\"profile\":\"full\",\"metrics\":{"
            "\"pivots_total\":1230}}\n");
  EXPECT_EQ(uccReport(Reports + " --baseline " + path("baseline.json") +
                      " --report " + path("report.md")),
            1);
  std::string Md = readFile("report.md");
  size_t Begin = Md.find("## Top movers");
  ASSERT_NE(Begin, std::string::npos) << Md;
  size_t End = Md.find("\n## ", Begin);
  std::string Section = End == std::string::npos
                            ? Md.substr(Begin)
                            : Md.substr(Begin, End - Begin);
  // 79 -> 100 is +26.6%; 1200 -> 1230 is +2.5%. Rank order and signs.
  size_t Big = Section.find("+26.6%");
  size_t Small = Section.find("+2.5%");
  ASSERT_NE(Big, std::string::npos) << Section;
  ASSERT_NE(Small, std::string::npos) << Section;
  EXPECT_LT(Big, Small) << "largest |delta| first";
  // Unchanged metrics stay out of the digest.
  EXPECT_EQ(Section.find("diff_inst_gcc_total"), std::string::npos)
      << Section;
}

TEST_F(ReportFixture, SecondsSuffixIsGatedLikeAnyMetric) {
  writeSyntheticReports();
  std::string Reports = path("fig10.json") + " " + path("fig15.json");
  ASSERT_EQ(uccReport(Reports + " --baseline " + path("baseline.json") +
                      " --update-baseline"),
            0);
  // No name suffix exempts a metric: a `_seconds` value that moves is a
  // regression like any other, and the report never skips a row.
  writeFile("fig10.json",
            "{\"schema_version\":1,\"bench\":\"fig10_dissemination\","
            "\"profile\":\"full\",\"metrics\":{"
            "\"diff_inst_gcc_total\":183,\"diff_inst_ucc_total\":79,"
            "\"total_solve_seconds\":99.0}}\n");
  EXPECT_EQ(uccReport(Reports + " --baseline " + path("baseline.json") +
                      " --report " + path("report.md")),
            1)
      << readFile("err.txt");
  std::string Md = readFile("report.md");
  EXPECT_NE(Md.find("| total_solve_seconds | 0.25 | 99 |"), std::string::npos)
      << Md;
  EXPECT_EQ(Md.find("skipped"), std::string::npos) << Md;
}

TEST_F(ReportFixture, VanishedMetricIsARegression) {
  writeSyntheticReports();
  std::string Reports = path("fig10.json") + " " + path("fig15.json");
  ASSERT_EQ(uccReport(Reports + " --baseline " + path("baseline.json") +
                      " --update-baseline"),
            0);
  writeFile("fig15.json",
            "{\"schema_version\":1,\"bench\":\"fig15_solve_time\","
            "\"profile\":\"full\",\"metrics\":{}}\n");
  EXPECT_EQ(uccReport(Reports + " --baseline " + path("baseline.json") +
                      " --report " + path("report.md")),
            1);
  EXPECT_NE(readFile("report.md").find("MISSING"), std::string::npos);
}

TEST_F(ReportFixture, PerMetricToleranceOverridesApply) {
  writeSyntheticReports();
  std::string Reports = path("fig10.json") + " " + path("fig15.json");
  ASSERT_EQ(uccReport(Reports + " --baseline " + path("baseline.json") +
                      " --update-baseline"),
            0);
  // Widen the tolerance for the metric we are about to move: with a 50%
  // band the 27% change must pass.
  std::string Baseline = readFile("baseline.json");
  size_t At = Baseline.find("\"metrics\": {}");
  ASSERT_NE(At, std::string::npos) << Baseline;
  Baseline.replace(At, std::strlen("\"metrics\": {}"),
                   "\"metrics\": {\"fig10_dissemination.diff_inst_ucc_"
                   "total\": {\"pct\": 50}}");
  writeFile("baseline.json", Baseline);
  writeSyntheticReports(/*DiffInstUcc=*/100.0);
  EXPECT_EQ(uccReport(Reports + " --baseline " + path("baseline.json")),
            0)
      << readFile("err.txt");
}

TEST_F(ReportFixture, MalformedReportIsAUsageError) {
  writeFile("bad.json", "{\"schema_version\":1}");
  EXPECT_EQ(uccReport(path("bad.json") + " --out " + path("BENCH.json")),
            2);
}

TEST_F(ReportFixture, RunModeComparesEveryBenchThatWroteAReport) {
  // Run mode with a bench that writes its report and then exits 1 (a
  // failed self-check), placed before a bench that must still run and
  // be compared. The benches missing from the directory exit
  // non-zero without a report. The run exits 2 and names every failure.
  ASSERT_EQ(std::system(("mkdir -p " + path("benches")).c_str()), 0);
  auto fakeBench = [&](const std::string &Name, int Value, int Exit) {
    std::string Script = "#!/bin/sh\nprintf '{\"schema_version\":1,"
                         "\"bench\":\"" +
                         Name + "\",\"metrics\":{\"value\":" +
                         std::to_string(Value) + "}}' > \"$2\"\nexit " +
                         std::to_string(Exit) + "\n";
    writeFile("benches/bench_" + Name, Script);
    std::system(("chmod +x " + path("benches/bench_" + Name)).c_str());
  };
  fakeBench("plan_service", 1, 1);
  fakeBench("compile_commits", 2, 0); // regressed against the baseline
  writeFile("baseline.json",
            "{\"schema_version\":1,\"profiles\":{\"full\":{\"benches\":{"
            "\"plan_service\":{\"metrics\":{\"value\":1}},"
            "\"compile_commits\":{\"metrics\":{\"value\":1}}}}}}\n");

  EXPECT_EQ(uccReport("--bench-dir " + path("benches") + " --baseline " +
                      path("baseline.json") + " --report " +
                      path("report.md")),
            2);
  std::string Err = readFile("err.txt");
  EXPECT_NE(Err.find("bench_plan_service (exit status 1)"),
            std::string::npos)
      << Err;
  EXPECT_NE(Err.find("bench_fig03_power_model (exit status 127)"),
            std::string::npos)
      << Err;
  EXPECT_NE(Err.find("REGRESSION compile_commits.value"),
            std::string::npos)
      << "benches after the failed one are still compared\n"
      << Err;
  std::string Md = readFile("report.md");
  EXPECT_NE(Md.find("## plan_service"), std::string::npos) << Md;
  EXPECT_NE(Md.find("## compile_commits"), std::string::npos) << Md;
  EXPECT_NE(Md.find("Bench exited non-zero:** bench_plan_service"),
            std::string::npos)
      << Md;

  // A failed run never rewrites the baseline.
  std::string Before = readFile("baseline.json");
  EXPECT_EQ(uccReport("--bench-dir " + path("benches") + " --baseline " +
                      path("baseline.json") + " --update-baseline"),
            2);
  EXPECT_EQ(readFile("baseline.json"), Before);
}

TEST_F(ReportFixture, RealBenchBinaryProducesIngestibleReport) {
  // The producer half of the contract: a real bench run writes a report
  // the aggregator accepts, and the aggregate carries its metrics.
  std::string Cmd = std::string(UCC_BENCH_FIG03_PATH) + " --report-json " +
                    path("fig03.json") + " > /dev/null 2>&1";
  ASSERT_EQ(WEXITSTATUS(std::system(Cmd.c_str())), 0);
  ASSERT_EQ(uccReport(path("fig03.json") + " --out " + path("BENCH.json")),
            0)
      << readFile("err.txt");
  auto Doc = ucc::json::parse(readFile("BENCH.json"));
  ASSERT_TRUE(Doc.has_value());
  const ucc::json::Value *Fig03 =
      Doc->find("benches")->find("fig03_power_model");
  ASSERT_NE(Fig03, nullptr);
  // The Mica2 constant the whole energy model hangs off.
  EXPECT_NEAR(Fig03->find("metrics")->find("energy_per_cycle_j")->Num,
              8.0e-3 * 3.0 / 7.3728e6, 1e-15);
}

} // namespace
