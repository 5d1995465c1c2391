//===- tools/uccc.cpp - the update-conscious compiler driver --------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end over the library — the sink-side toolchain of
/// the paper's Fig. 1 and the sensor-side patcher of Fig. 2 as one binary:
///
///   uccc compile  app.mc -o app.img --record app.rec [--dis]
///   uccc update   app_v2.mc --record app.rec --image app.img
///                 -o app_v2.img --new-record app_v2.rec
///                 --script update.pkg [--baseline] [--cnt N] [--spacet N]
///   uccc patch    app.img update.pkg -o patched.img
///   uccc run      app.img [--steps N] [--sensor 1,2,3] [--profile]
///   uccc dis      app.img
///   uccc diff     old.img new.img
///
/// and the stateful sink workflow over an on-disk version store:
///
///   uccc commit   app_vN.mc --store dir [--parent K] [--baseline] ...
///   uccc history  --store dir
///   uccc plan     --store dir --from K --to N [-o update.pkg]
///   uccc plan     --store dir --batch F:T,F:T,... [--cache N]
///   uccc campaign --store dir --target N --deployed v,v,...
///                 [--topology line:40|grid:8x5|star:20] [--loss p]
///                 [--seed N]
///
/// The batch and campaign paths go through serve/PlanService: one store
/// open, one service, every request against the same snapshot and cache.
///
/// Every command additionally accepts `--trace-json <file>` (write the
/// telemetry registry as JSON, schema in docs/OBSERVABILITY.md),
/// `--trace-events <file>` (write a Chrome trace-event JSON file of the
/// structured event timeline — load it in Perfetto / chrome://tracing) and
/// `--stats` (print a human-readable telemetry summary after the command).
///
/// Exit codes: 0 success, 1 operational failure (bad input file, failed
/// compile, a campaign that left nodes incomplete), 2 command-line usage
/// error (unknown flag/command, missing option value, malformed number).
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/VersionStore.h"
#include "net/EventSim.h"
#include "net/Network.h"
#include "serve/PlanService.h"
#include "sim/Simulator.h"
#include "support/Format.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

using namespace ucc;

namespace {

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "uccc: %s\n", Message.c_str());
  std::exit(1);
}

/// Usage errors (malformed command line, as opposed to bad input files)
/// exit with 2, like usage() itself.
[[noreturn]] void dieCli(const std::string &Message) {
  std::fprintf(stderr, "uccc: %s\n", Message.c_str());
  std::fprintf(stderr, "uccc: run 'uccc' without arguments for usage\n");
  std::exit(2);
}

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  uccc compile <src> -o <img> [--record <rec>] [--dis]\n"
      "  uccc update  <src> --record <rec> --image <img> -o <img>\n"
      "               [--new-record <rec>] [--script <pkg>]\n"
      "               [--baseline] [--cnt <n>] [--spacet <n>] [--k <n>]\n"
      "               [--strategy greedy|hybrid]\n"
      "               [--ilp-max-binaries <n>]\n"
      "  uccc patch   <img> <pkg> -o <img>\n"
      "  uccc run     <img> [--steps <n>] [--sensor v,v,...] [--profile]\n"
      "  uccc dis     <img>\n"
      "  uccc diff    <old-img> <new-img>\n"
      "  uccc commit  <src> --store <dir> [--parent <id>] [-o <img>]\n"
      "               [--record <rec>] [--baseline] [--cnt <n>]\n"
      "               [--spacet <n>] [--k <n>]\n"
      "               [--strategy greedy|hybrid]\n"
      "               [--ilp-max-binaries <n>]\n"
      "  uccc history --store <dir>\n"
      "  uccc plan    --store <dir> --from <id> --to <id> [-o <pkg>]\n"
      "  uccc plan    --store <dir> --batch <f>:<t>,<f>:<t>,...\n"
      "               [--cache <n>] [--jobs <n>]\n"
      "  uccc campaign --store <dir> --target <id> --deployed v,v,...\n"
      "               [--topology line:<n>|grid:<w>x<h>|star:<n>]\n"
      "               [--loss <p>] [--seed <n>]\n"
      "global flags (any command):\n"
      "  --jobs <n>            worker threads for parallel phases\n"
      "                        (default: hardware concurrency, or the\n"
      "                        UCC_JOBS environment variable; output is\n"
      "                        bit-identical for every value)\n"
      "  --trace-json <file>   write the telemetry trace as JSON\n"
      "  --trace-events <file> write a Chrome trace-event JSON timeline\n"
      "  --stats               print a telemetry summary to stdout\n");
  std::exit(2);
}

/// Strict integer parse: the whole string must be a number that fits in
/// an int.
int parseInt(const std::string &Text, const char *What) {
  char *End = nullptr;
  long long V = std::strtoll(Text.c_str(), &End, 10); // saturates
  if (Text.empty() || *End != '\0' || V < INT_MIN || V > INT_MAX)
    dieCli(format("%s expects an integer, got '%s'", What, Text.c_str()));
  return static_cast<int>(V);
}

/// Strict number parse: the whole string must be a finite number (no
/// `nan`, no `inf`).
double parseDouble(const std::string &Text, const char *What) {
  char *End = nullptr;
  double V = std::strtod(Text.c_str(), &End);
  if (Text.empty() || *End != '\0' || !std::isfinite(V))
    dieCli(format("%s expects a number, got '%s'", What, Text.c_str()));
  return V;
}

std::string readTextFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot open '" + Path + "'");
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

std::vector<uint8_t> readBinaryFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot open '" + Path + "'");
  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  return Bytes;
}

void writeBinaryFile(const std::string &Path,
                     const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    die("cannot write '" + Path + "'");
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

BinaryImage loadImage(const std::string &Path) {
  BinaryImage Img;
  if (!BinaryImage::deserialize(readBinaryFile(Path), Img))
    die("'" + Path + "' is not a valid SAVR image");
  return Img;
}

CompilationRecord loadRecord(const std::string &Path) {
  CompilationRecord Rec;
  if (!CompilationRecord::deserialize(readBinaryFile(Path), Rec))
    die("'" + Path + "' is not a valid compilation record");
  return Rec;
}

/// Simple flag cursor over argv. Commands pull their flags and
/// positionals, then call finish(), which rejects anything left over —
/// so a typoed flag is an error rather than silently ignored.
class Args {
public:
  Args(int Argc, char **Argv)
      : Argv(Argv), Argc(Argc),
        Consumed(static_cast<size_t>(Argc), false) {}

  /// Next positional argument, or empty when none remain.
  std::string positional() {
    for (int K = Pos; K < Argc; ++K) {
      if (Argv[K][0] != '-' && !Consumed[static_cast<size_t>(K)]) {
        Consumed[static_cast<size_t>(K)] = true;
        Pos = K + 1;
        return Argv[K];
      }
      if (Argv[K][0] == '-' && flagTakesValue(Argv[K]))
        ++K; // skip the flag's value
    }
    return "";
  }

  bool flag(const char *Name) {
    for (int K = 0; K < Argc; ++K)
      if (std::strcmp(Argv[K], Name) == 0) {
        Consumed[static_cast<size_t>(K)] = true;
        return true;
      }
    return false;
  }

  std::string option(const char *Name, const std::string &Default = "") {
    for (int K = 0; K < Argc; ++K)
      if (std::strcmp(Argv[K], Name) == 0) {
        if (K + 1 >= Argc)
          dieCli(format("option '%s' expects a value", Name));
        Consumed[static_cast<size_t>(K)] = true;
        Consumed[static_cast<size_t>(K + 1)] = true;
        return Argv[K + 1];
      }
    return Default;
  }

  /// Rejects every argument no command consumed: unknown flags, stray
  /// positionals, values of unrecognized options.
  void finish() const {
    for (int K = 0; K < Argc; ++K)
      if (!Consumed[static_cast<size_t>(K)])
        dieCli(format("unknown argument '%s'", Argv[K]));
  }

private:
  static bool flagTakesValue(const char *Flag) {
    static const char *WithValue[] = {"-o",         "--record",
                                      "--image",     "--new-record",
                                      "--script",    "--cnt",
                                      "--spacet",    "--k",
                                      "--steps",     "--sensor",
                                      "--strategy",  "--trace-json",
                                      "--trace-events",
                                      "--ilp-max-binaries",
                                      "--jobs",      "--store",
                                      "--parent",    "--from",
                                      "--to",        "--target",
                                      "--deployed",  "--topology",
                                      "--loss",      "--seed",
                                      "--batch",     "--cache"};
    for (const char *F : WithValue)
      if (std::strcmp(Flag, F) == 0)
        return true;
    return false;
  }

  char **Argv;
  int Argc;
  int Pos = 0;
  std::vector<bool> Consumed;
};

void reportDiagnostics(const DiagnosticEngine &Diag) {
  std::fprintf(stderr, "%s", Diag.str().c_str());
}

/// The UCC-vs-baseline knobs shared by `update` and `commit`.
CompileOptions parseCompileKnobs(Args &A) {
  CompileOptions Opts;
  if (!A.flag("--baseline")) {
    Opts.RA = RegAllocKind::UpdateConscious;
    Opts.DA = DataAllocKind::UpdateConscious;
  }
  std::string Cnt = A.option("--cnt");
  if (!Cnt.empty())
    Opts.Ucc.Cnt = parseDouble(Cnt, "--cnt");
  std::string SpaceT = A.option("--spacet");
  if (!SpaceT.empty())
    Opts.UccDa.SpaceT = parseInt(SpaceT, "--spacet");
  std::string K = A.option("--k");
  if (!K.empty())
    Opts.Ucc.ChunkK = parseInt(K, "--k");
  std::string Strategy = A.option("--strategy");
  if (Strategy == "greedy")
    Opts.Ucc.Strategy = UccStrategy::Greedy;
  else if (Strategy == "hybrid")
    Opts.Ucc.Strategy = UccStrategy::Hybrid;
  else if (!Strategy.empty())
    dieCli("unknown --strategy '" + Strategy + "'");
  std::string IlpBudget = A.option("--ilp-max-binaries");
  if (!IlpBudget.empty())
    Opts.Ucc.IlpMaxBinaries = parseInt(IlpBudget, "--ilp-max-binaries");
  return Opts;
}

VersionStore openStoreOrDie(const std::string &Dir) {
  DiagnosticEngine Diag;
  auto Store = VersionStore::open(Dir, Diag);
  if (!Store) {
    reportDiagnostics(Diag);
    die("cannot open version store '" + Dir + "'");
  }
  return std::move(*Store);
}

/// Pulls --store for a store-backed command. Every such command parses and
/// validates its whole command line first (usage errors exit 2 before any
/// store I/O), then opens the manifest exactly once via openStoreOrDie and
/// threads that one store through the rest of the command — a batch of
/// plans shares a single PlanService over it rather than re-opening per
/// request.
std::string storeDirArg(Args &A) {
  std::string StoreDir = A.option("--store");
  if (StoreDir.empty())
    dieCli("this command requires --store <dir>");
  return StoreDir;
}

int cmdCompile(Args &A) {
  std::string Src = A.positional();
  std::string OutPath = A.option("-o");
  std::string RecPath = A.option("--record");
  bool Dis = A.flag("--dis");
  if (Src.empty() || OutPath.empty())
    usage();
  A.finish();

  DiagnosticEngine Diag;
  auto Out = Compiler::compile(readTextFile(Src), CompileOptions(), Diag);
  if (!Out) {
    reportDiagnostics(Diag);
    return 1;
  }
  writeBinaryFile(OutPath, Out->Image.serialize());
  if (!RecPath.empty())
    writeBinaryFile(RecPath, Out->Record.serialize());
  if (Dis)
    std::printf("%s", Out->Image.disassemble().c_str());
  std::printf("compiled %s: %zu instructions, %zu data words -> %s\n",
              Src.c_str(), Out->Image.Code.size(),
              Out->Image.DataInit.size(), OutPath.c_str());
  return 0;
}

int cmdUpdate(Args &A) {
  std::string Src = A.positional();
  std::string RecPath = A.option("--record");
  std::string ImgPath = A.option("--image");
  std::string OutPath = A.option("-o");
  std::string NewRecPath = A.option("--new-record");
  std::string ScriptPath = A.option("--script");
  CompileOptions Opts = parseCompileKnobs(A);
  if (Src.empty() || RecPath.empty() || ImgPath.empty() || OutPath.empty())
    usage();
  A.finish();

  CompilationRecord OldRec = loadRecord(RecPath);
  BinaryImage OldImg = loadImage(ImgPath);

  // Route the recompile through a function-level compile cache so --stats
  // surfaces the compile.cache_* counters (results are byte-identical).
  CompileCache FnCache;
  Opts.Cache = &FnCache;

  DiagnosticEngine Diag;
  auto Out = Compiler::recompile(readTextFile(Src), OldRec, Opts, Diag);
  if (!Out) {
    reportDiagnostics(Diag);
    return 1;
  }
  writeBinaryFile(OutPath, Out->Image.serialize());
  if (!NewRecPath.empty())
    writeBinaryFile(NewRecPath, Out->Record.serialize());

  ImageUpdate Update = makeImageUpdate(OldImg, Out->Image);
  ImageDiff Diff = diffImages(OldImg, Out->Image, Update);
  if (!ScriptPath.empty())
    writeBinaryFile(ScriptPath, Update.serialize());

  std::printf("update: Diff_inst=%d (%d instructions reused), script=%zu "
              "bytes, full image=%zu bytes\n",
              Diff.totalDiffInst(), Diff.totalMatched(),
              Update.scriptBytes(), Out->Image.transmitBytes());
  for (const FunctionDiff &F : Diff.Functions)
    if (F.diffInst() != 0 || F.NewCount == 0)
      std::printf("  %-20s old=%-4d new=%-4d reused=%-4d ship=%d\n",
                  F.Name.c_str(), F.OldCount, F.NewCount, F.Matched,
                  F.diffInst());
  return 0;
}

int cmdPatch(Args &A) {
  std::string ImgPath = A.positional();
  std::string PkgPath = A.positional();
  std::string OutPath = A.option("-o");
  if (ImgPath.empty() || PkgPath.empty() || OutPath.empty())
    usage();
  A.finish();

  BinaryImage Old = loadImage(ImgPath);
  ImageUpdate Update;
  if (!ImageUpdate::deserialize(readBinaryFile(PkgPath), Update))
    die("'" + PkgPath + "' is not a valid update package");

  BinaryImage New;
  if (!applyUpdate(Old, Update, New))
    die("update package does not apply to this image");
  writeBinaryFile(OutPath, New.serialize());
  std::printf("patched %s (+%zu bytes of script) -> %s\n", ImgPath.c_str(),
              Update.scriptBytes(), OutPath.c_str());
  return 0;
}

int cmdRun(Args &A) {
  std::string ImgPath = A.positional();
  std::string Steps = A.option("--steps");
  std::string Sensor = A.option("--sensor");
  bool Profile = A.flag("--profile");
  if (ImgPath.empty())
    usage();
  A.finish();

  // Validate the whole command line before touching the image file.
  SimOptions Opts;
  if (!Steps.empty())
    Opts.MaxSteps = static_cast<uint64_t>(parseInt(Steps, "--steps"));
  for (size_t At = 0; At < Sensor.size();) {
    size_t Comma = Sensor.find(',', At);
    if (Comma == std::string::npos)
      Comma = Sensor.size();
    Opts.SensorInput.push_back(static_cast<int16_t>(
        parseInt(Sensor.substr(At, Comma - At), "--sensor")));
    At = Comma + 1;
  }
  Opts.CollectProfile = Profile;

  BinaryImage Img = loadImage(ImgPath);

  RunResult R = runImage(Img, Opts);
  if (R.Trapped) {
    std::printf("TRAP after %llu steps: %s\n",
                static_cast<unsigned long long>(R.Steps),
                R.TrapReason.c_str());
    return 1;
  }
  std::printf("halted after %llu steps, %llu cycles\n",
              static_cast<unsigned long long>(R.Steps),
              static_cast<unsigned long long>(R.Cycles));
  auto printTrace = [](const char *Name,
                       const std::vector<int16_t> &Trace) {
    if (Trace.empty())
      return;
    std::printf("%s:", Name);
    for (int16_t V : Trace)
      std::printf(" %d", V);
    std::printf("\n");
  };
  printTrace("led", R.LedTrace);
  printTrace("debug", R.DebugTrace);
  for (size_t K = 0; K < R.Packets.size(); ++K)
    printTrace(format("packet[%zu]", K).c_str(), R.Packets[K]);
  if (Opts.CollectProfile) {
    std::printf("hottest instructions:\n");
    for (int Shown = 0; Shown < 5; ++Shown) {
      size_t Best = 0;
      for (size_t K = 1; K < R.InstrCounts.size(); ++K)
        if (R.InstrCounts[K] > R.InstrCounts[Best])
          Best = K;
      if (R.InstrCounts[Best] == 0)
        break;
      std::printf("  %5zu: %-24s x%llu\n", Best,
                  disassembleInstr(Img.Code[Best]).c_str(),
                  static_cast<unsigned long long>(R.InstrCounts[Best]));
      R.InstrCounts[Best] = 0;
    }
  }
  return 0;
}

int cmdDis(Args &A) {
  std::string ImgPath = A.positional();
  if (ImgPath.empty())
    usage();
  A.finish();
  std::printf("%s", loadImage(ImgPath).disassemble().c_str());
  return 0;
}

int cmdDiff(Args &A) {
  std::string OldPath = A.positional();
  std::string NewPath = A.positional();
  if (OldPath.empty() || NewPath.empty())
    usage();
  A.finish();
  BinaryImage Old = loadImage(OldPath);
  BinaryImage New = loadImage(NewPath);
  ImageDiff D = diffImages(Old, New);
  std::printf("%-20s %6s %6s %7s %6s\n", "function", "old", "new",
              "reused", "ship");
  for (const FunctionDiff &F : D.Functions)
    std::printf("%-20s %6d %6d %7d %6d\n", F.Name.c_str(), F.OldCount,
                F.NewCount, F.Matched, F.diffInst());
  std::printf("total Diff_inst: %d (data words changed: %d)\n",
              D.totalDiffInst(), D.DataWordsChanged);
  return 0;
}

int cmdCommit(Args &A) {
  std::string Src = A.positional();
  std::string ParentArg = A.option("--parent");
  std::string OutPath = A.option("-o");
  std::string RecPath = A.option("--record");
  CompileOptions Opts = parseCompileKnobs(A);
  std::string StoreDir = storeDirArg(A);
  if (Src.empty())
    usage();
  A.finish();
  VersionStore Store = openStoreOrDie(StoreDir);

  std::string Source = readTextFile(Src);
  // Route the commit through a function-level compile cache so --stats
  // surfaces the compile.cache_* counters (results are byte-identical).
  CompileCache FnCache;
  Opts.Cache = &FnCache;
  DiagnosticEngine Diag;
  int Id;
  if (Store.size() == 0) {
    if (!ParentArg.empty())
      dieCli("--parent makes no sense for the initial commit");
    Id = Store.addInitial(Source, Opts, Diag);
  } else {
    int Parent = ParentArg.empty() ? -1 : parseInt(ParentArg, "--parent");
    Id = Store.addUpdate(Source, Opts, Diag, Parent);
  }
  if (Id < 0) {
    reportDiagnostics(Diag);
    return 1;
  }
  const StoredVersion *V = Store.find(Id);
  if (!OutPath.empty())
    writeBinaryFile(OutPath, V->Image.serialize());
  if (!RecPath.empty())
    writeBinaryFile(RecPath, V->Record.serialize());
  if (V->Parent < 0)
    std::printf("committed v%d (initial, %zu instructions) -> %s\n", V->Id,
                V->Image.Code.size(), Store.directory().c_str());
  else
    std::printf("committed v%d (parent v%d, script %zu bytes) -> %s\n",
                V->Id, V->Parent, V->FromParent.scriptBytes(),
                Store.directory().c_str());
  return 0;
}

int cmdHistory(Args &A) {
  std::string StoreDir = storeDirArg(A);
  A.finish();
  VersionStore Store = openStoreOrDie(StoreDir);
  std::printf("%-4s %-6s %-16s %10s %8s %8s\n", "id", "parent",
              "source-hash", "script", "code", "data");
  for (const auto &V : Store.versions()) {
    std::string Parent = V->Parent < 0 ? "-" : format("v%d", V->Parent);
    std::string Script =
        V->Parent < 0 ? "-" : format("%zu", V->FromParent.scriptBytes());
    std::printf("v%-3d %-6s %-16s %10s %8zu %8zu\n", V->Id, Parent.c_str(),
                V->SourceHash.c_str(), Script.c_str(), V->Image.Code.size(),
                V->Image.DataInit.size());
  }
  std::printf("%zu version(s)\n", Store.size());
  return 0;
}

/// Parses a --batch spec "f:t,f:t,..." into version-id pairs; any
/// malformed element is a usage error.
std::vector<std::pair<int, int>> parseBatchSpec(const std::string &Spec) {
  std::vector<std::pair<int, int>> Pairs;
  for (size_t At = 0; At < Spec.size();) {
    size_t Comma = Spec.find(',', At);
    if (Comma == std::string::npos)
      Comma = Spec.size();
    std::string Item = Spec.substr(At, Comma - At);
    size_t Colon = Item.find(':');
    if (Colon == std::string::npos)
      dieCli("--batch expects <from>:<to> pairs, got '" + Item + "'");
    Pairs.push_back({parseInt(Item.substr(0, Colon), "--batch <from>"),
                     parseInt(Item.substr(Colon + 1), "--batch <to>")});
    At = Comma + 1;
  }
  if (Pairs.empty())
    dieCli("--batch expects at least one <from>:<to> pair");
  return Pairs;
}

int cmdPlanBatch(const std::string &StoreDir,
                 const std::vector<std::pair<int, int>> &Pairs,
                 size_t Cache) {
  PlanServiceOptions ServeOpts;
  ServeOpts.CacheCapacity = Cache;
  PlanService Service(openStoreOrDie(StoreDir), ServeOpts);
  std::vector<std::shared_ptr<const UpdatePlan>> Plans =
      Service.planBatch(Pairs);

  int Failures = 0;
  std::printf("%-6s %-6s %-8s %10s %10s %10s\n", "from", "to", "route",
              "script", "direct", "chained");
  for (size_t I = 0; I < Pairs.size(); ++I) {
    if (!Plans[I]) {
      std::printf("v%-5d v%-5d %-8s %10s %10s %10s\n", Pairs[I].first,
                  Pairs[I].second, "-", "-", "-", "-");
      ++Failures;
      continue;
    }
    const UpdatePlan &P = *Plans[I];
    const char *Route =
        P.Route == UpdatePlan::RouteKind::Direct ? "direct" : "chained";
    std::string Chained =
        P.ChainSteps > 0 ? format("%zu", P.ChainedBytes) : "n/a";
    std::printf("v%-5d v%-5d %-8s %10zu %10zu %10s\n", P.From, P.To, Route,
                P.ScriptBytes, P.DirectBytes, Chained.c_str());
  }
  PlanServiceStats S = Service.stats();
  std::printf("%zu request(s), %llu planned, %llu deduped, %llu cache "
              "hit(s)\n",
              Pairs.size(),
              static_cast<unsigned long long>(S.Misses),
              static_cast<unsigned long long>(S.BatchDeduped),
              static_cast<unsigned long long>(S.Hits));
  if (Failures)
    die(format("%d of %zu batch request(s) could not be planned "
               "(unknown version?)",
               Failures, Pairs.size()));
  return 0;
}

int cmdPlan(Args &A) {
  std::string FromArg = A.option("--from");
  std::string ToArg = A.option("--to");
  std::string BatchArg = A.option("--batch");
  std::string CacheArg = A.option("--cache");
  std::string OutPath = A.option("-o");
  std::string StoreDir = storeDirArg(A);

  if (!BatchArg.empty()) {
    if (!FromArg.empty() || !ToArg.empty())
      dieCli("--batch cannot be combined with --from/--to");
    if (!OutPath.empty())
      dieCli("--batch does not write packages; drop -o");
    std::vector<std::pair<int, int>> Pairs = parseBatchSpec(BatchArg);
    size_t Cache = 256;
    if (!CacheArg.empty()) {
      int N = parseInt(CacheArg, "--cache");
      if (N < 0)
        dieCli("--cache expects a non-negative integer");
      Cache = static_cast<size_t>(N);
    }
    A.finish();
    return cmdPlanBatch(StoreDir, Pairs, Cache);
  }

  if (!CacheArg.empty())
    dieCli("--cache requires --batch");
  if (FromArg.empty() || ToArg.empty())
    dieCli("plan requires --from <id> and --to <id> (or --batch)");
  int From = parseInt(FromArg, "--from");
  int To = parseInt(ToArg, "--to");
  A.finish();
  VersionStore Store = openStoreOrDie(StoreDir);

  auto P = Store.plan(From, To);
  if (!P)
    die(format("cannot plan update v%d -> v%d (unknown version?)", From,
               To));
  if (!OutPath.empty())
    writeBinaryFile(OutPath, P->Update.serialize());
  const char *Route =
      P->Route == UpdatePlan::RouteKind::Direct ? "direct" : "chained";
  std::printf("plan v%d -> v%d: %s, %zu bytes\n", P->From, P->To, Route,
              P->ScriptBytes);
  std::printf("  direct diff:    %zu bytes\n", P->DirectBytes);
  if (P->ChainSteps > 0)
    std::printf("  composed route: %zu bytes (%d steps)\n",
                P->ChainedBytes, P->ChainSteps);
  else
    std::printf("  composed route: n/a (v%d and v%d share no graph path)\n",
                P->From, P->To);
  return 0;
}

/// Builds the --topology fleet: line:<n>, grid:<w>x<h> or star:<n>, or a
/// line of \p Deployed nodes when \p Spec is empty. Every dimension must
/// be positive and the node count, taken in 64 bits, must equal
/// \p Deployed, all checked before any Topology is built.
Topology parseTopology(const std::string &Spec, size_t Deployed) {
  if (Spec.empty())
    return Topology::line(static_cast<int>(Deployed));
  std::string Kind = Spec.substr(0, Spec.find(':'));
  std::string Dims =
      Kind.size() < Spec.size() ? Spec.substr(Kind.size() + 1) : "";
  int W = 0, H = 1;
  if (Kind == "line") {
    W = parseInt(Dims, "--topology line:<n>");
  } else if (Kind == "star") {
    W = parseInt(Dims, "--topology star:<n>");
  } else if (Kind == "grid") {
    size_t X = Dims.find('x');
    if (X == std::string::npos)
      dieCli("--topology grid expects grid:<w>x<h>");
    W = parseInt(Dims.substr(0, X), "--topology grid:<w>");
    H = parseInt(Dims.substr(X + 1), "--topology grid:<h>");
  } else {
    dieCli("unknown --topology '" + Spec +
           "' (expected line:<n>, grid:<w>x<h> or star:<n>)");
  }
  if (W <= 0 || H <= 0)
    dieCli("--topology '" + Spec + "' needs positive dimensions");
  int64_t Nodes = static_cast<int64_t>(W) * H;
  if (Nodes != static_cast<int64_t>(Deployed))
    dieCli(format("--deployed lists %zu versions but the topology has %lld "
                  "nodes",
                  Deployed, static_cast<long long>(Nodes)));
  if (Kind == "grid")
    return Topology::grid(W, H);
  return Kind == "line" ? Topology::line(W) : Topology::star(W);
}

int cmdCampaign(Args &A) {
  std::string TargetArg = A.option("--target");
  std::string Deployed = A.option("--deployed");
  std::string TopoArg = A.option("--topology");
  std::string LossArg = A.option("--loss");
  std::string SeedArg = A.option("--seed");
  std::string StoreDir = storeDirArg(A);
  if (TargetArg.empty() || Deployed.empty())
    dieCli("campaign requires --target <id> and --deployed v,v,...");
  int Target = parseInt(TargetArg, "--target");
  A.finish();

  std::vector<int> NodeVersions;
  for (size_t At = 0; At < Deployed.size();) {
    size_t Comma = Deployed.find(',', At);
    if (Comma == std::string::npos)
      Comma = Deployed.size();
    NodeVersions.push_back(
        parseInt(Deployed.substr(At, Comma - At), "--deployed"));
    At = Comma + 1;
  }
  Topology T = parseTopology(TopoArg, NodeVersions.size());

  FleetConfig Cfg;
  if (!LossArg.empty())
    Cfg.Link.LossRate = parseDouble(LossArg, "--loss");
  if (!SeedArg.empty())
    Cfg.Seed = static_cast<uint64_t>(parseInt(SeedArg, "--seed"));

  // Campaigns run through the serving layer: one store open, one service,
  // so repeated cohort pairs (and repeated campaigns in one process) plan
  // once. Plans are byte-identical to the store-backed path.
  PlanService Service(openStoreOrDie(StoreDir));
  DiagnosticEngine Diag;
  auto R = planFleetCampaign(Service, T, NodeVersions, Target, Diag, Cfg);
  if (!R) {
    reportDiagnostics(Diag);
    return 1;
  }
  std::printf("campaign to v%d: %d node(s) updated, %d already current\n",
              R->TargetVersion, R->NodesUpdated, R->NodesCurrent);
  int IncompleteCohorts = 0;
  for (const UpdateCohort &C : R->Cohorts) {
    const EnergyLedger &E = C.Flood.Energy;
    std::printf("  cohort v%-3d %3zu node(s)  script %6zu bytes  "
                "%4d packets  %.6f J  (tx %.6f, rx %.6f, listen %.6f, "
                "sleep %.6f J)\n",
                C.FromVersion, C.Nodes.size(), C.ScriptBytes,
                C.Flood.Packets, C.Flood.totalJoules(), E.TxJoules,
                E.RxJoules, E.ListenJoules, E.SleepJoules);
    if (C.Flood.NodesIncomplete > 0) {
      std::printf("    %d node(s) incomplete\n", C.Flood.NodesIncomplete);
      ++IncompleteCohorts;
    }
  }
  std::printf("total: %zu bytes on air, %.6f J\n", R->totalBytesOnAir(),
              R->totalJoules());
  if (IncompleteCohorts > 0) {
    std::fprintf(stderr, "uccc: %d cohort flood(s) left nodes incomplete\n",
                 IncompleteCohorts);
    return 1;
  }
  return 0;
}

/// Prints a human-readable telemetry summary (the --stats flag).
void printStats(const Telemetry &T) {
  std::printf("--- telemetry ---\n");
  struct Walker {
    static void walk(const TelemetrySpan &Span, int Depth) {
      std::printf("%*s%-*s %9.3f ms  x%lld\n", Depth * 2, "",
                  24 - Depth * 2, Span.Name.c_str(), Span.Seconds * 1e3,
                  static_cast<long long>(Span.Count));
      for (const auto &Child : Span.Children)
        walk(*Child, Depth + 1);
    }
  };
  for (const auto &Child : T.spans().Children)
    Walker::walk(*Child, 0);
  for (const auto &[Name, Value] : T.counters())
    if (Value != 0)
      std::printf("%-32s %lld\n", Name.c_str(),
                  static_cast<long long>(Value));
  for (const auto &[Name, Value] : T.gauges())
    std::printf("%-32s %g\n", Name.c_str(), Value);

  // One-line incremental-recompilation summary (core/CompileCache),
  // printed only when a compile cache actually ran this command.
  long long CacheHits = 0, CacheMisses = 0, CacheEvictions = 0;
  for (const auto &[Name, Value] : T.counters()) {
    if (Name == "compile.cache_hits")
      CacheHits = static_cast<long long>(Value);
    else if (Name == "compile.cache_misses")
      CacheMisses = static_cast<long long>(Value);
    else if (Name == "compile.cache_evictions")
      CacheEvictions = static_cast<long long>(Value);
  }
  double ArenaBytes = 0.0;
  for (const auto &[Name, Value] : T.gauges())
    if (Name == "compile.arena_bytes")
      ArenaBytes = Value;
  if (CacheHits + CacheMisses > 0)
    std::printf("compile cache: %lld hit(s), %lld miss(es), %lld "
                "eviction(s), arena %.0f bytes\n",
                CacheHits, CacheMisses, CacheEvictions, ArenaBytes);
}

int dispatch(const std::string &Cmd, Args &A) {
  if (Cmd == "compile")
    return cmdCompile(A);
  if (Cmd == "update")
    return cmdUpdate(A);
  if (Cmd == "patch")
    return cmdPatch(A);
  if (Cmd == "run")
    return cmdRun(A);
  if (Cmd == "dis")
    return cmdDis(A);
  if (Cmd == "diff")
    return cmdDiff(A);
  if (Cmd == "commit")
    return cmdCommit(A);
  if (Cmd == "history")
    return cmdHistory(A);
  if (Cmd == "plan")
    return cmdPlan(A);
  if (Cmd == "campaign")
    return cmdCampaign(A);
  dieCli("unknown command '" + Cmd + "'");
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    usage();
  std::string Cmd = Argv[1];
  Args A(Argc - 2, Argv + 2);

  std::string TracePath = A.option("--trace-json");
  std::string EventsPath = A.option("--trace-events");
  bool WantStats = A.flag("--stats");
  std::string JobsArg = A.option("--jobs");
  if (!JobsArg.empty()) {
    int Jobs = parseInt(JobsArg, "--jobs");
    if (Jobs <= 0)
      dieCli("--jobs expects a positive integer");
    ThreadPool::setDefaultJobs(Jobs);
  }

  if (TracePath.empty() && EventsPath.empty() && !WantStats)
    return dispatch(Cmd, A);

  // Telemetry session around the whole command. The standard counters are
  // pre-declared so the documented schema keys appear in the output even
  // when their code path never ran (e.g. lp.* under the greedy strategy).
  Telemetry T;
  T.declareStandardCounters();
  if (!EventsPath.empty())
    T.enableEvents();
  int Rc;
  {
    TelemetryScope Scope(T);
    Rc = dispatch(Cmd, A);
  }
  if (!TracePath.empty()) {
    std::ofstream Out(TracePath, std::ios::trunc);
    if (!Out)
      die("cannot write '" + TracePath + "'");
    Out << T.toJson() << "\n";
  }
  if (!EventsPath.empty()) {
    std::ofstream Out(EventsPath, std::ios::trunc);
    if (!Out)
      die("cannot write '" + EventsPath + "'");
    Out << T.toChromeTrace() << "\n";
  }
  if (WantStats)
    printStats(T);
  return Rc;
}
