//===- tests/SerializationTest.cpp - wire-format robustness ---------------===//
//
// Images, compilation records and update packages travel as bytes (disk,
// radio). Besides round-tripping, every format must reject corruption and
// truncation instead of crashing the "sensor".
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "support/RNG.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ucc;

namespace {

CompileOutput mustCompile(const std::string &Source) {
  DiagnosticEngine Diag;
  auto Out = Compiler::compile(Source, CompileOptions(), Diag);
  EXPECT_TRUE(Out.has_value()) << Diag.str();
  return std::move(*Out);
}

TEST(Serialization, UpdatePackageRoundTrip) {
  const UpdateCase &Case = updateCases()[7];
  CompileOutput V1 = mustCompile(Case.OldSource);
  DiagnosticEngine Diag;
  CompileOptions Opts;
  Opts.RA = RegAllocKind::UpdateConscious;
  Opts.DA = DataAllocKind::UpdateConscious;
  auto V2 = Compiler::recompile(Case.NewSource, V1.Record, Opts, Diag);
  ASSERT_TRUE(V2.has_value()) << Diag.str();

  ImageUpdate Update = makeImageUpdate(V1.Image, V2->Image);
  std::vector<uint8_t> Bytes = Update.serialize();

  ImageUpdate Back;
  ASSERT_TRUE(ImageUpdate::deserialize(Bytes, Back));
  BinaryImage PatchedA, PatchedB;
  ASSERT_TRUE(applyUpdate(V1.Image, Update, PatchedA));
  ASSERT_TRUE(applyUpdate(V1.Image, Back, PatchedB));
  EXPECT_EQ(PatchedA.Code, PatchedB.Code);
  EXPECT_EQ(PatchedA.Code, V2->Image.Code);
}

TEST(Serialization, UpdatePackageRejectsTruncation) {
  CompileOutput V1 = mustCompile(workloadSource("Blink"));
  ImageUpdate Update = makeImageUpdate(V1.Image, V1.Image);
  std::vector<uint8_t> Bytes = Update.serialize();
  for (size_t Cut : {size_t(1), Bytes.size() / 2, Bytes.size() - 1}) {
    std::vector<uint8_t> Trunc(Bytes.begin(),
                               Bytes.begin() + static_cast<long>(Cut));
    ImageUpdate Back;
    EXPECT_FALSE(ImageUpdate::deserialize(Trunc, Back))
        << "accepted a package truncated to " << Cut << " bytes";
  }
}

TEST(Serialization, UpdatePackageRejectsBadMagic) {
  CompileOutput V1 = mustCompile(workloadSource("Blink"));
  std::vector<uint8_t> Bytes = makeImageUpdate(V1.Image, V1.Image)
                                   .serialize();
  Bytes[0] ^= 0xff;
  ImageUpdate Back;
  EXPECT_FALSE(ImageUpdate::deserialize(Bytes, Back));
}

TEST(Serialization, ImageRejectsTruncation) {
  CompileOutput Out = mustCompile(workloadSource("CntToLeds"));
  std::vector<uint8_t> Bytes = Out.Image.serialize();
  std::vector<uint8_t> Trunc(Bytes.begin(),
                             Bytes.begin() +
                                 static_cast<long>(Bytes.size() / 3));
  BinaryImage Back;
  EXPECT_FALSE(BinaryImage::deserialize(Trunc, Back));
}

TEST(Serialization, ImageRejectsTrailingGarbage) {
  CompileOutput Out = mustCompile(workloadSource("Blink"));
  std::vector<uint8_t> Bytes = Out.Image.serialize();
  Bytes.push_back(0x5a);
  BinaryImage Back;
  EXPECT_FALSE(BinaryImage::deserialize(Bytes, Back));
}

TEST(Serialization, RecordRejectsTruncation) {
  CompileOutput Out = mustCompile(workloadSource("CntToRfm"));
  std::vector<uint8_t> Bytes = Out.Record.serialize();
  std::vector<uint8_t> Trunc(Bytes.begin(),
                             Bytes.begin() +
                                 static_cast<long>(Bytes.size() - 7));
  CompilationRecord Back;
  EXPECT_FALSE(CompilationRecord::deserialize(Trunc, Back));
}

TEST(Serialization, RecordSurvivesFullRoundTripAndStillCompiles) {
  // The record must be as good as the in-memory one: recompiling against
  // the deserialized record reproduces the identical image.
  const UpdateCase &Case = updateCases()[5];
  CompileOutput V1 = mustCompile(Case.OldSource);
  std::vector<uint8_t> Bytes = V1.Record.serialize();
  CompilationRecord Back;
  ASSERT_TRUE(CompilationRecord::deserialize(Bytes, Back));

  CompileOptions Opts;
  Opts.RA = RegAllocKind::UpdateConscious;
  Opts.DA = DataAllocKind::UpdateConscious;
  DiagnosticEngine Diag;
  auto FromMem = Compiler::recompile(Case.NewSource, V1.Record, Opts, Diag);
  auto FromDisk = Compiler::recompile(Case.NewSource, Back, Opts, Diag);
  ASSERT_TRUE(FromMem.has_value() && FromDisk.has_value()) << Diag.str();
  EXPECT_EQ(FromMem->Image.Code, FromDisk->Image.Code);
  EXPECT_EQ(FromMem->Image.DataInit, FromDisk->Image.DataInit);
}

TEST(Serialization, RecordRejectsEveryTruncation) {
  // No proper prefix of a record may parse: the format embeds its element
  // counts, so running out of bytes mid-structure must latch an error.
  CompileOutput Out = mustCompile(workloadSource("Blink"));
  std::vector<uint8_t> Bytes = Out.Record.serialize();
  for (size_t Cut = 0; Cut < Bytes.size(); ++Cut) {
    std::vector<uint8_t> Trunc(Bytes.begin(),
                               Bytes.begin() + static_cast<long>(Cut));
    CompilationRecord Back;
    EXPECT_FALSE(CompilationRecord::deserialize(Trunc, Back))
        << "accepted a record truncated to " << Cut << " of "
        << Bytes.size() << " bytes";
  }
}

TEST(Serialization, RecordBitFlipFuzzNeverCrashes) {
  // Single-bit corruption anywhere in the record must either be rejected
  // or decode to *some* record — never crash or read out of bounds. Most
  // flips land in counts, opcodes or sizes and are caught by the semantic
  // validation; flips inside name bytes or operand values legitimately
  // survive.
  CompileOutput Out = mustCompile(workloadSource("CntToLedsAndRfm"));
  std::vector<uint8_t> Bytes = Out.Record.serialize();
  RNG Rng(7);
  int Rejected = 0;
  const int Trials = 500;
  for (int Trial = 0; Trial < Trials; ++Trial) {
    std::vector<uint8_t> Flipped = Bytes;
    size_t Byte = Rng.below(static_cast<uint32_t>(Flipped.size()));
    Flipped[Byte] ^= static_cast<uint8_t>(1u << Rng.below(8));
    CompilationRecord Back;
    if (!CompilationRecord::deserialize(Flipped, Back))
      ++Rejected;
  }
  // The validation must actually bite: a decoder that swallowed every
  // flip would be accepting corrupt opcodes and counts.
  EXPECT_GT(Rejected, 0);
}

TEST(Serialization, RecordRoundTripsFieldForField) {
  // A record keeps no state its bytes lack: for an initial compile and a
  // UCC-RA/UCC-DA recompile (frame offsets, spill slots, a non-empty old
  // layout), deserialize(serialize(R)) equals R in every field, machine
  // code included.
  const UpdateCase &Case = updateCases()[7];
  CompileOutput V1 = mustCompile(Case.OldSource);
  CompileOptions Opts;
  Opts.RA = RegAllocKind::UpdateConscious;
  Opts.DA = DataAllocKind::UpdateConscious;
  DiagnosticEngine Diag;
  auto V2 = Compiler::recompile(Case.NewSource, V1.Record, Opts, Diag);
  ASSERT_TRUE(V2.has_value()) << Diag.str();
  for (const CompilationRecord *R : {&V1.Record, &V2->Record}) {
    ASSERT_GT(R->FinalCode.size(), 1u);
    ASSERT_FALSE(R->GlobalLayout.Entries.empty());
    CompilationRecord Back;
    ASSERT_TRUE(CompilationRecord::deserialize(R->serialize(), Back));
    EXPECT_TRUE(Back == *R);
    for (size_t F = 0; F < R->FinalCode.size(); ++F) {
      EXPECT_TRUE(*Back.FinalCode[F] == *R->FinalCode[F])
          << R->FunctionNames[F];
      EXPECT_TRUE(R->FinalCode[F]->VRegNames.empty())
          << "a stored function keeps no register-allocation scratch";
    }
  }

  // Equality reads the machine code, not just the tables around it.
  CompilationRecord Edited = V2->Record;
  MachineFunction MF = *Edited.FinalCode.back();
  ASSERT_FALSE(MF.Blocks.empty() || MF.Blocks[0].Instrs.empty());
  ++MF.Blocks[0].Instrs[0].IRIndex;
  Edited.FinalCode.back() =
      std::make_shared<const MachineFunction>(std::move(MF));
  EXPECT_FALSE(Edited == V2->Record);
}

TEST(Serialization, RecordRejectsCorruptOpcode) {
  CompileOutput Out = mustCompile(workloadSource("Blink"));
  CompilationRecord Rec = Out.Record;
  ASSERT_FALSE(Rec.FinalCode.empty());
  MachineFunction MF = *Rec.FinalCode[0];
  ASSERT_FALSE(MF.Blocks.empty());
  ASSERT_FALSE(MF.Blocks[0].Instrs.empty());
  MF.Blocks[0].Instrs[0].Op = static_cast<MOp>(0xee);
  Rec.FinalCode[0] = std::make_shared<const MachineFunction>(std::move(MF));
  CompilationRecord Back;
  EXPECT_FALSE(CompilationRecord::deserialize(Rec.serialize(), Back));
}

TEST(Serialization, RecordRejectsOutOfRangeSuccessor) {
  CompileOutput Out = mustCompile(workloadSource("Blink"));
  CompilationRecord Rec = Out.Record;
  ASSERT_FALSE(Rec.FinalCode.empty());
  MachineFunction MF = *Rec.FinalCode[0];
  ASSERT_FALSE(MF.Blocks.empty());
  MF.Blocks[0].Succs.push_back(9999);
  Rec.FinalCode[0] = std::make_shared<const MachineFunction>(std::move(MF));
  CompilationRecord Back;
  EXPECT_FALSE(CompilationRecord::deserialize(Rec.serialize(), Back));
}

TEST(Serialization, RecordRejectsMismatchedTables) {
  // FinalCode and FrameOffsets must stay parallel to FunctionNames — the
  // compiler indexes one by the other.
  CompileOutput Out = mustCompile(workloadSource("Blink"));
  CompilationRecord Rec = Out.Record;
  Rec.FunctionNames.push_back("phantom");
  CompilationRecord Back;
  EXPECT_FALSE(CompilationRecord::deserialize(Rec.serialize(), Back));
}

TEST(Serialization, RandomGarbageNeverCrashesTheDecoders) {
  RNG Rng(2024);
  for (int Trial = 0; Trial < 200; ++Trial) {
    std::vector<uint8_t> Garbage(Rng.below(300));
    for (uint8_t &B : Garbage)
      B = static_cast<uint8_t>(Rng.below(256));
    BinaryImage Img;
    BinaryImage::deserialize(Garbage, Img);
    CompilationRecord Rec;
    CompilationRecord::deserialize(Garbage, Rec);
    ImageUpdate Update;
    ImageUpdate::deserialize(Garbage, Update);
    // Reaching here without crashing is the assertion.
  }
  SUCCEED();
}

} // namespace
