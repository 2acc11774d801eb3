//===- tests/support_test.cpp - support library unit tests -------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/AtomicFile.h"
#include "support/Error.h"
#include "support/FileLock.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include "TempDir.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

using namespace cuasmrl;

TEST(Rng, DeterministicForSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 2);
}

TEST(Rng, UniformIntInBounds) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversSupport) {
  Rng R(7);
  std::vector<int> Counts(8, 0);
  for (int I = 0; I < 8000; ++I)
    ++Counts[R.uniformInt(8)];
  for (int C : Counts)
    EXPECT_GT(C, 700); // ~1000 expected each.
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng R(3);
  for (int I = 0; I < 1000; ++I) {
    double X = R.uniformReal();
    EXPECT_GE(X, 0.0);
    EXPECT_LT(X, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng R(11);
  double Sum = 0, SumSq = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    double X = R.normal();
    Sum += X;
    SumSq += X * X;
  }
  double Mean = Sum / N;
  double Var = SumSq / N - Mean * Mean;
  EXPECT_NEAR(Mean, 0.0, 0.05);
  EXPECT_NEAR(Var, 1.0, 0.05);
}

TEST(Rng, UniformRangeInclusive) {
  Rng R(5);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t X = R.uniformRange(-3, 3);
    EXPECT_GE(X, -3);
    EXPECT_LE(X, 3);
    SawLo |= X == -3;
    SawHi |= X == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng R(13);
  std::vector<double> W = {0.0, 1.0, 3.0};
  std::vector<int> Counts(3, 0);
  for (int I = 0; I < 8000; ++I)
    ++Counts[R.categorical(W)];
  EXPECT_EQ(Counts[0], 0);
  EXPECT_GT(Counts[2], Counts[1] * 2);
}

TEST(Rng, ShufflePermutes) {
  Rng R(17);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Orig);
}

TEST(Rng, ForkIndependent) {
  Rng A(21);
  Rng B = A.fork();
  EXPECT_NE(A.next(), B.next());
}

TEST(StringUtils, SplitKeepsEmptyFields) {
  auto Parts = split("a::b:", ':');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[1], "");
  EXPECT_EQ(Parts[2], "b");
  EXPECT_EQ(Parts[3], "");
}

TEST(StringUtils, SplitWhitespaceDropsEmpty) {
  auto Parts = splitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "foo");
  EXPECT_EQ(Parts[2], "baz");
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(StringUtils, ParseIntDecimalAndHex) {
  EXPECT_EQ(parseInt("42").value(), 42);
  EXPECT_EQ(parseInt("-7").value(), -7);
  EXPECT_EQ(parseInt("0x1f").value(), 31);
  EXPECT_EQ(parseInt("-0x10").value(), -16);
  EXPECT_FALSE(parseInt("zebra").has_value());
  EXPECT_FALSE(parseInt("12x").has_value());
  EXPECT_FALSE(parseInt("").has_value());
}

TEST(StringUtils, ParseDouble) {
  EXPECT_DOUBLE_EQ(parseDouble("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(parseDouble("-2e3").value(), -2000.0);
  EXPECT_FALSE(parseDouble("abc").has_value());
}

TEST(StringUtils, JoinAndUpper) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(toUpper("ldg.e"), "LDG.E");
}

TEST(StringUtils, StartsEndsWith) {
  EXPECT_TRUE(startsWith("IMAD.WIDE", "IMAD"));
  EXPECT_FALSE(startsWith("IMAD", "IMAD.WIDE"));
  EXPECT_TRUE(endsWith("R12.reuse", ".reuse"));
}

TEST(Table, AlignedOutputHasHeaderAndRows) {
  Table T({"kernel", "speedup"});
  T.addRow({"softmax", "1.05"});
  T.addRow("rmsnorm", {1.10}, 2);
  std::ostringstream OS;
  T.print(OS);
  std::string S = OS.str();
  EXPECT_NE(S.find("kernel"), std::string::npos);
  EXPECT_NE(S.find("softmax"), std::string::npos);
  EXPECT_NE(S.find("1.10"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table T({"a", "b"});
  T.addRow({"1", "2"});
  std::ostringstream OS;
  T.printCsv(OS);
  EXPECT_EQ(OS.str(), "a,b\n1,2\n");
}

TEST(ErrorTy, ExpectedValueAndError) {
  Expected<int> Ok(5);
  ASSERT_TRUE(Ok.hasValue());
  EXPECT_EQ(*Ok, 5);

  Expected<int> Bad(Error("bad things", 3, 7));
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_EQ(Bad.error().message(), "bad things");
  EXPECT_NE(Bad.error().str().find("line 3"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  support::ThreadPool Pool(4);
  std::vector<std::atomic<int>> Counts(257);
  for (std::atomic<int> &C : Counts)
    C = 0;
  Pool.parallelFor(Counts.size(),
                   [&](size_t I) { Counts[I].fetch_add(1); });
  for (const std::atomic<int> &C : Counts)
    EXPECT_EQ(C.load(), 1);
}

TEST(ThreadPool, SubmitAndWaitDrains) {
  support::ThreadPool Pool(3);
  std::atomic<int> Done{0};
  for (int I = 0; I < 64; ++I)
    Pool.submit([&Done] { Done.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Done.load(), 64);
  // The pool is reusable after a drain.
  Pool.submit([&Done] { Done.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Done.load(), 65);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  support::ThreadPool Pool(2);
  std::atomic<int> Ran{0};
  EXPECT_THROW(Pool.parallelFor(16,
                                [&](size_t I) {
                                  Ran.fetch_add(1);
                                  if (I == 7)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // Every index still ran: one failure does not cancel the batch.
  EXPECT_EQ(Ran.load(), 16);
}

TEST(ThreadPool, DestructorJoinsOutstandingWork) {
  std::atomic<int> Done{0};
  {
    support::ThreadPool Pool(2);
    for (int I = 0; I < 32; ++I)
      Pool.submit([&Done] { Done.fetch_add(1); });
  } // Destructor must drain, then join.
  EXPECT_EQ(Done.load(), 32);
}

TEST(ThreadPool, ZeroThreadRequestClampsToOne) {
  support::ThreadPool Pool(0);
  EXPECT_EQ(Pool.threadCount(), 1u);
  std::atomic<int> Done{0};
  Pool.parallelFor(5, [&](size_t) { Done.fetch_add(1); });
  EXPECT_EQ(Done.load(), 5);
}

//===----------------------------------------------------------------------===//
// AtomicFile: write-sibling-then-rename persistence
//===----------------------------------------------------------------------===//

namespace {

std::string slurp(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  std::ostringstream SS;
  SS << IS.rdbuf();
  return SS.str();
}

} // namespace

TEST(AtomicFile, WritesAndOverwritesAtomically) {
  test::TempDir Tmp;
  const std::string &Dir = Tmp.path();
  std::string Path = Dir + "/blob.bin";
  ASSERT_TRUE(support::atomicWriteFile(Path, std::string("first")));
  EXPECT_EQ(slurp(Path), "first");
  // Last writer wins; no .tmp. sibling survives a completed write.
  ASSERT_TRUE(support::atomicWriteFile(Path, std::string("second")));
  EXPECT_EQ(slurp(Path), "second");
  unsigned NonTmp = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    EXPECT_EQ(E.path().filename().string().find(".tmp."),
              std::string::npos);
    ++NonTmp;
  }
  EXPECT_EQ(NonTmp, 1u);
}

TEST(AtomicFile, FailsCleanlyOnMissingDirectory) {
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("missing");
  // Nonexistent parent: the write must fail without creating anything.
  EXPECT_FALSE(support::atomicWriteFile(Dir + "/x.bin", std::string("v")));
  EXPECT_FALSE(std::filesystem::exists(Dir));
}

TEST(AtomicFile, SweepRemovesOnlyTmpOrphans) {
  test::TempDir Tmp;
  const std::string &Dir = Tmp.path();
  ASSERT_TRUE(support::atomicWriteFile(Dir + "/keep.bin",
                                       std::string("keep")));
  { std::ofstream(Dir + "/keep.bin.tmp.123.4") << "torn"; }
  { std::ofstream(Dir + "/other.tmp.9.9") << "torn"; }
  EXPECT_EQ(support::sweepOrphanTmpFiles(Dir), 2u);
  EXPECT_TRUE(std::filesystem::exists(Dir + "/keep.bin"));
  EXPECT_EQ(slurp(Dir + "/keep.bin"), "keep");
  EXPECT_EQ(support::sweepOrphanTmpFiles(Dir), 0u); // Idempotent.
  // A directory that never existed sweeps as zero, not an error.
  EXPECT_EQ(support::sweepOrphanTmpFiles(Dir + "/nope"), 0u);
}

//===----------------------------------------------------------------------===//
// readFile: the one whole-file read
//===----------------------------------------------------------------------===//

TEST(ReadFile, MissingPathReadsAsNothing) {
  test::TempDir Tmp;
  EXPECT_FALSE(support::readFile(Tmp.sub("absent")).has_value());
  EXPECT_FALSE(support::readFile(Tmp.sub("absent/deeper")).has_value());
}

TEST(ReadFile, EmptyFileReadsAsPresentAndEmpty) {
  test::TempDir Tmp;
  std::string Path = Tmp.sub("empty");
  { std::ofstream OS(Path); }
  std::optional<std::string> Bytes = support::readFile(Path);
  ASSERT_TRUE(Bytes.has_value());
  EXPECT_TRUE(Bytes->empty());
}

TEST(ReadFile, LargeFileComesBackByteExact) {
  // Over 1 MiB, every byte value (NULs included), a size that is no
  // multiple of any buffer or page size.
  test::TempDir Tmp;
  std::string Path = Tmp.sub("large.bin");
  std::string Want((1u << 20) + 4099, '\0');
  Rng R(17);
  for (char &C : Want)
    C = static_cast<char>(R.uniformInt(256));
  ASSERT_TRUE(support::atomicWriteFile(Path, Want));
  std::optional<std::string> Got = support::readFile(Path);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(Got->size(), Want.size());
  EXPECT_TRUE(*Got == Want); // Not EXPECT_EQ: a mismatch would print 1 MiB.
  EXPECT_TRUE(*Got == slurp(Path));
}

TEST(ReadFile, ReadsPastAStatSizeOfZero) {
  // Kernel pseudo-files report st_size 0 yet have contents: the buffer
  // must grow until EOF rather than trust the stat size.
  const std::string Path = "/proc/self/status";
  if (!std::filesystem::exists(Path))
    GTEST_SKIP() << "no " << Path << " on this system";
  std::optional<std::string> Got = support::readFile(Path);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(Got->rfind("Name:", 0), 0u);
  EXPECT_EQ(Got->back(), '\n');
}

TEST(ReadFile, DirectoryReadsAsNothing) {
  // A directory opens but cannot be read (EISDIR): nothing, like a
  // missing file, and never an exception.
  test::TempDir Tmp;
  EXPECT_FALSE(support::readFile(Tmp.path()).has_value());
}

//===----------------------------------------------------------------------===//
// FileLock: cross-process claim files
//===----------------------------------------------------------------------===//

TEST(FileLock, ClaimIsExclusiveUntilReleased) {
  test::TempDir Tmp;
  const std::string &Dir = Tmp.path();
  std::string Path = Dir + "/claims/key.lock";
  std::string A = support::FileLock::makeToken();
  std::string B = support::FileLock::makeToken();
  EXPECT_NE(A, B); // Same process, distinct claimants.

  // A wins the race; B cannot claim or release what A owns.
  EXPECT_TRUE(support::FileLock::tryClaim(Path, A));
  EXPECT_FALSE(support::FileLock::tryClaim(Path, B));
  EXPECT_EQ(support::FileLock::owner(Path).value_or(""), A);
  EXPECT_FALSE(support::FileLock::release(Path, B));
  EXPECT_TRUE(std::filesystem::exists(Path));

  EXPECT_TRUE(support::FileLock::release(Path, A));
  EXPECT_FALSE(std::filesystem::exists(Path));
  EXPECT_FALSE(support::FileLock::owner(Path).has_value());
  EXPECT_FALSE(support::FileLock::release(Path, A)); // Already gone.

  // Released path is claimable again.
  EXPECT_TRUE(support::FileLock::tryClaim(Path, B));
  EXPECT_TRUE(support::FileLock::release(Path, B));
}

TEST(FileLock, RefreshIsOwnershipChecked) {
  test::TempDir Tmp;
  const std::string &Dir = Tmp.path();
  std::string Path = Dir + "/key.lock";
  std::string A = support::FileLock::makeToken();
  std::string B = support::FileLock::makeToken();
  EXPECT_FALSE(support::FileLock::refresh(Path, A)); // No claim yet.
  ASSERT_TRUE(support::FileLock::tryClaim(Path, A));
  EXPECT_TRUE(support::FileLock::refresh(Path, A));
  EXPECT_FALSE(support::FileLock::refresh(Path, B)); // Not the owner.
  auto Age = support::FileLock::age(Path);
  ASSERT_TRUE(Age.has_value());
  EXPECT_GE(Age->count(), 0); // Clamped against clock skew.
}

TEST(FileLock, BreakStaleRemovesOnlyOldClaims) {
  test::TempDir Tmp;
  const std::string &Dir = Tmp.path();
  std::string Path = Dir + "/key.lock";
  std::string A = support::FileLock::makeToken();
  ASSERT_TRUE(support::FileLock::tryClaim(Path, A));

  // A fresh heartbeat survives a generous staleness budget.
  EXPECT_FALSE(support::FileLock::breakStale(
      Path, std::chrono::milliseconds(60000)));
  EXPECT_TRUE(std::filesystem::exists(Path));

  // Backdate the heartbeat past the budget: the claim is breakable,
  // and the late original owner can no longer refresh or release a
  // path someone else re-claimed.
  std::filesystem::last_write_time(
      Path, std::filesystem::file_time_type::clock::now() -
                std::chrono::seconds(120));
  ASSERT_TRUE(support::FileLock::age(Path).has_value());
  EXPECT_GE(support::FileLock::age(Path)->count(), 100000);
  EXPECT_TRUE(support::FileLock::breakStale(
      Path, std::chrono::milliseconds(60000)));
  EXPECT_FALSE(std::filesystem::exists(Path));
  EXPECT_FALSE(support::FileLock::breakStale(
      Path, std::chrono::milliseconds(60000))); // Nothing left to break.

  std::string B = support::FileLock::makeToken();
  ASSERT_TRUE(support::FileLock::tryClaim(Path, B));
  EXPECT_FALSE(support::FileLock::refresh(Path, A));
  EXPECT_FALSE(support::FileLock::release(Path, A));
  EXPECT_EQ(support::FileLock::owner(Path).value_or(""), B);
}

TEST(FileLock, OwnerOfMissingEmptyAndDirectoryPaths) {
  test::TempDir Tmp;
  std::string A = support::FileLock::makeToken();

  std::string Missing = Tmp.sub("missing.lock");
  EXPECT_FALSE(support::FileLock::owner(Missing).has_value());
  EXPECT_FALSE(support::FileLock::refresh(Missing, A));
  EXPECT_FALSE(support::FileLock::release(Missing, A));

  // A torn claim (the claimant died before writing its token) has an
  // owner no live token matches: it ages out via breakStale().
  std::string Empty = Tmp.sub("empty.lock");
  { std::ofstream OS(Empty); }
  std::optional<std::string> Torn = support::FileLock::owner(Empty);
  ASSERT_TRUE(Torn.has_value());
  EXPECT_EQ(*Torn, "");
  EXPECT_FALSE(support::FileLock::refresh(Empty, A));
  EXPECT_FALSE(support::FileLock::release(Empty, A));
  EXPECT_TRUE(std::filesystem::exists(Empty));

  // A directory at the claim path has no owner, and reading it never
  // throws.
  std::string Dir = Tmp.sub("dir.lock");
  std::filesystem::create_directories(Dir);
  EXPECT_FALSE(support::FileLock::owner(Dir).has_value());
  EXPECT_FALSE(support::FileLock::refresh(Dir, A));
  EXPECT_FALSE(support::FileLock::release(Dir, A));
  EXPECT_TRUE(std::filesystem::is_directory(Dir));
}

TEST(FileLock, ConcurrentClaimantsExactlyOneWins) {
  test::TempDir Tmp;
  const std::string &Dir = Tmp.path();
  std::string Path = Dir + "/key.lock";
  constexpr unsigned N = 8;
  std::vector<std::string> Tokens;
  for (unsigned I = 0; I < N; ++I)
    Tokens.push_back(support::FileLock::makeToken());
  std::atomic<unsigned> Wins{0};
  {
    support::ThreadPool Pool(N);
    Pool.parallelFor(N, [&](size_t I) {
      if (support::FileLock::tryClaim(Path, Tokens[I]))
        Wins.fetch_add(1);
    });
  }
  EXPECT_EQ(Wins.load(), 1u);
  auto Owner = support::FileLock::owner(Path);
  ASSERT_TRUE(Owner.has_value());
  EXPECT_TRUE(support::FileLock::release(Path, *Owner));
}
