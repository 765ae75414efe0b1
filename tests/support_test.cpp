//===- tests/support_test.cpp - Arena / CodeRegion / Timing tests ---------===//

#include "support/Arena.h"
#include "support/CodeBuffer.h"
#include "support/Timing.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

using namespace tcc;

TEST(Arena, BasicAllocation) {
  Arena A;
  int *P = A.create<int>(42);
  EXPECT_EQ(*P, 42);
  double *Q = A.create<double>(2.5);
  EXPECT_EQ(*Q, 2.5);
  EXPECT_EQ(*P, 42) << "later allocation must not clobber earlier one";
}

TEST(Arena, AlignmentRespected) {
  Arena A;
  for (std::size_t Align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    void *P = A.allocate(3, Align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(P) % Align, 0u)
        << "alignment " << Align;
  }
}

TEST(Arena, AllocationsAreDistinct) {
  Arena A;
  std::set<void *> Seen;
  for (int I = 0; I < 1000; ++I) {
    void *P = A.allocate(16);
    EXPECT_TRUE(Seen.insert(P).second) << "duplicate arena pointer";
    std::memset(P, 0xAB, 16);
  }
}

TEST(Arena, GrowsPastSlabSize) {
  Arena A(/*SlabBytes=*/4096);
  // A single allocation larger than a slab must still succeed.
  char *Big = static_cast<char *>(A.allocate(64 * 1024));
  std::memset(Big, 1, 64 * 1024);
  EXPECT_GE(A.slabCount(), 2u);
}

TEST(Arena, FastPathIsPointerBump) {
  Arena A(/*SlabBytes=*/1 << 20);
  std::size_t SlabsBefore = A.slabCount();
  for (int I = 0; I < 1000; ++I)
    A.allocate(64);
  // 1000 * 64 bytes fits in one megabyte slab: no new slab allocations, so
  // each allocation was just a pointer increment (paper §4.2).
  EXPECT_EQ(A.slabCount(), SlabsBefore);
}

TEST(Arena, ResetReclaims) {
  Arena A(/*SlabBytes=*/4096);
  for (int I = 0; I < 100; ++I)
    A.allocate(1024);
  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
  EXPECT_EQ(A.slabCount(), 1u);
  int *P = A.create<int>(7);
  EXPECT_EQ(*P, 7);
}

TEST(CodeRegion, WriteThenExecute) {
  CodeRegion R(4096);
  // mov eax, 0x2A; ret
  const std::uint8_t Code[] = {0xB8, 0x2A, 0x00, 0x00, 0x00, 0xC3};
  std::memcpy(R.base(), Code, sizeof(Code));
  R.makeExecutable();
  auto Fn = reinterpret_cast<int (*)()>(R.base());
  EXPECT_EQ(Fn(), 42);
}

TEST(CodeRegion, WritableAfterExecutable) {
  CodeRegion R(4096);
  const std::uint8_t Code[] = {0xB8, 0x2A, 0x00, 0x00, 0x00, 0xC3};
  std::memcpy(R.base(), Code, sizeof(Code));
  R.makeExecutable();
  R.makeWritable();
  R.base()[1] = 0x07; // now returns 7
  R.makeExecutable();
  auto Fn = reinterpret_cast<int (*)()>(R.base());
  EXPECT_EQ(Fn(), 7);
}

TEST(Timing, CycleCounterMonotonic) {
  std::uint64_t A = readCycleCounter();
  std::uint64_t B = readCycleCounter();
  EXPECT_GE(B, A);
}

TEST(Timing, CyclesPerNanoPlausible) {
  double R = cyclesPerNano();
  EXPECT_GT(R, 0.05); // >= 50 MHz
  EXPECT_LT(R, 10.0); // <= 10 GHz
}
