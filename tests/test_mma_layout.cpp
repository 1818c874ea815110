// Tests of the Tensor Core register layouts (paper Fig. 1/2) and the
// functional MMA semantics (Section IV).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "sim/exec_core.hpp"
#include "sim/mma_exec.hpp"

namespace tc::sim {
namespace {

// Fig. 1 left: the lane that owns element (row, col) in row-major order.
TEST(Layout, RowMajorMatchesFigure1) {
  // First row of the figure: lanes 0..3 hold columns 0..7 of row 0.
  EXPECT_EQ(row_major_pos(0, 0).lane, 0);
  EXPECT_EQ(row_major_pos(0, 1).lane, 0);
  EXPECT_EQ(row_major_pos(0, 2).lane, 1);
  EXPECT_EQ(row_major_pos(0, 7).lane, 3);
  EXPECT_EQ(row_major_pos(1, 0).lane, 4);
  EXPECT_EQ(row_major_pos(7, 6).lane, 31);
  EXPECT_EQ(row_major_pos(0, 0).part, 0);
  EXPECT_EQ(row_major_pos(0, 1).part, 1);
}

// Fig. 1 right: column-major order.
TEST(Layout, ColMajorMatchesFigure1) {
  EXPECT_EQ(col_major_pos(0, 0).lane, 0);
  EXPECT_EQ(col_major_pos(1, 0).lane, 0);
  EXPECT_EQ(col_major_pos(2, 0).lane, 1);
  EXPECT_EQ(col_major_pos(7, 0).lane, 3);
  EXPECT_EQ(col_major_pos(0, 1).lane, 4);
  EXPECT_EQ(col_major_pos(6, 7).lane, 31);
  EXPECT_EQ(col_major_pos(1, 0).part, 1);
}

TEST(Layout, InverseMapsAreConsistent) {
  for (int lane = 0; lane < 32; ++lane) {
    for (int part = 0; part < 2; ++part) {
      const Coord rm = row_major_coord(lane, part);
      EXPECT_EQ(row_major_pos(rm.row, rm.col).lane, lane);
      EXPECT_EQ(row_major_pos(rm.row, rm.col).part, part);
      const Coord cm = col_major_coord(lane, part);
      EXPECT_EQ(col_major_pos(cm.row, cm.col).lane, lane);
      EXPECT_EQ(col_major_pos(cm.row, cm.col).part, part);
    }
  }
}

TEST(Layout, OneWarpRegisterHoldsWholeTile) {
  // 32 lanes x 2 parts cover all 64 elements exactly once in both orders.
  bool seen[8][8] = {};
  for (int lane = 0; lane < 32; ++lane) {
    for (int part = 0; part < 2; ++part) {
      const Coord c = row_major_coord(lane, part);
      EXPECT_FALSE(seen[c.row][c.col]);
      seen[c.row][c.col] = true;
    }
  }
  for (auto& row : seen) {
    for (bool s : row) EXPECT_TRUE(s);
  }
}

TEST(Layout, GatherScatterRoundTrip) {
  Rng rng(1);
  Tile8x8 t;
  for (auto& row : t.m) {
    for (auto& v : row) v = rng.next_half();
  }
  WarpRegs regs;
  scatter_row_major(regs, sass::Reg{4}, t);
  const Tile8x8 back = gather_row_major(regs, sass::Reg{4});
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) EXPECT_EQ(back.m[i][j].bits(), t.m[i][j].bits());
  }
  scatter_col_major(regs, sass::Reg{5}, t);
  const Tile8x8 back2 = gather_col_major(regs, sass::Reg{5});
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) EXPECT_EQ(back2.m[i][j].bits(), t.m[i][j].bits());
  }
}

TEST(Layout, RowAndColMajorDifferInRegisters) {
  Tile8x8 t;
  t.m[0][1] = half(1.0f);
  WarpRegs r1, r2;
  scatter_row_major(r1, sass::Reg{0}, t);
  scatter_col_major(r2, sass::Reg{0}, t);
  // (0,1) row-major: lane 0 part 1. col-major: lane 4 part 0.
  EXPECT_EQ(half2::unpack(r1.read(sass::Reg{0}, 0)).hi.to_float(), 1.0f);
  EXPECT_EQ(half2::unpack(r2.read(sass::Reg{0}, 4)).lo.to_float(), 1.0f);
}

// --- HMMA semantics ---------------------------------------------------------

struct MmaFixture : ::testing::Test {
  WarpRegs regs;
  Rng rng{7};

  half a[16][8];
  half bmat[8][8];
  half c[16][8];

  void load_operands(bool zero_c = false) {
    Tile8x8 a_lo, a_hi, bt, c_lo, c_hi;
    for (int i = 0; i < 16; ++i) {
      for (int j = 0; j < 8; ++j) {
        a[i][j] = rng.next_half();
        c[i][j] = zero_c ? half(0.0f) : rng.next_half();
        (i < 8 ? a_lo : a_hi).m[i % 8][j] = a[i][j];
        (i < 8 ? c_lo : c_hi).m[i % 8][j] = c[i][j];
      }
    }
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) {
        bmat[i][j] = rng.next_half();
        bt.m[i][j] = bmat[i][j];
      }
    }
    scatter_row_major(regs, sass::Reg{2}, a_lo);
    scatter_row_major(regs, sass::Reg{3}, a_hi);
    scatter_col_major(regs, sass::Reg{6}, bt);
    scatter_row_major(regs, sass::Reg{4}, c_lo);
    scatter_row_major(regs, sass::Reg{5}, c_hi);
  }

  half expected(int i, int j) const {
    float acc = c[i][j].to_float();
    for (int kk = 0; kk < 8; ++kk) acc += a[i][kk].to_float() * bmat[kk][j].to_float();
    return half(acc);
  }
};

TEST_F(MmaFixture, Hmma1688F16MatchesScalarModel) {
  load_operands();
  ImmediateSink sink(regs);
  exec_mma(sass::Opcode::kHmma1688F16, regs, sass::Reg{8}, sass::Reg{2}, sass::Reg{6},
           sass::Reg{4}, sink);
  const Tile8x8 d_lo = gather_row_major(regs, sass::Reg{8});
  const Tile8x8 d_hi = gather_row_major(regs, sass::Reg{9});
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 8; ++j) {
      const half got = (i < 8 ? d_lo : d_hi).m[i % 8][j];
      EXPECT_EQ(got.bits(), expected(i, j).bits()) << "D(" << i << "," << j << ")";
    }
  }
}

TEST_F(MmaFixture, Hmma1688F16AccumulatesInPlace) {
  load_operands(true);
  ImmediateSink sink(regs);
  // D = A*B (C = RZ), then D += A*B again: result must be 2x with fp16
  // rounding applied per instruction.
  exec_mma(sass::Opcode::kHmma1688F16, regs, sass::Reg{8}, sass::Reg{2}, sass::Reg{6}, sass::RZ,
           sink);
  exec_mma(sass::Opcode::kHmma1688F16, regs, sass::Reg{8}, sass::Reg{2}, sass::Reg{6},
           sass::Reg{8}, sink);
  const Tile8x8 d_lo = gather_row_major(regs, sass::Reg{8});
  for (int j = 0; j < 8; ++j) {
    float once = 0.0f;
    for (int kk = 0; kk < 8; ++kk) once += a[0][kk].to_float() * bmat[kk][j].to_float();
    const half first(once);
    const half second(first.to_float() + once);
    EXPECT_EQ(d_lo.m[0][j].bits(), second.bits());
  }
}

TEST_F(MmaFixture, Hmma1688F32KeepsFullPrecision) {
  load_operands(true);
  ImmediateSink sink(regs);
  exec_mma(sass::Opcode::kHmma1688F32, regs, sass::Reg{12}, sass::Reg{2}, sass::Reg{6}, sass::RZ,
           sink);
  // FP32 accumulators: element (0,0) lives in reg 12 lane 0 as raw float.
  float got;
  const std::uint32_t bits = regs.read(sass::Reg{12}, 0);
  std::memcpy(&got, &bits, 4);
  float want = 0.0f;
  for (int kk = 0; kk < 8; ++kk) want += a[0][kk].to_float() * bmat[kk][0].to_float();
  EXPECT_FLOAT_EQ(got, want);
}

TEST_F(MmaFixture, Hmma884ComputesSingleTile) {
  load_operands(true);
  ImmediateSink sink(regs);
  exec_mma(sass::Opcode::kHmma884F16, regs, sass::Reg{10}, sass::Reg{2}, sass::Reg{6}, sass::RZ,
           sink);
  const Tile8x8 d = gather_row_major(regs, sass::Reg{10});
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < 8; ++kk) acc += a[i][kk].to_float() * bmat[kk][j].to_float();
      EXPECT_EQ(d.m[i][j].bits(), half(acc).bits());
    }
  }
}

/// Writes the IMMA.8816 operands A (8x16 s8) and B (16x8 s8) into R0 and R1
/// in the lane layout exec_imma_8816_s8 reads.
void load_imma_operands(WarpRegs& regs, const std::int8_t (&A)[8][16],
                        const std::int8_t (&B)[16][8]) {
  for (int lane = 0; lane < 32; ++lane) {
    std::uint32_t aw = 0, bw = 0;
    for (int byte = 0; byte < 4; ++byte) {
      aw |= static_cast<std::uint32_t>(
                static_cast<std::uint8_t>(A[lane / 4][(lane % 4) * 4 + byte]))
            << (8 * byte);
      bw |= static_cast<std::uint32_t>(
                static_cast<std::uint8_t>(B[(lane % 4) * 4 + byte][lane / 4]))
            << (8 * byte);
    }
    regs.write_now(sass::Reg{0}, lane, aw);
    regs.write_now(sass::Reg{1}, lane, bw);
  }
}

TEST(Imma, Int8MatrixMultiply) {
  WarpRegs regs;
  // A[i][kk] = i + kk (mod 7) - 3, B[kk][j] = kk - j (mod 5) - 2.
  std::int8_t A[8][16], B[16][8];
  for (int i = 0; i < 8; ++i) {
    for (int kk = 0; kk < 16; ++kk) A[i][kk] = static_cast<std::int8_t>((i + kk) % 7 - 3);
  }
  for (int kk = 0; kk < 16; ++kk) {
    for (int j = 0; j < 8; ++j) B[kk][j] = static_cast<std::int8_t>((kk - j) % 5 - 2);
  }
  load_imma_operands(regs, A, B);
  ImmediateSink sink(regs);
  exec_mma(sass::Opcode::kImma8816S8, regs, sass::Reg{4}, sass::Reg{0}, sass::Reg{1}, sass::RZ,
           sink);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      std::int32_t want = 0;
      for (int kk = 0; kk < 16; ++kk) want += A[i][kk] * B[kk][j];
      const int lane = i * 4 + j / 2;
      const auto got = static_cast<std::int32_t>(
          regs.read(sass::Reg{static_cast<std::uint8_t>(4 + j % 2)}, lane));
      EXPECT_EQ(got, want) << i << "," << j;
    }
  }
}

TEST(Imma, AccumulatorWrapsModulo2To32) {
  // The s32 accumulator wraps like the hardware's: C near INT32_MAX plus a
  // positive dot product, and near INT32_MIN plus a negative one, land on the
  // other side. The reference sums in 64 bits and reduces modulo 2^32.
  WarpRegs regs;
  std::int8_t A[8][16], B[16][8];
  for (int i = 0; i < 8; ++i) {
    for (int kk = 0; kk < 16; ++kk) A[i][kk] = static_cast<std::int8_t>(i % 2 ? -128 : 127);
  }
  for (int kk = 0; kk < 16; ++kk) {
    for (int j = 0; j < 8; ++j) B[kk][j] = static_cast<std::int8_t>(127 - j);
  }
  load_imma_operands(regs, A, B);
  // C[i][j] sits in lane i * 4 + j / 2, register R2 + j % 2.
  const auto c_at = [](int i, int j) -> std::int64_t {
    return i % 2 ? std::int64_t{INT32_MIN} + j : std::int64_t{INT32_MAX} - j;
  };
  for (int lane = 0; lane < 32; ++lane) {
    for (int g = 0; g < 2; ++g) {
      const auto c = static_cast<std::uint32_t>(c_at(lane / 4, (lane % 4) * 2 + g));
      regs.write_now(sass::Reg{static_cast<std::uint8_t>(2 + g)}, lane, c);
    }
  }
  ImmediateSink sink(regs);
  exec_mma(sass::Opcode::kImma8816S8, regs, sass::Reg{4}, sass::Reg{0}, sass::Reg{1},
           sass::Reg{2}, sink);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      std::int64_t sum = c_at(i, j);
      for (int kk = 0; kk < 16; ++kk) sum += std::int64_t{A[i][kk]} * B[kk][j];
      ASSERT_TRUE(sum > INT32_MAX || sum < INT32_MIN) << i << "," << j;  // it does wrap
      const auto want = static_cast<std::uint32_t>(sum);
      const int lane = i * 4 + j / 2;
      EXPECT_EQ(regs.read(sass::Reg{static_cast<std::uint8_t>(4 + j % 2)}, lane), want)
          << i << "," << j;
    }
  }
}

TEST(RegFile, DelayedWritebackIsInvisibleUntilDue) {
  WarpRegs regs;
  regs.write_now(sass::Reg{0}, 0, 111);
  regs.write_at(sass::Reg{0}, 0, 222, /*due=*/10);
  regs.settle(9);
  EXPECT_EQ(regs.read(sass::Reg{0}, 0), 111u);  // stale value: the hazard
  EXPECT_TRUE(regs.has_pending(sass::Reg{0}));
  regs.settle(10);
  EXPECT_EQ(regs.read(sass::Reg{0}, 0), 222u);
  EXPECT_FALSE(regs.has_pending(sass::Reg{0}));
}

TEST(RegFile, LaterWriteWithEarlierDueResolvesBySettleTimes) {
  // Two writes to one register lane, the later one due first. Whatever is
  // due when settle() runs lands in scheduling order, so the later write
  // wins one settle after both dues but loses to a settle between them.
  const sass::Reg r{3};
  const auto two_writes = [&](WarpRegs& regs) {
    regs.write_at(r, 5, 111, /*due=*/20);
    regs.write_at(r, 5, 222, /*due=*/10);
  };

  WarpRegs once;
  two_writes(once);
  once.settle(25);
  EXPECT_EQ(once.read(r, 5), 222u);
  EXPECT_FALSE(once.has_pending(r));

  WarpRegs between;
  two_writes(between);
  between.settle(15);
  EXPECT_EQ(between.read(r, 5), 222u);
  EXPECT_TRUE(between.has_pending(r));
  between.settle(25);
  EXPECT_EQ(between.read(r, 5), 111u);
  EXPECT_FALSE(between.has_pending(r));

  WarpRegs all;
  two_writes(all);
  all.settle_all();
  EXPECT_EQ(all.read(r, 5), 222u);
  EXPECT_FALSE(all.has_pending(r));
}

/// The flat-list writeback queue WarpRegs kept before it grouped writes
/// into due-cycle runs: every settle walks every pending write. The oracle
/// for the run-based queue, over registers R0..R5 and lanes 0..3.
class FlatWritebackQueue {
 public:
  static constexpr int kRegs = 6;
  static constexpr int kLanes = 4;

  void write_at(sass::Reg r, int lane, std::uint32_t value, std::uint64_t due) {
    if (r.is_rz()) return;
    pending_.push_back({due, r.idx, lane, value});
  }
  void settle(std::uint64_t now) {
    auto keep = pending_.begin();
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->due <= now) {
        gpr_[it->reg][static_cast<std::size_t>(it->lane)] = it->value;
      } else {
        *keep++ = *it;
      }
    }
    pending_.erase(keep, pending_.end());
  }
  void settle_all() { settle(WarpRegs::kNoPendingWrite); }
  [[nodiscard]] bool has_pending(sass::Reg r) const {
    for (const auto& p : pending_) {
      if (p.reg == r.idx) return true;
    }
    return false;
  }
  [[nodiscard]] std::uint64_t next_due() const {
    std::uint64_t due = WarpRegs::kNoPendingWrite;
    for (const auto& p : pending_) due = std::min(due, p.due);
    return due;
  }
  [[nodiscard]] std::uint32_t read(int reg, int lane) const {
    return gpr_[static_cast<std::size_t>(reg)][static_cast<std::size_t>(lane)];
  }

 private:
  struct Pending {
    std::uint64_t due;
    std::uint8_t reg;
    int lane;
    std::uint32_t value;
  };
  std::array<std::array<std::uint32_t, kLanes>, kRegs> gpr_{};
  std::vector<Pending> pending_;
};

TEST(RegFile, RunQueueMatchesFlatListOracle) {
  // Random write_at / settle / settle_all / has_pending sequences with a
  // monotonic clock. Dues repeat (so writes group into runs), arrive out of
  // order, and collide on few register lanes; an eighth of writes target RZ.
  constexpr int kRegs = FlatWritebackQueue::kRegs;
  constexpr int kLanes = FlatWritebackQueue::kLanes;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    WarpRegs regs;
    FlatWritebackQueue oracle;
    std::uint64_t now = 0;
    std::uint64_t due = 0;
    for (int op = 0; op < 400; ++op) {
      const auto pick = rng.next_below(100);
      if (pick < 60) {
        const sass::Reg r = rng.next_below(8) == 0
                                ? sass::RZ
                                : sass::Reg{static_cast<std::uint8_t>(rng.next_below(kRegs))};
        const auto lane = static_cast<int>(rng.next_below(kLanes));
        const auto value = static_cast<std::uint32_t>(rng.next_u64());
        if (rng.next_below(2) == 0) due = now + rng.next_below(40);
        regs.write_at(r, lane, value, due);
        oracle.write_at(r, lane, value, due);
      } else if (pick < 85) {
        now += rng.next_below(12);
        regs.settle(now);
        oracle.settle(now);
      } else if (pick < 88) {
        regs.settle_all();
        oracle.settle_all();
      } else {
        const sass::Reg r{static_cast<std::uint8_t>(rng.next_below(kRegs))};
        ASSERT_EQ(regs.has_pending(r), oracle.has_pending(r)) << "op " << op;
      }
      ASSERT_EQ(regs.next_due(), oracle.next_due()) << "op " << op;
      for (int reg = 0; reg < kRegs; ++reg) {
        for (int lane = 0; lane < kLanes; ++lane) {
          ASSERT_EQ(regs.read(sass::Reg{static_cast<std::uint8_t>(reg)}, lane),
                    oracle.read(reg, lane))
              << "op " << op << " R" << reg << " lane " << lane;
        }
      }
    }
  }
}

TEST(RegFile, RzReadsZeroAndDropsWrites) {
  WarpRegs regs;
  regs.write_now(sass::RZ, 3, 999);
  EXPECT_EQ(regs.read(sass::RZ, 3), 0u);
}

TEST(RegFile, PredicatesPerLane) {
  WarpRegs regs;
  EXPECT_TRUE(regs.read_pred(sass::PT, 5));
  regs.write_pred(sass::Pred{2}, 5, true);
  EXPECT_TRUE(regs.read_pred(sass::Pred{2}, 5));
  EXPECT_FALSE(regs.read_pred(sass::Pred{2}, 6));
  regs.write_pred(sass::PT, 5, false);  // PT immutable
  EXPECT_TRUE(regs.read_pred(sass::PT, 5));
}

}  // namespace
}  // namespace tc::sim
