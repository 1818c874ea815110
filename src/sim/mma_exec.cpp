#include "sim/mma_exec.hpp"

#include <bit>

#include "common/error.hpp"
#include "sim/exec_core.hpp"

namespace tc::sim {

LanePos row_major_pos(int row, int col) {
  TC_ASSERT(row >= 0 && row < 8 && col >= 0 && col < 8, "8x8 coordinate out of range");
  return {row * 4 + col / 2, col % 2};
}

LanePos col_major_pos(int row, int col) {
  TC_ASSERT(row >= 0 && row < 8 && col >= 0 && col < 8, "8x8 coordinate out of range");
  return {col * 4 + row / 2, row % 2};
}

Coord row_major_coord(int lane, int part) {
  TC_ASSERT(lane >= 0 && lane < 32 && (part == 0 || part == 1), "lane/part out of range");
  return {lane / 4, (lane % 4) * 2 + part};
}

Coord col_major_coord(int lane, int part) {
  TC_ASSERT(lane >= 0 && lane < 32 && (part == 0 || part == 1), "lane/part out of range");
  return {(lane % 4) * 2 + part, lane / 4};
}

namespace {

sass::Reg offset(sass::Reg r, int delta) {
  return sass::Reg{static_cast<std::uint8_t>(r.idx + delta)};
}

/// Packs a tile into the 32 per-lane words of one warp register. In
/// row-major order a lane's high half is the element right of its low half.
std::array<std::uint32_t, kWarpSize> pack_row_major(const Tile8x8& t) {
  std::array<std::uint32_t, kWarpSize> words{};
  for (int lane = 0; lane < kWarpSize; ++lane) {
    const Coord lo = row_major_coord(lane, 0);
    words[static_cast<std::size_t>(lane)] =
        half2{t.m[lo.row][lo.col], t.m[lo.row][lo.col + 1]}.pack();
  }
  return words;
}

std::array<std::uint32_t, kWarpSize> pack_col_major(const Tile8x8& t) {
  std::array<std::uint32_t, kWarpSize> words{};
  for (int lane = 0; lane < kWarpSize; ++lane) {
    const Coord lo = col_major_coord(lane, 0);
    const Coord hi = col_major_coord(lane, 1);
    words[static_cast<std::size_t>(lane)] =
        half2{t.m[lo.row][lo.col], t.m[hi.row][hi.col]}.pack();
  }
  return words;
}

void emit_words(WriteSink& sink, sass::Reg r, const std::array<std::uint32_t, kWarpSize>& w) {
  for (int lane = 0; lane < kWarpSize; ++lane) {
    sink.gpr(r, lane, w[static_cast<std::size_t>(lane)]);
  }
}

// Every HMMA form gathers its operands once with k contiguous: A tiles are
// row-major (row i = A's row i), and B, a column-major tile, read back as
// row-major has B's column j as its row j. Each output element is then one
// numerics::dot_* call on two 8-element rows; the FP16 forms run each 8x8
// group as one numerics::dot_f16_block, which is that call for every element.

// FP16 accumulators. HMMA.1688 is D(16x8) = A(16x8) * B(8x8) + C on register
// pairs (low register = rows 0..7): two groups. The Volta-compatibility
// HMMA.884 is D(8x8) = A(8x8) * B(8x8) + C on single registers: one group.
void exec_hmma_f16(const WarpRegs& regs, sass::Reg d, sass::Reg a, sass::Reg b, sass::Reg c,
                   WriteSink& sink, numerics::NumericsMode mode, int groups) {
  const Tile8x8 b_cols = gather_row_major(regs, b);
  Tile8x8 dt[2];
  for (int g = 0; g < groups; ++g) {
    const Tile8x8 at = gather_row_major(regs, offset(a, g));
    const Tile8x8 ct = c.is_rz() ? Tile8x8{} : gather_row_major(regs, offset(c, g));
    numerics::dot_f16_block(mode, &ct.m[0][0], &at.m[0][0], &b_cols.m[0][0], &dt[g].m[0][0]);
  }
  // Emit only after every operand is read: D may alias A or C.
  for (int g = 0; g < groups; ++g) emit_words(sink, offset(d, g), pack_row_major(dt[g]));
}

// HMMA.1688 with FP32 accumulators: reg 2g+p of lane l holds element
// (l/4 + 8g, (l%4)*2 + p) of the 16x8 FP32 accumulator.
void exec_hmma_1688_f32(const WarpRegs& regs, sass::Reg d, sass::Reg a, sass::Reg b,
                        sass::Reg c, WriteSink& sink, numerics::NumericsMode mode) {
  const Tile8x8 b_cols = gather_row_major(regs, b);
  std::array<std::array<std::uint32_t, kWarpSize>, 4> out{};
  for (int g = 0; g < 2; ++g) {
    const Tile8x8 at = gather_row_major(regs, offset(a, g));
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) {
        const int reg = 2 * g + j % 2;
        const int lane = i * 4 + j / 2;
        const float acc =
            c.is_rz() ? 0.0f : std::bit_cast<float>(regs.read(offset(c, reg), lane));
        out[static_cast<std::size_t>(reg)][static_cast<std::size_t>(lane)] =
            std::bit_cast<std::uint32_t>(numerics::dot_f32(mode, acc, at.m[i], b_cols.m[j]));
      }
    }
  }
  for (int r = 0; r < 4; ++r) emit_words(sink, offset(d, r), out[static_cast<std::size_t>(r)]);
}

// Integer extension: D(8x8 s32) = A(8x16 s8) * B(16x8 s8) + C.
void exec_imma_8816_s8(const WarpRegs& regs, sass::Reg d, sass::Reg a, sass::Reg b,
                       sass::Reg c, WriteSink& sink) {
  std::int8_t A[8][16];
  std::int8_t B[16][8];
  for (int lane = 0; lane < kWarpSize; ++lane) {
    const std::uint32_t aw = regs.read(a, lane);
    const std::uint32_t bw = regs.read(b, lane);
    for (int byte = 0; byte < 4; ++byte) {
      A[lane / 4][(lane % 4) * 4 + byte] = static_cast<std::int8_t>((aw >> (8 * byte)) & 0xFF);
      B[(lane % 4) * 4 + byte][lane / 4] = static_cast<std::int8_t>((bw >> (8 * byte)) & 0xFF);
    }
  }
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      const int lane = i * 4 + j / 2;
      const int g = j % 2;
      // IMMA wraps modulo 2^32 like the hardware; accumulate unsigned so the
      // wrap is defined behaviour.
      std::uint32_t acc = c.is_rz() ? 0 : regs.read(offset(c, g), lane);
      for (int kk = 0; kk < 16; ++kk) {
        acc += static_cast<std::uint32_t>(static_cast<std::int32_t>(A[i][kk]) *
                                          static_cast<std::int32_t>(B[kk][j]));
      }
      sink.gpr(offset(d, g), lane, acc);
    }
  }
}

}  // namespace

// The gathers read each lane's word once and place both of its halves.
Tile8x8 gather_row_major(const WarpRegs& regs, sass::Reg r) {
  Tile8x8 t;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    const half2 pair = half2::unpack(regs.read(r, lane));
    const Coord lo = row_major_coord(lane, 0);
    t.m[lo.row][lo.col] = pair.lo;
    t.m[lo.row][lo.col + 1] = pair.hi;
  }
  return t;
}

Tile8x8 gather_col_major(const WarpRegs& regs, sass::Reg r) {
  Tile8x8 t;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    const half2 pair = half2::unpack(regs.read(r, lane));
    const Coord lo = col_major_coord(lane, 0);
    t.m[lo.row][lo.col] = pair.lo;
    t.m[lo.row + 1][lo.col] = pair.hi;
  }
  return t;
}

void scatter_row_major(WarpRegs& regs, sass::Reg r, const Tile8x8& t) {
  const auto words = pack_row_major(t);
  for (int lane = 0; lane < kWarpSize; ++lane) {
    regs.write_now(r, lane, words[static_cast<std::size_t>(lane)]);
  }
}

void scatter_col_major(WarpRegs& regs, sass::Reg r, const Tile8x8& t) {
  const auto words = pack_col_major(t);
  for (int lane = 0; lane < kWarpSize; ++lane) {
    regs.write_now(r, lane, words[static_cast<std::size_t>(lane)]);
  }
}

void exec_mma(sass::Opcode op, const WarpRegs& regs, sass::Reg d, sass::Reg a, sass::Reg b,
              sass::Reg c, WriteSink& sink, numerics::NumericsMode mode) {
  switch (op) {
    case sass::Opcode::kHmma1688F16:
      exec_hmma_f16(regs, d, a, b, c, sink, mode, 2);
      break;
    case sass::Opcode::kHmma1688F32:
      exec_hmma_1688_f32(regs, d, a, b, c, sink, mode);
      break;
    case sass::Opcode::kHmma884F16:
      exec_hmma_f16(regs, d, a, b, c, sink, mode, 1);
      break;
    case sass::Opcode::kImma8816S8:
      // Integer math is exact: both numerics modes are identical by
      // construction, so the mode is deliberately not consulted.
      exec_imma_8816_s8(regs, d, a, b, c, sink);
      break;
    default:
      TC_ASSERT(false, "exec_mma on non-MMA opcode");
  }
}

}  // namespace tc::sim
