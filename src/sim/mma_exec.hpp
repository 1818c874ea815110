// Tensor Core data layouts and functional MMA execution.
//
// This encodes the paper's Section IV findings as executable definitions:
//
//  * The basic unit of half-precision Tensor Core programming is an 8x8
//    matrix held in one "warp register": 32 lanes x 32 bits = 128 bytes.
//  * Fig. 1 row-major order: lane l holds elements (l/4, (l%4)*2) and
//    (l/4, (l%4)*2+1) packed lo/hi in its 32-bit register.
//  * Fig. 1 column-major order: lane l holds ((l%4)*2, l/4) and
//    ((l%4)*2+1, l/4).
//  * HMMA.1688 computes D(16x8) = A(16x8) * B(8x8) + C(16x8) where D, A, C
//    are register pairs of row-major 8x8 tiles (low register = rows 0..7)
//    and B is a single column-major 8x8 tile (Fig. 2).
//
// Numerics: each output element is one numerics::dot_f16/dot_f32 call, the
// primitive every HMMA-semantics caller shares (the FP16 forms make those
// calls through numerics::dot_f16_block, one per 8x8 group). Under
// NumericsMode::kIdealized (the default) it is an FP32 dot product of the
// eight FP16 products plus the accumulator, rounded once to the accumulator
// type. This matches the "higher accuracy than FP16 units" observation [5]
// and is the reference semantics all recorded tcgemm goldens compare
// against. NumericsMode::kBitAccurate instead runs the SMT-formalization
// step model (two 4-term fused steps, RZ/RNE per accumulate type — see
// numerics/numerics.hpp and docs/numerics.md).
#pragma once

#include <cstdint>

#include "common/half.hpp"
#include "numerics/numerics.hpp"
#include "sass/isa.hpp"
#include "sim/reg_file.hpp"

namespace tc::sim {

class WriteSink;  // exec_core.hpp

/// Position of one FP16 element of an 8x8 matrix inside a warp register.
struct LanePos {
  int lane;  // 0..31
  int part;  // 0 = low half of the 32-bit register, 1 = high half
};

/// Fig. 1 (left): row-major placement of element (row, col), 0 <= row,col < 8.
[[nodiscard]] LanePos row_major_pos(int row, int col);
/// Fig. 1 (right): column-major placement of element (row, col).
[[nodiscard]] LanePos col_major_pos(int row, int col);

/// Inverse maps: which (row, col) does (lane, part) hold?
struct Coord {
  int row;
  int col;
};
[[nodiscard]] Coord row_major_coord(int lane, int part);
[[nodiscard]] Coord col_major_coord(int lane, int part);

/// An 8x8 FP16 tile staged to/from one warp register.
struct Tile8x8 {
  half m[8][8]{};
};

/// Reads one warp register as a row/column-major 8x8 tile (Fig. 1).
[[nodiscard]] Tile8x8 gather_row_major(const WarpRegs& regs, sass::Reg r);
[[nodiscard]] Tile8x8 gather_col_major(const WarpRegs& regs, sass::Reg r);
/// Writes a tile into one warp register with the given order.
void scatter_row_major(WarpRegs& regs, sass::Reg r, const Tile8x8& t);
void scatter_col_major(WarpRegs& regs, sass::Reg r, const Tile8x8& t);

/// Executes one MMA instruction's math, reading settled register state and
/// emitting all destination writes through `sink`. Handles all four opcodes:
/// HMMA.1688.F16/.F32, HMMA.884.F16, IMMA.8816.S8. `mode` selects between
/// the idealized single-rounding semantics above and the bit-accurate
/// per-step model in numerics/numerics.hpp; IMMA is integer-exact and
/// identical in both modes.
void exec_mma(sass::Opcode op, const WarpRegs& regs, sass::Reg d, sass::Reg a, sass::Reg b,
              sass::Reg c, WriteSink& sink,
              numerics::NumericsMode mode = numerics::NumericsMode::kIdealized);

}  // namespace tc::sim
