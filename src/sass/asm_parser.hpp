// Text-form SASS assembler: parses the same syntax the disassembler emits
// (plus labels), so kernels can be written or patched as text — the
// workflow of maxas/turingas the paper's SASS kernel was developed with.
// assemble(disassemble(p)) reproduces p exactly: name, threads and shared
// memory from the directives Program::disassemble() writes, every
// instruction and control word, and the register and parameter counts,
// which both the assembler and KernelBuilder derive with
// sass::count_resources().
//
// Grammar (one instruction per line):
//
//   .kernel name          .threads N          .smem BYTES
//   label:
//   [@[!]Pn] OPCODE operands ; {S:n [Y] [WBk] [RBk] [W:digits] [RU:n]}
//
// Each directive takes exactly one value; N and BYTES are non-negative
// integers (decimal or 0x..). Operands follow the disassembler: registers
// R0..R254/RZ, predicates P0..P6/PT, immediates 0x.. or decimal, memory
// [Rn+0x..], parameters c[0x0][i], special registers SR_*. Branch targets
// may be a label or an absolute instruction index. `//` starts a comment.
#pragma once

#include <optional>
#include <string>

#include "sass/diag.hpp"
#include "sass/program.hpp"

namespace tc::sass {

/// Parses a whole kernel; throws tc::Error with a line number on syntax
/// errors. The result is validated like KernelBuilder output.
[[nodiscard]] Program assemble(const std::string& source);

/// Non-throwing form for tooling: returns the program, or nullopt with a
/// structured diagnostic in *diag (if non-null). Parse/syntax failures get
/// kind "asm-parse" with consumer_pc holding the 1-based *source line*;
/// programs that parse but fail ISA validation get kind "asm-validate" with
/// consumer_pc -1 (the validator reports instruction pcs in its message).
[[nodiscard]] std::optional<Program> try_assemble(const std::string& source,
                                                  Diag* diag = nullptr);

}  // namespace tc::sass
