// Reproduces paper Fig. 8: rectangular HGEMM on RTX2070.
// Paper: trends match the square case; max speedup 3.23x at W=14848 for
// [W x W x 4W]; average speedup 1.77x across rectangular shapes.
#include "rect_common.hpp"

int main(int argc, char** argv) {
  const tc::Flags flags = tc::bench::parse_flags(argc, argv, {tc::bench::step_flag(2048)});
  const std::size_t step = flags.number("--step");
  const std::string& json_path = flags.text("--json");
  std::optional<tc::bench::BenchJson> json;
  if (!json_path.empty()) json.emplace("fig8_rect_rtx2070", "rtx2070");
  std::cout << "Fig. 8: rectangular HGEMM on RTX2070 (step " << step << ")\n"
            << "(paper: max speedup 3.23x at W=14848 [W x W x 4W]; average 1.77x)\n\n";
  return tc::bench::run_rect(tc::device::rtx2070(), step, json ? &*json : nullptr, json_path);
}
