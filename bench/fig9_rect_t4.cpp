// Reproduces paper Fig. 9: rectangular HGEMM on T4.
// Paper: max speedup 2.17x at W=15360 for [W x W x 4W]; average 1.45x.
#include "rect_common.hpp"

int main(int argc, char** argv) {
  const tc::Flags flags = tc::bench::parse_flags(argc, argv, {tc::bench::step_flag(2048)});
  const std::size_t step = flags.number("--step");
  const std::string& json_path = flags.text("--json");
  std::optional<tc::bench::BenchJson> json;
  if (!json_path.empty()) json.emplace("fig9_rect_t4", "t4");
  std::cout << "Fig. 9: rectangular HGEMM on T4 (step " << step << ")\n"
            << "(paper: max speedup 2.17x at W=15360 [W x W x 4W]; average 1.45x)\n\n";
  return tc::bench::run_rect(tc::device::t4(), step, json ? &*json : nullptr, json_path);
}
