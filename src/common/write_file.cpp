#include "common/write_file.hpp"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/error.hpp"

namespace tc {

void write_file(const std::string& path, std::string_view contents) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path target = fs::weakly_canonical(path, ec);
  if (ec) throw Error("cannot open " + path + " for writing");
  const fs::file_status status = fs::status(target, ec);
  if (fs::exists(status) && !fs::is_regular_file(status)) {
    throw Error("cannot write " + path + ": not a regular file");
  }

  const fs::path tmp = target.string() + ".tmp." + std::to_string(::getpid());
  std::ofstream os(tmp);
  if (!os) throw Error("cannot open " + path + " for writing");
  // A replaced file keeps its permission bits, as one rewritten in place does.
  if (fs::exists(status)) fs::permissions(tmp, status.permissions(), ec);
  os.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  os.close();
  if (!os.fail()) {
    fs::rename(tmp, target, ec);
    if (!ec) return;
  }
  fs::remove(tmp, ec);
  throw Error("cannot write " + path);
}

}  // namespace tc
