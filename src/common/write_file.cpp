#include "common/write_file.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

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
  // Renaming over the file this process's standard output or error writes
  // to would unlink it: what the process prints after that is lost.
  struct stat target_stat {};
  if (fs::exists(status) && ::stat(target.c_str(), &target_stat) == 0) {
    for (const auto& [fd, name] : {std::pair{STDOUT_FILENO, "standard output"},
                                   std::pair{STDERR_FILENO, "standard error"}}) {
      struct stat fd_stat {};
      if (::fstat(fd, &fd_stat) == 0 && fd_stat.st_dev == target_stat.st_dev &&
          fd_stat.st_ino == target_stat.st_ino) {
        throw Error("cannot write " + path + ": it is " + name);
      }
    }
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
