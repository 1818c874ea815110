// The one way an output file is written: --json documents, Chrome traces and
// the tuning cache all go through write_file, so each is written whole or
// not at all.
#pragma once

#include <string>
#include <string_view>

namespace tc {

/// Replaces the file at `path` with `contents`. The bytes go to
/// `<target>.tmp.<pid>` beside the target, which is renamed over it once
/// flushed, so a reader sees the old file or the new one, never a torn one.
/// A symlinked target is resolved first: the link stays and its file is
/// replaced. A replaced file keeps its permission bits. An existing target
/// that is not a regular file (a device node, a FIFO, a directory), or that
/// is the file this process's standard output or error writes to, is
/// refused. On failure nothing is left behind and a tc::Error names `path`
/// as given: "cannot open <path> for writing" when the temporary file cannot
/// be created, else "cannot write <path>".
void write_file(const std::string& path, std::string_view contents);

}  // namespace tc
