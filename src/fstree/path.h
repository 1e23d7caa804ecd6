// Slash-separated path utilities (used at the edges of the system: tests,
// examples, the generator). The simulation hot path works on node pointers
// and inode ids, not strings.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mdsim {

/// Split "/a/b/c" into {"a","b","c"}. Leading/duplicate slashes ignored.
std::vector<std::string> split_path(std::string_view path);

/// Join components into "/a/b/c". Empty input yields "/".
std::string join_path(const std::vector<std::string>& components);

/// True if `prefix` is an ancestor-or-equal path of `path` (component-wise).
bool path_has_prefix(std::string_view path, std::string_view prefix);

/// `prefix` followed by the decimal digits of `n`: numbered("f", 12) is
/// "f12". It appends, where `"f" + std::to_string(n)` inserts at the front
/// of the temporary, which GCC 12 at -O3 flags with a false -Wrestrict.
std::string numbered(std::string prefix, std::uint64_t n);

}  // namespace mdsim
