#include "fstree/path.h"

namespace mdsim {

std::vector<std::string> split_path(std::string_view path) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    std::size_t j = i;
    while (j < path.size() && path[j] != '/') ++j;
    if (j > i) out.emplace_back(path.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string join_path(const std::vector<std::string>& components) {
  if (components.empty()) return "/";
  std::string out;
  for (const auto& c : components) {
    out += '/';
    out += c;
  }
  return out;
}

bool path_has_prefix(std::string_view path, std::string_view prefix) {
  const auto p = split_path(path);
  const auto q = split_path(prefix);
  if (q.size() > p.size()) return false;
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (p[i] != q[i]) return false;
  }
  return true;
}

std::string numbered(std::string prefix, std::uint64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

}  // namespace mdsim
