#include "model/export_dot.h"

#include <fstream>
#include <map>
#include <sstream>

#include "util/set_ops.h"

namespace goalrec::model {
namespace {

// DOT string literals: escape quotes and backslashes.
std::string Quote(const std::string& name) {
  std::string out = "\"";
  for (char c : name) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string ToDot(const ImplementationLibrary& library,
                  const DotOptions& options) {
  std::ostringstream out;
  out << "graph \"goalrec\" {\n";
  out << "  graph [rankdir=LR];\n";
  out << "  node [fontsize=10];\n";

  auto keep = [&](GoalId g) {
    return options.goals.empty() || util::Contains(options.goals, g);
  };

  // (goal, action) -> number of implementations of that goal containing the
  // action. std::map keeps the output deterministic.
  std::map<std::pair<GoalId, ActionId>, uint32_t> edges;
  IdSet used_goals;
  IdSet used_actions;
  for (ImplId p = 0; p < library.num_implementations(); ++p) {
    GoalId g = library.GoalOf(p);
    if (!keep(g)) continue;
    used_goals.push_back(g);
    for (ActionId a : library.ActionsOf(p)) {
      ++edges[{g, a}];
      used_actions.push_back(a);
    }
  }
  util::Normalize(used_goals);
  util::Normalize(used_actions);

  for (GoalId g : used_goals) {
    out << "  g" << g << " [shape=box, style=filled, fillcolor=lightblue, "
        << "label=" << Quote(library.goals().Name(g)) << "];\n";
  }
  for (ActionId a : used_actions) {
    out << "  a" << a << " [shape=ellipse, label="
        << Quote(library.actions().Name(a)) << "];\n";
  }
  for (const auto& [edge, count] : edges) {
    out << "  g" << edge.first << " -- a" << edge.second;
    if (count > 1) out << " [label=\"x" << count << "\"]";
    out << ";\n";
  }
  out << "}\n";
  return out.str();
}

util::Status ExportDot(const ImplementationLibrary& library,
                       const std::string& path, const DotOptions& options) {
  std::ofstream out(path);
  if (!out) return util::IoError("cannot open " + path + " for writing");
  out << ToDot(library, options);
  if (!out) return util::IoError("write failed: " + path);
  return util::Status::Ok();
}

}  // namespace goalrec::model
