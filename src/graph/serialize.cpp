#include "graph/serialize.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/string_util.h"

namespace gnn4ip::graph {

std::string to_dot(const Digraph& g, const std::string& graph_name) {
  std::ostringstream os;
  os << "digraph " << graph_name << " {\n";
  os << "  rankdir=BT;\n";
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const Node& node = g.node(static_cast<NodeId>(v));
    std::string label = node.name;
    label = util::replace_all(std::move(label), "\\", "\\\\");
    label = util::replace_all(std::move(label), "\"", "\\\"");
    os << "  n" << v << " [label=\"" << label << " : " << node.kind
       << "\"];\n";
  }
  for (const auto& [src, dst] : g.edges()) {
    os << "  n" << src << " -> n" << dst << ";\n";
  }
  os << "}\n";
  return os.str();
}

void write_text(std::ostream& os, const Digraph& g) {
  os << "gnn4ip-graph v1\n";
  os << "nodes " << g.num_nodes() << '\n';
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const Node& node = g.node(static_cast<NodeId>(v));
    os << node.kind << ' ' << node.name << '\n';
  }
  const auto edge_list = g.edges();
  os << "edges " << edge_list.size() << '\n';
  for (const auto& [src, dst] : edge_list) {
    os << src << ' ' << dst << '\n';
  }
}

namespace {

[[noreturn]] void malformed(const std::string& detail) {
  throw std::runtime_error("malformed gnn4ip-graph stream: " + detail);
}

}  // namespace

Digraph read_text(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || util::trim(line) != "gnn4ip-graph v1") {
    malformed("missing header");
  }
  std::size_t n = 0;
  if (!std::getline(is, line)) malformed("missing node count");
  {
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag >> n) || tag != "nodes") malformed("bad node count line");
  }
  // The counts are untrusted: nothing is reserved from them.
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::getline(is, line)) malformed("truncated node list");
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) malformed("bad node line");
    int kind = 0;
    try {
      kind = std::stoi(line.substr(0, space));
    } catch (const std::exception&) {
      malformed("bad node kind");
    }
    nodes.push_back({line.substr(space + 1), kind});
  }
  std::size_t m = 0;
  if (!std::getline(is, line)) malformed("missing edge count");
  {
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag >> m) || tag != "edges") malformed("bad edge count line");
  }
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < m; ++i) {
    if (!std::getline(is, line)) malformed("truncated edge list");
    std::istringstream ls(line);
    NodeId src = 0;
    NodeId dst = 0;
    if (!(ls >> src >> dst)) malformed("bad edge line");
    if (src < 0 || dst < 0 || static_cast<std::size_t>(src) >= nodes.size() ||
        static_cast<std::size_t>(dst) >= nodes.size()) {
      malformed("edge endpoint out of range");
    }
    edges.emplace_back(src, dst);
  }
  return Digraph(std::move(nodes), edges);
}

}  // namespace gnn4ip::graph
