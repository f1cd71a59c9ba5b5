// Parser for the Click configuration language subset In-Net clients use.
//
// Supported syntax:
//   // line comments and /* block comments */
//   name :: Class(arg1, arg2);          declarations
//   a -> b -> c;                        connection chains
//   a [1] -> [0] b;                     explicit ports
//   src -> Class(args) -> dst;          anonymous elements in chains
//   src -> name2 :: Class(args) -> x;   inline named declarations
//   elementclass Name { input -> ... -> output; };   compound elements
//
// Compound elements are expanded at parse time: each instantiation inlines
// the body with element names prefixed "<instance>." and the body's
// input/output pseudo-ports spliced onto the instance's connections.
//
// The parser produces a pure AST (ConfigGraph). Both the runtime graph
// (src/click/graph.h) and the symbolic model builder (src/symexec/) create its
// elements through the registry; the model builder then runs each element's
// Apply in place of its Push, which lets the controller analyze a
// configuration without running it.
#ifndef SRC_CLICK_CONFIG_PARSER_H_
#define SRC_CLICK_CONFIG_PARSER_H_

#include <optional>
#include <string>
#include <vector>

namespace innet::click {

struct ElementDecl {
  std::string name;
  std::string class_name;
  std::string args;
};

struct Connection {
  std::string from;
  int from_port = 0;
  std::string to;
  int to_port = 0;
};

struct ConfigGraph {
  std::vector<ElementDecl> elements;
  std::vector<Connection> connections;

  // Returns nullopt and fills *error on syntax errors (duplicate names,
  // references to undeclared elements, malformed tokens).
  static std::optional<ConfigGraph> Parse(const std::string& text, std::string* error);

  const ElementDecl* FindElement(const std::string& name) const;

  // Renders back to canonical Click syntax (used by the consolidator to build
  // merged multi-tenant configurations).
  std::string ToString() const;
};

}  // namespace innet::click

#endif  // SRC_CLICK_CONFIG_PARSER_H_
