#include "src/click/config_parser.h"

#include <cctype>
#include <charconv>
#include <sstream>
#include <unordered_map>

namespace innet::click {
namespace {

enum class TokenKind { kIdent, kNumber, kArrow, kDoubleColon, kLBracket, kRBracket,
                       kLBrace, kRBrace, kSemicolon, kArgs, kEnd };

struct Token {
  TokenKind kind;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  // Returns false and sets *error on malformed input.
  bool Tokenize(std::vector<Token>* tokens, std::string* error) {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') {
          ++pos_;
        }
        continue;
      }
      if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '*') {
        size_t close = text_.find("*/", pos_ + 2);
        if (close == std::string::npos) {
          *error = "unterminated block comment";
          return false;
        }
        pos_ = close + 2;
        continue;
      }
      if (c == '-' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
        tokens->push_back({TokenKind::kArrow, "->"});
        pos_ += 2;
        continue;
      }
      if (c == ':' && pos_ + 1 < text_.size() && text_[pos_ + 1] == ':') {
        tokens->push_back({TokenKind::kDoubleColon, "::"});
        pos_ += 2;
        continue;
      }
      if (c == '[') {
        tokens->push_back({TokenKind::kLBracket, "["});
        ++pos_;
        continue;
      }
      if (c == ']') {
        tokens->push_back({TokenKind::kRBracket, "]"});
        ++pos_;
        continue;
      }
      if (c == ';') {
        tokens->push_back({TokenKind::kSemicolon, ";"});
        ++pos_;
        continue;
      }
      if (c == '{') {
        tokens->push_back({TokenKind::kLBrace, "{"});
        ++pos_;
        continue;
      }
      if (c == '}') {
        tokens->push_back({TokenKind::kRBrace, "}"});
        ++pos_;
        continue;
      }
      if (c == '(') {
        // Capture the balanced-paren argument string verbatim.
        int depth = 0;
        size_t start = pos_ + 1;
        size_t i = pos_;
        for (; i < text_.size(); ++i) {
          if (text_[i] == '(') {
            ++depth;
          } else if (text_[i] == ')') {
            if (--depth == 0) {
              break;
            }
          }
        }
        if (depth != 0) {
          *error = "unbalanced parentheses";
          return false;
        }
        tokens->push_back({TokenKind::kArgs, text_.substr(start, i - start)});
        pos_ = i + 1;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t start = pos_;
        while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
        tokens->push_back({TokenKind::kNumber, text_.substr(start, pos_ - start)});
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        // '@' is allowed inside identifiers so generated anonymous-element
        // names ("Counter@2") survive a ToString/Parse round trip; '.' so
        // expanded compound-element names ("fw.filter") do too.
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_' ||
                text_[pos_] == '@' || text_[pos_] == '.')) {
          ++pos_;
        }
        tokens->push_back({TokenKind::kIdent, text_.substr(start, pos_ - start)});
        continue;
      }
      *error = std::string("unexpected character '") + c + "'";
      return false;
    }
    tokens->push_back({TokenKind::kEnd, ""});
    return true;
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

// Bodies of `elementclass` definitions, keyed by class name. The pseudo
// element class used for a body's input/output ports.
constexpr const char* kPortPseudoClass = "__port__";
using CompoundMap = std::unordered_map<std::string, ConfigGraph>;

class Parser {
 public:
  // Non-nested parser: owns the token vector.
  Parser(std::vector<Token> tokens, ConfigGraph* out, CompoundMap* compounds)
      : owned_tokens_(std::move(tokens)),
        tokens_(owned_tokens_),
        out_(out),
        compounds_(compounds) {}

  bool Parse(std::string* error) {
    while (Peek().kind != TokenKind::kEnd) {
      if (nested_ && Peek().kind == TokenKind::kRBrace) {
        ++pos_;
        return true;
      }
      if (Peek().kind == TokenKind::kSemicolon) {
        ++pos_;
        continue;
      }
      if (!ParseStatement(error)) {
        return false;
      }
    }
    if (nested_) {
      *error = "unterminated elementclass body";
      return false;
    }
    return true;
  }

  size_t position() const { return pos_; }

 private:
  // Nested parser over a shared token stream (an elementclass body).
  Parser(const std::vector<Token>& tokens, size_t start, ConfigGraph* out,
         CompoundMap* compounds)
      : tokens_(tokens), pos_(start), out_(out), compounds_(compounds), nested_(true) {
    // The body's port pseudo-elements are implicitly declared.
    DeclarePseudo("input");
    DeclarePseudo("output");
  }

  void DeclarePseudo(const std::string& name) {
    declared_.insert({name, out_->elements.size()});
    out_->elements.push_back({name, kPortPseudoClass, ""});
  }

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  bool Expect(TokenKind kind, const char* what, std::string* error) {
    if (Peek().kind != kind) {
      *error = std::string("expected ") + what + " near '" + Peek().text + "'";
      return false;
    }
    ++pos_;
    return true;
  }

  bool DeclareElement(const std::string& name, const std::string& class_name,
                      const std::string& args, std::string* error) {
    if (declared_.count(name) != 0) {
      *error = "duplicate element name '" + name + "'";
      return false;
    }
    declared_.insert({name, out_->elements.size()});
    out_->elements.push_back({name, class_name, args});
    return true;
  }

  // Parses the port number after a '['; false and *error when there is none
  // or it does not fit an int.
  bool ParsePort(int* port, std::string* error) {
    const Token& token = Peek();
    if (token.kind != TokenKind::kNumber) {
      *error = "expected port number after '['";
      return false;
    }
    const char* end = token.text.data() + token.text.size();
    if (std::from_chars(token.text.data(), end, *port).ec != std::errc()) {
      *error = "port number " + token.text + " out of range";
      return false;
    }
    ++pos_;
    return true;
  }

  // Parses one endpoint of a connection chain. On success sets *name, and
  // *in_port / *out_port when the [n] syntax is present.
  bool ParseEndpoint(std::string* name, int* in_port, int* out_port, std::string* error) {
    *in_port = 0;
    *out_port = 0;
    if (Peek().kind == TokenKind::kLBracket) {
      ++pos_;
      if (!ParsePort(in_port, error)) {
        return false;
      }
      if (!Expect(TokenKind::kRBracket, "']'", error)) {
        return false;
      }
    }
    if (Peek().kind != TokenKind::kIdent) {
      *error = "expected element reference near '" + Peek().text + "'";
      return false;
    }
    std::string ident = Peek().text;
    ++pos_;

    if (Peek().kind == TokenKind::kDoubleColon) {
      // Inline declaration: name :: Class(args)
      ++pos_;
      if (Peek().kind != TokenKind::kIdent) {
        *error = "expected class name after '::'";
        return false;
      }
      std::string class_name = Peek().text;
      ++pos_;
      std::string args;
      if (Peek().kind == TokenKind::kArgs) {
        args = Peek().text;
        ++pos_;
      }
      if (!DeclareElement(ident, class_name, args, error)) {
        return false;
      }
      *name = ident;
    } else if (Peek().kind == TokenKind::kArgs ||
               (declared_.count(ident) == 0 && !ident.empty() &&
                std::isupper(static_cast<unsigned char>(ident[0])))) {
      // Anonymous element: Class or Class(args).
      std::string args;
      if (Peek().kind == TokenKind::kArgs) {
        args = Peek().text;
        ++pos_;
      }
      std::string anon = ident + "@" + std::to_string(out_->elements.size());
      if (!DeclareElement(anon, ident, args, error)) {
        return false;
      }
      *name = anon;
    } else {
      if (declared_.count(ident) == 0) {
        *error = "reference to undeclared element '" + ident + "'";
        return false;
      }
      *name = ident;
    }

    if (Peek().kind == TokenKind::kLBracket) {
      ++pos_;
      if (!ParsePort(out_port, error)) {
        return false;
      }
      if (!Expect(TokenKind::kRBracket, "']'", error)) {
        return false;
      }
    }
    return true;
  }

  bool ParseStatement(std::string* error) {
    // elementclass Name { ... } — top level only.
    if (Peek().kind == TokenKind::kIdent && Peek().text == "elementclass") {
      if (nested_) {
        *error = "elementclass definitions cannot nest";
        return false;
      }
      ++pos_;
      if (Peek().kind != TokenKind::kIdent) {
        *error = "expected a class name after 'elementclass'";
        return false;
      }
      std::string class_name = Peek().text;
      ++pos_;
      if (!Expect(TokenKind::kLBrace, "'{'", error)) {
        return false;
      }
      ConfigGraph body;
      Parser body_parser(tokens_, pos_, &body, compounds_);
      if (!body_parser.Parse(error)) {
        return false;
      }
      pos_ = body_parser.position();
      if (compounds_->count(class_name) != 0) {
        *error = "duplicate elementclass '" + class_name + "'";
        return false;
      }
      compounds_->emplace(class_name, std::move(body));
      // Optional trailing ';'.
      if (Peek().kind == TokenKind::kSemicolon) {
        ++pos_;
      }
      return true;
    }

    // Standalone declaration: ident :: Class(args) ;  — but this is also the
    // prefix of a connection chain, so parse an endpoint first and look for
    // '->'.
    std::string from;
    int from_in = 0;
    int from_out = 0;
    if (!ParseEndpoint(&from, &from_in, &from_out, error)) {
      return false;
    }
    while (Peek().kind == TokenKind::kArrow) {
      ++pos_;
      std::string to;
      int to_in = 0;
      int to_out = 0;
      if (!ParseEndpoint(&to, &to_in, &to_out, error)) {
        return false;
      }
      out_->connections.push_back({from, from_out, to, to_in});
      from = to;
      from_out = to_out;
    }
    return Expect(TokenKind::kSemicolon, "';'", error);
  }

  std::vector<Token> owned_tokens_;
  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
  ConfigGraph* out_;
  CompoundMap* compounds_;
  bool nested_ = false;
  std::unordered_map<std::string, size_t> declared_;
};

// --- Compound expansion -----------------------------------------------------------

// Inlines one instantiation of a compound class into `graph`.
bool InlineCompound(ConfigGraph* graph, size_t decl_index, const ConfigGraph& body,
                    std::string* error) {
  const std::string instance = graph->elements[decl_index].name;
  const std::string prefix = instance + ".";

  // Where the body's input/output ports lead.
  //   input[q] -> (x, r)   : traffic entering the compound on port q
  //   (y, r) -> output[q]  : traffic leaving on port q
  std::unordered_map<int, std::vector<std::pair<std::string, int>>> in_map;
  std::unordered_map<int, std::vector<std::pair<std::string, int>>> out_map;
  std::vector<Connection> internal;
  for (const Connection& conn : body.connections) {
    bool from_input = conn.from == "input";
    bool to_output = conn.to == "output";
    if (from_input && to_output) {
      *error = "compound '" + instance + "': input wired directly to output is unsupported";
      return false;
    }
    if (from_input) {
      in_map[conn.from_port].emplace_back(conn.to, conn.to_port);
    } else if (to_output) {
      out_map[conn.to_port].emplace_back(conn.from, conn.from_port);
    } else {
      internal.push_back(conn);
    }
  }

  // Replace the declaration with the body's (prefixed) elements.
  std::vector<ElementDecl> new_elements;
  for (size_t i = 0; i < graph->elements.size(); ++i) {
    if (i != decl_index) {
      new_elements.push_back(graph->elements[i]);
    }
  }
  for (const ElementDecl& decl : body.elements) {
    if (decl.class_name != kPortPseudoClass) {
      new_elements.push_back({prefix + decl.name, decl.class_name, decl.args});
    }
  }

  // Rewire: connections touching the instance splice through the port maps.
  std::vector<Connection> new_connections;
  for (const Connection& conn : graph->connections) {
    std::vector<Connection> expanded = {conn};
    if (conn.to == instance) {
      std::vector<Connection> next;
      for (const Connection& e : expanded) {
        auto targets = in_map.find(e.to_port);
        if (targets == in_map.end()) {
          *error = "compound '" + instance + "' has no input port " +
                   std::to_string(e.to_port);
          return false;
        }
        for (const auto& [x, r] : targets->second) {
          next.push_back({e.from, e.from_port, prefix + x, r});
        }
      }
      expanded = std::move(next);
    }
    if (conn.from == instance) {
      std::vector<Connection> next;
      for (const Connection& e : expanded) {
        auto sources = out_map.find(conn.from_port);
        if (sources == out_map.end()) {
          *error = "compound '" + instance + "' has no output port " +
                   std::to_string(conn.from_port);
          return false;
        }
        for (const auto& [y, r] : sources->second) {
          next.push_back({prefix + y, r, e.to, e.to_port});
        }
      }
      expanded = std::move(next);
    }
    for (Connection& e : expanded) {
      new_connections.push_back(std::move(e));
    }
  }
  for (const Connection& conn : internal) {
    new_connections.push_back(
        {prefix + conn.from, conn.from_port, prefix + conn.to, conn.to_port});
  }

  graph->elements = std::move(new_elements);
  graph->connections = std::move(new_connections);
  return true;
}

// Repeatedly inlines compound instantiations (compounds may use compounds).
bool ExpandCompounds(ConfigGraph* graph, const CompoundMap& compounds, std::string* error) {
  for (int depth = 0; depth < 16; ++depth) {
    size_t target = graph->elements.size();
    for (size_t i = 0; i < graph->elements.size(); ++i) {
      if (compounds.count(graph->elements[i].class_name) != 0) {
        target = i;
        break;
      }
    }
    if (target == graph->elements.size()) {
      return true;
    }
    const ConfigGraph& body = compounds.at(graph->elements[target].class_name);
    if (!InlineCompound(graph, target, body, error)) {
      return false;
    }
  }
  *error = "elementclass expansion too deep (cycle?)";
  return false;
}

}  // namespace

std::optional<ConfigGraph> ConfigGraph::Parse(const std::string& text, std::string* error) {
  ConfigGraph graph;
  std::vector<Token> tokens;
  Lexer lexer(text);
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  if (!lexer.Tokenize(&tokens, error)) {
    return std::nullopt;
  }
  CompoundMap compounds;
  Parser parser(std::move(tokens), &graph, &compounds);
  if (!parser.Parse(error)) {
    return std::nullopt;
  }
  if (!compounds.empty() && !ExpandCompounds(&graph, compounds, error)) {
    return std::nullopt;
  }
  return graph;
}

const ElementDecl* ConfigGraph::FindElement(const std::string& name) const {
  for (const ElementDecl& decl : elements) {
    if (decl.name == name) {
      return &decl;
    }
  }
  return nullptr;
}

std::string ConfigGraph::ToString() const {
  std::ostringstream out;
  for (const ElementDecl& decl : elements) {
    out << decl.name << " :: " << decl.class_name << "(" << decl.args << ");\n";
  }
  for (const Connection& conn : connections) {
    out << conn.from;
    if (conn.from_port != 0) {
      out << "[" << conn.from_port << "]";
    }
    out << " -> ";
    if (conn.to_port != 0) {
      out << "[" << conn.to_port << "]";
    }
    out << conn.to << ";\n";
  }
  return out.str();
}

}  // namespace innet::click
