#include "common/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace remo {

double Json::as_double() const {
  switch (type_) {
    case Type::kInt:
      return static_cast<double>(int_);
    case Type::kUint:
      return static_cast<double>(uint_);
    case Type::kDouble:
      return double_;
    default:
      return 0.0;
  }
}

std::int64_t Json::as_int() const {
  switch (type_) {
    case Type::kInt:
      return int_;
    case Type::kUint:
      return static_cast<std::int64_t>(uint_);
    case Type::kDouble:
      return static_cast<std::int64_t>(double_);
    default:
      return 0;
  }
}

std::uint64_t Json::as_uint() const {
  switch (type_) {
    case Type::kInt:
      return static_cast<std::uint64_t>(int_);
    case Type::kUint:
      return uint_;
    case Type::kDouble:
      return static_cast<std::uint64_t>(double_);
    default:
      return 0;
  }
}

Json& Json::operator[](const std::string& key) {
  type_ = Type::kObject;
  for (auto& [k, v] : members_)
    if (k == key) return v;
  members_.emplace_back(key, Json{});
  return members_.back().second;
}

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Serialisation
// ---------------------------------------------------------------------------

namespace {

void escape_into(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  char buf[40];
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kInt:
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(int_));
      out += buf;
      break;
    case Type::kUint:
      std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(uint_));
      out += buf;
      break;
    case Type::kDouble:
      if (std::isfinite(double_)) {
        // %.17g round-trips but litters files with noise digits; %.12g is
        // plenty for timing data and stays stable across runs.
        std::snprintf(buf, sizeof(buf), "%.12g", double_);
        out += buf;
      } else {
        out += "null";  // JSON has no Inf/NaN
      }
      break;
    case Type::kString:
      escape_into(out, str_);
      break;
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& item : items_) {
        if (!first) out.push_back(',');
        first = false;
        newline_indent(out, indent, depth + 1);
        item.dump_to(out, indent, depth + 1);
      }
      if (!items_.empty()) newline_indent(out, indent, depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) out.push_back(',');
        first = false;
        newline_indent(out, indent, depth + 1);
        escape_into(out, k);
        out += indent < 0 ? ":" : ": ";
        v.dump_to(out, indent, depth + 1);
      }
      if (!members_.empty()) newline_indent(out, indent, depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {

struct Parser {
  explicit Parser(std::string_view t) : text(t) {}

  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& msg) {
    if (error.empty()) {
      std::size_t line = 1, col = 1;
      for (std::size_t i = 0; i < pos && i < text.size(); ++i) {
        if (text[i] == '\n') {
          ++line;
          col = 1;
        } else {
          ++col;
        }
      }
      error = std::to_string(line) + ":" + std::to_string(col) + ": " + msg;
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r'))
      ++pos;
  }

  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool peek(char c) {
    skip_ws();
    return pos < text.size() && text[pos] == c;
  }

  bool parse_value(Json& out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') return parse_string_value(out);
    if (c == 't' || c == 'f') return parse_bool(out);
    if (c == 'n') return parse_null(out);
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
    return fail("unexpected character");
  }

  bool parse_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text.compare(pos, n, lit) != 0) return fail("invalid literal");
    pos += n;
    return true;
  }

  bool parse_null(Json& out) {
    out = Json{};
    return parse_literal("null");
  }

  bool parse_bool(Json& out) {
    if (text[pos] == 't') {
      out = Json(true);
      return parse_literal("true");
    }
    out = Json(false);
    return parse_literal("false");
  }

  bool parse_number(Json& out) {
    const std::size_t start = pos;
    bool is_float = false;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size()) {
      const char c = text[pos];
      if (c >= '0' && c <= '9') {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_float = true;
        ++pos;
      } else {
        break;
      }
    }
    const std::string token(text.substr(start, pos - start));
    if (token.empty() || token == "-") return fail("invalid number");
    errno = 0;
    char* end = nullptr;
    if (is_float) {
      const double d = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size()) return fail("invalid number");
      out = Json(d);
      return true;
    }
    if (token[0] == '-') {
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (end != token.c_str() + token.size() || errno == ERANGE)
        return fail("invalid number");
      out = Json(v);
      return true;
    }
    const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
    if (end != token.c_str() + token.size() || errno == ERANGE)
      return fail("invalid number");
    out = Json(v);
    return true;
  }

  bool parse_string_raw(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return fail("unterminated escape");
        const char esc = text[pos++];
        switch (esc) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                return fail("invalid \\u escape");
            }
            // UTF-8 encode (BMP only; surrogate pairs are not needed for
            // the machine-generated artefacts this parser validates).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return fail("invalid escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return fail("unterminated string");
  }

  bool parse_string_value(Json& out) {
    std::string s;
    if (!parse_string_raw(s)) return false;
    out = Json(std::move(s));
    return true;
  }

  bool parse_array(Json& out) {
    if (!consume('[')) return false;
    out = Json::array();
    if (peek(']')) {
      ++pos;
      return true;
    }
    while (true) {
      Json item;
      if (!parse_value(item)) return false;
      out.push_back(std::move(item));
      skip_ws();
      if (pos >= text.size()) return fail("unterminated array");
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == ']') {
        ++pos;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(Json& out) {
    if (!consume('{')) return false;
    out = Json::object();
    if (peek('}')) {
      ++pos;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string_raw(key)) return false;
      if (!consume(':')) return false;
      Json value;
      if (!parse_value(value)) return false;
      out[key] = std::move(value);
      skip_ws();
      if (pos >= text.size()) return fail("unterminated object");
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == '}') {
        ++pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }
};

}  // namespace

Json Json::parse(std::string_view text, std::string* error) {
  Parser p(text);
  Json out;
  if (!p.parse_value(out)) {
    if (error) *error = p.error;
    return Json{};
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    p.fail("trailing characters after value");
    if (error) *error = p.error;
    return Json{};
  }
  if (error) error->clear();
  return out;
}

}  // namespace remo
