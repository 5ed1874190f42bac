#include "json.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dinfomap_bench {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json document() {
    Json v = value();
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json: " + std::string(what) + " at offset " +
                             std::to_string(pos_));
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t'))
      ++pos_;
  }

  bool consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  void expect(char c) {
    skip_space();
    if (pos_ >= text_.size() || text_[pos_] != c) fail("unexpected character");
    ++pos_;
  }

  Json value() {
    skip_space();
    if (pos_ >= text_.size()) fail("unexpected end");
    Json v;
    const char c = text_[pos_];
    if (c == '{') {
      v.kind = Json::Kind::kObject;
      ++pos_;
      skip_space();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        skip_space();
        std::string key = string_literal();
        expect(':');
        v.object.emplace_back(std::move(key), value());
        skip_space();
        if (consume("}")) return v;
        expect(',');
      }
    }
    if (c == '[') {
      v.kind = Json::Kind::kArray;
      ++pos_;
      skip_space();
      if (consume("]")) return v;
      while (true) {
        v.array.push_back(value());
        skip_space();
        if (consume("]")) return v;
        expect(',');
      }
    }
    if (c == '"') {
      v.kind = Json::Kind::kString;
      v.string = string_literal();
      return v;
    }
    if (consume("true")) {
      v.kind = Json::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume("false")) {
      v.kind = Json::Kind::kBool;
      return v;
    }
    if (consume("null")) return v;
    // strtod needs a terminated buffer; numbers are short.
    std::size_t end = pos_;
    while (end < text_.size() &&
           std::string_view("+-0123456789.eE").find(text_[end]) !=
               std::string_view::npos)
      ++end;
    if (end == pos_) fail("unexpected character");
    const std::string digits(text_.substr(pos_, end - pos_));
    char* stop = nullptr;
    v.kind = Json::Kind::kNumber;
    v.number = std::strtod(digits.c_str(), &stop);
    if (stop != digits.c_str() + digits.size()) fail("malformed number");
    pos_ = end;
    return v;
  }

  std::string string_literal() {
    if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // Report strings are ASCII; keep a placeholder for the code unit.
            if (pos_ + 4 > text_.size()) fail("short \\u escape");
            pos_ += 4;
            c = '?';
            break;
          default: c = e;  // '"', '\\', '/'
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const Json& Json::operator[](std::string_view key) const {
  static const Json kNull;
  if (kind != Kind::kObject) return kNull;
  for (const auto& [k, v] : object)
    if (k == key) return v;
  return kNull;
}

Json parse_json(std::string_view text) { return Parser(text).document(); }

Json read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_json(text.str());
}

}  // namespace dinfomap_bench
