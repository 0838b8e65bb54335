// Minimal JSON reader for the benchmark's own files: result records
// (`--record`, `run.sh --all`) and BENCHMARK.json. Accepts standard JSON;
// \u escapes decode to '?' since no file it reads carries them.
#pragma once

#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sensmart::bench {

struct Json {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  // Member `key` of an object, or nullptr.
  const Json* get(std::string_view key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
  // Number or string member `key`; 0 or empty when absent.
  double num(std::string_view key) const {
    const Json* v = get(key);
    return v && v->type == Type::Number ? v->number : 0.0;
  }
  std::string str(std::string_view key) const {
    const Json* v = get(key);
    return v && v->type == Type::String ? v->string : std::string();
  }
};

namespace detail {

class JsonParser {
 public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  std::optional<Json> document() {
    Json v;
    if (!value(v, 0)) return std::nullopt;
    skip_ws();
    if (i_ != s_.size()) return std::nullopt;
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  bool eat(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }

  bool string(std::string& out) {
    if (!eat('"')) return false;
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (i_ >= s_.size()) return false;
      const char e = s_[i_++];
      switch (e) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u':
          if (i_ + 4 > s_.size()) return false;
          i_ += 4;
          out.push_back('?');
          break;
        default: out.push_back(e); break;  // \" \\ \/
      }
    }
    return false;
  }

  bool value(Json& v, int depth) {
    if (depth > kMaxDepth) return false;
    skip_ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      v.type = Json::Type::Object;
      if (eat('}')) return true;
      do {
        std::string key;
        Json member;
        if (!string(key) || !eat(':') || !value(member, depth + 1))
          return false;
        v.object.emplace_back(std::move(key), std::move(member));
      } while (eat(','));
      return eat('}');
    }
    if (c == '[') {
      ++i_;
      v.type = Json::Type::Array;
      if (eat(']')) return true;
      do {
        Json item;
        if (!value(item, depth + 1)) return false;
        v.array.push_back(std::move(item));
      } while (eat(','));
      return eat(']');
    }
    if (c == '"') {
      v.type = Json::Type::String;
      return string(v.string);
    }
    if (literal("true")) {
      v.type = Json::Type::Bool;
      v.boolean = true;
      return true;
    }
    if (literal("false")) {
      v.type = Json::Type::Bool;
      return true;
    }
    if (literal("null")) return true;
    // Numbers: strtod on a bounded copy (the view need not be terminated).
    size_t end = i_;
    while (end < s_.size() &&
           std::string_view("+-0123456789.eE").find(s_[end]) !=
               std::string_view::npos)
      ++end;
    if (end == i_) return false;
    const std::string digits(s_.substr(i_, end - i_));
    char* stop = nullptr;
    v.type = Json::Type::Number;
    v.number = std::strtod(digits.c_str(), &stop);
    if (stop != digits.c_str() + digits.size()) return false;
    i_ = end;
    return true;
  }

  std::string_view s_;
  size_t i_ = 0;
};

}  // namespace detail

// Parse a whole document; nullopt if it is not valid JSON.
inline std::optional<Json> parse_json(std::string_view text) {
  return detail::JsonParser(text).document();
}

}  // namespace sensmart::bench
