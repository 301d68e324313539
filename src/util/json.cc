#include "util/json.hh"

#include <cassert>
#include <cmath>
#include <cstdio>

#include "util/spec_text.hh"

namespace pddl {

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

Json &
Json::push(Json value)
{
    assert(kind_ == Kind::Array);
    items_.push_back(std::move(value));
    return *this;
}

Json &
Json::set(const std::string &key, Json value)
{
    assert(kind_ == Kind::Object);
    for (auto &member : members_) {
        if (member.first == key) {
            member.second = std::move(value);
            return *this;
        }
    }
    members_.emplace_back(key, std::move(value));
    return *this;
}

void
Json::escape(std::string &out, const std::string &s)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

void
Json::write(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent <= 0)
            return;
        out += '\n';
        out.append(static_cast<size_t>(indent * d), ' ');
    };
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Integer: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(integer_));
        out += buf;
        break;
      }
      case Kind::Number: {
        if (!std::isfinite(number_)) {
            out += "null"; // JSON has no inf/nan
            break;
        }
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", number_);
        out += buf;
        break;
      }
      case Kind::String:
        escape(out, string_);
        break;
      case Kind::Array:
        if (items_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (size_t i = 0; i < items_.size(); ++i) {
            if (i > 0)
                out += ',';
            newline(depth + 1);
            items_[i].write(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      case Kind::Object:
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (size_t i = 0; i < members_.size(); ++i) {
            if (i > 0)
                out += ',';
            newline(depth + 1);
            escape(out, members_[i].first);
            out += indent > 0 ? ": " : ":";
            members_[i].second.write(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    write(out, indent, 0);
    if (indent > 0)
        out += '\n';
    return out;
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &member : members_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

namespace {

/** Recursive-descent JSON reader with line/column error anchors. */
class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : text_(text) {}

    bool
    parse(Json &out, std::string &error)
    {
        skipSpace();
        if (!value(out)) {
            error = errorAt();
            return false;
        }
        skipSpace();
        if (pos_ != text_.size()) {
            message_ = "trailing content after the document";
            error = errorAt();
            return false;
        }
        return true;
    }

  private:
    bool
    value(Json &out)
    {
        if (pos_ >= text_.size()) {
            message_ = "unexpected end of input";
            return false;
        }
        switch (text_[pos_]) {
          case '{': return object(out);
          case '[': return array(out);
          case '"': return string(out);
          case 't': return literal("true", Json(true), out);
          case 'f': return literal("false", Json(false), out);
          case 'n': return literal("null", Json(), out);
          default: return number(out);
        }
    }

    bool
    object(Json &out)
    {
        ++pos_; // '{'
        out = Json::object();
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipSpace();
            if (peek() != '"') {
                message_ = "expected an object key string";
                return false;
            }
            Json key;
            if (!string(key))
                return false;
            skipSpace();
            if (peek() != ':') {
                message_ = "expected ':' after object key";
                return false;
            }
            ++pos_;
            skipSpace();
            Json member;
            if (!value(member))
                return false;
            out.set(key.asString(), std::move(member));
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            message_ = "expected ',' or '}' in object";
            return false;
        }
    }

    bool
    array(Json &out)
    {
        ++pos_; // '['
        out = Json::array();
        skipSpace();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipSpace();
            Json item;
            if (!value(item))
                return false;
            out.push(std::move(item));
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            message_ = "expected ',' or ']' in array";
            return false;
        }
    }

    bool
    string(Json &out)
    {
        ++pos_; // '"'
        std::string s;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                out = Json(std::move(s));
                return true;
            }
            if (c == '\\') {
                if (pos_ + 1 >= text_.size())
                    break;
                char esc = text_[++pos_];
                switch (esc) {
                  case '"': s += '"'; break;
                  case '\\': s += '\\'; break;
                  case '/': s += '/'; break;
                  case 'b': s += '\b'; break;
                  case 'f': s += '\f'; break;
                  case 'n': s += '\n'; break;
                  case 'r': s += '\r'; break;
                  case 't': s += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 >= text_.size()) {
                        message_ = "truncated \\u escape";
                        return false;
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text_[++pos_];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code += static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code += static_cast<unsigned>(h - 'a') + 10;
                        else if (h >= 'A' && h <= 'F')
                            code += static_cast<unsigned>(h - 'A') + 10;
                        else {
                            message_ = "bad hex digit in \\u escape";
                            return false;
                        }
                    }
                    // Encode as UTF-8 (surrogates pass through as
                    // three-byte sequences; the writer only emits
                    // \u for control characters anyway).
                    if (code < 0x80) {
                        s += static_cast<char>(code);
                    } else if (code < 0x800) {
                        s += static_cast<char>(0xc0 | (code >> 6));
                        s += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        s += static_cast<char>(0xe0 | (code >> 12));
                        s += static_cast<char>(0x80 |
                                               ((code >> 6) & 0x3f));
                        s += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default:
                    message_ = "unknown escape character";
                    return false;
                }
                ++pos_;
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                message_ = "raw control character in string";
                return false;
            }
            s += c;
            ++pos_;
        }
        message_ = "unterminated string";
        return false;
    }

    bool
    number(Json &out)
    {
        const size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        bool integral = true;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start || (pos_ == start + 1 && peek0(start) == '-')) {
            message_ = "expected a JSON value";
            pos_ = start;
            return false;
        }
        const std::string_view token =
            std::string_view(text_).substr(start, pos_ - start);
        if (integral) {
            int64_t v = 0;
            if (!spec_text::parseInt(token, v)) {
                message_ = "integer literal outside the signed 64-bit "
                           "range";
                pos_ = start;
                return false;
            }
            out = Json(v);
            return true;
        }
        double d = 0.0;
        if (!spec_text::parseReal(token, d)) {
            message_ = "malformed or out-of-range number";
            pos_ = start;
            return false;
        }
        out = Json(d);
        return true;
    }

    bool
    literal(const char *word, Json value, Json &out)
    {
        const size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0) {
            message_ = "expected a JSON value";
            return false;
        }
        pos_ += len;
        out = std::move(value);
        return true;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
    char peek0(size_t p) const { return p < text_.size() ? text_[p] : '\0'; }

    /** "line L, column C: message" for the current position. */
    std::string
    errorAt() const
    {
        size_t line = 1, column = 1;
        for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                column = 1;
            } else {
                ++column;
            }
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "line %zu, column %zu: ", line,
                      column);
        return std::string(buf) +
               (message_.empty() ? "malformed JSON" : message_);
    }

    const std::string &text_;
    size_t pos_ = 0;
    std::string message_;
};

} // namespace

bool
Json::parse(const std::string &text, Json &out, std::string &error)
{
    JsonReader reader(text);
    return reader.parse(out, error);
}

} // namespace pddl
