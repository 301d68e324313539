/**
 * @file
 * Minimal JSON document builder and parser for machine-readable
 * bench results and serializable scenario descriptions.
 *
 * The harness emits JSON (BENCH_<figure>.json files) and -- since the
 * ScenarioSpec API -- also *reads* it back: a dumped winning
 * configuration must replay bit-identically from the file alone. The
 * value tree keeps object insertion order, numbers print with enough
 * digits to round-trip doubles, strings are escaped per RFC 8259,
 * and parse errors are anchored to a line and column. No
 * dependencies.
 */

#ifndef PDDL_UTIL_JSON_HH
#define PDDL_UTIL_JSON_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pddl {

/** One JSON value: null, bool, number, string, array or object. */
class Json
{
  public:
    Json() : kind_(Kind::Null) {}
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(double d) : kind_(Kind::Number), number_(d) {}
    Json(int v) : kind_(Kind::Integer), integer_(v) {}
    Json(int64_t v) : kind_(Kind::Integer), integer_(v) {}
    Json(uint64_t v)
        : kind_(Kind::Integer), integer_(static_cast<int64_t>(v))
    {
        // Seeds are emitted as their signed-64 bit pattern; the
        // schema documents the reinterpretation.
    }
    Json(const char *s) : kind_(Kind::String), string_(s) {}
    Json(std::string s) : kind_(Kind::String), string_(std::move(s)) {}

    /** Empty array. */
    static Json array();
    /** Empty object. */
    static Json object();

    /** Append to an array (the value must be an array). */
    Json &push(Json value);

    /** Set object key (the value must be an object). Returns *this. */
    Json &set(const std::string &key, Json value);

    /** Serialize; `indent` > 0 pretty-prints, 0 is compact. */
    std::string dump(int indent = 2) const;

    /**
     * Parse a JSON text into `out`. On failure returns false and
     * fills `error` with a "line L, column C: what" diagnostic --
     * the anchor the ScenarioSpec loader prefixes with its source
     * (file name or flag) so a malformed config points at the exact
     * offending character.
     */
    static bool parse(const std::string &text, Json &out,
                      std::string &error);

    // ---- Read API (for parsed documents) ----

    bool isBool() const { return kind_ == Kind::Bool; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool
    isNumber() const
    {
        return kind_ == Kind::Number || kind_ == Kind::Integer;
    }

    /** A number written with neither fraction nor exponent. */
    bool isInteger() const { return kind_ == Kind::Integer; }

    bool asBool() const { return bool_; }
    const std::string &asString() const { return string_; }

    /** Numeric value (Integer or Number); 0 for other kinds. */
    double
    asDouble() const
    {
        if (kind_ == Kind::Integer)
            return static_cast<double>(integer_);
        return kind_ == Kind::Number ? number_ : 0.0;
    }

    /** Integer value (truncating a Number); 0 for other kinds. */
    int64_t
    asInt() const
    {
        if (kind_ == Kind::Number)
            return static_cast<int64_t>(number_);
        return kind_ == Kind::Integer ? integer_ : 0;
    }

    /** Array element count (0 for non-arrays). */
    size_t size() const { return items_.size(); }

    /** Array element `i` (the value must be an array). */
    const Json &at(size_t i) const { return items_[i]; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Object members in insertion order (empty for non-objects). */
    const std::vector<std::pair<std::string, Json>> &
    members() const
    {
        return members_;
    }

  private:
    enum class Kind { Null, Bool, Number, Integer, String, Array, Object };

    void write(std::string &out, int indent, int depth) const;
    static void escape(std::string &out, const std::string &s);

    Kind kind_;
    bool bool_ = false;
    double number_ = 0.0;
    int64_t integer_ = 0;
    std::string string_;
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> members_;
};

} // namespace pddl

#endif // PDDL_UTIL_JSON_HH
