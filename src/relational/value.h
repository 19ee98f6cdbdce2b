#ifndef OXML_RELATIONAL_VALUE_H_
#define OXML_RELATIONAL_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace oxml {

/// SQL types supported by the engine. BLOB is used for Dewey order keys,
/// whose byte-wise comparison *is* document order.
enum class TypeId : uint8_t {
  kNull = 0,
  kInt = 1,     // 64-bit signed
  kDouble = 2,  // IEEE 754 double
  kText = 3,    // UTF-8 string
  kBlob = 4,    // uninterpreted bytes, memcmp-ordered
};

const char* TypeIdToString(TypeId type);

/// A single typed SQL value (nullable).
class Value {
 public:
  Value() : type_(TypeId::kNull) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value out;
    out.type_ = TypeId::kInt;
    out.int_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.type_ = TypeId::kDouble;
    out.double_ = v;
    return out;
  }
  static Value Text(std::string v) {
    Value out;
    out.type_ = TypeId::kText;
    out.str_ = std::move(v);
    return out;
  }
  static Value Blob(std::string v) {
    Value out;
    out.type_ = TypeId::kBlob;
    out.str_ = std::move(v);
    return out;
  }
  /// Boolean results of predicates are represented as INT 0/1.
  static Value Bool(bool b) { return Int(b ? 1 : 0); }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  int64_t AsInt() const { return int_; }
  double AsDouble() const {
    return type_ == TypeId::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& AsString() const { return str_; }

  /// Truthiness for WHERE evaluation: non-zero numeric, NULL is false.
  bool IsTruthy() const;

  /// Three-way comparison. Numeric types compare cross-type (INT vs DOUBLE);
  /// NULL sorts before everything; comparing TEXT with numeric orders by
  /// type id (well-defined, never equal). Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Display form (used by result printing and tests). Blobs print as hex.
  std::string ToString() const;

  /// Stable hash for hash joins / grouping (numeric 3 and 3.0 hash equal).
  size_t Hash() const;

 private:
  TypeId type_;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string str_;
};

/// A row of values.
using Row = std::vector<Value>;

/// Hash of a full row (order-sensitive).
size_t HashRow(const Row& row);

/// Coerces `v` to a column of `type` as SQL INSERT and UPDATE store it:
/// INT -> DOUBLE promotion, DOUBLE -> INT truncation and TEXT/BLOB
/// interchange; NULL passes unchanged. InvalidArgument for other kinds.
Result<Value> CoerceTo(const Value& v, TypeId type);

}  // namespace oxml

#endif  // OXML_RELATIONAL_VALUE_H_
