#include "src/relational/value.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>

#include "src/common/strings.h"

namespace oxml {

const char* TypeIdToString(TypeId type) {
  switch (type) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kInt:
      return "INT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kText:
      return "TEXT";
    case TypeId::kBlob:
      return "BLOB";
  }
  return "UNKNOWN";
}

bool Value::IsTruthy() const {
  switch (type_) {
    case TypeId::kNull:
      return false;
    case TypeId::kInt:
      return int_ != 0;
    case TypeId::kDouble:
      return double_ != 0.0;
    case TypeId::kText:
    case TypeId::kBlob:
      return !str_.empty();
  }
  return false;
}

namespace {

bool IsNumeric(TypeId t) { return t == TypeId::kInt || t == TypeId::kDouble; }

/// Maps a double to a uint64 whose unsigned order is the IEEE-754 total
/// order — the exact transform EncodeKeyValue applies before big-endian
/// serialization, so Compare agrees byte-for-byte with index key order.
/// In particular NaNs have a definite rank (-NaN below -inf, +NaN above
/// +inf) instead of comparing "equal" to everything, which would break the
/// strict weak ordering SortOp and MergeJoinOp rely on.
uint64_t DoubleTotalOrderBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  if (bits & 0x8000000000000000ULL) return ~bits;
  return bits ^ 0x8000000000000000ULL;
}

int CompareDouble(double a, double b) {
  uint64_t ba = DoubleTotalOrderBits(a);
  uint64_t bb = DoubleTotalOrderBits(b);
  if (ba < bb) return -1;
  if (ba > bb) return 1;
  return 0;
}

/// Exact int64 vs double comparison. Converting the int to double (the old
/// behavior) collapses distinct values above 2^53 to "equal"; instead the
/// double is split into integral and fractional parts and compared in
/// integer space. Returns the sign of (i <=> d).
int CompareIntDouble(int64_t i, double d) {
  if (std::isnan(d)) return std::signbit(d) ? 1 : -1;
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63, exact
  if (d >= kTwo63) return -1;
  if (d < -kTwo63) return 1;
  // d is now in [-2^63, 2^63). If |d| >= 2^53 the double is an exact
  // integer; otherwise trunc(d) fits in 53 bits. Either way the truncation
  // and the cast back are exact.
  int64_t t = static_cast<int64_t>(d);
  if (i != t) return i < t ? -1 : 1;
  double frac = d - static_cast<double>(t);
  if (frac > 0) return -1;
  if (frac < 0) return 1;
  // Equal as reals; delegate so that int 0 vs -0.0 ranks like +0.0 vs -0.0
  // (the total order distinguishes zero signs).
  return CompareDouble(static_cast<double>(t), d);
}

}  // namespace

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  if (IsNumeric(type_) && IsNumeric(other.type_)) {
    if (type_ == TypeId::kInt && other.type_ == TypeId::kInt) {
      if (int_ < other.int_) return -1;
      if (int_ > other.int_) return 1;
      return 0;
    }
    if (type_ == TypeId::kInt) return CompareIntDouble(int_, other.double_);
    if (other.type_ == TypeId::kInt) {
      return -CompareIntDouble(other.int_, double_);
    }
    return CompareDouble(double_, other.double_);
  }
  if (type_ != other.type_) {
    return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
  }
  // TEXT vs TEXT or BLOB vs BLOB: byte-wise.
  int c = str_.compare(other.str_);
  if (c < 0) return -1;
  if (c > 0) return 1;
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kInt:
      return std::to_string(int_);
    case TypeId::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", double_);
      return buf;
    }
    case TypeId::kText:
      return str_;
    case TypeId::kBlob:
      return "x'" + ToHex(str_) + "'";
  }
  return "?";
}

size_t Value::Hash() const {
  switch (type_) {
    case TypeId::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case TypeId::kInt:
      return std::hash<double>()(static_cast<double>(int_));
    case TypeId::kDouble:
      return std::hash<double>()(double_);
    case TypeId::kText:
    case TypeId::kBlob:
      return std::hash<std::string>()(str_);
  }
  return 0;
}

size_t HashRow(const Row& row) {
  size_t h = 14695981039346656037ULL;
  for (const Value& v : row) {
    h ^= v.Hash();
    h *= 1099511628211ULL;
  }
  return h;
}

Result<Value> CoerceTo(const Value& v, TypeId type) {
  if (v.is_null()) return v;
  if (v.type() == type) return v;
  switch (type) {
    case TypeId::kDouble:
      if (v.type() == TypeId::kInt) return Value::Double(v.AsDouble());
      break;
    case TypeId::kInt:
      // Truncates; a NaN or a value outside int64's range has no INT.
      if (v.type() == TypeId::kDouble && std::isfinite(v.AsDouble()) &&
          std::fabs(v.AsDouble()) < std::ldexp(1.0, 63)) {
        return Value::Int(static_cast<int64_t>(v.AsDouble()));
      }
      break;
    case TypeId::kText:
      if (v.type() == TypeId::kBlob) return Value::Text(v.AsString());
      break;
    case TypeId::kBlob:
      if (v.type() == TypeId::kText) return Value::Blob(v.AsString());
      break;
    default:
      break;
  }
  return Status::InvalidArgument(std::string("cannot coerce ") +
                                 TypeIdToString(v.type()) + " to " +
                                 TypeIdToString(type));
}

}  // namespace oxml
