// Numbers to text and back without iostreams, for the checkpoint formats.
//
// The writers append to a caller's std::string through std::to_chars, so a
// buffer with room takes a whole record without allocating.  Reader parses
// a std::string_view in place through std::from_chars.  A double written
// at 17 significant digits reads back bit for bit.
//
// Reader takes whitespace-separated tokens as operator>> does in the "C"
// locale: leading whitespace (" \t\n\v\f\r") is skipped and the text after
// the last token read is never looked at.  It is stricter in what a number
// may look like, and rejects what operator>> reads as follows:
//   * a number that runs into the next token, with no whitespace between
//     them ("5-3", "1.5e", "0x1p3"; operator>> reads "5" and then "-3");
//   * a leading '+' ("+5");
//   * a '-' in an unsigned field ("-1", which operator>> wraps to
//     2^64 - 1, and "-0");
//   * a decimal number that underflows to zero ("1e-400"; subnormal
//     values read exactly).
// It rejects "inf", "nan" and hex-float tokens, as operator>> does.
#ifndef HORIZON_COMMON_TEXT_CODEC_H_
#define HORIZON_COMMON_TEXT_CODEC_H_

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace horizon::text {

/// Appends the decimal digits of `value` (and its '-').
template <typename Int>
void AppendInt(std::string* out, Int value) {
  static_assert(std::is_integral_v<Int>);
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// Appends `value` as printf("%.*g", digits, value) writes it.  17 digits,
/// the default, reads back as the same double.
void AppendDouble(std::string* out, double value, int digits = 17);

/// Whether `c` is whitespace in the "C" locale.
constexpr bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// A cursor over text holding whitespace-separated tokens.  Every read
/// returns false on malformed input; the cursor is then unspecified, and
/// callers give up on the text.
class Reader {
 public:
  explicit Reader(std::string_view text)
      : at_(text.data()), end_(text.data() + text.size()) {}

  /// Reads one number into each of `values`, in order: an integer into an
  /// integral type, a decimal number into a floating-point one.
  template <typename... T>
  bool Read(T*... values) {
    return (ReadOne(values) && ...);
  }

  /// Reads the next run of non-whitespace characters.
  bool ReadWord(std::string_view* word);

  /// Skips whitespace, then takes the rest of the line: the characters up
  /// to the next '\n' (consumed, not returned) or the end of the text.
  /// False when only whitespace is left.
  bool ReadLine(std::string_view* line);

  /// Takes the next `n` bytes verbatim; false when fewer are left.
  bool Take(size_t n, std::string_view* bytes);

 private:
  void SkipSpace() {
    while (at_ != end_ && IsSpace(*at_)) ++at_;
  }

  template <typename T>
  bool ReadOne(T* value) {
    static_assert(std::is_arithmetic_v<T>);
    SkipSpace();
    if constexpr (std::is_floating_point_v<T>) {
      // from_chars also reads "inf", "infinity" and "nan".
      const char* digits = at_ != end_ && *at_ == '-' ? at_ + 1 : at_;
      if (digits == end_ || !((*digits >= '0' && *digits <= '9') || *digits == '.')) {
        return false;
      }
    }
    T parsed{};
    const auto [next, ec] = std::from_chars(at_, end_, parsed);
    if (ec != std::errc() || (next != end_ && !IsSpace(*next))) return false;
    *value = parsed;
    at_ = next;
    return true;
  }

  const char* at_;
  const char* end_;
};

}  // namespace horizon::text

#endif  // HORIZON_COMMON_TEXT_CODEC_H_
