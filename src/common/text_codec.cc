#include "common/text_codec.h"

namespace horizon::text {

void AppendDouble(std::string* out, double value, int digits) {
  // "-2.2250738585072014e-308" is the longest %.17g output.
  char buf[32];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, digits)
                       .ptr);
}

bool Reader::ReadWord(std::string_view* word) {
  SkipSpace();
  const char* begin = at_;
  while (at_ != end_ && !IsSpace(*at_)) ++at_;
  if (at_ == begin) return false;
  *word = std::string_view(begin, static_cast<size_t>(at_ - begin));
  return true;
}

bool Reader::ReadLine(std::string_view* line) {
  SkipSpace();
  if (at_ == end_) return false;
  const char* begin = at_;
  while (at_ != end_ && *at_ != '\n') ++at_;
  *line = std::string_view(begin, static_cast<size_t>(at_ - begin));
  if (at_ != end_) ++at_;
  return true;
}

bool Reader::Take(size_t n, std::string_view* bytes) {
  if (static_cast<size_t>(end_ - at_) < n) return false;
  *bytes = std::string_view(at_, n);
  at_ += n;
  return true;
}

}  // namespace horizon::text
