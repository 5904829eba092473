// Tests for common/text_codec.h: the appenders write what printf and
// operator<< write, and text::Reader reads tokens as operator>> does,
// except for the input classes it lists as rejected.
#include "common/text_codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "common/rng.h"

namespace horizon::text {
namespace {

TEST(TextCodecTest, AppendIntWritesDecimalDigits) {
  std::string out = "x";
  AppendInt(&out, 0);
  AppendInt(&out, -1);
  AppendInt(&out, std::numeric_limits<int64_t>::min());
  AppendInt(&out, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(out, "x0-1-922337203685477580818446744073709551615");
}

// AppendDouble writes what printf("%.*g") writes, and 17 digits read back
// bit for bit.
TEST(TextCodecTest, AppendDoubleMatchesPrintfAndRoundTrips) {
  Rng rng(0x7E47);
  for (int i = 0; i < 20000; ++i) {
    uint64_t bits = rng.Next();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) continue;
    for (const int digits : {17, 9}) {
      char want[40];
      std::snprintf(want, sizeof(want), "%.*g", digits, value);
      std::string got;
      AppendDouble(&got, value, digits);
      ASSERT_EQ(got, want);
    }
    std::string text;
    AppendDouble(&text, value);
    Reader in(text);
    double back = 0.0;
    ASSERT_TRUE(in.Read(&back)) << text;
    ASSERT_EQ(std::memcmp(&back, &value, sizeof(value)), 0) << text;
  }
}

TEST(TextCodecTest, ReaderSkipsEveryKindOfWhitespace) {
  Reader in(" \t7\n\v-2.5\f\r 3 ");
  uint64_t a = 0;
  double b = 0.0;
  int c = 0;
  ASSERT_TRUE(in.Read(&a, &b, &c));
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, -2.5);
  EXPECT_EQ(c, 3);
  EXPECT_FALSE(in.Read(&c));  // only whitespace is left
}

TEST(TextCodecTest, ReaderReadsWhatOperatorShiftReadsAlike) {
  Reader in("007 .5 -.5 1. 1E+2 -0 4.9406564584124654e-324");
  uint64_t a = 0;
  double b = 0.0, c = 0.0, d = 0.0, e = 0.0, f = 1.0, g = 0.0;
  ASSERT_TRUE(in.Read(&a, &b, &c, &d, &e, &f, &g));
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, 0.5);
  EXPECT_EQ(c, -0.5);
  EXPECT_EQ(d, 1.0);
  EXPECT_EQ(e, 100.0);
  EXPECT_TRUE(f == 0.0 && std::signbit(f));
  EXPECT_EQ(g, std::numeric_limits<double>::denorm_min());
}

// The classes operator>> reads and the reader rejects, and those both
// reject.
TEST(TextCodecTest, ReaderRejectsTheListedClasses) {
  const auto reads_double = [](std::string_view text) {
    Reader in(text);
    double value = 0.0;
    return in.Read(&value);
  };
  const auto reads_uint = [](std::string_view text) {
    Reader in(text);
    uint64_t value = 0;
    return in.Read(&value);
  };
  // No whitespace before the next token.
  EXPECT_FALSE(reads_double("5-3"));
  EXPECT_FALSE(reads_double("1.5.5"));
  EXPECT_FALSE(reads_double("1e"));
  EXPECT_FALSE(reads_double("0x1p3"));
  EXPECT_FALSE(reads_uint("5x"));
  EXPECT_TRUE(reads_uint("5 x"));  // what follows a separator is not read
  // A leading '+'.
  EXPECT_FALSE(reads_double("+1"));
  EXPECT_FALSE(reads_uint("+1"));
  EXPECT_TRUE(reads_double("1e+5"));  // in an exponent it is fine
  // A '-' in an unsigned field.
  EXPECT_FALSE(reads_uint("-1"));
  EXPECT_FALSE(reads_uint("-0"));
  // Underflow to zero, and overflow.
  EXPECT_FALSE(reads_double("1e-400"));
  EXPECT_FALSE(reads_double("1e400"));
  EXPECT_FALSE(reads_uint("18446744073709551616"));
  Reader narrow("2147483648");
  int32_t small = 0;
  EXPECT_FALSE(narrow.Read(&small));
  // inf, nan and hex: neither reads them.
  for (const char* token : {"inf", "-inf", "INF", "infinity", "nan", "-nan", "NaN",
                            "nan(1)", "0x10", "x", "", "-", "."}) {
    EXPECT_FALSE(reads_double(token)) << token;
  }
}

TEST(TextCodecTest, ReaderWordsLinesAndBytes) {
  Reader in("  shard v2\n 12\n  1 2 3\nblob!rest");
  std::string_view word, version, line, bytes;
  ASSERT_TRUE(in.ReadWord(&word));
  ASSERT_TRUE(in.ReadWord(&version));
  EXPECT_EQ(word, "shard");
  EXPECT_EQ(version, "v2");
  size_t count = 0;
  ASSERT_TRUE(in.Read(&count));
  EXPECT_EQ(count, 12u);
  ASSERT_TRUE(in.ReadLine(&line));  // leading whitespace, newlines too, skipped
  EXPECT_EQ(line, "1 2 3");
  ASSERT_TRUE(in.Take(5, &bytes));
  EXPECT_EQ(bytes, "blob!");
  EXPECT_FALSE(in.Take(5, &bytes));
  ASSERT_TRUE(in.ReadLine(&line));  // the last line needs no newline
  EXPECT_EQ(line, "rest");
  EXPECT_FALSE(in.ReadLine(&line));
  EXPECT_FALSE(in.ReadWord(&word));
  Reader blank(" \n\t ");
  EXPECT_FALSE(blank.ReadLine(&line));
}

}  // namespace
}  // namespace horizon::text
