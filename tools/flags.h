#ifndef WG_TOOLS_FLAGS_H_
#define WG_TOOLS_FLAGS_H_

// The one command-line parser of wgtool and wgserve. Flags are
// `--name value` pairs or bare `--name` switches, anywhere from
// argv[first] on. A numeric value must be entirely a number of the asked
// type inside the asked range; anything else prints the tool's usage and
// exits 2 before any work starts. Every read marks the arguments it
// consumed, so a tool can refuse the ones no read asked for
// (RejectUnconsumed).

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace wg {

class Flags {
 public:
  // `usage` prints the tool's usage and returns its exit status.
  Flags(int argc, char** argv, int first, int (*usage)())
      : argc_(argc), argv_(argv), first_(first), usage_(usage),
        consumed_(static_cast<size_t>(argc), false) {}

  // The value following `flag`, or nullptr when the flag is absent.
  const char* Value(const char* flag) {
    for (int i = first_; i + 1 < argc_; ++i) {
      if (std::strcmp(argv_[i], flag) == 0) {
        consumed_[i] = consumed_[i + 1] = true;
        return argv_[i + 1];
      }
    }
    return nullptr;
  }

  // True when the switch `flag` is present.
  bool Has(const char* flag) {
    for (int i = first_; i < argc_; ++i) {
      if (std::strcmp(argv_[i], flag) == 0) {
        consumed_[i] = true;
        return true;
      }
    }
    return false;
  }

  // The value following `flag`, or "" when the flag is absent.
  std::string String(const char* flag) {
    const char* value = Value(flag);
    return value != nullptr ? value : "";
  }

  // `fallback` when `flag` is absent, else its value read by Number.
  template <typename T>
  T Numeric(const char* flag, T fallback, T min, T max) {
    const char* text = Value(flag);
    return text == nullptr ? fallback : Number(flag, text, min, max);
  }

  // `text` as a number of type T in [min, max]. Anything else -- a sign
  // an unsigned type cannot take, trailing characters, an empty string,
  // a value out of range -- names `what`, prints the usage and exits 2.
  template <typename T>
  T Number(const char* what, const char* text, T min, T max) const {
    const char* end = text + std::strlen(text);
    T value{};
    auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end || ptr == text || value < min ||
        value > max) {
      std::fprintf(stderr,
                   "error: %s wants a number in [%s, %s], got \"%s\"\n",
                   what, Show(min).c_str(), Show(max).c_str(), text);
      std::exit(usage_());
    }
    return value;
  }

  // `fallback` when `flag` is absent, else its value as a nonzero byte
  // count with an optional k/m/g suffix ("512k", "64M", "1g"); anything
  // else prints the usage and exits 2.
  uint64_t Bytes(const char* flag, uint64_t fallback) {
    const char* text = Value(flag);
    if (text == nullptr) return fallback;
    const char* end = text + std::strlen(text);
    uint64_t value = 0;
    auto [ptr, ec] = std::from_chars(text, end, value);
    int shift = 0;
    if (ptr + 1 == end) {
      switch (*ptr) {
        case 'k': case 'K': shift = 10; ptr = end; break;
        case 'm': case 'M': shift = 20; ptr = end; break;
        case 'g': case 'G': shift = 30; ptr = end; break;
      }
    }
    if (ec != std::errc() || ptr != end || value == 0 ||
        value > (UINT64_MAX >> shift)) {
      std::fprintf(stderr, "error: %s wants BYTES[k|m|g], got \"%s\"\n",
                   flag, text);
      std::exit(usage_());
    }
    return value << shift;
  }

  // Call after the last read: an argument from argv[first] on that no read
  // consumed (a misspelt or removed flag) prints the usage and exits 2.
  void RejectUnconsumed() const {
    for (int i = first_; i < argc_; ++i) {
      if (!consumed_[i]) {
        std::fprintf(stderr, "error: unknown argument \"%s\"\n", argv_[i]);
        std::exit(usage_());
      }
    }
  }

 private:
  template <typename T>
  static std::string Show(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", v);
      return buf;
    } else {
      return std::to_string(v);
    }
  }

  int argc_;
  char** argv_;
  int first_;
  int (*usage_)();
  std::vector<bool> consumed_;
};

}  // namespace wg

#endif  // WG_TOOLS_FLAGS_H_
