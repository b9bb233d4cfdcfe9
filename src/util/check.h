// Lightweight CHECK/LOG facilities (no exceptions, no external deps).
//
// MSP_CHECK(cond)        — aborts with file:line when `cond` is false.
// MSP_CHECK_OK(expr)     — for bool-like statuses.
// MSP_DCHECK(cond)       — compiled out in NDEBUG builds.
// MSP_LOG(INFO) << ...   — line-buffered logging to stderr.
//
// The library is exception-free (Google style); contract violations are
// programming errors and terminate the process.

#ifndef MSP_UTIL_CHECK_H_
#define MSP_UTIL_CHECK_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace msp {
namespace internal {

// Accumulates a message and aborts the process on destruction.
// Used by the MSP_CHECK family; never instantiate directly.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line, const char* condition) {
    stream_ << "[CHECK failed] " << file << ":" << line << ": " << condition;
  }

  CheckFailure(const CheckFailure&) = delete;
  CheckFailure& operator=(const CheckFailure&) = delete;

  [[noreturn]] ~CheckFailure() {
    std::cerr << stream_.str() << std::endl;
    std::abort();
  }

  template <typename T>
  CheckFailure& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

// Severity tags for MSP_LOG.
enum class LogSeverity { kInfo, kWarning, kError };

// One log line; flushes to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogSeverity severity, const char* file, int line) {
    const char* tag = severity == LogSeverity::kInfo      ? "I"
                      : severity == LogSeverity::kWarning ? "W"
                                                          : "E";
    stream_ << tag << " " << file << ":" << line << "] ";
  }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  ~LogMessage() { std::cerr << stream_.str() << std::endl; }

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace msp

#define MSP_CHECK(condition)                                       \
  if (condition) {                                                 \
  } else /* NOLINT */                                              \
    ::msp::internal::CheckFailure(__FILE__, __LINE__, #condition)

#define MSP_CHECK_EQ(a, b) MSP_CHECK((a) == (b)) << " (" #a " vs " #b ") "
#define MSP_CHECK_NE(a, b) MSP_CHECK((a) != (b)) << " (" #a " vs " #b ") "
#define MSP_CHECK_LE(a, b) MSP_CHECK((a) <= (b)) << " (" #a " vs " #b ") "
#define MSP_CHECK_LT(a, b) MSP_CHECK((a) < (b)) << " (" #a " vs " #b ") "
#define MSP_CHECK_GE(a, b) MSP_CHECK((a) >= (b)) << " (" #a " vs " #b ") "
#define MSP_CHECK_GT(a, b) MSP_CHECK((a) > (b)) << " (" #a " vs " #b ") "

#ifdef NDEBUG
#define MSP_DCHECK(condition) \
  if (true) {                 \
  } else /* NOLINT */         \
    ::msp::internal::CheckFailure(__FILE__, __LINE__, #condition)
#else
#define MSP_DCHECK(condition) MSP_CHECK(condition)
#endif

#define MSP_DCHECK_EQ(a, b) MSP_DCHECK((a) == (b)) << " (" #a " vs " #b ") "

#define MSP_LOG(severity)                                       \
  ::msp::internal::LogMessage(                                  \
      ::msp::internal::LogSeverity::k##severity, __FILE__, __LINE__)

#endif  // MSP_UTIL_CHECK_H_
