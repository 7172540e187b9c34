#ifndef GOALREC_UTIL_LOGGING_H_
#define GOALREC_UTIL_LOGGING_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

// Minimal CHECK/LOG facility in the spirit of glog, sufficient for a library
// that does not use exceptions. Two halves:
//
//   GOALREC_CHECK*: invariant enforcement — print the failing condition,
//   the source location and an optional streamed message, then abort.
//
//   GOALREC_LOG(INFO|WARN|ERROR) / GOALREC_VLOG(n): leveled structured
//   logging. Each record is one logfmt line on stderr —
//     level=info ts=2026-08-06T12:00:00.123Z caller=engine.cc:42 msg="..."
//   The minimum emitted level and the VLOG verbosity are runtime-settable
//   (SetMinLogLevel / SetVerbosity; the CLI's --log_level/--vlog flags).
//   Use Kv("key", value) to append machine-parseable fields to a record:
//     GOALREC_LOG(WARN) << "slow load" << Kv("path", path) << Kv("ms", ms);
//   A pluggable sink (SetLogSink) lets tests and exporters capture records
//   instead of writing stderr. Everything here is header-only and
//   allocation-free until a record actually passes the level gate.

namespace goalrec::util {

// Accumulates a streamed message and aborts the process on destruction.
// Used only through the GOALREC_CHECK* macros below.
class CheckFailure {
 public:
  CheckFailure(const char* condition, const char* file, int line) {
    stream_ << "CHECK failed: " << condition << " at " << file << ":" << line
            << " ";
  }
  CheckFailure(const CheckFailure&) = delete;
  CheckFailure& operator=(const CheckFailure&) = delete;

  [[noreturn]] ~CheckFailure() {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
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

/// Log severities, ordered. Records below the runtime minimum are dropped
/// before any formatting work.
enum class LogLevel : int { kInfo = 0, kWarn = 1, kError = 2 };

inline const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "unknown";
}

/// Parses "info"/"warn"/"warning"/"error" (case-sensitive). Returns false
/// on anything else.
inline bool ParseLogLevel(std::string_view name, LogLevel* out) {
  if (name == "info") {
    *out = LogLevel::kInfo;
  } else if (name == "warn" || name == "warning") {
    *out = LogLevel::kWarn;
  } else if (name == "error") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

/// Sink invoked with each emitted record. `message` is the streamed body
/// (including Kv fields), not the rendered logfmt line.
using LogSinkFn = void (*)(LogLevel level, const char* file, int line,
                           const std::string& message);

namespace logging_internal {

inline std::atomic<int>& MinLevelVar() {
  static std::atomic<int> level{static_cast<int>(LogLevel::kInfo)};
  return level;
}

inline std::atomic<int>& VerbosityVar() {
  static std::atomic<int> verbosity{0};
  return verbosity;
}

inline std::atomic<LogSinkFn>& SinkVar() {
  static std::atomic<LogSinkFn> sink{nullptr};
  return sink;
}

/// Basename of a source path, for compact caller= fields. The macros below
/// pass __FILE_NAME__, which is already a basename and keeps the checkout
/// path out of the binary; RenderLogfmt's other callers may pass a path.
inline const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

/// logfmt value escaping. Quotes, backslashes and the common whitespace
/// escapes get their two-character forms; any other control character
/// (including the '\x1f' field delimiter LogMessage uses internally, which
/// would otherwise split the record) renders as \u00XX so a logfmt line is
/// always exactly one line and parses back losslessly.
inline void AppendQuoted(std::string& out, std::string_view value) {
  out += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
  out += '"';
}

/// logfmt keys cannot carry quoting, so characters that would break the
/// `key=value` shape (spaces, '=', '"', controls) map to '_'.
inline void AppendSanitizedKey(std::string& out, std::string_view key) {
  for (char c : key) {
    bool bad = static_cast<unsigned char>(c) <= ' ' || c == '=' || c == '"';
    out += bad ? '_' : c;
  }
}

/// Renders one record body (msg text plus '\x1f'-delimited Kv fields, as
/// accumulated by LogMessage) into a single logfmt line, without the
/// trailing newline. Factored out of the emit path so the escaping rules
/// are directly testable.
inline std::string RenderLogfmt(LogLevel level, const char* file, int line_no,
                                const std::string& message) {
  std::timespec ts{};
  std::timespec_get(&ts, TIME_UTC);
  std::tm tm_utc{};
  gmtime_r(&ts.tv_sec, &tm_utc);
  char stamp[64];
  std::snprintf(stamp, sizeof(stamp), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
                tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec,
                static_cast<int>(ts.tv_nsec / 1000000));
  std::string line;
  line.reserve(message.size() + 96);
  line += "level=";
  line += LogLevelName(level);
  line += " ts=";
  line += stamp;
  line += " caller=";
  line += Basename(file);
  line += ':';
  line += std::to_string(line_no);
  // Split the body back into msg= and the Kv fields appended after it.
  // Kv fields arrive pre-rendered (sanitized key, '=', escaped value).
  size_t fields_at = message.find('\x1f');
  line += " msg=";
  AppendQuoted(line, std::string_view(message).substr(0, fields_at));
  while (fields_at != std::string::npos) {
    size_t next = message.find('\x1f', fields_at + 1);
    line += ' ';
    line += message.substr(
        fields_at + 1, next == std::string::npos ? next : next - fields_at - 1);
    fields_at = next;
  }
  return line;
}

// Token aliases so GOALREC_LOG(INFO) can paste its argument.
inline constexpr LogLevel kLevelINFO = LogLevel::kInfo;
inline constexpr LogLevel kLevelWARN = LogLevel::kWarn;
inline constexpr LogLevel kLevelERROR = LogLevel::kError;

}  // namespace logging_internal

/// Drops records whose level is below `level`. Thread-safe.
inline void SetMinLogLevel(LogLevel level) {
  logging_internal::MinLevelVar().store(static_cast<int>(level),
                                        std::memory_order_relaxed);
}

inline LogLevel MinLogLevel() {
  return static_cast<LogLevel>(
      logging_internal::MinLevelVar().load(std::memory_order_relaxed));
}

/// GOALREC_VLOG(n) emits when n <= verbosity. Default verbosity 0 silences
/// every VLOG.
inline void SetVerbosity(int verbosity) {
  logging_internal::VerbosityVar().store(verbosity, std::memory_order_relaxed);
}

inline int Verbosity() {
  return logging_internal::VerbosityVar().load(std::memory_order_relaxed);
}

/// Redirects emitted records to `sink` (nullptr restores stderr). The sink
/// must be callable from any thread.
inline void SetLogSink(LogSinkFn sink) {
  logging_internal::SinkVar().store(sink, std::memory_order_relaxed);
}

inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         logging_internal::MinLevelVar().load(std::memory_order_relaxed);
}

/// Structured field for log records: Kv("path", p) renders as ` path="p"`
/// (arithmetic values unquoted). See the file comment for usage.
template <typename T>
struct KvField {
  std::string_view key;
  const T& value;
};

template <typename T>
KvField<T> Kv(std::string_view key, const T& value) {
  return KvField<T>{key, value};
}

// Accumulates one record and emits it on destruction. Created only through
// the GOALREC_LOG/GOALREC_VLOG macros, after the level gate passed.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  ~LogMessage() {
    std::string message = stream_.str();
    LogSinkFn sink =
        logging_internal::SinkVar().load(std::memory_order_relaxed);
    if (sink != nullptr) {
      sink(level_, file_, line_, message);
      return;
    }
    // Render one logfmt line; a single fprintf keeps concurrent records
    // from interleaving mid-line.
    std::string line =
        logging_internal::RenderLogfmt(level_, file_, line_, message);
    line += '\n';
    std::fputs(line.c_str(), stderr);
  }

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

  template <typename T>
  LogMessage& operator<<(const KvField<T>& field) {
    // Fields are delimited with a unit separator inside the body and split
    // back out at emission, so they land outside the quoted msg="...".
    // Keys are sanitized and non-arithmetic values quoted+escaped here, so
    // a value containing spaces, '=', quotes or newlines cannot break the
    // key=value grammar of the emitted line.
    std::string rendered_key;
    logging_internal::AppendSanitizedKey(rendered_key, field.key);
    stream_ << '\x1f' << rendered_key << '=';
    if constexpr (std::is_arithmetic_v<T>) {
      stream_ << field.value;
    } else {
      std::ostringstream value_stream;
      value_stream << field.value;
      std::string rendered;
      logging_internal::AppendQuoted(rendered, value_stream.str());
      stream_ << rendered;
    }
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace goalrec::util

// Aborts with a diagnostic when `condition` is false. Additional context can
// be streamed: GOALREC_CHECK(x > 0) << "x=" << x;
#define GOALREC_CHECK(condition)                                       \
  if (condition) {                                                     \
  } else                                                               \
    ::goalrec::util::CheckFailure(#condition, __FILE_NAME__, __LINE__)

#define GOALREC_CHECK_EQ(a, b) GOALREC_CHECK((a) == (b))
#define GOALREC_CHECK_NE(a, b) GOALREC_CHECK((a) != (b))
#define GOALREC_CHECK_LT(a, b) GOALREC_CHECK((a) < (b))
#define GOALREC_CHECK_LE(a, b) GOALREC_CHECK((a) <= (b))
#define GOALREC_CHECK_GT(a, b) GOALREC_CHECK((a) > (b))
#define GOALREC_CHECK_GE(a, b) GOALREC_CHECK((a) >= (b))

// Leveled record: GOALREC_LOG(INFO) << "loaded" << Kv("impls", n);
// Severity is one of INFO, WARN, ERROR. The streamed expressions are not
// evaluated when the record is below the minimum level.
#define GOALREC_LOG(severity)                                             \
  if (!::goalrec::util::LogEnabled(                                       \
          ::goalrec::util::logging_internal::kLevel##severity)) {         \
  } else                                                                  \
    ::goalrec::util::LogMessage(                                          \
        ::goalrec::util::logging_internal::kLevel##severity,              \
        __FILE_NAME__, __LINE__)

// Verbose diagnostics, emitted at info level when n <= Verbosity().
#define GOALREC_VLOG(n)                                                   \
  if ((n) > ::goalrec::util::Verbosity()) {                               \
  } else                                                                  \
    ::goalrec::util::LogMessage(::goalrec::util::LogLevel::kInfo,         \
                                __FILE_NAME__, __LINE__)

#endif  // GOALREC_UTIL_LOGGING_H_
