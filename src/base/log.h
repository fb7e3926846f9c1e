// Minimal leveled logger for operator-facing warnings and errors, written to
// stderr. Security audit records do not come here: they go to the kernel's
// audit ring (Kernel::Audit, /proc/protego/audit). Safe to call from any
// thread.

#ifndef SRC_BASE_LOG_H_
#define SRC_BASE_LOG_H_

#include <string>

namespace protego {

enum class LogLevel {
  kWarn,
  kError,
};

const char* LogLevelName(LogLevel level);

void LogWarn(std::string message);
void LogError(std::string message);

}  // namespace protego

#endif  // SRC_BASE_LOG_H_
