#include "src/base/log.h"

#include <cstdio>

namespace protego {

namespace {

void Log(LogLevel level, const std::string& message) {
  if (level >= LogLevel::kWarn) {
    std::fprintf(stderr, "[%s] %s\n", LogLevelName(level), message.c_str());
  }
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kAudit: return "AUDIT";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

void LogDebug(std::string message) { Log(LogLevel::kDebug, message); }
void LogInfo(std::string message) { Log(LogLevel::kInfo, message); }
void LogAudit(std::string message) { Log(LogLevel::kAudit, message); }
void LogWarn(std::string message) { Log(LogLevel::kWarn, message); }
void LogError(std::string message) { Log(LogLevel::kError, message); }

}  // namespace protego
