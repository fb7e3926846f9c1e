#include "src/base/log.h"

#include <cstdio>

namespace protego {

namespace {

void Log(LogLevel level, const std::string& message) {
  std::fprintf(stderr, "[%s] %s\n", LogLevelName(level), message.c_str());
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

void LogWarn(std::string message) { Log(LogLevel::kWarn, message); }
void LogError(std::string message) { Log(LogLevel::kError, message); }

}  // namespace protego
