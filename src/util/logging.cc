#include "util/logging.h"

#include <cstdio>

namespace pdms {

std::string_view LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

Logger& Logger::Get() {
  static Logger logger;
  return logger;
}

void Logger::Log(LogLevel level, const std::string& message) {
  if (!Enabled(level)) return;
  std::string line;
  line.reserve(message.size() + 9);
  line += '[';
  line += LogLevelName(level);
  line += "] ";
  line += message;
  line += '\n';
  std::lock_guard<std::mutex> lock(write_mutex_);
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace pdms
