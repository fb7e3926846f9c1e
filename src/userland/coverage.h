// Basic-block coverage instrumentation for the simulated userland binaries
// (the gcov analog behind Table 7). Each utility declares its named blocks
// at registration time; executing code marks blocks hit. The Table 7
// harness reports hit/declared per binary after running the
// functional-equivalence suite. Process-wide and locked: parallel-mode
// tasks run utilities on several threads at once.

#ifndef SRC_USERLAND_COVERAGE_H_
#define SRC_USERLAND_COVERAGE_H_

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace protego {

class Coverage {
 public:
  static Coverage& Get();

  // Declares the full block list for `binary` (idempotent).
  void Declare(const std::string& binary, std::vector<std::string> blocks);

  // Marks a block as executed. Unknown blocks are ignored (defensive).
  void Hit(const std::string& binary, const std::string& block);

  // Percentage of declared blocks hit; 0 when nothing is declared.
  double Percent(const std::string& binary) const;

  std::vector<std::string> MissedBlocks(const std::string& binary) const;
  std::vector<std::string> Binaries() const;

  void ResetHits();

 private:
  Coverage() = default;
  struct PerBinary {
    std::vector<std::string> declared;
    std::set<std::string> hit;
  };
  mutable std::mutex mu_;
  std::map<std::string, PerBinary> data_;
};

// Convenience marker used inside utility mains.
inline void Cov(const std::string& binary, const std::string& block) {
  Coverage::Get().Hit(binary, block);
}

}  // namespace protego

#endif  // SRC_USERLAND_COVERAGE_H_
