#pragma once

// The frozen reference: the same work as the measured program, run by a
// snapshot of the optimizer (frozen/src) built into the same binary under
// another namespace. Interleaving its work with the measured work gives
// each measurement the host's speed at that moment (see README.md). This
// header names no optimizer type, so both builds can include it.

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace fbref {

/// Wall and CPU seconds of some reference work.
struct UnitTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// A child process that runs reference work on request. It is forked at
/// construction, so construct it while this process runs no other thread;
/// its memory never shows in this process's peak.
class Reference {
 public:
  /// Prepares `workload`'s inputs exactly as the measured side does, and
  /// starts the child. Throws std::runtime_error when it cannot.
  Reference(const std::string& workload, uint64_t seed,
            const std::string& out_dir);
  /// Stops the child and waits for it.
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// Programs per batch pass; 0 for factd-mix.
  size_t flows() const;

  /// Runs one piece of reference work in the child and waits for it: for
  /// a batch workload the flow of program `index` (in batch_programs
  /// order), for factd-mix round `index` (see factd_sequences). Throws
  /// std::runtime_error when the child fails.
  UnitTime run(uint64_t index);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  pid_t child_ = -1;
  int to_child_ = -1, from_child_ = -1;
};

}  // namespace fbref
