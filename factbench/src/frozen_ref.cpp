// Built only against frozen/src, where `fact` and `factbench` are renamed
// (see frozen/CMakeLists.txt): everything below runs the snapshot.

#include "frozen_ref.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

#include "bench.hpp"

namespace fbref {

namespace {

/// Reads or writes exactly `n` bytes, retrying on EINTR; false on EOF or
/// error.
template <typename Op, typename Ptr>
bool transfer(Op op, int fd, Ptr buf, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t k = op(fd, buf + done, n - done);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    done += static_cast<size_t>(k);
  }
  return true;
}

bool read_all(int fd, void* buf, size_t n) {
  return transfer(::read, fd, static_cast<char*>(buf), n);
}

bool write_all(int fd, const void* buf, size_t n) {
  return transfer(::write, fd, static_cast<const char*>(buf), n);
}

}  // namespace

struct Reference::Impl {
  factbench::Context ctx;
  std::string socket_path;
  bool factd = false;
  uint64_t seed = 0;
  std::vector<factbench::Program> programs;  // batch workloads

  UnitTime run(uint64_t index) {
    UnitTime t;
    const double c0 = factbench::process_cpu_s();
    if (factd) {
      factbench::factd_round(socket_path,
                             factbench::factd_sequences(seed, index),
                             &t.wall_s);
    } else {
      const double t0 = factbench::now_s();
      factbench::run_flow(programs.at(index), ctx);
      t.wall_s = factbench::now_s() - t0;
    }
    t.cpu_s = factbench::process_cpu_s() - c0;
    return t;
  }

  /// The child's loop: one index in, one UnitTime out, until the parent
  /// closes its end.
  [[noreturn]] void serve(int in, int out) {
    uint64_t index = 0;
    while (read_all(in, &index, sizeof index)) {
      UnitTime t;
      try {
        t = run(index);
      } catch (...) {
        _exit(1);
      }
      if (!write_all(out, &t, sizeof t)) _exit(1);
    }
    _exit(0);
  }
};

Reference::Reference(const std::string& workload, uint64_t seed,
                     const std::string& out_dir)
    : impl_(std::make_unique<Impl>()) {
  impl_->socket_path = out_dir + "/factd-reference.sock";
  impl_->factd = workload == "factd-mix";
  impl_->seed = seed;
  if (!impl_->factd)
    impl_->programs = factbench::batch_programs(workload, impl_->ctx, seed);

  int down[2], up[2];
  if (pipe(down) != 0) throw std::runtime_error("reference: pipe failed");
  if (pipe(up) != 0) {
    close(down[0]);
    close(down[1]);
    throw std::runtime_error("reference: pipe failed");
  }
  child_ = fork();
  if (child_ < 0) {
    for (int fd : {down[0], down[1], up[0], up[1]}) close(fd);
    throw std::runtime_error("reference: fork failed");
  }
  if (child_ == 0) {
    close(down[1]);
    close(up[0]);
    impl_->serve(down[0], up[1]);
  }
  close(down[0]);
  close(up[1]);
  to_child_ = down[1];
  from_child_ = up[0];
}

Reference::~Reference() {
  close(to_child_);  // the child sees EOF and exits
  close(from_child_);
  int status = 0;
  while (waitpid(child_, &status, 0) < 0 && errno == EINTR) {
  }
}

size_t Reference::flows() const { return impl_->programs.size(); }

UnitTime Reference::run(uint64_t index) {
  UnitTime t;
  if (!write_all(to_child_, &index, sizeof index) ||
      !read_all(from_child_, &t, sizeof t))
    throw std::runtime_error("reference work failed in the child process");
  return t;
}

}  // namespace fbref
