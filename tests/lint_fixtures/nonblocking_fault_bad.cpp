// Seeded violation for check_nonblocking's fault-site rule: the same path
// as nonblocking_fault_clean.cpp, with both fault forms still cut, plus a
// retry backoff that sleeps outside fault evaluation.  The check must
// report that sleep through Backoff, not through the fault sites.
#include <chrono>
#include <thread>

#include "common/faultpoint.hpp"
#include "common/thread_annotations.hpp"

namespace fixture {

namespace fault {

afs::Status Hit(const char* site) {
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // delay rule
  return afs::Status::Ok();
}

}  // namespace fault

void Backoff() {
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // unbounded
}

afs::Status SendOne() {
  AFS_FAULT_POINT("fixture.send");
  return afs::Status::Ok();
}

afs::Status PumpOnce() AFS_NONBLOCKING {
  if (!fault::Hit("fixture.pump").ok()) Backoff();
  return SendOne();
}

}  // namespace fixture
