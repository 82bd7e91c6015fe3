// Clean twin for check_nonblocking's fault-site rule: an AFS_NONBLOCKING
// path reaches fault evaluation in both forms, `fault::Hit(site)` and
// `AFS_FAULT_POINT(site)`, and the evaluation behind them sleeps (a delay
// rule).  Fault evaluation is a traversal cut, because a delay fires only
// under an armed fault plan, so the check must stay silent on both forms.
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

afs::Status SendOne() {
  AFS_FAULT_POINT("fixture.send");
  return afs::Status::Ok();
}

afs::Status PumpOnce() AFS_NONBLOCKING {
  if (!fault::Hit("fixture.pump").ok()) return afs::Status::Ok();
  return SendOne();
}

}  // namespace fixture
