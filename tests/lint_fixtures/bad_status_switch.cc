// Compile-fail fixture: a switch over StatusCode that omits codes and
// hides the omission behind `default:`, the shape that swallows a new
// code silently.  -Werror=switch-enum must reject it; the ctest
// status_switch_enum_rejected builds it and expects that error.
#include "common/status.h"

namespace horizon {

const char* ClassifyForRetry(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "no-retry";
    case StatusCode::kResourceExhausted:
      return "retry-with-backoff";
    default:
      return "fail";
  }
}

}  // namespace horizon
