// The current wire record header lines, for tests that write records or
// look for them by hand. They derive from JobSpec::kWireVersion through
// serving/wire.hpp, so a wire bump changes no test; only tests of
// old-version rejection spell out a header.
#pragma once

#include <string>

#include "serving/wire.hpp"

namespace apcc::testref {

/// "apcc.job vN\n" and "apcc.result vN\n" at the current version.
inline const std::string kJobLine = serving::wire::kJobHeader + "\n";
inline const std::string kResultLine = serving::wire::kResultHeader + "\n";

}  // namespace apcc::testref
