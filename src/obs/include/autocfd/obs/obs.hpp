// One observability context for one pre-compiler invocation. Pass a
// (possibly null) ObsContext* through core::parallelize to collect the
// pass profile and the decision provenance of the run; a null context
// costs nothing on the hot paths.
#pragma once

#include "autocfd/obs/profile.hpp"
#include "autocfd/obs/provenance.hpp"

namespace autocfd::obs {

struct ObsContext {
  PassProfiler profiler;
  ProvenanceLog provenance;

  /// Provenance log of a nullable context (phases take ProvenanceLog*).
  [[nodiscard]] static ProvenanceLog* provenance_of(ObsContext* obs) {
    return obs != nullptr ? &obs->provenance : nullptr;
  }
  [[nodiscard]] static PassProfiler* profiler_of(ObsContext* obs) {
    return obs != nullptr ? &obs->profiler : nullptr;
  }
};

}  // namespace autocfd::obs
