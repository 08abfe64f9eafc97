#include "storage/integrity.h"

namespace wg {

IntegrityCounters& IntegrityCounters::Get() {
  static IntegrityCounters* counters = [] {
    auto* c = new IntegrityCounters();
    auto& reg = obs::MetricRegistry::Default();
    c->checksum_failures.Bind(
        reg, "wg_integrity_checksum_failures_total", {},
        "Blob reads that failed CRC verification");
    c->quarantined_sections.Bind(reg, "wg_integrity_quarantined_sections", {},
                                 "S-Node sections quarantined after corruption");
    return c;
  }();
  return *counters;
}

}  // namespace wg
