#ifndef WG_STORAGE_INTEGRITY_H_
#define WG_STORAGE_INTEGRITY_H_

#include "obs/metrics.h"

// Process-wide integrity counters (the wg_integrity_* series). They are
// deliberately global rather than per-store: an operator alerting on
// corruption cares that the process saw any, and per-instance series from
// short-lived stores would leak registry memory (see obs/metrics.h).

namespace wg {

struct IntegrityCounters {
  // Blob reads that failed CRC verification.
  obs::Counter checksum_failures;
  // S-Node sections quarantined after a corrupt blob (requests touching
  // them fail fast with Unavailable until the store is repaired).
  obs::Counter quarantined_sections;

  static IntegrityCounters& Get();
};

}  // namespace wg

#endif  // WG_STORAGE_INTEGRITY_H_
