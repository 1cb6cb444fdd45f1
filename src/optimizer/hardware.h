// Hardware parameters that shape the optimizer's cost model.
//
// These are first-class inputs to every what-if call because the paper's
// production/test-server scenario (§5.3) requires the test server to
// simulate the *production* server's hardware when optimizing: "the hardware
// parameters of production server that are modeled by the query optimizer
// ... need to be appropriately simulated on the test server".

#ifndef DTA_OPTIMIZER_HARDWARE_H_
#define DTA_OPTIMIZER_HARDWARE_H_

namespace dta::optimizer {

struct HardwareParams {
  int cpu_count = 4;
  double memory_mb = 4096;

  // Base device characteristics (milliseconds).
  double seq_page_ms = 0.08;
  double rand_page_ms = 0.8;
  double cpu_row_ms = 0.0004;   // per-row processing
  double hash_row_ms = 0.0009;  // per-row hash build/probe
  double cmp_row_ms = 0.0003;   // per-comparison (sorting)

  // Fraction of I/O cost retained when the working set fits in memory.
  double cached_io_fraction = 0.35;

  // Rows above which the optimizer assumes a parallel plan.
  double parallel_threshold_rows = 100000;

  bool operator==(const HardwareParams&) const = default;

  static HardwareParams ProductionClass() {
    HardwareParams p;
    p.cpu_count = 16;
    p.memory_mb = 32768;
    return p;
  }
  static HardwareParams TestClass() {
    HardwareParams p;
    p.cpu_count = 2;
    p.memory_mb = 2048;
    return p;
  }
};

}  // namespace dta::optimizer

#endif  // DTA_OPTIMIZER_HARDWARE_H_
