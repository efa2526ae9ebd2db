// CI bench smoke: a small Figure-5 sweep (3 t_job points per arch/cluster,
// short horizon) whose per-trial metrics are diffed bit-exactly against a
// checked-in golden. This catches two regressions the unit tests cannot:
//  - nondeterminism that only shows up in the Release build the figures are
//    produced with (the sweep engine promises bit-identical results for any
//    thread count);
//  - silent drift of the figure pipeline itself (bench_common defaults,
//    sweep wiring) between bench regenerations.
//
// Usage (bench/golden.h; there is no full run):
//   bench_smoke --smoke-write <golden>   regenerate the golden file
//   bench_smoke --smoke-check <golden>   run and diff; non-zero on mismatch
#include <cstdio>
#include <string>
#include <vector>

#include "bench/fig56_sweep.h"
#include "bench/golden.h"

namespace omega {
namespace {

constexpr double kSmokeHorizonDays = 0.01;
constexpr int kSmokeTjobPoints = 3;

std::string FormatTrial(const SweepResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%s %s %a %a %a %a %a %a %a %lld",
                r.arch.c_str(), r.cluster.c_str(), r.t_job_secs, r.batch_wait,
                r.service_wait, r.batch_busy, r.batch_busy_mad, r.service_busy,
                r.service_busy_mad, static_cast<long long>(r.abandoned));
  return buf;
}

std::vector<std::string> SmokeRows() {
  SweepRunner runner("smoke", kFig56BaseSeed);
  std::vector<std::string> rows;
  for (const SweepResult& r :
       RunFig56Sweep(Duration::FromDays(kSmokeHorizonDays), runner,
                     kSmokeTjobPoints)) {
    rows.push_back(FormatTrial(r));
  }
  return rows;
}

}  // namespace
}  // namespace omega

int main(int argc, char** argv) {
  using omega::golden::Cat;
  return omega::golden::SmokeMain(
      argc, argv,
      {"bench_smoke",
       {Cat("bench_smoke golden: fig5 sweep, horizon_days=",
            omega::kSmokeHorizonDays, " tjob_points=", omega::kSmokeTjobPoints,
            " base_seed=", omega::kFig56BaseSeed),
        "fields: arch cluster t_job batch_wait service_wait batch_busy "
        "batch_busy_mad service_busy service_busy_mad abandoned (hex floats)"},
       omega::SmokeRows});
}
