// Reproduces Fig. 4: kernel coverage of DroidFuzz vs Syzkaller on devices
// A1, A2, B, C1 over 48 simulated hours, averaged over DF_REPS repetitions
// (paper: 10), with Mann-Whitney U significance on the final values.
// Also reports the §I claim: average per-driver kernel coverage increase
// of DroidFuzz over Syzkaller (paper: 17% on average).
//
// Exports BENCH_fig4_coverage.json: every (device, config, rep) trajectory
// sampled through obs::StatsReporter plus phase-latency histogram summaries
// from the DroidFuzz engines. Series content is deterministic for a fixed
// DF_SEED (timing fields excluded).
#include <cstdio>

#include "baseline/syzkaller.h"
#include "bench/bench_util.h"

namespace {

using namespace df;
using namespace df::bench;

constexpr uint64_t kStep = 5 * kExecsPerHour;  // sample every 5 sim-hours

}  // namespace

int main() {
  const WallTimer wall;
  const size_t reps = reps_from_env();
  const uint64_t base_seed = seed_from_env();
  const char* devices[] = {"A1", "A2", "B", "C1"};

  // Campaign telemetry: the DroidFuzz engines run with observability
  // attached, so the exported JSON carries phase-latency histograms.
  // Per-exec trace events are off — only milestone events are retained.
  obs::Observability obs;
  obs.trace.set_record_execs(false);
  std::vector<BenchSeries> exported;

  std::printf("=== Fig. 4: coverage over 48 simulated hours (mean of %zu "
              "reps) ===\n",
              reps);
  std::printf("series columns: coverage at hours 5,10,...,50\n\n");

  double ratio_sum = 0;
  double per_driver_gain_sum = 0;
  size_t per_driver_gain_count = 0;

  for (const char* id : devices) {
    std::vector<Series> df_runs, syz_runs;
    std::vector<double> df_final, syz_final;
    std::map<uint16_t, std::pair<double, double>> driver_cov;  // df, syz sums
    std::map<uint16_t, std::string> driver_names;

    for (size_t r = 0; r < reps; ++r) {
      const uint64_t seed = base_seed + r * 101;
      {
        auto dev = device::make_device(id, seed);
        core::EngineConfig cfg;
        cfg.seed = seed;
        core::Engine eng(*dev, cfg);
        eng.attach_observability(&obs);
        auto points = run_sampled_points(eng, k48h, kStep);
        df_runs.push_back(to_series(points));
        df_final.push_back(static_cast<double>(eng.kernel_coverage()));
        BenchSeries series{id, "droidfuzz", r, std::move(points), {}};
        series.states = eng.state_coverage();
        capture_analytics(series, eng);
        capture_distill(series, eng);
        exported.push_back(std::move(series));
        for (const auto& [drv, n] : eng.features().kernel_per_driver()) {
          driver_cov[drv].first += static_cast<double>(n);
        }
        for (const auto& d : dev->kernel().drivers()) {
          driver_names[d->driver_id()] = std::string(d->name());
        }
      }
      {
        auto dev = device::make_device(id, seed);
        baseline::SyzkallerFuzzer syz(*dev, seed);
        auto points = run_sampled_points(syz.engine(), k48h, kStep);
        syz_runs.push_back(to_series(points));
        syz_final.push_back(static_cast<double>(syz.kernel_coverage()));
        BenchSeries series{id, "syzkaller", r, std::move(points), {}};
        capture_analytics(series, syz.engine());
        exported.push_back(std::move(series));
        for (const auto& [drv, n] :
             syz.engine().features().kernel_per_driver()) {
          driver_cov[drv].second += static_cast<double>(n);
        }
      }
    }

    // Mean series.
    Series df_mean = df_runs[0], syz_mean = syz_runs[0];
    for (size_t i = 0; i < df_mean.coverage.size(); ++i) {
      size_t dsum = 0, ssum = 0;
      for (size_t r = 0; r < reps; ++r) {
        dsum += df_runs[r].coverage[i];
        ssum += syz_runs[r].coverage[i];
      }
      df_mean.coverage[i] = dsum / reps;
      syz_mean.coverage[i] = ssum / reps;
    }
    std::printf("[%s] DroidFuzz", id);
    print_series("", df_mean);
    std::printf("[%s] Syzkaller", id);
    print_series("", syz_mean);
    const double dmean = util::mean(df_final);
    const double smean = util::mean(syz_final);
    ratio_sum += dmean / smean;
    std::printf("[%s] final: DroidFuzz %.0f vs Syzkaller %.0f (+%.1f%%), %s\n",
                id, dmean, smean, 100.0 * (dmean / smean - 1.0),
                significance_tag(df_final, syz_final).c_str());

    // Per-driver coverage gains (drivers only; skip core id 0).
    std::printf("[%s] per-driver coverage (DroidFuzz vs Syzkaller):\n", id);
    for (const auto& [drv, sums] : driver_cov) {
      if (drv == 0) continue;
      const double d = sums.first / static_cast<double>(reps);
      const double s = sums.second / static_cast<double>(reps);
      if (s <= 0) continue;
      const double gain = 100.0 * (d / s - 1.0);
      per_driver_gain_sum += gain;
      ++per_driver_gain_count;
      std::printf("    %-12s %7.1f vs %7.1f  (%+.1f%%)\n",
                  driver_names[drv].c_str(), d, s, gain);
    }
    std::printf("\n");
  }

  std::printf("summary: DroidFuzz/Syzkaller total-coverage ratio %.2fx "
              "(paper Fig. 4: DroidFuzz consistently above)\n",
              ratio_sum / 4.0);
  if (per_driver_gain_count > 0) {
    std::printf("summary: average per-driver coverage increase %.1f%% "
                "(paper SI: 17%% on average)\n",
                per_driver_gain_sum / per_driver_gain_count);
  }

  write_bench_json("fig4_coverage", base_seed, reps, exported, &obs,
                   wall.seconds());
  return 0;
}
