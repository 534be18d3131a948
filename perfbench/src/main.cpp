// aesz_perfbench: the repository's end-to-end benchmark (see
// perfbench/README.md).
//
//   aesz_perfbench --workload aesz-snapshots|archive-series|service-mixed
//                  --seed N --seconds S --trace 0|1
//                  [--inject bound|flip] [--out DIR]
//
// Set-up runs three times and setup_s is their median. --trace 0 then
// measures for S seconds and prints every end-to-end metric; --trace 1
// measures S/2 seconds untraced and S/2 traced, prints every per-layer
// metric (per round) and writes the spans as Chrome trace-event JSON to
// DIR. The last stdout line is the result object; exit status 1 means an
// output check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "util/cpu.hpp"

#ifndef AESZ_PERFBENCH_BUILD_TYPE
#define AESZ_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

constexpr int kSetups = 3;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the names and units).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mib", "MiB"},
    {"compress_mb_s", "MB/s"},  {"decompress_mb_s", "MB/s"},
    {"compression_ratio", "x"}, {"psnr_db", "dB"},
    {"append_mb_s", "MB/s"},    {"timestep_read_ms", "ms"},
    {"preview_read_ms", "ms"},  {"rtt_p50_ms", "ms"},
    {"rtt_p99_ms", "ms"},       {"req_per_s", "req/s"},
};

std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> v = {
      {"nn.inference_s", "s"},
      {"core.quantize_s", "s"},
      {"core.ae_blocks", "count"},
      {"core.blocks_total", "count"},
      {"core.ae_fraction", "fraction"},
      {"core.latent_bytes", "B"},
      {"core.code_bytes", "B"},
      {"core.unpredictable", "count"},
      {"lossless.entropy_s", "s"},
      {"sz.predict_s", "s"},
  };
  static const std::vector<std::string> codecs = {
      "AE-SZ",          "SZ2.1",           "SZauto",
      "SZinterp",       "ZFP",             "parallel-SZ2.1",
      "parallel-SZauto", "parallel-SZinterp", "parallel-ZFP"};
  static std::vector<std::string> names;  // owns the composed names
  if (names.empty())
    for (const auto& c : codecs)
      for (const char* m : {".compress_mb_s", ".decompress_mb_s", ".ratio"})
        names.push_back("codec." + c + m);
  for (const auto& n : names)
    v.push_back({n.c_str(), n.ends_with(".ratio") ? "x" : "MB/s"});
  const MetricDef rest[] = {
      {"pipeline.compress_s", "s"},
      {"pipeline.decompress_s", "s"},
      {"pipeline.chunks", "count"},
      {"pipeline.container_bytes", "B"},
      {"pipeline.speedup_vs_inner", "x"},
      {"util.crc_bytes", "B"},
      {"util.crc_s", "s"},
      {"temporal.append_s", "s"},
      {"temporal.read_s", "s"},
      {"temporal.residual_records", "count"},
      {"temporal.intra_records", "count"},
      {"temporal.stream_bytes", "B"},
      {"temporal.decodes_per_read", "count"},
      {"progressive.encode_s", "s"},
      {"progressive.truncate_s", "s"},
      {"progressive.read_s", "s"},
      {"progressive.layers_served", "count"},
      {"progressive.bytes_served", "B"},
      {"progressive.overhead", "x"},
      {"service.rtt_ms.compress", "ms"},
      {"service.rtt_ms.decompress", "ms"},
      {"service.rtt_ms.compress_aesz", "ms"},
      {"service.rtt_ms.read_partial", "ms"},
      {"service.rtt_ms.open_stream", "ms"},
      {"service.rtt_ms.append_timestep", "ms"},
      {"service.rtt_ms.read_timestep", "ms"},
      {"service.rtt_ms.close_stream", "ms"},
      {"service.queue_wait_ns_p50", "ns"},
      {"service.batch_wait_ns_p50", "ns"},
      {"service.exec_ns_p50", "ns"},
      {"service.unattributed_pct", "%"},
      {"service.bytes_in", "B"},
      {"service.bytes_out", "B"},
      {"service.requests_per_batch", "count"},
      {"service.ae_model_loads", "count"},
      {"service.codec_cache_misses", "count"},
      {"service.ev_read_pauses", "count"},
      {"service.ev_rejected_requests", "count"},
      {"self_s.bench", "s"},
      {"self_s.core", "s"},
      {"self_s.pipeline", "s"},
      {"self_s.temporal", "s"},
      {"self_s.progressive", "s"},
      {"obs.trace_overhead_pct", "%"},
  };
  v.insert(v.end(), std::begin(rest), std::end(rest));
  return v;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: aesz_perfbench --workload "
               "aesz-snapshots|archive-series|service-mixed --seed N "
               "--seconds S --trace 0|1 [--inject bound|flip] [--out DIR]\n",
               msg);
  std::exit(2);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
      have_seconds = cfg.seconds > 0;
    } else if (a == "--trace") {
      cfg.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (a == "--inject") {
      if (v != "bound" && v != "flip") usage("--inject takes bound|flip");
      cfg.inject = v;
    } else if (a == "--out") {
      cfg.out_dir = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  std::unique_ptr<Workload> (*make)(const Config&) = nullptr;
  if (cfg.workload == "aesz-snapshots") make = make_aesz_snapshots;
  if (cfg.workload == "archive-series") make = make_archive_series;
  if (cfg.workload == "service-mixed") make = make_service_mixed;
  if (!make) usage(("unknown workload " + cfg.workload).c_str());
  if (cfg.out_dir.empty()) cfg.out_dir = ".bench_build/perfbench-out";
  std::filesystem::create_directories(cfg.out_dir);
  cfg.nproc = std::max(1u, std::thread::hardware_concurrency());
  set_omp_threads(1);

  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"cpu\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
      "\"simd\": \"%s\", \"build_type\": \"%s\"}}\n",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      number(cfg.seconds).c_str(), cfg.trace ? 1 : 0,
      json_escape(cpu_model()).c_str(), json_escape(compiler()).c_str(),
      cfg.nproc, aesz::util::cpu_dispatch_tier(), AESZ_PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  Ctx ctx(cfg);
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  for (int k = 0; k < kSetups; ++k) {
    w.reset();  // the previous set-up's server and models go first
    const std::uint64_t t0 = now_ns();
    w = make(cfg);
    w->setup(ctx);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  ctx.reset_counts();
  w->reset();

  Sums m;
  std::vector<MetricDef> defs;
  if (!cfg.trace) {
    const std::uint64_t t0 = now_ns();
    w->run_for(ctx, cfg.seconds);
    w->end_to_end(m, static_cast<double>(now_ns() - t0) * 1e-9);
    m["setup_s"] = median(setups);
    m["peak_rss_mib"] = peak_rss_mib();
    defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  } else {
    // Untraced half first: its per-round time is the base of the overhead.
    const double half = cfg.seconds / 2;
    std::uint64_t t0 = now_ns();
    const double rounds_a = static_cast<double>(w->run_for(ctx, half));
    const double wall_a = static_cast<double>(now_ns() - t0) * 1e-9;
    w->begin_traced(ctx);
    w->reset();
    ctx.set_tracing(true);
    Sums stages;
    StageDelta sd;
    t0 = now_ns();
    const double rounds_b = static_cast<double>(w->run_for(ctx, half));
    const double wall_b = static_cast<double>(now_ns() - t0) * 1e-9;
    ctx.set_tracing(false);
    sd.add_to(stages);
    for (const auto& [k, v] : stages) m[k] = v / rounds_b;
    for (const auto& [layer, s] : ctx.self_seconds())
      m["self_s." + layer] = s / rounds_b;
    std::vector<std::string> events;
    w->per_layer(ctx, m, events);
    finish_codec_rows(m);
    m["obs.trace_overhead_pct"] =
        ((wall_b / rounds_b) / (wall_a / rounds_a) - 1.0) * 100.0;
    const std::string path = cfg.out_dir + "/trace-" + cfg.workload +
                             "-seed" + std::to_string(cfg.seed) + ".json";
    if (ctx.write_trace(path, events))
      std::printf("trace: %s (%zu spans)\n", path.c_str(),
                  ctx.spans().size() + events.size());
    defs = per_layer_defs();
  }

  for (const auto& e : ctx.errors())
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  std::string out = "{\"correct\": ";
  out += ctx.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ctx.attempted());
  out += ", \"failed\": " + std::to_string(ctx.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = m.find(defs[i].name);
    out += (i ? ", \"" : "\"") + std::string(defs[i].name) +
           "\": {\"value\": " + number(it == m.end() ? 0.0 : it->second) +
           ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return ctx.correct() ? 0 : 1;
}
