// archive-series: a simulation writing T correlated 3-D timesteps, with no
// network and no service. Each step goes as a snapshot through the
// parallel: wrappers of SZ2.1, SZauto, SZinterp and ZFP and is decoded;
// the same steps are appended to AETC streams (SZ2.1 and ZFP inner) and
// read back in random order; selected steps are encoded as AEPR and read
// as byte-budgeted previews. Prediction, entropy coding, the AEPC, AETC
// and AEPR containers and their CRC seals do nearly all the work.
//
// One leg keeps a known fault visible: under a rel bound every codec
// accepts a field holding one +Inf and writes an infinite resolved bound
// its own decoder rejects, and ZFP silently replaces a NaN. Those round
// trips are counted failed (expected) and stay out of every metric.

#include <cmath>
#include <limits>

#include "data/synth.hpp"
#include "harness.hpp"
#include "pipeline/container.hpp"
#include "pipeline/parallel_compressor.hpp"
#include "predictors/registry.hpp"
#include "progressive/progressive.hpp"

namespace perfbench {
namespace {

using namespace aesz;

constexpr std::size_t kNz = 64, kNy = 64, kNx = 64;
constexpr std::size_t kSteps = 8;
constexpr std::size_t kGop = 4;
constexpr std::size_t kChunkRows = 16;  // 4 slabs of 256 KiB per step
constexpr double kEb = 1e-3;
const char* const kTemporalCodecs[] = {"SZ2.1", "ZFP"};
constexpr std::size_t kPreviewSteps[] = {0, kSteps / 2};

class ArchiveSeries final : public Workload {
 public:
  explicit ArchiveSeries(const Config& cfg) : cfg_(cfg) {}

  void setup(Ctx& ctx) override {
    // Advected value noise: the lattice phase moves 0.05 per step, so
    // successive steps differ by a small smooth delta. The seed picks the
    // window of the run.
    const double phase0 = 0.05 * static_cast<double>(cfg_.seed % 997);
    for (std::size_t t = 0; t < kSteps; ++t)
      steps_.push_back(synth::value_noise_3d(
          kNz, kNy, kNx, 4, 4.0, /*seed=*/17,
          phase0 + 0.05 * static_cast<double>(t)));
    // One pipeline worker: the container, chunking and seals are measured
    // in full, but the figures stay single-thread. With a worker per core
    // every step waits for the most contended core of a shared machine,
    // and the run-to-run spread (about 25%) exceeds any useful bound.
    for (const char* name : kTable8Codecs) {
      parallel_.push_back(std::make_unique<pipeline::ParallelCompressor>(
          pipeline::ParallelCompressor::Options{name, 1, kChunkRows}, 3));
    }
    auto sz = CodecRegistry::instance().create("SZ2.1", 3).value();
    for (std::size_t s : kPreviewSteps)
      flat_bytes_ += static_cast<double>(
          sz->compress(steps_[s], ErrorBound::Rel(kEb)).size());
    order_.resize(kSteps);
    // Non-finite leg inputs do not depend on the seed: they fail every run.
    Field base = synth::value_noise_2d(32, 32, 3, 4.0, /*seed=*/99);
    inf_ = base;
    inf_.at(100) = std::numeric_limits<float>::infinity();
    nan_ = base;
    nan_.at(100) = std::numeric_limits<float>::quiet_NaN();
    for (const char* name : {"SZ2.1", "SZauto", "SZinterp", "ZFP", "AE-SZ"})
      legs_.push_back({CodecRegistry::instance().create(name, 2).value(), &inf_});
    legs_.push_back({CodecRegistry::instance().create("ZFP", 2).value(), &nan_});
    round(ctx);  // warm-up
  }

  void reset() override {
    e2e_ = {};
    layer_.clear();
    rounds_ = 0;
  }

  void round(Ctx& ctx) override {
    const std::uint64_t t0 = now_ns();
    ++rounds_;
    crc_streams_.clear();
    // A fresh random read order every round, so the median read averages
    // over orders instead of depending on one.
    order_ = permutation(order_.size(), cfg_.seed * 1000003 + rounds_);
    for (const auto& f : steps_)
      for (auto& codec : parallel_) snapshot(ctx, *codec, f);
    for (const char* inner : kTemporalCodecs)
      series(ctx, steps_, kEb, kGop, inner, {}, order_, e2e_, layer_,
             crc_streams_);
    for (std::size_t s : kPreviewSteps) preview(ctx, steps_[s]);
    if (ctx.tracing()) layer_["~progressive.flat_bytes"] += flat_bytes_;
    e2e_.rtt_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    nonfinite(ctx);
  }

  void end_to_end(Sums& out, double wall_s) override { e2e_.fill(out, wall_s); }

  void per_layer(Ctx& ctx, Sums& out, std::vector<std::string>&) override {
    layer_["util.crc_s"] = layer_["util.crc_bytes"] / crc_rate(crc_streams_);
    finish_layers(layer_, static_cast<double>(rounds_), out);
    // Table VIII rows of the plain codecs on the same steps, after the
    // traced phase; the pipeline speed-up compares them per byte with the
    // parallel: rows of the phase.
    for (const char* name : kTable8Codecs) {
      auto codec = CodecRegistry::instance().create(name, 3).value();
      for (const auto& f : steps_) table8_row(ctx, *codec, name, f, kEb, out);
    }
    double inner = 0, wrapped = 0;
    for (const char* name : kTable8Codecs) {
      const std::string p = std::string("codec.") + name;
      const std::string q = std::string("codec.parallel-") + name;
      inner += (out[p + ".~cs"] + out[p + ".~ds"]) / out[p + ".~raw"];
      wrapped += (out[q + ".~cs"] + out[q + ".~ds"]) / out[q + ".~raw"];
    }
    out["pipeline.speedup_vs_inner"] = wrapped > 0 ? inner / wrapped : 0.0;
  }

 private:
  void snapshot(Ctx& ctx, Compressor& codec, const Field& f) {
    const double raw = static_cast<double>(f.size() * sizeof(float));
    const std::string name = codec.name();
    Bytes stream;
    Expected<Field> recon = Status::error(ErrCode::kInternal, "not run");
    try {
      ctx.op_begin("archive.compress");
      ctx.call("pipeline.compress", false,
               [&] { stream = codec.compress(f, ErrorBound::Rel(kEb)); });
      const double cs = static_cast<double>(ctx.op_end()) * 1e-9;
      e2e_.c_raw += raw;
      e2e_.c_out += static_cast<double>(stream.size());
      e2e_.c_s += cs;
      e2e_.ops += 1;
      if (ctx.tracing()) {
        const auto info = pipeline::read_container(stream);
        if (info.ok())
          layer_["pipeline.chunks"] += static_cast<double>(info->chunks.size());
        layer_["pipeline.container_bytes"] += static_cast<double>(stream.size());
      }
      ctx.maybe_flip(stream);
      ctx.op_begin("archive.decompress");
      ctx.call("pipeline.decompress", false,
               [&] { recon = codec.decompress(stream); });
      const double ds = static_cast<double>(ctx.op_end()) * 1e-9;
      e2e_.d_raw += raw;
      e2e_.d_s += ds;
      e2e_.ops += 1;
      if (ctx.tracing()) {
        layer_["pipeline.compress_s"] += cs;
        layer_["pipeline.decompress_s"] += ds;
        add_codec(layer_, name, raw, static_cast<double>(stream.size()), cs,
                  ds);
        layer_["util.crc_bytes"] += 2.0 * static_cast<double>(stream.size());
        crc_streams_.push_back(stream);
      }
    } catch (const std::exception& e) {
      ctx.fail(false, name + " snapshot: " + e.what());
      return;
    }
    if (!recon.ok()) {
      ctx.fail(false, name + " decompress: " + recon.status().str());
      return;
    }
    Ctx::Quality q;
    if (ctx.check_bound(f, *recon, kEb * Ctx::finite_range(f.values()),
                        name + " snapshot", &q)) {
      e2e_.psnr_sum += q.psnr;
      ++e2e_.psnr_n;
    }
  }

  void preview(Ctx& ctx, const Field& f) {
    try {
      progressive::ProgressiveWriter writer;  // SZ2.1, default ladder
      Bytes stream;
      ctx.op_begin("progressive.encode");
      ctx.call("progressive.encode", true,
               [&] { stream = writer.encode(f, ErrorBound::Rel(kEb)); });
      const double s = static_cast<double>(ctx.op_end()) * 1e-9;
      e2e_.ops += 1;
      if (ctx.tracing()) {
        layer_["progressive.encode_s"] += s;
        layer_["~progressive.full_bytes"] += static_cast<double>(stream.size());
        layer_["util.crc_bytes"] += static_cast<double>(stream.size());
        crc_streams_.push_back(stream);
      }
      previews(ctx, f, stream, kEb, {}, e2e_, layer_);
    } catch (const std::exception& e) {
      ctx.fail(false, std::string("AEPR preview: ") + e.what());
    }
  }

  /// The known fault, as counted failures: each round trip fails until it
  /// restores the finite values within the bound and the non-finite value
  /// exactly. Never part of any metric.
  void nonfinite(Ctx& ctx) {
    for (auto& [codec, field] : legs_) {
      const std::string what = codec->name() + " non-finite round trip";
      ctx.op_begin("nonfinite.roundtrip");
      try {
        const Bytes stream = codec->compress(*field, ErrorBound::Rel(kEb));
        auto recon = codec->decompress(stream);
        ctx.op_end();
        if (!recon.ok()) {
          ctx.fail(true, what + ": " + recon.status().str());
          continue;
        }
        ctx.check_bound(*field, *recon,
                        kEb * Ctx::finite_range(field->values()), what,
                        nullptr, /*expected=*/true);
      } catch (const std::exception& e) {
        ctx.op_end();
        ctx.fail(true, what + ": " + e.what());
      }
    }
  }

  Config cfg_;
  std::vector<Field> steps_;
  std::vector<std::unique_ptr<Compressor>> parallel_;
  std::vector<std::size_t> order_;
  Field inf_, nan_;
  std::vector<std::pair<std::unique_ptr<Compressor>, const Field*>> legs_;
  double flat_bytes_ = 0;  // single-layer SZ2.1 streams of the preview steps
  std::vector<Bytes> crc_streams_;  // sealed streams of the last round
  E2E e2e_;
  Sums layer_;
  std::size_t rounds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_archive_series(const Config& cfg) {
  return std::make_unique<ArchiveSeries>(cfg);
}

}  // namespace perfbench
