#pragma once

// Shared plumbing of the end-to-end benchmark: the run context (operation
// counts, output checks, fault injection), in-memory trace spans with
// self-time derivation, and metric assembly. Everything here is the
// benchmark's own code; the library is only called through its public API
// by the workload files.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/aesz.hpp"
#include "data/field.hpp"
#include "predictors/compressor.hpp"
#include "util/stage_timer.hpp"

namespace perfbench {

using Bytes = std::vector<std::uint8_t>;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "" (normal run), "bound" (push one decoded value past its bound) or
  /// "flip" (flip one byte of one produced stream): proves the checks bite.
  std::string inject;
  /// Scratch directory for model files and traces (inside the checkout).
  std::string out_dir;
  unsigned nproc = 1;
};

/// Nanoseconds on the same clock as the server's request traces
/// (obs::monotonic_ns), so client and server spans line up.
std::uint64_t now_ns();

/// One complete span. Stage children (cat "stage") carry exact durations
/// laid out back to back from their parent's start, the same convention as
/// the server's request traces: a stage accumulates over many scopes, so
/// there is no single real offset to report.
struct Span {
  std::string name;
  std::string cat;  // "op", "call" or "stage"
  std::uint64_t id = 0;  // operation id, shared by every span of one op
  std::uint64_t t0 = 0, t1 = 0;
  int depth = 0;  // 0 op, 1 call, 2 stage
};

/// Per-layer accumulators filled while tracing: named sums (seconds,
/// counts, bytes) that the workloads turn into per-layer metrics.
using Sums = std::map<std::string, double>;

class Ctx {
 public:
  explicit Ctx(Config cfg) : cfg_(std::move(cfg)) {}

  bool tracing() const { return tracing_; }
  void set_tracing(bool on) { tracing_ = on; }

  // ---- operations -------------------------------------------------------
  /// Start an operation: counts it attempted and opens its root span.
  /// Returns its start time.
  std::uint64_t op_begin(const char* name);
  /// Close the current operation; returns its duration in nanoseconds.
  std::uint64_t op_end();
  /// Record an operation timed by the caller (pipelined requests, whose
  /// intervals overlap): counts it attempted and records its root span and
  /// one call span `call` over the same interval.
  void op_record(const char* name, const char* call, std::uint64_t t0,
                 std::uint64_t t1);
  /// Count the current operation failed. `expected` marks a known fault
  /// of the program that fails on every run; any other failure makes the
  /// whole run incorrect.
  void fail(bool expected, const std::string& why);

  /// Time one call into a layer as a child span of the current operation.
  /// `own_thread` says the call runs its codec stages on this thread, so
  /// the process-wide prof::snapshot() delta is this call's stage time
  /// and becomes its stage children. Returns the call's nanoseconds.
  std::uint64_t call(const char* name, bool own_thread,
                     const std::function<void()>& fn);

  // ---- checks (the benchmark's own arithmetic) --------------------------
  struct Quality {
    double max_err = 0, psnr = 0, range = 0;
  };
  /// Value range over the finite values of `v` (max - min, in double).
  static double finite_range(std::span<const float> v);
  /// Check |orig - recon| <= abs everywhere; a non-finite original must
  /// come back exactly (bitwise class and sign). Fills q. On violation
  /// records an unexpected failure unless `expected`.
  bool check_bound(const aesz::Field& orig, aesz::Field& recon, double abs,
                   const std::string& what, Quality* q = nullptr,
                   bool expected = false);
  /// Check two byte strings are identical.
  bool check_same(std::span<const std::uint8_t> got,
                  std::span<const std::uint8_t> want, const std::string& what);
  /// Check two fields are bitwise identical.
  bool check_same(const aesz::Field& got, const aesz::Field& want,
                  const std::string& what);
  /// Fault injection: flips one byte of the first stream passed here when
  /// the run was asked to ("flip").
  void maybe_flip(Bytes& stream);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }
  const std::vector<std::string>& errors() const { return errors_; }
  void reset_counts() { attempted_ = failed_ = 0; }

  // ---- trace --------------------------------------------------------------
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per layer (span-name prefix before the first '.') over the
  /// recorded spans: each span's duration minus what its children cover.
  /// Root operation spans count as the layer "bench".
  std::map<std::string, double> self_seconds() const;
  /// Write the spans (plus extra pre-rendered event lines, e.g. the
  /// server's JSONL trace) as a Chrome trace-event JSON array.
  bool write_trace(const std::string& path,
                   const std::vector<std::string>& extra_events) const;

 private:
  Config cfg_;
  bool tracing_ = false;
  std::uint64_t attempted_ = 0, failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> errors_;
  bool injected_ = false;

  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

class Workload;

/// Default run loop: whole rounds until `seconds` have passed. Returns the
/// number of rounds completed.
std::size_t run_rounds(Workload& w, Ctx& ctx, double seconds);

/// A workload: set up once per set-up repetition, then run whole rounds of
/// the same operations until the time is up.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Synthesize data, train, start services, run one warm-up round.
  virtual void setup(Ctx& ctx) = 0;
  /// One round: every operation of the workload once, each checked.
  virtual void round(Ctx& ctx) = 0;
  /// Drop all measurements (between set-up and the measured phase).
  virtual void reset() = 0;
  /// Run whole rounds for `seconds`; returns the rounds completed. The
  /// service overrides this to drive its connections concurrently.
  virtual std::size_t run_for(Ctx& ctx, double seconds) {
    return run_rounds(*this, ctx, seconds);
  }
  /// Called before the traced phase (the service restarts its server with
  /// its per-request trace on).
  virtual void begin_traced(Ctx&) {}
  /// End-to-end metrics of the measured phase (everything except setup_s
  /// and peak_rss_mib, which the harness adds).
  virtual void end_to_end(Sums& out, double wall_s) = 0;
  /// Per-layer metrics of the traced phase. Extra trace event lines (the
  /// server's) go to `events`.
  virtual void per_layer(Ctx& ctx, Sums& out,
                         std::vector<std::string>& events) = 0;
};

std::unique_ptr<Workload> make_aesz_snapshots(const Config& cfg);
std::unique_ptr<Workload> make_archive_series(const Config& cfg);
std::unique_ptr<Workload> make_service_mixed(const Config& cfg);

/// End-to-end accumulators shared by the workloads. Rates divide summed
/// bytes by the summed time of the operations that moved them. `rtt_ms`
/// holds one sample per service request; the in-process workloads put one
/// sample per round there (a whole checkpoint cycle: every write and
/// read-back of the round), because their operations come in a few fixed
/// classes whose percentiles would sit on a class boundary.
struct E2E {
  double c_raw = 0, c_out = 0, c_s = 0;  // compress: input, output, time
  double d_raw = 0, d_s = 0;             // decompress: output, time
  double a_raw = 0, a_s = 0;             // time-series appends
  double psnr_sum = 0;
  std::size_t psnr_n = 0;
  double ops = 0;                        // operations completed
  std::vector<double> read_ms, preview_ms, rtt_ms;
  void merge(const E2E& o);
  void fill(Sums& out, double wall_s) const;
};

/// Hands a shared codec instance to the container writers and readers,
/// whose factories must return an owned Compressor. The trained AE-SZ model
/// is then built once instead of once per stream.
class Borrowed final : public aesz::Compressor {
 public:
  explicit Borrowed(aesz::Compressor& c) : c_(c) {}
  std::string name() const override { return c_.name(); }
  using aesz::Compressor::compress;
  std::vector<std::uint8_t> compress(const aesz::Field& f,
                                     const aesz::ErrorBound& eb) override {
    return c_.compress(f, eb);
  }
  bool error_bounded() const override { return c_.error_bounded(); }
  bool supports_rank(int rank) const override {
    return c_.supports_rank(rank);
  }

 protected:
  aesz::Field decompress_impl(std::span<const std::uint8_t> s) override;

 private:
  aesz::Compressor& c_;
};

/// OpenMP team size for the network layers of the calling thread (no-op
/// without OpenMP). Training in set-up uses every core; measured phases
/// run the network in one thread.
void set_omp_threads(unsigned n);

/// The CESM-CLDHGH AE-SZ model both the snapshot workload and the service
/// serve: model-zoo options, trained with a fixed seed on a fixed training
/// split (timesteps 5, 10, 15 at 192x384), independent of --seed.
std::unique_ptr<aesz::AESZ> train_cesm_model(unsigned nproc);

// ---- shared workload legs -------------------------------------------------
/// The baselines of the paper's Table VIII.
inline constexpr const char* kTable8Codecs[] = {"SZ2.1", "SZauto", "SZinterp",
                                                "ZFP"};

/// One timed, checked compress + decompress of `codec` on `f` at rel `eb`,
/// added to the codec's Table VIII row in `out`. Not a workload operation:
/// the traced run adds these rows after its measured phase.
void table8_row(Ctx& ctx, aesz::Compressor& codec, const std::string& name,
                const aesz::Field& f, double eb, Sums& out);

/// Inner-codec factory of the container writers and readers (empty = the
/// registry), as temporal:: and progressive:: take it.
using CodecFactory = std::function<std::unique_ptr<aesz::Compressor>(
    const std::string&, int)>;

/// Time-series leg: append `frames` to a fresh AETC stream (`inner` codec,
/// rel `eb`, `gop`, auto mode), one operation per append; decode it
/// sequentially as the reference (each timestep checked against its
/// bound), then read it back in `order`, one operation per read, each
/// equal to the sequential decode. `crc_streams` keeps the stream for
/// util.crc_s.
void series(Ctx& ctx, const std::vector<aesz::Field>& frames, double eb,
            std::size_t gop, const std::string& inner,
            const CodecFactory& factory, const std::vector<std::size_t>& order,
            E2E& e2e, Sums& layer, std::vector<Bytes>& crc_streams);

/// Byte-budgeted previews of an AEPR stream of `f` (final bound rel `eb`,
/// default ladder): one operation per proper prefix (layers 0..k for
/// k < L-1), each truncated decode-free, decoded, and checked against its
/// rung abs * factor^(L-1-k) computed from the ladder parameters. Only the
/// coarsest (k = 0) feeds preview_read_ms.
void previews(Ctx& ctx, const aesz::Field& f, const Bytes& stream, double eb,
              const CodecFactory& factory, E2E& e2e, Sums& layer);

/// crc32c() throughput in bytes/s, timed apart over a sample of the sealed
/// streams a workload produced (util.crc_s is computed from it).
double crc_rate(const std::vector<Bytes>& sample);

/// Turn a workload's traced sums into per-layer metrics in `out`. Keys
/// starting with '~' are inputs of derived shares (AE fraction, decodes per
/// read, AEPR overhead, pipeline speed-up) and are dropped; codec-row keys
/// (".~") pass through for finish_codec_rows(); every other sum is divided
/// by `rounds`, so per-layer totals are per round.
void finish_layers(const Sums& layer, double rounds, Sums& out);

/// Convert accumulated codec rows into codec.<c>.compress_mb_s,
/// .decompress_mb_s and .ratio.
void finish_codec_rows(Sums& out);

// ---- statistics -----------------------------------------------------------
/// Linear-interpolated quantile (q in [0,1]) of a sample; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Stage-time delta helper: prof::snapshot() as seconds by layer name.
struct StageDelta {
  aesz::prof::StageTimes t0 = aesz::prof::snapshot();
  /// Adds the delta since construction to `out` under the layer names.
  void add_to(Sums& out) const;
};

/// Accumulate one codec's Table VIII row: bytes in, seconds, bytes out.
void add_codec(Sums& s, const std::string& codec, double raw_bytes,
               double compressed_bytes, double compress_s, double decompress_s);

/// Pseudo-random permutation of 0..n-1 from a seed (Fisher-Yates over
/// splitmix64), used for random-order reads.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

}  // namespace perfbench
