#pragma once

// In-memory span recorder for the benchmark's traced replays. Spans are
// opened and closed around calls into the program's public functions; they
// live in a vector until the run ends, when they are aggregated into
// per-layer self times and written out as JSON lines.

#include <cstdint>
#include <string>
#include <vector>

#include "util/clock.hpp"

namespace perfbench {

/// Layers the traced replay records, in report order. `kDesign` and `kJob`
/// are root spans (one design through the device ladder, one served job);
/// their self time is glue that no layer claims — the replay's unattributed
/// time.
enum class Layer : std::uint32_t {
  kDesign,
  kJob,
  kConnectivity,
  kClustering,
  kCompatibility,
  kEvalContext,
  kBaselines,
  kSearch,
  kDesignParse,
  kParseRequest,
  kCacheKey,
  kEncode,
  kAnalyze,
  kFloorplanRerank,
  kSimReplay,
  kCount,
};

constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Metric prefix of each layer ("core.search" -> "core.search.self_s").
const char* layer_name(Layer layer);

struct Span {
  std::uint32_t name = 0;  ///< Layer index (or any id in hand-built sets)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span vector; -1 = root
  std::uint64_t request = 0;  ///< design or job the span belongs to
};

/// Single-threaded recorder: spans nest strictly, parents come from an
/// explicit open-span stack.
class SpanRecorder {
 public:
  std::int32_t open(Layer layer, std::uint64_t request);
  void close(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per span; returns false when the file cannot
  /// be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null recorder makes it a no-op, so the replay code runs
/// untraced at the cost of a branch per call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Layer layer, std::uint64_t request)
      : recorder_(recorder),
        index_(recorder_ != nullptr ? recorder_->open(layer, request) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t index_;
};

/// Runs `f` inside a span and returns its result (guaranteed elision, so
/// non-movable results such as EvalContext work).
template <class F>
auto timed(SpanRecorder* recorder, Layer layer, std::uint64_t request, F&& f)
    -> decltype(f()) {
  const ScopedSpan span(recorder, layer, request);
  return f();
}

struct NameTotals {
  std::int64_t self_ns = 0;  ///< duration minus time covered by children
  std::uint64_t count = 0;
};

/// Aggregates spans by name id (`names` ids, 0..names-1). A span's self
/// time is its duration minus the union of its children's intervals,
/// clipped to the span; children are the spans whose `parent` points at it.
std::vector<NameTotals> self_times(const std::vector<Span>& spans,
                                   std::size_t names);

}  // namespace perfbench
