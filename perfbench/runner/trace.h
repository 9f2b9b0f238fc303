#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

/**
 * @file
 * In-memory span recorder for the serial traced run. Spans nest as
 * workload -> app -> nest -> layer call; each layer call is a leaf
 * around one call into a layer's public function, so a layer's
 * exclusive time is simply the sum of its call spans. Spans stay in
 * memory and are written once, at the end, as a Chrome trace-event
 * file (`{"traceEvents": [...]}`, complete "X" events) that Perfetto
 * and chrome://tracing open.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class TraceRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    TraceRecorder();

    /** RAII span of a non-layer scope (workload, app, nest). */
    class Scope
    {
      public:
        Scope(TraceRecorder &rec, std::string name, std::string category);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        TraceRecorder &rec_;
        std::string name_;
        std::string category_;
        Clock::time_point start_;
    };

    /**
     * Time @p fn as one call into layer @p layer: records a leaf span and
     * adds its duration to the layer's exclusive seconds.
     */
    template <typename F>
    decltype(auto)
    layer(const char *layer, F &&fn)
    {
        const Clock::time_point start = Clock::now();
        struct Close
        {
            TraceRecorder &rec;
            const char *layer;
            Clock::time_point start;
            ~Close() { rec.closeLayer(layer, start, Clock::now()); }
        } close{*this, layer, start};
        return std::forward<F>(fn)();
    }

    /** Exclusive seconds of layer @p name (0 when never called). */
    double seconds(const std::string &name) const;
    /** Calls of layer @p name (0 when never called). */
    std::int64_t calls(const std::string &name) const;
    /** Sum of every layer's exclusive seconds. */
    double layerTotal() const;

    std::size_t spanCount() const { return events_.size(); }

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Event
    {
        std::string name;
        std::string category;
        double startUs;
        double durationUs;
    };

    void record(std::string name, std::string category,
                Clock::time_point start, Clock::time_point end);
    void closeLayer(const char *layer, Clock::time_point start,
                    Clock::time_point end);

    Clock::time_point origin_;
    std::vector<Event> events_;
    std::map<std::string, double> layerSeconds_;
    std::map<std::string, std::int64_t> layerCalls_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
