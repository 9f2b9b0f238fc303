#include "runner/trace.h"

#include <fstream>

#include "runner/json.h"

namespace perfbench {

TraceRecorder::TraceRecorder() : origin_(Clock::now()) {}

TraceRecorder::Scope::Scope(TraceRecorder &rec, std::string name,
                            std::string category)
    : rec_(rec), name_(std::move(name)), category_(std::move(category)),
      start_(Clock::now())
{
}

TraceRecorder::Scope::~Scope()
{
    rec_.record(std::move(name_), std::move(category_), start_,
                Clock::now());
}

void
TraceRecorder::record(std::string name, std::string category,
                      Clock::time_point start, Clock::time_point end)
{
    const auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    events_.push_back(Event{std::move(name), std::move(category), us(start),
                            us(end) - us(start)});
}

void
TraceRecorder::closeLayer(const char *layer, Clock::time_point start,
                          Clock::time_point end)
{
    layerSeconds_[layer] +=
        std::chrono::duration<double>(end - start).count();
    ++layerCalls_[layer];
    record(layer, "layer", start, end);
}

double
TraceRecorder::seconds(const std::string &name) const
{
    const auto it = layerSeconds_.find(name);
    return it == layerSeconds_.end() ? 0.0 : it->second;
}

std::int64_t
TraceRecorder::calls(const std::string &name) const
{
    const auto it = layerCalls_.find(name);
    return it == layerCalls_.end() ? 0 : it->second;
}

double
TraceRecorder::layerTotal() const
{
    double total = 0.0;
    for (const auto &[name, s] : layerSeconds_)
        total += s;
    return total;
}

bool
TraceRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (const Event &e : events_) {
        out << (first ? "\n" : ",\n") << "{\"name\": "
            << jsonString(e.name) << ", \"cat\": "
            << jsonString(e.category)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << jsonNumber(e.startUs) << ", \"dur\": "
            << jsonNumber(e.durationUs) << "}";
        first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
