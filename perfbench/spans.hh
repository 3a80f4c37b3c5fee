/**
 * @file
 * In-memory span recorder for the benchmark's traced run. A span is
 * (name, start, end, parent) in seconds since the recorder was built;
 * spans are kept in memory and written as one JSON file at exit. A
 * span's self time is its duration minus the part of its interval that
 * its child spans cover (children may overlap when batch jobs run on
 * several threads, so coverage is the union of the child intervals).
 */

#ifndef BFSIM_PERFBENCH_SPANS_HH_
#define BFSIM_PERFBENCH_SPANS_HH_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1; ///< index of the causing span, -1 for roots
    };

    /** Closes its span on destruction (no-op when recording is off). */
    class Scope
    {
      public:
        Scope(SpanRecorder &recorder, int index)
            : rec(recorder), idx(index)
        {
        }
        ~Scope() { rec.close(idx); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        int index() const { return idx; }

      private:
        SpanRecorder &rec;
        int idx;
    };

    explicit SpanRecorder(bool enabled)
        : on(enabled), epoch(std::chrono::steady_clock::now())
    {
    }

    bool enabled() const { return on; }

    /** Seconds since the recorder was built. */
    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch)
            .count();
    }

    /**
     * Open a span under the innermost open span of the calling
     * (main) thread; it closes when the returned scope dies.
     */
    Scope
    scope(const std::string &name)
    {
        if (!on)
            return Scope(*this, -1);
        std::lock_guard<std::mutex> lock(mutex);
        int parent = open.empty() ? -1 : open.back();
        spans.push_back({name, now(), -1.0, parent});
        int index = static_cast<int>(spans.size()) - 1;
        open.push_back(index);
        return Scope(*this, index);
    }

    /** Record an already finished span (e.g. a batch job). */
    void
    add(const std::string &name, double start, double end, int parent)
    {
        if (!on)
            return;
        std::lock_guard<std::mutex> lock(mutex);
        spans.push_back({name, start, end, parent});
    }

    /** Summed duration of every span called `name`. */
    double
    total(const std::string &name) const
    {
        double sum = 0.0;
        for (const Span &span : spans)
            if (span.name == name)
                sum += span.end - span.start;
        return sum;
    }

    /** Duration minus the union of the direct children's intervals. */
    double
    selfSeconds(int index) const
    {
        const Span &span = spans[static_cast<std::size_t>(index)];
        std::vector<std::pair<double, double>> children;
        for (const Span &child : spans) {
            if (child.parent == index) {
                children.emplace_back(std::max(child.start, span.start),
                                      std::min(child.end, span.end));
            }
        }
        std::sort(children.begin(), children.end());
        double covered = 0.0;
        double reach = span.start;
        for (const auto &[begin, end] : children) {
            double from = std::max(begin, reach);
            if (end > from) {
                covered += end - from;
                reach = end;
            }
        }
        return (span.end - span.start) - covered;
    }

    /**
     * Write every span (with its self time) and a per-name summary of
     * total and self seconds. Returns false when the file cannot be
     * written.
     */
    bool
    writeJson(const std::string &path) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (!out)
            return false;
        std::map<std::string, std::pair<double, double>> summary;
        std::fprintf(out, "{\"spans\": [\n");
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &span = spans[i];
            double self = selfSeconds(static_cast<int>(i));
            std::string layer = span.name.substr(0, span.name.find(':'));
            summary[layer].first += span.end - span.start;
            summary[layer].second += self;
            std::fprintf(out,
                         "  {\"id\": %zu, \"name\": \"%s\", "
                         "\"start\": %.9f, \"end\": %.9f, "
                         "\"parent\": %d, \"self_s\": %.9f}%s\n",
                         i, escaped(span.name).c_str(), span.start,
                         span.end, span.parent, self,
                         i + 1 < spans.size() ? "," : "");
        }
        std::fprintf(out, "],\n\"layers\": {\n");
        std::size_t n = 0;
        for (const auto &[name, times] : summary) {
            std::fprintf(out,
                         "  \"%s\": {\"total_s\": %.9f, "
                         "\"self_s\": %.9f}%s\n",
                         escaped(name).c_str(), times.first,
                         times.second,
                         ++n < summary.size() ? "," : "");
        }
        std::fprintf(out, "}}\n");
        return std::fclose(out) == 0;
    }

  private:
    void
    close(int index)
    {
        if (index < 0)
            return;
        std::lock_guard<std::mutex> lock(mutex);
        spans[static_cast<std::size_t>(index)].end = now();
        open.erase(std::find(open.begin(), open.end(), index));
    }

    static std::string
    escaped(const std::string &text)
    {
        std::string out;
        for (char c : text) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out;
    }

    bool on;
    std::chrono::steady_clock::time_point epoch;
    std::mutex mutex; ///< guards spans and open
    std::vector<Span> spans;
    std::vector<int> open;
};

} // namespace perfbench

#endif // BFSIM_PERFBENCH_SPANS_HH_
