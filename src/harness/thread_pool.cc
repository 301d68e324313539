#include "harness/thread_pool.hh"

#include <cstdlib>

#include "util/spec_text.hh"

namespace pddl {
namespace harness {

int
defaultThreads()
{
    int parsed = 0;
    if (const char *env = std::getenv("PDDL_BENCH_THREADS");
        env != nullptr && spec_text::parseInt(env, parsed, 1))
        return parsed;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

int
defaultSimThreads()
{
    int parsed = 0;
    if (const char *env = std::getenv("PDDL_SIM_THREADS");
        env != nullptr && spec_text::parseInt(env, parsed, 1))
        return parsed;
    return 1;
}

ThreadPool::ThreadPool(int threads)
{
    if (threads < 1)
        threads = defaultThreads();
    queues_.resize(static_cast<size_t>(threads));
    // A single worker runs batches inline in parallelFor; only a
    // genuinely parallel pool needs threads.
    if (threads == 1)
        return;
    workers_.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t)
        workers_.emplace_back(
            [this, t] { workerLoop(static_cast<size_t>(t)); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

bool
ThreadPool::takeTask(size_t self, size_t &index)
{
    auto &own = queues_[self];
    if (!own.empty()) {
        index = own.front();
        own.pop_front();
        return true;
    }
    // Steal from the back of the first non-empty victim.
    for (size_t i = 1; i < queues_.size(); ++i) {
        auto &victim = queues_[(self + i) % queues_.size()];
        if (!victim.empty()) {
            index = victim.back();
            victim.pop_back();
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(size_t self)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        size_t index;
        if (job_ != nullptr && takeTask(self, index)) {
            const auto *job = job_;
            lock.unlock();
            try {
                (*job)(index);
            } catch (...) {
                lock.lock();
                if (!error_)
                    error_ = std::current_exception();
                if (--unfinished_ == 0)
                    done_cv_.notify_all();
                continue;
            }
            lock.lock();
            if (--unfinished_ == 0)
                done_cv_.notify_all();
            continue;
        }
        if (stop_)
            return;
        work_cv_.wait(lock);
    }
}

void
ThreadPool::parallelFor(size_t count,
                        const std::function<void(size_t)> &fn)
{
    if (count == 0)
        return;
    if (workers_.empty()) {
        // Serial reference schedule: strict index order, no threads.
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    for (size_t i = 0; i < count; ++i)
        queues_[i % queues_.size()].push_back(i);
    job_ = &fn;
    unfinished_ = count;
    error_ = nullptr;
    work_cv_.notify_all();
    done_cv_.wait(lock, [this] { return unfinished_ == 0; });
    job_ = nullptr;
    if (error_)
        std::rethrow_exception(error_);
}

} // namespace harness
} // namespace pddl
