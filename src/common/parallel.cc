#include "common/parallel.hh"

namespace loas {

TaskPool&
TaskPool::instance()
{
    // Leaked on purpose: the pool outlives every static that a task
    // might still touch while the process exits.
    static TaskPool* const pool = new TaskPool();
    return *pool;
}

std::size_t
TaskPool::threads() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return threads_.size();
}

void
TaskPool::runGroup(Group& group)
{
    const bool shared = group.width > 1;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const std::size_t want = std::max<std::size_t>(
            static_cast<std::size_t>(resolveThreads(0)), group.width);
        while (threads_.size() < want)
            threads_.emplace_back([this] { threadLoop(); });
        group.joined = 1;
        group.active = 1;
        group.open = shared;
        if (shared)
            open_.push_back(&group);
    }
    if (shared)
        idle_.notify_all();

    work(group, 0);

    std::unique_lock<std::mutex> lock(mutex_);
    closeLocked(group);
    --group.active;
    group.drained.wait(lock, [&group] { return group.active == 0; });
    if (group.error)
        std::rethrow_exception(group.error);
}

void
TaskPool::work(Group& group, std::size_t participant)
{
    while (true) {
        const std::size_t job = group.next.fetch_add(1);
        if (job >= group.jobs)
            return;
        if (group.failed.load())
            continue;  // drain without doing more work
        try {
            group.invoke(group.body, participant, job);
        } catch (...) {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (!group.error)
                group.error = std::current_exception();
            group.failed.store(true);
        }
    }
}

void
TaskPool::threadLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        Group* group = nullptr;
        idle_.wait(lock, [&] { return (group = pickLocked()) != nullptr; });
        const std::size_t participant = group->joined++;
        ++group->active;
        if (group->joined == group->width)
            closeLocked(*group);
        lock.unlock();
        work(*group, participant);
        lock.lock();
        closeLocked(*group);
        // Notify under the lock: the caller's group lives on its stack
        // and may return as soon as it sees active == 0.
        if (--group->active == 0)
            group->drained.notify_one();
    }
}

TaskPool::Group*
TaskPool::pickLocked()
{
    Group* best = nullptr;
    for (std::size_t i = 0; i < open_.size();) {
        Group* group = open_[i];
        if (group->next.load() >= group->jobs) {
            closeLocked(*group);  // all claimed: nothing to join
            continue;
        }
        if (best == nullptr || group->active < best->active)
            best = group;
        ++i;
    }
    return best;
}

void
TaskPool::closeLocked(Group& group)
{
    if (!group.open)
        return;
    group.open = false;
    open_.erase(std::find(open_.begin(), open_.end(), &group));
}

} // namespace loas
