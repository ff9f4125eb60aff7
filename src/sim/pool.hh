/**
 * @file
 * Slab-backed object pool for hot-path simulator allocations.
 *
 * The event queue churns through nodes at simulator speed; going to
 * the global allocator per event costs a malloc/free round trip and
 * scatters nodes across the heap. Pool hands out fixed-size slots from
 * geometrically growing slabs and recycles them through a LIFO free
 * stack, so steady-state scheduling never touches the allocator and
 * recently freed slots (still cache-hot) are reused first.
 *
 * Under AddressSanitizer, free slots are poisoned so stale pointers to
 * recycled objects are caught as use-after-free instead of silently
 * reading the next occupant.
 */

#ifndef PIPELLM_SIM_POOL_HH
#define PIPELLM_SIM_POOL_HH

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/logging.hh"

#ifndef PIPELLM_ASAN
#  if defined(__SANITIZE_ADDRESS__)
#    define PIPELLM_ASAN 1
#  elif defined(__has_feature)
#    if __has_feature(address_sanitizer)
#      define PIPELLM_ASAN 1
#    endif
#  endif
#endif
#ifndef PIPELLM_ASAN
#define PIPELLM_ASAN 0
#endif

#if PIPELLM_ASAN
#include <sanitizer/asan_interface.h>
#define PIPELLM_POISON_SLOT(ptr, len) __asan_poison_memory_region(ptr, len)
#define PIPELLM_UNPOISON_SLOT(ptr, len) \
    __asan_unpoison_memory_region(ptr, len)
#else
#define PIPELLM_POISON_SLOT(ptr, len) ((void)0)
#define PIPELLM_UNPOISON_SLOT(ptr, len) ((void)0)
#endif

namespace pipellm {
namespace sim {

/**
 * Fixed-type object pool: O(1) create/destroy, no per-object heap
 * traffic after warmup. Not thread-safe by design — each event
 * queue owns its pool outright.
 */
template <typename T>
class Pool
{
  public:
    Pool() = default;

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    ~Pool()
    {
        PIPELLM_ASSERT(live_ == 0, "destroying pool with ", live_,
                       " live objects");
        // Hand the pages back to the allocator unpoisoned; the heap
        // may recycle them for unrelated objects.
        for (std::size_t i = 0; i < slabs_.size(); ++i)
            PIPELLM_UNPOISON_SLOT(slabs_[i].get(),
                                  slab_sizes_[i] * sizeof(Slot));
    }

    /** Grow capacity so at least @p n objects fit without new slabs. */
    void
    reserve(std::size_t n)
    {
        if (n > capacity_)
            grow(n - capacity_);
    }

    /** Construct a T in a pooled slot. */
    template <typename... Args>
    T *
    create(Args &&...args)
    {
        if (free_.empty())
            grow(capacity_ == 0 ? firstSlabSlots : capacity_);
        Slot *slot = free_.back();
        free_.pop_back();
        PIPELLM_UNPOISON_SLOT(slot, sizeof(Slot));
        T *obj = ::new (slot->bytes) T(std::forward<Args>(args)...);
        ++live_;
        return obj;
    }

    /** Destroy a pool-created T and recycle its slot. */
    void
    destroy(T *obj)
    {
        PIPELLM_ASSERT(obj != nullptr, "destroying null pool object");
        PIPELLM_ASSERT(live_ > 0, "pool double-destroy");
        obj->~T();
        auto *slot = reinterpret_cast<Slot *>(
            reinterpret_cast<std::byte *>(obj) - offsetof(Slot, bytes));
        free_.push_back(slot);
        PIPELLM_POISON_SLOT(slot, sizeof(Slot));
        --live_;
    }

    std::size_t liveCount() const { return live_; }
    std::size_t capacity() const { return capacity_; }

  private:
    struct Slot
    {
        alignas(T) std::byte bytes[sizeof(T)];
    };

    static constexpr std::size_t firstSlabSlots = 64;

    void
    grow(std::size_t slots)
    {
        auto slab = std::make_unique<Slot[]>(slots);
        free_.reserve(free_.size() + slots);
        // Push in reverse so the lowest address pops first: warmup
        // allocations walk each slab front to back.
        for (std::size_t i = slots; i-- > 0;) {
            free_.push_back(&slab[i]);
            PIPELLM_POISON_SLOT(&slab[i], sizeof(Slot));
        }
        capacity_ += slots;
        slab_sizes_.push_back(slots);
        slabs_.push_back(std::move(slab));
    }

    std::vector<std::unique_ptr<Slot[]>> slabs_;
    std::vector<std::size_t> slab_sizes_;
    std::vector<Slot *> free_;
    std::size_t live_ = 0;
    std::size_t capacity_ = 0;
};

} // namespace sim
} // namespace pipellm

#endif // PIPELLM_SIM_POOL_HH
