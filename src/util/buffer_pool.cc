#include "util/buffer_pool.h"

#include <algorithm>
#include <mutex>
#include <new>
#include <vector>

namespace psmr::util {

namespace detail {

/// Counter slots of PoolStats, in field order.
enum Counter : std::size_t {
  kHits,
  kMisses,
  kOversize,
  kRecycled,
  kDropped,
  kOutstanding,
  kNumCounters
};

/// The part of a pool that thread caches share with it.
struct PoolShared {
  explicit PoolShared(std::size_t max) : max_free(max) {}
  const std::size_t max_free;  ///< Options::max_free_per_class
  std::mutex mu;
  bool alive = true;  ///< false once the pool is destroyed
  std::vector<BlockHeader*> free[BufferPool::kNumClasses];
  std::vector<PoolCache*> caches;  ///< live thread caches, for stats()
  /// Counts of exited threads' caches and of calls made without a cache.
  std::int64_t retired[kNumCounters] = {};
};

/// One thread's cache for one pool.  Only its thread touches the blocks;
/// the counters are atomics so stats() can read them from any thread.
struct PoolCache {
  std::shared_ptr<PoolShared> shared;
  struct Class {
    std::size_t cap = 0;
    std::size_t count = 0;
    BlockHeader* blocks[BufferPool::kCacheBlocks] = {};
  } cls[BufferPool::kNumClasses];
  std::atomic<std::int64_t> n[kNumCounters] = {};

  /// Single-writer increment: a plain load and store, no locked RMW.
  void add(Counter k, std::int64_t d) {
    n[k].store(n[k].load(std::memory_order_relaxed) + d,
               std::memory_order_relaxed);
  }
};

}  // namespace detail

namespace {

using detail::BlockHeader;
using detail::Counter;
using detail::PoolCache;
using detail::PoolShared;

/// Returns every block cached in `cache` to its pool's free lists (freeing
/// what does not fit, or everything when the pool is gone), folds its
/// counters into the pool's, and unregisters it.
void retire(PoolCache* cache) {
  PoolShared& sh = *cache->shared;
  std::lock_guard lock(sh.mu);
  for (std::size_t c = 0; c < BufferPool::kNumClasses; ++c) {
    auto& k = cache->cls[c];
    for (std::size_t i = 0; i < k.count; ++i) {
      if (sh.alive && sh.free[c].size() < sh.max_free) {
        sh.free[c].push_back(k.blocks[i]);
      } else {
        if (sh.alive) ++sh.retired[detail::kDropped];
        ::operator delete(k.blocks[i]);
      }
    }
    k.count = 0;
  }
  if (!sh.alive) return;
  for (std::size_t i = 0; i < detail::kNumCounters; ++i) {
    sh.retired[i] += cache->n[i].load(std::memory_order_relaxed);
  }
  std::erase(sh.caches, cache);
}

/// A thread's caches, one per pool it has used.  Destroyed at thread exit,
/// which hands every cached block back.
struct ThreadCaches {
  std::vector<PoolCache*> caches;
  ~ThreadCaches();
};

// Trivially destructible, so they stay readable while the thread's other
// thread_local objects are destroyed (and release pooled blocks).
thread_local PoolCache* t_last = nullptr;          // last cache used
thread_local const PoolShared* t_last_shared = nullptr;
thread_local int t_state = 0;  // 0 fresh, 1 caching, 2 exiting

thread_local ThreadCaches t_caches;

ThreadCaches::~ThreadCaches() {
  t_state = 2;
  t_last = nullptr;
  t_last_shared = nullptr;
  for (PoolCache* cache : caches) {
    retire(cache);
    delete cache;
  }
}

/// Adds `d` to counter `k`: in the thread's cache, or under the pool mutex
/// when the thread has no cache (it is exiting).
void count(PoolCache* cache, PoolShared& sh, Counter k, std::int64_t d) {
  if (cache != nullptr) {
    cache->add(k, d);
    return;
  }
  std::lock_guard lock(sh.mu);
  sh.retired[k] += d;
}

}  // namespace

void PooledBuf::release() {
  if (hdr_ == nullptr) {
    return;
  }
  if (hdr_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (hdr_->pool != nullptr) {
      hdr_->pool->release_block(hdr_);
    } else {
      ::operator delete(hdr_);
    }
  }
  hdr_ = nullptr;
}

BufferPool::BufferPool() : BufferPool(Options{}) {}

BufferPool::BufferPool(Options opt)
    : opt_(opt),
      shared_(std::make_shared<PoolShared>(opt.max_free_per_class)) {
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    cache_cap_[c] = std::min({kCacheBlocks, kCacheClassBytes / kClasses[c],
                              opt_.max_free_per_class / 8});
  }
}

BufferPool::~BufferPool() {
  // This thread's cache goes now; other threads' caches free their blocks
  // when those threads exit (they see the pool is gone).
  if (t_state == 1) {
    auto& caches = t_caches.caches;
    for (auto it = caches.begin(); it != caches.end(); ++it) {
      if ((*it)->shared == shared_) {
        retire(*it);
        if (t_last == *it) {
          t_last = nullptr;
          t_last_shared = nullptr;
        }
        delete *it;
        caches.erase(it);
        break;
      }
    }
  }
  std::lock_guard lock(shared_->mu);
  shared_->alive = false;
  for (auto& list : shared_->free) {
    for (BlockHeader* hdr : list) {
      ::operator delete(hdr);
    }
    list.clear();
  }
}

std::size_t BufferPool::class_for(std::size_t n) {
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    if (n <= kClasses[c]) {
      return c;
    }
  }
  return kNumClasses;
}

detail::BlockHeader* BufferPool::heap_block(std::size_t capacity,
                                            BufferPool* pool) {
  void* mem = ::operator new(sizeof(detail::BlockHeader) + capacity);
  auto* hdr = new (mem) detail::BlockHeader{
      {1}, static_cast<std::uint32_t>(capacity), pool};
  return hdr;
}

detail::PoolCache* BufferPool::local_cache() {
  if (t_last_shared == shared_.get()) {
    return t_last;
  }
  if (t_state == 2) {
    return nullptr;
  }
  t_state = 1;
  PoolCache* cache = nullptr;
  for (PoolCache* c : t_caches.caches) {
    if (c->shared == shared_) {
      cache = c;
      break;
    }
  }
  if (cache == nullptr) {
    cache = new PoolCache;
    cache->shared = shared_;
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      cache->cls[c].cap = cache_cap_[c];
    }
    {
      std::lock_guard lock(shared_->mu);
      shared_->caches.push_back(cache);
    }
    t_caches.caches.push_back(cache);
  }
  t_last = cache;
  t_last_shared = shared_.get();
  return cache;
}

void BufferPool::refill(detail::PoolCache& cache, std::size_t c) {
  auto& k = cache.cls[c];
  std::lock_guard lock(shared_->mu);
  auto& list = shared_->free[c];
  const std::size_t n = std::min(std::max<std::size_t>(k.cap / 2, 1),
                                 list.size());
  for (std::size_t i = 0; i < n; ++i) {
    k.blocks[k.count++] = list.back();
    list.pop_back();
  }
}

void BufferPool::spill(detail::PoolCache& cache, std::size_t c) {
  // The oldest half goes; the most recently released blocks, likeliest to
  // be in this CPU's cache, stay.
  auto& k = cache.cls[c];
  const std::size_t n = std::max<std::size_t>(k.cap / 2, 1);
  std::size_t dropped = 0;
  {
    std::lock_guard lock(shared_->mu);
    auto& list = shared_->free[c];
    for (std::size_t i = 0; i < n; ++i) {
      if (list.size() < opt_.max_free_per_class) {
        list.push_back(k.blocks[i]);
      } else {
        ::operator delete(k.blocks[i]);
        ++dropped;
      }
    }
  }
  std::copy(k.blocks + n, k.blocks + k.count, k.blocks);
  k.count -= n;
  cache.add(detail::kDropped, static_cast<std::int64_t>(dropped));
}

PooledBuf BufferPool::acquire(std::size_t min_capacity) {
  const std::size_t c = class_for(min_capacity);
  PoolCache* cache = local_cache();
  BlockHeader* hdr = nullptr;
  if (c < kNumClasses) {
    if (cache != nullptr && cache->cls[c].cap > 0) {
      auto& k = cache->cls[c];
      if (k.count == 0) refill(*cache, c);
      if (k.count > 0) hdr = k.blocks[--k.count];
    } else {
      std::lock_guard lock(shared_->mu);
      auto& list = shared_->free[c];
      if (!list.empty()) {
        hdr = list.back();
        list.pop_back();
      }
    }
  }
  count(cache, *shared_, detail::kOutstanding, 1);
  if (hdr != nullptr) {
    count(cache, *shared_, detail::kHits, 1);
    hdr->refs.store(1, std::memory_order_relaxed);
    return PooledBuf(hdr);
  }
  if (c == kNumClasses) {
    // Oversize: a plain heap block, never recycled.  Still pool-tagged so
    // release_block can account for it.
    count(cache, *shared_, detail::kOversize, 1);
    return PooledBuf(heap_block(min_capacity, this));
  }
  count(cache, *shared_, detail::kMisses, 1);
  return PooledBuf(heap_block(kClasses[c], this));
}

void BufferPool::release_block(detail::BlockHeader* hdr) {
  PoolCache* cache = local_cache();
  count(cache, *shared_, detail::kOutstanding, -1);
  const std::size_t c = class_for(hdr->capacity);
  if (c == kNumClasses || kClasses[c] != hdr->capacity) {
    // Oversize blocks (capacity above the largest class) just go back to
    // the heap; they were never pool candidates.
    ::operator delete(hdr);
    return;
  }
  if (cache != nullptr && cache->cls[c].cap > 0) {
    auto& k = cache->cls[c];
    if (k.count == k.cap) spill(*cache, c);
    k.blocks[k.count++] = hdr;
    cache->add(detail::kRecycled, 1);
    return;
  }
  bool kept = false;
  {
    std::lock_guard lock(shared_->mu);
    auto& list = shared_->free[c];
    if (list.size() < opt_.max_free_per_class) {
      list.push_back(hdr);
      kept = true;
    }
  }
  count(cache, *shared_, kept ? detail::kRecycled : detail::kDropped, 1);
  if (!kept) ::operator delete(hdr);
}

PoolStats BufferPool::stats() const {
  std::int64_t n[detail::kNumCounters] = {};
  {
    std::lock_guard lock(shared_->mu);
    std::copy(std::begin(shared_->retired), std::end(shared_->retired), n);
    for (const PoolCache* cache : shared_->caches) {
      for (std::size_t i = 0; i < detail::kNumCounters; ++i) {
        n[i] += cache->n[i].load(std::memory_order_relaxed);
      }
    }
  }
  PoolStats s;
  s.hits = static_cast<std::uint64_t>(n[detail::kHits]);
  s.misses = static_cast<std::uint64_t>(n[detail::kMisses]);
  s.oversize = static_cast<std::uint64_t>(n[detail::kOversize]);
  s.recycled = static_cast<std::uint64_t>(n[detail::kRecycled]);
  s.dropped = static_cast<std::uint64_t>(n[detail::kDropped]);
  s.outstanding = n[detail::kOutstanding];
  return s;
}

void BufferPool::trim() {
  if (t_state == 1) {
    for (PoolCache* cache : t_caches.caches) {
      if (cache->shared != shared_) continue;
      for (auto& k : cache->cls) {
        for (std::size_t i = 0; i < k.count; ++i) {
          ::operator delete(k.blocks[i]);
        }
        k.count = 0;
      }
    }
  }
  std::lock_guard lock(shared_->mu);
  for (auto& list : shared_->free) {
    for (detail::BlockHeader* hdr : list) {
      ::operator delete(hdr);
    }
    list.clear();
  }
}

BufferPool& BufferPool::global() {
  // Intentionally leaked: handles held by static-storage objects must stay
  // releasable during process shutdown, in any destruction order.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

Payload::Payload(const Buffer& b) {
  if (b.empty()) {
    return;
  }
  PooledBuf buf = BufferPool::global().acquire(b.size());
  std::memcpy(buf.data(), b.data(), b.size());
  data_ = buf.data();
  size_ = b.size();
  owner_ = std::move(buf);
}

void PayloadWriter::grow(std::size_t need) {
  std::size_t cap = buf_.capacity() == 0 ? 64 : buf_.capacity();
  while (cap < need) {
    cap *= 2;
  }
  PooledBuf bigger = pool_->acquire(cap);
  if (size_ > 0) {
    std::memcpy(bigger.data(), buf_.data(), size_);
  }
  buf_ = std::move(bigger);
}

}  // namespace psmr::util
