// Thread-local scratch arena for host hot paths.
//
// The host engine's inner loops used to heap-allocate `std::vector` scratch
// (transformed-input rows, state accumulators, im2col patches) inside every
// `parallel_for` task — on a training run that is millions of allocator
// round trips for buffers whose lifetime is exactly one task body. The
// arena replaces them with a per-thread bump allocator: a task opens a
// `Scope`, bump-allocates what it needs, and the whole lot is released in
// O(1) when the scope dies. Blocks are chained (never reallocated), so a
// grow while a scope is open cannot invalidate pointers handed out earlier.
//
// Sizing: the host engine's per-task footprint is bounded by
// α·(FH·IC + OC) floats (transformed-input ring + state accumulator), i.e.
// O(α·max(IC, OC)); the first 64 KiB block covers every layer in the
// training experiments, and growth is geometric for anything larger.
// Every rise of `max_high_water()` is recorded into the metrics registry's
// `host.arena.high_water_bytes` histogram (its max is the high-water mark)
// so arena pressure is visible in reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace iwg {

class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// The calling thread's arena (lazily constructed, lives until thread
  /// exit). Pool workers and the calling thread each get their own, so no
  /// synchronization is needed on the hot path.
  static ScratchArena& local();

  /// RAII mark/reset: allocations made while a Scope is alive are released
  /// together when it is destroyed. Scopes nest (a task may call a helper
  /// that opens its own).
  class Scope {
   public:
    explicit Scope(ScratchArena& a)
        : a_(a), block_(a.cur_block_), off_(a.cur_off_) {
      a.enter_scope();
    }
    ~Scope() { a_.exit_scope(block_, off_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ScratchArena& a_;
    std::size_t block_, off_;
  };

  /// Bump allocation; offsets advance in 64-byte quanta. Earlier pointers
  /// stay valid across growth (a new block is chained, nothing moves).
  void* alloc(std::size_t bytes);
  float* alloc_floats(std::size_t n) {
    return static_cast<float*>(alloc(n * sizeof(float)));
  }

  /// Peak bytes simultaneously live in this thread's arena.
  std::size_t high_water() const { return high_water_; }
  /// Total bytes held by this arena's blocks (retained across scopes).
  std::size_t capacity() const;

  /// Largest high_water() any thread's arena has reached (process-wide,
  /// monotonic — the observability hook).
  static std::size_t max_high_water();

  /// Release trailing unused blocks until `capacity() <= keep_bytes` (or no
  /// further block is droppable). Only safe — and only effective — while no
  /// Scope is open on this arena (calls under an open scope are no-ops:
  /// pointers handed out earlier must stay valid). A long-running process
  /// that served one outsized request can return that peak to the allocator
  /// instead of pinning it for the life of the thread; `high_water()` stays
  /// monotonic by design.
  void trim(std::size_t keep_bytes);

  /// Ask *every* thread's arena to trim itself to `keep_bytes`. Thread-local
  /// arenas are unsynchronized by design, so this cannot touch them
  /// directly: it bumps a process-wide epoch that each arena checks when its
  /// outermost Scope opens, trimming itself on its own thread before any
  /// allocation. The check is one relaxed atomic load per outermost scope.
  static void trim_all(std::size_t keep_bytes);

 private:
  friend class Scope;
  struct Block {
    std::unique_ptr<std::byte[]> data;  ///< raw storage (cap + kAlign - 1)
    std::byte* base = nullptr;          ///< data rounded up to kAlign
    std::size_t cap = 0;
  };

  void enter_scope();
  void exit_scope(std::size_t block, std::size_t off);
  void grow(std::size_t min_bytes);

  static constexpr std::size_t kAlign = 64;
  static constexpr std::size_t kFirstBlockBytes = std::size_t{1} << 16;

  std::vector<Block> blocks_;
  std::vector<std::size_t> prefix_;  ///< bytes in blocks before index i
  std::size_t cur_block_ = 0;
  std::size_t cur_off_ = 0;
  std::size_t high_water_ = 0;
  int scope_depth_ = 0;
  std::uint64_t trim_epoch_seen_ = 0;  ///< last trim_all epoch honored
};

}  // namespace iwg
