// C++20 coroutine tasks for the simulator.
//
// The paper's Libra prototype "employs coroutines to handle blocking disk IO
// and inter-task coordination" (§5): a tenant task whose IO would exceed its
// VOP allocation is swapped out and resumed in a later scheduling round. We
// mirror that structure with lazily-started Task<T> coroutines driven by the
// virtual-time EventLoop.
//
// Ownership rules:
//  - Task<T> owns its coroutine frame; the frame is destroyed when the Task
//    is destroyed (normally at the end of the co_await full-expression).
//  - A task may be awaited at most once, and only as an rvalue:
//    `co_await Foo();` or `co_await std::move(t);`.
//  - Detach(std::move(task)) starts a task that owns itself and frees its
//    frame on completion (used for background FLUSH/COMPACT jobs and
//    workload workers).
// Exceptions must not escape a task body: the runtime terminates if one does
// (the codebase reports errors via Status).

#ifndef LIBRA_SRC_SIM_TASK_H_
#define LIBRA_SRC_SIM_TASK_H_

#include <cassert>
#include <coroutine>
#include <cstdlib>
#include <optional>
#include <utility>

namespace libra::sim {

template <typename T>
class Task;

namespace internal {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  bool detached = false;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      PromiseBase& p = h.promise();
      if (p.detached) {
        h.destroy();
        return std::noop_coroutine();
      }
      if (p.continuation) {
        return p.continuation;
      }
      return std::noop_coroutine();
    }

    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { std::abort(); }
};

template <typename T>
struct TaskPromise : PromiseBase {
  std::optional<T> value;

  Task<T> get_return_object();

  template <typename U>
  void return_value(U&& v) {
    value.emplace(std::forward<U>(v));
  }

  T TakeResult() {
    assert(value.has_value());
    return std::move(*value);
  }
};

template <>
struct TaskPromise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() noexcept {}
  void TakeResult() {}
};

}  // namespace internal

template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = internal::TaskPromise<T>;
  using value_type = T;
  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle handle) noexcept : handle_(handle) {}

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      DestroyFrame();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { DestroyFrame(); }

  bool valid() const noexcept { return static_cast<bool>(handle_); }

  // Relinquishes frame ownership (used by Detach and TaskGroup).
  Handle Release() noexcept { return std::exchange(handle_, {}); }

  struct Awaiter {
    Handle handle;

    bool await_ready() const noexcept { return !handle || handle.done(); }

    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<> cont) noexcept {
      handle.promise().continuation = cont;
      return handle;  // symmetric transfer: start the lazy task now
    }

    T await_resume() { return handle.promise().TakeResult(); }
  };

  Awaiter operator co_await() && noexcept {
    assert(handle_ && "awaiting an empty or already-consumed Task");
    return Awaiter{handle_};
  }

 private:
  void DestroyFrame() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_{};
};

namespace internal {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>(
      std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace internal

// Starts `task` detached: it owns itself and frees its frame on completion.
inline void Detach(Task<void> task) {
  auto handle = task.Release();
  assert(handle);
  handle.promise().detached = true;
  handle.resume();
}

}  // namespace libra::sim

#endif  // LIBRA_SRC_SIM_TASK_H_
