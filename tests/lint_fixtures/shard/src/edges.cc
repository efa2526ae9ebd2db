// Call-graph edge cases for det-shard-unsafe-write: overload widening,
// virtual dispatch, and recursion termination.
#include <cstddef>

namespace omega {

int g_touch_count = 0;

// Overload pair: a receiverless call to Touch from shard code must
// conservatively reach BOTH bodies, so the global write in either one fires.
void Touch(int v) { g_touch_count += v; }  // written through overload widening
void Touch(double) {}

struct Base {
  virtual void Apply() {}
  virtual ~Base() = default;
};

struct Derived : Base {
  void Apply() override { hits_ += 1; }  // reached via virtual dispatch
  int hits_ = 0;
};

// Recursion in the reachable set must terminate (visited-set worklist), and a
// pure recursive walker with only frame-local writes stays clean.
int CountDown(int n) {
  int acc = n;
  if (n > 0) {
    acc = CountDown(n - 1);
  }
  return acc;
}

void EdgeCases(Base* shape) {
  ParallelFor(4, [&](size_t i) {
    Touch(static_cast<int>(i));  // overload widening reaches the int body
    shape->Apply();              // virtual dispatch reaches Derived::Apply
    CountDown(3);                // recursion: must terminate, no finding
  });
}

}  // namespace omega
