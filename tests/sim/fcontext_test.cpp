// The raw context switch's contract (fcontext.hpp), checked directly with
// bare make_fcontext / jump_fcontext ping-pongs -- no kernel, no second
// switch implementation to compare against:
//  * callee-saved state survives a switch on both sides;
//  * the floating-point control state (x86-64: MXCSR and x87 control
//    word) belongs to each context, not to the thread;
//  * a fresh context enters its function with ABI stack alignment;
//  * transfer_t::data arrives verbatim, and fctx names the jumper.
// The sanitizer annotations mirror the kernel's (kernel.cpp) so ASan and
// TSan follow these switches too.
#include "sim/fcontext.hpp"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstdlib>
#include <memory>

#if defined(__SANITIZE_ADDRESS__)
#define FCX_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FCX_TEST_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define FCX_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FCX_TEST_TSAN 1
#endif
#endif
#ifdef FCX_TEST_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef FCX_TEST_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace ethergrid::sim::internal {
namespace {

constexpr std::size_t kStackBytes = std::size_t(1) << 20;

// One caller ("main", the test's own thread stack) and one fiber on a heap
// stack, switching back and forth.  to_fiber / to_main wrap jump_fcontext
// with the sanitizer bookkeeping and park the other side's continuation.
struct Conversation {
  std::unique_ptr<char[]> stack{new char[kStackBytes]};
  fcontext_t fiber = nullptr;  // parked fiber continuation
  fcontext_t main = nullptr;   // parked caller continuation
  void* main_fake = nullptr;
  void* fiber_fake = nullptr;
  const void* main_bottom = nullptr;
  std::size_t main_size = 0;
  void* main_tsan = nullptr;
  void* fiber_tsan = nullptr;

  Conversation() {
#ifdef FCX_TEST_TSAN
    main_tsan = __tsan_get_current_fiber();
    fiber_tsan = __tsan_create_fiber(0);
#endif
  }
  ~Conversation() {
#ifdef FCX_TEST_TSAN
    __tsan_destroy_fiber(fiber_tsan);
#endif
  }
  Conversation(const Conversation&) = delete;
  Conversation& operator=(const Conversation&) = delete;

  char* top() { return stack.get() + kStackBytes; }

  // Caller side: resume (or first enter) the fiber; returns what the fiber
  // passes back.
  void* to_fiber(void* data) {
#ifdef FCX_TEST_ASAN
    __sanitizer_start_switch_fiber(&main_fake, stack.get(), kStackBytes);
#endif
#ifdef FCX_TEST_TSAN
    __tsan_switch_to_fiber(fiber_tsan, 0);
#endif
    const transfer_t t = jump_fcontext(fiber, data);
#ifdef FCX_TEST_ASAN
    __sanitizer_finish_switch_fiber(main_fake, nullptr, nullptr);
#endif
    fiber = t.fctx;
    return t.data;
  }

  // First words of a fresh fiber: learn the caller's stack and park it.
  void entered(const transfer_t& t) {
#ifdef FCX_TEST_ASAN
    __sanitizer_finish_switch_fiber(nullptr, &main_bottom, &main_size);
#endif
    main = t.fctx;
  }

  // Fiber side: suspend back to the caller.  `last` marks the final
  // departure (the fiber is never resumed again).
  void* to_main(void* data, bool last = false) {
#ifdef FCX_TEST_ASAN
    __sanitizer_start_switch_fiber(last ? nullptr : &fiber_fake, main_bottom,
                                   main_size);
#else
    (void)last;
#endif
#ifdef FCX_TEST_TSAN
    __tsan_switch_to_fiber(main_tsan, 0);
#endif
    const transfer_t t = jump_fcontext(main, data);
#ifdef FCX_TEST_ASAN
    __sanitizer_finish_switch_fiber(fiber_fake, &main_bottom, &main_size);
#endif
    main = t.fctx;
    return t.data;
  }
};

Conversation* g_conv = nullptr;  // the fiber functions' way back

// Opaque to the optimizer: forces each value into a register at this
// point, so the compiler can neither fold the locals below into constants
// nor rematerialize them from the loop counter.
#define FCX_LAUNDER6(a, b, c, d, e, f) \
  asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(f))

constexpr int kRounds = 10000;

// Twelve live integer locals, stepped and checked around every switch.
// More than the callee-saved set on either ABI, so some live in
// registers the switch must restore and the rest in spill slots on the
// side's own stack.  Returns the number of mismatches seen.
template <typename Switch>
int churn_locals(std::uint64_t base, Switch&& do_switch) {
  std::uint64_t a0 = base + 0, a1 = base + 11, a2 = base + 22, a3 = base + 33,
                a4 = base + 44, a5 = base + 55, a6 = base + 66,
                a7 = base + 77, a8 = base + 88, a9 = base + 99,
                a10 = base + 110, a11 = base + 121;
  int bad = 0;
  for (int i = 1; i <= kRounds; ++i) {
    FCX_LAUNDER6(a0, a1, a2, a3, a4, a5);
    FCX_LAUNDER6(a6, a7, a8, a9, a10, a11);
    a0 += 1, a1 += 2, a2 += 3, a3 += 4, a4 += 5, a5 += 6;
    a6 += 7, a7 += 8, a8 += 9, a9 += 10, a10 += 11, a11 += 12;
    do_switch(i);
    FCX_LAUNDER6(a0, a1, a2, a3, a4, a5);
    FCX_LAUNDER6(a6, a7, a8, a9, a10, a11);
    const std::uint64_t n = std::uint64_t(i);
    bad += a0 != base + 0 + n * 1;
    bad += a1 != base + 11 + n * 2;
    bad += a2 != base + 22 + n * 3;
    bad += a3 != base + 33 + n * 4;
    bad += a4 != base + 44 + n * 5;
    bad += a5 != base + 55 + n * 6;
    bad += a6 != base + 66 + n * 7;
    bad += a7 != base + 77 + n * 8;
    bad += a8 != base + 88 + n * 9;
    bad += a9 != base + 99 + n * 10;
    bad += a10 != base + 110 + n * 11;
    bad += a11 != base + 121 + n * 12;
  }
  return bad;
}

// Data words are tagged by side and round so a swapped, stale or mangled
// pointer cannot pass.
void* tag(std::uintptr_t side, int round) {
  return reinterpret_cast<void*>((side << 48) | std::uintptr_t(round));
}

constexpr std::uintptr_t kToFiber = 0xf1;
constexpr std::uintptr_t kToMain = 0xa1;

// Fiber-side findings live outside the fiber's stack, so they outlive
// its final departure.
int g_fiber_bad_locals = -1;
int g_fiber_bad_data = -1;

void registers_fiber(transfer_t t) {
  Conversation& conv = *g_conv;
  conv.entered(t);
  int bad_data = t.data != tag(kToFiber, 0);
  const int bad_locals = churn_locals(0x5eed0000ull, [&](int i) {
    void* got = conv.to_main(tag(kToMain, i));
    bad_data += got != tag(kToFiber, i);
  });
  g_fiber_bad_locals = bad_locals;
  g_fiber_bad_data = bad_data;
  conv.to_main(nullptr, /*last=*/true);
  std::abort();  // never resumed after the final departure
}

TEST(Fcontext, CalleeSavedStateAndDataSurviveRoundTrips) {
  Conversation conv;
  g_conv = &conv;
  conv.fiber = make_fcontext(conv.top(), kStackBytes, &registers_fiber);
  ASSERT_NE(conv.fiber, nullptr);
  int bad_data = 0;
  // The first jump enters the fiber; each loop switch resumes it, so the
  // fiber's `do_switch(i)` hands back round i's tag.
  bad_data += conv.to_fiber(tag(kToFiber, 0)) != tag(kToMain, 1);
  const int bad_locals = churn_locals(0xca11e40000ull, [&](int i) {
    void* got = conv.to_fiber(tag(kToFiber, i));
    // The last switch is the fiber's final departure.
    bad_data += got != (i < kRounds ? tag(kToMain, i + 1) : nullptr);
  });
  g_conv = nullptr;
  EXPECT_EQ(bad_locals, 0) << "caller-side locals clobbered";
  EXPECT_EQ(bad_data, 0) << "caller-side data mangled";
  EXPECT_EQ(g_fiber_bad_locals, 0) << "fiber-side locals clobbered";
  EXPECT_EQ(g_fiber_bad_data, 0) << "fiber-side data mangled";
}

// 1/3 is inexact, so its rounded value tells the active rounding mode
// apart: upward rounding gives a larger double than downward.
double third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  volatile double q = one / three;
  return q;
}

constexpr int kRoundingRounds = 1000;
int g_fiber_bad_rounding = -1;
double g_fiber_third = 0;  // 1/3 rounded upward, in the fiber

void rounding_fiber(transfer_t t) {
  Conversation& conv = *g_conv;
  conv.entered(t);
  // Entered with the creator's mode (make_fcontext seeds it); switch this
  // context to upward rounding.
  int bad = std::fegetround() != FE_DOWNWARD;
  std::fesetround(FE_UPWARD);
  const double up = third();
  for (int i = 0; i < kRoundingRounds; ++i) {
    conv.to_main(nullptr);
    bad += std::fegetround() != FE_UPWARD;  // x87 control word
    bad += third() != up;                   // MXCSR (SSE divide)
  }
  g_fiber_bad_rounding = bad;
  g_fiber_third = up;
  conv.to_main(nullptr, /*last=*/true);
  std::abort();
}

TEST(Fcontext, RoundingModeStaysWithItsContext) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "only the x86-64 switch saves floating-point control state";
#else
  const int saved = std::fegetround();
  ASSERT_EQ(std::fesetround(FE_DOWNWARD), 0);
  const double down = third();
  Conversation conv;
  g_conv = &conv;
  conv.fiber = make_fcontext(conv.top(), kStackBytes, &rounding_fiber);
  int bad = 0;
  // One entry, then one resume per fiber round; the last returns from the
  // fiber's final departure.
  for (int i = 0; i <= kRoundingRounds; ++i) {
    conv.to_fiber(nullptr);
    bad += std::fegetround() != FE_DOWNWARD;
    bad += third() != down;
  }
  g_conv = nullptr;
  std::fesetround(saved);
  EXPECT_EQ(g_fiber_bad_rounding, 0) << "fiber lost its rounding mode";
  EXPECT_EQ(bad, 0) << "caller's rounding mode leaked from the fiber";
  EXPECT_LT(down, g_fiber_third) << "rounding modes did not differ";
#endif
}

std::uintptr_t g_entry_frame = 0;

// The frame address is what the prologue derives from the entry stack
// pointer: with ABI alignment at entry it is 16-byte aligned on both
// targets (x86-64: rsp % 16 == 8 at entry, then push rbp; aarch64: sp is
// always 16-aligned).
__attribute__((noinline)) void alignment_fiber(transfer_t t) {
  auto frame = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  asm volatile("" : "+r"(frame));  // the compiler may assume alignment
  g_entry_frame = frame;
  g_conv->entered(t);
  g_conv->to_main(nullptr, /*last=*/true);
  std::abort();
}

TEST(Fcontext, FreshContextEntersWithAbiStackAlignment) {
  // make_fcontext aligns any stack top down; try every misalignment.
  for (std::size_t skew = 0; skew < 16; ++skew) {
    SCOPED_TRACE(skew);
    Conversation conv;
    g_conv = &conv;
    g_entry_frame = 1;
    conv.fiber = make_fcontext(conv.top() - skew, kStackBytes - skew,
                               &alignment_fiber);
    conv.to_fiber(nullptr);
    g_conv = nullptr;
    EXPECT_EQ(g_entry_frame % 16, 0u);
    EXPECT_LT(g_entry_frame, reinterpret_cast<std::uintptr_t>(conv.top()));
    EXPECT_GT(g_entry_frame,
              reinterpret_cast<std::uintptr_t>(conv.stack.get()));
  }
}

}  // namespace
}  // namespace ethergrid::sim::internal
