// Raw context-switch primitives for the simulation kernel's fibers.
//
// A hand-rolled fcontext-style switch (the boost.context / libaco shape):
// one continuation pointer per suspended context, an assembly routine that
// saves exactly the callee-saved register set the SysV/AAPCS ABIs require
// and swaps stacks, and nothing else -- no signal-mask bookkeeping, no
// pointer mangling, no unwind checks; a switch is ~a dozen moves plus an
// indirect jump.  It is the kernel's only context switch, and it exists
// for x86-64 and aarch64 ELF; other targets fail to compile here.
// tests/sim/fcontext_test.cpp checks the contract below directly.
//
// Semantics (mirrors boost's fcontext):
//  * make_fcontext(top, size, fn) carves a context record at the top of the
//    stack (stacks grow down; `top` is one-past-the-highest byte) and
//    returns a continuation that, when first jumped to, enters fn.
//  * jump_fcontext(to, data) suspends the calling context and resumes `to`.
//    The resumed side receives a transfer_t: `fctx` is the *caller's* fresh
//    continuation (a continuation is single-shot -- each suspension makes a
//    new one) and `data` is passed through verbatim.  The kernel's
//    convention: `data` is a fcontext_t* slot owned by the jumper, and the
//    first thing a resumed context does is store t.fctx there, parking the
//    jumper (fcontext_entry uses a one-shot bootstrap struct instead; see
//    kernel.cpp).
//
// Only callee-saved state crosses a switch: x86-64 saves rbx, rbp, r12-r15
// plus the MXCSR/x87 control words; aarch64 saves x19-x28, fp, lr and
// d8-d15.  Everything caller-saved is dead at the call boundary by ABI, so
// the switch is safe from any ordinary C++ call site -- but ONLY between
// contexts on the same OS thread within one switch "conversation": TLS and
// the signal mask stay with the thread, which is exactly the shard-pinning
// contract the sharded kernel already enforces (shard.hpp).
#pragma once

#include <cstddef>

#if !((defined(__x86_64__) || defined(__aarch64__)) && defined(__ELF__))
#error "sim fiber switch (fcontext.cpp): x86-64 and aarch64 ELF only"
#endif

namespace ethergrid::sim::internal {

// An opaque suspended context: points into the saved-register record at the
// owning stack's current top.  Single-shot -- jumping to it consumes it.
using fcontext_t = void*;

struct transfer_t {
  fcontext_t fctx;  // the jumper's continuation
  void* data;       // jump_fcontext's second argument, verbatim
};

extern "C" {
// Defined in fcontext.cpp as top-level assembly.
transfer_t ethergrid_jump_fcontext(fcontext_t to, void* data);
fcontext_t ethergrid_make_fcontext(void* stack_top, std::size_t size,
                                   void (*fn)(transfer_t));
}

inline transfer_t jump_fcontext(fcontext_t to, void* data) {
  return ethergrid_jump_fcontext(to, data);
}

inline fcontext_t make_fcontext(void* stack_top, std::size_t size,
                                void (*fn)(transfer_t)) {
  return ethergrid_make_fcontext(stack_top, size, fn);
}

}  // namespace ethergrid::sim::internal
