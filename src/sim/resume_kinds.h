// Central registry of ResumeKey kinds.
//
// A ResumeKey's `kind` selects the registered restorer that rebuilds a pending
// continuation on restore. Kinds are global across the whole model so a snapshot is
// unambiguous; every component that defines continuation sites claims its values here.
// 0 is reserved for "no key" (ResumeKey::empty()).

#ifndef TCS_SRC_SIM_RESUME_KINDS_H_
#define TCS_SRC_SIM_RESUME_KINDS_H_

#include <cstdint>

namespace tcs {

enum ResumeKind : uint32_t {
  kResumeNone = 0,

  // --- Pager (src/mem/pager.cc) ---
  // args: [op id]. The clustered disk read at op.next_run landed; advance the chain.
  kResumePagerChain = 1,

  // --- Net (src/net/flow.h) ---
  // args: [session id]. A session flow's pending delivery: count it on the session's
  // flow (ordinary protocol messages carry no other delivery action, so this one
  // restorer covers every in-flight session send).
  kResumeFlowDelivered = 8,

  // --- Server pipeline (src/session/server.cc) ---
  // args: [session id, batch, generation]. The keystroke path's working-set page-in
  // completed; close the mem-stall attribution stage and run pipeline hop 0.
  kResumeServerPageInDone = 17,
  // args: [session id, hop, batch, generation]. A keystroke-pipeline hop's CPU burst
  // finished; account the hop and run the next one (or complete the pipeline).
  kResumeServerRenderDone = 18,

  // --- Workloads (src/workload) ---
  // args: [hog id]. A memory hog's page access completed; burn touch CPU, continue.
  kResumeHogTouchDone = 32,
};

}  // namespace tcs

#endif  // TCS_SRC_SIM_RESUME_KINDS_H_
