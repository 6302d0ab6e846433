// Character-repeat typist (§4.2.2 Methodology): "The tester held down a key in the
// application to engage character repeat on the client machine, the rate of which was set
// at 20Hz. Under no load, we expect the server to respond every 50ms with a screen update
// message to draw a new character."

#ifndef TCS_SRC_WORKLOAD_TYPIST_H_
#define TCS_SRC_WORKLOAD_TYPIST_H_

#include <functional>

#include "src/sim/periodic.h"
#include "src/sim/simulator.h"

namespace tcs {

class Typist {
 public:
  // `on_keystroke` is invoked once per repeat period (default 20 Hz); it should inject the
  // keystroke into the system under test.
  Typist(Simulator& sim, std::function<void()> on_keystroke,
         Duration period = Duration::Millis(50));

  void Start(Duration initial_delay = Duration::Zero());
  void Stop();
  int64_t keystrokes() const { return keystrokes_; }

 private:
  std::function<void()> on_keystroke_;
  int64_t keystrokes_ = 0;
  PeriodicTask task_;
};

}  // namespace tcs

#endif  // TCS_SRC_WORKLOAD_TYPIST_H_
