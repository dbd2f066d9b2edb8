// Fixture: the same manual mutex operations as locks_suppressed_ok.cpp,
// but each justification sits on its own line directly above the
// operation. Expected findings: none — a suppression covers the line it
// sits on and the line below.
// This file is analyzer input only — it is never compiled into a target.

namespace fixture {

class Mutex {
 public:
  void lock();
  void unlock();
};

class Gauge {
 public:
  void sample() {
    // PPROX-LOCKS-OK(manual): interrupt handler; guard dtor would run after the window closed
    mu_.lock();
    ++n_;
    // PPROX-LOCKS-OK(manual): mirrors the lock above
    mu_.unlock();
  }

 private:
  Mutex mu_;
  int n_ = 0;
};

}  // namespace fixture
